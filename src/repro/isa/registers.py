"""Architectural registers of the simulated scalable matrix/vector CPU.

The machine models a 512-bit scalable vector length (SVL): every vector
register holds :data:`SVL_LANES` = 8 double-precision lanes, and every matrix
tile register is an 8x8 FP64 tile (64 doubles), matching the LX2/Apple-M4
configuration described in the paper (Section 2.1: "Each tile can store up to
64 double-precision numbers, organized into 8 rows of 8 numbers, with each
row known as a slice").

Registers are identified by lightweight immutable handles (:class:`VReg`,
:class:`TileReg`); the actual storage lives in :class:`RegisterFile`, which
the functional engine owns.  Handles are hashable so the timing engine can
use them as scoreboard keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

#: Number of FP64 lanes in one scalable vector register (512-bit SVL).
SVL_LANES = 8

#: Number of architectural vector registers (z0..z31, as in SVE).
NUM_VREGS = 32

#: Number of FP64 matrix tile registers (za0..za7, as in SME ZA storage).
NUM_TILES = 8

#: Register names by index, formatted once.  Names are the dependence keys
#: of the timing engine and appear in every trace-signature digest, so
#: their values must never change.
VREG_NAMES: Tuple[str, ...] = tuple(f"z{i}" for i in range(NUM_VREGS))
TILE_NAMES: Tuple[str, ...] = tuple(f"za{i}" for i in range(NUM_TILES))


@dataclass(frozen=True)
class VReg:
    """Handle for a scalable vector register ``z<index>``.

    The handle carries no data; it names one of the :data:`NUM_VREGS`
    architectural vector registers.
    """

    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < NUM_VREGS:
            raise ValueError(f"vector register index out of range: {self.index}")

    @property
    def name(self) -> str:
        return VREG_NAMES[self.index]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


@dataclass(frozen=True)
class TileReg:
    """Handle for a matrix tile register ``za<index>`` (8x8 FP64).

    Tiles are the accumulators of the outer-product unit.  A *slice* is one
    row of the tile; slice-granular dependencies matter for the scattered
    (eager) store optimization, so the timing engine tracks readiness per
    slice while the functional engine stores the full 8x8 block.
    """

    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < NUM_TILES:
            raise ValueError(f"tile register index out of range: {self.index}")

    @property
    def name(self) -> str:
        return TILE_NAMES[self.index]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


class RegisterFile:
    """Storage for the architectural register state.

    Vector registers are stored as a ``(NUM_VREGS, SVL_LANES)`` float64 array
    and tiles as ``(NUM_TILES, SVL_LANES, SVL_LANES)``.  Reads return copies
    so that instruction semantics cannot alias simulator state by accident;
    writes copy in.  This is the *functional* register file; the timing
    engine never touches values, only handle names.
    """

    def __init__(self) -> None:
        self._vregs = np.zeros((NUM_VREGS, SVL_LANES), dtype=np.float64)
        self._tiles = np.zeros((NUM_TILES, SVL_LANES, SVL_LANES), dtype=np.float64)

    # -- vector registers ---------------------------------------------------

    def read_v(self, reg: VReg) -> np.ndarray:
        """Return a copy of the 8-lane contents of ``reg``."""
        return self._vregs[reg.index].copy()

    def write_v(self, reg: VReg, value: np.ndarray) -> None:
        """Overwrite ``reg`` with ``value`` (must have SVL_LANES elements)."""
        value = np.asarray(value, dtype=np.float64)
        if value.shape != (SVL_LANES,):
            raise ValueError(f"vector write must have shape ({SVL_LANES},), got {value.shape}")
        self._vregs[reg.index] = value

    # -- tile registers -----------------------------------------------------

    def read_tile(self, reg: TileReg) -> np.ndarray:
        """Return a copy of the 8x8 contents of tile ``reg``."""
        return self._tiles[reg.index].copy()

    def write_tile(self, reg: TileReg, value: np.ndarray) -> None:
        """Overwrite tile ``reg`` with an 8x8 block."""
        value = np.asarray(value, dtype=np.float64)
        if value.shape != (SVL_LANES, SVL_LANES):
            raise ValueError(
                f"tile write must have shape ({SVL_LANES}, {SVL_LANES}), got {value.shape}"
            )
        self._tiles[reg.index] = value

    def read_slice(self, reg: TileReg, row: int) -> np.ndarray:
        """Return a copy of horizontal slice ``row`` of tile ``reg``."""
        self._check_row(row)
        return self._tiles[reg.index, row].copy()

    def write_slice(self, reg: TileReg, row: int, value: np.ndarray) -> None:
        """Overwrite horizontal slice ``row`` of tile ``reg``."""
        self._check_row(row)
        value = np.asarray(value, dtype=np.float64)
        if value.shape != (SVL_LANES,):
            raise ValueError(f"slice write must have shape ({SVL_LANES},), got {value.shape}")
        self._tiles[reg.index, row] = value

    def accumulate_outer(self, reg: TileReg, col_vec: np.ndarray, row_vec: np.ndarray) -> None:
        """``za += outer(col_vec, row_vec)`` — the FMOPA accumulate step.

        ``col_vec`` selects/weights tile rows (the "coefficient vector" of
        the paper's scatter formulation); ``row_vec`` is broadcast across
        columns.  Rows whose coefficient is exactly zero are left untouched,
        which is what makes the in-place accumulation trick exact rather
        than approximate.
        """
        self._tiles[reg.index] += np.outer(
            np.asarray(col_vec, dtype=np.float64), np.asarray(row_vec, dtype=np.float64)
        )

    def zero_tile(self, reg: TileReg) -> None:
        """Clear tile ``reg`` to all zeros."""
        self._tiles[reg.index] = 0.0

    def reset(self) -> None:
        """Clear all architectural state (used between kernel runs)."""
        self._vregs.fill(0.0)
        self._tiles.fill(0.0)

    @staticmethod
    def _check_row(row: int) -> None:
        if not 0 <= row < SVL_LANES:
            raise ValueError(f"tile row out of range: {row}")
