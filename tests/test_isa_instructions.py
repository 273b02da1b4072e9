"""Unit tests for instruction dependency/memory/flop metadata."""

import dataclasses
import random

import pytest

from repro.isa.instructions import (
    ALL_ROWS,
    DUP,
    EXT,
    FADD_V,
    FMLA,
    FMLA_IDX,
    FMLA_M,
    FMOPA,
    FMUL_IDX,
    Instruction,
    INSTRUCTION_TYPES,
    LD1D,
    LD1D_STRIDED,
    MOVA_TILE_TO_VEC,
    MOVA_VEC_TO_TILE,
    PortClass,
    PRFM,
    SCALAR_OP,
    SET_LANES,
    ST1D,
    ST1D_SLICE,
    ZERO_TILE,
)
from repro.isa.registers import NUM_TILES, NUM_VREGS, SVL_LANES, TileReg, VReg


class TestMemoryInstructions:
    def test_ld1d_reads_eight_words(self):
        ins = LD1D(VReg(0), 1000)
        assert ins.mem_reads() == ((1000, 8),)
        assert ins.mem_writes() == ()
        assert ins.writes() == ("z0",)
        assert ins.port is PortClass.LOAD

    def test_strided_load_touches_eight_separate_words(self):
        ins = LD1D_STRIDED(VReg(1), 2000, stride=100)
        regions = ins.mem_reads()
        assert len(regions) == 8
        assert regions[0] == (2000, 1)
        assert regions[7] == (2700, 1)

    def test_st1d_writes_eight_words(self):
        ins = ST1D(VReg(2), 3000)
        assert ins.mem_writes() == ((3000, 8),)
        assert ins.reads() == ("z2",)
        assert ins.port is PortClass.STORE

    def test_slice_store_depends_on_one_row(self):
        ins = ST1D_SLICE(TileReg(1), 3, 4000)
        assert ins.reads() == (("za1", 3),)
        assert ins.mem_writes() == ((4000, 8),)

    def test_prfm_has_no_register_effects(self):
        ins = PRFM(5000, write=True)
        assert ins.reads() == ()
        assert ins.writes() == ()
        assert ins.port is PortClass.LOAD


class TestVectorInstructions:
    def test_fmla_reads_accumulator(self):
        ins = FMLA(VReg(0), VReg(1), VReg(2))
        assert set(ins.reads()) == {"z0", "z1", "z2"}
        assert ins.writes() == ("z0",)
        assert ins.flops == 16

    def test_fmla_idx_flops(self):
        assert FMLA_IDX(VReg(0), VReg(1), VReg(2), 3).flops == 16

    def test_fmul_idx_does_not_read_destination(self):
        ins = FMUL_IDX(VReg(0), VReg(1), VReg(2), 0)
        assert "z0" not in ins.reads()
        assert ins.flops == 8

    def test_fadd(self):
        ins = FADD_V(VReg(3), VReg(4), VReg(5))
        assert ins.writes() == ("z3",)
        assert ins.flops == 8

    def test_ext_immediate_range(self):
        EXT(VReg(0), VReg(1), VReg(2), 0)
        EXT(VReg(0), VReg(1), VReg(2), 8)
        with pytest.raises(ValueError):
            EXT(VReg(0), VReg(1), VReg(2), 9)

    def test_dup_and_set_lanes(self):
        assert DUP(VReg(0), 2.0).writes() == ("z0",)
        sl = SET_LANES(VReg(1), tuple(float(i) for i in range(8)))
        assert sl.writes() == ("z1",)
        with pytest.raises(ValueError):
            SET_LANES(VReg(1), (1.0, 2.0))


class TestMatrixInstructions:
    def test_fmopa_default_rows_dense(self):
        ins = FMOPA(TileReg(0), VReg(1), VReg(2))
        assert ins.rows == ALL_ROWS
        assert ins.flops == 128
        assert ins.useful_flops == 128

    def test_fmopa_sparse_rows_reduce_useful_flops(self):
        ins = FMOPA(TileReg(0), VReg(1), VReg(2), rows=(2, 3, 4))
        assert ins.useful_flops == 2 * 3 * 8
        assert ins.flops == 128  # machine capability unchanged

    def test_fmopa_row_dependencies_are_slice_granular(self):
        ins = FMOPA(TileReg(1), VReg(0), VReg(2), rows=(5,))
        assert ("za1", 5) in ins.reads()  # accumulation reads the slice
        assert ins.writes() == (("za1", 5),)

    def test_fmopa_rows_deduplicated_and_sorted(self):
        ins = FMOPA(TileReg(0), VReg(0), VReg(1), rows=(3, 1, 3))
        assert ins.rows == (1, 3)

    def test_fmopa_row_range_checked(self):
        # Twice: a rejected value must not be remembered as valid.
        for _ in range(2):
            with pytest.raises(ValueError):
                FMOPA(TileReg(0), VReg(0), VReg(1), rows=(8,))
        for _ in range(2):
            with pytest.raises(ValueError):
                FMOPA(TileReg(0), VReg(0), VReg(1), useful_cols=[3, -1])

    def test_fmopa_useful_cols(self):
        ins = FMOPA(TileReg(0), VReg(0), VReg(1), useful_cols=(0, 1))
        assert ins.useful_flops == 2 * 8 * 2

    def test_zero_tile_writes_all_slices(self):
        ins = ZERO_TILE(TileReg(3))
        assert len(ins.writes()) == 8

    def test_mova_directions(self):
        t2v = MOVA_TILE_TO_VEC(VReg(0), TileReg(1), 2)
        assert t2v.reads() == (("za1", 2),)
        assert t2v.writes() == ("z0",)
        v2t = MOVA_VEC_TO_TILE(TileReg(1), 2, VReg(0))
        assert v2t.reads() == ("z0",)
        assert v2t.writes() == (("za1", 2),)

    def test_fmla_m_group_registers(self):
        ins = FMLA_M(TileReg(4), VReg(8), VReg(16), 1)
        assert ins.group_regs() == (VReg(8), VReg(9), VReg(10), VReg(11))
        assert set(ins.writes()) == {("za4", 0), ("za4", 2), ("za4", 4), ("za4", 6)}
        assert ins.flops == 2 * 8 * 4

    def test_fmla_m_group_must_fit_register_file(self):
        with pytest.raises(ValueError):
            FMLA_M(TileReg(0), VReg(30), VReg(0), 0)

    def test_fmla_m_index_checked(self):
        with pytest.raises(ValueError):
            FMLA_M(TileReg(0), VReg(0), VReg(4), 8)


class TestScalar:
    def test_scalar_op_is_inert(self):
        ins = SCALAR_OP(kind="loop")
        assert ins.reads() == () and ins.writes() == ()
        assert ins.flops == 0
        assert ins.port is PortClass.SCALAR


# -- dependence keys against the plain formula --------------------------------


def _vk(reg):
    return reg.name


def _tk(tile, rows):
    return tuple((tile.name, r) for r in rows)


#: ``(reads, writes)`` of every codec instruction type, written out from
#: the register names: the values every scoreboard and digest is built on.
PLAIN_KEYS = {
    LD1D: lambda i: ((), (_vk(i.dst),)),
    LD1D_STRIDED: lambda i: ((), (_vk(i.dst),)),
    ST1D: lambda i: ((_vk(i.src),), ()),
    ST1D_SLICE: lambda i: (_tk(i.tile, (i.row,)), ()),
    PRFM: lambda i: ((), ()),
    FMLA: lambda i: ((_vk(i.dst), _vk(i.a), _vk(i.b)), (_vk(i.dst),)),
    FMLA_IDX: lambda i: ((_vk(i.dst), _vk(i.a), _vk(i.b)), (_vk(i.dst),)),
    FMUL_IDX: lambda i: ((_vk(i.a), _vk(i.b)), (_vk(i.dst),)),
    FADD_V: lambda i: ((_vk(i.a), _vk(i.b)), (_vk(i.dst),)),
    EXT: lambda i: ((_vk(i.a), _vk(i.b)), (_vk(i.dst),)),
    DUP: lambda i: ((), (_vk(i.dst),)),
    SET_LANES: lambda i: ((), (_vk(i.dst),)),
    FMOPA: lambda i: (
        (_vk(i.coef), _vk(i.src)) + _tk(i.tile, i.rows),
        _tk(i.tile, i.rows),
    ),
    ZERO_TILE: lambda i: ((), _tk(i.tile, ALL_ROWS)),
    MOVA_TILE_TO_VEC: lambda i: (_tk(i.tile, (i.row,)), (_vk(i.dst),)),
    MOVA_VEC_TO_TILE: lambda i: ((_vk(i.src),), _tk(i.tile, (i.row,))),
    FMLA_M: lambda i: (
        tuple(_vk(r) for r in i.group_regs()) + (_vk(i.b),) + _tk(i.tile, FMLA_M.EVEN_ROWS),
        _tk(i.tile, FMLA_M.EVEN_ROWS),
    ),
    SCALAR_OP: lambda i: ((), ()),
}


def _random_instruction(cls, rng, as_list):
    """One ``cls`` with random registers, lanes and immediates."""
    lanes = range(SVL_LANES)
    draw = {
        "a_base": lambda: VReg(rng.randrange(NUM_VREGS - FMLA_M.GROUP + 1)),
        "rows": lambda: [rng.choice(lanes) for _ in range(rng.randrange(1, 10))],
        "useful_cols": lambda: [rng.choice(lanes) for _ in range(rng.randrange(1, 10))],
        "row": lambda: rng.choice(lanes),
        "idx": lambda: rng.choice(lanes),
        "imm": lambda: rng.randrange(SVL_LANES + 1),
        "mask": lambda: rng.randrange(1, SVL_LANES + 1),
        "values": lambda: tuple(rng.random() for _ in lanes),
        "value": rng.random,
        "write": lambda: rng.random() < 0.5,
        "kind": lambda: "loop",
    }
    args = {}
    for f in dataclasses.fields(cls):
        if f.name in draw:
            value = draw[f.name]()
        elif f.type in ("VReg", VReg):
            value = VReg(rng.randrange(NUM_VREGS))
        elif f.type in ("TileReg", TileReg):
            value = TileReg(rng.randrange(NUM_TILES))
        else:
            value = rng.randrange(1, 1 << 20)  # addresses, strides, lengths
        if isinstance(value, list) and not as_list:
            value = tuple(value)
        args[f.name] = value
    return cls(**args)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_plain_keys_cover_every_instruction_type():
    assert set(INSTRUCTION_TYPES) == set(_subclasses(Instruction))
    assert set(PLAIN_KEYS) == set(INSTRUCTION_TYPES)


@pytest.mark.parametrize("as_list", [False, True], ids=["tuple", "list"])
@pytest.mark.parametrize("cls", INSTRUCTION_TYPES, ids=lambda c: c.__name__)
def test_dependence_keys_match_plain_formula(cls, as_list):
    rng = random.Random(f"{cls.__name__}-{as_list}")
    for _ in range(40):
        ins = _random_instruction(cls, rng, as_list)
        reads, writes = PLAIN_KEYS[cls](ins)
        assert type(ins.reads()) is tuple and type(ins.writes()) is tuple
        assert ins.reads() == reads and repr(ins.reads()) == repr(reads)
        assert ins.writes() == writes and repr(ins.writes()) == repr(writes)
