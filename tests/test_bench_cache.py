"""On-disk measurement cache: key stability, round-trips, runner wiring."""

import dataclasses
import json

import pytest

from repro.bench.cache import (
    MeasurementCache,
    cache_key,
    code_version,
    machine_digest,
    machine_fingerprint,
)
from repro.bench.runner import ExperimentRunner
from repro.isa.instructions import PortClass
from repro.kernels.base import KernelOptions
from repro.machine.config import LX2, M4
from repro.machine.perf import PerfCounters
from repro.machine.timing import SamplePlan, SimMode


def sample_counters() -> PerfCounters:
    pc = PerfCounters(label="demo")
    pc.cycles = 123.5
    pc.instructions = 456
    pc.instructions_by_port = {PortClass.VECTOR: 100, PortClass.MATRIX: 42}
    pc.flops = 7
    pc.points = 64
    pc.dram_lines_read = 10
    pc.dram_lines_written = 3
    pc.sampled = True
    pc.line_bytes = 128
    return pc


class TestCacheKey:
    def test_same_inputs_same_key(self):
        a, _ = cache_key(LX2(), "hstencil", "star2d5p", (32, 32), KernelOptions(), None, True)
        b, _ = cache_key(LX2(), "hstencil", "star2d5p", (32, 32), KernelOptions(), None, True)
        assert a == b

    def test_options_change_key(self):
        a, _ = cache_key(LX2(), "hstencil", "star2d5p", (32, 32), KernelOptions(), None, True)
        b, _ = cache_key(
            LX2(), "hstencil", "star2d5p", (32, 32), KernelOptions(unroll_j=8), None, True
        )
        assert a != b

    def test_machine_changes_key(self):
        a, _ = cache_key(LX2(), "hstencil", "star2d5p", (32, 32), KernelOptions(), None, True)
        b, _ = cache_key(M4(), "hstencil", "star2d5p", (32, 32), KernelOptions(), None, True)
        c, _ = cache_key(
            LX2().without_hw_prefetch(),
            "hstencil", "star2d5p", (32, 32), KernelOptions(), None, True,
        )
        assert len({a, b, c}) == 3

    def test_plan_warm_shape_change_key(self):
        base, _ = cache_key(LX2(), "auto", "star2d5p", (32, 32), KernelOptions(), None, True)
        plan, _ = cache_key(
            LX2(), "auto", "star2d5p", (32, 32), KernelOptions(), SamplePlan(), True
        )
        cold, _ = cache_key(LX2(), "auto", "star2d5p", (32, 32), KernelOptions(), None, False)
        big, _ = cache_key(LX2(), "auto", "star2d5p", (64, 32), KernelOptions(), None, True)
        assert len({base, plan, cold, big}) == 4

    def test_inputs_embed_code_version(self):
        _, inputs = cache_key(LX2(), "auto", "star2d5p", (32, 32), KernelOptions(), None, True)
        assert inputs["code_version"] == code_version()
        assert json.dumps(inputs)  # JSON-safe

    def test_fingerprint_is_json_safe_and_digest_stable(self):
        fp = machine_fingerprint(LX2())
        assert json.dumps(fp)
        assert fp["ports"]["MATRIX"] == 1
        assert machine_digest(LX2()) == machine_digest(LX2())
        assert machine_digest(LX2()) != machine_digest(M4())


class TestCounterRoundTrip:
    def test_round_trip_preserves_everything(self):
        pc = sample_counters()
        back = PerfCounters.from_dict(json.loads(json.dumps(pc.to_dict())))
        assert back == pc
        assert back.instructions_by_port == {PortClass.VECTOR: 100, PortClass.MATRIX: 42}
        assert back.sampled is True
        assert back.line_bytes == 128
        assert back.dram_bytes() == 13 * 128

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            PerfCounters.from_dict({"no_such_counter": 1})


class TestMeasurementCache:
    def test_store_load_round_trip(self, tmp_path):
        cache = MeasurementCache(tmp_path)
        pc = sample_counters()
        cache.store("ab" + "0" * 62, pc, inputs={"method": "demo"})
        loaded = cache.load("ab" + "0" * 62)
        assert loaded == pc
        assert cache.stats()["hits"] == 1
        assert cache.stats()["stores"] == 1

    def test_missing_key_is_miss(self, tmp_path):
        cache = MeasurementCache(tmp_path)
        assert cache.load("ff" + "0" * 62) is None
        assert cache.stats()["misses"] == 1

    def test_corrupt_entry_is_miss(self, tmp_path):
        cache = MeasurementCache(tmp_path)
        key = "cd" + "0" * 62
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text("not json {")
        assert cache.load(key) is None

    def test_entry_is_self_describing(self, tmp_path):
        cache = MeasurementCache(tmp_path)
        key, inputs = cache_key(
            LX2(), "hstencil", "star2d5p", (32, 32), KernelOptions(), None, True
        )
        cache.store(key, sample_counters(), inputs)
        payload = json.loads(cache.path_for(key).read_text())
        assert payload["key"] == key
        assert payload["inputs"]["method"] == "hstencil"
        assert payload["counters"]["cycles"] == 123.5


class TestRunnerDiskCache:
    def test_second_runner_hits_disk(self, tmp_path):
        first = ExperimentRunner(LX2(), cache_dir=tmp_path)
        a = first.measure("auto", "star2d5p", (32, 32))
        assert first.provenance("auto", "star2d5p", (32, 32)) == "simulated"

        second = ExperimentRunner(LX2(), cache_dir=tmp_path)
        b = second.measure("auto", "star2d5p", (32, 32))
        assert second.provenance("auto", "star2d5p", (32, 32)) == "disk"
        assert b.counters.to_dict() == a.counters.to_dict()
        stats = second.cache_stats()
        assert stats == {
            "cells": 1,
            "simulated": 0,
            "disk_hits": 1,
            "disk": {
                "root": str(tmp_path),
                "hits": 1,
                "misses": 0,
                "stores": 0,
                "invalid": 0,
            },
        }

    def test_different_options_do_not_collide(self, tmp_path):
        a = ExperimentRunner(LX2(), KernelOptions(unroll_j=2), cache_dir=tmp_path)
        b = ExperimentRunner(LX2(), KernelOptions(unroll_j=8), cache_dir=tmp_path)
        ca = a.measure("hstencil", "box2d9p", (32, 64)).counters
        cb = b.measure("hstencil", "box2d9p", (32, 64)).counters
        assert b.provenance("hstencil", "box2d9p", (32, 64)) == "simulated"
        assert ca.cycles != cb.cycles

    def test_records_carry_provenance_and_derived(self, tmp_path):
        runner = ExperimentRunner(LX2(), cache_dir=tmp_path)
        runner.measure("auto", "star2d5p", (32, 32))
        (record,) = runner.records()
        assert record["source"] == "simulated"
        assert record["counters"]["points"] == 32 * 32
        assert record["derived"]["cycles_per_point"] > 0


# ---------------------------------------------------------------------------
# Pinned digests: every mode combination keys exactly as before SimMode.
# ---------------------------------------------------------------------------

#: ``cache_key`` digests of LX2/M4 ``hstencil`` box2d9p 64x64 (warm, no plan,
#: default options), recorded before the mode settings were folded into one
#: ``SimMode``.  ``code_version()`` and NumPy's version are pinned to
#: ``"pinned"`` so the table tests the key layout, not the source tree.
PINNED_DIGESTS = {
    ("LX2", None, "on", 1): "275e809a95b32caa824986daf23b92a6e47350b78a2f1acd2b04a2df675310dc",
    ("LX2", None, "on", 3): "7a15d43b3a42c4ea9f9bc571cc9e321c2855e3c630af0a7a95ab5f90a3bd1d08",
    ("LX2", None, "off", 1): "428c84ece8d76d782e05d6fb309bb70c8d11de87349eb8436afeaf649a550044",
    ("LX2", None, "off", 3): "82eda1fd0017b963bd2348cea04e8015c17cb321167d1244b1ed9c2b95963eb7",
    ("LX2", True, "on", 1): "6bbacfe29dcc65529b1ee564e18769644251f1de8c6039e7b2737f5408c3300f",
    ("LX2", True, "on", 3): "52d8f6c611983c51f1a4dffc934fc7e499bd95b2957ed6374d58590306bc105a",
    ("LX2", True, "off", 1): "39718237d20e5afb7b64d49f0628feea6a8ca36db8e616519feeffb5f0426720",
    ("LX2", True, "off", 3): "9144865afa79c846a280b44842cc8c1db595eb11da537ea2142168dfce853718",
    ("LX2", False, "on", 1): "7eb761dd0113dadb3a17326ae32b8fdec3b8d2206360aa8cb37d63a8bb30a11a",
    ("LX2", False, "on", 3): "c28db491de62f670ace530930550604e861d6bf0b7c447ce92da23e231cb2242",
    ("LX2", False, "off", 1): "614abb9b57de3766e90deeb2630ce01d471388e4dc8bac5242d6b7d548090057",
    ("LX2", False, "off", 3): "d83cacf03e75fd6be5df23d3915d36cfd3de743dcd7a44bc25080bd67f45f42c",
    ("M4", None, "on", 1): "b6b1d0eca93a48b64c9b0b624d8b3c05d75875b698b87bc3b6d70431208fb3da",
    ("M4", None, "on", 3): "984e8471c172517b3a3ae11f4f40d38e5c58aab8e435c85b763e7e239cf3449e",
    ("M4", None, "off", 1): "4bb0bcdf957abf0e364fef5dc3005b2f9820c154649e9ea6e64072c3efc4f7da",
    ("M4", None, "off", 3): "6213dd4ee2e5114e49606b183cf47ea2508727abe2cb33b3077125837e752487",
    ("M4", True, "on", 1): "df2332c1d997922e273199cff24acda75de13760e789d1b7b77380a0401cd7a1",
    ("M4", True, "on", 3): "0fc0d80f88c8c35af6e332b8ff47365d0c4275a49ea446af72d083f4e0925bbc",
    ("M4", True, "off", 1): "c77c6f1592cdc002796bb724fa19e51a53946a7be81959e0cd0c4d3ef1a1ce67",
    ("M4", True, "off", 3): "b24d158a6ceb564e8bc33812a4a9b223a9f9486d322099fd96c67211402cc015",
    ("M4", False, "on", 1): "de9816098c98415fd5e2ffa88dff5c7e4d67d2a1a9193c01f31078d849741472",
    ("M4", False, "on", 3): "b339ecc75b7e082c037b1ec12e642cdafd9771e2406c384c13c76673d60ede8a",
    ("M4", False, "off", 1): "da077481da9b207b812b0e6ea50e245ad79419a4394de019ec4fdd7018e67364",
    ("M4", False, "off", 3): "9600d4030138d19bf37ba0f12abecd64d4c2270d038111a8a1ec068dc6dc08dd",
}


@pytest.mark.parametrize("engine", ["compiled", "reference"])
@pytest.mark.parametrize(
    "machine,sample,steady,iters",
    list(PINNED_DIGESTS),
    ids=["-".join(map(str, k)) for k in PINNED_DIGESTS],
)
def test_cache_key_digest_pinned(monkeypatch, machine, sample, steady, iters, engine):
    import repro.bench.cache as cache_mod

    monkeypatch.setattr(cache_mod, "code_version", lambda: "pinned")
    monkeypatch.setattr(cache_mod.np, "__version__", "pinned")
    config = {"LX2": LX2, "M4": M4}[machine]()
    digest, inputs = cache_key(
        config, "hstencil", "box2d9p", (64, 64), KernelOptions(), None, True,
        iters=iters, mode=SimMode(engine=engine, steady=steady, sample=sample),
    )
    assert digest == PINNED_DIGESTS[machine, sample, steady, iters]
    # The engine is recorded for audit and never moves the digest.
    assert inputs["engine"] == engine
