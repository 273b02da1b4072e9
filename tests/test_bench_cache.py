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
from repro.machine.timing import SamplePlan


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
