"""Tests for the content-addressed on-disk result cache.

Covers the cache-key identity rules (full workload parameters, not just
the name — the memoization-aliasing regression), the versioned JSON
round trip for :class:`SimResult`, and corruption/version-mismatch
handling.
"""

import dataclasses
import json

import pytest

from repro.sim import runner
from repro.sim.config import quick_config
from repro.sim.diskcache import (
    DiskCache,
    cache_key,
    stable_identity,
    workload_identity,
)
from repro.sim.results import (
    RESULT_SCHEMA_VERSION,
    ResultDecodeError,
    SimResult,
)
from repro.workloads import get_workload
from repro.workloads.generators import make_mix, spec_like

CFG = quick_config(ops_per_core=300, warmup_ops=100)


@pytest.fixture(autouse=True)
def _isolated_runner():
    """Fresh memo and no disk cache unless a test configures one."""
    runner.clear_cache()
    runner.configure_disk_cache(enabled=False)
    yield
    runner.clear_cache()
    runner.configure_disk_cache(enabled=False)


def small_result(**overrides) -> SimResult:
    result = runner.simulate("lbm06", "uncompressed", CFG)
    return dataclasses.replace(result, **overrides) if overrides else result


class TestIdentity:
    def test_same_spec_same_identity(self):
        a = spec_like("dup", footprint_lines=512, seed=7)
        b = spec_like("dup", footprint_lines=512, seed=7)
        assert workload_identity(a) == workload_identity(b)
        assert cache_key(a, "ideal", CFG) == cache_key(b, "ideal", CFG)

    def test_same_name_different_params_distinct(self):
        a = spec_like("dup", footprint_lines=512, seed=7)
        b = spec_like("dup", footprint_lines=4096, seed=7)
        assert workload_identity(a) != workload_identity(b)
        assert cache_key(a, "ideal", CFG) != cache_key(b, "ideal", CFG)

    def test_seed_is_part_of_identity(self):
        a = spec_like("dup", seed=1)
        b = spec_like("dup", seed=2)
        assert cache_key(a, "ideal", CFG) != cache_key(b, "ideal", CFG)

    def test_mix_identity_covers_member_specs(self):
        a = make_mix("m", [spec_like("x", seed=1)], seed=5)
        b = make_mix("m", [spec_like("x", seed=1, footprint_lines=9999)], seed=5)
        assert workload_identity(a) != workload_identity(b)

    def test_design_and_config_in_key(self):
        w = get_workload("lbm06")
        assert cache_key(w, "ideal", CFG) != cache_key(w, "static_ptmc", CFG)
        other = CFG.with_(ops_per_core=301)
        assert cache_key(w, "ideal", CFG) != cache_key(w, "ideal", other)

    def test_batch_chunk_is_not_part_of_identity(self):
        # a pure performance knob: every value gives the same result
        w = get_workload("lbm06")
        keys = {cache_key(w, "ideal", CFG.with_(batch_chunk=c)) for c in (0, 128, 1024)}
        assert len(keys) == 1
        # while a field that changes results still changes the key
        assert cache_key(w, "ideal", CFG.with_(batch_chunk=0, seed=1)) not in keys

    def test_stable_identity_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            stable_identity(object())


class TestRunnerAliasingRegression:
    def test_same_name_workloads_do_not_share_results(self):
        """Two same-named workloads with different parameters must not
        return each other's memoized results (the old name-keyed bug)."""
        small = spec_like("dup", footprint_lines=256, seed=3)
        large = spec_like("dup", footprint_lines=8192, seq_frac=0.1, seed=3)
        a = runner.simulate(small, "uncompressed", CFG)
        b = runner.simulate(large, "uncompressed", CFG)
        assert a is not b
        assert a.core_cycles != b.core_cycles
        # and each key still memoizes correctly on repeat (hits replay as
        # marked copies, never the other workload's result)
        again_small = runner.simulate(small, "uncompressed", CFG)
        again_large = runner.simulate(large, "uncompressed", CFG)
        assert again_small.extras["cached"] == 1.0
        assert again_large.extras["cached"] == 1.0
        assert again_small.core_cycles == a.core_cycles
        assert again_large.core_cycles == b.core_cycles


class TestSerialization:
    def test_round_trip_equality(self):
        result = small_result()
        assert SimResult.from_json(result.to_json()) == result

    def test_round_trip_preserves_optionals(self):
        result = runner.simulate("lbm06", "static_ptmc", CFG)
        loaded = SimResult.from_json(result.to_json())
        assert loaded.llp_accuracy == result.llp_accuracy
        assert loaded.extras == result.extras

    def test_schema_version_embedded(self):
        payload = small_result().to_json_dict()
        assert payload["schema"] == RESULT_SCHEMA_VERSION

    def test_version_mismatch_rejected(self):
        payload = small_result().to_json_dict()
        payload["schema"] = RESULT_SCHEMA_VERSION + 1
        with pytest.raises(ResultDecodeError):
            SimResult.from_json_dict(payload)

    def test_metrics_survive_round_trip(self):
        result = runner.simulate("lbm06", "dynamic_ptmc", CFG)
        loaded = SimResult.from_json(result.to_json())
        assert loaded.metrics == result.metrics
        assert "ptmc.llp.accuracy" in loaded.metrics

    def test_missing_metrics_rejected(self):
        payload = small_result().to_json_dict()
        del payload["metrics"]
        with pytest.raises(ResultDecodeError):
            SimResult.from_json_dict(payload)

    def test_missing_field_rejected(self):
        payload = small_result().to_json_dict()
        del payload["dram"]
        with pytest.raises(ResultDecodeError):
            SimResult.from_json_dict(payload)

    def test_invalid_json_rejected(self):
        with pytest.raises(ResultDecodeError):
            SimResult.from_json("{not json")

    def test_unknown_category_rejected(self):
        payload = small_result().to_json_dict()
        payload["dram"]["accesses_by_category"]["warp_traffic"] = 3
        with pytest.raises(ResultDecodeError):
            SimResult.from_json_dict(payload)


class TestDiskCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = DiskCache(tmp_path)
        result = small_result()
        cache.put("ab" * 32, result)
        loaded = cache.get("ab" * 32)
        assert loaded == result
        assert loaded.metrics == result.metrics
        assert cache.counters.hits == 1
        assert cache.counters.stores == 1

    def test_absent_key_is_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.get("cd" * 32) is None
        assert cache.counters.misses == 1

    def test_corrupt_entry_discarded(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = "ab" * 32
        cache.put(key, small_result())
        path = tmp_path / key[:2] / f"{key}.json"
        path.write_text("garbage{{{")
        assert cache.get(key) is None
        assert cache.counters.evicted_corrupt == 1
        assert not path.exists()

    def test_stale_schema_entry_discarded(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = "ab" * 32
        cache.put(key, small_result())
        path = tmp_path / key[:2] / f"{key}.json"
        payload = json.loads(path.read_text())
        payload["schema"] = RESULT_SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        assert cache.get(key) is None
        assert cache.counters.evicted_corrupt == 1

    def test_clear_and_stats(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("ab" * 32, small_result())
        cache.put("cd" * 32, small_result())
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["bytes"] > 0
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_runner_uses_disk_cache_across_memo_clears(self, tmp_path):
        runner.configure_disk_cache(tmp_path)
        first, src_first = runner.simulate_with_source("lbm06", "ideal", CFG)
        assert src_first == "executed"
        runner.clear_cache()  # simulate a fresh process (memo gone)
        second, src_second = runner.simulate_with_source("lbm06", "ideal", CFG)
        assert src_second == "disk"
        assert second is not first
        # the replay markers are the only difference from the original
        assert second.extras.pop("cached") == 1.0
        assert second.extras.pop("serve_seconds") >= 0.0
        assert second == first


class TestConcurrentWriters:
    def test_two_writers_racing_on_one_key(self, tmp_path):
        """Concurrent service workers and CLI sweeps share one store: a
        key written by many racers must end up as one writer's complete,
        decodable entry — never an interleaving of partial writes."""
        import threading

        cache = DiskCache(tmp_path)
        key = "ef" * 32
        variants = [
            small_result(extras={"writer": float(i)}) for i in range(4)
        ]
        errors = []
        barrier = threading.Barrier(len(variants))

        def race(result):
            try:
                barrier.wait(timeout=30)
                for _ in range(25):
                    DiskCache(tmp_path).put(key, result)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=race, args=(v,)) for v in variants]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not errors
        survivor = cache.get(key)
        assert survivor is not None
        assert survivor.extras["writer"] in {v.extras["writer"] for v in variants}
        assert cache.counters.evicted_corrupt == 0

    def test_interleaved_put_get_never_sees_partials(self, tmp_path):
        import threading

        key = "aa" * 32
        result = small_result()
        stop = threading.Event()
        outcomes = []

        def writer():
            while not stop.is_set():
                DiskCache(tmp_path).put(key, result)

        def reader():
            cache = DiskCache(tmp_path)
            while not stop.is_set():
                loaded = cache.get(key)
                if loaded is not None:
                    outcomes.append(loaded == result)
            stop.set()

        threads = [threading.Thread(target=writer) for _ in range(2)]
        threads.append(threading.Thread(target=reader))
        for t in threads:
            t.start()
        import time as _time

        _time.sleep(0.5)
        stop.set()
        for t in threads:
            t.join(30)
        assert outcomes and all(outcomes)


class TestMaintenance:
    def test_stats_report_entry_ages(self, tmp_path):
        import os
        import time as _time

        cache = DiskCache(tmp_path)
        assert cache.stats()["oldest_age_seconds"] is None
        cache.put("ab" * 32, small_result())
        cache.put("cd" * 32, small_result())
        old = tmp_path / ("ab" * 32)[:2] / f"{'ab' * 32}.json"
        os.utime(old, (1, 1))  # epoch-old entry
        stats = cache.stats()
        assert stats["oldest_age_seconds"] > _time.time() - 100
        assert 0 <= stats["newest_age_seconds"] < 120
        assert stats["oldest_age_seconds"] >= stats["newest_age_seconds"]

    def test_prune_removes_only_old_entries(self, tmp_path):
        import os

        cache = DiskCache(tmp_path)
        old_key, new_key = "ab" * 32, "cd" * 32
        cache.put(old_key, small_result())
        cache.put(new_key, small_result())
        os.utime(tmp_path / old_key[:2] / f"{old_key}.json", (1, 1))
        assert cache.prune(older_than_seconds=86400) == 1
        assert cache.get(old_key) is None
        assert cache.get(new_key) is not None

    def test_prune_empty_cache_is_noop(self, tmp_path):
        assert DiskCache(tmp_path).prune(0) == 0


class TestPolicyKeying:
    """Replacement-policy knobs are part of the result identity: sweeps
    over policies must never collide in the shared store."""

    def test_llc_policy_knob_changes_key(self):
        w = get_workload("lbm06")
        keys = {cache_key(w, "static_ptmc", CFG.with_(llc_policy=p))
                for p in (None, "lru", "fifo", "random", "srrip", "pref_lru")}
        assert len(keys) == 6  # None and explicit "lru" are distinct identities

    def test_hierarchy_policy_fields_change_key(self):
        w = get_workload("lbm06")
        base = cache_key(w, "ideal", CFG)
        hcfg = dataclasses.replace(CFG.hierarchy, l3_policy="srrip")
        assert cache_key(w, "ideal", CFG.with_(hierarchy=hcfg)) != base
        seeded = dataclasses.replace(CFG.hierarchy, policy_seed=1)
        assert cache_key(w, "ideal", CFG.with_(hierarchy=seeded)) != base

    def test_policy_differing_runs_store_distinct_results(self, tmp_path):
        runner.configure_disk_cache(tmp_path)
        lru, src_lru = runner.simulate_with_source(
            "lbm06", "static_ptmc", CFG.with_(llc_policy="lru")
        )
        fifo, src_fifo = runner.simulate_with_source(
            "lbm06", "static_ptmc", CFG.with_(llc_policy="fifo")
        )
        assert src_lru == src_fifo == "executed"  # no key collision
        runner.clear_cache()  # fresh process: only the disk store remains
        lru2, src = runner.simulate_with_source(
            "lbm06", "static_ptmc", CFG.with_(llc_policy="lru")
        )
        assert src == "disk"
        assert lru2.metrics == lru.metrics
        fifo2, src = runner.simulate_with_source(
            "lbm06", "static_ptmc", CFG.with_(llc_policy="fifo")
        )
        assert src == "disk"
        assert fifo2.metrics == fifo.metrics

    def test_identical_policy_configs_still_hit(self, tmp_path):
        runner.configure_disk_cache(tmp_path)
        cfg = CFG.with_(llc_policy="srrip")
        _, first = runner.simulate_with_source("lbm06", "static_ptmc", cfg)
        _, second = runner.simulate_with_source("lbm06", "static_ptmc", cfg)
        assert first == "executed"
        assert second == "memory"
        runner.clear_cache()
        _, third = runner.simulate_with_source("lbm06", "static_ptmc", cfg)
        assert third == "disk"
