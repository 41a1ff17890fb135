"""Tests for the content-addressed on-disk result cache.

Covers the cache-key identity rules (full workload parameters, not just
the name — the memoization-aliasing regression — and the code digest),
the versioned JSON round trip for :class:`SimResult` and its layout (the
metrics plus host provenance, nothing copied), and corruption/
version-mismatch handling.
"""

import dataclasses
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import repro
from repro.sim import runner
from repro.sim.config import bench_config, quick_config
from repro.core.metadata_table import MetadataTableConfig
from repro.core.ptmc import PTMCConfig
from repro.sim.config import SamplingConfig
from repro.sim.diskcache import (
    UNREAD_SECTIONS,
    DiskCache,
    cache_key,
    code_digest,
    stable_identity,
    workload_identity,
)
from repro.sim.results import (
    ACCESSORS,
    CACHE_SCHEMA_VERSION,
    ResultDecodeError,
    SimResult,
)
from repro.sim.system import DESIGNS, SimulatedSystem
from repro.workloads import get_workload
from repro.workloads.data_patterns import DataGenerator, DataProfile, PatternKind
from repro.workloads.generators import make_mix, spec_like

CFG = quick_config(ops_per_core=300, warmup_ops=100)


@pytest.fixture(autouse=True)
def _isolated_runner():
    """No disk cache unless a test configures one."""
    runner.configure_disk_cache(enabled=False)
    yield
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

    def test_compression_stack_is_part_of_identity(self):
        w = get_workload("lbm06")
        keys = {
            cache_key(w, "static_ptmc", CFG.with_(compression=stack))
            for stack in (("fpc", "bdi"), ("fpc",), ("bdi", "fpc"))
        }
        assert len(keys) == 3
        assert cache_key(w, "static_ptmc", CFG) in keys

    def test_batch_chunk_is_not_part_of_identity(self):
        # a pure performance knob: every value gives the same result
        w = get_workload("lbm06")
        keys = {cache_key(w, "ideal", CFG.with_(batch_chunk=c)) for c in (0, 128, 1024)}
        assert len(keys) == 1
        # while a field that changes results still changes the key
        assert cache_key(w, "ideal", CFG.with_(batch_chunk=0, seed=1)) not in keys

    def test_dict_entry_order_is_part_of_identity(self):
        # a profile's weights are walked in insertion order, so the same
        # weights in two orders put other families on every page
        zero_first = DataProfile({PatternKind.ZERO: 0.5, PatternKind.SMALL_INT: 0.5}, noise=0.0)
        int_first = DataProfile({PatternKind.SMALL_INT: 0.5, PatternKind.ZERO: 0.5}, noise=0.0)
        lines = range(0, 1000 * 64, 64)  # the first line of 1,000 pages
        a, b = DataGenerator(zero_first, seed=3), DataGenerator(int_first, seed=3)
        assert all(a.kind(line) != b.kind(line) for line in lines)
        keys = {
            cache_key(spec_like("w", profile=profile), "ideal", CFG)
            for profile in (zero_first, int_first)
        }
        assert len(keys) == 2

    def test_stable_identity_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            stable_identity(object())


#: one changed value per section only ``build_controller`` reads
PERTURBED = {
    "compression": ("bdi",),
    "metadata": MetadataTableConfig(cache_bytes=256, cache_ways=4),
    "ptmc": PTMCConfig(lct_entries=16, ganged_eviction=False),
    "sampling": SamplingConfig(counter_bits=3, sample_period=2, per_core=False),
}


class TestUnreadSections:
    """A section a design never reads is left out of its runs' identity.

    Verified, not assumed: each left-out section is perturbed and the run
    is simulated, and its metrics must equal the unperturbed run's.
    """

    @pytest.mark.parametrize("design", DESIGNS)
    def test_left_out_sections_change_neither_metrics_nor_key(self, design):
        w = get_workload("lbm06")
        base = SimulatedSystem(w, design, CFG).run().metrics
        for section in UNREAD_SECTIONS[design]:
            config = CFG.with_(**{section: PERTURBED[section]})
            assert cache_key(w, design, config) == cache_key(w, design, CFG), section
            assert SimulatedSystem(w, design, config).run().metrics == base, section

    @pytest.mark.parametrize("design", DESIGNS)
    def test_kept_sections_change_the_key(self, design):
        w = get_workload("lbm06")
        kept = {
            section: value
            for section, value in PERTURBED.items()
            if section not in UNREAD_SECTIONS[design]
        }
        kept["hierarchy"] = dataclasses.replace(CFG.hierarchy, l3_bytes=32 * 1024)
        for section, value in kept.items():
            config = CFG.with_(**{section: value})
            assert cache_key(w, design, config) != cache_key(w, design, CFG), section

    @pytest.mark.parametrize(
        "section, design",
        [
            ("compression", "ideal"),
            ("metadata", "tmc_table"),
            ("ptmc", "static_ptmc"),
            ("sampling", "dynamic_ptmc"),
        ],
    )
    def test_each_perturbation_moves_a_design_that_reads_it(self, section, design):
        w = get_workload("lbm06")
        config = CFG.with_(**{section: PERTURBED[section]})
        base = SimulatedSystem(w, design, CFG).run().metrics
        assert SimulatedSystem(w, design, config).run().metrics != base

    def test_every_design_has_an_entry(self):
        assert set(UNREAD_SECTIONS) == set(DESIGNS)


#: the ``repro`` package this test run imports
PACKAGE = pathlib.Path(repro.__file__).resolve().parent


def run_python(code: str, path: pathlib.Path) -> str:
    """stdout of ``code`` run in a fresh interpreter importing from ``path``."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(path)},
        cwd=path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout


def digest_of(root: pathlib.Path) -> str:
    """The code digest of the ``repro`` package under ``root``."""
    out = run_python(
        "import repro\n"
        "from repro.sim.diskcache import code_digest\n"
        "print(repro.__file__)\n"
        "print(code_digest())\n",
        root,
    )
    imported, digest = out.split()
    assert pathlib.Path(imported).resolve().is_relative_to(root.resolve())
    return digest


class TestCodeDigest:
    def test_digest_follows_every_source_byte(self, tmp_path):
        same = tmp_path / "same"
        changed = tmp_path / "changed"
        for root in (same, changed):
            shutil.copytree(
                PACKAGE, root / "repro", ignore=shutil.ignore_patterns("__pycache__")
            )
        # one byte of one comment: the code still runs, the bytes differ
        path = changed / "repro" / "sim" / "results.py"
        source = bytearray(path.read_bytes())
        at = source.index(b"#: ") + 2
        source[at] = ord("x")
        path.write_bytes(bytes(source))
        original = digest_of(PACKAGE.parent)
        assert digest_of(same) == original
        assert digest_of(changed) != original

    def test_simulation_alone_never_computes_the_digest(self):
        """Building and running a system never meets the cache, so it
        never hashes the sources; the first key does, once."""
        out = run_python(
            "import repro.sim\n"
            "from repro.sim import SimulatedSystem, cache_key, quick_config\n"
            "from repro.sim.diskcache import code_digest\n"
            "from repro.workloads import get_workload\n"
            "config = quick_config(ops_per_core=50, warmup_ops=10)\n"
            "workload = get_workload('lbm06')\n"
            "SimulatedSystem(workload, 'uncompressed', config).run()\n"
            "print(code_digest.cache_info().misses)\n"
            "cache_key(workload, 'ideal', config)\n"
            "cache_key(workload, 'uncompressed', config)\n"
            "print(code_digest.cache_info().misses)\n",
            PACKAGE.parent,
        )
        assert out.split() == ["0", "1"]

    def test_the_daemon_takes_the_digest_before_it_serves(self, tmp_path):
        from repro.service.daemon import ServiceDaemon

        daemon = ServiceDaemon(
            db_path=tmp_path / "service.db", cache_dir=tmp_path / "cache", workers=1
        )
        code_digest.cache_clear()
        try:
            daemon.start(run_scheduler=False)
            assert code_digest.cache_info().currsize == 1
        finally:
            daemon.stop()

    def test_a_worker_takes_the_digest_before_any_job(self, tmp_path, monkeypatch):
        import signal

        from repro.cli import main
        from repro.service.worker import Worker, WorkerStats

        filled = []

        def run(worker):
            filled.append(code_digest.cache_info().currsize)
            return WorkerStats()

        monkeypatch.setattr(Worker, "run", run)
        monkeypatch.setattr(signal, "signal", lambda *args: None)
        code_digest.cache_clear()
        argv = ["--cache-dir", str(tmp_path), "worker", "--url", "http://127.0.0.1:9", "--quiet"]
        assert main(argv) == 0
        assert filled == [1]


class TestRunnerAliasingRegression:
    def test_same_name_workloads_do_not_share_results(self, tmp_path):
        """Two same-named workloads with different parameters must not
        return each other's cached results (the old name-keyed bug)."""
        runner.configure_disk_cache(tmp_path)
        small = spec_like("dup", footprint_lines=256, seed=3)
        large = spec_like("dup", footprint_lines=8192, seq_frac=0.1, seed=3)
        a = runner.simulate(small, "uncompressed", CFG)
        b = runner.simulate(large, "uncompressed", CFG)
        assert a is not b
        assert a.core_cycles != b.core_cycles
        assert len(DiskCache(tmp_path)) == 2
        # and each key is served correctly on repeat (hits replay marked,
        # never the other workload's result)
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
        assert payload["schema"] == CACHE_SCHEMA_VERSION

    def test_version_mismatch_rejected(self):
        payload = small_result().to_json_dict()
        payload["schema"] = CACHE_SCHEMA_VERSION + 1
        with pytest.raises(ResultDecodeError):
            SimResult.from_json_dict(payload)

    @pytest.mark.parametrize("schema", [2, 3, None])
    def test_earlier_versions_rejected(self, schema):
        payload = small_result().to_json_dict()
        payload["schema"] = schema
        with pytest.raises(ResultDecodeError):
            SimResult.from_json_dict(payload)

    def test_key_carries_the_payload_version(self, monkeypatch):
        """The key carries the code digest: other code, another key.  The
        payload's layout version is checked at decode, not keyed."""
        import repro.sim.diskcache as diskcache

        w = get_workload("lbm06")
        before = cache_key(w, "ideal", CFG)
        monkeypatch.setattr(diskcache, "code_digest", lambda: "0" * 64)
        other = cache_key(w, "ideal", CFG)
        assert other != before
        monkeypatch.setattr(diskcache, "CACHE_SCHEMA_VERSION", 0, raising=False)
        assert cache_key(w, "ideal", CFG) == other

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
        for field in ("workload", "design", "extras", "timeseries"):
            payload = small_result().to_json_dict()
            del payload[field]
            with pytest.raises(ResultDecodeError):
                SimResult.from_json_dict(payload)

    @pytest.mark.parametrize(
        "path",
        [
            "core.0.cycles",
            "core.3.cycles",
            "core.7.cycles",
            "core.7.instructions",
            "dram.reads",
            "dram.refresh_stalls",
            "dram.accesses.data_read",
            "dram.accesses.maintenance",
            "llc.hits",
            "llc.misses",
            "llc.useful_prefetches",
            "llc.demand_accesses",
        ],
    )
    def test_missing_metric_path_rejected(self, path):
        payload = small_result().to_json_dict()
        del payload["metrics"][path]
        with pytest.raises(ResultDecodeError):
            SimResult.from_json_dict(payload)

    @pytest.mark.parametrize("value", ["12", None, True, [1], {"n": 1}])
    def test_non_numeric_metric_rejected(self, value):
        payload = small_result().to_json_dict()
        payload["metrics"]["dram.reads"] = value
        with pytest.raises(ResultDecodeError):
            SimResult.from_json_dict(payload)

    def test_malformed_timeseries_rejected(self):
        payload = small_result().to_json_dict()
        payload["timeseries"] = {"interval": 10, "points": "nope"}
        with pytest.raises(ResultDecodeError):
            SimResult.from_json_dict(payload)

    def test_invalid_json_rejected(self):
        with pytest.raises(ResultDecodeError):
            SimResult.from_json("{not json")

    def test_unknown_category_rejected(self):
        payload = small_result().to_json_dict()
        payload["metrics"]["dram.accesses.warp_traffic"] = 3
        with pytest.raises(ResultDecodeError):
            SimResult.from_json_dict(payload)


@pytest.fixture(scope="module", params=DESIGNS)
def design_result(request):
    """One bare ``SimulatedSystem.run()`` result per design."""
    return SimulatedSystem(get_workload("lbm06"), request.param, CFG).run()


class TestResultFormat:
    """A result is its metrics: the payload copies none of them."""

    def test_payload_keys(self, design_result):
        assert set(design_result.to_json_dict()) == {
            "schema", "workload", "design", "metrics", "extras", "timeseries"
        }

    def test_bare_run_has_no_extras(self, design_result):
        # extras hold host provenance only (sim_seconds, cached,
        # serve_seconds), which the runner adds, never the simulator
        assert design_result.extras == {}

    def test_round_trip_preserves_every_accessor(self, design_result):
        decoded = SimResult.from_json(design_result.to_json())
        assert decoded == design_result
        for name in ACCESSORS:
            assert getattr(decoded, name) == getattr(design_result, name), name

    def test_dram_reads_the_measured_window(self, design_result):
        metrics = design_result.metrics
        dram = design_result.dram
        assert dram.refresh_stalls == metrics["dram.refresh_stalls"]
        assert dram.total_accesses == sum(
            value for path, value in metrics.items() if path.startswith("dram.accesses.")
        )
        assert all(count > 0 for count in dram.accesses_by_category.values())


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
        payload["schema"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        assert cache.get(key) is None
        assert cache.counters.evicted_corrupt == 1

    def test_entry_missing_a_metric_path_is_a_miss(self, tmp_path):
        """A stored result lacking a path an accessor reads is deleted at
        lookup and re-simulated, so no caller ever meets the KeyError."""
        cache = DiskCache(tmp_path / "direct")
        key = "ab" * 32
        cache.put(key, small_result())
        path = tmp_path / "direct" / key[:2] / f"{key}.json"
        payload = json.loads(path.read_text())
        del payload["metrics"]["dram.row_hits"]
        path.write_text(json.dumps(payload))
        assert cache.get(key) is None
        assert cache.counters.evicted_corrupt == 1
        assert not path.exists()

        runner.configure_disk_cache(tmp_path / "runner")
        first, _ = runner.simulate_with_source("lbm06", "static_ptmc", CFG)
        (path,) = (tmp_path / "runner").glob("*/*.json")
        payload = json.loads(path.read_text())
        del payload["metrics"]["llc.misses"]
        path.write_text(json.dumps(payload))
        second, source = runner.simulate_with_source("lbm06", "static_ptmc", CFG)
        assert source == "executed"
        assert runner.disk_cache().counters.evicted_corrupt == 1
        assert second.l3_misses == first.l3_misses
        # the re-executed result replaced the damaged entry
        _, source = runner.simulate_with_source("lbm06", "static_ptmc", CFG)
        assert source == "disk"

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
    """The LLC replacement policy is part of the result identity: sweeps
    over policies must never collide in the shared store, and one policy
    is one identity."""

    def test_llc_policy_knob_changes_key(self):
        w = get_workload("lbm06")
        keys = {p: cache_key(w, "static_ptmc", CFG.with_(llc_policy=p))
                for p in ("lru", "fifo", "random", "srrip", "pref_lru")}
        assert len(set(keys.values())) == 5
        # the default is "lru": one identity, not a sixth
        assert cache_key(w, "static_ptmc", CFG) == keys["lru"]

    def test_unknown_llc_policy_rejected(self):
        with pytest.raises(ValueError, match="llc_policy must be a str from .*srrip.*, not 'belady'"):
            bench_config(llc_policy="belady")
        with pytest.raises(ValueError, match="llc_policy"):
            CFG.with_(llc_policy=None)

    def test_policy_differing_runs_store_distinct_results(self, tmp_path):
        runner.configure_disk_cache(tmp_path)
        lru, src_lru = runner.simulate_with_source(
            "lbm06", "static_ptmc", CFG.with_(llc_policy="lru")
        )
        fifo, src_fifo = runner.simulate_with_source(
            "lbm06", "static_ptmc", CFG.with_(llc_policy="fifo")
        )
        assert src_lru == src_fifo == "executed"  # no key collision
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
        # an equal config built anew is the same identity
        _, third = runner.simulate_with_source(
            "lbm06", "static_ptmc", CFG.with_(llc_policy="srrip")
        )
        assert first == "executed"
        assert second == third == "disk"
        assert len(DiskCache(tmp_path)) == 1
