"""Tests for the command-line interface."""

from collections import OrderedDict

import pytest

from repro.cli import build_parser, main
from repro.sim import runner
from repro.sim.config import bench_config
from repro.sim.system import DESIGNS


@pytest.fixture(autouse=True)
def _isolated_disk_cache(tmp_path, monkeypatch):
    """Keep CLI-enabled disk caching away from the user's real cache dir."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "simcache"))
    yield
    runner.configure_disk_cache(enabled=False)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_args(self):
        args = build_parser().parse_args(["run", "lbm06", "dynamic_ptmc"])
        assert args.command == "run"
        assert args.workload == "lbm06"
        assert args.design == "dynamic_ptmc"

    def test_bad_design_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "lbm06", "warp_drive"])

    def test_ops_override(self):
        args = build_parser().parse_args(["--ops", "123", "list"])
        assert args.ops == 123


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "dynamic_ptmc" in out
        assert "lbm06" in out
        assert "mix1" in out

    def test_run(self, capsys):
        assert main(["--ops", "200", "--warmup", "100", "run", "lbm06", "ideal"]) == 0
        out = capsys.readouterr().out
        assert "weighted speedup" in out
        assert "DRAM accesses" in out

    def test_run_prints_counters_under_their_paths(self, capsys):
        assert main(
            ["--ops", "200", "--warmup", "100", "run", "lbm06", "dynamic_ptmc"]
        ) == 0
        rows = dict(
            line.split(None, 1) for line in capsys.readouterr().out.splitlines()
            if line.startswith(("ptmc.", "policy.", "sim_seconds"))
        )
        assert set(rows) == {
            "ptmc.inversions", "ptmc.invalidate_writes", "ptmc.clean_writebacks",
            "ptmc.lit_occupancy", "policy.benefits", "policy.costs",
            "policy.compression_enabled", "sim_seconds",
        }

    def test_stats(self, capsys):
        assert main(
            ["--ops", "200", "--warmup", "100", "stats", "lbm06", "dynamic_ptmc"]
        ) == 0
        out = capsys.readouterr().out
        assert "dram.row_hits" in out
        assert "ptmc.llp.accuracy" in out
        assert "policy.benefits" in out

    def test_stats_json(self, capsys):
        import json

        assert main(
            ["--ops", "200", "--warmup", "100", "stats", "lbm06", "ideal", "--json"]
        ) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert "llc.hits" in metrics
        assert "core.0.cycles" in metrics

    def test_compare(self, capsys):
        """Every design on one workload is a sweep over that workload."""
        designs = [d for d in DESIGNS if d != "uncompressed"]
        assert main([
            "--ops", "200", "--warmup", "100",
            "sweep", "libquantum06", "--designs", ",".join(designs),
        ]) == 0
        header = next(
            ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("workload")
        )
        assert header.split() == ["workload", *designs]

    def test_suite(self, capsys):
        """One design over a suite is a sweep over that suite."""
        assert main([
            "--ops", "150", "--warmup", "50", "sweep", "spec17", "--designs", "uncompressed",
        ]) == 0
        rows = [ln.split() for ln in capsys.readouterr().out.splitlines()]
        assert ["geomean", "1.000"] in rows

    def test_sweep(self, capsys):
        assert main(
            ["--ops", "150", "--warmup", "50", "sweep", "spec17", "--designs", "ideal"]
        ) == 0
        out = capsys.readouterr().out
        assert "ideal" in out
        assert "geomean" in out
        assert "executed" in out

    def test_sweep_parallel_matches_serial(self, capsys):
        args = ["--ops", "150", "--warmup", "50", "sweep", "spec17", "--designs", "ideal"]
        assert main(args) == 0
        serial_out = capsys.readouterr().out
        runner.configure_disk_cache(enabled=False)
        assert main(
            ["--no-disk-cache", *args, "--jobs", "2"]
        ) == 0
        parallel_out = capsys.readouterr().out
        # the speedup table lines must be identical between the two paths
        def rows(text):
            prefixes = ("lbm", "mcf", "cam4", "fotonik", "roms")
            return [ln for ln in text.splitlines() if ln.strip().startswith(prefixes)]
        assert rows(parallel_out) == rows(serial_out)

    def test_sweep_dump_metrics(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "metrics.json"
        assert main(
            [
                "--ops", "150", "--warmup", "50",
                "sweep", "spec17", "--designs", "ideal",
                "--dump-metrics", str(out_path),
            ]
        ) == 0
        assert "wrote metrics" in capsys.readouterr().out
        rows = json.loads(out_path.read_text())
        assert rows, "expected one row per (workload, design) job"
        for row in rows:
            assert {"workload", "design", "metrics"} <= set(row)
            assert "dram.row_hits" in row["metrics"]

    def test_sweep_dump_metrics_stdout(self, capsys):
        import json

        assert main(
            [
                "--ops", "150", "--warmup", "50",
                "sweep", "spec17", "--designs", "ideal",
                "--dump-metrics", "-",
            ]
        ) == 0
        out = capsys.readouterr().out
        payload = out[out.index("[") :]
        rows = json.loads(payload)
        assert all("metrics" in row for row in rows)

    def test_sweep_rejects_unknown_design(self, capsys):
        assert main(["sweep", "spec17", "--designs", "warp_drive"]) == 2
        assert "unknown designs" in capsys.readouterr().out

    def test_cache_stats_and_clear(self, capsys):
        assert main(["--ops", "150", "--warmup", "50", "run", "lbm06", "ideal"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries" in out
        assert main(["cache", "clear"]) == 0
        out = capsys.readouterr().out
        assert "removed" in out

    def test_cache_stats_json(self, capsys):
        import json

        assert main(["--ops", "150", "--warmup", "50", "run", "lbm06", "ideal"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] >= 1
        assert "bytes" in stats and "dir" in stats

    def test_stats_metrics_filter(self, capsys):
        assert main(
            [
                "--ops", "200", "--warmup", "100",
                "stats", "lbm06", "ideal",
                "--metrics", "dram.reads,runner.executed",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "dram.reads" in out
        assert "runner.executed" in out
        assert "llc.hits" not in out

    def test_stats_metrics_filter_json(self, capsys):
        import json

        assert main(
            [
                "--ops", "200", "--warmup", "100",
                "stats", "lbm06", "ideal",
                "--json", "--metrics", "llc.misses",
            ]
        ) == 0
        assert list(json.loads(capsys.readouterr().out)) == ["llc.misses"]

    def test_stats_missing_metric_exits_cleanly(self, capsys):
        """Satellite: a cached result lacking a metric must not traceback."""
        args = ["--ops", "200", "--warmup", "100", "stats", "lbm06", "ideal"]
        assert main(args) == 0  # populate the cache
        capsys.readouterr()
        assert main([*args, "--metrics", "added.in.a.later.pr"]) == 2
        out = capsys.readouterr().out
        assert "metrics not present in this result" in out
        assert "Traceback" not in out


def printed_rows(out: str, designs) -> dict:
    """``{row label: cells}`` of the speedup and geomean tables a sweep prints."""
    rows = {}
    for line in out.splitlines():
        cells = line.split()
        if len(cells) == len(designs) + 1 and cells[0] != "workload" and cells[0][0] != "-":
            rows[cells[0]] = cells[1:]
    return rows


def engine_rows(workloads, designs, config) -> dict:
    """The same rows, from ``sweep_with_report`` over the same identities."""
    from repro.sim.parallel import sweep_with_report
    from repro.sim.results import geometric_mean

    matrix, _ = sweep_with_report(workloads, designs, config)
    rows = {name: [f"{row[d]:.3f}" for d in designs] for name, row in matrix.items()}
    rows["geomean"] = [
        f"{geometric_mean(row[d] for row in matrix.values()):.3f}" for d in designs
    ]
    return rows


class TestSweepTargets:
    """``repro sweep TARGET`` prints the speedups the sweep engine returns
    for the identities TARGET names: a suite, a roster workload or a trace."""

    DESIGNS = ["ideal", "static_ptmc"]
    FLAGS = ["--ops", "150", "--warmup", "50"]
    CONFIG = bench_config(ops_per_core=150, warmup_ops=50)

    def sweep(self, capsys, *args) -> dict:
        assert main([*self.FLAGS, *args, "--designs", ",".join(self.DESIGNS)]) == 0
        return printed_rows(capsys.readouterr().out, self.DESIGNS)

    def test_a_suite(self, capsys):
        from repro.workloads import SUITE_BY_NAME

        printed = self.sweep(capsys, "sweep", "spec17")
        assert set(printed) == {w.name for w in SUITE_BY_NAME["spec17"]} | {"geomean"}
        assert printed == engine_rows(SUITE_BY_NAME["spec17"], self.DESIGNS, self.CONFIG)

    def test_a_roster_workload(self, capsys):
        printed = self.sweep(capsys, "sweep", "lbm06")
        assert set(printed) == {"lbm06", "geomean"}
        assert printed == engine_rows(["lbm06"], self.DESIGNS, self.CONFIG)

    def test_a_trace(self, capsys, tmp_path, monkeypatch):
        import repro.traces.store as store_module
        from repro.traces.replay import trace_workload
        from repro.traces.store import configure_trace_store

        monkeypatch.setattr(store_module, "_default_store", None)
        monkeypatch.setattr(runner, "_workload_data", OrderedDict())
        store = configure_trace_store(tmp_path / "traces")
        info, _ = store.ingest_records([(i % 4 == 0, 0x100 + i % 40) for i in range(200)])
        printed = self.sweep(
            capsys, "--trace-limit", "50", "--trace-seed", "3", "sweep", f"trace:{info.hash}"
        )
        workload = trace_workload(info.hash, limit=50, seed=3)
        assert set(printed) == {workload.name, "geomean"}
        assert printed == engine_rows([workload], self.DESIGNS, self.CONFIG)

    def test_an_unknown_target_is_a_clean_error(self, capsys):
        assert main(["sweep", "spec99"]) == 2
        assert "cannot run spec99: unknown workload 'spec99'" in capsys.readouterr().out

    def test_trace_flags_on_a_suite_are_a_clean_error(self, capsys):
        assert main(["--no-loop", "sweep", "spec17"]) == 2
        assert "['trace_loop'] only apply to trace:<hash> workloads" in capsys.readouterr().out


class TestTimelineCLI:
    ARGS = ["--ops", "200", "--warmup", "100", "timeline", "lbm06", "ideal"]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["timeline", "lbm06", "ideal"])
        assert args.command == "timeline"
        assert args.interval == 2000
        assert args.metrics is None
        assert not args.no_warmup

    def test_timeline_renders_sparklines(self, capsys):
        assert main([*self.ARGS, "--interval", "300"]) == 0
        out = capsys.readouterr().out
        assert "samples @ 300 accesses/interval" in out
        assert "dram.reads" in out
        assert "warmup | measured" in out
        assert any(glyph in out for glyph in "▁▂▃▄▅▆▇█")

    def test_timeline_json_is_the_raw_series(self, capsys):
        import json

        assert main([*self.ARGS, "--interval", "300", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["interval"] == 300
        assert payload["points"]
        assert all(p["phase"] in ("warmup", "measured") for p in payload["points"])

    def test_timeline_metric_selection(self, capsys):
        assert main(
            [*self.ARGS, "--interval", "300", "--metrics", "llc.misses"]
        ) == 0
        out = capsys.readouterr().out
        assert "llc.misses" in out
        assert "dram.reads" not in out

    def test_timeline_unknown_metric_is_an_error(self, capsys):
        assert main(
            [*self.ARGS, "--interval", "300", "--metrics", "no.such.path"]
        ) == 2
        out = capsys.readouterr().out
        assert "series not present in this result" in out
        assert "available:" in out

    def test_timeline_missing_series_on_cached_result_exits_cleanly(self, capsys):
        """Satellite: a cached result lacking a series must not traceback."""
        assert main([*self.ARGS, "--interval", "300"]) == 0
        capsys.readouterr()
        before = runner.stats.executed
        assert main(
            [*self.ARGS, "--interval", "300", "--metrics", "added.in.a.later.pr"]
        ) == 2
        assert runner.stats.executed == before  # second call hit the cache
        out = capsys.readouterr().out
        assert "series not present in this result" in out
        assert "Traceback" not in out

    def test_timeline_replays_from_cache_with_series(self, capsys):
        assert main([*self.ARGS, "--interval", "300"]) == 0
        capsys.readouterr()
        before = runner.stats.executed
        assert main([*self.ARGS, "--interval", "300"]) == 0
        assert "samples @ 300" in capsys.readouterr().out
        assert runner.stats.executed == before  # served from cache

    def test_trace_out_writes_valid_chrome_trace(self, capsys, tmp_path):
        import json

        from repro.obs.tracing import validate_chrome_trace

        trace_path = tmp_path / "trace.json"
        assert main(
            [
                "--ops", "200", "--warmup", "100",
                "--trace-out", str(trace_path),
                "run", "lbm06", "ideal",
            ]
        ) == 0
        assert "wrote" in capsys.readouterr().out
        payload = json.loads(trace_path.read_text())
        assert validate_chrome_trace(payload) > 0
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"sim.run", "sim.phase", "runner.execute"} <= names


class TestSortedKeyOrdering:
    """The stable-ordering satellite: dumped JSON keys arrive sorted."""

    def test_stats_json_keys_are_sorted(self, capsys):
        import json

        assert main(
            ["--ops", "150", "--warmup", "50", "stats", "lbm06", "ideal", "--json"]
        ) == 0
        text = capsys.readouterr().out
        keys = list(json.loads(text))
        assert keys == sorted(keys)
        # byte-level too: the serialized order is the sorted order
        assert text.index('"core.0.cycles"') < text.index('"dram.reads"')

    def test_dump_metrics_rows_are_sorted(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "metrics.json"
        assert main(
            [
                "--ops", "150", "--warmup", "50",
                "sweep", "spec17", "--designs", "ideal",
                "--dump-metrics", str(out_path),
            ]
        ) == 0
        capsys.readouterr()
        for row in json.loads(out_path.read_text()):
            keys = list(row["metrics"])
            assert keys == sorted(keys)

    def test_metrics_matrix_is_sorted_at_source(self):
        from repro.sim.config import bench_config
        from repro.sim.parallel import run_batch

        report = run_batch(
            [("lbm06", "ideal", bench_config(ops_per_core=150, warmup_ops=50))]
        )
        for row in report.metrics_matrix():
            keys = list(row["metrics"])
            assert keys == sorted(keys)

    def test_result_json_dict_orders_metrics_and_extras(self):
        from repro.sim.config import quick_config
        from repro.sim.system import SimulatedSystem
        from repro.workloads.generators import spec_like

        result = SimulatedSystem(
            spec_like("ordered", seed=5),
            "static_ptmc",
            quick_config(ops_per_core=200, warmup_ops=100),
        ).run()
        payload = result.to_json_dict()
        assert list(payload["metrics"]) == sorted(payload["metrics"])
        assert list(payload["extras"]) == sorted(payload["extras"])


class TestRunnerTelemetrySatellite:
    def test_stats_reports_runner_counters(self, capsys):
        assert main(
            ["--ops", "200", "--warmup", "100", "stats", "lbm06", "ideal"]
        ) == 0
        out = capsys.readouterr().out
        assert "runner.executed" in out
        assert "runner.disk.stores" in out

    def test_stats_json_merges_runner_paths(self, capsys):
        import json

        assert main(
            ["--ops", "200", "--warmup", "100", "stats", "lbm06", "ideal", "--json"]
        ) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["runner.executed"] >= 1
        assert "runner.disk.hits" in metrics
        # one report: the runner's counters, each under one path
        assert sorted(p for p in metrics if p.startswith("runner.")) == [
            "runner.disk.evicted_corrupt",
            "runner.disk.hits",
            "runner.disk.misses",
            "runner.disk.stores",
            "runner.disk_hits",
            "runner.executed",
            "runner.hit_seconds",
            "runner.sim_seconds",
        ]


class TestCachePrune:
    def test_prune_requires_older_than(self, capsys):
        assert main(["cache", "prune"]) == 2
        assert "--older-than" in capsys.readouterr().out

    def test_prune_reports_age_cutoff(self, capsys):
        import os

        assert main(["--ops", "150", "--warmup", "50", "run", "lbm06", "ideal"]) == 0
        capsys.readouterr()
        cache = runner.disk_cache()
        for path in cache.root.glob("*/*.json"):
            os.utime(path, (1, 1))
        assert main(["cache", "prune", "--older-than", "1"]) == 0
        out = capsys.readouterr().out
        assert "pruned" in out
        assert len(cache) == 0

    def test_stats_show_entry_ages(self, capsys):
        assert main(["--ops", "150", "--warmup", "50", "run", "lbm06", "ideal"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "oldest_age_seconds" in out
        assert "newest_age_seconds" in out


class TestServiceParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 8035
        assert args.workers == 2
        assert args.max_attempts == 3
        assert args.drain_seconds == 30.0

    def test_submit_args(self):
        args = build_parser().parse_args(
            ["submit", "lbm06", "dynamic_ptmc", "--priority", "4", "--wait"]
        )
        assert args.command == "submit"
        assert args.workload == "lbm06"
        assert args.priority == 4
        assert args.wait

    def test_submit_rejects_unknown_design(self):
        import pytest

        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "lbm06", "warp_drive"])

    def test_jobs_state_filter(self):
        args = build_parser().parse_args(["jobs", "--state", "queued"])
        assert args.state == "queued"

    def test_wait_and_result_and_cancel(self):
        for verb in ("wait", "result", "cancel"):
            args = build_parser().parse_args([verb, "abc123"])
            assert args.command == verb
            assert args.job_id == "abc123"

    def test_unreachable_service_is_an_error_not_a_crash(self, capsys):
        assert main(["jobs", "--url", "http://127.0.0.1:1"]) == 1
        assert "service error" in capsys.readouterr().out


class TestPolicyCLI:
    def test_policies_verb_lists_registry(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        for name in ("lru", "fifo", "random", "srrip", "pref_lru"):
            assert name in out
        assert "default" in out

    def test_llc_policy_flag_parsed(self):
        args = build_parser().parse_args(
            ["--llc-policy", "srrip", "run", "lbm06", "ideal"]
        )
        assert args.llc_policy == "srrip"

    def test_llc_policy_defaults_to_lru(self):
        args = build_parser().parse_args(["run", "lbm06", "ideal"])
        assert args.llc_policy == "lru"

    def test_unknown_policy_rejected_at_parse_time(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--llc-policy", "belady", "run", "lbm06", "ideal"])

    def test_run_with_policy_override(self, capsys):
        assert main(
            [
                "--ops", "200", "--warmup", "100",
                "--llc-policy", "fifo",
                "run", "lbm06", "static_ptmc",
            ]
        ) == 0
        assert "weighted speedup" in capsys.readouterr().out

    def test_stats_expose_policy_counters(self, capsys):
        assert main(
            ["--ops", "200", "--warmup", "100", "stats", "lbm06", "prefetch"]
        ) == 0
        out = capsys.readouterr().out
        assert "llc.policy_evictions" in out
        assert "llc.wasted_prefetches" in out


class TestTraceCLI:
    @pytest.fixture(autouse=True)
    def _isolated_trace_store(self, tmp_path, monkeypatch):
        import repro.traces.store as store_module
        from repro.traces.store import configure_trace_store

        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
        configure_trace_store(tmp_path / "traces")
        monkeypatch.setattr(runner, "_workload_data", OrderedDict())
        yield
        store_module._default_store = None

    @pytest.fixture
    def trace_file(self, tmp_path):
        path = tmp_path / "toy.trace"
        lines = ["# toy trace"]
        for i in range(200):
            op = "w" if i % 4 == 0 else "r"
            lines.append(f"{op} {((0x4000 + (i * 7) % 40) * 64):#x}")
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_parser_subcommands(self):
        args = build_parser().parse_args(["trace", "ingest", "t.trace", "--lenient"])
        assert args.command == "trace" and args.trace_command == "ingest"
        assert args.lenient
        args = build_parser().parse_args(["--no-loop", "sweep", "trace:abc123"])
        assert args.command == "sweep" and args.workload == "trace:abc123"
        assert args.no_loop
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "run", "abc123"])

    def test_ingest_list_info_run_round_trip(self, capsys, trace_file):
        assert main(["trace", "ingest", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "ingested: trace:" in out
        digest = [ln for ln in out.splitlines() if ln.startswith("full hash:")][0]
        digest = digest.split()[-1]

        assert main(["trace", "ingest", str(trace_file), "--name", "again"]) == 0
        assert "deduplicated" in capsys.readouterr().out

        assert main(["trace", "list"]) == 0
        out = capsys.readouterr().out
        assert digest[:12] in out and "toy.trace" in out

        assert main(["trace", "info", digest[:8]]) == 0
        out = capsys.readouterr().out
        assert "reuse distance" in out

        assert main(
            [
                "--ops", "150", "--warmup", "100",
                "sweep", f"trace:{digest[:12]}", "--designs", "ideal",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert f"trace:{digest[:12]}" in out
        assert "replayed" in out

    def test_trace_run_hits_disk_cache_on_second_invocation(self, capsys, trace_file):
        assert main(["trace", "ingest", str(trace_file)]) == 0
        out = capsys.readouterr().out
        digest = [ln for ln in out.splitlines() if ln.startswith("full hash:")][0]
        digest = digest.split()[-1]
        args = [
            "--ops", "150", "--warmup", "100",
            "sweep", f"trace:{digest[:12]}", "--designs", "ideal",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert " 0 executed" in second  # runs now served from cache

        def table_rows(text):
            return [ln for ln in text.splitlines() if ln.startswith("trace:")]

        assert table_rows(first) and table_rows(first) == table_rows(second)

    def test_unknown_trace_hash_is_a_clean_error(self, capsys):
        assert main(["trace", "info", "feedface"]) == 2
        assert "trace error" in capsys.readouterr().out
        assert main(["sweep", "trace:feedface"]) == 2
        assert "cannot run trace:feedface" in capsys.readouterr().out

    def test_negative_trace_limit_is_a_clean_error(self, capsys, trace_file, tmp_path):
        assert main(["trace", "ingest", str(trace_file)]) == 0
        out = capsys.readouterr().out
        digest = [ln for ln in out.splitlines() if ln.startswith("full hash:")][0]
        cache_dir = tmp_path / "results"
        assert main([
            "--cache-dir", str(cache_dir), "--trace-limit", "-5",
            "sweep", f"trace:{digest.split()[-1]}", "--designs", "ideal",
        ]) == 2
        out = capsys.readouterr().out
        assert "cannot run trace:" in out and "limit must be >= 0" in out
        assert not list(cache_dir.glob("*/*.json"))  # nothing simulated or stored

    def test_missing_trace_file_is_a_clean_error(self, capsys, tmp_path):
        assert main(["trace", "ingest", str(tmp_path / "nope.trace")]) == 2
        assert "no such trace file" in capsys.readouterr().out

    def test_strict_ingest_reports_line_number(self, capsys, tmp_path):
        bad = tmp_path / "bad.trace"
        bad.write_text("r 0x40\nwat\n")
        assert main(["trace", "ingest", str(bad)]) == 2
        out = capsys.readouterr().out
        assert "line 2" in out
        assert main(["trace", "ingest", str(bad), "--lenient"]) == 0
        assert "1 lines skipped" in capsys.readouterr().out

    def test_committed_example_trace_ingests(self, capsys):
        from pathlib import Path

        example = Path(__file__).resolve().parents[1] / "examples" / "traces"
        assert main(["trace", "ingest", str(example / "example_mix.trace")]) == 0
        out = capsys.readouterr().out
        assert "ingested: trace:" in out
        assert "13056 records" in out
