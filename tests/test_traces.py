"""Tests for the real-trace ingestion subsystem (``repro.traces``).

Covers the parsers (text/binary/gzip, strict/lenient), the
content-addressed store (dedup, prefix resolution, corruption
detection), reuse-distance characterization, and — the load-bearing
property — bitwise-deterministic replay: the same stored trace produces
the same ``SimResult`` across fresh processes-worth of state, across
the scalar and batched simulation paths, and across parallel sweeps.
"""

import dataclasses
import gzip
import io
import re
from collections import OrderedDict

import pytest

from repro.sim import runner
from repro.sim.config import quick_config
from repro.sim.diskcache import cache_key
from repro.sim.system import SimulatedSystem
from repro.traces import formats
from repro.traces.formats import (
    ParseStats,
    TraceParseError,
    decode_records,
    encode_records,
    parse_bytes,
    parse_text,
    parse_text_line,
    sniff_format,
)
from repro.traces.replay import TraceWorkload, trace_workload
from repro.traces.store import (
    TraceStore,
    TraceStoreError,
    configure_trace_store,
    content_hash,
    trace_store,
)
from repro.workloads.characterize import reuse_distance_histogram

CFG = quick_config(ops_per_core=300, warmup_ops=200)


@pytest.fixture(autouse=True)
def _isolated_stores(tmp_path, monkeypatch):
    """Fresh trace store + disk cache per test; reset singletons after."""
    import repro.traces.store as store_module

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "simcache"))
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
    configure_trace_store(tmp_path / "traces")
    monkeypatch.setattr(runner, "_workload_data", OrderedDict())
    runner.configure_disk_cache(enabled=False)
    yield
    store_module._default_store = None
    runner.configure_disk_cache(enabled=False)


def toy_records(lines=48, hot=6, length=256):
    """A small deterministic record list with reuse and writes."""
    records = []
    for i in range(length):
        if i % 3 == 2:
            records.append((True, 0x9000 + (i % hot)))  # hot write set
        else:
            records.append((False, 0x1000 + (i * 7) % lines))
    return records


def ingest_toy(**kwargs):
    info, created = trace_store().ingest_records(toy_records(), **kwargs)
    return info, created


# ---------------------------------------------------------------------------
# Text parsing
# ---------------------------------------------------------------------------


class TestTextParsing:
    def test_kinds_and_aliases(self):
        for token in ("r", "R", "read", "ld", "LOAD"):
            assert parse_text_line(f"{token} 0x1000", 1) == [(False, 0x40)]
        for token in ("w", "W", "write", "st", "STORE"):
            assert parse_text_line(f"{token} 0x1000", 1) == [(True, 0x40)]

    def test_bare_address_is_a_read(self):
        assert parse_text_line("0x1040", 1) == [(False, 0x41)]

    def test_decimal_addresses(self):
        assert parse_text_line("r 128", 1) == [(False, 2)]

    def test_comments_and_blanks(self):
        assert parse_text_line("", 1) == []
        assert parse_text_line("   # note", 1) == []
        assert parse_text_line("r 0x40  # inline", 1) == [(False, 1)]

    def test_size_expands_to_one_record_per_line(self):
        assert parse_text_line("r 0x0 256", 1) == [(False, i) for i in range(4)]

    def test_unaligned_access_crossing_a_line_boundary(self):
        assert parse_text_line("w 60 8", 1) == [(True, 0), (True, 1)]

    def test_strict_mode_raises_with_line_number(self):
        lines = ["r 0x40", "w 0x80", "bogus line here"]
        with pytest.raises(TraceParseError) as excinfo:
            list(parse_text(lines, mode="strict"))
        assert excinfo.value.lineno == 3
        assert "line 3" in str(excinfo.value)

    def test_lenient_mode_skips_and_counts(self):
        lines = ["r 0x40", "x 0x80", "w nope", "w 0xc0"]
        stats = ParseStats()
        parsed = list(parse_text(lines, mode="lenient", stats=stats))
        assert parsed == [(False, 1), (True, 3)]
        assert stats.records == 2
        assert stats.errors == 2
        assert [lineno for lineno, _ in stats.samples] == [2, 3]

    def test_bad_kind_and_address_and_size(self):
        for line in ("jmp 0x40", "r zz", "r 0x40 0", "r -64", "r 1 2 3 4"):
            with pytest.raises(TraceParseError):
                parse_text_line(line, 1)


# ---------------------------------------------------------------------------
# Binary format + containers
# ---------------------------------------------------------------------------


class TestBinaryFormat:
    def test_round_trip(self):
        records = toy_records()
        assert list(decode_records(io.BytesIO(encode_records(records)))) == records

    def test_bad_magic_rejected(self):
        with pytest.raises(TraceParseError, match="magic"):
            list(decode_records(io.BytesIO(b"NOTATRACE")))

    def test_truncated_record_rejected(self):
        data = encode_records([(False, 1), (True, 2)])[:-3]
        with pytest.raises(TraceParseError, match="truncated"):
            list(decode_records(io.BytesIO(data)))

    def test_unknown_flags_rejected(self):
        data = formats.MAGIC + formats._RECORD.pack(0x80, 1)
        with pytest.raises(TraceParseError, match="flags"):
            list(decode_records(io.BytesIO(data)))

    def test_sniffing(self):
        assert sniff_format(encode_records([(False, 1)])) == "binary"
        assert sniff_format(b"r 0x40\n") == "text"

    def test_gzip_container_any_format(self):
        records = toy_records()
        text = formats.format_text(records).encode()
        for payload in (
            gzip.compress(encode_records(records)),
            gzip.compress(text),
            encode_records(records),
            text,
        ):
            assert list(parse_bytes(payload)) == records

    def test_corrupt_gzip_is_a_parse_error(self):
        payload = gzip.compress(b"r 0x40\n")[:10]
        with pytest.raises(TraceParseError, match="gzip"):
            list(parse_bytes(payload))

    def test_format_text_round_trips(self):
        records = toy_records()
        again = list(parse_text(formats.format_text(records).splitlines()))
        assert again == records


# ---------------------------------------------------------------------------
# Content-addressed store
# ---------------------------------------------------------------------------


class TestTraceStore:
    def test_ingest_and_dedup_across_containers(self, tmp_path):
        store = TraceStore(tmp_path / "s")
        records = toy_records()
        text = formats.format_text(records).encode()
        info1, created1 = store.ingest_bytes(text, name="as-text")
        info2, created2 = store.ingest_bytes(
            gzip.compress(encode_records(records)), name="as-binary-gz"
        )
        assert created1 and not created2
        assert info1.hash == info2.hash == content_hash(records)
        assert info2.name == "as-text"  # first ingest wins the name
        assert store.stats.ingested == 1
        assert store.stats.dedup_hits == 1

    def test_sidecar_characterization(self, tmp_path):
        store = TraceStore(tmp_path / "s")
        records = [(False, 1), (True, 2), (False, 1), (True, 2)]
        info, _ = store.ingest_records(records, name="tiny")
        assert info.records == 4
        assert info.reads == 2 and info.writes == 2
        assert info.write_frac == 0.5
        assert info.unique_lines == 2
        assert info.footprint_bytes == 2 * 64
        assert sum(info.reuse_distance.values()) == 4

    def test_prefix_resolution(self, tmp_path):
        store = TraceStore(tmp_path / "s")
        info, _ = store.ingest_records(toy_records())
        assert store.resolve(info.hash[:8]) == info.hash
        assert store.resolve(info.hash) == info.hash
        with pytest.raises(TraceStoreError, match="unknown"):
            store.resolve("feedface")
        with pytest.raises(TraceStoreError, match="at least 2"):
            store.resolve("a")
        with pytest.raises(TraceStoreError, match="invalid"):
            store.resolve("not-hex!")

    def test_empty_trace_rejected(self, tmp_path):
        store = TraceStore(tmp_path / "s")
        with pytest.raises(TraceStoreError, match="no records"):
            store.ingest_records([])

    def test_missing_sidecar_is_rebuilt(self, tmp_path):
        store = TraceStore(tmp_path / "s")
        info, _ = store.ingest_records(toy_records(), name="x")
        _, json_path = store._paths(info.hash)
        json_path.unlink()
        rebuilt = store.info(info.hash)
        assert rebuilt.records == info.records
        assert rebuilt.reuse_distance == info.reuse_distance
        assert json_path.exists()

    def test_corrupt_payload_detected(self, tmp_path):
        store = TraceStore(tmp_path / "s")
        info, _ = store.ingest_records(toy_records())
        bin_path, _ = store._paths(info.hash)
        # re-gzip different bytes: valid container, wrong content hash
        buffer = io.BytesIO()
        with gzip.GzipFile(fileobj=buffer, mode="wb", mtime=0) as zipped:
            zipped.write(encode_records([(False, 99)]))
        bin_path.write_bytes(buffer.getvalue())
        with pytest.raises(TraceStoreError, match="content hash"):
            store.load_records(info.hash)

    def test_stored_container_is_byte_stable(self, tmp_path):
        a = TraceStore(tmp_path / "a")
        b = TraceStore(tmp_path / "b")
        info_a, _ = a.ingest_records(toy_records())
        info_b, _ = b.ingest_records(toy_records())
        path_a, _ = a._paths(info_a.hash)
        path_b, _ = b._paths(info_b.hash)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_list_and_remove(self, tmp_path):
        store = TraceStore(tmp_path / "s")
        info, _ = store.ingest_records(toy_records(), name="keep")
        assert [i.hash for i in store.list()] == [info.hash]
        store.remove(info.hash[:8])
        assert store.list() == []

    def test_lenient_ingest_counts_errors_in_sidecar(self, tmp_path):
        store = TraceStore(tmp_path / "s")
        info, _ = store.ingest_bytes(
            b"r 0x40\nzzz\nw 0x80\n", mode="lenient", name="noisy"
        )
        assert info.records == 2
        assert info.parse_errors == 1
        assert store.stats.parse_errors == 1


# ---------------------------------------------------------------------------
# Reuse-distance characterization
# ---------------------------------------------------------------------------


class TestReuseDistance:
    def test_known_small_sequence(self):
        # a b a b c: both re-accesses see 2 distinct lines (incl. self)
        assert reuse_distance_histogram([1, 2, 1, 2, 3]) == {"cold": 3, "2": 2}

    def test_immediate_reaccess_is_distance_one(self):
        assert reuse_distance_histogram([5, 5, 5]) == {"cold": 1, "1": 2}

    def test_distances_bucket_by_power_of_two(self):
        # touch 0..4 then re-touch 0: distance 5 -> bucket 8
        hist = reuse_distance_histogram([0, 1, 2, 3, 4, 0])
        assert hist == {"cold": 5, "8": 1}

    def test_total_mass_equals_accesses(self):
        addresses = [line for _, line in toy_records()]
        hist = reuse_distance_histogram(addresses)
        assert sum(hist.values()) == len(addresses)


# ---------------------------------------------------------------------------
# Replay: workload interface + determinism
# ---------------------------------------------------------------------------


def comparable(result) -> dict:
    payload = result.to_json_dict()
    payload["extras"].pop("sim_seconds", None)  # wall time is not identity
    return payload


class TestTraceReplay:
    def test_trace_workload_resolves_prefix(self):
        info, _ = ingest_toy(name="toy")
        w = trace_workload(info.hash[:8])
        assert w.trace_hash == info.hash
        assert w.name == f"trace:{info.hash[:12]}"
        assert w.memory_intensive

    def test_generator_replays_trace_addresses(self):
        info, _ = ingest_toy()
        g = trace_workload(info.hash).make_generator(0)
        records = toy_records()
        out = list(g.generate(len(records)))
        assert [(r.is_write, r.vline) for r in out] == records
        assert g.replayed_records == len(records)
        assert g.loops == 0
        # writes synthesized data; reads did not
        assert all((r.write_data is not None) == r.is_write for r in out)

    def test_non_loop_trace_exhausts_cleanly(self):
        info, _ = ingest_toy()
        spec = trace_workload(info.hash, loop=False)
        scalar = list(spec.make_generator(0).generate(10_000))
        assert len(scalar) == len(toy_records())
        batched = list(
            spec.make_generator(0).generate_batched(10_000, 64, lambda chunk: None)
        )
        assert [(r.is_write, r.vline, r.gap) for r in batched] == [
            (r.is_write, r.vline, r.gap) for r in scalar
        ]

    def test_recorded_workload_replays_once_then_ends(self):
        from repro.workloads import get_workload
        from repro.workloads.generators import WorkloadTraceGenerator

        recorded = [
            (r.is_write, r.vline)
            for r in WorkloadTraceGenerator(get_workload("lbm06"), 0).generate(500)
        ]
        info, _ = trace_store().ingest_records(recorded)
        assert info.records == 500
        g = trace_workload(info.hash, loop=False).make_generator(0)
        out = list(g.generate(1_000))
        assert [(r.is_write, r.vline) for r in out] == recorded
        assert g.replayed_records == 500
        assert list(g.generate(1_000)) == []  # the stream has ended

    def test_largest_line_addresses_survive_ingest_and_replay(self):
        records = [(False, 2**63 - 1), (True, 2**64 - 1)]
        info, _ = trace_store().ingest_records(records)
        assert trace_store().load_records(info.hash) == records
        out = list(trace_workload(info.hash, loop=False).make_generator(0).generate(10))
        assert [(r.is_write, r.vline) for r in out] == records

    def test_limit_caps_the_replayed_records(self):
        info, _ = ingest_toy()
        g = trace_workload(info.hash, limit=10).make_generator(0)
        out = list(g.generate(25))
        assert [(r.is_write, r.vline) for r in out[:10]] == toy_records()[:10]
        assert [(r.is_write, r.vline) for r in out[10:20]] == toy_records()[:10]
        assert g.loops == 2

    def test_negative_limit_rejected(self):
        # a negative limit would replay the whole trace like 0, under
        # another key
        info, _ = ingest_toy()
        with pytest.raises(ValueError, match="limit must be an int >= 0"):
            trace_workload(info.hash, limit=-1)

    def test_per_core_streams_share_addresses_not_data(self):
        info, _ = ingest_toy()
        spec = trace_workload(info.hash)
        a = list(spec.make_generator(0).generate(64))
        b = list(spec.make_generator(1).generate(64))
        assert [(r.is_write, r.vline) for r in a] == [(r.is_write, r.vline) for r in b]
        data_a = [r.write_data.render() for r in a if r.is_write]
        data_b = [r.write_data.render() for r in b if r.is_write]
        assert data_a != data_b  # per-core seeds decorrelate contents

    def test_replay_is_deterministic_across_fresh_state(self):
        info, _ = ingest_toy()
        spec = trace_workload(info.hash)
        first = SimulatedSystem(spec, "dynamic_ptmc", CFG).run()
        second = SimulatedSystem(spec, "dynamic_ptmc", CFG).run()
        assert comparable(first) == comparable(second)

    @pytest.mark.parametrize("design", ["uncompressed", "static_ptmc", "dynamic_ptmc"])
    def test_scalar_and_batch_paths_identical(self, design):
        info, _ = ingest_toy()
        spec = trace_workload(info.hash)
        scalar = SimulatedSystem(spec, design, CFG.with_(batch_chunk=0)).run()
        batched = SimulatedSystem(spec, design, CFG.with_(batch_chunk=128)).run()
        assert comparable(batched) == comparable(scalar)

    def test_trace_telemetry_registered(self):
        info, _ = ingest_toy()
        result = SimulatedSystem(trace_workload(info.hash), "uncompressed", CFG).run()
        assert result.metrics["trace.replayed_records"] > 0
        assert "trace.synthesized_fills" in result.metrics
        assert "trace.loops" in result.metrics

    def test_synthetic_workloads_carry_no_trace_metrics(self):
        from repro.workloads import get_workload

        result = SimulatedSystem(get_workload("lbm06"), "uncompressed", CFG).run()
        assert not any(k.startswith("trace.") for k in result.metrics)

    def test_runner_resolves_trace_prefix_strings(self):
        info, _ = ingest_toy()
        resolved = runner.resolve_workload(f"trace:{info.hash[:8]}")
        assert isinstance(resolved, TraceWorkload)
        assert resolved.trace_hash == info.hash


# ---------------------------------------------------------------------------
# Disk-cache keying + parallel sweeps
# ---------------------------------------------------------------------------


class TestTraceRunOptions:
    """The ``trace_*`` run options set the fields of the replayed workload."""

    def test_trace_options_set_their_workload_fields(self):
        info, _ = ingest_toy()
        options = {"ops_per_core": 300, "trace_limit": 50, "trace_loop": False, "trace_seed": 3}
        workload, config = runner.resolve_run(f"trace:{info.hash[:10]}", options)
        assert workload == trace_workload(info.hash, limit=50, loop=False, seed=3)
        assert config.ops_per_core == 300

    def test_no_trace_options_keep_the_defaults(self):
        info, _ = ingest_toy()
        workload, _ = runner.resolve_run(f"trace:{info.hash}", {})
        assert workload == trace_workload(info.hash)

    def test_negative_limit_is_a_value_error(self):
        info, _ = ingest_toy()
        with pytest.raises(ValueError, match="bad trace overrides: limit must be an int >= 0"):
            runner.resolve_run(f"trace:{info.hash}", {"trace_limit": -5})

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"trace_loop": "false"}, "loop must be a bool, not 'false'"),
            ({"trace_loop": 0}, "loop must be a bool, not 0"),
            ({"trace_limit": "50"}, "limit must be an int >= 0, not '50'"),
            ({"trace_limit": True}, "limit must be an int >= 0, not True"),
            ({"trace_limit": 2.5}, "limit must be an int >= 0, not 2.5"),
            ({"trace_seed": "3"}, "seed must be an int, not '3'"),
            ({"trace_seed": False}, "seed must be an int, not False"),
        ],
    )
    def test_option_of_another_type_is_a_value_error(self, options, message):
        info, _ = ingest_toy()
        with pytest.raises(ValueError, match=re.escape(f"bad trace overrides: {message}")):
            runner.resolve_run(f"trace:{info.hash}", options)

    def test_unknown_trace_is_a_store_error(self):
        with pytest.raises(TraceStoreError):
            runner.resolve_run("trace:feedface", {"trace_seed": 1})

    def test_every_core_replays_with_its_own_seed(self):
        info, _ = ingest_toy()
        workload = trace_workload(info.hash, seed=5)
        assert [workload.spec_for_core(core).seed for core in range(3)] == [5, 6, 7]
        assert workload.spec_for_core(2) == workload.with_seed(7)


class TestTraceCaching:
    def test_cache_key_tracks_trace_identity_knobs(self):
        info, _ = ingest_toy()
        base = trace_workload(info.hash)
        key = cache_key(base, "static_ptmc", CFG)
        assert key == cache_key(trace_workload(info.hash), "static_ptmc", CFG)
        for variant in (
            trace_workload(info.hash, limit=10),
            trace_workload(info.hash, seed=7),
            trace_workload(info.hash, loop=False),
            trace_workload(info.hash, mean_gap=12),
            dataclasses.replace(base, trace_hash="f" * 64),
        ):
            assert cache_key(variant, "static_ptmc", CFG) != key

    def test_second_run_served_from_disk_cache(self, tmp_path):
        info, _ = ingest_toy()
        runner.configure_disk_cache(tmp_path / "dc", enabled=True)
        spec = trace_workload(info.hash)
        first = runner.simulate(spec, "static_ptmc", CFG)
        executed = runner.stats.executed
        second = runner.simulate(spec, "static_ptmc", CFG)
        assert runner.stats.executed == executed
        a, b = comparable(first), comparable(second)
        assert b["extras"].pop("cached", None) == 1.0  # served-from-cache marker
        b["extras"].pop("serve_seconds", None)
        assert a == b

    def test_parallel_sweep_matches_serial(self, monkeypatch):
        from repro.sim.parallel import sweep_with_report

        info, _ = ingest_toy()
        spec = trace_workload(info.hash)
        serial, _ = sweep_with_report([spec], ["static_ptmc"], CFG)
        # the pool processes fork from here: give them no decoded records
        monkeypatch.setattr(runner, "_workload_data", OrderedDict())
        parallel, _ = sweep_with_report([spec], ["static_ptmc"], CFG, jobs=2)
        assert parallel == serial
