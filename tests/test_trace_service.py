"""End-to-end tests for trace ingestion and replay through the service.

A real daemon (HTTP + scheduler + SQLite + disk cache + trace store) is
booted on an ephemeral port and driven through ``ServiceClient`` — the
same path ``repro trace ingest --url`` and trace-backed ``repro
submit`` use.
"""

import gzip
from collections import OrderedDict

import pytest

from repro.cli import main
from repro.service import jobstore
from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import ServiceDaemon
from repro.sim import runner
from repro.traces import formats
from repro.traces.store import content_hash

OPS, WARMUP = 150, 100


@pytest.fixture(autouse=True)
def _isolated(tmp_path, monkeypatch):
    import repro.traces.store as store_module

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "simcache"))
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
    monkeypatch.setattr(runner, "_workload_data", OrderedDict())
    runner.configure_disk_cache(enabled=False)
    yield
    store_module._default_store = None
    runner.configure_disk_cache(enabled=False)


@pytest.fixture
def daemon(tmp_path):
    d = ServiceDaemon(
        db_path=tmp_path / "service.db",
        cache_dir=tmp_path / "simcache",
        trace_dir=tmp_path / "traces",
        host="127.0.0.1",
        port=0,
        workers=2,
    )
    d.start()
    yield d
    d.stop()


def toy_records():
    return [
        (i % 3 == 2, 0x2000 + i % 8 if i % 3 == 2 else 0x1000 + i % 48)
        for i in range(240)
    ]


def toy_text() -> bytes:
    return formats.format_text(toy_records()).encode()


class TestTraceUpload:
    def test_upload_and_dedup_across_containers(self, daemon):
        client = ServiceClient(daemon.url)
        first = client.upload_trace(toy_text(), name="as-text")
        assert first["created"]
        assert first["hash"] == content_hash(toy_records())
        assert first["records"] == len(toy_records())
        again = client.upload_trace(
            gzip.compress(formats.encode_records(toy_records())), name="as-gz"
        )
        assert not again["created"]
        assert again["hash"] == first["hash"]

    def test_list_and_info(self, daemon):
        client = ServiceClient(daemon.url)
        uploaded = client.upload_trace(toy_text(), name="listed")
        listed = client.traces()
        assert [t["hash"] for t in listed] == [uploaded["hash"]]
        info = client.trace_info(uploaded["hash"][:10])
        assert info["name"] == "listed"
        assert info["reuse_distance"]

    def test_unknown_trace_is_404(self, daemon):
        client = ServiceClient(daemon.url)
        with pytest.raises(ServiceError) as excinfo:
            client.trace_info("feedface")
        assert excinfo.value.status == 404

    def test_bad_payloads_are_400(self, daemon):
        client = ServiceClient(daemon.url)
        for payload in (
            {},  # neither content nor content_b64
            {"content": "r 0x40", "content_b64": "cg=="},  # both
            {"content_b64": "!!! not base64 !!!"},
            {"content": "utter nonsense line"},  # strict parse failure
            {"content": ""},  # no records
        ):
            with pytest.raises(ServiceError) as excinfo:
                client._request("POST", "/traces", payload)
            assert excinfo.value.status == 400

    @pytest.mark.parametrize("field, value", [("name", {"a": 1}), ("name", None), ("format", 7),
                                              ("content", ["r 0x40"]), ("nmae", "x")])
    def test_fields_are_neither_coerced_nor_dropped(self, daemon, field, value):
        client = ServiceClient(daemon.url)
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/traces", {"content": toy_text().decode(), field: value})
        assert excinfo.value.status == 400
        assert repr(field) in excinfo.value.message or f"{field} must be" in excinfo.value.message
        assert client.traces() == []

    def test_lenient_upload_counts_errors(self, daemon):
        client = ServiceClient(daemon.url)
        trace = client.upload_trace(
            b"r 0x40\ngarbage\nw 0x80\n", name="noisy", mode="lenient"
        )
        assert trace["records"] == 2
        assert trace["parse_errors"] == 1
        assert daemon.metrics()["trace.parse_errors"] >= 1


class TestTraceJobs:
    def test_trace_backed_job_end_to_end(self, daemon):
        client = ServiceClient(daemon.url)
        uploaded = client.upload_trace(toy_text(), name="job-trace")
        digest = uploaded["hash"]
        job = client.submit(f"trace:{digest[:10]}", "dynamic_ptmc",
                            ops=OPS, warmup=WARMUP)
        # abbreviated hashes canonicalize on submit
        assert job["workload"] == f"trace:{digest}"
        done = client.wait(job["id"], timeout=120)
        assert done["state"] == jobstore.DONE
        result = client.result(job["id"])
        assert result.metrics["trace.replayed_records"] > 0
        # identical resubmission is served from the shared disk cache
        again = client.submit(f"trace:{digest}", "dynamic_ptmc",
                              ops=OPS, warmup=WARMUP)
        assert again["state"] == jobstore.DONE
        assert again["source"] == "cache"

    def test_trace_knobs_change_job_identity(self, daemon):
        client = ServiceClient(daemon.url)
        digest = client.upload_trace(toy_text())["hash"]
        base = client.submit(f"trace:{digest}", "uncompressed",
                             ops=OPS, warmup=WARMUP)
        limited = client.submit(f"trace:{digest}", "uncompressed",
                                ops=OPS, warmup=WARMUP, trace_limit=50)
        seeded = client.submit(f"trace:{digest}", "uncompressed",
                               ops=OPS, warmup=WARMUP, trace_seed=9)
        keys = {base["key"], limited["key"], seeded["key"]}
        assert len(keys) == 3

    def test_unknown_trace_hash_rejected_at_submit(self, daemon):
        client = ServiceClient(daemon.url)
        with pytest.raises(ServiceError) as excinfo:
            client.submit("trace:feedface00", "uncompressed", ops=OPS, warmup=WARMUP)
        assert excinfo.value.status == 400

    def test_trace_knobs_rejected_on_synthetic_workloads(self, daemon):
        client = ServiceClient(daemon.url)
        with pytest.raises(ServiceError) as excinfo:
            client.submit("lbm06", "uncompressed", ops=OPS, warmup=WARMUP,
                          trace_seed=3)
        assert excinfo.value.status == 400
        assert "trace" in excinfo.value.message

    def test_negative_trace_limit_rejected(self, daemon):
        client = ServiceClient(daemon.url)
        digest = client.upload_trace(toy_text())["hash"]
        with pytest.raises(ServiceError) as excinfo:
            client.submit(f"trace:{digest}", "uncompressed",
                          ops=OPS, warmup=WARMUP, trace_limit=-5)
        assert excinfo.value.status == 400

    def test_health_and_metrics_surface_trace_state(self, daemon):
        client = ServiceClient(daemon.url)
        client.upload_trace(toy_text())
        health = client.healthz()
        assert "trace_dir" in health
        metrics = client.metrics()
        assert metrics["trace.ingested"] == 1
        assert "trace.dedup_hits" in metrics
        assert "trace.loads" in metrics


class TestOneRunOneKey:
    """The CLI and the daemon resolve run options through one function:
    a run named the same way on both is one cache key."""

    FLAGS = ["--ops", "200", "--warmup", "100", "--trace-limit", "50", "--trace-seed", "3"]
    OPTIONS = {"ops_per_core": 200, "warmup_ops": 100, "trace_limit": 50, "trace_seed": 3}

    def test_a_cli_run_serves_the_same_submission(self, daemon, capsys):
        client = ServiceClient(daemon.url)
        digest = client.upload_trace(toy_text())["hash"]
        stores = ["--cache-dir", str(daemon.cache.root), "--trace-dir", str(daemon.traces.root)]
        assert main([*stores, *self.FLAGS, "run", f"trace:{digest}", "dynamic_ptmc"]) == 0
        capsys.readouterr()
        job = client.submit(f"trace:{digest}", "dynamic_ptmc", **self.OPTIONS)
        assert job["state"] == jobstore.DONE
        assert job["source"] == "cache"

    def test_submit_sends_the_global_run_flags_by_their_option_names(self, daemon, capsys):
        client = ServiceClient(daemon.url)
        digest = client.upload_trace(toy_text())["hash"]
        assert main([
            *self.FLAGS, "--no-loop", "submit", f"trace:{digest}", "ideal", "--url", daemon.url,
        ]) == 0
        assert "submitted job" in capsys.readouterr().out
        (job,) = client.jobs()
        assert job["config"] == {**self.OPTIONS, "llc_policy": "lru", "trace_loop": False}

    def test_a_trace_flag_on_a_roster_workload_is_refused_on_both(self, daemon, capsys):
        assert main(["--trace-seed", "3", "stats", "lbm06", "ideal"]) == 2
        assert "only apply to trace:<hash> workloads" in capsys.readouterr().out
        with pytest.raises(ServiceError) as excinfo:
            ServiceClient(daemon.url).submit("lbm06", "ideal", trace_seed=3)
        assert excinfo.value.status == 400
        assert "only apply to trace:<hash> workloads" in excinfo.value.message
