"""End-to-end tests over the service's HTTP API.

A real daemon (HTTP server + scheduler threads + SQLite store + disk
cache) is booted on an ephemeral port inside the test process and
driven through :class:`repro.service.client.ServiceClient` — the same
path the CLI verbs use.
"""

import io
import json
import re
import urllib.error
import urllib.request

import pytest

from repro.service import jobstore
from repro.service.client import JobFailed, ServiceClient, ServiceError
from repro.service.daemon import ServiceDaemon
from repro.sim import runner
from repro.sim.config import bench_config

OPS, WARMUP = 200, 100
CFG = bench_config(ops_per_core=OPS, warmup_ops=WARMUP)


@pytest.fixture(autouse=True)
def _isolated_runner(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "simcache"))
    runner.configure_disk_cache(enabled=False)
    yield
    runner.configure_disk_cache(enabled=False)


def make_daemon(tmp_path, run_scheduler=True, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("drain_seconds", 30.0)
    daemon = ServiceDaemon(
        db_path=tmp_path / "service.db",
        cache_dir=tmp_path / "simcache",
        host="127.0.0.1",
        port=0,
        **kwargs,
    )
    daemon.start(run_scheduler=run_scheduler)
    return daemon


@pytest.fixture
def daemon(tmp_path):
    d = make_daemon(tmp_path)
    yield d
    d.stop()


@pytest.fixture
def paused_daemon(tmp_path):
    """HTTP up, scheduler off: queued jobs stay queued."""
    d = make_daemon(tmp_path, run_scheduler=False)
    yield d
    d.stop()


def comparable(result) -> dict:
    payload = result.to_json_dict()
    payload["extras"].pop("sim_seconds", None)  # wall time is not identity
    return payload


class TestRoundTrip:
    def test_submit_wait_result_matches_direct_simulate(self, daemon):
        client = ServiceClient(daemon.url)
        job = client.submit("lbm06", "ideal", ops=OPS, warmup=WARMUP)
        assert job["created"] and job["state"] == jobstore.QUEUED
        done = client.wait(job["id"], timeout=120)
        assert done["state"] == jobstore.DONE
        assert done["source"] == "executed"
        served = client.result(job["id"])
        direct = runner.simulate("lbm06", "ideal", CFG, use_cache=False)
        assert comparable(served) == comparable(direct)

    def test_resubmitted_identity_served_from_cache(self, daemon):
        client = ServiceClient(daemon.url)
        job = client.submit("lbm06", "ideal", ops=OPS, warmup=WARMUP)
        client.wait(job["id"], timeout=120)
        executed_before = daemon.stats.completed
        again = client.submit("lbm06", "ideal", ops=OPS, warmup=WARMUP)
        # a new job row, but complete on arrival — nothing to execute
        assert again["id"] != job["id"]
        assert again["state"] == jobstore.DONE
        assert again["source"] == "cache"
        assert daemon.stats.dedup_cache == 1
        assert daemon.stats.completed == executed_before
        assert comparable(client.result(again["id"])) == comparable(
            client.result(job["id"])
        )

    def test_restart_recovers_orphaned_job(self, tmp_path):
        # Daemon 1 "crashes" with the job claimed (running row left behind).
        first = make_daemon(tmp_path, run_scheduler=False)
        client = ServiceClient(first.url)
        job = client.submit("lbm06", "ideal", ops=OPS, warmup=WARMUP)
        assert first.store.claim("local:crashed", lease_seconds=0.3) is not None
        assert first.store.counts()[jobstore.RUNNING] == 1
        first.stop()
        # Daemon 2 on the same store reaps the lapsed lease and completes it.
        second = make_daemon(tmp_path, reaper_interval=0.05)
        try:
            done = ServiceClient(second.url).wait(job["id"], timeout=120)
            assert done["state"] == jobstore.DONE
            assert done["attempts"] == 2  # the crashed claim still counts
            assert second.workers_seen.lease_expirations == 1
            assert second.store.counts()[jobstore.RUNNING] == 0
        finally:
            second.stop()


class TestApiSurface:
    def test_dedup_joins_active_job(self, paused_daemon):
        client = ServiceClient(paused_daemon.url)
        first = client.submit("lbm06", "ideal", ops=OPS, warmup=WARMUP)
        second = client.submit("lbm06", "ideal", ops=OPS, warmup=WARMUP)
        assert second["id"] == first["id"]
        assert first["created"] and not second["created"]
        assert paused_daemon.stats.dedup_active == 1

    def test_jobs_listing_and_state_filter(self, paused_daemon):
        client = ServiceClient(paused_daemon.url)
        client.submit("lbm06", "ideal", ops=OPS, warmup=WARMUP)
        client.submit("mcf06", "ideal", ops=OPS, warmup=WARMUP)
        assert len(client.jobs()) == 2
        assert len(client.jobs(state="queued")) == 2
        assert client.jobs(state="done") == []

    def test_cancel_then_wait_reports_failure(self, paused_daemon):
        client = ServiceClient(paused_daemon.url)
        job = client.submit("lbm06", "ideal", ops=OPS, warmup=WARMUP)
        cancelled = client.cancel(job["id"])
        assert cancelled["state"] == jobstore.CANCELLED
        with pytest.raises(JobFailed):
            client.wait(job["id"], timeout=5)

    def test_result_of_unfinished_job_conflicts(self, paused_daemon):
        client = ServiceClient(paused_daemon.url)
        job = client.submit("lbm06", "ideal", ops=OPS, warmup=WARMUP)
        with pytest.raises(ServiceError) as err:
            client.result(job["id"])
        assert err.value.status == 409

    def test_unknown_job_is_404(self, paused_daemon):
        client = ServiceClient(paused_daemon.url)
        with pytest.raises(ServiceError) as err:
            client.job("deadbeef")
        assert err.value.status == 404

    def test_bad_submissions_are_400(self, paused_daemon):
        client = ServiceClient(paused_daemon.url)
        with pytest.raises(ServiceError) as err:
            client.submit("lbm06", "warp_drive")
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            client.submit("no_such_workload", "ideal")
        assert err.value.status == 400

    @pytest.mark.parametrize(
        "field, value",
        [
            ("priority", "high"), ("timeout", "soon"), ("max_attempts", "x"), ("config", [1]),
            ("priority", "5"), ("priority", 1.5), ("timeout", -5), ("timeout", "nan"),
            ("timeout", float("inf")), ("timeout", True), ("max_attempts", 0),
            ("max_attempts", 2.7), ("max_attempts", True), ("priority", 2**63),
            ("max_attempts", 2**64), ("timeout", 2**63),
        ],
    )
    def test_malformed_submission_fields_are_400(self, paused_daemon, field, value):
        client = ServiceClient(paused_daemon.url)
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/jobs", {"workload": "lbm06", "design": "ideal", field: value})
        assert err.value.status == 400
        assert f"{field} must be" in err.value.message
        assert paused_daemon.store.counts()[jobstore.QUEUED] == 0

    @pytest.mark.parametrize(
        "option, value",
        [("max_attempts", 0), ("max_attempts", 2.7), ("default_timeout", -5.0),
         ("default_timeout", float("nan")), ("lease_seconds", 0), ("lease_seconds", -1.0),
         ("lease_seconds", float("inf")), ("lease_seconds", float("nan")),
         ("lease_seconds", "30")],
    )
    def test_service_defaults_take_the_same_bounds(self, tmp_path, option, value):
        """``repro serve --max-attempts/--job-timeout/--lease-seconds`` are
        checked as a submission's or a claim's fields, before the daemon
        opens its store."""
        with pytest.raises(ValueError, match="must be"):
            ServiceDaemon(db_path=tmp_path / "service.db", port=0, **{option: value})
        assert not (tmp_path / "service.db").exists()

    def test_undeclared_submission_field_is_400(self, paused_daemon):
        """A misspelt field is no silent default: ``timout`` would run
        the job with no timeout at all."""
        client = ServiceClient(paused_daemon.url)
        body = {"workload": "lbm06", "design": "ideal", "config": {"ops_per_core": OPS},
                "timout": 5}
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/jobs", body)
        assert err.value.status == 400
        assert "undeclared fields ['timout']" in err.value.message
        assert "'timeout'" in err.value.message  # the declared names are listed
        assert paused_daemon.store.counts()[jobstore.QUEUED] == 0

    def test_unknown_run_option_is_400(self, paused_daemon):
        client = ServiceClient(paused_daemon.url)
        with pytest.raises(ServiceError) as err:
            client.submit("lbm06", "ideal", ops=OPS, warmup=WARMUP, seed=3)
        assert err.value.status == 400
        assert "unsupported config overrides ['seed']" in err.value.message

    @pytest.mark.parametrize("limit", ["abc", "-1"])
    def test_bad_jobs_limit_is_400_json(self, paused_daemon, limit):
        ServiceClient(paused_daemon.url).submit("lbm06", "ideal", ops=OPS, warmup=WARMUP)
        status, ctype, body = http_get(f"{paused_daemon.url}/jobs?limit={limit}")
        assert status == 400
        assert ctype == "application/json"
        assert "limit must be a whole number" in json.loads(body)["error"]

    def test_healthz(self, paused_daemon):
        health = ServiceClient(paused_daemon.url).healthz()
        assert health["ok"] is True
        assert set(jobstore.STATES) <= set(health["queue"])
        assert health["workers"] == 2

    def test_metrics_exposes_service_and_runner_paths(self, daemon):
        client = ServiceClient(daemon.url)
        job = client.submit("lbm06", "ideal", ops=OPS, warmup=WARMUP)
        client.wait(job["id"], timeout=120)
        metrics = client.metrics()
        assert metrics["service.completed"] == 1
        assert metrics["service.queue_depth"] == 0
        # the runner satellite: execution counters share the registry
        assert "runner.executed" in metrics
        assert "runner.disk.stores" in metrics

    def test_metrics_count_the_runs_of_the_pool(self, daemon):
        """A pool process counts a run only in its own stats; the daemon
        adds each harvested job's run to its own, which /metrics reads."""
        runner.stats.reset()
        client = ServiceClient(daemon.url)
        job = client.submit("lbm06", "ideal", ops=OPS, warmup=WARMUP)
        assert client.wait(job["id"], timeout=120)["source"] == "executed"
        metrics = client.metrics()
        assert metrics["runner.executed"] >= 1
        assert metrics["runner.sim_seconds"] > 0

    def test_metrics_show_what_the_pool_process_holds(self, daemon):
        """The workload stores live in the pool process; the daemon shows
        what the one that ran the last job holds, and its peak RSS."""
        client = ServiceClient(daemon.url)
        assert client.metrics()["runner.data.entries"] == 0
        job = client.submit("lbm06", "ideal", ops=OPS, warmup=WARMUP)
        assert client.wait(job["id"], timeout=120)["source"] == "executed"
        metrics = client.metrics()
        assert metrics["runner.data.workloads"] >= 1
        assert metrics["runner.data.entries"] > 0
        assert metrics["worker.pool_rss_mb"] > 0


def http_get(url: str):
    """``(status, content_type, body)`` without raising on HTTP errors."""
    try:
        with urllib.request.urlopen(url) as resp:
            return resp.status, resp.headers["Content-Type"], resp.read().decode()
    except urllib.error.HTTPError as err:
        return err.code, err.headers["Content-Type"], err.read().decode()


class TestObservabilityEndpoints:
    def test_prometheus_exposition_scrapes(self, daemon):
        client = ServiceClient(daemon.url)
        job = client.submit("lbm06", "ideal", ops=OPS, warmup=WARMUP)
        client.wait(job["id"], timeout=120)
        status, ctype, text = http_get(f"{daemon.url}/metrics?format=prometheus")
        assert status == 200
        assert ctype == "text/plain; version=0.0.4; charset=utf-8"
        assert re.search(r"^repro_service_completed_total 1$", text, re.M)
        assert re.search(r"^repro_service_uptime_seconds \d", text, re.M)
        # histograms made it through with their +Inf bucket intact
        assert re.search(
            r'^repro_service_job_seconds_bucket\{le="\+Inf"\} 1$', text, re.M
        )
        assert re.search(r"^repro_service_http_request_seconds_count \d+$", text, re.M)
        assert re.search(r"^repro_service_queue_depth_samples_count 1$", text, re.M)

    def test_unknown_metrics_format_is_400_json(self, paused_daemon):
        status, ctype, body = http_get(f"{paused_daemon.url}/metrics?format=xml")
        assert status == 400
        assert ctype == "application/json"
        assert "unknown format" in json.loads(body)["error"]

    def test_metrics_subpath_is_404_json(self, paused_daemon):
        for path in ("/metrics/foo", "/metrics/foo/bar", "/healthz/nope"):
            status, ctype, body = http_get(f"{paused_daemon.url}{path}")
            assert status == 404
            assert ctype == "application/json"
            assert "no route" in json.loads(body)["error"]

    def test_unsupported_method_gets_json_error(self, paused_daemon):
        request = urllib.request.Request(
            f"{paused_daemon.url}/metrics", method="PUT"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 501
        assert err.value.headers["Content-Type"] == "application/json"
        assert "error" in json.loads(err.value.read())

    def test_healthz_reports_uptime_and_queue_depth(self, paused_daemon):
        client = ServiceClient(paused_daemon.url)
        client.submit("lbm06", "ideal", ops=OPS, warmup=WARMUP)
        health = client.healthz()
        assert health["uptime_seconds"] >= 0
        assert health["queue_depth"] == 1

    def test_structured_log_records_requests_and_jobs(self, tmp_path):
        stream = io.StringIO()
        daemon = make_daemon(tmp_path, log_stream=stream)
        try:
            client = ServiceClient(daemon.url)
            job = client.submit("lbm06", "ideal", ops=OPS, warmup=WARMUP)
            client.wait(job["id"], timeout=120)
        finally:
            daemon.stop()
        records = [json.loads(line) for line in stream.getvalue().splitlines()]
        events = {record["event"] for record in records}
        assert {"job_submitted", "job_dispatched", "job_completed",
                "http_request"} <= events
        for record in records:
            assert {"ts", "event"} <= set(record)
        completed = next(r for r in records if r["event"] == "job_completed")
        assert completed["job_id"] == job["id"]
        assert completed["seconds"] >= 0


class TestPolicySubmission:
    def test_policy_job_round_trips(self, daemon):
        client = ServiceClient(daemon.url)
        job = client.submit(
            "lbm06", "static_ptmc", ops=OPS, warmup=WARMUP, llc_policy="fifo"
        )
        done = client.wait(job["id"], timeout=120)
        assert done["state"] == jobstore.DONE
        served = client.result(job["id"])
        direct = runner.simulate(
            "lbm06", "static_ptmc", CFG.with_(llc_policy="fifo"), use_cache=False
        )
        assert comparable(served) == comparable(direct)

    def test_explicit_default_policy_is_served_from_cache(self, daemon):
        # {"llc_policy": "lru"} names the default: the identity {} solved
        client = ServiceClient(daemon.url)
        first = client.submit("lbm06", "static_ptmc", ops=OPS, warmup=WARMUP)
        assert client.wait(first["id"], timeout=120)["state"] == jobstore.DONE
        again = client.submit(
            "lbm06", "static_ptmc", ops=OPS, warmup=WARMUP, llc_policy="lru"
        )
        assert again["key"] == first["key"]
        assert again["state"] == jobstore.DONE
        assert again["source"] == "cache"

    def test_policy_jobs_do_not_dedupe_across_policies(self, daemon):
        client = ServiceClient(daemon.url)
        lru = client.submit(
            "lbm06", "static_ptmc", ops=OPS, warmup=WARMUP, llc_policy="lru"
        )
        srrip = client.submit(
            "lbm06", "static_ptmc", ops=OPS, warmup=WARMUP, llc_policy="srrip"
        )
        assert lru["created"] and srrip["created"]
        assert lru["key"] != srrip["key"]

    def test_unknown_policy_rejected(self, daemon):
        client = ServiceClient(daemon.url)
        with pytest.raises(ServiceError) as err:
            client.submit("lbm06", "ideal", llc_policy="belady")
        assert "llc_policy must be a str from" in str(err.value)
