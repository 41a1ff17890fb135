"""A fuzz of the daemon's HTTP surface: no JSON body answers 500.

An in-process daemon is sent generated JSON bodies with small values:
keys from the declared field names plus junk, values from ints, floats
(nan and the infinities included), bools, short strings, lists, objects
and null.  Each ``POST /jobs`` must answer 400, or 200/201 with a job
that ends ``done``; none may answer 500 or end ``failed``.  Bodies sent
to the five worker routes must never answer 500, and no claim or
heartbeat may leave a lease that never lapses.  The examples are
derandomized and their number fixed, so the gate is deterministic.
"""

import dataclasses
import json
import math
import urllib.error
import urllib.request
from collections import OrderedDict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service import jobstore
from repro.service.daemon import (
    Claim,
    Failure,
    Heartbeat,
    JobRequest,
    ServiceDaemon,
    Upload,
    WorkerRequest,
)
from repro.sim import runner
from repro.sim.diskcache import code_digest
from repro.sim.system import DESIGNS
from tests.test_distributed import wait_for
from tests.test_trace_service import toy_text

FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.floats(-4, 4),
    st.sampled_from([math.nan, math.inf, -math.inf, 2**63]),
    st.text(max_size=3),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=4,
)
JUNK_KEYS = ["", "timout", "seed", "lease", "extra"]


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


def make_daemon(tmp_path, run_scheduler):
    daemon = ServiceDaemon(
        db_path=tmp_path / "service.db",
        cache_dir=tmp_path / "simcache",
        trace_dir=tmp_path / "traces",
        port=0,
        workers=1,
        backoff_base=0.0,
    )
    daemon.start(run_scheduler=run_scheduler)
    return daemon


def send(url: str, method: str, body) -> tuple:
    """``(status, answer)`` of one JSON request, HTTP errors included."""
    request = urllib.request.Request(
        url, data=json.dumps(body).encode(), method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def names(cls) -> list:
    return [f.name for f in dataclasses.fields(cls)]


#: a timeout shorter than a run fails the job by design, so a timeout
#: that is a valid number is 0 (none) or long
TIMEOUTS = VALUES.filter(lambda v: type(v) not in (int, float) or not 0 < v < 600) | st.just(600)


def sometimes(entries):
    """No entries half the time, else a dict drawn from ``entries``."""
    return st.just({}) | entries


@st.composite
def job_bodies(draw, workloads):
    """A ``POST /jobs`` body.  Its ``config`` is never null or absent:
    a run at bench scale takes seconds, so a config that is an object
    names a short run unless a drawn value replaces its length."""
    body = {
        "workload": draw(st.sampled_from(workloads)),
        "design": draw(st.sampled_from([*DESIGNS, "warp_drive"])),
    }
    for name in draw(st.sets(st.sampled_from(["workload", "design"]), max_size=1)):
        del body[name]
    options = sorted(runner.RUN_OPTIONS) + ["seed", "trace_lmit"]
    config = {"ops_per_core": draw(st.integers(1, 3)), "warmup_ops": draw(st.integers(0, 2))}
    config.update(draw(sometimes(st.dictionaries(st.sampled_from(options), VALUES, max_size=2))))
    body["config"] = draw(
        st.just(config) | VALUES.filter(lambda v: v is not None and not isinstance(v, dict))
    )
    keys = [name for name in names(JobRequest) if name != "config"] + JUNK_KEYS
    body.update(draw(sometimes(st.dictionaries(st.sampled_from(keys), VALUES, max_size=2))))
    if "timeout" in body:
        body["timeout"] = draw(TIMEOUTS)
    return body


def test_every_job_body_answers_400_or_runs_to_done(tmp_path):
    daemon = make_daemon(tmp_path, run_scheduler=True)
    try:
        info, _ = daemon.ingest_trace({"content": toy_text().decode(), "name": "toy"})
        workloads = ["lbm06", "mcf06", f"trace:{info.hash[:10]}", "trace:zz", "nope", ""]
        accepted = []

        @settings(FUZZ, max_examples=200)
        @given(body=job_bodies(workloads))
        def post(body):
            status, answer = send(f"{daemon.url}/jobs", "POST", body)
            assert status in (200, 201, 400), (body, status, answer)
            if status != 400:
                accepted.append(answer["job"]["id"])

        post()
        assert len(accepted) >= 10
        assert wait_for(
            lambda: all(daemon.store.get(job_id).terminal for job_id in accepted), timeout=120
        )
        ended = {job_id: daemon.store.get(job_id) for job_id in accepted}
        assert {job.state for job in ended.values()} == {jobstore.DONE}, [
            (job.workload, job.design, job.config, job.error) for job in ended.values()
            if job.state != jobstore.DONE
        ]
    finally:
        daemon.stop()


@st.composite
def worker_bodies(draw, kind):
    """A body for a worker route that reads a ``kind``: its declared
    fields with plausible values, one perhaps left out, then noise."""
    plausible = {
        "worker_id": st.sampled_from(["w1", "w2"]),
        "code": st.just(code_digest()),
        "lease_seconds": st.sampled_from([None, 0.5, 30]),
        "error": st.just("boom"),
        "source": st.just("remote"),
        "result": st.just({}),
    }
    body = {name: draw(plausible[name]) for name in names(kind)}
    for name in draw(st.sets(st.sampled_from(names(kind)), max_size=1)):
        del body[name]
    keys = sorted({*names(Claim), *names(Heartbeat), *names(Upload), *names(Failure)})
    body.update(draw(sometimes(st.dictionaries(st.sampled_from(keys + JUNK_KEYS), VALUES,
                                               max_size=2))))
    return body


ROUTES = {
    "claim": ("POST", Claim),
    "heartbeat": ("POST", Heartbeat),
    "fail": ("POST", Failure),
    "release": ("POST", WorkerRequest),
    "result": ("PUT", Upload),
}


def test_no_worker_body_answers_500_or_leases_for_good(tmp_path):
    daemon = make_daemon(tmp_path, run_scheduler=False)
    try:
        ids = [
            daemon.store.submit(workload, "ideal", f"k-{workload}", max_attempts=1000)[0].id
            for workload in ("lbm06", "mcf06")
        ]

        @settings(FUZZ, max_examples=250)
        @given(data=st.data(), route=st.sampled_from(sorted(ROUTES)),
               job_id=st.sampled_from([*ids, "nope"]))
        def post(data, route, job_id):
            method, kind = ROUTES[route]
            body = data.draw(worker_bodies(kind))
            path = "jobs/claim" if route == "claim" else f"jobs/{job_id}/{route}"
            status, answer = send(f"{daemon.url}/{path}", method, body)
            assert status in (200, 400, 404, 409), (path, body, status, answer)
            for job_id in ids:
                lease_until = daemon.store.get(job_id).lease_until
                assert lease_until is None or math.isfinite(lease_until)

        post()
        assert daemon.stats.completed == 0
    finally:
        daemon.stop()
