"""Interval sampler: phase boundaries, edge cases, and persistence.

The invariants under test:

- interval=0 disables sampling entirely (``SimResult.timeseries`` None),
- an interval longer than the run still yields one flush point per
  executed phase,
- the warmup boundary forces a point, so no interval ever mixes phases
  and the boundary point's cumulative access count is exactly
  ``num_cores * warmup_ops``,
- the measured-phase points partition the measured window: their
  counter deltas sum to the run's reported window value, and
- a ``SimResult`` carrying a series survives the JSON wire format and a
  disk-cache round trip bit for bit.
"""

import pytest

from repro.obs.sampler import IntervalSampler
from repro.obs.timeseries import TimeSeries, TimeSeriesDecodeError
from repro.sim.config import quick_config
from repro.sim.diskcache import DiskCache, cache_key
from repro.sim.results import SimResult
from repro.sim.system import SimulatedSystem
from repro.telemetry import StatRegistry
from repro.workloads.generators import spec_like

CFG = quick_config(ops_per_core=400, warmup_ops=200)
WORKLOAD = spec_like("sampler", seed=3)


def run(sample_interval=0, cfg=CFG, design="static_ptmc"):
    return SimulatedSystem(WORKLOAD, design, cfg, sample_interval=sample_interval).run()


def test_interval_zero_disables_sampling():
    assert run(0).timeseries is None
    assert run().timeseries is None  # no interval at all


def test_obs_config_rejects_direct_nonpositive_interval():
    with pytest.raises(ValueError):
        IntervalSampler(StatRegistry(), 0)
    with pytest.raises(ValueError):
        IntervalSampler(StatRegistry(), -5)


def test_interval_longer_than_run_yields_one_point_per_phase():
    total = CFG.num_cores * (CFG.ops_per_core + CFG.warmup_ops)
    result = run(total * 10)
    ts = result.timeseries
    assert ts is not None
    assert [p.phase for p in ts.points] == ["warmup", "measured"]


def test_warmup_boundary_never_mixes_phases():
    # interval deliberately misaligned with the phase boundary
    result = run(700)
    ts = result.timeseries
    phases = [p.phase for p in ts.points]
    # warmup points strictly precede measured points
    assert phases == sorted(phases, key=["warmup", "measured"].index)
    boundary = ts.phase_points("warmup")[-1]
    assert boundary.accesses == CFG.num_cores * CFG.warmup_ops


def test_no_warmup_config_samples_measured_only():
    cfg = quick_config(ops_per_core=400, warmup_ops=0)
    result = SimulatedSystem(
        WORKLOAD, "uncompressed", cfg, sample_interval=300
    ).run()
    assert {p.phase for p in result.timeseries.points} == {"measured"}


def test_measured_points_partition_the_measured_window():
    result = run(500)
    ts = result.timeseries
    for path in ("dram.reads", "dram.writes", "llc.misses"):
        total = sum(p.metrics[path] for p in ts.phase_points("measured"))
        assert total == result.metrics[path], path


def test_timeseries_json_round_trip():
    result = run(500)
    restored = SimResult.from_json(result.to_json())
    assert restored.timeseries is not None
    assert restored.timeseries.to_json_dict() == result.timeseries.to_json_dict()
    assert restored == result


def test_diskcache_round_trip_carries_timeseries(tmp_path):
    cache = DiskCache(tmp_path)
    result = run(500)
    key = cache_key(WORKLOAD, "static_ptmc", CFG)
    cache.put(key, result)
    loaded = cache.get(key)
    assert loaded is not None
    assert loaded.timeseries is not None
    assert loaded == result


def test_decode_rejects_malformed_series():
    with pytest.raises(TimeSeriesDecodeError):
        TimeSeries.from_json_dict("not a dict")
    with pytest.raises(TimeSeriesDecodeError):
        TimeSeries.from_json_dict({"interval": 10, "points": "nope"})
    with pytest.raises(TimeSeriesDecodeError):
        TimeSeries.from_json_dict(
            {"interval": 10, "points": [{"accesses": 1, "phase": "bogus", "metrics": {}}]}
        )
