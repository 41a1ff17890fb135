"""Table IV: sensitivity of Dynamic-PTMC's gain to the channel count.

PTMC's adjacent-line co-fetch is a latency/bandwidth benefit that holds
with 1, 2 or 4 channels (paper: 8.1% / 8.5% / 7.8%).  A representative
SPEC subset keeps the sweep tractable; the paper reports the average.
"""

from dataclasses import replace

from benchmarks.conftest import run_figure, save_results, speedup
from repro.analysis import banner, format_table
from repro.sim.results import geometric_mean
from repro.workloads import GAP, SPEC06, SPEC17

WORKLOADS = [SPEC06[0], SPEC06[2], SPEC06[4], SPEC17[0], SPEC17[2], GAP[0]]


def _tab04(config):
    configs = {
        channels: config.with_(geometry=replace(config.geometry, channels=channels))
        for channels in (1, 2, 4)
    }
    runs = run_figure(
        (workload, design, cfg)
        for cfg in configs.values()
        for workload in WORKLOADS
        for design in ("dynamic_ptmc", "uncompressed")
    )
    return {
        channels: geometric_mean(
            speedup(runs, w.name, "dynamic_ptmc", cfg) for w in WORKLOADS
        )
        for channels, cfg in configs.items()
    }


def test_tab04_channel_sensitivity(config):
    rows = _tab04(config)
    print(banner("Table IV — Dynamic-PTMC speedup vs number of channels"))
    print(
        format_table(
            ["channels", "avg speedup"],
            [[ch, f"{value:.3f}"] for ch, value in rows.items()],
        )
    )
    save_results("tab04", {str(k): v for k, v in rows.items()})
    # shape: consistent gains at every channel count — the benefit is not
    # an artifact of a starved configuration
    assert all(value > 1.03 for value in rows.values())
    spread = max(rows.values()) - min(rows.values())
    assert spread < 0.4, "gain should be broadly stable across channel counts"
