"""Ablation: Last Compressibility Table size (paper uses 512 entries).

Accuracy saturates once the LCT covers the concurrently hot pages —
beyond that, more entries buy nothing, which is why 128 bytes suffice.
"""

from benchmarks.conftest import run_figure, run_once, save_results, speedup
from repro.analysis import banner, format_table
from repro.core.ptmc import PTMCConfig


def _ablation(config):
    configs = {
        entries: config.with_(ptmc=PTMCConfig(lct_entries=entries))
        for entries in (16, 64, 512, 4096)
    }
    runs = run_figure(
        ("soplex06", design, cfg)
        for cfg in configs.values()
        for design in ("static_ptmc", "uncompressed")
    )
    return {
        entries: {
            "llp_accuracy": runs["soplex06", "static_ptmc", cfg].llp_accuracy or 0.0,
            "speedup": speedup(runs, "soplex06", "static_ptmc", cfg),
            "storage_bytes": entries * 2 / 8,
        }
        for entries, cfg in configs.items()
    }


def test_ablation_llp_size(benchmark, config):
    rows = run_once(benchmark, lambda: _ablation(config))
    print(banner("Ablation — LCT entries (LLP size)"))
    print(
        format_table(
            ["entries", "LLP accuracy", "speedup", "storage"],
            [
                [e, f"{r['llp_accuracy']:.1%}", f"{r['speedup']:.3f}", f"{r['storage_bytes']:.0f} B"]
                for e, r in rows.items()
            ],
        )
    )
    save_results("abl_llp_size", {str(k): v for k, v in rows.items()})
    # accuracy is monotone-ish in size and saturates by 512 entries
    assert rows[512]["llp_accuracy"] >= rows[16]["llp_accuracy"] - 0.02
    assert abs(rows[4096]["llp_accuracy"] - rows[512]["llp_accuracy"]) < 0.05
