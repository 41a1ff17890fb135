"""Golden test: the shared access path kept every trace and line stream.

``tests/golden/prestream.json`` was captured by
``tests/golden/gen_prestream.py`` from the code before trace records,
random draws and line rendering were rewritten for speed.  It pins the
streams the metric goldens only see through their effect on results:
synthetic trace records (scalar and batched), trace replay (looping and
not) and rendered line contents for every data profile.  Each case must
be reproduced bit for bit, so a failure names the stream that moved.
"""

import importlib.util
import json
import pathlib

import pytest

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "gen_prestream", GOLDEN_DIR / "gen_prestream.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN = _load_generator()
FIXTURE = json.loads(GEN.FIXTURE.read_text())


@pytest.mark.parametrize("case", sorted(GEN.CASES))
def test_stream_identical_to_pre_rewrite(case):
    assert GEN.run_case(case) == FIXTURE[case]


def test_every_fixture_entry_has_a_case():
    assert set(FIXTURE) == set(GEN.CASES)


def test_scalar_and_batched_streams_agree():
    for name, payload in FIXTURE.items():
        if name.endswith("/batched"):
            assert payload == FIXTURE[name[: -len("batched")] + "scalar"]


def test_fixture_reaches_every_family_and_the_end_of_a_finite_trace():
    families = set(FIXTURE["lines/spec_like"]["kinds"])
    assert families == {"zero", "small_int", "pointer", "medium", "boundary", "random"}
    assert set(FIXTURE["lines/graph_like"]["kinds"]) == families
    assert FIXTURE["replay/once/core0/scalar"]["count"] < GEN.REPLAY_RECORDS
    assert FIXTURE["replay/loop/core0/scalar"]["count"] == GEN.REPLAY_RECORDS
