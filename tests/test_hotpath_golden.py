"""Golden test: the lean per-access hot path changed no simulated result.

The ``tests/golden/prehotpath_<case>.json`` fixtures were captured by
``tests/golden/gen_prehotpath.py`` from the code before the hot path was
rewritten (memoized marker classes, precomputed DRAM constants, the
decompression memo, the hook-free LRU fill).  They pin the non-default
branches the seven-design ``prepolicy_*`` fixtures never reach: every
LLC replacement policy, closed-page DRAM without refresh, the
retain-lines ablation, a one-entry LIT under both overflow policies
(whole simulations plus controller scenarios that force inversions, a
rekey sweep and bitmap spills), 5-byte markers and a 2 GHz core clock.
Each must be reproduced bit for bit.
"""

import json
import pathlib

import pytest

from tests.golden import gen_prehotpath as GEN

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

CASE_NAMES = (*GEN.CASES, *GEN.SCENARIOS)


@pytest.mark.parametrize("case", CASE_NAMES)
def test_bitwise_identical_to_pre_hotpath(case):
    want = json.loads(GEN.fixture_path(case).read_text())
    # JSON round trip: tuples and int keys compare as the fixture stores them
    got = json.loads(json.dumps(GEN.run_case(case), sort_keys=True))
    assert got == want


def test_every_fixture_has_a_case():
    stored = {p.stem[len("prehotpath_"):] for p in GOLDEN_DIR.glob("prehotpath_*.json")}
    assert stored == set(CASE_NAMES)


def test_scenarios_reach_the_overflow_paths():
    """The controller scenarios exercise what whole runs never hit."""
    rekey = json.loads(GEN.fixture_path("scenario_lit1_rekey").read_text())
    assert rekey["controller"]["rekeys"] >= 1
    assert rekey["controller"]["inversions"] >= 1
    spilled = json.loads(GEN.fixture_path("scenario_lit1_memory_mapped").read_text())
    assert spilled["controller"]["lit_spill_lookups"] >= 1
