"""A stored result must not outlive the simulator behaviour that made it.

The disk cache keys every result with ``CACHE_SCHEMA_VERSION``, so a
change to what the simulator computes must bump that version, or results
the old code stored are served as the new code's.  The fixtures under
``tests/golden/`` pin that behaviour: a change to any of them is such a
change.  ``golden_digests.json`` records, for each schema version, one
digest over every fixture, and this test fails when the fixtures differ
from the digest recorded for the current version.

It cannot see a behaviour change that moves no fixture, nor a digest
overwritten in place instead of recorded under a bumped version.
"""

import hashlib
import json
import pathlib

from repro.sim.diskcache import CACHE_SCHEMA_VERSION

TESTS = pathlib.Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
REGISTRY = TESTS / "golden_digests.json"


def golden_digest() -> str:
    """sha256 over every fixture's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(GOLDEN.rglob("*.json")):
        h.update(path.relative_to(GOLDEN).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def test_goldens_match_the_digest_of_the_schema_version():
    recorded = json.loads(REGISTRY.read_text())
    digest = golden_digest()
    assert recorded.get(str(CACHE_SCHEMA_VERSION)) == digest, (
        f"the fixtures under tests/golden/ (digest {digest}) are not those "
        f"recorded for CACHE_SCHEMA_VERSION {CACHE_SCHEMA_VERSION}, so results "
        "stored by the old code are stale: bump CACHE_SCHEMA_VERSION and record "
        f"the new digest in {REGISTRY.name}"
    )
