"""Generate the ``prestream.json`` golden fixture.

The metric goldens (``prepolicy_*``, ``prehotpath_*``) see the trace and
line-data streams only through their effect on simulated results.  This
fixture pins the streams themselves, as sha256 digests:

- the first 20,000 ``(gap, is_write, vline, write_data)`` records of
  :class:`~repro.workloads.generators.WorkloadTraceGenerator` on two
  cores each of a SPEC-like, a GAP-like and a low-MPKI roster spec,
  through both ``generate`` and ``generate_batched``, plus the
  generator's ``reference`` model once the records are drawn (a store's
  ``write_data`` is hashed as the bytes it renders, since a record
  carries its contents deferred);
- :class:`~repro.traces.replay.TraceReplayGenerator` over a small
  ingested trace, looping and not;
- 4,096 ``DataGenerator.line(vline, version)`` renders per data profile,
  versions 0-3 under a non-zero ``write_scramble``, with the histogram of
  pattern families they drew.

The fixture was captured from the code before the shared access path
(trace records, draws, line rendering) was rewritten;
``tests/test_stream_golden.py`` holds the current code to it bit for
bit.  Re-running this script must be a no-op on a tree that passes that
test.

    PYTHONPATH=src python tests/golden/gen_prestream.py
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import pathlib
import tempfile
from typing import Callable, Dict, Iterator, List, Tuple

import repro.traces.store as store_module
from repro.traces.replay import TraceWorkload
from repro.traces.store import configure_trace_store
from repro.workloads.data_patterns import (
    ALL_ZERO,
    GRAPH_LIKE,
    INCOMPRESSIBLE,
    SPEC_LIKE,
    DataGenerator,
)
from repro.workloads.suites import get_workload

FIXTURE = pathlib.Path(__file__).resolve().parent / "prestream.json"

RECORDS = 20_000
CHUNK = 512
SPECS = ("mcf06", "pr.twitter", "perlbench06")
CORES = (0, 1)

REPLAY_RECORDS = 2_000

PROFILES = {
    "spec_like": SPEC_LIKE,
    "graph_like": GRAPH_LIKE,
    "incompressible": INCOMPRESSIBLE,
    "all_zero": ALL_ZERO,
}
RENDER_VLINES = 1_024
RENDER_VERSIONS = (0, 1, 2, 3)
RENDER_SEED = 7
RENDER_SCRAMBLE = 0.35


def _digest_records(records: Iterator) -> Dict[str, object]:
    """Count and sha256 of a record stream, field by field."""
    h = hashlib.sha256()
    count = 0
    for r in records:
        data = None if r.write_data is None else r.write_data.render()
        h.update(repr((r.gap, r.is_write, r.vline, data)).encode())
        count += 1
    return {"count": count, "sha256": h.hexdigest()}


def _digest_reference(reference: Dict[int, bytes]) -> str:
    h = hashlib.sha256()
    for vline in sorted(reference):
        h.update(repr((vline, reference[vline])).encode())
    return h.hexdigest()


def _stream(generator, batched: bool, num_ops: int) -> Dict[str, object]:
    if batched:
        records = generator.generate_batched(num_ops, CHUNK, lambda chunk: None)
    else:
        records = generator.generate(num_ops)
    out = _digest_records(records)
    out["reference_sha256"] = _digest_reference(generator.reference)
    return out


def _synthetic(name: str, core: int, batched: bool) -> Dict[str, object]:
    # the per-core spec and generator exactly as a rate-mode simulation
    # builds them
    spec = get_workload(name)
    generator = spec.with_seed(spec.seed + core).make_generator(core)
    return _stream(generator, batched, RECORDS)


def _toy_trace() -> List[Tuple[bool, int]]:
    """A small record list with reuse and writes (as the trace tests build)."""
    records = []
    for i in range(256):
        if i % 3 == 2:
            records.append((True, 0x9000 + (i % 6)))
        else:
            records.append((False, 0x1000 + (i * 7) % 48))
    return records


@contextlib.contextmanager
def _temporary_trace_store():
    """A throwaway process-default trace store, restored afterwards."""
    previous = store_module._default_store
    with tempfile.TemporaryDirectory() as root:
        store = configure_trace_store(root)
        try:
            yield store
        finally:
            store_module._default_store = previous


def _replay(loop: bool, core: int, batched: bool) -> Dict[str, object]:
    with _temporary_trace_store() as store:
        info, _ = store.ingest_records(_toy_trace(), name="toy")
        spec = TraceWorkload(name="toy", trace_hash=info.hash, loop=loop)
        generator = spec.with_seed(spec.seed + core).make_generator(core)
        return _stream(generator, batched, REPLAY_RECORDS)


def _renders(profile_name: str) -> Dict[str, object]:
    data = DataGenerator(
        PROFILES[profile_name], seed=RENDER_SEED, write_scramble=RENDER_SCRAMBLE
    )
    h = hashlib.sha256()
    kinds: Dict[str, int] = {}
    count = 0
    for i in range(RENDER_VLINES):
        # spread over many pages so every family of the profile is drawn
        vline = (i * 0x9E37) % (1 << 22)
        for version in RENDER_VERSIONS:
            line = data.line(vline, version)
            h.update(line)
            kind = data.kind(vline, version).value
            kinds[kind] = kinds.get(kind, 0) + 1
            count += 1
    return {"count": count, "sha256": h.hexdigest(), "kinds": kinds}


#: case name -> payload factory
CASES: Dict[str, Callable[[], Dict[str, object]]] = {
    **{
        f"records/{name}/core{core}/{path}": (
            lambda name=name, core=core, batched=path == "batched": _synthetic(
                name, core, batched
            )
        )
        for name in SPECS
        for core in CORES
        for path in ("scalar", "batched")
    },
    **{
        f"replay/{'loop' if loop else 'once'}/core{core}/{path}": (
            lambda loop=loop, core=core, batched=path == "batched": _replay(
                loop, core, batched
            )
        )
        for loop in (True, False)
        for core in CORES
        for path in ("scalar", "batched")
    },
    **{f"lines/{name}": (lambda name=name: _renders(name)) for name in PROFILES},
}


def run_case(name: str) -> Dict[str, object]:
    return CASES[name]()


def main() -> None:
    payload = {name: run_case(name) for name in CASES}
    FIXTURE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE.name} ({len(payload)} cases)")


if __name__ == "__main__":
    main()
