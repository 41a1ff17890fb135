"""The one checker of declared dataclass fields (``repro.util.schema``).

Every field of every checked class (``SimConfig``, its six sections,
``TraceWorkload`` and the daemon's request bodies) rejects a value of
another type; the cases are generated from ``dataclasses.fields``, so a
field added later is covered without being listed here.
"""

import dataclasses
import re
import typing
from typing import Annotated, Optional, Tuple

import pytest

import repro.traces.replay  # noqa: F401 -- declares TraceWorkload
from repro.core.ptmc import PTMCConfig
from repro.dram.timing import DDRTiming
from repro.service.daemon import Claim, JobRequest
from repro.sim.config import SimConfig
from repro.util import schema
from repro.util.schema import Checked, Rule, check_field, load


def checked_classes():
    """Every dataclass of the package that derives from :class:`Checked`."""
    found, todo = [], list(Checked.__subclasses__())
    while todo:
        cls = todo.pop(0)
        todo.extend(cls.__subclasses__())
        if cls.__module__.startswith("repro."):
            found.append(cls)
    return found


#: a valid value of each field that has no default
REQUIRED = {
    "name": "trace:toy",
    "trace_hash": "0" * 64,
    "workload": "lbm06",
    "design": "ideal",
    "worker_id": "w1",
    "code": "c0de",
    "result": {},
}

#: one value of each JSON-ish type: a str for a number, a bool for an
#: int, an int for a bool, a float for an int, and so on
VALUES = ["1", True, 1, 2.5, None, ("fpc",), ["fpc"], {"a": 1}]


def instance(cls):
    return cls(**{
        f.name: REQUIRED[f.name]
        for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    })


def admitted(hint) -> set:
    """The types a value of declared type ``hint`` may have."""
    if typing.get_origin(hint) is typing.Union:
        return set().union(*(admitted(arg) for arg in typing.get_args(hint)))
    kind = typing.get_origin(hint) or hint
    return {int, float} if kind is float else {kind}


FIELDS = [(cls, f.name) for cls in checked_classes() for f in dataclasses.fields(cls)]


def test_the_checked_classes_are_found():
    names = {cls.__name__ for cls in checked_classes()}
    assert {
        "SimConfig", "SamplingConfig", "HierarchyConfig", "DDRTiming", "DRAMGeometry",
        "MetadataTableConfig", "PTMCConfig", "TraceWorkload", "JobRequest", "Claim",
    } <= names
    assert len(FIELDS) >= 61


@pytest.mark.parametrize(
    "cls, name", FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name in FIELDS]
)
def test_every_field_rejects_a_value_of_another_type(cls, name):
    base = instance(cls)  # every default and REQUIRED value passes
    kinds = admitted(typing.get_type_hints(cls)[name])
    wrong = [value for value in VALUES if type(value) not in kinds]
    assert wrong
    for value in wrong:
        message = rf"^{name} must be .*, not {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(base, **{name: value})


class TestRules:
    def test_an_int_stands_for_a_float_but_not_the_reverse(self):
        assert DDRTiming(cpu_ghz=3).cpu_ghz == 3
        with pytest.raises(ValueError, match=r"^ops_per_core must be an int >= 1, not 3\.0$"):
            SimConfig(ops_per_core=3.0)

    def test_a_range_is_checked_after_the_type(self):
        with pytest.raises(ValueError, match=r"^warmup_ops must be an int >= 0, not -1$"):
            SimConfig(warmup_ops=-1)
        assert SimConfig(warmup_ops=0).warmup_ops == 0

    def test_a_tuple_checks_its_length_and_each_item(self):
        for stack in ((), ("fpc", 1), ("fpc", "lz4")):
            with pytest.raises(ValueError, match=r"^compression must be a tuple of str "
                                                 r"of length >= 1 from \['bdi'"):
                SimConfig(compression=stack)
        assert SimConfig(compression=("bdi",)).compression == ("bdi",)

    def test_an_optional_field_admits_none_and_no_rule_binds_it(self):
        request = JobRequest(workload="lbm06", design="ideal", timeout=None)
        assert request.timeout is None
        with pytest.raises(ValueError, match=r"^timeout must be a number >= 0 and < 2\*\*63, "
                                             r"or None, not -1$"):
            JobRequest(workload="lbm06", design="ideal", timeout=-1)

    @pytest.mark.parametrize("lease", [0, -1.5, float("inf"), float("nan"), 2**63, True, "30"])
    def test_a_lease_is_a_finite_number_over_zero(self, lease):
        with pytest.raises(ValueError, match=r"^lease_seconds must be a number > 0 and < 2\*\*63"):
            Claim(worker_id="w1", code="c0de", lease_seconds=lease)
        assert Claim(worker_id="w1", code="c0de", lease_seconds=1).lease_seconds == 1

    def test_a_rule_beside_a_section_field_is_kept(self):
        with pytest.raises(ValueError, match=r"^marker_size must be an int >= 4, not 3$"):
            PTMCConfig(marker_size=3)

    def test_check_field_checks_one_value_as_the_class_would(self):
        check_field(Claim, "lease_seconds", 30.0)
        check_field(Claim, "lease_seconds", None)
        with pytest.raises(ValueError, match="^lease_seconds must be"):
            check_field(Claim, "lease_seconds", float("inf"))
        with pytest.raises(KeyError, match="lease"):
            check_field(Claim, "lease", 30.0)


class TestLoad:
    def test_loads_a_json_object(self):
        request = load(JobRequest, {"workload": "lbm06", "design": "ideal", "priority": 2})
        assert request == JobRequest(workload="lbm06", design="ideal", priority=2)

    def test_an_undeclared_key_is_an_error(self):
        with pytest.raises(ValueError, match=r"undeclared fields \['timout'\]; declared: "
                                             r"\['config', 'design', .*'timeout'"):
            load(JobRequest, {"workload": "lbm06", "design": "ideal", "timout": 5})

    def test_a_missing_required_field_is_an_error(self):
        with pytest.raises(ValueError, match=r"missing required fields \['design'\]"):
            load(JobRequest, {"workload": "lbm06"})

    @pytest.mark.parametrize("body", [[], "lbm06", 7, None])
    def test_a_body_that_is_no_object_is_an_error(self, body):
        with pytest.raises(ValueError, match="expected a JSON object"):
            load(JobRequest, body)


def test_annotations_are_resolved_once_per_class(monkeypatch):
    calls = []
    resolve = typing.get_type_hints

    def counted(cls, **kwargs):
        calls.append(cls)
        return resolve(cls, **kwargs)

    monkeypatch.setattr(schema.typing, "get_type_hints", counted)

    @dataclasses.dataclass(frozen=True)
    class Probe(Checked):
        count: Annotated[int, Rule(least=0)] = 0
        names: Tuple[str, ...] = ()
        note: Optional[str] = None

    for count in range(3):
        Probe(count=count)
    assert calls == [Probe]
    with pytest.raises(ValueError, match=r"^names must be a tuple of str, not \('a', 1\)$"):
        Probe(names=("a", 1))
