"""One store per workload: first-touch lines, compression memos, trace records.

Every run of a workload in one process shares its
:class:`~repro.workloads.data.WorkloadData` through the runner, found by
the workload's content; a lone ``SimulatedSystem`` builds a private one.
Sharing may only skip work: a fresh store, a warm one and one found
through a pickled copy of the workload give identical results, for all
seven designs.  The runner's stores are bounded in total entries.
"""

import dataclasses
import pickle
from collections import OrderedDict

import pytest

from repro.sim import runner
from repro.sim.config import quick_config
from repro.sim.system import DESIGNS, SimulatedSystem
from repro.workloads import SPEC_LIKE, DataGenerator, get_workload
from repro.workloads.data import WorkloadData

CFG = quick_config(ops_per_core=300, warmup_ops=100)


@pytest.fixture(autouse=True)
def _fresh_stores(monkeypatch):
    """No disk cache, and this test's own runner stores."""
    runner.configure_disk_cache(enabled=False)
    monkeypatch.setattr(runner, "_workload_data", OrderedDict())
    yield
    runner.configure_disk_cache(enabled=False)


class TestFirstTouchMemo:
    def test_version_zero_renders_once(self):
        data = DataGenerator(SPEC_LIKE, seed=3)
        kinds = []
        kind = data.kind

        def counted(vline, version=0):
            kinds.append(version)  # one family lookup per render
            return kind(vline, version)

        data.kind = counted
        first = data.line(70)
        assert data.line(70) is first
        assert kinds == [0]
        assert data.first_touch_lines() == 1

    def test_stored_versions_are_not_kept(self):
        data = DataGenerator(SPEC_LIKE, seed=3, write_scramble=0.5)
        for version in (1, 2, 3):
            assert data.line(70, version) == data.line(70, version)
        assert data.first_touch_lines() == 0

    def test_memo_serves_what_a_fresh_generator_renders(self):
        warm = DataGenerator(SPEC_LIKE, seed=9)
        lines = [warm.line(vline) for vline in range(0, 4096, 7)]
        again = [warm.line(vline) for vline in range(0, 4096, 7)]
        fresh = DataGenerator(SPEC_LIKE, seed=9)
        assert lines == again == [fresh.line(vline) for vline in range(0, 4096, 7)]


class TestWorkloadData:
    def test_a_core_gets_one_generator_keyed_on_its_parameters(self):
        data = WorkloadData()
        spec = get_workload("lbm06")
        assert data.data_generator(spec, 0) is data.data_generator(spec, 0)
        assert data.data_generator(spec, 1) is not data.data_generator(spec, 0)
        # another name, the same data: one generator
        renamed = dataclasses.replace(spec, name="other")
        assert data.data_generator(renamed, 0) is data.data_generator(spec, 0)
        # other data: never another workload's generator
        reseeded = spec.with_seed(spec.seed + 5)
        assert data.data_generator(reseeded, 0) is not data.data_generator(spec, 0)

    def test_one_memo_pair_per_stack(self):
        data = WorkloadData()
        assert data.compression_memos(("fpc", "bdi")) is data.compression_memos(("fpc", "bdi"))
        assert data.compression_memos(("bdi",)) is not data.compression_memos(("fpc", "bdi"))

    def test_trace_records_load_once_per_store_and_hash(self, tmp_path):
        class Store:
            root = tmp_path
            loads = 0

            def load_records(self, trace_hash):
                Store.loads += 1
                return [(False, 1), (True, 2)]

        data = WorkloadData()
        records = data.trace_records(Store(), "ab" * 32)
        assert data.trace_records(Store(), "ab" * 32) is records
        assert Store.loads == 1
        data.trace_records(Store(), "cd" * 32)
        assert Store.loads == 2

    def test_entries_count_lines_payloads_sizes_and_records(self, tmp_path):
        data = WorkloadData()
        generator = data.data_generator(get_workload("lbm06"), 0)
        generator.line(1)
        generator.line(2)
        generator.line(2, 1)  # a stored version: not kept
        payloads, sizes = data.compression_memos(("fpc",))
        payloads[b"a"] = None
        sizes[b"a"] = 64
        sizes[b"b"] = 10

        class Store:
            root = tmp_path

            def load_records(self, trace_hash):
                return [(False, 1)] * 4

        data.trace_records(Store(), "ef" * 32)
        assert data.entries() == 2 + 3 + 4


class TestSharing:
    def test_a_lone_system_shares_nothing(self):
        workload = get_workload("lbm06")
        one = SimulatedSystem(workload, "ideal", CFG)
        two = SimulatedSystem(workload, "ideal", CFG)
        assert one.workload_data is not two.workload_data
        assert one.generators[0].data is not two.generators[0].data
        one.run()
        assert not runner._workload_data  # the runner's stores are untouched

    @pytest.mark.parametrize("design", DESIGNS)
    def test_fresh_warm_and_pickled_stores_give_identical_results(self, design):
        workload = get_workload("lbm06")
        fresh = SimulatedSystem(workload, design, CFG).run()
        # warm the shared store: the same workload, and another one
        runner.simulate(workload, "ideal", CFG)
        runner.simulate("mcf06", design, CFG)
        store = runner.workload_data(workload)
        assert store.entries() > 0
        warm = runner.simulate(workload, design, CFG)
        copy = pickle.loads(pickle.dumps(workload))
        assert copy is not workload
        assert runner.workload_data(copy) is store
        pickled = runner.simulate(copy, design, CFG)
        assert fresh.metrics == warm.metrics == pickled.metrics

    def test_run_length_and_seed_find_the_same_store(self):
        runner.simulate("lbm06", "ideal", CFG)
        runner.simulate("lbm06", "ideal", CFG.with_(ops_per_core=301, seed=4))
        assert len(runner._workload_data) == 1


class TestBound:
    WORKLOADS = ("lbm06", "mcf06", "milc06", "soplex06", "gcc06")

    def test_stores_beside_the_last_one_stay_within_the_bound(self, monkeypatch):
        monkeypatch.setattr(runner, "WORKLOAD_DATA_BOUND", 5_000)
        used = []
        for name in self.WORKLOADS * 2:
            runner.simulate(name, "ideal", CFG)
            store = runner.workload_data(get_workload(name))
            used.append(store)
            kept = list(runner._workload_data.values())
            assert kept[-1] is store  # the store just used is never dropped
            others = sum(data.entries() for data in kept[:-1])
            assert others <= runner.WORKLOAD_DATA_BOUND
            # least recently used first: what is kept is the latest used
            assert kept == used[-len(kept):]
            assert runner.workload_data_held() == (
                len(kept), others + store.entries()
            )
        assert len(kept) < len(self.WORKLOADS)  # the bound dropped some

    def test_a_store_over_the_bound_alone_is_kept(self, monkeypatch):
        monkeypatch.setattr(runner, "WORKLOAD_DATA_BOUND", 10)
        runner.simulate("lbm06", "ideal", CFG)
        runner.simulate("mcf06", "ideal", CFG)
        (store,) = runner._workload_data.values()
        assert store is runner.workload_data(get_workload("mcf06"))
        assert store.entries() > runner.WORKLOAD_DATA_BOUND
