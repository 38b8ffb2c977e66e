"""The filter table compiles a deployment once.

:class:`~repro.tenancy.table.FilterTable` is the one compile site:
every tenant's filter compiles once per process, in the run's filter
mode, and each table's active set gets one burst classifier, built at
the first burst the table classifies — so a parallel run's feeder,
which classifies nothing, builds none. Counted by wrapping
``compile_filter`` and ``SharedFilter.__init__``.
"""

import pickle

import pytest

import repro.core.subscription as subscription_mod
import repro.filter as filter_mod
from repro import RuntimeConfig
from repro.core.pipeline import Lane
from repro.packet.columnar import decode_mbufs
from repro.tenancy import ReconfigureEvent, TenantRuntime, TenantSpec
from repro.tenancy.shared import SharedFilter
from repro.traffic import CampusTrafficGenerator

#: ``benchmarks/perf``'s eight tenants (the ``tenants8`` workload).
TENANTS = (
    ("web", "tcp.dst_port = 443", "connection"),
    ("http", "tcp.dst_port = 80", "connection"),
    ("alt", "tcp.dst_port = 8080", "packet"),
    ("ssh", "tcp.dst_port = 22", "packet"),
    ("dns", "udp.dst_port = 53", "packet"),
    ("ntp", "udp.dst_port = 123", "packet"),
    ("rweb", "tcp.src_port = 443", "packet"),
    ("udp_all", "udp", "packet"),
)


@pytest.fixture(scope="module")
def traffic():
    return list(CampusTrafficGenerator(seed=21).packets(
        duration=0.2, gbps=0.1))


@pytest.fixture
def counts(monkeypatch):
    """This process's ``compile_filter`` calls and ``SharedFilter``
    constructions."""
    seen = {"compile_filter": 0, "SharedFilter": 0}
    compile_filter = filter_mod.compile_filter
    init = SharedFilter.__init__

    def counting_compile(*args, **kwargs):
        seen["compile_filter"] += 1
        return compile_filter(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        seen["SharedFilter"] += 1
        init(self, *args, **kwargs)

    for mod in (filter_mod, subscription_mod):
        monkeypatch.setattr(mod, "compile_filter", counting_compile)
    monkeypatch.setattr(SharedFilter, "__init__", counting_init)
    return seen


def _runtime(traffic, swap=False, **config):
    """The eight tenants on four cores; with ``swap``, ``udp_all``
    drops a third of the way in and comes back two thirds in, so the
    run classifies under three tables."""
    events = []
    if swap:
        third = len(traffic) // 3
        events = [ReconfigureEvent(traffic[third].timestamp, "drop",
                                   "udp_all"),
                  ReconfigureEvent(traffic[2 * third].timestamp, "add",
                                   "udp_all")]
    return TenantRuntime(
        RuntimeConfig(cores=4, **config),
        [TenantSpec(name, flt, datatype)
         for name, flt, datatype in TENANTS], events=events)


def _reset(traffic):
    for mbuf in traffic:
        mbuf.stack = None
        mbuf.queue = None
    return iter(traffic)


def test_building_compiles_each_tenant_once(traffic, counts):
    _runtime(traffic)
    assert counts == {"compile_filter": 8, "SharedFilter": 0}


def test_one_classifier_per_table_that_classified(traffic, counts):
    runtime = _runtime(traffic, swap=True)
    runtime.run(_reset(traffic))
    assert runtime.table.epoch == 2
    assert counts == {"compile_filter": 8, "SharedFilter": 3}


def test_parallel_feeder_builds_no_classifier(traffic, counts):
    runtime = _runtime(traffic, swap=True, parallel=True)
    report = runtime.run(_reset(traffic))
    assert report.stats.callbacks > 0
    assert counts == {"compile_filter": 8, "SharedFilter": 0}


@pytest.mark.parametrize("parallel, lanes", [(True, 0), (False, 32)])
def test_parallel_feeder_builds_no_lanes(traffic, monkeypatch, parallel,
                                         lanes):
    """A parallel run's workers build their own pipelines; the
    feeder's would never see a row, so it builds none (the eight
    tenants on four cores are 32 lanes)."""
    built = []
    init = Lane.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Lane, "__init__", counting_init)
    runtime = _runtime(traffic, parallel=parallel)
    assert len(built) == lanes
    report = runtime.run(_reset(traffic))
    assert report.stats.callbacks > 0
    assert len(built) == lanes


def test_every_lane_compiles_in_the_run_mode(traffic, counts):
    runtime = _runtime(traffic, swap=True, filter_mode="interp")

    def modes():
        return {lane.sub.filter.mode for pipeline in runtime.pipelines
                for lane in pipeline._all}

    assert modes() == {"interp"}
    runtime.run(_reset(traffic))
    assert runtime.table.epoch == 2
    assert modes() == {"interp"}
    assert counts["compile_filter"] == 8


def test_a_compiled_and_classified_table_pickles(traffic):
    runtime = _runtime(traffic, filter_mode="interp")
    runtime.run(_reset(traffic))
    table = runtime.table
    assert table._classify is not None
    clone = pickle.loads(pickle.dumps(table))
    assert (clone.epoch, clone.active, clone.specs,
            clone.filter_mode) == (table.epoch, table.active,
                                   table.specs, "interp")
    assert clone.compiled("web")[1].filter.mode == "interp"
    cols = decode_mbufs(traffic[:256])
    assert clone.classify(cols) == table.classify(cols)
