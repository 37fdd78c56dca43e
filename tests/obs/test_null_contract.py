"""Contract tests: a disabled tracer/registry/logger records nothing.

The null singletons are the real classes built with ``enabled=False``.
Instead of auditing overrides, a table holds one sample call per public
method of `Tracer`, `MetricRegistry` and `RunLog`; each call is applied
to the singleton, which must still be empty afterwards.  A public method
missing from the table fails the audit, so a method added later has to
show that it leaves a disabled instrument empty.
"""

import inspect

import pytest

from repro import obs
from repro.cache import NULL_CACHE, get_cache
from repro.obs.tracer import HOST_TRACK


def public_methods(cls) -> set[str]:
    return {
        name
        for name, member in inspect.getmembers(
            cls, predicate=inspect.isfunction
        )
        if not name.startswith("_")
    }


def state(instrument) -> dict:
    """Everything an instrument holds, except its creation clock."""
    return {k: v for k, v in vars(instrument).items() if k != "_origin"}


def assert_empty(singleton, after: str = "") -> None:
    """*singleton* holds exactly what a fresh disabled instance holds."""
    fresh = type(singleton)(enabled=False)
    assert state(singleton) == state(fresh), f"state left by {after}"


def _span(tracer: obs.Tracer) -> None:
    with tracer.span("s", category="c", k=1) as record:
        record.attributes["x"] = 1  # yielded record is writable
        with tracer.span("inner"):
            pass


SPAN = {
    "name": "w",
    "category": "c",
    "track": "dev",
    "start_s": 0.0,
    "duration_s": 1.0,
}
METRIC = {"name": "c", "labels": {}, "type": "counter", "value": 1.0}
EVENT = {"seq": 0, "time_s": 0.0, "level": "info", "event": "x"}

#: One sample call per public method, per instrument class.
SAMPLE_CALLS = {
    obs.Tracer: {
        "now": lambda t: t.now(),
        "span": _span,
        "cursor": lambda t: t.cursor("dev"),
        "add_span": lambda t: t.add_span("a", 1.0, "dev", category="x"),
        "counter": lambda t: t.counter("c", {"v": 1.0}),
        "current_span": lambda t: t.current_span(),
        "snapshot": lambda t: t.snapshot(),
        "merge_snapshot": lambda t: t.merge_snapshot(
            {"spans": [SPAN], "counters": []}, prefix="cell0"
        ),
        "tracks": lambda t: t.tracks(),
        "spans_on": lambda t: t.spans_on("dev"),
    },
    obs.MetricRegistry: {
        "counter": lambda r: r.counter("c", k=1).inc(3),
        "gauge": lambda r: r.gauge("g").set(2.0),
        "histogram": lambda r: r.histogram("h").observe_many([1.0, 2.0]),
        "snapshot": lambda r: r.snapshot(),
        "merge_snapshot": lambda r: r.merge_snapshot([METRIC]),
    },
    obs.RunLog: {
        "now": lambda log: log.now(),
        "log": lambda log: log.log("e", "m", level="error", k=1),
        "info": lambda log: log.info("e"),
        "warning": lambda log: log.warning("e"),
        "error": lambda log: log.error("e", oops=True),
        "snapshot": lambda log: log.snapshot(),
        "merge_snapshot": lambda log: log.merge_snapshot([EVENT], worker=1),
        "by_event": lambda log: log.by_event(),
        "by_level": lambda log: log.by_level(),
    },
}

SINGLETONS = {
    obs.Tracer: obs.NULL_TRACER,
    obs.MetricRegistry: obs.NULL_REGISTRY,
    obs.RunLog: obs.NULL_LOG,
}


@pytest.mark.parametrize("cls", list(SAMPLE_CALLS), ids=lambda c: c.__name__)
class TestBehaviouralAudit:
    def test_every_public_method_sampled(self, cls):
        assert set(SAMPLE_CALLS[cls]) == public_methods(cls), (
            f"add a sample call for every public {cls.__name__} method "
            "(and none for a method it lacks)"
        )

    def test_samples_leave_singleton_empty(self, cls):
        singleton = SINGLETONS[cls]
        assert type(singleton) is cls and not singleton.enabled
        for name, call in SAMPLE_CALLS[cls].items():
            call(singleton)
            assert_empty(singleton, after=f"{cls.__name__}.{name}")


class TestDisabledTracer:
    def test_all_calls_are_noops(self):
        tracer = obs.NULL_TRACER
        with tracer.span("s", category="c", k=1) as record:
            record.attributes["x"] = 1  # yielded record is writable
        tracer.add_span("a", 1.0, "dev", category="x")
        tracer.counter("c", {"v": 1.0})
        assert tracer.spans == []
        assert tracer.counters == []
        assert tracer.now() == 0.0
        assert tracer.cursor("dev") == 0.0
        assert tracer.current_span() is None
        assert tracer.snapshot() == {"spans": [], "counters": []}
        assert tracer.tracks() == [HOST_TRACK]
        assert tracer.spans_on("dev") == []
        assert not tracer.enabled

    def test_singleton_state_never_leaks(self):
        with obs.NULL_TRACER.span("s"):
            obs.NULL_TRACER.add_span("a", 1.0, "dev")
        assert obs.NULL_TRACER.spans == []
        assert obs.NULL_TRACER._cursors == {}
        assert obs.NULL_TRACER._host_stack == []


class TestDisabledRegistry:
    def test_all_calls_are_noops(self):
        registry = obs.NULL_REGISTRY
        registry.counter("c", k=1).inc(3)
        registry.gauge("g").set(2.0)
        registry.histogram("h").observe(1.5)
        registry.merge_snapshot([METRIC])
        assert registry.snapshot() == []
        assert not registry.enabled

    def test_null_instruments_accept_all_instrument_calls(self):
        # Every public mutator of every real instrument must exist on
        # the shared null instrument, so call sites are type-blind.
        null = obs.NULL_REGISTRY
        for cls, getter in (
            (obs.Counter, lambda: null.counter("x")),
            (obs.Gauge, lambda: null.gauge("x")),
            (obs.Histogram, lambda: null.histogram("x")),
        ):
            instrument = getter()
            for name in public_methods(cls):
                if name == "snapshot_value":
                    continue  # registry-side, never called by users
                assert hasattr(instrument, name), (
                    f"{cls.__name__}.{name} missing on the null "
                    "instrument"
                )

    def test_state_never_leaks(self):
        obs.NULL_REGISTRY.counter("x", k=1).inc(5)
        obs.NULL_REGISTRY.histogram("h").observe(1.0)
        assert obs.NULL_REGISTRY.snapshot() == []
        assert obs.NULL_REGISTRY._metrics == {}


class TestDisabledLogger:
    def test_all_calls_are_noops(self):
        log = obs.NULL_LOG
        assert log.log("e", "m", level="error", k=1) is None
        assert log.info("e") is None
        assert log.warning("e") is None
        assert log.error("e") is None
        assert log.events == []
        assert log.dropped == 0
        assert log.now() == 0.0
        assert log.snapshot() == []
        assert log.by_event() == {}
        assert log.by_level() == {}
        assert not log.enabled

    def test_singleton_state_never_leaks(self):
        obs.NULL_LOG.error("boom", oops=True)
        obs.NULL_LOG.merge_snapshot([EVENT], worker=1)
        assert obs.NULL_LOG.events == []
        assert obs.NULL_LOG.dropped == 0


def _instrumented_worker(config, seed_seq):
    """Records on every ambient instrument and compiles through the cache."""
    from repro.ipu.compiler import cached_compile
    from repro.ipu.machine import GC200
    from repro.ipu.poplin import build_matmul_graph, matmul_provenance

    with obs.get_tracer().span("cell", config=config):
        obs.get_registry().counter("test.cells").inc()
        obs.get_logger().info("test.cell", config=config)
        compiled = cached_compile(
            matmul_provenance(config, config, config),
            lambda: build_matmul_graph(GC200, config, config, config)[0],
            GC200,
            check_fit=False,
        )
    return compiled.memory.total_bytes


class TestUntracedRunsLeaveSingletonsEmpty:
    def test_grid_at_jobs_2_and_fig6_render(self):
        from repro.bench.parallel import run_grid
        from repro.experiments import fig6

        singletons = (obs.NULL_TRACER, obs.NULL_REGISTRY, obs.NULL_LOG, NULL_CACHE)
        installed = (
            obs.get_tracer(), obs.get_registry(), obs.get_logger(), get_cache()
        )
        assert installed == singletons
        assert len(run_grid(_instrumented_worker, [16, 32], jobs=2)) == 2
        assert fig6.render(sizes=[128])
        for singleton in singletons:
            assert_empty(singleton, after="an untraced grid and render")
