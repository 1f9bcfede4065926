"""Unit tests for counters and structured tracing."""

from repro.sim import Simulator, TraceRecord, Tracer


def make_tracer():
    sim = Simulator()
    tr = Tracer(lambda: sim.now)
    # ad-hoc categories used throughout these tests; enable() validates
    # against the central table plus tracer-local registrations
    tr.register_category("a", "b", "x", "cat", "mac.tx")
    return sim, tr


class TestCounters:
    def test_count_accumulates(self):
        _sim, tr = make_tracer()
        tr.count("mac.tx")
        tr.count("mac.tx")
        tr.count("mac.tx", 3)
        assert tr.registry.value("mac.tx") == 5

    def test_unknown_counter_is_zero(self):
        _sim, tr = make_tracer()
        assert tr.registry.value("never") == 0

    def test_counters_are_independent(self):
        _sim, tr = make_tracer()
        tr.count("a")
        tr.count("b", 2)
        assert tr.registry.value("a") == 1
        assert tr.registry.value("b") == 2


class TestRecords:
    def test_disabled_category_not_recorded(self):
        _sim, tr = make_tracer()
        tr.record("mac.tx", node=1)
        assert tr.records() == []

    def test_enabled_category_recorded_with_time(self):
        sim, tr = make_tracer()
        tr.enable("mac.tx")
        sim.schedule(2.0, lambda: tr.record("mac.tx", node=1))
        sim.run()
        recs = tr.records("mac.tx")
        assert len(recs) == 1
        assert recs[0].time == 2.0
        assert recs[0].get("node") == 1

    def test_wildcard_enables_everything(self):
        _sim, tr = make_tracer()
        tr.enable("*")
        tr.record("anything", x=1)
        tr.record("else", y=2)
        assert len(tr.records()) == 2

    def test_disable(self):
        _sim, tr = make_tracer()
        tr.enable("cat")
        tr.record("cat", n=1)
        tr.disable("cat")
        tr.record("cat", n=2)
        assert len(tr.records("cat")) == 1

    def test_filter_by_category(self):
        _sim, tr = make_tracer()
        tr.enable("a", "b")
        tr.record("a", n=1)
        tr.record("b", n=2)
        assert len(tr.records("a")) == 1
        assert len(tr.records()) == 2

    def test_listener_invoked(self):
        _sim, tr = make_tracer()
        tr.enable("x")
        seen = []
        tr.add_listener(seen.append)
        tr.record("x", k=1)
        assert len(seen) == 1
        assert isinstance(seen[0], TraceRecord)

    def test_listener_not_invoked_for_disabled(self):
        _sim, tr = make_tracer()
        seen = []
        tr.add_listener(seen.append)
        tr.record("x", k=1)
        assert seen == []

    def test_categories_listing(self):
        _sim, tr = make_tracer()
        tr.enable("*")
        tr.record("b")
        tr.record("a")
        tr.record("b")
        assert list(tr.categories()) == ["a", "b"]

    def test_clear_records(self):
        _sim, tr = make_tracer()
        tr.enable("x")
        tr.record("x")
        tr.clear_records()
        assert tr.records() == []

    def test_record_get_default(self):
        rec = TraceRecord(0.0, "c", (("a", 1),))
        assert rec.get("missing", "dflt") == "dflt"
        assert rec.as_dict() == {"a": 1}

    def test_remove_listener(self):
        _sim, tr = make_tracer()
        tr.enable("x")
        seen = []
        tr.add_listener(seen.append)
        tr.record("x", k=1)
        tr.remove_listener(seen.append)
        tr.record("x", k=2)
        assert len(seen) == 1


class TestRegistryBacking:
    """tracer.count() is a shim over the typed metrics registry."""

    def test_counts_land_in_registry(self):
        _sim, tr = make_tracer()
        tr.count("mac.tx", 3)
        assert tr.registry.value("mac.tx") == 3

    def test_registry_counters_visible_through_value(self):
        _sim, tr = make_tracer()
        tr.registry.counter("direct").inc(7)
        assert tr.registry.value("direct") == 7

    def test_counters_snapshot_includes_labelled_series(self):
        _sim, tr = make_tracer()
        tr.count("mac.tx")
        tr.registry.counter("mac.tx", node="5").inc(2)
        assert tr.counters["mac.tx"] == 1
        assert tr.counters["mac.tx{node=5}"] == 2

    def test_shared_registry_can_be_injected(self):
        from repro.obs import MetricsRegistry

        sim = Simulator()
        reg = MetricsRegistry(detailed=True)
        tr = Tracer(lambda: sim.now, registry=reg)
        tr.count("a")
        assert reg.value("a") == 1
        assert tr.registry.detailed


class TestRecordBounds:
    def test_default_bound_is_finite(self):
        from repro.sim import DEFAULT_MAX_RECORDS

        _sim, tr = make_tracer()
        assert tr.max_records == DEFAULT_MAX_RECORDS

    def test_bounded_store_drops_and_counts(self):
        sim = Simulator()
        tr = Tracer(lambda: sim.now, max_records=2)
        tr.register_category("x")
        tr.enable("x")
        for i in range(5):
            tr.record("x", i=i)
        assert len(tr.records()) == 2
        assert tr.records_dropped == 3
        assert tr.registry.value("trace.records_dropped") == 3

    def test_streaming_mode_stores_nothing_but_feeds_listeners(self):
        sim = Simulator()
        tr = Tracer(lambda: sim.now, max_records=0)
        tr.register_category("x")
        tr.enable("x")
        seen = []
        tr.add_listener(seen.append)
        for i in range(4):
            tr.record("x", i=i)
        assert tr.records() == []
        assert len(seen) == 4
        # pure streaming is expected behaviour, not an overflow signal
        assert tr.registry.value("trace.records_dropped") == 0

    def test_unbounded_when_explicitly_none(self):
        sim = Simulator()
        tr = Tracer(lambda: sim.now, max_records=None)
        tr.register_category("x")
        tr.enable("x")
        for i in range(10):
            tr.record("x", i=i)
        assert len(tr.records()) == 10
        assert tr.records_dropped == 0

    def test_wants_mirrors_enablement(self):
        # Hot paths (phy.tx/phy.rx) skip building record payloads when
        # nobody is listening; wants() must track enable/disable exactly.
        _sim, tracer = make_tracer()
        assert not tracer.wants("phy.tx")
        tracer.enable("phy.tx")
        assert tracer.wants("phy.tx")
        assert not tracer.wants("phy.rx")
        tracer.disable("phy.tx")
        assert not tracer.wants("phy.tx")
        tracer.enable("*")
        assert tracer.wants("phy.rx")
        assert tracer.wants("anything.at.all")


class TestCategoryValidation:
    """enable() rejects names absent from the central table (typo guard)."""

    def test_typo_raises(self):
        import pytest

        sim = Simulator()
        tr = Tracer(lambda: sim.now)
        with pytest.raises(ValueError, match="phy.txx"):
            tr.enable("phy.txx")

    def test_typo_does_not_partially_enable(self):
        import pytest

        sim = Simulator()
        tr = Tracer(lambda: sim.now)
        with pytest.raises(ValueError):
            tr.enable("phy.tx", "nonsense")
        assert not tr.wants("phy.tx")

    def test_central_categories_accepted(self):
        from repro.obs import TRACE_CATEGORIES

        sim = Simulator()
        tr = Tracer(lambda: sim.now)
        tr.enable(*TRACE_CATEGORIES)
        for cat in TRACE_CATEGORIES:
            assert tr.wants(cat)

    def test_register_category_is_tracer_local(self):
        import pytest

        sim = Simulator()
        tr1 = Tracer(lambda: sim.now)
        tr2 = Tracer(lambda: sim.now)
        tr1.register_category("custom.thing")
        tr1.enable("custom.thing")
        with pytest.raises(ValueError):
            tr2.enable("custom.thing")

    def test_known_categories_union(self):
        from repro.obs import TRACE_CATEGORIES

        sim = Simulator()
        tr = Tracer(lambda: sim.now)
        tr.register_category("local.cat")
        known = tr.known_categories()
        assert "local.cat" in known
        assert set(TRACE_CATEGORIES) <= known

    def test_wildcard_always_allowed(self):
        sim = Simulator()
        tr = Tracer(lambda: sim.now)
        tr.enable("*")
        assert tr.wants("anything.at.all")
