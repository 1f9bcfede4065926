"""Unit tests for counters and structured tracing."""

from repro.sim import Simulator, TraceRecord, Tracer


def make_tracer():
    """A tracer plus the list its records land in (the tracer keeps none)."""
    sim = Simulator()
    tr = Tracer(lambda: sim.now)
    records = []
    tr.add_listener(records.append)
    return sim, tr, records


class TestCounters:
    def test_count_accumulates(self):
        _sim, tr, _records = make_tracer()
        tr.count("mac.tx")
        tr.count("mac.tx")
        tr.count("mac.tx", 3)
        assert tr.registry.value("mac.tx") == 5

    def test_unknown_counter_is_zero(self):
        _sim, tr, _records = make_tracer()
        assert tr.registry.value("never") == 0

    def test_counters_are_independent(self):
        _sim, tr, _records = make_tracer()
        tr.count("a")
        tr.count("b", 2)
        assert tr.registry.value("a") == 1
        assert tr.registry.value("b") == 2


class TestRecords:
    def test_disabled_category_not_recorded(self):
        _sim, tr, records = make_tracer()
        tr.record("phy.tx", node=1)
        assert records == []

    def test_enabled_category_recorded_with_time(self):
        sim, tr, records = make_tracer()
        tr.enable("phy.tx")
        sim.schedule(2.0, lambda: tr.record("phy.tx", node=1))
        sim.run()
        assert len(records) == 1
        assert records[0].category == "phy.tx"
        assert records[0].time == 2.0
        assert records[0].get("node") == 1

    def test_wildcard_enables_everything(self):
        _sim, tr, records = make_tracer()
        tr.enable("*")
        tr.record("anything", x=1)
        tr.record("else", y=2)
        assert len(records) == 2

    def test_filter_by_category(self):
        _sim, tr, records = make_tracer()
        tr.enable("data.gen", "data.rx")
        tr.record("data.gen", n=1)
        tr.record("data.rx", n=2)
        tr.record("data.tx", n=3)  # not enabled
        assert [r.category for r in records] == ["data.gen", "data.rx"]

    def test_listener_invoked(self):
        _sim, tr, _records = make_tracer()
        tr.enable("phy.rx")
        seen = []
        tr.add_listener(seen.append)
        tr.record("phy.rx", k=1)
        assert len(seen) == 1
        assert isinstance(seen[0], TraceRecord)

    def test_listener_not_invoked_for_disabled(self):
        _sim, tr, _records = make_tracer()
        seen = []
        tr.add_listener(seen.append)
        tr.record("phy.rx", k=1)
        assert seen == []

    def test_record_get_default(self):
        rec = TraceRecord(0.0, "c", (("a", 1),))
        assert rec.get("missing", "dflt") == "dflt"
        assert rec.as_dict() == {"a": 1}


class TestRegistryBacking:
    """tracer.count() is a shim over the typed metrics registry."""

    def test_counts_land_in_registry(self):
        _sim, tr, _records = make_tracer()
        tr.count("mac.tx", 3)
        assert tr.registry.value("mac.tx") == 3

    def test_registry_counters_visible_through_value(self):
        _sim, tr, _records = make_tracer()
        tr.registry.counter("direct").inc(7)
        assert tr.registry.value("direct") == 7

    def test_counters_snapshot_includes_labelled_series(self):
        _sim, tr, _records = make_tracer()
        tr.count("mac.tx")
        tr.registry.counter("mac.tx", node="5").inc(2)
        assert tr.counters["mac.tx"] == 1
        assert tr.counters["mac.tx{node=5}"] == 2

    def test_shared_registry_can_be_injected(self):
        from repro.obs import MetricsRegistry

        sim = Simulator()
        reg = MetricsRegistry()
        tr = Tracer(lambda: sim.now, registry=reg)
        tr.count("a")
        assert reg.value("a") == 1
        assert tr.registry is reg


class TestRecordBounds:
    """A disabled category costs its call site one set lookup in wants()."""

    def test_wants_mirrors_enablement(self):
        # Hot paths (phy.tx/phy.rx) skip building record payloads when
        # nobody is listening; wants() must track enable() exactly.
        _sim, tracer, _records = make_tracer()
        assert not tracer.wants("phy.tx")
        tracer.enable("phy.tx")
        assert tracer.wants("phy.tx")
        assert not tracer.wants("phy.rx")
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

    def test_wildcard_always_allowed(self):
        sim = Simulator()
        tr = Tracer(lambda: sim.now)
        tr.enable("*")
        assert tr.wants("anything.at.all")
