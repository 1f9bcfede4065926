"""Timeline recorder unit tests: cadence, columnar storage, round trips,
derived statistics, rendering, and the export/diff integrations."""

import json
from array import array

import pytest

from repro.obs import (
    Timeline,
    diff_timelines,
    format_timeline,
    load_timeline,
    save_timeline,
    sparkline,
    write_chrome_trace,
)
from repro.sim import Simulator


def recorded(interval: float, duration: float) -> Timeline:
    """Drive one counting probe through a bare simulator."""
    sim = Simulator()
    tl = Timeline(interval)
    ticks = {"n": 0}
    tl.register("ticks", lambda: ticks["n"], "int")
    tl.register("t", lambda: sim.now, "float")
    tl.attach(sim, duration)
    sim.schedule(duration / 2, lambda: ticks.__setitem__("n", 7))
    sim.run(until=duration)
    tl.finalize(sim.now)
    return tl


class TestCadence:
    def test_partial_final_interval_gets_closing_sample(self):
        # duration 10, interval 3: ticks at 0,3,6,9 plus the finalize()
        # sample at exactly the horizon — the last partial interval is
        # never dropped.
        tl = recorded(3.0, 10.0)
        assert list(tl.times) == [0.0, 3.0, 6.0, 9.0, 10.0]

    def test_exact_division_does_not_double_sample_the_horizon(self):
        # duration 10, interval 5: the tick at t=5 must NOT reschedule to
        # t=10 (strict inequality) — finalize() owns the horizon sample.
        tl = recorded(5.0, 10.0)
        assert list(tl.times) == [0.0, 5.0, 10.0]

    def test_interval_longer_than_run(self):
        tl = recorded(50.0, 10.0)
        assert list(tl.times) == [0.0, 10.0]

    def test_finalize_is_idempotent(self):
        tl = recorded(5.0, 10.0)
        tl.finalize(10.0)
        tl.finalize(10.0)
        assert tl.n_samples == 3

    def test_attach_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError, match="interval"):
            Timeline(0.0).attach(Simulator(), 10.0)
        with pytest.raises(ValueError, match="interval"):
            Timeline(None).attach(Simulator(), 10.0)


class TestColumns:
    def test_columnar_typecodes(self):
        tl = recorded(5.0, 10.0)
        ints = tl._by_name["ticks"].values
        floats = tl._by_name["t"].values
        assert isinstance(ints, array) and ints.typecode == "q"
        assert isinstance(floats, array) and floats.typecode == "d"

    def test_probe_values_parallel_to_times(self):
        tl = recorded(3.0, 10.0)
        times, values = tl.series("t")
        assert times == values  # the "t" probe samples sim.now itself
        _, ticks = tl.series("ticks")
        assert ticks == [0, 0, 7, 7, 7]

    def test_register_after_sampling_raises(self):
        tl = recorded(5.0, 10.0)
        with pytest.raises(RuntimeError, match="after sampling"):
            tl.register("late", lambda: 0)

    def test_duplicate_probe_name_raises(self):
        tl = Timeline(1.0)
        tl.register("x", lambda: 0)
        with pytest.raises(ValueError, match="duplicate"):
            tl.register("x", lambda: 1)

    def test_bad_kind_raises(self):
        with pytest.raises(ValueError, match="kind"):
            Timeline(1.0).register("x", lambda: 0, kind="str")

    def test_nbytes_counts_every_column(self):
        tl = recorded(3.0, 10.0)
        # one shared float time column + one int + one float probe column
        assert tl.nbytes() == 5 * 8 * 3


class TestDerived:
    def test_crossing_time_interpolates(self):
        tl = Timeline(1.0)
        tl.register("e", lambda: 0.0)
        for t, v in [(0.0, 0.0), (10.0, 100.0)]:
            tl.times.append(t)
            tl._by_name["e"].values.append(v)
        assert tl.crossing_time("e", 50.0) == pytest.approx(5.0)
        assert tl.crossing_time("e", 100.0) == pytest.approx(10.0)
        assert tl.crossing_time("e", 101.0) is None
        assert tl.crossing_time("e", 50.0, interpolate=False) == 10.0
        assert tl.crossing_time("missing", 1.0) is None

    def test_derived_alive_and_half_stats(self):
        tl = Timeline(1.0)
        for name in ("nodes.alive", "energy.total", "data.delivered"):
            tl.register(name, lambda: 0, "float")
        rows = [
            (0.0, 10, 0.0, 0),
            (1.0, 10, 2.0, 1),
            (2.0, 8, 4.0, 3),
            (3.0, 8, 8.0, 4),
        ]
        for t, alive, energy, delivered in rows:
            tl.times.append(t)
            tl._by_name["nodes.alive"].values.append(alive)
            tl._by_name["energy.total"].values.append(energy)
            tl._by_name["data.delivered"].values.append(delivered)
        d = tl.derived()
        assert d["time_to_first_death"] == 2.0
        assert d["min_alive"] == 8.0
        assert d["half_energy_time"] == pytest.approx(2.0)  # 4.0 J of 8.0 J
        assert d["half_delivery_time"] == 2.0  # first sample >= 2 deliveries

    def test_accounting_block_shape(self):
        tl = recorded(3.0, 10.0)
        block = tl.accounting("tl.json")
        assert block["samples"] == 5
        assert block["interval"] == 3.0
        assert block["probes"] == ["ticks", "t"]
        assert block["bytes"] == tl.nbytes()
        assert block["path"] == "tl.json"
        assert "derived" in block


class TestSerialization:
    def test_round_trip_is_lossless(self, tmp_path):
        tl = recorded(3.0, 10.0)
        path = save_timeline(tl, tmp_path / "tl.json")
        back = load_timeline(path)
        assert back.as_dict() == tl.as_dict()
        assert back._by_name["ticks"].values.typecode == "q"

    def test_from_dict_rejects_unknown_version(self):
        with pytest.raises(ValueError, match="version"):
            Timeline.from_dict({"timeline_version": 99})

    def test_loaded_timeline_has_no_callables(self, tmp_path):
        tl = recorded(3.0, 10.0)
        back = load_timeline(save_timeline(tl, tmp_path / "tl.json"))
        assert all(p.fn is None for p in back.probes)


class TestChromeTrace:
    def test_counter_events_carry_microseconds(self, tmp_path):
        tl = recorded(5.0, 10.0)
        data = json.loads(write_chrome_trace(tmp_path / "t.json", timeline=tl).read_text())
        counters = [e for e in data["traceEvents"] if e.get("ph") == "C"]
        assert {e["name"] for e in counters} == {"ticks", "t"}
        ts = sorted({e["ts"] for e in counters})
        assert ts == [0.0, 5_000_000.0, 10_000_000.0]

    def test_reconstruction_from_counters_alone(self, tmp_path):
        # the export holds no second copy of the timeline: a viewer reads
        # every sample off the one counter track per probe
        tl = recorded(5.0, 10.0)
        data = json.loads(write_chrome_trace(tmp_path / "t.json", timeline=tl).read_text())
        assert set(data) == {"traceEvents", "displayTimeUnit"}
        tracks: dict = {}
        for e in data["traceEvents"]:
            if e.get("ph") == "C":
                tracks.setdefault(e["name"], []).append((e["ts"] / 1e6, e["args"]["value"]))
        assert sorted(tracks) == sorted(tl.names())
        for name in tracks:
            times, values = tl.series(name)
            assert tracks[name] == list(zip(times, values))
        assert [v for _t, v in tracks["ticks"]] == [0, 7, 7]


class TestRendering:
    def test_sparkline_shape(self):
        assert sparkline([]) == ""
        assert sparkline([1.0, 1.0, 1.0]) == "▁▁▁"
        s = sparkline(list(range(100)), width=10)
        assert len(s) == 10
        assert s[0] == "▁" and s[-1] == "█"
        # bucket-max downsampling keeps short spikes visible
        spiky = [0.0] * 50 + [9.0] + [0.0] * 49
        assert "█" in sparkline(spiky, width=10)

    def test_format_timeline_table(self):
        tl = recorded(3.0, 10.0)
        out = format_timeline(tl)
        assert "5 samples" in out
        assert "ticks" in out and "derived" not in out  # no derived probes here
        only = format_timeline(tl, probes=["ticks", "nope"])
        assert "unknown probes skipped: nope" in only
        assert "\nt " not in only


class TestDiff:
    def test_equal_timelines(self):
        a, b = recorded(3.0, 10.0), recorded(3.0, 10.0)
        diff = diff_timelines(a.as_dict(), b.as_dict())
        assert diff["equal"] is True
        assert diff["kind"] == "timeline"

    def test_value_and_shape_divergence(self):
        a, b = recorded(3.0, 10.0), recorded(3.0, 10.0)
        bd = b.as_dict()
        bd["probes"][0]["values"][-1] += 5
        diff = diff_timelines(a.as_dict(), bd)
        assert diff["equal"] is False
        assert "ticks" in diff["probes"]
        assert diff["probes"]["ticks"]["n_diffs"] == 1

    def test_probe_set_divergence(self):
        a, b = recorded(3.0, 10.0), recorded(3.0, 10.0)
        bd = b.as_dict()
        bd["probes"] = bd["probes"][:1]
        diff = diff_timelines(a.as_dict(), bd)
        assert diff["equal"] is False
        assert diff["only_a"] == ["t"]
