"""Unit tests for the duplicate-suppression and exploratory caches."""

import pytest

from repro.diffusion.cache import ExploratoryCache, ReinforceChoice, SeenCache


class TestSeenCache:
    def test_first_sighting_is_new(self):
        c = SeenCache()
        assert c.check_and_add("a") is True
        assert c.check_and_add("a") is False

    def test_contains(self):
        c = SeenCache()
        c.check_and_add("x")
        assert "x" in c
        assert "y" not in c

    def test_capacity_evicts_lru(self):
        c = SeenCache(capacity=2)
        c.check_and_add("a")
        c.check_and_add("b")
        c.check_and_add("c")  # evicts a
        assert "a" not in c
        assert "b" in c and "c" in c

    def test_recent_use_refreshes_lru_position(self):
        c = SeenCache(capacity=2)
        c.check_and_add("a")
        c.check_and_add("b")
        c.check_and_add("a")  # refresh a
        c.check_and_add("c")  # evicts b
        assert "a" in c and "b" not in c

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SeenCache(capacity=0)


class TestExploratoryCache:
    def test_first_copy_flagged(self):
        c = ExploratoryCache()
        assert c.note_exploratory("k", neighbor=1, energy_cost=3.0, now=0.1) is True
        assert c.note_exploratory("k", neighbor=2, energy_cost=2.0, now=0.2) is False

    def test_repeat_copies_keep_the_minimum_energy(self):
        # No run repeats a neighbor's copy, but a lower repeat still
        # lowers the round's E and a higher one never raises it.
        c = ExploratoryCache()
        c.note_exploratory("k", 1, 5.0, 0.1)
        c.note_exploratory("k", 1, 3.0, 0.2)
        c.note_exploratory("k", 1, 7.0, 0.3)
        assert c.get("k").min_energy() == 3.0
        assert c.lowest_cost_choice("k") == ReinforceChoice(1, 3.0, via_incremental=False)

    def test_min_energy_across_neighbors(self):
        c = ExploratoryCache()
        c.note_exploratory("k", 1, 5.0, 0.1)
        c.note_exploratory("k", 2, 2.0, 0.2)
        assert c.get("k").min_energy() == 2.0

    def test_min_energy_empty(self):
        c = ExploratoryCache()
        c.note_incremental_cost("k", 1, 2.0, 0.1)
        assert c.get("k").min_energy() is None

    def test_capacity_bound(self):
        c = ExploratoryCache(capacity=2)
        c.note_exploratory("a", 1, 1.0, 0.1)
        c.note_exploratory("b", 1, 1.0, 0.2)
        c.note_exploratory("c", 1, 1.0, 0.3)
        assert c.get("a") is None
        assert c.get("c") is not None


class TestLowestDelayChoice:
    def test_first_deliverer_wins(self):
        c = ExploratoryCache()
        c.note_exploratory("k", 7, 9.0, 0.1)
        c.note_exploratory("k", 2, 1.0, 0.2)  # cheaper but later
        choice = c.lowest_delay_choice("k")
        assert choice.neighbor == 7
        assert not choice.via_incremental

    def test_unknown_key_none(self):
        assert ExploratoryCache().lowest_delay_choice("nope") is None


class TestLowestCostChoice:
    def test_cheapest_exploratory_wins(self):
        c = ExploratoryCache()
        c.note_exploratory("k", 1, 5.0, 0.1)
        c.note_exploratory("k", 2, 3.0, 0.2)
        choice = c.lowest_cost_choice("k")
        assert choice.neighbor == 2
        assert choice.cost == 3.0

    def test_incremental_cost_beats_higher_exploratory(self):
        # §4.1: the sink reinforces whoever sent the exploratory event or
        # the incremental cost message at the lowest energy cost.
        c = ExploratoryCache()
        c.note_exploratory("k", 1, 6.0, 0.1)
        c.note_incremental_cost("k", 9, 2.0, 0.3)
        choice = c.lowest_cost_choice("k")
        assert choice.neighbor == 9
        assert choice.via_incremental

    def test_tie_goes_to_exploratory(self):
        # "If the energy cost of an exploratory event and the incremental
        # cost message are equivalent, the sink reinforces the neighboring
        # node that sent the exploratory event."
        c = ExploratoryCache()
        c.note_incremental_cost("k", 9, 4.0, 0.05)
        c.note_exploratory("k", 1, 4.0, 0.2)
        choice = c.lowest_cost_choice("k")
        assert choice.neighbor == 1
        assert not choice.via_incremental

    def test_exploratory_tie_broken_by_delay(self):
        # "Other ties are decided in favor of the lowest delay."
        c = ExploratoryCache()
        c.note_exploratory("k", 5, 4.0, 0.3)
        c.note_exploratory("k", 1, 4.0, 0.1)
        assert c.lowest_cost_choice("k").neighbor == 1

    def test_incremental_only(self):
        c = ExploratoryCache()
        c.note_incremental_cost("k", 9, 2.0, 0.3)
        choice = c.lowest_cost_choice("k")
        assert choice.neighbor == 9

    def test_incremental_per_neighbor_min(self):
        c = ExploratoryCache()
        c.note_incremental_cost("k", 9, 5.0, 0.1)
        c.note_incremental_cost("k", 9, 2.0, 0.2)
        assert c.get("k").inc_cost_by_neighbor[9] == 2.0

    def test_unknown_key_none(self):
        assert ExploratoryCache().lowest_cost_choice("nope") is None
