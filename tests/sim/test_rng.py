"""Unit tests for deterministic RNG streams."""

from repro.sim import RngRegistry, derive_seed


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(42, "mac.3") == derive_seed(42, "mac.3")

    def test_distinct_names_distinct_seeds(self):
        assert derive_seed(42, "mac.3") != derive_seed(42, "mac.4")

    def test_distinct_roots_distinct_seeds(self):
        assert derive_seed(42, "mac.3") != derive_seed(43, "mac.3")

    def test_seed_is_64bit(self):
        s = derive_seed(1, "x")
        assert 0 <= s < 2**64


class TestRngRegistry:
    def test_streams_memoised(self):
        reg = RngRegistry(7)
        assert reg.stream("a") is reg.stream("a")

    def test_streams_independent_sequences(self):
        reg = RngRegistry(7)
        a = [reg.stream("a").random() for _ in range(5)]
        b = [reg.stream("b").random() for _ in range(5)]
        assert a != b

    def test_reproducible_across_registries(self):
        seq1 = [RngRegistry(9).stream("x").random() for _ in range(1)]
        seq2 = [RngRegistry(9).stream("x").random() for _ in range(1)]
        assert seq1 == seq2

    def test_order_of_stream_creation_does_not_matter(self):
        r1 = RngRegistry(5)
        r1.stream("first")
        v1 = r1.stream("second").random()
        r2 = RngRegistry(5)
        v2 = r2.stream("second").random()
        assert v1 == v2
