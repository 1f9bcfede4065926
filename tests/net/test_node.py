"""Unit tests for node composition and the failure model."""

from tests.helpers import MiniWorld, chain_positions


class Recorder:
    """Minimal protocol agent: records everything delivered."""

    def __init__(self):
        self.got = []

    def on_message(self, msg, from_id):
        self.got.append((msg, from_id))


class TestDelivery:
    def test_protocol_receives_broadcast(self):
        w = MiniWorld(chain_positions(2))
        rec = Recorder()
        w.nodes[1].set_protocol(rec)
        w.nodes[0].broadcast("hello", 64)
        w.run(until=1.0)
        assert rec.got == [("hello", 0)]

    def test_protocol_receives_unicast(self):
        w = MiniWorld(chain_positions(2))
        rec = Recorder()
        w.nodes[1].set_protocol(rec)
        w.nodes[0].send("msg", 1, 64)
        w.run(until=1.0)
        assert rec.got == [("msg", 0)]

    def test_no_protocol_no_crash(self):
        w = MiniWorld(chain_positions(2))
        w.nodes[0].broadcast("x", 64)
        w.run(until=1.0)  # must not raise


class TestFailureModel:
    def test_down_node_does_not_deliver(self):
        w = MiniWorld(chain_positions(2))
        rec = Recorder()
        w.nodes[1].set_protocol(rec)
        w.nodes[1].fail()
        w.nodes[0].broadcast("x", 64)
        w.run(until=1.0)
        assert rec.got == []

    def test_recovered_node_delivers_again(self):
        w = MiniWorld(chain_positions(2))
        rec = Recorder()
        w.nodes[1].set_protocol(rec)
        w.nodes[1].fail()
        w.nodes[1].recover()
        w.nodes[0].broadcast("x", 64)
        w.run(until=1.0)
        assert rec.got == [("x", 0)]

    def test_fail_is_idempotent(self):
        w = MiniWorld(chain_positions(1))
        w.nodes[0].fail()
        w.nodes[0].fail()
        assert not w.nodes[0].up
        assert w.tracer.registry.value("node.fail") == 1

    def test_recover_is_idempotent(self):
        w = MiniWorld(chain_positions(1))
        w.nodes[0].recover()  # already up: no-op
        assert w.nodes[0].up

    def test_send_while_down_fails(self):
        w = MiniWorld(chain_positions(2))
        w.nodes[0].fail()
        assert w.nodes[0].send("x", 1, 64) is False

    def test_counters(self):
        w = MiniWorld(chain_positions(1))
        w.nodes[0].fail()
        w.nodes[0].recover()
        assert w.tracer.registry.value("node.fail") == 1
        assert w.tracer.registry.value("node.recover") == 1
