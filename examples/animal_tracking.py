#!/usr/bin/env python3
"""Animal tracking: the paper's §2 motivating scenario, built by hand.

A user in a wilderness refuge tracks animal movement in a remote
sub-region of the park.  Instead of using the experiment harness, this
example wires the stack directly through the public API — its own field,
its own attribute naming, a custom interest — and inspects the
aggregation tree that the greedy scheme constructs.

Run:  python examples/animal_tracking.py
"""

import random

from repro import DiffusionParams, GreedyAgent, Simulator, Tracer, RngRegistry
from repro.diffusion.attributes import AttributeSet, InterestSpec, Op, Predicate
from repro.experiments.metrics import MetricsCollector
from repro.net import Channel, Node, RadioParams, generate_field


def main() -> None:
    sim = Simulator()
    tracer = Tracer(lambda: sim.now)
    rngs = RngRegistry(2026)
    channel = Channel(sim, tracer, RadioParams(range_m=40.0))

    # A 200 m x 200 m refuge with 120 sensor nodes.
    field = generate_field(120, rngs.stream("topology"))
    nodes = [
        Node(i, x, y, sim, channel, tracer, rngs)
        for i, (x, y) in enumerate(field.positions)
    ]

    # The user's task, named with attribute-value predicates: four-legged
    # animals inside the remote south-west quadrant of the park.
    interest = InterestSpec.of(
        Predicate("species", Op.IS, "four-legged"),
        Predicate("x", Op.GE, 0.0),
        Predicate("x", Op.LE, 90.0),
        Predicate("y", Op.GE, 0.0),
        Predicate("y", Op.LE, 90.0),
    )

    params = DiffusionParams(exploratory_interval=15.0)
    metrics = MetricsCollector(warmup_end=20.0)
    agents = [GreedyAgent(node, params, metrics=metrics) for node in nodes]

    # Sensors publish their own attributes; those inside the quadrant
    # with animal activity will match the interest and become sources.
    rng = random.Random(7)
    herd = [i for i in field.nodes_in_square(0, 0, 90)]
    sources = rng.sample(herd, min(4, len(herd)))
    for i, node in enumerate(nodes):
        agents[i].attributes = AttributeSet(
            {
                "species": "four-legged" if i in sources else "none",
                "x": node.x,
                "y": node.y,
            }
        )

    # The ranger station (sink) sits wherever the node closest to the
    # north-east corner is.
    station = max(range(len(nodes)), key=lambda i: nodes[i].x + nodes[i].y)
    agents[station].attach_sink(interest_id=station, spec=interest)

    sim.run(until=60.0)

    print(f"refuge: {field.n} sensors, mean degree {field.mean_degree():.1f}")
    print(f"herd sensors (sources): {sorted(sources)}")
    print(f"ranger station (sink):  {station}")
    print()
    print(f"tracking events delivered: {metrics.total_distinct_delivered()} "
          f"(ratio {metrics.delivery_ratio():.3f})")
    delay = metrics.average_delay()
    print(f"average report latency:    {delay * 1e3:.0f} ms" if delay else "no data")

    # Inspect the aggregation tree by walking each source's chain of
    # preferred downstream neighbors (single outgoing data gradient).
    print("\ngreedy aggregation tree (node -> parent):")
    printed = set()
    for source in sorted(sources):
        node = source
        hops = 0
        while node != station and hops <= len(nodes):
            parents = agents[node].gradients[station].data_neighbors(sim.now)
            if not parents:
                print(f"  {'source' if node == source else 'relay '} {node:3d} -> (no path)")
                break
            edge = (node, parents[0])
            if edge not in printed:
                printed.add(edge)
                role = "source" if node in sources else "relay "
                print(f"  {role} {node:3d} -> {parents[0]}")
            node = parents[0]
            hops += 1

    merged = tracer.registry.value("diffusion.items_aggregated")
    print(f"\nevents merged into aggregates in-network: {merged}")


if __name__ == "__main__":
    main()
