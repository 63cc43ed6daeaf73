"""Walk through one dispatch decision on a small grid.

Builds the pairwise shareability graph and the trip-level graph for a
handful of requests, then solves the trip-vehicle assignment exactly and
prints the routes the optimizer picked.
"""
from ridemarket import (
    AssignmentProblem,
    Constraints,
    PricingScheme,
    Request,
    Vehicle,
    build_rtv_graph,
    fill_direct,
    make_grid,
    solve_assignment,
    to_dollars,
    trip_marginal_profit,
)

NOW = 60.0


def main() -> None:
    net = make_grid(5, 5, edge_len=400.0, speed=8.0)
    cons = Constraints()
    scheme = PricingScheme()

    requests = fill_direct(net, [
        Request(id="r0", origin="0", destination="18", request_time=0.0, platform="A"),
        Request(id="r1", origin="1", destination="23", request_time=10.0, platform="A"),
        Request(id="r2", origin="20", destination="4", request_time=20.0, platform="A"),
        Request(id="r3", origin="12", destination="3", request_time=45.0, platform="A"),
    ])
    vehicles = [
        Vehicle(id="v0", platform="A", position="6"),
        Vehicle(id="v1", platform="A", position="24"),
    ]

    graph = build_rtv_graph(requests, vehicles, net, NOW, cons)
    print(f"requests: {len(requests)}   vehicles: {len(vehicles)}")
    print(f"feasible trips: {len(graph.trips)}")
    print(f"trip-vehicle edges: {len(graph.tv_edges)}")
    for trip in sorted(graph.trips, key=lambda t: (len(t), t)):
        print(f"  trip {'+'.join(trip)}")

    registry = {r.id: r for r in requests}
    for objective in ("min_delay_penalty", "min_vmt_penalty", "max_profit"):
        assignment = solve_assignment(AssignmentProblem(
            graph=graph, objective=objective, penalty=cons.unserved_penalty,
            scheme=scheme, net=net, registry=registry))
        print(f"\nobjective {objective}: value {assignment.objective_value:.4f}")
        for trip in sorted(assignment.chosen, key=lambda t: t.edge_key):
            stops = " -> ".join(f"{s.kind[0]}:{s.request}@{s.node}" for s in trip.route)
            print(f"  {trip.vehicle} serves {'+'.join(trip.requests)}: {stops}")
            profit = trip_marginal_profit(scheme, trip, net, registry)
            print(f"    incremental distance {trip.incremental_distance:.0f} m, "
                  f"summed delay {trip.total_delay:.0f} s, "
                  f"marginal profit {to_dollars(profit):.2f}")
        if assignment.unserved:
            print(f"  unserved: {sorted(assignment.unserved)}")


if __name__ == "__main__":
    main()
