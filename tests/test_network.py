"""Road network construction, shortest paths and file round trips."""
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from ridemarket.errors import (
    OutputError,
    ScenarioParseError,
    TooLargeError,
    UnreachableError,
    ValidationError,
)
from ridemarket.network import (
    MAX_NODES,
    RoadNetwork,
    load_network,
    make_grid,
    write_network,
)


def test_grid_shape_and_manhattan_distances():
    net = make_grid(4, 5, edge_len=150.0, speed=10.0)
    assert len(net.node_set()) == 20
    # row-major ids: node r*cols+c, so "0" -> "7" is 1 row + 2 cols away
    assert net.distance("0", "7") == pytest.approx(3 * 150.0)
    assert net.travel_time("0", "7") == pytest.approx(3 * 15.0)
    assert net.distance("3", "3") == 0.0


def test_grid_paths_follow_real_edges():
    net = make_grid(3, 3, edge_len=100.0, speed=5.0)
    hops = {(u, v) for u, v, _ in net.edges}
    path = net.path("0", "8")
    assert path[0] == "0" and path[-1] == "8"
    assert len(path) == 5
    for a, b in zip(path, path[1:]):
        assert (a, b) in hops


def test_distance_symmetry_on_grid():
    net = make_grid(4, 4, edge_len=120.0, speed=8.0)
    nodes = sorted(net.node_set())
    rng = np.random.default_rng(0)
    for _ in range(40):
        a, b = rng.choice(nodes, size=2, replace=False)
        assert net.distance(a, b) == pytest.approx(net.distance(b, a))


def test_triangle_inequality():
    net = make_grid(5, 5, edge_len=90.0, speed=7.0)
    nodes = sorted(net.node_set())
    rng = np.random.default_rng(1)
    for _ in range(60):
        a, b, c = rng.choice(nodes, size=3, replace=False)
        assert net.distance(a, c) <= net.distance(a, b) + net.distance(b, c) + 1e-9


def test_unknown_node_raises():
    net = make_grid(2, 2, edge_len=100.0, speed=10.0)
    with pytest.raises(ValidationError, match="unknown node 'nope'"):
        net.distance("0", "nope")
    with pytest.raises(ValidationError, match="unknown node 'nope'"):
        net.path("nope", "0")


def test_unreachable_node_raises():
    net = RoadNetwork(
        nodes=["a", "b", "c"],
        edges=[("a", "b", 50.0), ("b", "a", 50.0)],
        speed=10.0,
    )
    with pytest.raises(UnreachableError, match="no path from 'a' to 'c'"):
        net.distance("a", "c")
    with pytest.raises(UnreachableError, match="no path from 'a' to 'c'"):
        net.path("a", "c")
    assert net.distance_or_inf("a", "c") == float("inf")
    flat = net.flat_distances()
    n = len(net.nodes)
    assert flat[net.node_index("a") * n + net.node_index("b")] == 50.0
    assert flat[net.node_index("b") * n + net.node_index("c")] == float("inf")


def test_network_above_node_bound_fails_before_allocating():
    nodes = [str(i) for i in range(MAX_NODES + 1)]
    edges = [(nodes[i], nodes[i + 1], 1.0) for i in range(MAX_NODES)]
    builds = (
        lambda: RoadNetwork(nodes=nodes, edges=edges, speed=10.0),
        # 5,041 nodes: rejected before a node id or edge is built
        lambda: make_grid(71, 71, edge_len=100.0, speed=10.0),
    )
    for build in builds:
        tracemalloc.start()
        try:
            with pytest.raises(TooLargeError, match=f"at most {MAX_NODES}"):
                build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the all-pairs tables would take 12 bytes for each of 25 million pairs
        assert peak < 100_000


def test_dangling_edge_and_bad_speed_raise(tmp_path):
    dangling_msg = r"^edge \(a, b\) references undeclared node$"
    with pytest.raises(ValidationError, match=dangling_msg):
        RoadNetwork(nodes=["a"], edges=[("a", "b", 10.0)], speed=5.0)
    with pytest.raises(ValidationError, match="edge length and speed must be finite"):
        make_grid(2, 2, edge_len=100.0, speed=0.0)
    with pytest.raises(ValidationError, match="^duplicate node id$"):
        RoadNetwork(nodes=["a", "b", "a"], edges=[], speed=5.0)
    # the same checks reached through the file reader
    dangling = tmp_path / "dangling.csv"
    dangling.write_text("#nodes\na\n#edges\na,b,10\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=dangling_msg):
        load_network(str(dangling))
    duplicate = tmp_path / "duplicate.csv"
    duplicate.write_text("#nodes\na\nb\na\n#edges\na,b,10\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="^duplicate node id$"):
        load_network(str(duplicate))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
def test_non_finite_or_non_positive_length_and_speed_raise(bad, tmp_path):
    # NaN fails no `<= 0` test, so each check must require a finite
    # positive value rather than reject non-positive ones
    grid_msg = "^edge length and speed must be finite and positive$"
    with pytest.raises(ValidationError, match=grid_msg):
        make_grid(2, 2, edge_len=bad, speed=10.0)
    with pytest.raises(ValidationError, match=grid_msg):
        make_grid(2, 2, edge_len=100.0, speed=bad)
    with pytest.raises(ValidationError,
                       match=r"^edge \(a, b\) length must be finite and positive$"):
        RoadNetwork(nodes=["a", "b"], edges=[("a", "b", bad)], speed=10.0)
    with pytest.raises(ValidationError, match="^speed must be finite and positive$"):
        RoadNetwork(nodes=["a", "b"], edges=[("a", "b", 10.0)], speed=bad)
    path = tmp_path / "net.csv"
    path.write_text(f"#nodes\na\nb\n#edges\na,b,10\nb,a,{bad}\n", encoding="utf-8")
    want = "^line 6: edge length must be finite and positive$"
    with pytest.raises(ScenarioParseError, match=want):
        load_network(str(path))


def test_unreadable_network_file_raises(tmp_path):
    binary = tmp_path / "net.csv"
    binary.write_bytes(b"\xff\xfe\x00\x81")
    for path in (tmp_path / "missing.csv", tmp_path, binary):
        with pytest.raises(ScenarioParseError, match="^cannot read network file "):
            load_network(str(path))


def test_directed_edges_respected():
    net = RoadNetwork(
        nodes=["a", "b"],
        edges=[("a", "b", 30.0)],
        speed=10.0,
    )
    assert net.distance("a", "b") == pytest.approx(30.0)
    assert net.distance_or_inf("b", "a") == float("inf")


def test_grid_distance_duration_and_path():
    net = make_grid(3, 3, edge_len=200.0, speed=10.0)
    assert net.distance("0", "2") == pytest.approx(400.0)
    assert net.travel_time("0", "2") == pytest.approx(40.0)
    assert net.path("0", "2") == ["0", "1", "2"]


def test_file_round_trip(tmp_path):
    net = make_grid(3, 4, edge_len=110.0, speed=9.0)
    path = tmp_path / "net.csv"
    write_network(net, str(path))
    back = load_network(str(path), speed=9.0)
    assert back.node_set() == net.node_set()
    nodes = sorted(net.node_set())
    rng = np.random.default_rng(2)
    for _ in range(30):
        a, b = rng.choice(nodes, size=2, replace=False)
        assert back.distance(a, b) == pytest.approx(net.distance(a, b))


def test_unwritable_network_path_is_an_output_error(tmp_path):
    net = make_grid(2, 2, edge_len=100.0, speed=9.0)
    for path in (tmp_path / "missing" / "net.csv", tmp_path):
        with pytest.raises(OutputError, match="^cannot write "):
            write_network(net, str(path))


@pytest.mark.parametrize("bad", ["", "#a", "a,b", "a\nb", "a\rb", "a\u2028b", " a", "a\t"])
def test_write_network_rejects_ids_it_cannot_read_back(bad, tmp_path):
    net = RoadNetwork(nodes=["x", bad], edges=[("x", bad, 10.0)], speed=5.0)
    path = tmp_path / "net.csv"
    with pytest.raises(ValidationError, match=f"^node id {re.escape(repr(bad))} cannot"):
        write_network(net, str(path))
    assert not path.exists()


def _shortest_edges(net):
    """(u index, v index) -> the shortest of the parallel edges u -> v."""
    best = {}
    for u, v, length in net.edges:
        key = (net.node_index(u), net.node_index(v))
        best[key] = min(best.get(key, length), length)
    return best


def _scipy_tables(net):
    """Distances and predecessors from scipy's Dijkstra, the reference."""
    n = len(net.nodes)
    best = _shortest_edges(net)
    rows = [i for i, _ in best]
    cols = [j for _, j in best]
    graph = csr_matrix((list(best.values()), (rows, cols)), shape=(n, n))
    return dijkstra(graph, directed=True, return_predecessors=True)


@st.composite
def _tied_graphs(draw):
    """Small directed graphs whose lengths tie often, with parallel edges,
    self-loops and (usually) unreachable nodes."""
    n = draw(st.integers(1, 9))
    unit = draw(st.sampled_from([0.1, 100.0]))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 4)),
        max_size=4 * n))
    return [str(i) for i in range(n)], [(str(u), str(v), k * unit) for u, v, k in edges]


@settings(max_examples=300, deadline=None)
@given(_tied_graphs())
def test_all_pairs_kernel_matches_dijkstra_and_the_stated_hop_rule(graph):
    nodes, edges = graph
    net = RoadNetwork(nodes=nodes, edges=edges, speed=10.0)
    want, _ = _scipy_tables(net)
    assert net._dist.dtype == np.float64 and net._pred.dtype == np.int32
    assert net._dist.tobytes() == want.tobytes()
    shortest = _shortest_edges(net)  # node "i" has index i
    d = net._dist
    n = len(nodes)
    for s in range(n):
        for v in range(n):
            # brute force over in-edges: the highest u that ends a shortest
            # path strictly closer to s
            hops = [u for (u, w), length in shortest.items()
                    if w == v and d[s, u] + length == d[s, v] and d[s, u] < d[s, v]]
            assert net._pred[s, v] == (max(hops) if hops else -9999)
            if np.isfinite(d[s, v]):
                path = net.path(str(s), str(v))
                assert path[0] == str(s) and path[-1] == str(v)


def test_grid_predecessors_equal_dijkstra():
    for rows in range(1, 13):
        for cols in range(1, 13):
            net = make_grid(rows, cols, edge_len=400.0, speed=8.0)
            dist, pred = _scipy_tables(net)
            assert net._dist.tobytes() == dist.tobytes()
            assert net._pred.tobytes() == pred.tobytes(), (rows, cols)


@pytest.mark.parametrize("edges", [
    # the edge b -> c adds nothing to the 1e4 m to b, so c has no
    # predecessor closer to a
    [("a", "b", 1e4), ("b", "c", 1e-13)],
    # and with c -> b too, the rule without its strict < would make b and
    # c each other's predecessor, and path() would loop
    [("a", "b", 1e4), ("b", "c", 1e-13), ("c", "b", 1e-13)],
])
def test_absorbed_edge_is_rejected(edges):
    outcome = []

    def build():
        try:
            RoadNetwork(nodes=["a", "b", "c"], edges=edges, speed=10.0)
        except ValidationError as exc:
            outcome.append(str(exc))

    worker = threading.Thread(target=build, daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert outcome == ["edge (b, c) is too short to change the distance it is added "
                       "to, so no shortest path can end with it"]
