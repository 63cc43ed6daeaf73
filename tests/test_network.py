"""Road network construction, shortest paths and file round trips."""
import tracemalloc

import numpy as np
import pytest

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
    inf = float("inf")
    assert net.distance_block(["a", "c"], ["b", "c"]).tolist() == [[50.0, inf], [inf, 0.0]]
    flat = net.flat_distances()
    n = len(net.nodes)
    assert flat[net.node_index("a") * n + net.node_index("b")] == 50.0
    assert flat[net.node_index("b") * n + net.node_index("c")] == inf


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
