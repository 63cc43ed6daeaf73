"""Road network: directed weighted graph with constant travel speed.

Distances are meters, durations seconds.  All-pairs shortest paths are
precomputed once at construction so later queries are table lookups.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import (
    DanglingEdgeError,
    InvalidDimensionError,
    MalformedRowError,
    MissingFileError,
    UnknownNodeError,
    UnreachableError,
)

Edge = tuple[str, str, float]


@dataclass
class RoadNetwork:
    """Directed graph with per-edge lengths and one fleet-wide speed (m/s)."""

    nodes: list[str]
    edges: list[Edge]
    speed: float

    _index: dict[str, int] = field(init=False, repr=False)
    _dist: np.ndarray = field(init=False, repr=False)
    _pred: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise InvalidDimensionError("speed must be positive")
        if len(set(self.nodes)) != len(self.nodes):
            raise MalformedRowError(0, "duplicate node id")
        self._index = {n: i for i, n in enumerate(self.nodes)}
        n = len(self.nodes)
        rows, cols, data = [], [], []
        best: dict[tuple[int, int], float] = {}
        for u, v, length in self.edges:
            if u not in self._index or v not in self._index:
                raise DanglingEdgeError(f"edge ({u}, {v}) references undeclared node")
            if length <= 0:
                raise InvalidDimensionError(f"edge ({u}, {v}) has non-positive length")
            key = (self._index[u], self._index[v])
            # parallel edges collapse to the shortest one
            if key not in best or length < best[key]:
                best[key] = length
        for (i, j), length in best.items():
            rows.append(i)
            cols.append(j)
            data.append(length)
        graph = csr_matrix((data, (rows, cols)), shape=(n, n))
        self._dist, self._pred = dijkstra(graph, directed=True, return_predecessors=True)

    # -- queries --------------------------------------------------------------

    def node_set(self) -> frozenset:
        """All node ids, for membership checks."""
        return frozenset(self._index)

    def node_index(self, node: str) -> int:
        try:
            return self._index[node]
        except KeyError:
            raise UnknownNodeError(f"unknown node {node!r}") from None

    def distance(self, src: str, dst: str) -> float:
        """Shortest-path distance in meters; raises if disconnected."""
        d = self._dist[self.node_index(src), self.node_index(dst)]
        if np.isinf(d):
            raise UnreachableError(f"no path from {src!r} to {dst!r}")
        return float(d)

    def travel_time(self, src: str, dst: str) -> float:
        """Shortest-path duration in seconds at the network speed."""
        return self.distance(src, dst) / self.speed

    def distance_or_inf(self, src: str, dst: str) -> float:
        """Like distance() but returns inf instead of raising when disconnected."""
        return float(self._dist[self.node_index(src), self.node_index(dst)])

    def reachable(self, src: str, dst: str) -> bool:
        return not np.isinf(self._dist[self.node_index(src), self.node_index(dst)])

    def path(self, src: str, dst: str) -> list[str]:
        """Node sequence of one shortest path from src to dst."""
        i, j = self.node_index(src), self.node_index(dst)
        if np.isinf(self._dist[i, j]):
            raise UnreachableError(f"no path from {src!r} to {dst!r}")
        if i == j:
            return [src]
        seq = [j]
        while seq[-1] != i:
            seq.append(int(self._pred[i, seq[-1]]))
        return [self.nodes[k] for k in reversed(seq)]


def shortest_path(net: RoadNetwork, src: str, dst: str) -> tuple[float, float, list[str]]:
    """Return (distance_m, duration_s, node_path) for the shortest route."""
    dist = net.distance(src, dst)
    return dist, dist / net.speed, net.path(src, dst)


def make_grid(rows: int, cols: int, edge_len: float, speed: float) -> RoadNetwork:
    """Build a rows x cols lattice with bidirectional edges of equal length.

    Node ids are row-major decimal strings: node (r, c) is str(r * cols + c).
    """
    if rows < 1 or cols < 1:
        raise InvalidDimensionError("grid needs at least one row and one column")
    if edge_len <= 0 or speed <= 0:
        raise InvalidDimensionError("edge length and speed must be positive")
    nodes = [str(r * cols + c) for r in range(rows) for c in range(cols)]
    edges: list[Edge] = []
    for r in range(rows):
        for c in range(cols):
            here = str(r * cols + c)
            if c + 1 < cols:
                right = str(r * cols + c + 1)
                edges.append((here, right, float(edge_len)))
                edges.append((right, here, float(edge_len)))
            if r + 1 < rows:
                down = str((r + 1) * cols + c)
                edges.append((here, down, float(edge_len)))
                edges.append((down, here, float(edge_len)))
    return RoadNetwork(nodes=nodes, edges=edges, speed=float(speed))


def load_network(path: str, speed: float = 10.0) -> RoadNetwork:
    """Parse a network CSV with '#nodes' and '#edges' sections.

    Node rows hold a single id; edge rows hold from,to,length_m.  Rows are
    rejected (with their line number) rather than silently skipped.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        raise MissingFileError(f"network file not found: {path}") from None
    nodes: list[str] = []
    edges: list[Edge] = []
    section = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            section = line.lstrip("#").strip().lower()
            if section not in ("nodes", "edges"):
                raise MalformedRowError(lineno, f"unknown section {line!r}")
            continue
        if section == "nodes":
            if "," in line:
                raise MalformedRowError(lineno, "node rows hold a single id")
            nodes.append(line)
        elif section == "edges":
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 3:
                raise MalformedRowError(lineno, "edge rows are from,to,length_m")
            try:
                length = float(parts[2])
            except ValueError:
                raise MalformedRowError(lineno, f"bad edge length {parts[2]!r}") from None
            if length <= 0:
                raise MalformedRowError(lineno, "edge length must be positive")
            edges.append((parts[0], parts[1], length))
        else:
            raise MalformedRowError(lineno, "data before a section header")
    return RoadNetwork(nodes=nodes, edges=edges, speed=float(speed))


def write_network(net: RoadNetwork, path: str) -> None:
    """Serialize a network to the CSV section format read by load_network."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("#nodes\n")
        for n in net.nodes:
            fh.write(f"{n}\n")
        fh.write("#edges\n")
        for u, v, length in net.edges:
            fh.write(f"{u},{v},{length}\n")
