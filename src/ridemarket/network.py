"""Road network: directed weighted graph with constant travel speed.

Distances are meters, durations seconds.  All-pairs shortest paths are
precomputed once at construction so later queries are table lookups.
The two dense tables cost 12 bytes per ordered node pair (a float64
distance and an int32 predecessor), so networks above MAX_NODES nodes
are rejected before anything is allocated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import (
    ScenarioParseError,
    TooLargeError,
    UnreachableError,
    ValidationError,
)

Edge = tuple[str, str, float]

# 5,000 nodes make 25 million node pairs: 300 MB of all-pairs tables.
MAX_NODES = 5_000


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
        if not 0 < self.speed < math.inf:
            raise ValidationError("speed must be finite and positive")
        if len(self.nodes) > MAX_NODES:
            raise TooLargeError(
                f"network has {len(self.nodes)} nodes; the all-pairs tables "
                f"allow at most {MAX_NODES}"
            )
        if len(set(self.nodes)) != len(self.nodes):
            raise ValidationError("duplicate node id")
        self._index = {n: i for i, n in enumerate(self.nodes)}
        n = len(self.nodes)
        rows, cols, data = [], [], []
        best: dict[tuple[int, int], float] = {}
        for u, v, length in self.edges:
            if u not in self._index or v not in self._index:
                raise ValidationError(f"edge ({u}, {v}) references undeclared node")
            if not 0 < length < math.inf:
                raise ValidationError(
                    f"edge ({u}, {v}) length must be finite and positive"
                )
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
            raise ValidationError(f"unknown node {node!r}") from None

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

    def distance_block(self, srcs: list[str], dsts: list[str]) -> np.ndarray:
        """Shortest distances from each of srcs (rows) to each of dsts (columns).

        A fresh len(srcs) x len(dsts) array; disconnected pairs hold inf.
        """
        rows = np.array([self.node_index(n) for n in srcs], dtype=np.intp)
        cols = np.array([self.node_index(n) for n in dsts], dtype=np.intp)
        return self._dist[np.ix_(rows, cols)]

    def flat_distances(self) -> memoryview:
        """Zero-copy flat view of the all-pairs distance table.

        Entry ``i * len(nodes) + j`` is the distance from the node with
        index i to the node with index j (see node_index), read as a Python
        float; disconnected pairs hold inf.
        """
        return memoryview(self._dist.reshape(-1))

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


def make_grid(rows: int, cols: int, edge_len: float, speed: float) -> RoadNetwork:
    """Build a rows x cols lattice with bidirectional edges of equal length.

    Node ids are row-major decimal strings: node (r, c) is str(r * cols + c).
    """
    if rows < 1 or cols < 1:
        raise ValidationError("grid needs at least one row and one column")
    if not (0 < edge_len < math.inf and 0 < speed < math.inf):
        raise ValidationError("edge length and speed must be finite and positive")
    if rows * cols > MAX_NODES:
        raise TooLargeError(
            f"grid has {rows * cols} nodes; the all-pairs tables "
            f"allow at most {MAX_NODES}"
        )
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
    except (OSError, UnicodeError) as exc:
        raise ScenarioParseError(f"cannot read network file {path}: {exc}") from None
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
                raise ScenarioParseError(f"line {lineno}: unknown section {line!r}")
            continue
        if section == "nodes":
            if "," in line:
                raise ScenarioParseError(f"line {lineno}: node rows hold a single id")
            nodes.append(line)
        elif section == "edges":
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 3:
                raise ScenarioParseError(f"line {lineno}: edge rows are from,to,length_m")
            try:
                length = float(parts[2])
            except ValueError:
                raise ScenarioParseError(
                    f"line {lineno}: bad edge length {parts[2]!r}"
                ) from None
            if not 0 < length < math.inf:
                raise ScenarioParseError(
                    f"line {lineno}: edge length must be finite and positive"
                )
            edges.append((parts[0], parts[1], length))
        else:
            raise ScenarioParseError(f"line {lineno}: data before a section header")
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
