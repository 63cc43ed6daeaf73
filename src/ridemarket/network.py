"""Road network: directed weighted graph with constant travel speed.

Distances are meters, durations seconds.  All-pairs shortest paths are
precomputed once at construction so later queries are table lookups.
The two dense tables cost 12 bytes per ordered node pair (a float64
distance and an int32 predecessor), so networks above MAX_NODES nodes
are rejected before anything is allocated.

The tables come from one numpy kernel, ``_all_pairs``: label-correcting
relaxation from a block of sources at once.  Each round relaxes only the
out-edges of the (source, node) entries whose distance fell in the round
before, so every distance is the left fold ``d(s, u) + w(u, v)`` along a
shortest path, the float Dijkstra computes.  Of several shortest paths the
predecessor is fixed by a rule, not by a heap's order: ``pred[s, v]`` is
the highest-index in-neighbour ``u`` with ``d(s, u) + w(u, v) == d(s, v)``
and ``d(s, u) < d(s, v)``.  The strict ``<`` makes every predecessor chain
end at its source.  A reachable node with no such ``u`` has an edge into it
too short to change the float distance it is added to (1e-13 m after
1e4 m); such a network is rejected with a ValidationError naming the edge.
On a 4,900-node grid (``make_grid(70, 70, ...)``, 19,320 edges) a build
took 4.2-6.1 s in a fresh process on a 2-vCPU machine, with a peak RSS of
331 MiB, 275 MiB of it the two tables (scipy's Dijkstra: 2.3-3.3 s and
344 MiB).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    OutputError,
    ScenarioParseError,
    TooLargeError,
    UnreachableError,
    ValidationError,
)

Edge = tuple[str, str, float]

# 5,000 nodes make 25 million node pairs: 300 MB of all-pairs tables.
MAX_NODES = 5_000

# Sources relaxed together.  A block's temporaries hold at most this many
# entries per edge, and the predecessor pass's at most this many per node.
_BLOCK = 64
# Predecessor entry of a source and of a node it cannot reach.
_NO_PRED = -9999


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
        self._dist, self._pred, absorbed = _all_pairs(n, best)
        if absorbed is not None:
            u, v = (self.nodes[i] for i in absorbed)
            raise ValidationError(
                f"edge ({u}, {v}) is too short to change the distance it is "
                "added to, so no shortest path can end with it"
            )

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


def _all_pairs(n: int, best: dict[tuple[int, int], float]):
    """Shortest-path tables of n nodes joined by ``best[(u, v)] = length``.

    Returns ``(dist, pred, absorbed)``: float64 distances (inf where
    unreachable), int32 predecessors (``_NO_PRED`` at a source and where
    unreachable) and None, or the (u, v) indices of an edge that no
    shortest path can end with because it is too short to change
    ``d(s, u)``; then the tables are incomplete.

    ``pred[s, v]`` is the highest-index in-neighbour u of v with
    ``d(s, u) + w(u, v) == d(s, v)`` and ``d(s, u) < d(s, v)``.

    Why the distances are Dijkstra's, bit for bit: float addition of a
    positive length is monotone, so the least left fold over all paths,
    which Dijkstra's settled labels equal, is also the only fixed point
    of ``d(s, v) = min_u d(s, u) + w(u, v)`` that every label-correcting
    order reaches, however it interleaves.  Every update lowers a label,
    so the rounds end, even around a cycle of absorbed edges.
    """
    dist = np.full((n, n), np.inf)
    pred = np.full((n, n), _NO_PRED, dtype=np.int32)
    pairs = np.array(list(best), dtype=np.intp).reshape(-1, 2)
    length = np.array(list(best.values()), dtype=np.float64)
    # out-edges by (u, v) for the relaxation, in-edges by (v, u) for pred
    out = np.lexsort((pairs[:, 1], pairs[:, 0]))
    head, tail, weight = pairs[out, 0], pairs[out, 1], length[out]
    first = np.searchsorted(head, np.arange(n + 1))
    into = np.lexsort((pairs[:, 0], pairs[:, 1]))
    in_head, in_tail, in_weight = pairs[into, 0], pairs[into, 1], length[into]
    in_label = in_head.astype(np.int32)
    owner = np.empty(min(n, _BLOCK) * n, dtype=np.intp)
    for s0 in range(0, n, _BLOCK):
        rows = dist[s0:s0 + _BLOCK]
        b = len(rows)
        flat = rows.reshape(-1)  # entry (s0 + i, v) is flat[i * n + v]
        frontier = np.arange(b) * (n + 1) + s0
        flat[frontier] = 0.0
        while frontier.size:
            # one candidate per out-edge of each entry that fell last round
            node = frontier % n
            start = first[node]
            deg = first[node + 1] - start
            ends = np.cumsum(deg)
            edge = np.arange(ends[-1]) + np.repeat(start - ends + deg, deg)
            cand = np.repeat(flat[frontier], deg) + weight[edge]
            target = np.repeat(frontier - node, deg) + tail[edge]
            fell = np.flatnonzero(cand < flat[target])
            target = target[fell]
            np.minimum.at(flat, target, cand[fell])
            # the next frontier holds each target once
            seq = np.arange(target.size)
            owner[target] = seq
            frontier = target[owner[target] == seq]
        # compare the block with n in-edges at a time; a later chunk holds
        # higher (v, u), so max keeps the highest u across chunks
        block = pred[s0:s0 + b]
        for e0 in range(0, len(in_head), n):
            u, v, w = in_head[e0:e0 + n], in_tail[e0:e0 + n], in_weight[e0:e0 + n]
            du, dv = rows[:, u], rows[:, v]
            hit = (du + w == dv) & (du < dv)
            seg = np.flatnonzero(np.diff(v, prepend=-1))  # first edge into each v
            top = np.maximum.reduceat(
                np.where(hit, in_label[e0:e0 + n], np.int32(_NO_PRED)), seg, axis=1)
            block[:, v[seg]] = np.maximum(block[:, v[seg]], top)
        lost = (block == _NO_PRED) & (rows < np.inf)
        lost[np.arange(b), np.arange(s0, s0 + b)] = False
        if lost.any():
            i, v = np.argwhere(lost)[0]
            into_v = in_tail == v
            u = in_head[into_v][rows[i, in_head[into_v]] + in_weight[into_v] == rows[i, v]]
            return dist, pred, (int(u[-1]), int(v))
    return dist, pred, None


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
    """Serialize a network to the CSV section format read by load_network.

    A file that cannot be written is an OutputError.  A node id that
    load_network would read back as another id, or not at all, is a
    ValidationError, raised before the file is opened: an empty id, one
    starting with '#', one holding a comma or a line break, and one with
    surrounding whitespace.
    """
    for node in net.nodes:
        text = f"{node}"
        if (text.splitlines() != [text] or text != text.strip()
                or text.startswith("#") or "," in text):
            raise ValidationError(
                f"node id {text!r} cannot be written to a network file: an id "
                "is non-empty, with no leading '#', comma, line break or "
                "surrounding whitespace"
            )
    lines = ["#nodes", *(f"{n}" for n in net.nodes),
             "#edges", *(f"{u},{v},{length}" for u, v, length in net.edges)]
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc
