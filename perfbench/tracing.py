"""Spans and counts around ridemarket's public calls, from outside the package.

``Tracer.install`` replaces module attributes with timing wrappers: names a
module imported from another (``engine.solve_assignment``) and names a
module looks up in its own globals (``rtv.best_route``), so every inner call
goes through a wrapper.  Only public names are wrapped, so private helpers
can change freely.  Each call records one span ``[name, start, end, parent]``;
hooks add the counts that ratios need.  ``uninstall`` restores the originals.

Span times are read from a clock that stops while hooks run, so the
tracer's own computation is not charged to any span.
"""
from __future__ import annotations

import importlib
import statistics
import tracemalloc
from collections import Counter
from time import perf_counter

# (module, attribute, span name).  The same function reached through two
# modules gets two names, which is how callers are told apart: engine's
# solve_assignment matches riders, mechanisms' values them; solve's own
# solve_lp runs branch-and-bound node LPs, mechanisms' runs core LPs.
WRAPS = (
    ("ridemarket.rtv", "best_route", "rtv.best_route"),
    ("ridemarket.rtv", "pair_shareable", "rtv.pair_shareable"),
    ("ridemarket.rtv", "build_rv_graph", "rtv.build_rv_graph"),
    ("ridemarket.rtv", "enumerate_trips", "rtv.enumerate_trips"),
    ("ridemarket.engine", "apply_market_structure", "rtv.apply_market_structure"),
    ("ridemarket.engine", "solve_assignment", "solve.assign.match"),
    ("ridemarket.mechanisms", "solve_assignment", "solve.assign.valuation"),
    ("ridemarket.solve", "solve_lp", "solve.lp"),
    ("ridemarket.mechanisms", "solve_lp", "solve.core_lp"),
    ("ridemarket.mechanisms", "optimal_profit", "mechanisms.optimal_profit"),
    ("ridemarket.engine", "marketplace_epoch", "mechanisms.marketplace_epoch"),
    ("ridemarket.engine", "bilateral_trading_round", "mechanisms.bilateral_trading_round"),
    ("ridemarket.engine", "central_trading_epoch", "mechanisms.central_trading_epoch"),
    ("ridemarket.engine", "shapley", "mechanisms.allocations"),
    ("ridemarket.engine", "in_core", "mechanisms.allocations"),
    ("ridemarket.engine", "epm_allocate", "mechanisms.allocations"),
    ("ridemarket.engine", "contribution_weights", "mechanisms.allocations"),
    ("ridemarket.engine", "contribution_allocate", "mechanisms.allocations"),
    ("ridemarket.engine", "characteristic_value", "engine.characteristic_value"),
    # coalition re-simulation calls run() again: a child span, not an episode
    ("ridemarket.engine", "run", "engine.run"),
)

EPISODE = "episode"
# Spans whose self time is the engine's own work: movement, billing, bookkeeping.
ENGINE_SPANS = (EPISODE, "engine.run", "engine.characteristic_value")


class Tracer:
    """In-memory spans plus the counts the layer ratios need."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.match_edges: list[int] = []
        self.lp_peak_bytes: list[int] = []
        self.pairs: set = set()
        self.episode: str | None = None
        self.per_episode: list[dict] = []
        self.episode_s: dict[str, float] = {}  # span seconds of each episode
        self._saved: list = []
        self.hook_s = 0.0  # wall seconds spent in hooks, kept out of every span

    # -- wrapping ------------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter() - self.hook_s
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter() - self.hook_s
                stack.pop()
            if hook is not None:
                t0 = perf_counter()
                hook(self, idx, fn, args, kwargs, result)
                self.hook_s += perf_counter() - t0
            return result

        return traced

    def run_episode(self, key: str, fn, scenario):
        """Call fn(scenario) as one top-level episode span."""
        self.episode = key
        start_span = len(self.spans)
        before = Counter(self.counts)
        result = self._wrap(EPISODE, fn)(scenario)
        _, start, end, _ = self.spans[start_span]
        self.episode_s[key] = end - start
        calls = Counter(s[0] for s in self.spans[start_span:])
        counts = self.counts - before
        self.per_episode.append({
            "episode": key,
            "calls": dict(sorted(calls.items())),
            "counts": dict(sorted(counts.items())),
        })
        return result

    # -- summaries -----------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter, float]:
        """(calls by span name, inclusive seconds by name, engine self seconds)."""
        calls: Counter = Counter()
        seconds: Counter = Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            seconds[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        engine_self = sum(
            (end - start) - child[i]
            for i, (name, start, end, _) in enumerate(self.spans)
            if name in ENGINE_SPANS
        )
        return calls, seconds, engine_self

    def layer_metrics(self) -> dict[str, float]:
        calls, sec, engine_self = self.totals()
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        assign_calls = calls["solve.assign.match"] + calls["solve.assign.valuation"]
        return {
            "rtv.best_route.calls": calls["rtv.best_route"],
            "rtv.best_route.s": sec["rtv.best_route"],
            "rtv.best_route.feasible_ratio": ratio(c["best_route.feasible"],
                                                   calls["rtv.best_route"]),
            "rtv.build_rv_graph.s": sec["rtv.build_rv_graph"],
            "rtv.enumerate_trips.s": sec["rtv.enumerate_trips"],
            "rtv.tv_edges.built": c["tv_edges.built"],
            "rtv.filter.keep_ratio": ratio(c["filter.kept"], c["filter.in"]),
            "rtv.apply_market_structure.s": sec["rtv.apply_market_structure"],
            "rtv.pair_shareable.calls": calls["rtv.pair_shareable"],
            "rtv.pair_shareable.s": sec["rtv.pair_shareable"],
            "rtv.pair_shareable.distinct_ratio": ratio(len(self.pairs),
                                                       calls["rtv.pair_shareable"]),
            "solve.assign.match.calls": calls["solve.assign.match"],
            "solve.assign.match.s": sec["solve.assign.match"],
            "solve.assign.edges_p50": (statistics.median(self.match_edges)
                                       if self.match_edges else 0),
            "solve.assign.edges_max": max(self.match_edges, default=0),
            "solve.lp.calls": calls["solve.lp"],
            "solve.lp.s": sec["solve.lp"],
            "solve.lp.per_assign": ratio(calls["solve.lp"], assign_calls),
            "solve.lp.tableau_bytes_computed": sum(self.lp_peak_bytes),
            "solve.lp.tableau_bytes_max": max(self.lp_peak_bytes, default=0),
            "solve.assign.valuation.calls": calls["solve.assign.valuation"],
            "solve.assign.valuation.s": sec["solve.assign.valuation"],
            "mechanisms.optimal_profit.calls": calls["mechanisms.optimal_profit"],
            "mechanisms.optimal_profit.s": sec["mechanisms.optimal_profit"],
            "mechanisms.optimal_profit.cache_hit_ratio": ratio(
                c["optimal_profit.hits"], calls["mechanisms.optimal_profit"]),
            "mechanisms.marketplace_epoch.s": sec["mechanisms.marketplace_epoch"],
            "mechanisms.bilateral_trading_round.s": sec["mechanisms.bilateral_trading_round"],
            "mechanisms.central_trading_epoch.s": sec["mechanisms.central_trading_epoch"],
            "engine.characteristic_value.calls": calls["engine.characteristic_value"],
            "engine.characteristic_value.s": sec["engine.characteristic_value"],
            "mechanisms.allocations.s": sec["mechanisms.allocations"],
            "solve.core_lp.calls": calls["solve.core_lp"],
            "solve.core_lp.s": sec["solve.core_lp"],
            "engine.self_s": engine_self,
        }

    def dump(self) -> dict:
        """The span stream and per-episode counts, for writing out."""
        return {
            # start_s and end_s are on the tracer's clock, which stops during hooks
            "span_fields": ["name", "start_s", "end_s", "parent"],
            "spans": self.spans,
            "episodes": self.per_episode,
        }


# -- hooks: called after a span closes, with its index, call and result -----

def _best_route(tr: Tracer, idx, fn, args, kwargs, result) -> None:
    tr.counts["best_route.feasible"] += result is not None


def _pair_shareable(tr: Tracer, idx, fn, args, kwargs, result) -> None:
    first, second = args[0], args[1]
    tr.pairs.add((tr.episode, *sorted((first.id, second.id))))


def _enumerate_trips(tr: Tracer, idx, fn, args, kwargs, result) -> None:
    tr.counts["tv_edges.built"] += len(result.tv_edges)


def _apply_market_structure(tr: Tracer, idx, fn, args, kwargs, result) -> None:
    tr.counts["filter.in"] += len(args[0].tv_edges)
    tr.counts["filter.kept"] += len(result.tv_edges)


def _match(tr: Tracer, idx, fn, args, kwargs, result) -> None:
    tr.match_edges.append(len(args[0].graph.tv_edges))


def _node_lp(tr: Tracer, idx, fn, args, kwargs, result) -> None:
    # Solve the LP again under tracemalloc, so the timed call runs without it:
    # the peak of the Python and numpy allocations the LP makes, tableau
    # included.  Memory outside those allocators (C or C++ solvers) is not
    # seen.  Kept apart from the counts: freelists can move it by a few bytes.
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        tr.lp_peak_bytes.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()


def _optimal_profit(tr: Tracer, idx, fn, args, kwargs, result) -> None:
    # Answered with no traced work beneath it: from the cache, or an empty
    # pool or fleet.  Every other call builds a graph and solves it.
    if len(tr.spans) == idx + 1:
        tr.counts["optimal_profit.hits"] += 1


_HOOKS = {
    "rtv.best_route": _best_route,
    "rtv.pair_shareable": _pair_shareable,
    "rtv.enumerate_trips": _enumerate_trips,
    "rtv.apply_market_structure": _apply_market_structure,
    "solve.assign.match": _match,
    "solve.lp": _node_lp,
    "mechanisms.optimal_profit": _optimal_profit,
}
