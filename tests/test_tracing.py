"""The benchmark's tracer still wraps the calls it times.

``perfbench/tracing.py`` wraps stage functions by module and attribute
name, so a renamed or re-imported function would silently drop its spans.
This reads the tracer as it is and runs one small episode of each
mechanism under it.
"""
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

from ridemarket import engine
from ridemarket.engine import PlatformSpec, Scenario
from ridemarket.model import Request
from ridemarket.network import make_grid
from ridemarket.rtv import MarketStructure

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _scenarios():
    """Marketplace, bilateral and central on demand one platform cannot
    serve alone, and a cooperative run with allocations."""
    net = make_grid(6, 6, edge_len=400.0, speed=8.0)
    nodes = sorted(net.node_set())
    rng = np.random.default_rng(71)
    trips = [rng.choice(nodes, size=2, replace=False) for _ in range(6)]

    def requests(platforms):
        return [Request(id=f"r{i}", origin=o, destination=d, request_time=float(i * 20),
                        platform=platforms[i % len(platforms)])
                for i, (o, d) in enumerate(trips)]

    starved = [PlatformSpec("A", 1), PlatformSpec("B", 3)]
    for kind in ("marketplace", "bilateral", "central"):
        yield kind, Scenario(net=net, requests=requests("A"), platforms=starved,
                             structure=MarketStructure(kind), seed=79)
    yield "cooperative", Scenario(
        net=net, requests=requests("AB"), platforms=[PlatformSpec("A", 2), PlatformSpec("B", 2)],
        structure=MarketStructure("cooperative"), seed=79)


def test_every_wrap_resolves_and_records_its_span():
    tracing = _load_tracing()
    for module_name, attr, _ in tracing.WRAPS:
        assert callable(getattr(importlib.import_module(module_name), attr)), attr
    original_run = engine.run
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for kind, scenario in _scenarios():
            metrics = tracer.run_episode(kind, engine.run, scenario)
    finally:
        tracer.uninstall()
    assert engine.run is original_run
    assert metrics.allocations["epm"]["status"] == "ok"
    calls = Counter(span[0] for span in tracer.spans)
    for name in ("mechanisms.marketplace_epoch", "mechanisms.bilateral_trading_round",
                 "mechanisms.central_trading_epoch", "mechanisms.optimal_profit",
                 "mechanisms.allocations", "engine.characteristic_value",
                 "solve.core_lp"):
        assert calls[name] >= 1, name
