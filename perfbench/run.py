"""ridemarket benchmark: closed-loop ``run()`` calls on named workloads.

One process calls ``ridemarket.run()`` on one episode after another, with no
threads and no pool, and reports work done per second at the workload's
stated instance size.

    python3 perfbench/run.py --workload {sweep,city,alliance} --seed N \\
        --seconds S --trace {0,1} [--demand-seed D]
    python3 perfbench/run.py --record    # rewrite reference digests
    python3 perfbench/run.py --ladder    # rewrite the scale ladder

``--seed`` orders the episodes of each pass; ``--demand-seed`` picks the
instance pool (see workloads.py).  Each run makes passes over the pool and
starts episodes until ``--seconds`` have elapsed.  Every episode's result is
checked against its reference digest and the money identity; a mismatch or
exception counts as failed.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` then makes one traced pass and prints the per-layer metrics,
writing spans and per-episode counts under ``.perfbench/``.  The last stdout
line is one JSON object.
"""
import time

START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread, set before numpy loads; setup probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
BASELINE = HERE / "baseline.json"
TRACE_DIR = ROOT / ".perfbench"

# setup_s is the median of several set-ups.  Most of set-up is importing
# numpy, scipy and ridemarket, which only a fresh process repeats, so the
# extra set-ups are child processes.
SETUP_PROBES = 4       # child processes timing setup, besides this one
P90_MIN_SAMPLES = 100  # so that at least ten samples lie beyond the p90

END_TO_END_UNITS = {
    "setup_s": "s",
    "episode_s_p50": "s",
    "episodes_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Reported from --trace 1 runs.  Times are inclusive of child spans and
# summed over the traced pass; engine.self_s is span time minus children.
LAYER_UNITS = {
    "episode_s_p90": "s",
    "single_ms_p50": "ms",
    "segmented_ms_p50": "ms",
    "cooperative_ms_p50": "ms",
    "bilateral_ms_p50": "ms",
    "central_ms_p50": "ms",
    "marketplace_ms_p50": "ms",
    "failed_ratio": "ratio",
    "rtv.best_route.calls": "count",
    "rtv.best_route.s": "s",
    "rtv.best_route.feasible_ratio": "ratio",
    "rtv.build_rv_graph.s": "s",
    "rtv.enumerate_trips.s": "s",
    "rtv.tv_edges.built": "count",
    "rtv.filter.keep_ratio": "ratio",
    "rtv.apply_market_structure.s": "s",
    "rtv.pair_shareable.calls": "count",
    "rtv.pair_shareable.s": "s",
    "rtv.pair_shareable.distinct_ratio": "ratio",
    "solve.assign.match.calls": "count",
    "solve.assign.match.s": "s",
    "solve.assign.edges_p50": "count",
    "solve.assign.edges_max": "count",
    "solve.lp.calls": "count",
    "solve.lp.s": "s",
    "solve.lp.per_assign": "ratio",
    "solve.lp.tableau_bytes_computed": "B",
    "solve.lp.tableau_bytes_max": "B",
    "solve.assign.valuation.calls": "count",
    "solve.assign.valuation.s": "s",
    "mechanisms.optimal_profit.calls": "count",
    "mechanisms.optimal_profit.s": "s",
    "mechanisms.optimal_profit.cache_hit_ratio": "ratio",
    "mechanisms.marketplace_epoch.s": "s",
    "mechanisms.bilateral_trading_round.s": "s",
    "mechanisms.central_trading_epoch.s": "s",
    "engine.characteristic_value.calls": "count",
    "engine.characteristic_value.s": "s",
    "mechanisms.allocations.s": "s",
    "solve.core_lp.calls": "count",
    "solve.core_lp.s": "s",
    "network.apsp.s": "s",
    "network.apsp.bytes_computed": "B",
    "engine.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def import_package():
    """Import ridemarket from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import ridemarket
    except ImportError as exc:
        raise BenchError(f"cannot import ridemarket from {SRC}: {exc}") from None
    if Path(ridemarket.__file__).resolve().parent.parent != SRC:
        raise BenchError(f"ridemarket imported from {ridemarket.__file__}, not {SRC}")
    return ridemarket


def load_reference(workload: str, demand_seed: int) -> dict:
    try:
        refs = json.loads(REFERENCE.read_text())
    except FileNotFoundError:
        raise BenchError(f"missing {REFERENCE}") from None
    try:
        return refs["digests"][workload][str(demand_seed)]
    except KeyError:
        raise BenchError(
            f"no reference digests for {workload} at demand seed {demand_seed}; "
            f"recorded seeds: {sorted(refs['digests'].get(workload, {}))}"
        ) from None


def setup(args):
    """Import, build the network, generate and validate the pool, load digests."""
    rm = import_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.demand_seed is None:
        args.demand_seed = workloads.DEFAULT_DEMAND_SEED
    net = workloads.make_network(args.workload)
    pool = workloads.build_pool(args.workload, net, args.demand_seed)
    return rm, pool, load_reference(args.workload, args.demand_seed)


def digest(rm, metrics) -> str:
    doc = json.dumps(rm.metrics_to_dict(metrics), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode()).hexdigest()


def money_error(m) -> str | None:
    if m.total_fares - m.total_driver_pay != m.total_profit + m.broker_balance:
        return (f"money identity broken: fares {m.total_fares} - pay {m.total_driver_pay}"
                f" != profit {m.total_profit} + broker {m.broker_balance}")
    return None


def episode(rm, inst, reference: dict, call) -> tuple[float, str | None]:
    """Time one run() call and check its result; returns (seconds, error)."""
    t0 = time.perf_counter()
    try:
        metrics = call(inst.scenario)
    except Exception as exc:  # noqa: BLE001  (the loop must go on and count it)
        return time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    error = money_error(metrics)
    if error is None and digest(rm, metrics) != reference.get(inst.key):
        error = "result digest differs from the reference"
    return elapsed, error


def measure(rm, pool, reference, order: random.Random, seconds: float):
    """Passes over the pool, each in a fresh seeded order, starting episodes
    until `seconds` have elapsed.  Returns ([(instance, seconds)], errors)."""
    samples: list[tuple] = []
    errors: list[str] = []
    t0 = time.perf_counter()
    while True:
        idx = list(range(len(pool)))
        order.shuffle(idx)
        for i in idx:
            if samples and time.perf_counter() - t0 >= seconds:
                return samples, errors
            inst = pool[i]
            elapsed, error = episode(rm, inst, reference, rm.run)
            samples.append((inst, elapsed))
            if error:
                errors.append(f"{inst.key}: {error}")


def setup_probe_seconds(workload: str, demand_seed: int) -> list[float]:
    """Setup time of fresh processes, each from script start to ready."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--demand-seed", str(demand_seed)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def traced_pass(rm, pool, reference, workload: str, order: random.Random):
    """One pass with every public layer call wrapped in a span."""
    import tracing
    import workloads

    tracer = tracing.Tracer()
    idx = list(range(len(pool)))
    order.shuffle(idx)
    errors = []
    tracer.install()
    try:
        for i in idx:
            inst = pool[i]
            _, error = episode(
                rm, inst, reference,
                lambda sc, key=inst.key: tracer.run_episode(key, rm.run, sc))
            if error:
                errors.append(f"{inst.key} (traced): {error}")
    finally:
        tracer.uninstall()
    builds = []
    for _ in range(5):
        t0 = time.perf_counter()
        workloads.make_network(workload)
        builds.append(time.perf_counter() - t0)
    layers = tracer.layer_metrics()
    layers["network.apsp.s"] = statistics.median(builds)
    tracemalloc.start()
    try:
        workloads.make_network(workload)
        layers["network.apsp.bytes_computed"] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # counts per episode in pool order, so any two traced runs compare line by line
    dump = tracer.dump()
    position = {inst.key: i for i, inst in enumerate(pool)}
    dump["episodes"].sort(key=lambda e: position[e["episode"]])
    return tracer.episode_s, layers, errors, dump


def instance_means(samples) -> dict:
    """Mean seconds of each instance run, keyed by instance key.

    Statistics over these, not over raw samples, do not depend on where
    the last pass stopped, which would shift the mix of instances.
    """
    runs: dict[str, list] = {}
    for inst, t in samples:
        runs.setdefault(inst.key, [inst]).append(t)
    return {key: (ts[0], statistics.mean(ts[1:])) for key, ts in runs.items()}


def overhead_ratio(means: dict, traced: dict[str, float]) -> float:
    """Traced over untraced seconds, on the instances both measured."""
    return sum(traced[k] for k in means) / sum(m for _, m in means.values())


def p50_by_structure(means: dict) -> dict[str, float]:
    import workloads
    out = {}
    for kind in workloads.SWEEP_KINDS:
        times = [m for inst, m in means.values() if inst.scenario.structure.kind == kind]
        out[f"{kind}_ms_p50"] = 1000 * statistics.median(times) if times else 0.0
    return out


def bench(args) -> dict:
    rm, pool, reference = setup(args)
    setup_s = time.perf_counter() - START
    order = random.Random(args.seed)
    samples, errors = measure(rm, pool, reference, order, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    times = [t for _, t in samples]
    attempted = len(samples)
    means = instance_means(samples)
    instance_s = [m for _, m in means.values()]
    by_structure = {k: round(v, 1) for k, v in p50_by_structure(means).items() if v}
    print(f"{args.workload}: {attempted} episodes over {len(means)} of {len(pool)} "
          f"instances, {sum(times):.2f} s timed; {by_structure}", file=sys.stderr)
    if not args.trace:
        setups = [setup_s] + setup_probe_seconds(args.workload, args.demand_seed)
        print(f"setup samples {[round(s, 3) for s in setups]}", file=sys.stderr)
        metrics = {
            "setup_s": statistics.median(setups),
            "episode_s_p50": statistics.median(instance_s),
            "episodes_per_s": len(instance_s) / sum(instance_s),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    else:
        traced, layers, traced_errors, dump = traced_pass(
            rm, pool, reference, args.workload, order)
        errors += traced_errors
        attempted += len(pool)
        metrics = dict(layers)
        metrics.update(p50_by_structure(means))
        metrics["episode_s_p90"] = (statistics.quantiles(times, n=10)[-1]
                                    if len(times) >= P90_MIN_SAMPLES else 0.0)
        metrics["failed_ratio"] = len(errors) / attempted
        metrics["trace.overhead_ratio"] = overhead_ratio(means, traced)
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(dump))
        print(f"spans and per-episode counts written to {path}", file=sys.stderr)
        units = LAYER_UNITS
    for line in errors:
        print(f"FAILED {line}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def record() -> None:
    """Run every pool instance once and store its result digest."""
    rm = import_package()
    import workloads
    digests: dict = {}
    for workload in workloads.WORKLOADS:
        net = workloads.make_network(workload)
        for demand_seed in (workloads.DEFAULT_DEMAND_SEED, workloads.HELDOUT_DEMAND_SEED):
            table = digests.setdefault(workload, {}).setdefault(str(demand_seed), {})
            for inst in workloads.build_pool(workload, net, demand_seed):
                metrics = rm.run(inst.scenario)
                error = money_error(metrics)
                if error:
                    raise BenchError(f"{workload} {inst.key}: {error}")
                table[inst.key] = digest(rm, metrics)
            print(f"recorded {workload} demand seed {demand_seed}: {len(table)}",
                  file=sys.stderr)
    REFERENCE.write_text(json.dumps({
        "about": "sha256 of canonical io.metrics_to_dict JSON per episode",
        "digests": digests,
    }, indent=1, sort_keys=True) + "\n")


def environment() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def ladder() -> None:
    """One traced run per rung of the scale ladder; writes baseline.json."""
    rm = import_package()
    import tracing
    import workloads
    net = rm.make_grid(10, 10, 400.0, 8.0)
    rungs = []
    for n in (40, 80, 160, 320, 480, 640):
        scenario = workloads.ladder_scenario(net, n, n * 3 // 10, n, 1)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.run_episode(str(n), rm.run, scenario)
        finally:
            tracer.uninstall()
        lm = tracer.layer_metrics()
        rung = {
            "requests": n,
            "vehicles": n * 3 // 10,
            "seconds_traced": round(tracer.episode_s[str(n)], 3),
            "rtv_s": round(lm["rtv.build_rv_graph.s"] + lm["rtv.enumerate_trips.s"]
                           + lm["rtv.apply_market_structure.s"], 3),
            "solve_s": round(lm["solve.assign.match.s"], 3),
            "solve_lp_s": round(lm["solve.lp.s"], 3),
            "engine_self_s": round(lm["engine.self_s"], 3),
            "best_route_calls": lm["rtv.best_route.calls"],
            "assign_calls": lm["solve.assign.match.calls"],
            "lp_calls": lm["solve.lp.calls"],
            "lp_per_assign": round(lm["solve.lp.per_assign"], 2),
            "tableau_bytes_max": lm["solve.lp.tableau_bytes_max"],
        }
        rungs.append(rung)
        print(json.dumps(rung), file=sys.stderr)
    doc = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    doc["environment"] = environment()
    doc["ladder"] = {
        "scenario": "ROADMAP ladder: 10x10 grid, n requests from default_rng(n), "
                    "vehicles 0.3 n split over A and B, seed 1, single, min_delay_penalty",
        "rungs": rungs,
    }
    BASELINE.write_text(json.dumps(doc, indent=1) + "\n")


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--demand-seed", type=int,
                   help="first demand seed of the pool (default: workloads.DEFAULT_DEMAND_SEED)")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up seconds and exit (one setup_s sample)")
    p.add_argument("--record", action="store_true",
                   help="rewrite reference.json from the code in this checkout")
    p.add_argument("--ladder", action="store_true",
                   help="one traced run per ladder rung, 40 to 640 requests "
                        "(about three minutes), written to baseline.json")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    try:
        if args.record:
            record()
            return 0
        if args.ladder:
            ladder()
            return 0
        if args.setup_only:
            setup(args)
            print(json.dumps({"setup_s": time.perf_counter() - START}))
            return 0
        result = bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
