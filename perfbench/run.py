"""Repository benchmark: one seeded workload per invocation, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload report-weighted --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload walk-uniform --seed 1 --seconds 28 --trace 1
    python3 perfbench/run.py --workload report-weighted --seed 3 --pin >> perfbench/pins.jsonl

``--trace 0`` times the workload untraced and prints the end-to-end metrics,
their times scaled to the reference host speed by calibration probes taken
between iterations (see calibrate.py); ``--trace 1`` alternates untraced and traced iterations and prints the
per-layer split of the median traced iteration.  Either way the last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``; the
line before it records the environment.  ``--pin`` prints the reference
path's digest for one seed instead (see README.md).
"""

import argparse
import contextlib
import gc
import json
import multiprocessing
import os
import pathlib
import platform
import resource
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PINS = HERE / "pins.jsonl"

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("qps", "1/s"),
    ("read_p50_ms", "ms"),
    ("read_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric of the traced run.
PER_LAYER = (
    ("indexed.build_s", "s"),
    ("sync.calls", "count"),
    ("sync.self_s", "s"),
    ("sync.local", "count"),
    ("sync.full", "count"),
    ("plan.self_s", "s"),
    ("plan.rows", "count"),
    ("np_traverse.calls", "count"),
    ("np_traverse.rows", "count"),
    ("np_traverse.rows_per_call", "rows/call"),
    ("np_traverse.self_s", "s"),
    ("list_traverse.calls", "count"),
    ("list_traverse.self_s", "s"),
    ("repair.calls", "count"),
    ("repair.self_s", "s"),
    ("score.calls", "count"),
    ("score.strategies", "count"),
    ("score.self_s", "s"),
    ("best_response.calls", "count"),
    ("best_response.self_s", "s"),
    ("cache.rows_computed", "count"),
    ("cache.rows_reused", "count"),
    ("cache.rows_repaired", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.chunks_evicted", "count"),
    ("cache.evicted_recomputes", "count"),
    ("cache.bytes", "B"),
    ("fractional.calls", "count"),
    ("fractional.self_s", "s"),
    ("fractional.lp_solved", "count"),
    ("fractional.lp_skipped", "count"),
    ("service.batches", "count"),
    ("service.coalescing", "queries/batch"),
    ("service.batch_s", "s"),
    ("service.update_s", "s"),
    ("service.queue_wait_s", "s"),
    ("unattributed_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

MIN_ITERATIONS = 2
MIN_SETUPS = 7


class Refused(Exception):
    """The run cannot produce a trustworthy result (printed, exit code 3)."""


def quantile(values, q):
    """Nearest-rank quantile ``q`` in [0, 1] of ``values``."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def tail_q(count, top=0.9):
    """The highest quantile up to ``top`` with at least ten samples beyond
    it (the median for fewer than 20 samples); continuous in ``count``."""
    return min(top, max(0.5, 1.0 - 10.0 / count))


def tally(iterations, expected):
    """``(attempted, failed)``: every operation of an iteration whose digest
    is not ``expected`` fails, as does every error response."""
    attempted = failed = 0
    for it in iterations:
        attempted += it["ops"]
        failed += it["ops"] if it["digest"] != expected else it["errors"]
    return attempted, failed


def engine_stats(workload, state):
    return (
        [engine.snapshot_stats() for engine in workload.engines(state)],
        [dict(engine.stats) for engine in workload.fractional_engines(state)],
    )


def stats_delta(before, after):
    total = {}
    for old, new in zip(before, after):
        for key, value in new.items():
            total[key] = total.get(key, 0) + value - old.get(key, 0)
    return total


def iteration(workload, inputs, tracer=None):
    """Set up once and run the timed phase once; optionally traced."""
    from spans import tracing
    from workloads import Samples

    gc.collect()
    samples = Samples()
    clock = time.perf_counter
    with tracing(tracer) if tracer else contextlib.nullcontext():
        setup_span = tracer.open("setup") if tracer else None
        started = clock()
        state = workload.setup(inputs)
        setup_s = clock() - started
        if tracer:
            tracer.close(setup_span)
            tracer.counts.clear()
        before = engine_stats(workload, state)
        root = tracer.open("wall") if tracer else None
        started = clock()
        output = workload.run(state, samples)
        wall_s = clock() - started
        if tracer:
            tracer.close(root)
        after = engine_stats(workload, state)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "samples": samples,
        "output": output,
        "ops": workload.ops(output),
        "errors": workload.errors(output),
        "digest": workload.digest(output),
        "backends": [engine.backend for engine in workload.engines(state)],
        "fractional_engines": [type(e).__name__ for e in workload.fractional_engines(state)],
        "cost_delta": stats_delta(before[0], after[0]),
        "fractional_delta": stats_delta(before[1], after[1]),
        "cache_bytes": sum(engine.cache_bytes() for engine in workload.engines(state)),
    }
    if tracer:
        result["layers"] = layer_metrics(tracer, setup_span, root, result)
    return result


def layer_metrics(tracer, setup_span, root, it):
    """The per-layer split of one traced iteration (see PER_LAYER)."""
    split = tracer.self_times(root)
    counts = tracer.counts
    cost, frac = it["cost_delta"], it["fractional_delta"]
    samples = it["samples"]

    def calls(name):
        return split.get(name, {}).get("calls", 0)

    def self_s(name):
        return split.get(name, {}).get("self_s", 0.0)

    wall_ns = tracer.spans[root][2] - tracer.spans[root][1]
    touched = sum(cost.get(key, 0) for key in ("rows_computed", "rows_reused", "rows_repaired"))
    served = sum(d * q for d, q in samples.batches)
    metrics = {
        "indexed.build_s": self_s("indexed.build")
        + tracer.self_times(setup_span).get("indexed.build", {}).get("self_s", 0.0),
        "sync.calls": calls("sync"),
        "sync.self_s": self_s("sync"),
        "sync.local": cost.get("local_syncs", 0),
        "sync.full": cost.get("full_syncs", 0),
        "plan.self_s": self_s("plan"),
        "plan.rows": counts["plan"],
        "np_traverse.calls": calls("np_traverse"),
        "np_traverse.rows": counts["np_traverse"],
        "np_traverse.rows_per_call": counts["np_traverse"] / max(1, calls("np_traverse")),
        "np_traverse.self_s": self_s("np_traverse"),
        "list_traverse.calls": calls("list_traverse"),
        "list_traverse.self_s": self_s("list_traverse"),
        "repair.calls": calls("repair"),
        "repair.self_s": self_s("repair"),
        "score.calls": calls("score"),
        "score.strategies": counts["score"],
        "score.self_s": self_s("score"),
        "best_response.calls": calls("best_response"),
        "best_response.self_s": self_s("best_response"),
        "cache.rows_computed": cost.get("rows_computed", 0),
        "cache.rows_reused": cost.get("rows_reused", 0),
        "cache.rows_repaired": cost.get("rows_repaired", 0),
        "cache.hit_ratio": cost.get("rows_reused", 0) / touched if touched else 0.0,
        "cache.chunks_evicted": cost.get("chunks_evicted", 0),
        "cache.evicted_recomputes": cost.get("evicted_recomputes", 0),
        "cache.bytes": it["cache_bytes"],
        "fractional.calls": calls("fractional"),
        "fractional.self_s": self_s("fractional"),
        "fractional.lp_solved": frac.get("lp_solved", 0),
        "fractional.lp_skipped": frac.get("lp_skipped", 0),
        "service.batches": calls("service.batch"),
        "service.coalescing": counts["service.batch"] / max(1, calls("service.batch")),
        "service.batch_s": self_s("service.batch"),
        "service.update_s": self_s("service.update"),
        "service.queue_wait_s": sum(samples.reads) - served if samples.batches else 0.0,
        "unattributed_s": self_s("wall"),
        "trace.wall_s": wall_ns * 1e-9,
    }
    metrics["_split"] = split
    return metrics


def check_layers(workload, it):
    """Raise :class:`Refused` when a traced iteration skipped its layers."""
    used, bypassed, _ = workload.guard
    split = it["layers"]["_split"]
    problems = [f"{layer} never ran" for layer in used if layer not in split]
    problems += [
        f"{layer} ran {split[layer]['calls']} times" for layer in bypassed if layer in split
    ]
    if problems:
        raise Refused(f"{workload.name} did not exercise its layers: {', '.join(problems)}")


def check_engines(workload, it):
    """Raise :class:`Refused` when an iteration resolved the wrong backend
    or left one of its engine counters untouched."""
    wrong = [b for b in it["backends"] if b != workload.backend]
    if wrong or not it["backends"]:
        raise Refused(
            f"{workload.name} expects backend {workload.backend!r}, resolved {it['backends']}"
        )
    if any(name != "FractionalEngine" for name in it["fractional_engines"]):
        raise Refused(f"{workload.name} needs the scipy-backed FractionalEngine")
    idle = [key for key in workload.guard[2] if not it["cost_delta"].get(key)]
    if idle:
        raise Refused(f"{workload.name} never advanced {', '.join(idle)}")


def between_probes(workload, before, step):
    """Run ``step()`` after a calibration probe that read ``before`` seconds
    and probe again.  Returns ``(step's result, scale, probe after)``, where
    ``scale`` is the reference over the mean of the two probes, raised to
    the workload's ``host_sensitivity``."""
    import calibrate

    result = step()
    after = calibrate.probe()
    ratio = calibrate.REFERENCE_S / ((before + after) / 2)
    return result, ratio**workload.host_sensitivity, after


def measure(workload, inputs, seconds, traced):
    """One untimed warm-up iteration, then iterate until ``seconds`` of wall
    time are spent (at least twice), each iteration between calibration
    probes; traced runs alternate untraced and traced iterations.  Returns
    ``(warm-up, untraced, traced)``."""
    import calibrate
    from spans import Tracer

    warm_up = iteration(workload, inputs)
    check_engines(workload, warm_up)
    plain, with_trace = [], []
    last = calibrate.probe()

    def probed(tracer=None):
        nonlocal last
        it, scale, last = between_probes(
            workload, last, lambda: iteration(workload, inputs, tracer)
        )
        it["scale"] = scale
        return it

    started = time.perf_counter()
    while (
        len(plain) < MIN_ITERATIONS
        or (traced and not with_trace)
        or time.perf_counter() - started < seconds
    ):
        plain.append(probed())
        check_engines(workload, plain[-1])
        if traced:
            with_trace.append(probed(Tracer()))
            check_layers(workload, with_trace[-1])
        for it in plain + with_trace:
            it["output"] = None  # only the warm-up's output is spot-checked
    return warm_up, plain, with_trace


def extra_setups(workload, inputs, count):
    """Scaled set-up times only, for workloads whose iterations are too few."""
    import calibrate

    def setup_s():
        gc.collect()
        started = time.perf_counter()
        workload.setup(inputs)
        return time.perf_counter() - started

    times = []
    last = calibrate.probe()
    for _ in range(count):
        elapsed, scale, last = between_probes(workload, last, setup_s)
        times.append(elapsed * scale)
    return times


def end_to_end(plain, setups):
    """End-to-end metrics from scaled times (``setups`` are scaled already),
    and the ``env`` extras.  Read quantiles are taken per iteration and their
    median reported, so one iteration in a slow moment cannot own the tail."""
    reads = [[s * it["scale"] for s in it["samples"].reads] for it in plain]
    pooled = [s for chunk in reads for s in chunk]
    updates = [s * it["scale"] for it in plain for s in it["samples"].updates]
    walls = [it["wall_s"] * it["scale"] for it in plain]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "qps": sum(it["ops"] for it in plain) / sum(walls),
        "read_p50_ms": statistics.median(quantile(chunk, 0.5) for chunk in reads) * 1e3,
        "read_p90_ms": statistics.median(
            quantile(chunk, tail_q(len(chunk))) for chunk in reads
        ) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, {
        "scales": [it["scale"] for it in plain],
        "measured_wall_s": statistics.median(it["wall_s"] for it in plain),
        "read_samples": [len(chunk) for chunk in reads],
        "read_tail_q": tail_q(min(len(chunk) for chunk in reads)),
        "read_p99_ms": quantile(pooled, tail_q(len(pooled), 0.99)) * 1e3,
        "update_samples": len(updates),
        "update_p50_ms": quantile(updates, 0.5) * 1e3,
        "update_tail_q": tail_q(len(updates)),
        "update_p90_ms": quantile(updates, tail_q(len(updates))) * 1e3,
        "update_p99_ms": quantile(updates, tail_q(len(updates), 0.99)) * 1e3,
    }


def load_pins(path):
    pins = {}
    if path.exists():
        for line in path.read_text().splitlines():
            if line.strip():
                entry = json.loads(line)
                pins[(entry["workload"], entry["seed"])] = entry["digest"]
    return pins


def environment(seed, workload_name, traced, backends):
    import numpy
    from repro.experiments.parallel import last_run_stats

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    env = {
        "workload": workload_name,
        "seed": seed,
        "trace": int(traced),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "backends": backends,
        "child_processes": len(multiprocessing.active_children()),
        "parallel_map_cells": last_run_stats().get("cells", 0),
        "REPRO_PROCESSES": os.environ.get("REPRO_PROCESSES"),
    }
    if env["child_processes"] or env["parallel_map_cells"]:
        raise Refused("the run was not a single process without a worker pool")
    return env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="print the reference digest")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no library sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import numpy  # noqa: F401
    except ImportError:
        print("perfbench: numpy is missing; the workloads need the numpy kernels", file=sys.stderr)
        return 3
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        known = ", ".join(WORKLOADS)
        print(f"perfbench: unknown workload {args.workload!r}; one of {known}", file=sys.stderr)
        return 2
    inputs = workload.make_inputs(args.seed)
    if args.pin:
        digest = workload.reference_digest(inputs)
        print(json.dumps({"workload": workload.name, "seed": args.seed, "digest": digest}))
        return 0

    try:
        warm_up, plain, with_trace = measure(workload, inputs, args.seconds, bool(args.trace))
        setups = [it["setup_s"] * it["scale"] for it in plain + with_trace]
        if len(setups) < MIN_SETUPS and statistics.median(setups) < 1.0:
            setups += extra_setups(workload, inputs, MIN_SETUPS - len(setups))
        metrics, sample_info = end_to_end(plain, setups)
        backends = plain[0]["backends"] + plain[0]["fractional_engines"]
        env = environment(args.seed, workload.name, args.trace, backends)
    except Refused as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    pinned = load_pins(PINS).get((workload.name, args.seed))
    if pinned is not None:
        expected, check = pinned, "pinned reference digest"
    else:
        checked, wrong = workload.spot_check(inputs, warm_up["output"], args.seed)
        expected = warm_up["digest"] if not wrong else None
        check = f"unpinned seed: {checked - wrong}/{checked} reference spot checks agree"
    attempted, failed = tally([warm_up, *plain, *with_trace], expected)

    env.update(sample_info)
    env.update(
        iterations=len(plain),
        traced_iterations=len(with_trace),
        setups=len(setups),
        check=check,
        digest=warm_up["digest"],
        iteration_walls_s=[it["wall_s"] for it in plain],
        error_rate=failed / attempted,
    )
    if with_trace:
        layers = sorted(with_trace, key=lambda it: it["layers"]["trace.wall_s"])
        chosen = dict(layers[(len(layers) - 1) // 2]["layers"])
        traced_wall = statistics.median(it["wall_s"] for it in with_trace)
        chosen["trace.overhead_frac"] = traced_wall / sample_info["measured_wall_s"] - 1.0
        units = PER_LAYER
        values = chosen
    else:
        units = END_TO_END
        values = metrics
    print(
        f"{workload.name} seed={args.seed}: "
        + ", ".join(f"{name}={values[name]:.6g}{unit}" for name, unit in units)
    )
    print("env " + json.dumps(env, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
