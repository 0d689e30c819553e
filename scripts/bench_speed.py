"""Speed benchmark: every fast path against a reference the repo keeps.

One declarative :data:`SCENARIOS` table drives the script.  Each scenario
names a workload, its sizes and smoke sizes, the engine arm, and a
reference arm from :data:`REFERENCES`: the dict/LP oracle
(``engine=False``), the list kernels (``backend="python"``), or a serial run
(``processes=1``).  Both arms must return the same result, so every speedup
doubles as a parity check.  Arms are built outside the timed region; each
timing is the best over the scenario's repeats, on a fresh arm per repeat.
A floored scenario gates every compared, non-smoke row at or above its
``floor_n``.

Rows go to ``benchmarks/output/BENCH_speed.json`` (one row list, merged by
scenario name) and ``BENCH_speed.txt``.  Each row carries the engine arm's
counters: ``CostEngine.snapshot_stats()`` (with ``traversal_seconds``),
``FractionalEngine.stats``, or ``last_run_stats()`` for worker counts.

Usage::

    PYTHONPATH=src python scripts/bench_speed.py                  # every scenario
    PYTHONPATH=src python scripts/bench_speed.py report sweep     # a subset, by name
    PYTHONPATH=src python scripts/bench_speed.py --smoke [NAME ...]
    PYTHONPATH=src python scripts/bench_speed.py --check-floors   # regression gate only
    PYTHONPATH=src python scripts/bench_speed.py --readme-table   # README.md's table

Scenarios that need numpy or scipy are skipped, with the reason printed,
where those are missing.  ``--check-floors`` runs nothing: it re-reads this
recording and exits 0 when every floor holds, 1 on a violation or a missing
recording, and 2 on a corrupt one.
"""

import argparse
import importlib.util
import json
import os
import pathlib
import platform
import random
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import (  # noqa: E402
    BBCGame, FractionalBBCGame, UniformBBCGame, epsilon_equilibrium_report,
    equilibrium_report, exhaustive_equilibrium_search, iterated_best_response,
)
from repro.core.search import candidate_strategy_sets  # noqa: E402
from repro.dynamics import run_best_response_walk  # noqa: E402
from repro.engine import CostEngine, FractionalEngine  # noqa: E402
from repro.experiments import (  # noqa: E402
    default_processes, last_run_stats, max_cost_first_convergence_study,
)
from repro.experiments.workloads import random_initial_profile  # noqa: E402
from repro.reliability import atomic_write_text  # noqa: E402

OUTPUT_DIR = REPO_ROOT / "benchmarks" / "output"
K = 2
PROFILE_SEED = 7
CANDIDATE_SEED = 11
#: Candidate targets per node in the restricted reports: C(6, 2) strategies
#: per node keep thousand-node reports enumerable while every check still
#: pays one masked SSSP per candidate per node.
CANDIDATES_PER_NODE = 6
FRACTIONAL_MAX_ROUNDS = 12
FRACTIONAL_TOLERANCE = 1e-5


# Workloads: ``build(n)`` returns ``(game, run)``; only ``run(**arm)`` is timed.
def _uniform(n):
    return UniformBBCGame(n, K)


def _weighted(n, seed=5):
    """An integer-weighted game (lengths 2..9 on 6 arcs per node, 1 elsewhere).

    Non-uniform lengths route every row through the Dijkstra kernels, and the
    integer values keep the numpy backend in exact int64 space.
    """
    rng = random.Random(seed)
    lengths = {}
    for u in range(n):
        for v in rng.sample([x for x in range(n) if x != u], min(6, n - 1)):
            lengths[(u, v)] = float(rng.randint(2, 9))
    return BBCGame(nodes=range(n), link_lengths=lengths, default_budget=2.0)


def report(make_game, per_node=None):
    """Equilibrium report of a random profile, optionally restricted to
    ``per_node`` deterministic candidate targets per node."""

    def build(n):
        game = make_game(n)
        profile = random_initial_profile(game, seed=PROFILE_SEED)
        candidates = None
        if per_node is not None:
            rng = random.Random(CANDIDATE_SEED)
            nodes = list(game.nodes)
            candidates = {u: rng.sample([v for v in nodes if v != u], per_node) for u in nodes}
        return game, lambda **arm: equilibrium_report(
            game, profile, candidates=candidates, **arm
        )

    return build


def all_costs(make_game):
    def build(n):
        game = make_game(n)
        profile = random_initial_profile(game, seed=PROFILE_SEED)
        return game, lambda engine: engine.all_costs(profile)

    return build


def walk(n):
    """A 30-round round-robin best-response walk from a random profile: one
    local sync per deviation, so cached rows ride in-place repair."""
    game = UniformBBCGame(n, K)
    start = random_initial_profile(game, seed=PROFILE_SEED)
    return game, lambda **arm: run_best_response_walk(game, start, max_rounds=30, **arm)


def search(free, **options):
    """Exhaustive search of a restricted (n, 2)-uniform grid, to the end.

    The first ``free`` nodes sweep their full strategy sets and the rest are
    pinned to their first budget-maximal strategy: the full product is out
    of reach, but the restricted call is one every path supports.
    """

    def build(n):
        game = UniformBBCGame(n, K)
        sets = candidate_strategy_sets(game, None, None)
        pinned = {u: sets[u][:1] for u in range(free, n)}
        return game, lambda **arm: exhaustive_equilibrium_search(
            game, candidate_strategies=pinned, stop_at_first=False, **options, **arm
        )

    return build


def study_grid(n):
    return None, lambda processes: max_cost_first_convergence_study(
        n, K, num_starts=6, max_rounds=50, seed=0, processes=processes
    )


def _dynamics(game, **arm):
    return iterated_best_response(
        game,
        game.empty_profile(),
        max_rounds=FRACTIONAL_MAX_ROUNDS,
        tolerance=FRACTIONAL_TOLERANCE,
        **arm,
    )


def fractional_dynamics(n):
    game = FractionalBBCGame(UniformBBCGame(n, K))
    return game, lambda **arm: _dynamics(game, **arm)


def fractional_report(n):
    """The epsilon-equilibrium check of the profile the dynamics end at."""
    game = FractionalBBCGame(UniformBBCGame(n, K))
    final = _dynamics(game).profile
    return game, lambda **arm: epsilon_equilibrium_report(
        game, final, FRACTIONAL_TOLERANCE, **arm
    )


def _fractional_outcome(result):
    # The LP paths agree within 1e-9, not bit for bit.
    return (result.rounds, result.converged, round(result.max_final_regret, 9))


# Arm factories: ``(game, processes) -> keyword arguments of run``.
def _engine(**options):
    return lambda game, processes: {"engine": CostEngine(game, **options)}


def _fractional_engine(game, processes):
    return {"engine": FractionalEngine(game)}


def _workers(game, processes):
    return {"processes": processes}


#: The reference arms a scenario may time against: implementations kept in
#: the tree as oracles, never engine configurations kept alive to be beaten.
REFERENCES = {
    "engine=False": lambda game, processes: {"engine": False},
    'backend="python"': _engine(backend="python"),
    "processes=1": lambda game, processes: {"processes": 1},
}

#: Scalar result attributes a row records whenever the result carries them.
RESULT_FIELDS = ("max_regret", "probes", "deviations", "rounds", "converged",
                 "profiles_examined", "equilibria_found")


@dataclass(frozen=True)
class Scenario:
    """One benchmarked workload: how to build it, time it, and gate it."""

    name: str
    label: str
    build: Callable  # n -> (game, run); run(**arm) is the timed call
    engine: Callable  # the engine arm factory
    reference: Optional[str]  # a REFERENCES key; None records the engine arm alone
    sizes: Tuple[int, ...]
    smoke_sizes: Tuple[int, ...]
    floor: Optional[float] = None
    floor_n: int = 0  # the floor gates compared rows with n >= floor_n
    repeats: int = 3
    needs: Tuple[str, ...] = ()  # optional modules the arms import
    same: Optional[Callable] = None  # what both arms agree on (default: the result)


_NUMPY = ("numpy",)
_LP = ("numpy", "scipy")
_REPORT_BFS = report(_uniform, CANDIDATES_PER_NODE)
_REPORT_DIJKSTRA = report(_weighted, CANDIDATES_PER_NODE)

SCENARIOS = (
    # Smoke n = 17 leaves 16 targets per node, the smallest game whose probes
    # take the batched pair-scoring path (StrategyScorer.score_combinations).
    Scenario("report", "Equilibrium report (flat-array engine vs dict oracle)",
             report(_uniform), _engine(), "engine=False",
             (8, 16, 32), (8, 17), floor=3.0, floor_n=32),
    Scenario("walk", "30-round best-response walk (row repair vs dict oracle)",
             walk, _engine(), "engine=False",
             (8, 16, 32), (8, 17), floor=3.0, floor_n=32, repeats=1),
    Scenario("sweep", "Exhaustive sweep (Gray-code + memoised engine vs dict oracle)",
             search(3), _engine(), "engine=False", (7,), (5,), floor=5.0),
    Scenario("study-grid", "Process-parallel study grid (workers vs serial)",
             study_grid, _workers, "processes=1", (8,), (6,)),
    Scenario("sharded-search", "Sharded exhaustive search (workers vs serial)",
             search(4, checkpoint_every=64), _workers, "processes=1",
             (7,), (5,), floor=1.0),
    Scenario("fractional-dynamics", "Fractional dynamics (warm LP engine vs reference)",
             fractional_dynamics, _fractional_engine, "engine=False",
             (8, 10, 12, 14), (5, 6), floor=3.0, floor_n=14, needs=_LP,
             same=_fractional_outcome),
    Scenario("fractional-report", "Fractional epsilon-equilibrium report",
             fractional_report, _fractional_engine, "engine=False",
             (8, 10, 12, 14), (5, 6), needs=_LP,
             same=lambda result: round(result.max_regret, 9)),
    Scenario("report-bfs", "Giant-batch BFS report (numpy kernels vs list kernels)",
             _REPORT_BFS, _engine(backend="numpy"), 'backend="python"',
             (64, 256, 1024, 4096), (32, 64), floor=3.0, floor_n=4096, repeats=1,
             needs=_NUMPY),
    Scenario("report-dijkstra", "Dijkstra report (numpy kernels vs list kernels)",
             _REPORT_DIJKSTRA, _engine(backend="numpy"), 'backend="python"',
             (64, 256, 1024), (32, 64), floor=3.0, floor_n=1024, repeats=1,
             needs=_NUMPY),
    Scenario("all-costs-bfs", "Whole-profile all_costs, uniform lengths",
             all_costs(_uniform), _engine(backend="numpy"), 'backend="python"',
             (1024,), (64,), repeats=1, needs=_NUMPY),
    Scenario("all-costs-dijkstra", "Whole-profile all_costs, integer lengths",
             all_costs(_weighted), _engine(backend="numpy"), 'backend="python"',
             (1024,), (64,), repeats=1, needs=_NUMPY),
    Scenario("report-dijkstra-large", "Weighted giant-batch report, numpy kernels",
             _REPORT_DIJKSTRA, _engine(backend="numpy"), None,
             (4096,), (48,), repeats=1, needs=_NUMPY),
    Scenario("report-bfs-large", "Giant-batch BFS report, 4 candidates, numpy kernels",
             report(_uniform, 4), _engine(backend="numpy"), None,
             (16384,), (48,), repeats=1, needs=_NUMPY),
    Scenario("plan-python", "Giant-batch plan on the list kernels vs dict oracle",
             _REPORT_BFS, _engine(backend="python"), "engine=False", (64,), (24,)),
)

SCENARIO_BY_NAME = {scenario.name: scenario for scenario in SCENARIOS}

#: The scenarios README.md's trajectory table shows (largest compared size).
README_TABLE = ("report", "sweep", "walk", "fractional-dynamics", "report-dijkstra",
                "report-bfs", "sharded-search")


def _arm_stats(arm):
    """The arm's counters: engine snapshot, LP engine stats, or fan-out run."""
    engine = arm.get("engine")
    if hasattr(engine, "snapshot_stats"):
        return engine.snapshot_stats()
    if hasattr(engine, "stats"):
        return dict(engine.stats)
    return last_run_stats()


def time_arm(run, make_arm, game, processes, repeats):
    """Return ``(best seconds, result, counters)`` over fresh arms."""
    best = None
    for _ in range(repeats):
        arm = make_arm(game, processes)
        start = time.perf_counter()
        result = run(**arm)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best[0]:
            best = (elapsed, result, _arm_stats(arm))
    return best


def run_scenario(scenario, sizes, repeats, processes, smoke):
    rows = []
    for n in sizes:
        print(f"benchmarking {scenario.name} n={n} ...", flush=True)
        game, run = scenario.build(n)
        engine_seconds, result, stats = time_arm(
            run, scenario.engine, game, processes, repeats
        )
        row = {"scenario": scenario.name, "n": n, "k": K}
        row.update({f: getattr(result, f) for f in RESULT_FIELDS if hasattr(result, f)})
        if scenario.reference is not None:
            reference_seconds, expected, _ = time_arm(
                run, REFERENCES[scenario.reference], game, processes, repeats
            )
            same = scenario.same or (lambda outcome: outcome)
            if same(expected) != same(result):
                raise AssertionError(
                    f"{scenario.name} n={n}: the engine arm disagrees with "
                    f"{scenario.reference}"
                )
            row.update(
                reference=scenario.reference,
                reference_seconds=reference_seconds,
                speedup=reference_seconds / engine_seconds,
            )
            if scenario.reference == "processes=1":
                row["processes"] = processes
        row.update(
            engine_seconds=engine_seconds,
            smoke=smoke,
            repeats=repeats,
            cpus=os.cpu_count(),
            python=platform.python_version(),
            stats=stats,
        )
        print("  " + render_table([row]).splitlines()[1])
        print("  counters: " + " ".join(f"{key}={value:.6g}" for key, value in stats.items()))
        rows.append(row)
    return rows


def load_recording(json_path):
    """Return ``(payload, code)``: code 1 for a missing file, 2 for a corrupt one."""
    if not json_path.exists():
        return {}, 1
    try:
        return json.loads(json_path.read_text()), 0
    except ValueError as exc:
        print(
            f"CORRUPT RECORDING: {json_path} exists but is not parseable JSON "
            f"({exc}); the benchmark writes are atomic, so this points at disk "
            "corruption or a manual edit — delete the file and re-run the benchmarks",
            file=sys.stderr,
        )
        return None, 2


def gated_rows(rows):
    """Yield ``(scenario, row)`` for every row a floor applies to.

    Smoke rows (noise ratios), engine-only rows and rows below ``floor_n``
    are exempt; a scaling floor against ``processes=1`` arms only with at
    least two workers on at least two CPUs.
    """
    for row in rows:
        scenario = SCENARIO_BY_NAME.get(row.get("scenario"))
        if scenario is None or scenario.floor is None:
            continue
        if row.get("smoke") or "speedup" not in row or row["n"] < scenario.floor_n:
            continue
        if scenario.reference == "processes=1" and (
            row.get("processes", 1) < 2 or (row.get("cpus") or 1) < 2
        ):
            continue
        yield scenario, row


def floor_violations(rows):
    return [
        f"{scenario.name}: speedup {row['speedup']:.2f}x vs {scenario.reference} "
        f"at n={row['n']} is below {scenario.floor:g}x"
        for scenario, row in gated_rows(rows)
        if row["speedup"] < scenario.floor
    ]


def check_floors(json_path):
    """The ``--check-floors`` entry point.

    Exits 1 for a missing recording or a floor violation and 2 for one that
    cannot be parsed: with atomic writes that means disk corruption or a
    manual edit, hence its own loud signal.
    """
    payload, code = load_recording(json_path)
    if code == 1:
        print(f"no {json_path} to check; run the benchmarks first", file=sys.stderr)
    if code:
        return code
    rows = payload.get("rows", [])
    violations = floor_violations(rows)
    checked = list(dict.fromkeys(scenario.name for scenario, _ in gated_rows(rows)))
    if violations:
        for violation in violations:
            print(f"FLOOR VIOLATION: {violation}", file=sys.stderr)
        return 1
    print(f"floors ok for recorded scenarios: {', '.join(checked) or '(none)'}")
    return 0


def print_readme_table(json_path):
    """Print the recorded trajectory as the markdown table README.md embeds.

    The table is *generated from* ``BENCH_speed.json``: after re-recording,
    re-run ``--readme-table`` and paste the output over the table in
    README.md so the prose never drifts from the recording.
    """
    payload, code = load_recording(json_path)
    if code == 1:
        print(f"no {json_path}; run the benchmarks first", file=sys.stderr)
    if code:
        return code
    lines = [
        "| Scenario | n | Reference | Reference [s] | Engine [s] | Speedup |",
        "| --- | ---: | --- | ---: | ---: | ---: |",
    ]
    for name in README_TABLE:
        rows = [
            row
            for row in payload.get("rows", [])
            if row.get("scenario") == name and "speedup" in row and not row.get("smoke")
        ]
        if not rows:
            continue
        row = max(rows, key=lambda r: r["n"])
        lines.append(
            f"| {SCENARIO_BY_NAME[name].label} | {row['n']} | `{row['reference']}` "
            f"| {row['reference_seconds']:.2f} | {row['engine_seconds']:.2f} "
            f"| {row['speedup']:.1f}x |"
        )
    print("\n".join(lines))
    return 0


def render_table(rows):
    lines = [
        f"{'scenario':<22} {'n':>6} {'reference':<18} {'reference[s]':>13} "
        f"{'engine[s]':>10} {'speedup':>8}"
    ]
    for row in rows:
        reference = row.get("reference_seconds")
        speedup = row.get("speedup")
        lines.append(
            f"{row['scenario']:<22} {row['n']:>6} {row.get('reference', '-'):<18} "
            f"{(f'{reference:.4f}' if reference is not None else '-'):>13} "
            f"{row['engine_seconds']:>10.4f} "
            f"{(f'{speedup:.2f}x' if speedup is not None else '-'):>8}"
            + ("  (smoke)" if row.get("smoke") else "")
        )
    return "\n".join(lines)


def merge_rows(old_rows, new_rows):
    """Replace every scenario ``new_rows`` covers and drop retired ones; keep
    the rest, in table order."""
    fresh = {row["scenario"] for row in new_rows}
    order = {name: i for i, name in enumerate(SCENARIO_BY_NAME)}
    kept = [row for row in old_rows if row.get("scenario") in order.keys() - fresh]
    return sorted(kept + new_rows, key=lambda row: (order[row["scenario"]], row["n"]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "scenarios",
        nargs="*",
        metavar="SCENARIO",
        help="scenarios to run (default: all): " + ", ".join(SCENARIO_BY_NAME),
    )
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes and one repeat per arm"
    )
    parser.add_argument(
        "--check-floors",
        action="store_true",
        help="run no benchmarks; exit non-zero if a recorded (non-smoke) row "
        "in BENCH_speed.json is below its floor",
    )
    parser.add_argument(
        "--readme-table",
        action="store_true",
        help="run no benchmarks; print the recorded trajectory as the "
        "markdown table README.md embeds (regenerate it after re-recording)",
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=None,
        help="worker count of the process-parallel scenarios (default: the "
        "affinity-aware default, at least 2 so the parallel path is real)",
    )
    args = parser.parse_args(argv)

    json_path = OUTPUT_DIR / "BENCH_speed.json"
    if args.readme_table:
        return print_readme_table(json_path)
    if args.check_floors:
        if args.scenarios or args.smoke:
            parser.error("--check-floors runs no benchmarks; pass it alone")
        return check_floors(json_path)
    unknown = [name for name in args.scenarios if name not in SCENARIO_BY_NAME]
    if unknown:
        parser.error(
            f"unknown scenario(s) {', '.join(unknown)}; choose from "
            + ", ".join(SCENARIO_BY_NAME)
        )

    # Refuse before running anything: rewriting a corrupt recording would
    # silently erase every scenario it still holds.
    payload, code = load_recording(json_path)
    if code == 2:
        return 2

    processes = args.processes or max(default_processes(), 2)
    selected = [SCENARIO_BY_NAME[name] for name in dict.fromkeys(args.scenarios)]
    rows = []
    for scenario in selected or SCENARIOS:
        missing = [m for m in scenario.needs if importlib.util.find_spec(m) is None]
        if missing:
            print(f"skipping {scenario.name}: needs {', '.join(missing)}, not installed")
            continue
        repeats = 1 if args.smoke else scenario.repeats
        sizes = scenario.smoke_sizes if args.smoke else scenario.sizes
        rows.extend(run_scenario(scenario, sizes, repeats, processes, args.smoke))

    merged = merge_rows(payload.get("rows", []), rows)
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    # Atomic writes (tmp + os.replace): a run killed mid-write leaves the
    # previous recording intact, never a truncated JSON.
    atomic_write_text(
        json_path, json.dumps({"benchmark": "bench_speed", "rows": merged}, indent=2) + "\n"
    )
    table = render_table(merged)
    atomic_write_text(OUTPUT_DIR / "BENCH_speed.txt", table + "\n")
    print("\n" + table)
    print(f"\nwrote {json_path}")

    violations = floor_violations(rows)
    for violation in violations:
        print(f"WARNING: {violation}", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
