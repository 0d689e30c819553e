"""The benchmark's workloads: seeded inputs, set-up, timed phase, digest.

Each workload builds plain-data inputs from the seed (not timed), then per
iteration a fresh *state* in set-up (games, engines, the service catalog)
and one timed unit of work on it.  Every iteration therefore repeats the
same cold work, so iterations of one run are comparable and their digests
must agree.  Outputs are reduced to a canonical JSON digest and checked
against the reference path ROADMAP allows (``backend="python"`` list
kernels, or ``engine=False`` for sampled walk probes).
"""

import asyncio
import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import repro.core.equilibrium as _equilibrium
import repro.dynamics.walk as _walk
import repro.service.service as _service
from repro.core import (
    BBCGame,
    FractionalBBCGame,
    StrategyProfile,
    UniformBBCGame,
    best_response,
    equilibrium_report,
)
from repro.dynamics import run_best_response_walk
from repro.engine import CostEngine
from repro.experiments.workloads import random_preference_game
from repro.service import GameService, Query

from spans import changed_sync, patched, timed

#: Candidate targets per node in the report: C(6, 2) = 15 strategies per
#: node, each needing one masked environment row per candidate.
REPORT_CANDIDATES = 6
#: Nodes re-checked on the reference path when a seed has no pinned digest.
SPOT_NODES = 32
#: Improving walk probes re-checked on the dict oracle for unpinned seeds.
SPOT_STEPS = 3
WALK_ROUNDS = 2
SERVICE_WAVES = 100
SERVICE_WAVE_READS = 16


@dataclass
class Samples:
    """What the client side of one iteration observed (seconds)."""

    reads: List[float] = field(default_factory=list)
    updates: List[float] = field(default_factory=list)
    #: ``(inclusive seconds, queries)`` per executed service read batch.
    batches: List[Tuple[float, int]] = field(default_factory=list)


def digest_of(canonical) -> str:
    """sha256 of the canonical JSON form (floats as shortest round-trip)."""
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _targets(rng: random.Random, n: int, node: int, count: int) -> List[int]:
    """``count`` distinct targets other than ``node``, in draw order."""
    return [v + (v >= node) for v in rng.sample(range(n - 1), count)]


def _profile(strategies: Dict[int, List[int]]) -> StrategyProfile:
    return StrategyProfile({u: frozenset(targets) for u, targets in strategies.items()})


class Workload:
    """Defaults shared by the workloads; each subclass names its layers.

    ``backend`` is the traversal backend every integral engine must resolve
    to.  ``guard`` is ``(spans, bypassed spans, engine counters)``: the
    layer spans a traced iteration must contain, those it must not, and the
    ``CostEngine.stats`` counters every iteration must advance.
    ``host_sensitivity`` is the exponent by which the workload's times are
    scaled to the reference host speed (see ``calibrate.py``).
    """

    name = why = backend = ""
    #: Interpreter-bound work slows in proportion to the probe: over paired
    #: probe-and-iteration timings of the walk and the service, scaling by
    #: the full ratio cut the iterations' log-time spread from 0.16-0.20 to
    #: 0.10-0.11.
    host_sensitivity = 1.0
    guard: Tuple[Tuple[str, ...], Tuple[str, ...], Tuple[str, ...]] = ((), (), ())

    def errors(self, output) -> int:
        return 0

    def engines(self, state) -> list:
        return [state["engine"]]

    def fractional_engines(self, state) -> list:
        return []

    def reference_digest(self, inputs) -> str:
        """The digest of the reference path (integral engines on the list
        kernels) for these inputs."""
        return self.digest(self.run(self.setup(inputs, backend="python"), Samples()))


class Report(Workload):
    """A cold restricted-candidate ``equilibrium_report`` on a fresh engine,
    over a game whose 6 seeded arcs per node have integer lengths 2-9."""

    name = "report-weighted"
    why = (
        "cold report on integer lengths 2-9 at n=1024: dominated by the numpy "
        "multi-source Dijkstra kernel; set-up dominated by IndexedGame probing"
    )
    n = 1024
    backend = "numpy"
    #: The numpy kernels that take ~85% of a report spend much of their time
    #: on memory traffic, which follows the probe only partly: over paired
    #: timings the square root of the ratio cut the log-time spread of
    #: iterations from 0.12 to 0.071 (0.076 at exponent 0.75, 0.10 at 1).
    host_sensitivity = 0.5
    guard = (("np_traverse", "plan", "score"), ("list_traverse",), ("giant_batch_traversals",))

    def make_inputs(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        n = self.n
        return {
            "lengths": {
                (u, v): float(rng.randint(2, 9)) for u in range(n) for v in _targets(rng, n, u, 6)
            },
            "strategies": {u: _targets(rng, n, u, 2) for u in range(n)},
            "candidates": {u: _targets(rng, n, u, REPORT_CANDIDATES) for u in range(n)},
        }

    def setup(self, inputs, backend=None) -> dict:
        game = BBCGame(range(self.n), link_lengths=inputs["lengths"], default_budget=2.0)
        return {
            "game": game,
            "profile": _profile(inputs["strategies"]),
            "engine": CostEngine(game, backend=backend),
            "candidates": inputs["candidates"],
        }

    def run(self, state, samples: Samples):
        reads = timed(samples.reads, _equilibrium.best_response)
        syncs = timed(samples.updates, CostEngine.sync, changed_sync)
        with patched([(_equilibrium, "best_response", reads), (CostEngine, "sync", syncs)]):
            return equilibrium_report(
                state["game"],
                state["profile"],
                candidates=state["candidates"],
                engine=state["engine"],
            )

    def ops(self, report) -> int:
        return len(report.responses)

    def digest(self, report) -> str:
        return digest_of(
            [[u, r.best_cost, r.regret] for u, r in report.responses.items()]
        )

    def spot_check(self, inputs, report, seed: int) -> Tuple[int, int]:
        """Re-derive a seeded node sample on the list kernels (no plan)."""
        state = self.setup(inputs, backend="python")
        nodes = random.Random(f"spot:{self.name}:{seed}").sample(range(self.n), SPOT_NODES)
        wrong = 0
        for u in nodes:
            want = best_response(
                state["game"],
                state["profile"],
                u,
                candidates=state["candidates"][u],
                engine=state["engine"],
            )
            got = report.responses[u]
            wrong += (want.best_cost, want.regret) != (got.best_cost, got.regret)
        return len(nodes), wrong


class Walk(Workload):
    """A round-robin best-response walk with full C(n-1, 2) enumeration."""

    name = "walk-uniform"
    why = (
        "round-robin best-response walk at n=128: list kernels, a local sync per "
        "deviation and full-enumeration scoring"
    )
    n = 128
    rounds = WALK_ROUNDS
    backend = "python"
    guard = (("list_traverse", "score"), ("np_traverse", "plan"), ("local_syncs",))

    def make_inputs(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        return {"strategies": {u: _targets(rng, self.n, u, 2) for u in range(self.n)}}

    def setup(self, inputs, backend=None) -> dict:
        game = UniformBBCGame(self.n, 2)
        return {
            "game": game,
            "profile": _profile(inputs["strategies"]),
            "engine": CostEngine(game, backend=backend),
        }

    def run(self, state, samples: Samples):
        reads = timed(samples.reads, _walk.best_response)
        syncs = timed(samples.updates, CostEngine.sync, changed_sync)
        with patched([(_walk, "best_response", reads), (CostEngine, "sync", syncs)]):
            return run_best_response_walk(
                state["game"],
                state["profile"],
                max_rounds=self.rounds,
                record_steps=True,
                engine=state["engine"],
            )

    def ops(self, result) -> int:
        return result.probes

    def digest(self, result) -> str:
        final = result.final_profile
        return digest_of(
            {
                "final": [sorted(final.strategy(u)) for u in range(self.n)],
                "probes": result.probes,
                "deviations": result.deviations,
            }
        )

    def spot_check(self, inputs, result, seed: int) -> Tuple[int, int]:
        """Replay the walk to a few seeded deviations and re-derive each on
        the dict oracle (``engine=False``)."""
        state = self.setup(inputs)
        game, profile = state["game"], state["profile"]
        steps = result.steps
        chosen = set(
            random.Random(f"spot:{self.name}:{seed}").sample(
                range(len(steps)), min(SPOT_STEPS, len(steps))
            )
        )
        wrong = 0
        for index, step in enumerate(steps):
            if index in chosen:
                want = best_response(game, profile, step.node, engine=False)
                wrong += (
                    want.current_cost != step.old_cost
                    or want.best_cost != step.new_cost
                    or want.best_strategy != frozenset(step.new_strategy)
                )
            profile = profile.with_strategy(step.node, step.new_strategy)
        return len(chosen), wrong


def _integral_wave(rng, n):
    """16 reads in the ``scripts/bench_service.py`` integral mix."""
    queries = []
    for _ in range(SERVICE_WAVE_READS):
        node = rng.randrange(n)
        roll = rng.random()
        if roll < 0.5:
            queries.append(Query(kind="cost", node=node))
        elif roll < 0.75:
            strategy = tuple(_targets(rng, n, node, 2))
            queries.append(Query(kind="what_if", node=node, strategy=strategy))
        else:
            candidates = tuple(_targets(rng, n, node, 3))
            queries.append(Query(kind="best_response", node=node, candidates=candidates))
    return queries


def _fractional_wave(rng, n):
    """16 reads in the ``scripts/bench_service.py`` fractional mix."""
    queries = []
    for _ in range(SERVICE_WAVE_READS):
        node = rng.randrange(n)
        roll = rng.random()
        if roll < 0.4:
            queries.append(Query(kind="cost", node=node))
        elif roll < 0.7:
            target = _targets(rng, n, node, 1)[0]
            queries.append(Query(kind="what_if", node=node, strategy={target: 1.0}))
        else:
            queries.append(Query(kind="best_response", node=node))
    return queries


class Service(Workload):
    """Three closed-loop clients (one per live game) on one ``GameService``."""

    name = "service-mixed"
    why = (
        "closed-loop service traffic on three games: coalesced read batches, "
        "updates riding incremental repair, and fractional LP best responses"
    )
    backend = "numpy"
    guard = (
        ("service.batch", "service.update", "np_traverse", "repair", "fractional"),
        (),
        ("giant_batch_traversals", "rows_repaired", "local_syncs"),
    )
    waves = SERVICE_WAVES
    #: (catalog name, kind, n); integral games buy 2 links, fractional 1 unit.
    games = (
        ("uniform", "integral", 512),
        ("weighted", "integral", 256),
        ("fractional", "fractional", 8),
    )

    def make_inputs(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        inputs = {"preference_seed": rng.randrange(2**31), "scripts": {}}
        for name, kind, n in self.games:
            budget = 1 if kind == "fractional" else 2
            script = []
            for _ in range(self.waves):
                wave = _fractional_wave if kind == "fractional" else _integral_wave
                queries = wave(rng, n)
                node = rng.randrange(n)
                targets = _targets(rng, n, node, budget)
                update = {targets[0]: 1.0} if kind == "fractional" else tuple(targets)
                script.append((queries, (node, update)))
            inputs["scripts"][name] = script
        return inputs

    def setup(self, inputs, backend=None) -> dict:
        service = GameService()
        for name, kind, n in self.games:
            if kind == "fractional":
                service.register(name, FractionalBBCGame(UniformBBCGame(n, 1)))
            elif name == "uniform":
                service.register(name, UniformBBCGame(n, 2), backend=backend)
            else:
                game = random_preference_game(n, budget=2, seed=inputs["preference_seed"])
                service.register(name, game, backend=backend)
        return {"service": service, "scripts": inputs["scripts"]}

    def run(self, state, samples: Samples):
        batches = samples.batches

        def execute_batch(entry, queries, _inner=_service.execute_batch):
            started = time.perf_counter()
            responses = _inner(entry, queries)
            batches.append((time.perf_counter() - started, len(queries)))
            return responses

        with patched([(_service, "execute_batch", execute_batch)]):
            return asyncio.run(_drive(state["service"], state["scripts"], samples))

    def ops(self, streams) -> int:
        return sum(len(stream) for stream in streams.values())

    def errors(self, streams) -> int:
        return sum(not response.ok for stream in streams.values() for response in stream)

    def digest(self, streams) -> str:
        return digest_of(
            {name: [list(r.comparable()) for r in stream] for name, stream in streams.items()}
        )

    def _entries(self, state, kind):
        catalog = state["service"].catalog
        return [catalog.entry(name) for name, entry_kind, _ in self.games if entry_kind == kind]

    def engines(self, state) -> list:
        return [entry.engine for entry in self._entries(state, "integral")]

    def fractional_engines(self, state) -> list:
        return [entry.engine for entry in self._entries(state, "fractional")]

    def spot_check(self, inputs, streams, seed: int) -> Tuple[int, int]:
        """The whole stream again with the integral games on the list kernels
        (cheap enough to run in full)."""
        return 1, int(self.reference_digest(inputs) != self.digest(streams))


async def _client(service, name, script, samples: Samples):
    """One closed-loop client: a wave of concurrent reads, then one update."""
    clock = time.perf_counter
    stream = []
    for queries, (node, strategy) in script:
        started = clock()
        responses = await service.gather(name, queries)
        samples.reads.extend([clock() - started] * len(responses))
        started = clock()
        stream.extend(responses)
        stream.append(await service.update(name, node, strategy))
        samples.updates.append(clock() - started)
    return stream


async def _drive(service, scripts, samples: Samples):
    async with service:
        streams = await asyncio.gather(
            *(_client(service, name, script, samples) for name, script in scripts.items())
        )
    return dict(zip(scripts, streams))


WORKLOADS = {workload.name: workload for workload in (Report(), Walk(), Service())}
