"""Exhaustive and guided searches for pure Nash equilibria in small games.

Theorem 2 shows that deciding pure-NE existence is NP-hard, so these routines
do not pretend to scale; they exist to verify the paper's small constructions
(the Figure 1 gadget, reduced 3-SAT instances, small uniform games) by brute
force, and to empirically explore the equilibrium landscape of small games.

The searches are *sweeps*: thousands of profiles that differ locally.  They
enumerate in mixed-radix Gray order (:func:`repro.engine.gray_code_profiles`,
consecutive profiles differ in one node) and, by default, check stability
through :class:`repro.engine.SweepEvaluator`, which memoises per-node best
costs against unchanged environments.  ``engine=False`` forces the
dict-based reference path (a fresh :func:`is_pure_nash` per profile); both
paths visit the same profiles in the same order and return identical
summaries — ``tests/test_sweep.py`` pins that parity.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterator, List, Mapping, Optional, Sequence

from ..rng import SeedLike, as_rng
from .equilibrium import is_pure_nash
from .errors import SearchSpaceTooLarge
from .game import BBCGame, DEFAULT_ENUMERATION_LIMIT
from .profile import StrategyProfile, Strategy

Node = Hashable

#: Default cap on the number of profiles an exhaustive search may visit.
DEFAULT_PROFILE_LIMIT = 5_000_000


@dataclass(frozen=True)
class SearchSummary:
    """Outcome of an exhaustive pure-Nash search."""

    profiles_examined: int
    equilibria_found: int
    first_equilibrium: Optional[StrategyProfile]
    exhausted: bool

    @property
    def has_equilibrium(self) -> bool:
        """Return ``True`` when at least one pure Nash equilibrium was found."""
        return self.equilibria_found > 0


def candidate_strategy_sets(
    game: BBCGame,
    candidate_strategies: Optional[Mapping[Node, Sequence[Strategy]]] = None,
    candidate_targets: Optional[Mapping[Node, Sequence[Node]]] = None,
) -> Dict[Node, List[Strategy]]:
    """Materialise the per-node strategy sets an exhaustive search ranges over."""
    sets: Dict[Node, List[Strategy]] = {}
    for node in game.nodes:
        if candidate_strategies is not None and node in candidate_strategies:
            sets[node] = [game.validate_strategy(node, s) for s in candidate_strategies[node]]
            continue
        targets = None
        if candidate_targets is not None and node in candidate_targets:
            targets = candidate_targets[node]
        sets[node] = list(game.feasible_strategies(node, targets, maximal_only=True))
        if not sets[node]:
            sets[node] = [frozenset()]
    return sets


def enumerate_profiles(
    game: BBCGame,
    *,
    candidate_strategies: Optional[Mapping[Node, Sequence[Strategy]]] = None,
    candidate_targets: Optional[Mapping[Node, Sequence[Node]]] = None,
    limit: float = DEFAULT_PROFILE_LIMIT,
) -> Iterator[StrategyProfile]:
    """Yield every profile in the cartesian product of per-node strategy sets.

    Plain lexicographic (``itertools.product``) order; the equilibrium
    searches below use :func:`repro.engine.gray_code_profiles` instead, which
    covers the same product in single-edit order.  The search space size is
    estimated up front and :class:`SearchSpaceTooLarge` is raised when it
    exceeds ``limit``.
    """
    sets = candidate_strategy_sets(game, candidate_strategies, candidate_targets)
    size = 1.0
    for node in game.nodes:
        size *= max(1, len(sets[node]))
    if size > limit:
        raise SearchSpaceTooLarge("profile enumeration", size, limit)
    nodes = list(game.nodes)
    for combination in itertools.product(*(sets[node] for node in nodes)):
        yield StrategyProfile(dict(zip(nodes, combination)))


def _nash_checker(
    game: BBCGame,
    tolerance: float,
    deviation_limit: float,
    engine,
) -> Callable[[StrategyProfile], bool]:
    """Resolve the tri-state ``engine`` argument into an ``is_nash`` callable.

    ``False`` gives the reference path (a from-scratch :func:`is_pure_nash`
    with the dict-based oracle per profile); ``None`` or an explicit
    :class:`~repro.engine.CostEngine` gives a
    :class:`~repro.engine.SweepEvaluator` bound to it.  Both produce
    bit-identical verdicts.
    """
    from ..engine import resolve_engine
    from ..engine.sweep import SweepEvaluator

    resolved = resolve_engine(game, engine)
    if resolved is None:
        def check(profile: StrategyProfile) -> bool:
            return is_pure_nash(
                game, profile, tolerance=tolerance, limit=deviation_limit, engine=False
            )

        return check
    return SweepEvaluator(
        game, tolerance=tolerance, deviation_limit=deviation_limit, engine=resolved
    ).is_nash


def _serialize_profile(profile: StrategyProfile) -> list:
    """``profile`` as JSON-able ``[node, [targets...]]`` pairs (repr-sorted)."""
    return [
        [node, sorted(profile[node], key=repr)] for node in profile
    ]


def _deserialize_profile(pairs) -> StrategyProfile:
    """Rebuild a :class:`StrategyProfile` from :func:`_serialize_profile` output."""
    return StrategyProfile({node: frozenset(targets) for node, targets in pairs})


def exhaustive_equilibrium_search(
    game: BBCGame,
    *,
    candidate_strategies: Optional[Mapping[Node, Sequence[Strategy]]] = None,
    candidate_targets: Optional[Mapping[Node, Sequence[Node]]] = None,
    stop_at_first: bool = True,
    profile_limit: float = DEFAULT_PROFILE_LIMIT,
    deviation_limit: float = DEFAULT_ENUMERATION_LIMIT,
    tolerance: float = 1e-9,
    engine=None,
    journal=None,
    checkpoint_every: int = 256,
    processes: Optional[int] = 1,
) -> SearchSummary:
    """Search for pure Nash equilibria by enumerating profiles.

    Profiles range over the supplied candidate sets (or all budget-maximal
    strategies by default) in Gray order, while the Nash check for each
    profile always considers *every* feasible deviation, so any equilibrium
    reported here is a genuine pure Nash equilibrium of the full game.  A
    negative result only certifies that no equilibrium uses the enumerated
    strategy sets.

    ``engine`` follows the tri-state convention of every routed entry point:
    the default sweeps incrementally through a
    :class:`~repro.engine.SweepEvaluator`; ``engine=False`` checks each
    profile from scratch with the reference oracle.  Summaries are identical
    either way.

    ``journal`` (a :class:`~repro.reliability.CheckpointJournal` or a path)
    makes the sweep crash-safe: completed blocks of ``checkpoint_every``
    consecutive Gray-order profiles are recorded atomically, and a re-run
    with the same journal skips their Nash checks entirely (profile
    construction is replayed — the Gray walk is the iteration order — but no
    deviation is re-enumerated).  The resumed summary is identical to an
    uninterrupted run's.  The journal is bound to this search's shape
    (radices, ``checkpoint_every``, ``stop_at_first``); reusing it for a
    different search raises
    :class:`~repro.reliability.CheckpointError`.

    ``processes`` shards the profile space: the not-yet-journalled checkpoint
    blocks are split into contiguous Gray-rank subranges, each evaluated by a
    pool worker that rebuilds the game (and, on the engine path, its own
    :class:`~repro.engine.CostEngine`) from a picklable
    :class:`~repro.experiments.parallel.GameSpec` plus the candidate sets,
    and the per-block records are merged in global block order.  Records,
    the journal, and the summary are **bit-identical** to a serial run at
    any worker count;
    ``None`` means one worker per available CPU
    (:func:`~repro.experiments.parallel.resolve_processes`).  An explicit
    engine *instance* is process-local state and cannot shard — pass
    ``engine=None`` (each worker builds its own) or ``engine=False``.
    """
    from ..engine.sweep import gray_code_profiles
    from ..reliability.faults import fault_point
    from ..reliability.journal import resolve_journal

    if checkpoint_every < 1:
        raise ValueError(
            f"checkpoint_every must be at least 1 (got {checkpoint_every})"
        )
    journal = resolve_journal(journal)
    sets = candidate_strategy_sets(game, candidate_strategies, candidate_targets)
    if journal is not None:
        journal.bind_meta(
            {
                "kind": "exhaustive-search",
                "checkpoint_every": int(checkpoint_every),
                "stop_at_first": bool(stop_at_first),
                "radices": [len(sets[node]) for node in game.nodes],
            }
        )

    count = 1
    if processes is None or processes != 1:
        from ..experiments.parallel import resolve_processes

        count = resolve_processes(processes)
    if count > 1:
        if engine is not None and engine is not False:
            raise ValueError(
                "an explicit engine instance is process-local; pass "
                "engine=None or engine=False to shard with processes > 1"
            )
        return _sharded_search(
            game,
            sets,
            stop_at_first=stop_at_first,
            profile_limit=profile_limit,
            deviation_limit=deviation_limit,
            tolerance=tolerance,
            use_engine=engine is None,
            journal=journal,
            checkpoint_every=checkpoint_every,
            count=count,
        )

    check = _nash_checker(game, tolerance, deviation_limit, engine)
    examined = 0
    found = 0
    first: Optional[StrategyProfile] = None

    def finish(record) -> None:
        nonlocal examined, found, first
        examined += record["examined"]
        found += record["found"]
        if first is None and record["first"] is not None:
            first = _deserialize_profile(record["first"])

    profiles = gray_code_profiles(
        game,
        candidate_strategies=sets,
        limit=profile_limit,
    )
    block_index = 0
    exhausted = True
    done = False
    while not done:
        block = list(itertools.islice(profiles, checkpoint_every))
        if not block:
            break
        completed = journal.get(f"block:{block_index}") if journal is not None else None
        if completed is not None:
            # The block's verdicts are already journalled: adopt them without
            # re-enumerating a single deviation.
            finish(completed)
            if completed["stopped"]:
                exhausted = False
                done = True
        else:
            record = {"examined": 0, "found": 0, "first": None, "stopped": False}
            base = block_index * checkpoint_every
            for offset, profile in enumerate(block):
                fault_point("search.profile", key=base + offset)
                record["examined"] += 1
                if check(profile):
                    record["found"] += 1
                    if record["first"] is None:
                        record["first"] = _serialize_profile(profile)
                    if stop_at_first:
                        record["stopped"] = True
                        break
            if journal is not None:
                journal.record(f"block:{block_index}", record)
            finish(record)
            if record["stopped"]:
                exhausted = False
                done = True
        block_index += 1
    return SearchSummary(
        profiles_examined=examined,
        equilibria_found=found,
        first_equilibrium=first,
        exhausted=exhausted,
    )


#: Per-process context cache of the last search a shard cell served, keyed
#: by the parent's run token: the rebuilt game, candidate sets, parameters,
#: and the warm Nash checker (its evaluator memo carries across the worker's
#: shards).  One entry only — a different run evicts it, so stale games
#: cannot pin memory across unrelated searches.
_SHARD_CACHE: Dict[tuple, tuple] = {}

#: Mints the per-search run tokens keying :data:`_SHARD_CACHE`.
_RUN_COUNTER = itertools.count()


def _search_shard_cell(args) -> list:
    """Pool-worker cell: sweep blocks ``[block_start, block_stop)`` of a search.

    ``args`` is ``(run_token, context, block_start, block_stop)``; the
    context (see :func:`_sharded_search`) carries everything the sweep reads,
    and the worker rebuilds the game from its spec.  Returns
    ``[[block_index, record], ...]`` with exactly the records the serial loop
    produces for those blocks — same profiles in the same Gray order, same
    ``search.profile`` fault keys (global ranks), same stop-at-first
    truncation — so the parent can merge shards in global block order into a
    serial-identical summary.  Also the serial-rung fallback when the pool
    cannot run: everything here is process-local or read-only.
    """
    token, context, block_start, block_stop = args
    from ..engine.sweep import gray_code_profiles
    from ..reliability.faults import fault_point

    ctx = _SHARD_CACHE.get(token)
    if ctx is None:
        game = context["spec"].build()
        sets = {node: list(strategies) for node, strategies in context["sets"]}
        params = context["params"]
        if params["use_engine"]:
            from ..engine.cost_engine import CostEngine

            engine = CostEngine(game)
        else:
            engine = False
        check = _nash_checker(
            game, params["tolerance"], params["deviation_limit"], engine
        )
        ctx = (game, sets, params, check)
        _SHARD_CACHE.clear()
        _SHARD_CACHE[token] = ctx
    game, sets, params, check = ctx
    checkpoint_every = params["checkpoint_every"]
    stop = min(block_stop * checkpoint_every, params["size"])
    profiles = gray_code_profiles(
        game,
        candidate_strategies=sets,
        limit=params["profile_limit"],
        start=block_start * checkpoint_every,
        stop=stop,
    )
    out = []
    for block_index in range(block_start, block_stop):
        base = block_index * checkpoint_every
        record = {"examined": 0, "found": 0, "first": None, "stopped": False}
        for offset in range(min(base + checkpoint_every, stop) - base):
            profile = next(profiles)
            fault_point("search.profile", key=base + offset)
            record["examined"] += 1
            if check(profile):
                record["found"] += 1
                if record["first"] is None:
                    record["first"] = _serialize_profile(profile)
                if params["stop_at_first"]:
                    record["stopped"] = True
                    break
        out.append([block_index, record])
        if record["stopped"]:
            break
    return out


def _sharded_search(
    game: BBCGame,
    sets: Dict[Node, List[Strategy]],
    *,
    stop_at_first: bool,
    profile_limit: float,
    deviation_limit: float,
    tolerance: float,
    use_engine: bool,
    journal,
    checkpoint_every: int,
    count: int,
) -> SearchSummary:
    """Parent side of a sharded exhaustive search (``journal`` pre-bound).

    Splits the not-yet-journalled checkpoint blocks into at most ``count``-ish
    contiguous shards and fans them out over a :func:`parallel_map` pool.
    Each cell carries the picklable game spec, candidate sets and parameters;
    workers rebuild everything else.  The per-block records merge in global
    block order, truncating at the first ``stopped`` block exactly like the
    serial loop, before the surviving records are journalled.  Fresh blocks
    land in the journal only here, in the parent, so a worker crash never
    half-writes a checkpoint.
    """
    from ..engine.sweep import _resolve_gray_space
    from ..experiments.parallel import GameSpec, parallel_map

    _, _, _, _, size = _resolve_gray_space(game, sets, None, None, profile_limit)
    total_blocks = -(-size // checkpoint_every)
    journaled: Dict[int, dict] = {}
    cutoff = total_blocks
    if journal is not None:
        for i in range(total_blocks):
            record = journal.get(f"block:{i}")
            if record is None:
                continue
            journaled[i] = record
            if record["stopped"]:
                cutoff = i + 1
                break
    needed = [i for i in range(cutoff) if i not in journaled]
    records: Dict[int, dict] = dict(journaled)
    if needed:
        # Shards: contiguous runs of needed blocks, chopped so ~count shards
        # cover them.  Boundaries depend on `count`; the merged summary does
        # not — records are per-block either way.
        chunk = max(1, -(-len(needed) // count))
        shards: List[tuple] = []
        run_start = prev = needed[0]
        for block in needed[1:] + [None]:
            if block is not None and block == prev + 1 and block - run_start < chunk:
                prev = block
                continue
            shards.append((run_start, prev + 1))
            if block is not None:
                run_start = prev = block
        token = (os.getpid(), next(_RUN_COUNTER))
        context = {
            "spec": GameSpec.from_game(game),
            "sets": [(node, list(sets[node])) for node in game.nodes],
            "params": {
                "checkpoint_every": checkpoint_every,
                "stop_at_first": bool(stop_at_first),
                "profile_limit": profile_limit,
                "deviation_limit": deviation_limit,
                "tolerance": tolerance,
                "use_engine": use_engine,
                "size": size,
            },
        }
        cells = [(token, context, lo, hi) for lo, hi in shards]
        for shard in parallel_map(_search_shard_cell, cells, processes=count):
            for block_index, record in shard:
                records[block_index] = record

    examined = 0
    found = 0
    first: Optional[StrategyProfile] = None
    exhausted = True
    for i in range(total_blocks):
        record = records.get(i)
        if record is None:  # beyond the block where a shard stopped early
            break
        examined += record["examined"]
        found += record["found"]
        if first is None and record["first"] is not None:
            first = _deserialize_profile(record["first"])
        if journal is not None and i not in journaled:
            journal.record(f"block:{i}", record)
        if record["stopped"]:
            exhausted = False
            break
    return SearchSummary(
        profiles_examined=examined,
        equilibria_found=found,
        first_equilibrium=first,
        exhausted=exhausted,
    )


def find_equilibria(
    game: BBCGame,
    *,
    candidate_strategies: Optional[Mapping[Node, Sequence[Strategy]]] = None,
    candidate_targets: Optional[Mapping[Node, Sequence[Node]]] = None,
    max_results: Optional[int] = None,
    profile_limit: float = DEFAULT_PROFILE_LIMIT,
    deviation_limit: float = DEFAULT_ENUMERATION_LIMIT,
    tolerance: float = 1e-9,
    engine=None,
) -> List[StrategyProfile]:
    """Return (up to ``max_results``) pure Nash equilibria found by enumeration.

    Same sweep (Gray order, incremental checks, tri-state ``engine``) as
    :func:`exhaustive_equilibrium_search`, collecting the equilibria instead
    of summarising them.  ``deviation_limit`` bounds the per-node deviation
    enumeration exactly as there.
    """
    from ..engine.sweep import gray_code_profiles

    check = _nash_checker(game, tolerance, deviation_limit, engine)
    results: List[StrategyProfile] = []
    for profile in gray_code_profiles(
        game,
        candidate_strategies=candidate_strategies,
        candidate_targets=candidate_targets,
        limit=profile_limit,
    ):
        if check(profile):
            results.append(profile)
            if max_results is not None and len(results) >= max_results:
                break
    return results


def random_profile(game: BBCGame, seed: SeedLike = None) -> StrategyProfile:
    """Return a uniformly random budget-maximal profile of ``game``.

    Each node independently buys a maximal affordable set of links chosen by
    randomly permuting the other nodes and buying greedily until the budget
    runs out (for uniform link costs this is a uniformly random k-subset).
    """
    rng = as_rng(seed)
    strategies: Dict[Node, Strategy] = {}
    for node in game.nodes:
        others = [v for v in game.nodes if v != node]
        rng.shuffle(others)
        remaining = game.budget(node)
        chosen: List[Node] = []
        for target in others:
            price = game.link_cost(node, target)
            if price <= remaining + 1e-9:
                chosen.append(target)
                remaining -= price
        strategies[node] = frozenset(chosen)
    return StrategyProfile(strategies)


def sampled_equilibrium_search(
    game: BBCGame,
    *,
    samples: int = 100,
    seed: SeedLike = None,
    deviation_limit: float = DEFAULT_ENUMERATION_LIMIT,
    tolerance: float = 1e-9,
    engine=None,
) -> SearchSummary:
    """Look for equilibria among random budget-maximal profiles.

    A cheap, incomplete probe used by the experiment harness to estimate how
    common equilibria are in a game family.  Random samples rarely share
    environments, so the sweep evaluator's memo helps less here than in the
    exhaustive search — the win is the flat-array engine itself — but the
    tri-state ``engine`` contract and verdict parity are the same.
    """
    rng = as_rng(seed)
    check = _nash_checker(game, tolerance, deviation_limit, engine)
    examined = 0
    found = 0
    first: Optional[StrategyProfile] = None
    for _ in range(samples):
        profile = random_profile(game, seed=rng)
        examined += 1
        if check(profile):
            found += 1
            if first is None:
                first = profile
    return SearchSummary(
        profiles_examined=examined,
        equilibria_found=found,
        first_equilibrium=first,
        exhausted=False,
    )


def estimate_profile_space(game: BBCGame) -> float:
    """Return (an estimate of) the number of budget-maximal profiles of ``game``."""
    total = 1.0
    for node in game.nodes:
        candidates = [v for v in game.nodes if v != node]
        costs = {game.link_cost(node, v) for v in candidates}
        if len(costs) <= 1:
            per_link = next(iter(costs)) if costs else 0.0
            if per_link <= 0:
                count = 1
            else:
                max_links = min(len(candidates), int(game.budget(node) // per_link))
                count = math.comb(len(candidates), max_links)
        else:
            count = sum(1 for _ in game.feasible_strategies(node, maximal_only=True))
        total *= max(1, count)
    return total
