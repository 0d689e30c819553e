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
from .best_response import count_feasible_strategies
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
    with the same journal skips them entirely (the unfinished blocks are
    seeked by Gray rank, so no journalled profile is rebuilt or
    re-checked).  The resumed summary is identical to an uninterrupted
    run's.  The journal is bound to this search's shape (radices,
    ``checkpoint_every``, ``stop_at_first``); reusing it for a different
    search raises :class:`~repro.reliability.CheckpointError`.

    Every run has one block runner, :func:`_sweep_blocks`: the
    not-yet-journalled blocks are split into contiguous Gray-rank shards,
    each swept block by block, and one merge loop folds the per-block
    records into the summary in global block order.  With ``processes=1``
    the shards run in-process and each block is journalled as it completes,
    so a kill loses at most the block in flight.  With more workers each
    shard runs in a pool worker that rebuilds the game (and, on the engine
    path, its own :class:`~repro.engine.CostEngine`) from a picklable
    :class:`~repro.experiments.parallel.GameSpec` plus the candidate sets,
    and fresh blocks are journalled at the merge, so a worker crash never
    half-writes a checkpoint.  Records, the journal, and the summary are
    **bit-identical** at any worker count; ``None`` means one worker per
    available CPU (:func:`~repro.experiments.parallel.resolve_processes`).
    An explicit engine *instance* is process-local state and cannot shard —
    pass ``engine=None`` (each worker builds its own) or ``engine=False``.
    """
    from ..engine.sweep import _resolve_gray_space
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
    if count > 1 and engine is not None and engine is not False:
        raise ValueError(
            "an explicit engine instance is process-local; pass "
            "engine=None or engine=False to shard with processes > 1"
        )

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
    # Shards: contiguous runs of the blocks still to sweep, chopped so about
    # `count` shards cover them.  Boundaries depend on `count`; the per-block
    # records do not.
    needed = [i for i in range(cutoff) if i not in journaled]
    chunk = max(1, -(-len(needed) // count))
    shards: List[List[int]] = []
    for i in needed:
        if shards and shards[-1][1] == i and i - shards[-1][0] < chunk:
            shards[-1][1] = i + 1
        else:
            shards.append([i, i + 1])

    params = {
        "checkpoint_every": checkpoint_every,
        "stop_at_first": bool(stop_at_first),
        "profile_limit": profile_limit,
        "deviation_limit": deviation_limit,
        "tolerance": tolerance,
        "use_engine": engine is None,
    }
    if count == 1:
        context = (game, sets, _nash_checker(game, tolerance, deviation_limit, engine), params)
        shard_records = (_sweep_blocks(context, lo, hi) for lo, hi in shards)
    else:
        from ..experiments.parallel import GameSpec, parallel_map

        token = (os.getpid(), next(_RUN_COUNTER))
        payload = {"spec": GameSpec.from_game(game), "sets": sets, "params": params}
        cells = [(token, payload, lo, hi) for lo, hi in shards]
        shard_records = parallel_map(_search_shard_cell, cells, processes=count)
    # Fresh records arrive in block order up to the first stopped block,
    # which ends the merge before any later shard's records are read.
    fresh = itertools.chain.from_iterable(shard_records)

    examined = 0
    found = 0
    first: Optional[StrategyProfile] = None
    exhausted = True
    for i in range(cutoff):
        record = journaled.get(i)
        if record is None:
            _, record = next(fresh)
            if journal is not None:
                journal.record(f"block:{i}", record)
        examined += record["examined"]
        found += record["found"]
        if first is None and record["first"] is not None:
            first = _deserialize_profile(record["first"])
        if record["stopped"]:
            exhausted = False
            break
    return SearchSummary(
        profiles_examined=examined,
        equilibria_found=found,
        first_equilibrium=first,
        exhausted=exhausted,
    )


def _sweep_blocks(context: tuple, lo: int, hi: int) -> Iterator[tuple]:
    """Sweep checkpoint blocks ``[lo, hi)``, yielding ``(block_index, record)``.

    The one per-block loop of :func:`exhaustive_equilibrium_search`, run
    in-process or inside a pool worker.  ``context`` is ``(game, sets,
    check, params)``.  The blocks' profiles are seeked by Gray rank, so a
    shard yields exactly the records an unsharded sweep produces for those
    blocks: same profiles in the same order, same ``search.profile`` fault
    keys (global ranks).  Under ``stop_at_first`` the block holding the
    first equilibrium is marked ``stopped`` and ends the shard.
    """
    from ..engine.sweep import gray_code_profiles
    from ..reliability.faults import fault_point

    game, sets, check, params = context
    every = params["checkpoint_every"]
    profiles = gray_code_profiles(
        game, sets, limit=params["profile_limit"], start=lo * every, stop=hi * every
    )
    for block_index in range(lo, hi):
        record = {"examined": 0, "found": 0, "first": None, "stopped": False}
        ranks = range(block_index * every, (block_index + 1) * every)
        for rank, profile in zip(ranks, profiles):
            fault_point("search.profile", key=rank)
            record["examined"] += 1
            if check(profile):
                record["found"] += 1
                if record["first"] is None:
                    record["first"] = _serialize_profile(profile)
                if params["stop_at_first"]:
                    record["stopped"] = True
                    break
        yield block_index, record
        if record["stopped"]:
            return


#: Per-process context cache of the last search a shard cell served, keyed
#: by the parent's run token: the rebuilt game, candidate sets, warm Nash
#: checker (its evaluator memo carries across the worker's shards) and
#: parameters.  One entry only — a different run evicts it, so stale games
#: cannot pin memory across unrelated searches.
_SHARD_CACHE: Dict[tuple, tuple] = {}

#: Mints the per-search run tokens keying :data:`_SHARD_CACHE`.
_RUN_COUNTER = itertools.count()


def _search_shard_cell(args) -> list:
    """Pool-worker cell: ``list(_sweep_blocks(...))`` over blocks ``[lo, hi)``.

    ``args`` is ``(run_token, payload, lo, hi)``, where ``payload`` carries
    the game's spec, the candidate sets and the search parameters; the
    worker rebuilds the game and its Nash checker once per run token.  Also
    the serial-rung fallback when the pool cannot run: everything here is
    process-local or read-only.
    """
    token, payload, lo, hi = args
    context = _SHARD_CACHE.get(token)
    if context is None:
        game = payload["spec"].build()
        params = payload["params"]
        engine = False
        if params["use_engine"]:
            from ..engine.cost_engine import CostEngine

            engine = CostEngine(game)
        check = _nash_checker(
            game, params["tolerance"], params["deviation_limit"], engine
        )
        context = (game, payload["sets"], check, params)
        _SHARD_CACHE.clear()
        _SHARD_CACHE[token] = context
    return list(_sweep_blocks(context, lo, hi))


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

    if max_results is not None and max_results < 1:
        return []
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
    return math.prod(
        (max(1, count_feasible_strategies(game, node)) for node in game.nodes),
        start=1.0,
    )
