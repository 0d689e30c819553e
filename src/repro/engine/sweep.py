"""Sweep evaluation: Gray-code profile enumeration + incremental Nash checks.

The repo's heavy workloads are *sweeps*: exhaustive / sampled equilibrium
searches and the Figure 4 completion scan evaluate thousands of profiles that
differ from their neighbours in a single node's strategy.  This module makes
that locality explicit:

* :func:`gray_code_profiles` enumerates the cartesian product of per-node
  strategy sets in mixed-radix *reflected Gray order*, so consecutive
  profiles differ in exactly one node.  Every :meth:`CostEngine.sync` along
  the sweep is then a single-node local sync and the version-stamped
  ``d_{G-u}`` rows of the moving node stay hot.

* :class:`SweepEvaluator` holds one :class:`~repro.engine.CostEngine` and
  answers ``is_nash(profile)`` with two memoisation layers keyed by a node's
  *environment* (the strategies of everyone else, which is all a deviation
  check depends on):

  - ``B(u, env)`` — the exact minimum cost node ``u`` can reach over its
    budget-maximal strategies against ``env``.  Along a Gray sweep the
    moving node's environment is unchanged, so its stability under a new
    strategy is one cached-row scoring against the memoised minimum — no
    SSSP, no re-enumeration;
  - ``verdict(u, env, strategy)`` — the final stable/unstable bit.  Each
    environment of ``u`` recurs once per strategy of ``u`` across a full
    product sweep, so re-visits cost one dict probe.

  Verdicts are **bit-identical** to the reference path
  (:func:`repro.core.is_pure_nash` with ``engine=False``): the full probe
  replays :func:`~repro.core.best_response`'s exact chained
  ``cost < best - 1e-9`` update rule, and the memoised shortcut falls back
  to a full probe inside the one-epsilon window where the pure minimum
  cannot decide the chained outcome.

``tests/test_sweep.py`` pins the Gray single-edit/coverage invariants and
search-summary parity; the ``sweep`` scenario of ``scripts/bench_speed.py``
tracks the speedup.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..core.best_response import CHAIN_EPS, deviation_scan
from ..core.errors import SearchSpaceTooLarge
from ..core.game import BBCGame, DEFAULT_ENUMERATION_LIMIT
from ..core.profile import StrategyProfile, Strategy
from .cost_engine import CostEngine

Node = Hashable

#: Default cap on the number of profiles a Gray sweep may range over
#: (mirrors :data:`repro.core.search.DEFAULT_PROFILE_LIMIT`).
DEFAULT_SWEEP_LIMIT = 5_000_000

#: Bound on a :class:`SweepEvaluator`'s memoised entries (environment minima
#: + verdict bits) across all nodes; exceeding it drops every memo and starts
#: over.  Read at use time.
MEMO_ENTRY_LIMIT = 1_000_000


def _resolve_gray_space(
    game: BBCGame,
    sets: Optional[Mapping[Node, Sequence[Strategy]]],
    candidate_strategies: Optional[Mapping[Node, Sequence[Strategy]]],
    candidate_targets: Optional[Mapping[Node, Sequence[Node]]],
    limit: float,
):
    """Resolve the per-node strategy sets and the Gray digit layout.

    Returns ``(nodes, resolved, digit_nodes, radix, size)`` where
    ``digit_nodes`` are the multi-option nodes in digit order (digit 0 = the
    last such node in declaration order = fastest-varying, mirroring
    ``itertools.product``) and ``size`` is the exact product cardinality (0
    when any node's set is empty).  Raises
    :class:`~repro.core.errors.SearchSpaceTooLarge` past ``limit``.
    """
    from ..core.search import candidate_strategy_sets

    if sets is not None:
        if candidate_strategies is not None:
            raise ValueError("pass either `sets` or `candidate_strategies`, not both")
        candidate_strategies = sets
    resolved = candidate_strategy_sets(game, candidate_strategies, candidate_targets)

    nodes = list(game.nodes)
    size = 1
    for node in nodes:
        size *= max(1, len(resolved[node]))
    if size > limit:
        raise SearchSpaceTooLarge("Gray-code profile enumeration", size, limit)
    if any(not resolved[node] for node in nodes):
        size = 0
    digit_nodes = [node for node in reversed(nodes) if len(resolved[node]) >= 2]
    radix = [len(resolved[node]) for node in digit_nodes]
    return nodes, resolved, digit_nodes, radix, size


def _gray_digits(rank: int, radix: List[int]) -> List[int]:
    """Return the reflected-Gray digit vector of ``rank`` (digit 0 fastest).

    In mixed-radix reflected Gray order the plain counter digits of ``rank``
    are ``b_j = (rank // prod(radix[:j])) % radix[j]``, and digit ``j``
    sweeps its range forward or backward depending on how many full passes
    it has completed — the quotient ``rank // prod(radix[:j+1])``.  Even
    quotient: the Gray digit is ``b_j`` itself; odd: the reflection
    ``radix[j]-1-b_j``.  That alternation is exactly what makes consecutive
    ranks differ in a single digit.
    """
    gray = []
    quotient = rank
    for m in radix:
        quotient, b = divmod(quotient, m)
        gray.append(b if quotient % 2 == 0 else m - 1 - b)
    return gray


def profile_at(
    game: BBCGame,
    rank: int,
    sets: Optional[Mapping[Node, Sequence[Strategy]]] = None,
    *,
    candidate_strategies: Optional[Mapping[Node, Sequence[Strategy]]] = None,
    candidate_targets: Optional[Mapping[Node, Sequence[Node]]] = None,
    limit: float = DEFAULT_SWEEP_LIMIT,
) -> StrategyProfile:
    """Return the ``rank``-th profile of :func:`gray_code_profiles` directly.

    Seeks the mixed-radix reflected Gray word in O(nodes) without enumerating
    the ``rank`` profiles before it — the primitive that lets sharded sweeps
    hand each worker a contiguous subrange (``start=`` below) of the exact
    serial order.  Raises ``IndexError`` outside ``[0, size)``.
    """
    nodes, resolved, digit_nodes, radix, size = _resolve_gray_space(
        game, sets, candidate_strategies, candidate_targets, limit
    )
    if not 0 <= rank < size:
        raise IndexError(f"profile rank {rank} out of range [0, {size})")
    current: Dict[Node, Strategy] = {node: resolved[node][0] for node in nodes}
    for node, digit in zip(digit_nodes, _gray_digits(rank, radix)):
        current[node] = resolved[node][digit]
    return StrategyProfile(current)


def gray_code_profiles(
    game: BBCGame,
    sets: Optional[Mapping[Node, Sequence[Strategy]]] = None,
    *,
    candidate_strategies: Optional[Mapping[Node, Sequence[Strategy]]] = None,
    candidate_targets: Optional[Mapping[Node, Sequence[Node]]] = None,
    limit: float = DEFAULT_SWEEP_LIMIT,
    start: int = 0,
    stop: Optional[int] = None,
) -> Iterator[StrategyProfile]:
    """Yield every profile over the per-node strategy sets in Gray order.

    Consecutive profiles differ in **exactly one** node's strategy (mixed-radix
    reflected Gray order), and the full cartesian product is covered exactly
    once.  ``sets`` explicitly fixes the strategy list of the nodes it
    mentions (shorthand for ``candidate_strategies``); nodes covered by
    neither fall back to all budget-maximal strategies, like
    :func:`repro.core.enumerate_profiles`.  The last node in declaration
    order varies fastest, mirroring ``itertools.product``.

    ``start``/``stop`` select the half-open rank subrange ``[start, stop)``
    of that same order (``stop=None`` = the end).  Every call seeks its
    first profile in O(nodes) with :func:`profile_at`'s digit arithmetic
    and then steps a mixed-radix counter whose digits carry their sweep
    direction, one strategy edit per profile; a sharded sweep over ``k``
    contiguous subranges therefore yields exactly the full stream,
    partitioned.

    The search-space size is estimated up front; exceeding ``limit`` raises
    :class:`~repro.core.errors.SearchSpaceTooLarge`.
    """
    nodes, resolved, digit_nodes, radix, size = _resolve_gray_space(
        game, sets, candidate_strategies, candidate_targets, limit
    )
    if start < 0 or (stop is not None and stop < start):
        raise ValueError(f"invalid Gray subrange [{start}, {stop})")
    hi = size if stop is None else min(stop, size)
    if size == 0 or start >= hi:
        return  # empty product or empty subrange

    # Seek the Gray word of `start` in closed form, then step a plain
    # mixed-radix counter.  Digit j sweeps forward on even passes and
    # backward on odd ones (the pass count is `rank // prod(radix[:j+1])`),
    # so each digit keeps its direction, seeded from `start` and flipped
    # whenever the carry rolls it over.  Between consecutive ranks only the
    # digit where the carry stops changes in the Gray word (reflection
    # swallows the rolled-over lower digits), so each step is one edit.
    current: Dict[Node, Strategy] = {node: resolved[node][0] for node in nodes}
    for node, digit in zip(digit_nodes, _gray_digits(start, radix)):
        current[node] = resolved[node][digit]
    yield StrategyProfile(current)
    counter: List[int] = []
    backward: List[bool] = []
    quotient = start
    for m in radix:
        quotient, b = divmod(quotient, m)
        counter.append(b)
        backward.append(quotient % 2 == 1)
    top = [m - 1 for m in radix]
    options = [resolved[node] for node in digit_nodes]
    for _ in range(start + 1, hi):
        j = 0
        while counter[j] == top[j]:
            counter[j] = 0
            backward[j] = not backward[j]
            j += 1
        b = counter[j] = counter[j] + 1
        current[digit_nodes[j]] = options[j][top[j] - b if backward[j] else b]
        yield StrategyProfile(current)


class SweepEvaluator:
    """Incremental pure-Nash checking over a stream of related profiles.

    Bound to one game and one :class:`CostEngine`; ``is_nash(profile)`` diffs
    each profile against the previous one, checks the changed node first (its
    environment — everything a deviation check depends on — is untouched, so
    its memoised best cost usually decides instantly), and memoises per-node
    results keyed by environment so that profiles revisiting a known
    environment never re-probe.  Verdicts are bit-identical to
    ``is_pure_nash(game, profile, engine=False)``; only the work is different.

    The evaluator assumes the profiles it is fed are feasible for the game
    (true for anything produced by :func:`gray_code_profiles` or
    :func:`repro.core.random_profile`); it does not re-validate budgets.
    """

    def __init__(
        self,
        game: BBCGame,
        *,
        tolerance: float = 1e-9,
        deviation_limit: float = DEFAULT_ENUMERATION_LIMIT,
        engine=None,
    ) -> None:
        from . import resolve_engine

        resolved = resolve_engine(game, engine)
        if resolved is None:
            raise ValueError(
                "SweepEvaluator requires the flat-array engine; pass engine=None "
                "for the shared per-game engine or an explicit CostEngine "
                "(engine=False selects the reference path at the search entry "
                "points, not here)"
            )
        self.game = game
        self.engine: CostEngine = resolved
        self.tolerance = float(tolerance)
        self.deviation_limit = deviation_limit
        self.labels: Tuple[Node, ...] = resolved.indexed.labels
        self._n = len(self.labels)
        self._strategies: Optional[List[FrozenSet[Node]]] = None
        # The strategies this evaluator last synced the engine to, and the
        # engine version that sync left.  Every real sync bumps the version,
        # so while it is unchanged the engine still holds these strategies,
        # even if another caller shares the engine.
        self._synced: Optional[List[FrozenSet[Node]]] = None
        self._synced_version = -1
        self._last_verdict: Optional[bool] = None
        # per node: environment key -> [pure minimum, {strategy: verdict}]
        self._memo: List[Dict[tuple, list]] = [dict() for _ in range(self._n)]
        self._memo_entries = 0
        #: Observability: how each check was decided.
        self.stats: Dict[str, int] = {
            "checks": 0,
            "noop_checks": 0,
            "verdict_hits": 0,
            "memoised_probes": 0,
            "full_probes": 0,
            "ambiguous_fallbacks": 0,
            "memo_resets": 0,
        }

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def is_nash(self, profile: StrategyProfile) -> bool:
        """Return whether ``profile`` is a pure Nash equilibrium of the game.

        Exactly the verdict of ``is_pure_nash(game, profile, engine=False)``
        with this evaluator's tolerance and deviation limit.
        """
        labels = self.labels
        strategies = [profile.strategy(label) for label in labels]
        self.stats["checks"] += 1
        previous = self._strategies
        if previous is not None:
            changed = [u for u in range(self._n) if strategies[u] != previous[u]]
            if not changed and self._last_verdict is not None:
                self.stats["noop_checks"] += 1
                return self._last_verdict
        else:
            changed = None

        # The moving node keeps its environment, and every row its check
        # reads is masked at the node itself (``d_{G-u}`` never contains
        # ``u``'s links) — so as long as the engine's synced profile differs
        # from the new one *only* at the mover, the mover can be probed
        # without a sync.  Along a Gray run of one node's strategies, an
        # unstable mover therefore rejects the whole profile with no sync
        # and no CSR rebuild at all.
        mover: Optional[int] = None
        if changed is not None and len(changed) == 1:
            mover = changed[0]
            synced = self._synced
            if (
                synced is not None
                and self.engine.version == self._synced_version
                and all(u == mover or strategies[u] == synced[u] for u in range(self._n))
            ):
                if not self._node_stable(mover, strategies):
                    self._strategies = strategies
                    self._last_verdict = False
                    return False
                # Mover stable: the remaining nodes need the real profile.
                self._sync(profile, strategies)
                return self._check_rest(strategies, skip=mover)

        self._sync(profile, strategies)
        if mover is not None:
            # Check the mover first: it is both the cheapest node to decide
            # (memoised best cost, preserved rows) and, in a sweep, the
            # likeliest source of instability.
            if not self._node_stable(mover, strategies):
                self._last_verdict = False
                return False
            return self._check_rest(strategies, skip=mover)
        return self._check_rest(strategies, skip=None)

    def _sync(self, profile: StrategyProfile, strategies: List[FrozenSet[Node]]) -> None:
        self.engine.sync(profile)
        self._strategies = self._synced = strategies
        self._synced_version = self.engine.version

    def _check_rest(self, strategies: List[FrozenSet[Node]], skip: Optional[int]) -> bool:
        verdict = True
        for u in range(self._n):
            if u == skip:
                continue
            if not self._node_stable(u, strategies):
                verdict = False
                break
        self._last_verdict = verdict
        return verdict

    # ------------------------------------------------------------------ #
    # Per-node checks
    # ------------------------------------------------------------------ #
    def _node_stable(self, u: int, strategies: List[FrozenSet[Node]]) -> bool:
        env_key = tuple(strategies[:u] + strategies[u + 1 :])
        strategy = strategies[u]
        memo = self._memo[u]
        entry = memo.get(env_key)
        if entry is None:
            verdict, pure = self._full_probe(u, strategy)
            self.stats["full_probes"] += 1
            memo[env_key] = [pure, {strategy: verdict}]
            self._account_memo(2)
            return verdict
        pure, verdicts = entry
        cached = verdicts.get(strategy)
        if cached is not None:
            self.stats["verdict_hits"] += 1
            return cached
        # Environment unchanged since `pure` was memoised.  The reference's
        # chained best lands within CHAIN_EPS above the pure minimum, so the
        # margin decides everywhere except inside that one-epsilon window.
        current = self._scorer(u)(strategy)
        margin = current - pure
        if margin <= self.tolerance:
            verdict = True
            self.stats["memoised_probes"] += 1
        elif margin > self.tolerance + CHAIN_EPS:
            verdict = False
            self.stats["memoised_probes"] += 1
        else:
            verdict, _ = self._full_probe(u, strategy)
            self.stats["full_probes"] += 1
            self.stats["ambiguous_fallbacks"] += 1
        verdicts[strategy] = verdict
        self._account_memo(1)
        return verdict

    def _scorer_obj(self, u: int):
        return self.engine.scorer(self.labels[u])

    @staticmethod
    def _score_callable(scorer):
        return scorer.score_ints if scorer.identity_labels else scorer.score

    def _scorer(self, u: int):
        return self._score_callable(self._scorer_obj(u))

    def _full_probe(self, u: int, strategy: FrozenSet[Node]) -> Tuple[bool, float]:
        """Probe node ``u`` exactly like the reference, harvesting the memo.

        One :func:`~repro.core.best_response.deviation_scan` pass gives both
        the *chained* best (the exact :func:`~repro.core.best_response`
        semantics the verdict needs) and the *pure* minimum (what later
        profiles with the same environment compare against).
        """
        scorer = self._scorer_obj(u)
        score = self._score_callable(scorer)
        current = score(strategy)
        chained, _, pure, _ = deviation_scan(
            self.game, self.labels[u], None, self.deviation_limit, score, scorer, current
        )
        verdict = (current - chained) <= self.tolerance
        return verdict, pure

    def _account_memo(self, added: int) -> None:
        self._memo_entries += added
        if self._memo_entries > MEMO_ENTRY_LIMIT:
            for memo in self._memo:
                memo.clear()
            self._memo_entries = 0
            self.stats["memo_resets"] += 1


__all__ = [
    "DEFAULT_SWEEP_LIMIT",
    "SweepEvaluator",
    "gray_code_profiles",
    "profile_at",
]
