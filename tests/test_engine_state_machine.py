"""Model-based lifecycle test for :class:`~repro.engine.CostEngine`.

A Hypothesis state machine drives one long-lived engine through generated
sequences of profile steps (single-node moves, multi-node jumps, no-op
resyncs, and probe / one-node step / re-probe runs that reach row repair),
report plans, budget squeezes and poisoned row fills, probing it with
``best_response``, ``cost_of`` and ``all_costs`` along the way.  The
model is the simplest one there is: a fresh engine synced to the same
profile (and, at n <= 8, the ``engine=False`` dict reference).  Every probe
must match it exactly, and after every step the engine's bookkeeping must
agree with its caches: ``cache_bytes()`` is the sum of the cached payloads,
every cached row of a uniform game is an exact integer hop row, and every
current base row (the unmasked rows masked rows are derived from: on the
list kernels at n >= 16, on numpy for weighted games) equals a fresh
unmasked traversal.

Both traversal backends run the same rules, each from a one-line subclass;
the numpy one is skipped when numpy is not installed.
"""

import random
import warnings

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import BBCGame, StrategyProfile, UniformBBCGame, best_response
from repro.core.best_response import DeviationOracle
from repro.engine import CostEngine
from repro.engine.cost_engine import _BASE, _payload_nbytes, default_memory_budget
from repro.reliability import FaultPlan, FaultRule, active_faults

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:
    HAVE_NUMPY = False

#: At or below this size every probe is also checked against the dict
#: reference, which is too slow to run on every step of the larger games.
REFERENCE_MAX_N = 8


def _weighted_game(n, seed):
    """Integer link lengths 2..7 on five outgoing pairs per node, budget 2."""
    rng = random.Random(seed)
    lengths = {}
    for u in range(n):
        for v in rng.sample([x for x in range(n) if x != u], 5):
            lengths[(u, v)] = float(rng.randint(2, 7))
    return BBCGame(nodes=range(n), link_lengths=lengths, default_budget=2.0)


# n = 8 keeps the dict reference affordable; n = 20 crosses the 16-target
# gate of the vectorised scoring paths, allows real repairs (limit n // 8)
# and, on the list kernels, derives masked rows from cached base rows (the
# numpy backend derives them for both weighted games).
GAMES = (
    UniformBBCGame(8, 2),
    UniformBBCGame(20, 2),
    _weighted_game(8, seed=3),
    _weighted_game(20, seed=4),
)


class CostEngineMachine(RuleBasedStateMachine):
    backend = "python"

    @initialize(
        game=st.sampled_from(GAMES),
        verify=st.booleans(),
        force_repair=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def start(self, game, verify, force_repair, seed):
        self.game = game
        self.nodes = list(game.nodes)
        self.engine = CostEngine(
            game, backend=self.backend, verify_every=1 if verify else None
        )
        if force_repair:
            # Private test hook: repair across any number of movers instead
            # of dropping and recomputing stale rows.
            self.engine._repair_edit_limit = len(self.nodes)
        self.profile = self._random_profile(random.Random(seed))
        self.engine.sync(self.profile)
        # Derivation: on the list kernels from n = 16, on numpy for every
        # weighted game (uniform games keep its masked BFS batch).
        if self.backend == "numpy":
            assert self.engine._derive == (not game.has_uniform_lengths)
        else:
            assert self.engine._derive == (len(self.nodes) >= 16)

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _random_strategy(self, rng, node):
        others = [v for v in self.nodes if v != node]
        return frozenset(rng.sample(others, rng.randint(0, 2)))

    def _random_profile(self, rng):
        return StrategyProfile(
            {node: self._random_strategy(rng, node) for node in self.nodes}
        )

    def _fresh(self):
        engine = CostEngine(self.game, backend=self.backend)
        engine.sync(self.profile)
        return engine

    def _draw_probe(self, data):
        """Draw one probe: a function of an engine (or ``False``)."""
        # Half the probes revisit two fixed nodes, so that rows filled before
        # a profile step are touched again after it (the repair path).
        node = data.draw(
            st.sampled_from(self.nodes[:2]) | st.sampled_from(self.nodes),
            label="node",
        )
        kind = data.draw(
            st.sampled_from(["best_response", "cost_of", "all_costs"]), label="kind"
        )
        if kind == "best_response":
            candidates = data.draw(
                st.none()
                | st.lists(
                    st.sampled_from(self.nodes), min_size=1, max_size=6, unique=True
                ),
                label="candidates",
            )

            def probe(engine):
                return best_response(
                    self.game, self.profile, node, candidates=candidates, engine=engine
                )

        elif kind == "cost_of":
            seed = data.draw(st.integers(0, 2**16), label="strategy seed")
            strategy = self._random_strategy(random.Random(seed), node)

            def probe(engine):
                if engine is False:
                    return DeviationOracle(self.game, self.profile, node).cost_of(
                        strategy
                    )
                engine.sync(self.profile)
                return engine.cost_of(node, strategy)

        else:

            def probe(engine):
                return self.game.all_costs(self.profile, engine=engine)

        return probe

    def _check(self, probe, plan=None):
        """Run ``probe`` on the engine under test (under ``plan``, if any)
        and compare it with a fresh engine and, when small, the reference."""
        with warnings.catch_warnings(), active_faults(plan):
            # A poisoned row caught by self-verification warns; the result
            # must still be exact, which is what the comparison checks.
            warnings.simplefilter("ignore", RuntimeWarning)
            result = probe(self.engine)
        assert result == probe(self._fresh())
        if len(self.nodes) <= REFERENCE_MAX_N:
            assert result == probe(False)

    # ------------------------------------------------------------------ #
    # Profile steps
    # ------------------------------------------------------------------ #
    @rule(data=st.data())
    def single_node_step(self, data):
        node = data.draw(st.sampled_from(self.nodes), label="mover")
        seed = data.draw(st.integers(0, 2**16), label="strategy seed")
        strategy = self._random_strategy(random.Random(seed), node)
        self.profile = self.profile.with_strategy(node, strategy)
        self.engine.sync(self.profile)

    @precondition(lambda self: self.engine._repair_edit_limit >= 1)
    @rule(data=st.data())
    def probe_step_reprobe(self, data):
        # Fill some of a node's rows, move one other node, then probe the
        # first node over every candidate: its stale rows are repaired in
        # place, and on the derivation path so are the base rows its new
        # rows derive from.
        node = data.draw(st.sampled_from(self.nodes), label="node")
        others = [v for v in self.nodes if v != node]
        first = data.draw(
            st.lists(st.sampled_from(others), min_size=1, max_size=3, unique=True),
            label="candidates",
        )
        self._check(
            lambda engine: best_response(
                self.game, self.profile, node, candidates=first, engine=engine
            )
        )
        # Toggle one arc of the mover (dropping another past the budget of
        # 2), so the step always changes the graph.
        mover = data.draw(st.sampled_from(others), label="mover")
        target = data.draw(
            st.sampled_from([v for v in self.nodes if v != mover]), label="target"
        )
        arcs = set(self.profile.strategy(mover)) ^ {target}
        if len(arcs) > 2:
            arcs.discard(min(arcs - {target}))
        self.profile = self.profile.with_strategy(mover, frozenset(arcs))
        self.engine.sync(self.profile)
        self._check(
            lambda engine: best_response(self.game, self.profile, node, engine=engine)
        )

    @rule(seed=st.integers(0, 2**16))
    def multi_node_jump(self, seed):
        self.profile = self._random_profile(random.Random(seed))
        self.engine.sync(self.profile)

    @rule()
    def noop_resync(self):
        version = self.engine.version
        copy = StrategyProfile(
            {node: self.profile.strategy(node) for node in self.nodes}
        )
        assert self.engine.sync(copy) == ()
        assert self.engine.version == version

    # ------------------------------------------------------------------ #
    # Engine-side events
    # ------------------------------------------------------------------ #
    @rule(data=st.data())
    def plan_report(self, data):
        # None plans every node against every other; a restriction map, over
        # every node or over a drawn subset (as a service batch lists only
        # its queried nodes), plans exactly the nodes it lists.
        listed = data.draw(
            st.none()
            | st.just(self.nodes)
            | st.lists(st.sampled_from(self.nodes), min_size=1, unique=True),
            label="planned nodes",
        )
        others = {node: [v for v in self.nodes if v != node] for node in self.nodes}
        candidates = None
        if listed is not None:
            candidates = {node: others[node][:4] for node in listed}
        planned = self.engine.plan_report_prefetch(self.profile, candidates)
        wanted = others if candidates is None else candidates
        index = self.engine.indexed.index
        assert set(self.engine._plan_chunk_of) == {index[node] for node in wanted}
        assert planned == sum(
            len({*hops, *self.profile.strategy(node)}) for node, hops in wanted.items()
        )

    @rule(budget=st.sampled_from([0, 600, 4_000, None]))
    def set_budget(self, budget):
        # A tiny budget evicts on every fill; None restores the default.
        self.engine.memory_budget_bytes = (
            default_memory_budget(len(self.nodes)) if budget is None else budget
        )

    @rule(data=st.data())
    def probe(self, data):
        self._check(self._draw_probe(data))

    @precondition(lambda self: self.engine.verify_every == 1)
    @rule(data=st.data())
    def poisoned_probe(self, data):
        # Only the engine under test runs under the plan: its first single
        # row fill caches a corrupted copy, which the same probe run again
        # reads back as a cache hit that self-verification must catch.
        probe = self._draw_probe(data)
        self._check(
            probe, FaultPlan(rules=(FaultRule(site="engine.row-poison", times=1),))
        )
        self._check(probe)

    # ------------------------------------------------------------------ #
    # Invariants
    # ------------------------------------------------------------------ #
    @invariant()
    def ledger_matches_cached_payloads(self):
        # The base rows live in the same store, under the _BASE key, so the
        # sum covers them too.
        engine = self.engine
        cached = sum(
            _payload_nbytes(row)
            for _, rows in engine._env_cache.values()
            for row in rows.values()
        )
        assert engine.cache_bytes() == cached

    @invariant()
    def uniform_rows_are_integer_hop_rows(self):
        # A uniform game caches one row per (u, a), and one base row per
        # source under the _BASE key: the exact BFS hop row, entries in
        # {-1} (unreached) or [0, n), which repair patches in place and
        # costs scale by the unit only when read.
        engine = self.engine
        if not engine.indexed.uniform_lengths:
            return
        n = engine.indexed.n
        for _, rows in engine._env_cache.values():
            for row in rows.values():
                if isinstance(row, list):
                    assert all(type(h) is int for h in row)
                else:
                    assert row.dtype.kind == "i"
                assert len(row) == n
                assert all(h == -1 or 0 <= h < n for h in row)

    @invariant()
    def current_base_rows_are_fresh_traversals(self):
        entry = self.engine._env_cache.get(_BASE)
        if entry is None or entry[0] != self.engine.version:
            return
        fresh = self._fresh()
        for source, row in entry[1].items():
            # Same container, same dtype, same entries (inf == inf): the
            # numpy base rows are compared elementwise too.
            expected = fresh._traverse([source], -1)[0]
            assert type(row) is type(expected)
            assert getattr(row, "dtype", None) == getattr(expected, "dtype", None)
            assert len(row) == len(expected)
            assert all(a == b for a, b in zip(row, expected))


MACHINE_SETTINGS = settings(
    max_examples=40, stateful_step_count=40, derandomize=True, deadline=None
)


# One small subclass per backend: Hypothesis derandomizes a machine by
# hashing its class source, so edits to the shared rules above do not
# reshuffle which examples either backend runs.
class PythonBackendMachine(CostEngineMachine):
    backend = "python"


TestCostEnginePythonBackend = PythonBackendMachine.TestCase
TestCostEnginePythonBackend.settings = MACHINE_SETTINGS


class NumpyBackendMachine(CostEngineMachine):
    backend = "numpy"


TestCostEngineNumpyBackend = pytest.mark.skipif(
    not HAVE_NUMPY, reason="numpy is not installed"
)(NumpyBackendMachine.TestCase)
TestCostEngineNumpyBackend.settings = MACHINE_SETTINGS
