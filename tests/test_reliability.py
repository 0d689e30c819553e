"""The fault-tolerant execution runtime, driven by deterministic fault injection.

Every entry point must, under any seeded :class:`FaultPlan`, either return a
result bit-identical to its fault-free run or raise the documented typed
error — never a wrong answer, never an unhandled ``multiprocessing``/scipy
traceback.  These tests pin that contract for the fault harness itself, the
crash-safe ``parallel_map`` (worker crashes, dead pools, its fixed retry
policy), the checkpoint journal (kill/resume parity for study grids and
exhaustive sweeps), and the engines' graceful-degradation paths
(``verify_every`` row self-verification, chunk-build fallback, LP
retry-then-reference fallback, numpy-import gating).
"""

import json
import warnings
from typing import ClassVar, List

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import UniformBBCGame
from repro.core.profile import StrategyProfile
from repro.core.search import exhaustive_equilibrium_search
from repro.engine import CostEngine, resolve_backend
from repro.experiments.dynamics_study import max_cost_first_convergence_study
from repro.experiments.parallel import (
    MAX_POOL_RESTARTS,
    TASK_RETRIES,
    GameSpec,
    default_processes,
    last_run_stats,
    parallel_map,
    resolve_processes,
)
from repro.experiments.workloads import latency_overlay_game
from repro.reliability import (
    CheckpointError,
    CheckpointJournal,
    FaultPlan,
    FaultRule,
    InjectedFault,
    active_faults,
    atomic_write_text,
    current_plan,
    fault_point,
)

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:
    HAVE_NUMPY = False


def square(x):
    return x * x


def ring_profile(game):
    nodes = list(game.nodes)
    n = len(nodes)
    return StrategyProfile(
        {u: frozenset({nodes[(i + 1) % n]}) for i, u in enumerate(nodes)}
    )


# --------------------------------------------------------------------------- #
# The fault harness itself
# --------------------------------------------------------------------------- #
class TestFaultHarness:
    def test_sites_are_inert_without_a_plan(self):
        assert current_plan() is None
        fault_point("test.anything", key=(1, 2))  # must be a no-op

    def test_error_rule_raises_typed_injected_fault(self):
        plan = FaultPlan(rules=(FaultRule(site="test.s"),))
        with active_faults(plan):
            with pytest.raises(InjectedFault) as excinfo:
                fault_point("test.s", key=7)
        assert excinfo.value.site == "test.s"
        assert excinfo.value.key == 7
        assert isinstance(excinfo.value, Exception)

    def test_active_faults_restores_previous_plan(self):
        outer = FaultPlan(rules=(FaultRule(site="test.outer"),))
        inner = FaultPlan(rules=(FaultRule(site="test.inner"),))
        with active_faults(outer):
            with active_faults(inner):
                assert current_plan() is inner
            assert current_plan() is outer
        assert current_plan() is None

    def test_keys_restrict_firing(self):
        plan = FaultPlan(rules=(FaultRule(site="test.s", keys=frozenset({3}), times=None),))
        with active_faults(plan):
            fault_point("test.s", key=2)
            with pytest.raises(InjectedFault):
                fault_point("test.s", key=3)

    def test_after_and_times_open_an_occurrence_window(self):
        plan = FaultPlan(rules=(FaultRule(site="test.s", after=2, times=1),))
        with active_faults(plan):
            fault_point("test.s")
            fault_point("test.s")
            with pytest.raises(InjectedFault):
                fault_point("test.s")
            fault_point("test.s")  # window exhausted

    def test_crash_rules_default_to_worker_scope(self):
        rule = FaultRule(site="test.s", kind="crash")
        assert rule.where == "worker"
        # ... so an armed crash rule cannot kill the test process itself.
        with active_faults(FaultPlan(rules=(rule,))):
            fault_point("test.s")

    def test_seeded_coin_is_deterministic_and_seed_dependent(self):
        plan_a = FaultPlan.seeded(1, ["test.s"], probability=0.5)
        plan_b = FaultPlan.seeded(1, ["test.s"], probability=0.5)
        fired_a = [plan_a.match("test.s", key=i) is not None for i in range(64)]
        fired_b = [plan_b.match("test.s", key=i) is not None for i in range(64)]
        assert fired_a == fired_b
        assert any(fired_a) and not all(fired_a)
        plan_c = FaultPlan.seeded(2, ["test.s"], probability=0.5)
        assert fired_a != [plan_c.match("test.s", key=i) is not None for i in range(64)]

    def test_unknown_kind_and_scope_are_rejected(self):
        with pytest.raises(ValueError):
            FaultRule(site="test.s", kind="meltdown")
        with pytest.raises(ValueError):
            FaultRule(site="test.s", where="moon")


# --------------------------------------------------------------------------- #
# Checkpoint journal
# --------------------------------------------------------------------------- #
class TestCheckpointJournal:
    def test_record_and_reload(self, tmp_path):
        path = tmp_path / "j.json"
        journal = CheckpointJournal(path)
        journal.record("cell:0", {"x": 1.5})
        journal.record("cell:1", None)
        reloaded = CheckpointJournal(path)
        assert len(reloaded) == 2
        assert "cell:0" in reloaded and reloaded.get("cell:0") == {"x": 1.5}
        assert reloaded.get("cell:1", "missing") is None
        assert reloaded.get("cell:9", "missing") == "missing"

    def test_writes_are_atomic(self, tmp_path):
        path = tmp_path / "j.json"
        journal = CheckpointJournal(path)
        journal.record("k", 1)
        assert not (tmp_path / "j.json.tmp").exists()
        assert json.loads(path.read_text())["entries"] == {"k": 1}

    def test_corrupt_file_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "j.json"
        path.write_text("{truncated")
        with pytest.raises(CheckpointError, match="unreadable or corrupt"):
            CheckpointJournal(path)

    def test_foreign_json_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "j.json"
        path.write_text('{"some": "other file"}')
        with pytest.raises(CheckpointError, match="not a repro-checkpoint-v1"):
            CheckpointJournal(path)

    def test_meta_binding_rejects_a_different_run(self, tmp_path):
        path = tmp_path / "j.json"
        journal = CheckpointJournal(path)
        journal.bind_meta({"radices": [2, 2]})
        reloaded = CheckpointJournal(path)
        reloaded.bind_meta({"radices": [2, 2]})  # same shape: fine
        with pytest.raises(CheckpointError, match="different run"):
            reloaded.bind_meta({"radices": [3, 2]})

    def test_atomic_write_text_replaces_whole_file(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "first")
        atomic_write_text(path, "second")
        assert path.read_text() == "second"
        assert not (tmp_path / "out.txt.tmp").exists()


# --------------------------------------------------------------------------- #
# parallel_map: crash-safe fan-out
# --------------------------------------------------------------------------- #
class TestParallelMap:
    ITEMS: ClassVar[List[int]] = list(range(6))
    EXPECTED: ClassVar[List[int]] = [0, 1, 4, 9, 16, 25]

    def test_serial_and_pool_agree(self):
        assert parallel_map(square, self.ITEMS, processes=1) == self.EXPECTED
        assert parallel_map(square, self.ITEMS, processes=3) == self.EXPECTED

    def test_injected_error_is_retried_in_pool(self):
        plan = FaultPlan(
            rules=(FaultRule(site="parallel.task", keys=frozenset({(2, 0)})),)
        )
        with active_faults(plan):
            assert parallel_map(square, self.ITEMS, processes=2) == self.EXPECTED
        assert last_run_stats()["retried"] == 1

    def test_worker_crash_restarts_the_pool_bit_identically(self):
        plan = FaultPlan(
            rules=(
                FaultRule(site="parallel.task", kind="crash", keys=frozenset({(1, 0)})),
            )
        )
        with active_faults(plan):
            assert parallel_map(square, self.ITEMS, processes=2) == self.EXPECTED
        stats = last_run_stats()
        assert stats["pool_restarts"] >= 1
        assert stats["crashed"] >= 1
        assert stats["serial_fallback_cells"] == 0

    def test_exhausted_restarts_fall_back_serially_with_warning(self):
        # Crash cell 1 in the first pool and in every restarted one.
        keys = frozenset((1, attempt) for attempt in range(MAX_POOL_RESTARTS + 1))
        plan = FaultPlan(
            rules=(FaultRule(site="parallel.task", kind="crash", keys=keys, times=None),)
        )
        with active_faults(plan):
            with pytest.warns(RuntimeWarning, match="pool died mid-run.*serially"):
                got = parallel_map(square, self.ITEMS, processes=2)
        assert got == self.EXPECTED
        stats = last_run_stats()
        assert stats["pool_restarts"] == MAX_POOL_RESTARTS
        assert stats["serial_fallback_cells"] >= 1

    def test_pool_start_failure_degrades_to_serial(self):
        plan = FaultPlan(rules=(FaultRule(site="parallel.pool-start"),))
        with active_faults(plan):
            with pytest.warns(RuntimeWarning, match="process pool unavailable"):
                got = parallel_map(square, self.ITEMS, processes=2)
        assert got == self.EXPECTED

    def test_on_error_raise_propagates_the_typed_error(self):
        plan = FaultPlan(rules=(FaultRule(site="parallel.task", times=None),))
        with active_faults(plan):
            with pytest.raises(InjectedFault):
                parallel_map(square, self.ITEMS, processes=2)

    def test_lowest_failing_cell_is_raised_first(self):
        keys = frozenset(
            (index, attempt) for index in (4, 2) for attempt in range(TASK_RETRIES + 1)
        )
        plan = FaultPlan(rules=(FaultRule(site="parallel.task", keys=keys, times=None),))
        with active_faults(plan):
            with pytest.raises(InjectedFault) as raised:
                parallel_map(square, self.ITEMS, processes=2)
        assert raised.value.key == (2, TASK_RETRIES)

    def test_journal_resume_skips_completed_cells(self, tmp_path):
        path = tmp_path / "cells.json"
        first = parallel_map(square, self.ITEMS, journal=path)
        assert first == self.EXPECTED
        # Resume: arm a fault on every task attempt — it must never fire,
        # proving no cell re-executes.
        plan = FaultPlan(rules=(FaultRule(site="parallel.task", times=None),))
        with active_faults(plan):
            second = parallel_map(square, self.ITEMS, processes=2, journal=path)
        assert second == self.EXPECTED
        assert last_run_stats()["journal_hits"] == len(self.ITEMS)

    def test_partial_journal_fills_only_missing_cells(self, tmp_path):
        path = tmp_path / "cells.json"
        journal = CheckpointJournal(path)
        journal.record("cell:0", 0)
        journal.record("cell:3", 9)
        got = parallel_map(square, self.ITEMS, journal=journal)
        assert got == self.EXPECTED
        assert last_run_stats()["journal_hits"] == 2
        assert len(journal) == len(self.ITEMS)

    @settings(max_examples=15, deadline=None)
    @given(
        processes=st.sampled_from([1, 2, 3]),
        crash_seed=st.integers(0, 1_000),
    )
    def test_results_are_bit_identical_under_any_crash_schedule(
        self, processes, crash_seed
    ):
        """The acceptance invariant, across both axes at once.

        A seeded plan crashes a pseudo-random subset of first task attempts
        (worker-scoped, so pool generations die and restart); results must
        equal the fault-free serial run no matter the process count or crash
        schedule.
        """
        items = list(range(8))
        expected = [x * x for x in items]
        plan = FaultPlan.seeded(
            crash_seed, ["parallel.task"], probability=0.25, kind="crash", times=3
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with active_faults(plan):
                got = parallel_map(square, items, processes=processes)
        assert got == expected


# --------------------------------------------------------------------------- #
# GameSpec regression
# --------------------------------------------------------------------------- #
class OverriddenUniform(UniformBBCGame):
    """A uniform subclass whose tables (n, k) alone cannot encode."""

    def __init__(self, n, k):
        super().__init__(n, k)
        self._budgets[0] = 0.0


class TestGameSpec:
    def test_exact_uniform_type_takes_the_uniform_spec(self):
        assert GameSpec.from_game(UniformBBCGame(5, 2)).kind == "uniform"

    def test_uniform_subclass_takes_the_general_spec(self):
        spec = GameSpec.from_game(OverriddenUniform(5, 2))
        assert spec.kind == "general"
        rebuilt = spec.build()
        # The general spec captured the subclass's actual budget table,
        # which the (n, k) uniform spec would have lost.
        assert rebuilt.budget(0) == 0.0
        assert rebuilt.budget(1) == UniformBBCGame(5, 2).budget(1)


# --------------------------------------------------------------------------- #
# Acceptance: study grid with a worker killed mid-run == serial
# --------------------------------------------------------------------------- #
class TestStudyGridCrashParity:
    def test_killed_worker_mid_grid_completes_identical_to_serial(self):
        serial = max_cost_first_convergence_study(
            7, 2, num_starts=4, max_rounds=15, seed=0, processes=1
        )
        plan = FaultPlan(
            rules=(
                FaultRule(site="parallel.task", kind="crash", keys=frozenset({(2, 0)})),
            )
        )
        with active_faults(plan):
            crashed = max_cost_first_convergence_study(
                7, 2, num_starts=4, max_rounds=15, seed=0, processes=2
            )
        assert crashed == serial
        assert last_run_stats()["pool_restarts"] >= 1

    def test_killed_grid_resumes_from_journal(self, tmp_path):
        path = tmp_path / "grid.json"
        serial = max_cost_first_convergence_study(
            7, 2, num_starts=4, max_rounds=15, seed=0, processes=1
        )
        # First run dies on cell 2: fail every pool retry attempt so the
        # cell's exception aborts the grid mid-run.  The other
        # cells were journalled as they completed.
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site="parallel.task",
                    keys=frozenset((2, attempt) for attempt in range(4)),
                    times=None,
                ),
            )
        )
        with active_faults(plan):
            with pytest.raises(InjectedFault):
                max_cost_first_convergence_study(
                    7, 2, num_starts=4, max_rounds=15, seed=0,
                    processes=2, journal=path,
                )
        assert len(CheckpointJournal(path)) >= 1
        resumed = max_cost_first_convergence_study(
            7, 2, num_starts=4, max_rounds=15, seed=0, processes=1, journal=path
        )
        assert resumed == serial
        assert last_run_stats()["journal_hits"] >= 1


# --------------------------------------------------------------------------- #
# Checkpointed exhaustive sweeps
# --------------------------------------------------------------------------- #
class TestSearchJournal:
    def run(self, game, **kwargs):
        return exhaustive_equilibrium_search(game, stop_at_first=False, **kwargs)

    def test_killed_sweep_resumes_without_recomputing(self, tmp_path):
        game = UniformBBCGame(4, 1)
        path = tmp_path / "search.json"
        baseline = self.run(game)
        # Kill the sweep at profile 10 (block 2 of checkpoint_every=4).
        plan = FaultPlan(rules=(FaultRule(site="search.profile", keys=frozenset({10})),))
        with active_faults(plan):
            with pytest.raises(InjectedFault):
                self.run(game, journal=path, checkpoint_every=4)
        assert len(CheckpointJournal(path)) >= 2
        # Resume with a fault armed *inside a completed block*: it must never
        # fire, proving journalled profiles are not re-checked.
        plan = FaultPlan(rules=(FaultRule(site="search.profile", keys=frozenset({1})),))
        with active_faults(plan):
            resumed = self.run(game, journal=path, checkpoint_every=4)
        assert resumed == baseline

    def test_serial_kill_resumes_through_the_sharded_path(self, tmp_path):
        game = UniformBBCGame(4, 1)
        path = tmp_path / "search.json"
        baseline = self.run(game)
        plan = FaultPlan(rules=(FaultRule(site="search.profile", keys=frozenset({10})),))
        with active_faults(plan):
            with pytest.raises(InjectedFault):
                self.run(game, journal=path, checkpoint_every=4)
        assert len(CheckpointJournal(path)) >= 2
        # Resume sharded, with a persistent fault armed inside a journalled
        # block: a worker re-checking it would fail every retry, and even one
        # firing would show up as a retried cell.
        plan = FaultPlan(
            rules=(FaultRule(site="search.profile", keys=frozenset({1}), times=None),)
        )
        with active_faults(plan):
            resumed = self.run(game, journal=path, checkpoint_every=4, processes=2)
        assert resumed == baseline
        stats = last_run_stats()
        assert stats["cells"] >= 2 and stats["retried"] == 0
        # Every block is journalled now; a serial re-run checks nothing.
        with active_faults(plan):
            assert self.run(game, journal=path, checkpoint_every=4) == baseline

    @pytest.mark.parametrize("stop_at_first", [True, False])
    def test_journal_is_identical_at_any_worker_count(self, tmp_path, stop_at_first):
        game = UniformBBCGame(4, 2)
        journals, summaries = [], []
        for processes in (1, 2):
            path = tmp_path / f"search-{processes}.json"
            summaries.append(
                exhaustive_equilibrium_search(
                    game,
                    stop_at_first=stop_at_first,
                    checkpoint_every=8,
                    processes=processes,
                    journal=path,
                )
            )
            entries = json.loads(path.read_text())["entries"]
            journals.append(
                {key: value for key, value in entries.items() if key.startswith("block:")}
            )
        assert journals[0] and journals[0] == journals[1]
        assert summaries[0] == summaries[1]

    def test_stop_at_first_parity_fresh_and_resumed(self, tmp_path):
        game = UniformBBCGame(4, 1)
        path = tmp_path / "search.json"
        baseline = exhaustive_equilibrium_search(game, stop_at_first=True)
        fresh = exhaustive_equilibrium_search(
            game, stop_at_first=True, journal=path, checkpoint_every=3
        )
        resumed = exhaustive_equilibrium_search(
            game, stop_at_first=True, journal=path, checkpoint_every=3
        )
        assert fresh == baseline
        assert resumed == baseline

    def test_journal_is_bound_to_the_search_shape(self, tmp_path):
        game = UniformBBCGame(4, 1)
        path = tmp_path / "search.json"
        self.run(game, journal=path, checkpoint_every=4)
        with pytest.raises(CheckpointError, match="different run"):
            self.run(game, journal=path, checkpoint_every=8)

    def test_invalid_checkpoint_every_is_rejected(self):
        with pytest.raises(ValueError, match="checkpoint_every"):
            self.run(UniformBBCGame(4, 1), checkpoint_every=0)

    @settings(max_examples=10, deadline=None)
    @given(checkpoint_every=st.integers(1, 20), kill_at=st.integers(0, 80))
    def test_resume_parity_for_any_block_size_and_kill_point(
        self, tmp_path_factory, checkpoint_every, kill_at
    ):
        game = UniformBBCGame(4, 1)
        baseline = self.run(game)
        path = tmp_path_factory.mktemp("journals") / "search.json"
        plan = FaultPlan(
            rules=(FaultRule(site="search.profile", keys=frozenset({kill_at})),)
        )
        try:
            with active_faults(plan):
                self.run(game, journal=path, checkpoint_every=checkpoint_every)
        except InjectedFault:
            pass
        resumed = self.run(game, journal=path, checkpoint_every=checkpoint_every)
        assert resumed == baseline


# --------------------------------------------------------------------------- #
# Engine graceful degradation
# --------------------------------------------------------------------------- #
class TestCostEngineDegradation:
    def test_verify_every_detects_a_poisoned_row(self):
        game = UniformBBCGame(8, 2)
        profile = ring_profile(game)
        reference = CostEngine(game)
        reference.sync(profile)
        clean = [float(x) for x in reference.env_rows(0, [1])[0]]

        plan = FaultPlan(rules=(FaultRule(site="engine.row-poison", times=1),))
        with active_faults(plan):
            engine = CostEngine(game, verify_every=1)
            engine.sync(profile)
            first = engine.env_rows(0, [1])[0]  # fill: the cached copy is poisoned
            assert [float(x) for x in first] == clean
            with pytest.warns(RuntimeWarning, match="self-verification"):
                second = engine.env_rows(0, [1])[0]  # hit: verification catches it
        assert [float(x) for x in second] == clean
        assert engine.stats["row_verify_failures"] == 1
        assert engine.stats["rows_verified"] == 1
        # The rebuilt row stays clean on later hits.
        assert [float(x) for x in engine.env_rows(0, [1])[0]] == clean

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_verify_failure_leaves_no_row_without_its_hop_row(self, backend):
        # A failed verification drops the node's rows and returns the fresh
        # row uncached, so after the next profile step the node's row is
        # recomputed from scratch, never repaired from a half-dropped set.
        if backend == "numpy" and not HAVE_NUMPY:
            pytest.skip("numpy is not installed")
        game = UniformBBCGame(24, 2)
        profile = ring_profile(game)
        plan = FaultPlan(rules=(FaultRule(site="engine.row-poison", times=1),))
        engine = CostEngine(game, backend=backend, verify_every=1)
        engine.sync(profile)
        with active_faults(plan):
            engine.env_rows(0, [1])  # fill: the cached copy is poisoned
        with pytest.warns(RuntimeWarning, match="self-verification"):
            engine.env_rows(0, [1])  # hit: verification catches it
        moved = profile.with_strategy(5, frozenset({7, 9}))
        engine.sync(moved)  # a single-node step: node 0's rows go stale
        fresh = CostEngine(game, backend=backend)
        fresh.sync(moved)
        row = engine.env_rows(0, [1])[0]
        assert [float(x) for x in row] == [float(x) for x in fresh.env_rows(0, [1])[0]]
        assert engine.stats["rows_repaired"] == 0

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_verify_every_catches_a_poisoned_row_in_a_batched_sub_row_build(
        self, backend
    ):
        # The batched sub-row build reads its rows through env_rows like
        # every other reader, so a poisoned cache hit is verified there too.
        if not HAVE_NUMPY:
            pytest.skip("batched sub rows need numpy")
        game = UniformBBCGame(24, 2)
        profile = ring_profile(game)
        candidates = [v for v in range(24) if v != 3]
        reference = CostEngine(game, backend=backend)
        reference.sync(profile)
        clean = reference.scorer(3).score_combinations(candidates, 2).tolist()
        plan = FaultPlan(
            rules=(FaultRule(site="engine.row-poison", keys=frozenset({(3, 5)})),)
        )
        engine = CostEngine(game, backend=backend, verify_every=1)
        engine.sync(profile)
        with active_faults(plan):
            engine.env_rows(3, candidates)  # fill: row (3, 5) is cached poisoned
        scorer = engine.scorer(3)
        assert scorer.fast_batch
        with pytest.warns(RuntimeWarning, match="self-verification"):
            costs = scorer.score_combinations(candidates, 2).tolist()
        assert costs == clean
        assert engine.stats["row_verify_failures"] == 1

    def test_without_verification_the_poisoned_row_is_served(self):
        # Documents why verify_every exists: an unverified engine serves the
        # corrupted copy.
        game = UniformBBCGame(8, 2)
        profile = ring_profile(game)
        reference = CostEngine(game)
        reference.sync(profile)
        clean = [float(x) for x in reference.env_rows(0, [1])[0]]
        plan = FaultPlan(rules=(FaultRule(site="engine.row-poison", times=1),))
        with active_faults(plan):
            engine = CostEngine(game)
            engine.sync(profile)
            engine.env_rows(0, [1])
            served = engine.env_rows(0, [1])[0]
        assert [float(x) for x in served] != clean

    def test_verify_every_validates_its_argument(self):
        with pytest.raises(ValueError, match="verify_every"):
            CostEngine(UniformBBCGame(4, 1), verify_every=0)

    def test_adversarial_evictions_stay_bit_identical(self):
        from repro.core.best_response import best_response

        game = UniformBBCGame(8, 2)
        profile = ring_profile(game)
        reference = [
            best_response(game, profile, node, engine=False) for node in game.nodes
        ]
        plan = FaultPlan(rules=(FaultRule(site="engine.forced-evict", times=None),))
        with active_faults(plan):
            engine = CostEngine(game)
            injected = [
                best_response(game, profile, node, engine=engine)
                for node in game.nodes
            ]
        assert injected == reference

    def test_chunk_build_failure_degrades_to_per_node_fills(self):
        game = UniformBBCGame(8, 2)
        profile = ring_profile(game)
        baseline = CostEngine(game)
        baseline.sync(profile)
        baseline.plan_report_prefetch(profile)
        clean = [float(x) for x in baseline.env_rows(0, [1])[0]]
        plan = FaultPlan(rules=(FaultRule(site="engine.chunk-build", times=None),))
        with active_faults(plan):
            engine = CostEngine(game)
            engine.sync(profile)
            engine.plan_report_prefetch(profile)
            got = [float(x) for x in engine.env_rows(0, [1])[0]]
        assert got == clean
        if engine.stats["chunk_build_failures"] == 0:
            pytest.skip("game too small for a giant-batch plan")

    def test_numpy_import_fault_degrades_auto_and_fails_explicit(self):
        plan = FaultPlan(rules=(FaultRule(site="engine.numpy-import", times=None),))
        with active_faults(plan):
            assert resolve_backend("auto", 100_000, True) == "python"
            assert resolve_backend(None, 100_000, False) == "python"
            with pytest.raises(ValueError, match="requires numpy"):
                resolve_backend("numpy", 100_000, True)
        if HAVE_NUMPY:
            assert resolve_backend("auto", 100_000, True) == "numpy"
        else:
            assert resolve_backend("auto", 100_000, True) == "python"


@pytest.mark.skipif(not HAVE_NUMPY, reason="FractionalEngine requires numpy/scipy")
class TestFractionalLPFallback:
    def setup_method(self):
        pytest.importorskip("scipy")

    def make(self):
        from repro.core.fractional import FractionalBBCGame, FractionalProfile

        game = FractionalBBCGame(UniformBBCGame(5, 2))
        nodes = list(game.nodes)
        profile = FractionalProfile(
            {node: {nodes[(i + 1) % 5]: 1.0} for i, node in enumerate(nodes)}
        )
        return game, profile, nodes[0]

    def test_failed_solve_is_retried_once(self):
        from repro.core.fractional import fractional_best_response
        from repro.engine import FractionalEngine

        game, profile, node = self.make()
        reference = fractional_best_response(game, profile, node, engine=False)
        plan = FaultPlan(rules=(FaultRule(site="fractional.lp-solve", times=1),))
        with active_faults(plan):
            engine = FractionalEngine(game)
            got = engine.best_response(profile, node)
        assert abs(got.best_cost - reference.best_cost) < 1e-9
        assert engine.stats["lp_retries"] == 1
        assert engine.stats["lp_fallbacks"] == 0

    def test_persistent_failure_falls_back_to_the_reference_path(self):
        from repro.core.fractional import fractional_best_response
        from repro.engine import FractionalEngine

        game, profile, node = self.make()
        reference = fractional_best_response(game, profile, node, engine=False)
        plan = FaultPlan(rules=(FaultRule(site="fractional.lp-solve", times=None),))
        with active_faults(plan):
            engine = FractionalEngine(game)
            with pytest.warns(RuntimeWarning, match="falling back to the reference"):
                got = engine.best_response(profile, node)
        assert abs(got.best_cost - reference.best_cost) < 1e-9
        assert engine.stats["lp_fallbacks"] == 1
        # A healthy later call resumes the LP fast path.
        healthy = engine.best_response(profile, node)
        assert abs(healthy.best_cost - reference.best_cost) < 1e-9
        assert engine.stats["lp_solved"] == 1


# --------------------------------------------------------------------------- #
# Fault-site registry (runtime counterpart of lint rule RPR004)
# --------------------------------------------------------------------------- #
class TestFaultSiteRegistry:
    def _fresh_warn_state(self):
        from repro.reliability import faults

        faults._WARNED_UNKNOWN_SITES.clear()

    def test_unregistered_site_warns_once_per_process(self):
        from repro.reliability import UnknownFaultSiteWarning

        self._fresh_warn_state()
        with pytest.warns(UnknownFaultSiteWarning, match="engine.chunk-biuld"):
            FaultPlan(
                rules=(FaultRule(site="engine.chunk-biuld"),)  # repro: noqa[RPR004] — deliberate typo under test
            )
        # The same typo again (e.g. the plan pickled to a worker and back)
        # stays quiet: one warning per site per process.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            FaultPlan(
                rules=(FaultRule(site="engine.chunk-biuld"),)  # repro: noqa[RPR004] — deliberate typo under test
            )

    def test_registered_and_test_namespace_sites_stay_silent(self):
        self._fresh_warn_state()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            FaultPlan(
                rules=(
                    FaultRule(site="parallel.task"),
                    FaultRule(site="test.made-up"),
                )
            )

    def test_every_compiled_site_is_registered(self):
        from repro.reliability import REGISTERED_FAULT_SITES

        for site in (
            "engine.chunk-build",
            "engine.forced-evict",
            "engine.numpy-import",
            "engine.row-poison",
            "fractional.lp-solve",
            "parallel.pool-start",
            "parallel.task",
            "search.profile",
        ):
            assert site in REGISTERED_FAULT_SITES
            assert REGISTERED_FAULT_SITES[site]  # every entry documents itself

    def test_register_fault_site_is_idempotent_but_rejects_conflicts(self):
        from repro.reliability import (
            REGISTERED_FAULT_SITES,
            is_registered_fault_site,
            register_fault_site,
        )

        register_fault_site("ext.demo", "an extension site")
        try:
            assert is_registered_fault_site("ext.demo")
            register_fault_site("ext.demo", "an extension site")  # idempotent
            with pytest.raises(ValueError, match="different"):
                register_fault_site("ext.demo", "something else entirely")
        finally:
            REGISTERED_FAULT_SITES.pop("ext.demo", None)

    def test_seeded_plan_with_unknown_site_warns(self):
        from repro.reliability import UnknownFaultSiteWarning

        self._fresh_warn_state()
        with pytest.warns(UnknownFaultSiteWarning):
            FaultPlan.seeded(  # repro: noqa[RPR004] — deliberate typo under test
                3, ["parallel.tsak"], probability=0.5
            )


# --------------------------------------------------------------------------- #
# Worker-count resolution: affinity-aware defaults, REPRO_PROCESSES override
# --------------------------------------------------------------------------- #
class TestProcessResolution:
    def test_explicit_counts_pass_through_validated(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROCESSES", raising=False)
        assert resolve_processes(3) == 3
        with pytest.raises(ValueError):
            resolve_processes(0)

    def test_none_means_one_worker_per_available_cpu(self, monkeypatch):
        from repro.experiments import parallel as parallel_mod

        monkeypatch.delenv("REPRO_PROCESSES", raising=False)
        monkeypatch.setattr(parallel_mod, "_available_cpus", lambda: 3)
        assert resolve_processes(None) == 3
        assert default_processes(cap=2) == 2  # the benchmark default caps
        assert default_processes(cap=8) == 3

    def test_available_cpus_respects_affinity_mask(self):
        import os

        from repro.experiments.parallel import _available_cpus

        count = _available_cpus()
        assert count >= 1
        if hasattr(os, "sched_getaffinity"):
            assert count == len(os.sched_getaffinity(0))

    def test_env_override_replaces_detected_default_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROCESSES", "5")
        assert resolve_processes(None) == 5
        assert default_processes(cap=2) == 5  # configuration bypasses the cap
        assert resolve_processes(4) == 4  # explicit counts always win
        for bad in ("zero", "0", "-1"):
            monkeypatch.setenv("REPRO_PROCESSES", bad)
            with pytest.raises(ValueError):
                resolve_processes(None)


# --------------------------------------------------------------------------- #
# Sharded exhaustive search under worker crashes
# --------------------------------------------------------------------------- #
class TestShardedSearchFaults:
    """Sharded exhaustive search under injected worker crashes.

    The contract under test: at any worker count and any armed fault plan the
    sharded search either returns the bit-identical serial summary or raises
    the documented typed error.
    """

    def _game(self):
        return UniformBBCGame(4, 2)

    def _serial(self, game):
        return exhaustive_equilibrium_search(
            game, stop_at_first=False, checkpoint_every=8
        )

    def _sharded(self, game, processes=2):
        return exhaustive_equilibrium_search(
            game, stop_at_first=False, checkpoint_every=8, processes=processes
        )

    @pytest.mark.parametrize(
        "make_game",
        [lambda: UniformBBCGame(4, 2), lambda: latency_overlay_game(5, budget=1, seed=3)],
        ids=["uniform", "weighted"],
    )
    def test_cell_crash_resubmits_on_fresh_pool(self, make_game):
        # Fresh workers rebuild the game's tables from its spec, so a crash
        # mid-run costs a rebuild, never a different answer.
        game = make_game()
        serial = self._serial(game)
        plan = FaultPlan(
            rules=(FaultRule(site="parallel.task", kind="crash", keys=[(0, 0)]),)
        )
        with active_faults(plan):
            assert self._sharded(game) == serial
        assert last_run_stats()["pool_restarts"] >= 1

    def test_profile_crash_exhausts_restarts_then_serial_fallback(self):
        # Every fresh worker re-arms the plan with zero hits, so the crash at
        # Gray rank 10 re-fires on every pool generation; after the restart
        # budget the parent runs the lost shards in-process, where
        # where="worker" crash rules are inert — identical summary.
        game = self._game()
        serial = self._serial(game)
        plan = FaultPlan(
            rules=(FaultRule(site="search.profile", kind="crash", keys=[10]),)
        )
        with active_faults(plan):
            with pytest.warns(RuntimeWarning, match="restarts are exhausted"):
                assert self._sharded(game) == serial
        stats = last_run_stats()
        assert stats["pool_restarts"] == MAX_POOL_RESTARTS
        assert stats["serial_fallback_cells"] >= 1
