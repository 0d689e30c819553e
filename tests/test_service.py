"""Contract tests for the always-on game service (``repro.service``).

Four surfaces are pinned, mirroring ``docs/service.md``:

* the catalog lifecycle (register / duplicate / evict / unknown) and the
  reader/writer version contract (atomic updates, pinned reads);
* batching — coalesced responses are bit-identical to the same queries
  served alone, and ``gather`` guarantees one batch;
* the typed-error contract, including fault-drill parity under a seeded
  :class:`FaultPlan` (every response bit-identical or a documented error);
* the metrics registry — exact counters, deterministic across identical
  scripts, exposed as alias-free snapshots (the RPR006 discipline).
"""

import asyncio
import warnings

import pytest

from repro.core import FractionalBBCGame, UniformBBCGame, equilibrium_report
from repro.core.errors import InvalidStrategy
from repro.experiments.workloads import random_initial_profile
from repro.reliability import FaultPlan, FaultRule, active_faults
from repro.rng import as_rng
from repro.service import (
    DuplicateGameError,
    GameCatalog,
    GameMetrics,
    GameService,
    Query,
    ServiceClosedError,
    UnknownGameError,
)
from repro.service.batching import execute_query
from repro.service.catalog import KIND_INTEGRAL


def run(coro):
    """Drive one service scenario to completion on a fresh event loop."""
    return asyncio.run(coro)


def make_game(n=8, k=2):
    return UniformBBCGame(n, k)


# --------------------------------------------------------------------------
# Catalog lifecycle
# --------------------------------------------------------------------------


class TestCatalogLifecycle:
    def test_register_warms_engine_at_version_one(self):
        catalog = GameCatalog()
        entry = catalog.register("g", make_game())
        assert entry.kind == KIND_INTEGRAL
        assert entry.version == 1
        assert entry.engine is not None
        # The engine is synced before the entry is visible.
        assert entry.engine.version == 1

    def test_duplicate_name_rejected(self):
        catalog = GameCatalog()
        catalog.register("g", make_game())
        with pytest.raises(DuplicateGameError):
            catalog.register("g", make_game())

    def test_evict_then_lookup_raises_unknown(self):
        catalog = GameCatalog()
        catalog.register("g", make_game())
        catalog.evict("g")
        with pytest.raises(UnknownGameError):
            catalog.entry("g")
        with pytest.raises(UnknownGameError):
            catalog.evict("g")

    def test_non_game_registration_rejected(self):
        with pytest.raises(InvalidStrategy):
            GameCatalog().register("g", object())

    def test_rejected_update_moves_nothing(self):
        catalog = GameCatalog()
        entry = catalog.register("g", make_game(6, 2))
        before_profile = entry.profile
        with pytest.raises(InvalidStrategy):
            entry.apply_update(0, (1, 2, 3))  # over budget
        assert entry.version == 1
        assert entry.profile is before_profile

    def test_committed_update_bumps_version_and_engine_snapshot(self):
        catalog = GameCatalog()
        entry = catalog.register("g", make_game(6, 2))
        engine_before = entry.engine.version
        assert entry.apply_update(0, (1, 2)) == 2
        assert entry.version == 2
        assert entry.engine.version > engine_before
        assert entry.profile.strategy(0) == frozenset({1, 2})


# --------------------------------------------------------------------------
# Queries and the version contract
# --------------------------------------------------------------------------


class TestServiceQueries:
    def test_query_payloads_match_reference(self):
        game = make_game()

        async def scenario():
            async with GameService() as svc:
                svc.register("g", game, profile=game.empty_profile())
                cost = await svc.cost("g", 0)
                all_costs = await svc.all_costs("g")
                social = await svc.social_cost("g")
                report = await svc.report("g")
                return cost, all_costs, social, report

        cost, all_costs, social, report = run(scenario())
        profile = game.empty_profile()
        reference = equilibrium_report(game, profile, engine=False)
        assert cost.ok and cost.payload == game.node_cost(profile, 0)
        assert all_costs.payload == {
            v: game.node_cost(profile, v) for v in game.nodes
        }
        assert social.payload == game.social_cost(profile, engine=False)
        assert report.payload["is_equilibrium"] == reference.is_equilibrium
        assert report.payload["max_regret"] == reference.max_regret
        assert report.payload["nodes_checked"] == game.num_nodes

    def test_update_bumps_version_and_stale_pin_fails_typed(self):
        async def scenario():
            async with GameService() as svc:
                svc.register("g", make_game())
                first = await svc.cost("g", 0)
                update = await svc.update("g", 0, (1, 2))
                pinned = await svc.cost("g", 0, version=first.version)
                fresh = await svc.cost("g", 0, version=update.version)
                return first, update, pinned, fresh

        first, update, pinned, fresh = run(scenario())
        assert first.version == 1
        assert update.ok and update.version == 2
        assert update.payload == {"version": 2, "node": 0}
        assert pinned.error == "StaleVersionError"
        assert pinned.version == 2  # the response names the actual head
        assert fresh.ok and fresh.version == 2

    def test_reads_split_around_a_queued_update(self):
        game = make_game()

        async def scenario():
            async with GameService() as svc:
                svc.register("g", game)
                queue = svc._queue_for("g")
                loop = asyncio.get_running_loop()
                futures = []
                # Enqueue read / update / read in one wave: the worker must
                # answer the first read at version 1 and the second at 2.
                before = loop.create_future()
                after = loop.create_future()
                committed = loop.create_future()
                from repro.service.service import _QueuedQuery, _QueuedUpdate

                queue.put_nowait(_QueuedQuery(Query(kind="cost", node=0), before))
                queue.put_nowait(_QueuedUpdate(0, (1, 2), committed))
                queue.put_nowait(_QueuedQuery(Query(kind="cost", node=0), after))
                futures.extend([before, committed, after])
                return await asyncio.gather(*futures)

        before, committed, after = run(scenario())
        assert before.version == 1 and committed.version == 2
        assert after.version == 2
        assert before.payload == game.node_cost(game.empty_profile(), 0)
        assert after.payload == game.node_cost(
            game.empty_profile().with_strategy(0, frozenset({1, 2})), 0
        )

    def test_unknown_game_and_closed_service_raise(self):
        async def scenario():
            svc = GameService()
            with pytest.raises(UnknownGameError):
                await svc.cost("ghost", 0)
            svc.register("g", make_game())
            await svc.close()
            with pytest.raises(ServiceClosedError):
                await svc.cost("g", 0)
            with pytest.raises(ServiceClosedError):
                svc.register("late", make_game())

        run(scenario())

    def test_malformed_queries_answer_typed_not_raise(self):
        async def scenario():
            async with GameService() as svc:
                svc.register("g", make_game())
                bad_kind = await svc.submit("g", Query(kind="teleport"))
                bad_update = await svc.update("g", 0, (1, 2, 3))  # over budget
                alive = await svc.cost("g", 0)
                return bad_kind, bad_update, alive

        bad_kind, bad_update, alive = run(scenario())
        assert bad_kind.error == "InvalidQueryError"
        assert bad_update.error == "InvalidStrategy"
        assert bad_update.version == 1  # the rejected write moved nothing
        assert alive.ok  # the worker loop survived both failures


# --------------------------------------------------------------------------
# Batching
# --------------------------------------------------------------------------


class TestBatching:
    def test_gather_coalesces_into_one_batch(self):
        game = make_game()

        async def scenario():
            async with GameService() as svc:
                svc.register("g", game)
                responses = await svc.gather(
                    "g", [Query(kind="cost", node=v) for v in game.nodes]
                )
                stats = await svc.stats("g")
                return responses, stats

        responses, stats = run(scenario())
        assert stats.payload["batches"] == 1
        assert stats.payload["batched_queries"] == game.num_nodes
        assert stats.payload["coalesced_queries"] == game.num_nodes
        assert stats.payload["max_batch"] == game.num_nodes
        assert stats.payload["coalescing_factor"] == pytest.approx(game.num_nodes)
        profile = game.empty_profile()
        for node, response in zip(game.nodes, responses):
            assert response.ok and response.version == 1
            assert response.payload == game.node_cost(profile, node)

    def test_batched_responses_bit_identical_to_solo(self):
        game = make_game()
        queries = [
            Query(kind="cost", node=0),
            Query(kind="best_response", node=1),
            Query(kind="what_if", node=2, strategy=(0, 1)),
            Query(kind="social_cost"),
            Query(kind="report"),
        ]

        async def batched():
            async with GameService() as svc:
                svc.register("g", game)
                return await svc.gather("g", queries)

        async def solo():
            async with GameService() as svc:
                svc.register("g", game)
                responses = []
                for query in queries:
                    responses.append(await svc.submit("g", query))
                return responses

        for together, alone in zip(run(batched()), run(solo())):
            assert together.comparable() == alone.comparable()

    def test_batch_plans_and_repairs_only_the_queried_nodes(self):
        game = UniformBBCGame(24, 2)
        profile = random_initial_profile(game, seed=2)
        queries = [
            Query(kind="cost", node=1),
            Query(kind="cost", node=2),
            Query(kind="best_response", node=3, candidates=(0, 9, 14)),
        ]
        # No mover is queried, so every queried row goes stale on each update.
        updates = [(20, (21, 22)), (21, (3, 4)), (22, (5, 6))]

        async def scenario():
            async with GameService() as svc:
                entry = svc.register("g", game, profile=profile, backend="python")
                engine = entry.engine
                planned = []
                plan = engine.plan_report_prefetch

                def recording(*args):
                    planned.append(plan(*args))
                    return planned[-1]

                engine.plan_report_prefetch = recording
                # The report caches every node's rows under its own plan.
                await svc.report("g")
                for node, strategy in updates[:2]:
                    await svc.update("g", node, strategy)
                del planned[:]
                first = await svc.gather("g", queries)
                first_plan = planned[:]
                await svc.update("g", *updates[2])
                queried = {engine.indexed.index[q.node] for q in queries}
                stamps = {
                    u: version
                    for u, (version, _) in engine._env_cache.items()
                    if u >= 0 and u not in queried
                }
                want_repaired = sum(len(engine._env_cache[u][1]) for u in queried)
                repaired = engine.stats["rows_repaired"]
                second = await svc.gather("g", queries)
                after = {
                    u: engine._env_cache[u][0] for u in stamps if u in engine._env_cache
                }
                return (
                    first, second, first_plan, stamps, after,
                    engine.stats["rows_repaired"] - repaired, want_repaired,
                )

        first, second, first_plan, stamps, after, repaired, want = run(scenario())
        # Exactly the queried nodes' rows are planned: current arcs for the
        # cost reads, candidates plus current arcs for the best response.
        current = profile
        for node, strategy in updates[:2]:
            current = current.with_strategy(node, frozenset(strategy))
        reads = {1: (), 2: (), 3: (0, 9, 14)}
        assert first_plan == [
            sum(
                len({*extra, *current.strategy(node)} - {node})
                for node, extra in reads.items()
            )
        ]
        # The second batch repairs the queried nodes' rows and leaves every
        # other node's stale rows as they were.
        assert repaired == want > 0
        assert stamps and after == stamps
        # Every response equals the same query served alone.
        alone = GameCatalog().register("g", game, profile=profile, backend="python")
        for batch, moves in ((first, updates[:2]), (second, updates[2:])):
            for node, strategy in moves:
                alone.apply_update(node, strategy)
            expected = [execute_query(alone, query) for query in queries]
            assert [r.comparable() for r in batch] == [r.comparable() for r in expected]


# --------------------------------------------------------------------------
# Fault-drill parity (the typed-error availability contract)
# --------------------------------------------------------------------------


def _drill_script(svc_name="g"):
    async def scenario(plan=None):
        async def drive():
            async with GameService() as svc:
                svc.register(svc_name, make_game())
                waves = []
                waves.append(
                    await svc.gather(
                        svc_name, [Query(kind="cost", node=v) for v in range(4)]
                    )
                )
                waves.append([await svc.update(svc_name, 1, (0, 2))])
                waves.append(
                    await svc.gather(
                        svc_name,
                        [Query(kind="best_response", node=2), Query(kind="report")],
                    )
                )
                return [r for wave in waves for r in wave]

        if plan is None:
            return await drive()
        with active_faults(plan):
            return await drive()

    return scenario


#: Seed of the catalog drill's scripts and fault plan (PODC 2008, where the
#: source paper appeared).
DRILL_SEED = 20080
#: The node the drill's ``service.update`` rule is pinned to.  Script updates
#: never move it, so the one state-changing injection is the tail update,
#: after every compared read, and cannot fork the version history.
DRILL_UPDATE_NODE = 0


def drill_plan():
    """The seeded injection set: two service sites and three engine sites."""
    return FaultPlan(
        seed=DRILL_SEED,
        rules=(
            # Handler failure on the first two uniform cost dispatches.
            FaultRule(site="service.query", keys=[("uniform", "cost")], times=2),
            # Write-side failure, pinned to the tail update.
            FaultRule(site="service.update", keys=[("uniform", DRILL_UPDATE_NODE)]),
            # Absorbed below the response surface: verified rebuild,
            # per-node degradation, LP fallback.
            FaultRule(site="engine.row-poison", times=1),
            FaultRule(site="engine.chunk-build", times=1),
            FaultRule(site="fractional.lp-solve", times=2),
        ),
    )


def _integral_wave(game, rng, clients):
    """Concurrent cost/what-if/best-response reads, then one update."""
    nodes = list(game.nodes)
    queries = []
    for _ in range(clients):
        node = nodes[rng.randrange(len(nodes))]
        others = [v for v in nodes if v != node]
        roll = rng.random()
        if roll < 0.5:
            queries.append(Query(kind="cost", node=node))
        elif roll < 0.75:
            targets = rng.sample(others, min(2, len(others)))
            queries.append(Query(kind="what_if", node=node, strategy=tuple(targets)))
        else:
            candidates = rng.sample(others, min(3, len(others)))
            queries.append(
                Query(kind="best_response", node=node, candidates=tuple(candidates))
            )
    movers = [v for v in nodes if v != DRILL_UPDATE_NODE]
    node = movers[rng.randrange(len(movers))]
    others = [v for v in nodes if v != node]
    return queries, (node, tuple(rng.sample(others, min(2, len(others)))))


def _fractional_wave(game, rng, clients):
    """Concurrent cost/what-if/best-response reads, then one update."""
    nodes = list(game.nodes)
    queries = []
    for _ in range(clients):
        node = nodes[rng.randrange(len(nodes))]
        others = [v for v in nodes if v != node]
        roll = rng.random()
        if roll < 0.4:
            queries.append(Query(kind="cost", node=node))
        elif roll < 0.7:
            target = others[rng.randrange(len(others))]
            queries.append(Query(kind="what_if", node=node, strategy={target: 1.0}))
        else:
            queries.append(Query(kind="best_response", node=node))
    node = nodes[rng.randrange(len(nodes))]
    others = [v for v in nodes if v != node]
    return queries, (node, {others[rng.randrange(len(others))]: 1.0})


def _drill_catalog_script(game, kind, *, waves, clients, seed):
    """``waves`` deterministic (reads, update) pairs; a report rides the last."""
    rng = as_rng(seed)
    wave = _fractional_wave if kind == "fractional" else _integral_wave
    script = [wave(game, rng, clients) for _ in range(waves)]
    if kind == "fractional":
        script[-1][0].append(Query(kind="report"))
    else:
        nodes = list(game.nodes)
        candidates = {
            node: rng.sample([v for v in nodes if v != node], 2) for node in nodes
        }
        script[-1][0].append(Query(kind="report", candidates=candidates))
    return script


async def _serve_drill_catalog(specs, scripts):
    """Serve every game's script concurrently, then the reserved tail update.

    Returns each game's responses in submission order and its final stats.
    """

    async def drive(svc, name):
        responses = []
        for queries, (node, strategy) in scripts[name]:
            responses.extend(await svc.gather(name, queries))
            responses.append(await svc.update(name, node, strategy))
        return responses

    async with GameService() as svc:
        for name, game, kind in specs:
            if kind == "fractional":
                svc.register(name, game)
            else:
                svc.register(name, game, verify_every=1)
        streams = await asyncio.gather(*(drive(svc, name) for name, _, _ in specs))
        responses = {name: stream for (name, _, _), stream in zip(specs, streams)}
        responses["uniform"].append(
            await svc.update("uniform", DRILL_UPDATE_NODE, (1, 2))
        )
        stats = {name: (await svc.stats(name)).payload for name, _, _ in specs}
    return responses, stats


class TestFaultDrillParity:
    def test_injected_read_fault_is_typed_and_isolated(self):
        scenario = _drill_script()
        healthy = run(scenario())
        plan = FaultPlan(
            rules=(
                FaultRule(site="service.query", keys=frozenset({("g", "cost")})),
            ),
            seed=7,
        )
        drilled = run(scenario(plan))
        assert len(healthy) == len(drilled)
        injected = 0
        for clean, dirty in zip(healthy, drilled):
            if dirty.error == "InjectedFault":
                injected += 1
                assert clean.ok  # the fault replaced a healthy payload
            else:
                # Everything the fault did not touch is bit-identical.
                assert dirty.comparable() == clean.comparable()
        assert injected == 1  # times=1: exactly one read was drilled

    def test_injected_update_fault_never_publishes_a_version(self):
        scenario = _drill_script()
        healthy = run(scenario())
        plan = FaultPlan(
            rules=(FaultRule(site="service.update", keys=frozenset({("g", 1)})),),
            seed=7,
        )
        drilled = run(scenario(plan))
        update_index = 4  # the script's one update follows the 4-cost wave
        assert healthy[update_index].kind == "update"
        assert drilled[update_index].error == "InjectedFault"
        # The drilled write fired *before* any state change: the version
        # never moved, so later reads answer at version 1 against the
        # pre-update profile — consistent, just stale.
        assert drilled[update_index].version == 1
        for response in drilled[update_index + 1 :]:
            assert response.ok and response.version == 1

    def test_seeded_catalog_drill_is_bit_identical_or_typed(self):
        # Serve the same deterministic script twice, healthy and under
        # drill_plan(): every drilled response equals its healthy twin or is
        # the documented InjectedFault.  Exactly the three handler crashes
        # surface; the poisoned row, chunk-build failure and LP failures are
        # absorbed below the response surface.
        specs = [
            ("uniform", UniformBBCGame(6, 2), "integral"),
            ("fractional", FractionalBBCGame(UniformBBCGame(4, 1)), "fractional"),
        ]
        scripts = {
            name: _drill_catalog_script(
                game, kind, waves=2, clients=3, seed=DRILL_SEED + 100 + offset
            )
            for offset, (name, game, kind) in enumerate(specs)
        }
        healthy, _ = run(_serve_drill_catalog(specs, scripts))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with active_faults(drill_plan()):
                drilled, drilled_stats = run(_serve_drill_catalog(specs, scripts))

        identical = typed_errors = 0
        mismatches = []
        for name, _, _ in specs:
            assert len(healthy[name]) == len(drilled[name])
            for index, (want, got) in enumerate(zip(healthy[name], drilled[name])):
                if want.comparable() == got.comparable():
                    identical += 1
                elif got.error == "InjectedFault":
                    typed_errors += 1
                else:
                    mismatches.append((name, index, want.comparable(), got.comparable()))
        assert mismatches == []
        assert (identical, typed_errors) == (16, 3)
        # The poisoned row was caught by verify_every=1, not served.
        assert drilled_stats["uniform"]["engine"]["row_verify_failures"] == 1
        assert any("self-verification" in str(w.message) for w in caught)


# --------------------------------------------------------------------------
# Metrics: exact counters, deterministic scripts, alias-free snapshots
# --------------------------------------------------------------------------

#: Snapshot fields that read the wall clock — the only nondeterminism the
#: metrics contract allows.
LATENCY_FIELDS = ("latency_count", "latency_p50_s", "latency_p99_s")


def _without_latency(snapshot):
    return {k: v for k, v in snapshot.items() if k not in LATENCY_FIELDS}


class TestMetrics:
    def test_exact_service_counters_for_a_fixed_script(self):
        async def scenario():
            async with GameService() as svc:
                svc.register("g", make_game())
                await svc.gather(
                    "g", [Query(kind="cost", node=v) for v in range(4)]
                )
                await svc.update("g", 0, (1, 2))
                await svc.gather(
                    "g",
                    [
                        Query(kind="best_response", node=1),
                        Query(kind="what_if", node=2, strategy=(0, 3)),
                        Query(kind="social_cost"),
                    ],
                )
                await svc.submit("g", Query(kind="teleport"))
                return await svc.stats("g")

        stats = run(scenario()).payload
        assert stats["queries"] == {
            "cost": 4,
            "update": 1,
            "best_response": 1,
            "what_if": 1,
            "social_cost": 1,
            "teleport": 1,
        }
        assert stats["errors"] == {"InvalidQueryError": 1}
        assert stats["updates"] == 1
        # Wave 1 batches 4 reads, wave 2 batches 3; the malformed kind is
        # not a row query, so it joins no batch.
        assert stats["batches"] == 2
        assert stats["batched_queries"] == 7
        assert stats["coalesced_queries"] == 7
        assert stats["max_batch"] == 4
        assert stats["coalescing_factor"] == pytest.approx(7 / 2)
        assert stats["version"] == 2
        assert stats["name"] == "g" and stats["kind"] == "integral"
        # The engine saw real row traffic, and every row was served one of
        # the three documented ways.
        engine = stats["engine"]
        total_rows = engine["rows_reused"] + engine["rows_repaired"] + engine["rows_computed"]
        assert total_rows > 0
        assert stats["cache_hit_rate"] == engine["rows_reused"] / total_rows

    def test_identical_scripts_produce_identical_counters(self):
        async def scenario():
            async with GameService() as svc:
                svc.register("g", make_game())
                await svc.gather(
                    "g",
                    [Query(kind="cost", node=v) for v in range(6)]
                    + [Query(kind="report")],
                )
                await svc.update("g", 3, (0, 1))
                await svc.gather(
                    "g", [Query(kind="best_response", node=v) for v in range(3)]
                )
                return await svc.stats("g")

        first = _without_latency(run(scenario()).payload)
        second = _without_latency(run(scenario()).payload)
        # Exact counters, not samples: two runs of the same script agree on
        # every field, including the engine's cache/repair/traversal deltas.
        assert first == second

    def test_snapshots_are_alias_free(self):
        async def scenario():
            async with GameService() as svc:
                svc.register("g", make_game())
                await svc.cost("g", 0)
                first = await svc.stats("g")
                # Mutating a returned snapshot must not poison the registry.
                first.payload["queries"]["cost"] = 10_000
                first.payload["engine"]["rows_reused"] = -1
                first.payload["updates"] = 99
                second = await svc.stats("g")
                return second

        second = run(scenario())
        assert second.payload["queries"]["cost"] == 1
        assert second.payload["updates"] == 0
        assert second.payload["engine"]["rows_reused"] >= 0

    def test_engine_counters_are_the_engines_own(self):
        # The stats payload copies each entry engine's exact counters under
        # their own names; a fractional entry without scipy has no engine.
        async def scenario():
            async with GameService() as svc:
                svc.register("int", make_game())
                svc.register("frac", FractionalBBCGame(UniformBBCGame(4, 1)))
                for name in ("int", "frac"):
                    await svc.gather(name, [Query(kind="cost", node=v) for v in range(3)])
                    await svc.update(name, 0, (1,) if name == "int" else {1: 1.0})
                    await svc.gather(name, [Query(kind="all_costs"), Query(kind="report")])
                stats = {name: (await svc.stats(name)).payload for name in ("int", "frac")}
                return stats, {name: svc.catalog.entry(name).engine for name in stats}

        stats, engines = run(scenario())
        for name, engine in engines.items():
            want = dict(engine.stats) if engine is not None else {}
            assert stats[name]["engine"] == want
        assert stats["int"]["engine"]["local_syncs"] == 1

    def test_latency_reservoir_is_bounded(self):
        from repro.service.metrics import LATENCY_RESERVOIR_LIMIT

        metrics = GameMetrics()
        for _ in range(LATENCY_RESERVOIR_LIMIT + 100):
            metrics.record_query("cost", 0.001)
        snapshot = metrics.snapshot()
        assert snapshot["latency_count"] <= LATENCY_RESERVOIR_LIMIT
        assert snapshot["queries"]["cost"] == LATENCY_RESERVOIR_LIMIT + 100
