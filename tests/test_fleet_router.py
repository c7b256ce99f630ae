"""The serving fleet: shared-parameter attach, routing parity with the
single-process service, and degradation under injected shard crashes."""

import multiprocessing as mp

import numpy as np
import pytest

from repro.core.config import STTransRecConfig
from repro.core.model import STTransRec
from repro.core.recommend import visited_poi_ids
from repro.fleet.params import ServingParameterBlock, attach_serving_engine
from repro.fleet.partition import group_by_shard
from repro.fleet.router import ShardRouter
from repro.parallel.supervisor import SupervisionConfig
from repro.reliability import Fault, FaultPlan
from repro.serving.engine import InferenceEngine
from repro.serving.service import RecommendationService

TARGET = "shelbyville"
K = 5


@pytest.fixture(scope="module")
def world(tiny_dataset):
    dataset, _truth = tiny_dataset
    index = dataset.build_index()
    model = STTransRec(index.num_users, index.num_pois, index.num_words,
                       STTransRecConfig(embedding_dim=8, seed=3))
    model.eval()
    return model, index, dataset


@pytest.fixture(scope="module")
def reference(world):
    """Single-process answers with the cache off: the parity oracle."""
    model, index, dataset = world
    with RecommendationService(model, index, dataset, TARGET,
                               cache_size=0, use_batcher=False) as service:
        users = sorted(dataset.users)
        return users, service.recommend_many(users, k=K)


class TestServingParameterBlock:
    def test_attached_engine_scores_bit_identically(self, world):
        model, index, dataset = world
        engine = InferenceEngine.from_model(model, index, dataset, TARGET)
        indices = list(range(min(6, index.num_users)))
        expected = engine.top_k_catalogue(indices, K)
        with ServingParameterBlock.from_engine(engine) as block:
            attached, client = attach_serving_engine(block.manifest)
            try:
                assert attached.top_k_catalogue(indices, K) == expected
            finally:
                # The engine's buffers alias the client's mapping; drop
                # them first so the mapping can unmap cleanly in-process.
                del attached
                client.close()

    def test_attached_views_are_read_only(self, world):
        model, index, dataset = world
        engine = InferenceEngine.from_model(model, index, dataset, TARGET)
        with ServingParameterBlock.from_engine(engine) as block:
            attached, client = attach_serving_engine(block.manifest)
            try:
                state = attached.serving_state()
                assert any(not arr.flags.writeable
                           for arr in state.values())
            finally:
                del state, attached
                client.close()

    def test_republish_is_visible_through_attached_views(self, world):
        model, index, dataset = world
        engine = InferenceEngine.from_model(model, index, dataset, TARGET)
        state = engine.serving_state()
        with ServingParameterBlock.from_engine(engine) as block:
            attached, client = attach_serving_engine(block.manifest)
            try:
                bumped = {name: (arr + 1.0
                                 if np.issubdtype(arr.dtype, np.floating)
                                 else arr)
                          for name, arr in state.items()}
                block.publish(bumped)
                new_state = attached.serving_state()
                for name, arr in bumped.items():
                    np.testing.assert_array_equal(new_state[name], arr)
                del new_state
            finally:
                del attached
                client.close()


class TestRouterParity:
    def test_recommend_many_bit_identical_to_single_process(
            self, world, reference):
        model, index, dataset = world
        users, expected = reference
        for num_shards in (1, 2, 3):
            with ShardRouter(model, index, dataset, TARGET,
                             num_shards=num_shards) as router:
                assert router.recommend_many(users, k=K) == expected

    def test_recommend_single_user_and_unknowns(self, world, reference):
        model, index, dataset = world
        users, expected = reference
        with ShardRouter(model, index, dataset, TARGET,
                         num_shards=2) as router:
            probe = users[0]
            assert router.recommend(probe, k=K) == expected[probe]
            with pytest.raises(KeyError):
                router.recommend(10**9, k=K)
            # Unknown users are skipped, not raised, in the batch path.
            got = router.recommend_many([probe, 10**9], k=K)
            assert set(got) == {probe}
            with pytest.raises(ValueError):
                router.recommend_many(users, k=0)

    def test_fanout_matches_whole_catalogue_ranking(
            self, world, reference):
        model, index, dataset = world
        users, expected = reference
        with ShardRouter(model, index, dataset, TARGET,
                         num_shards=3) as router:
            for user in users[:6]:
                assert router.recommend_fanout(user, k=K) == expected[user]

    def test_duplicate_users_collapse(self, world, reference):
        model, index, dataset = world
        users, expected = reference
        probe = users[1]
        with ShardRouter(model, index, dataset, TARGET,
                         num_shards=2) as router:
            got = router.recommend_many([probe, probe, probe], k=K)
        assert got == {probe: expected[probe]}


class TestRouterDegradation:
    def _supervision(self):
        return SupervisionConfig(step_timeout=60.0, max_respawns=2,
                                 respawn_backoff=0.01)

    def test_shard_crash_respawn_keeps_answers_identical(
            self, world, reference):
        model, index, dataset = world
        users, expected = reference
        plan = FaultPlan([Fault.crash(worker=1, step=2)])
        with ShardRouter(model, index, dataset, TARGET, num_shards=2,
                         fault_plan=plan,
                         supervision=self._supervision()) as router:
            for _wave in range(4):
                assert router.recommend_many(users, k=K) == expected
            stats = router.stats()
        assert stats["faults"]["crashes"] >= 1
        assert stats["faults"]["respawns"] >= 1
        assert sorted(stats["live_shards"]) == [0, 1]
        assert stats["shard_requests"] > 0
        assert not mp.active_children()

    def test_shard_crash_respawn_keeps_answers_identical_f32(self, world):
        # In f32 BLAS may round the last bit differently for another
        # batch shape, so the oracle is the engine scoring exactly the
        # group_by_shard batches the router sends: a unit lost with its
        # shard must be re-sent unchanged, keeping its batch shape.
        model, index, dataset = world
        users = sorted(dataset.users)
        engine = InferenceEngine.from_model(model, index, dataset, TARGET,
                                            dtype=np.float32)
        entries = [(u, index.users.index_of(u)) for u in users]
        expected = {}
        for group in group_by_shard(entries, 2, [0, 1]).values():
            rows = engine.top_k_catalogue(
                [i for _u, i in group], K,
                exclude_poi_ids=[visited_poi_ids(dataset, u)
                                 for u, _i in group])
            expected.update({u: row for (u, _i), row in zip(group, rows)})
        plan = FaultPlan([Fault.crash(worker=1, step=2)])
        with ShardRouter(model, index, dataset, TARGET, num_shards=2,
                         dtype=np.float32, fault_plan=plan,
                         supervision=self._supervision()) as router:
            for _wave in range(4):
                assert router.recommend_many(users, k=K) == expected
            stats = router.stats()
        assert stats["faults"]["crashes"] >= 1
        assert stats["faults"]["respawns"] >= 1
        assert not mp.active_children()

    def test_fanout_survives_shard_crash(self, world, reference):
        model, index, dataset = world
        users, expected = reference
        # The shard's request sequence is the step coordinate (0-based):
        # the very first fanout request to shard 0 kills it.
        plan = FaultPlan([Fault.crash(worker=0, step=0)])
        with ShardRouter(model, index, dataset, TARGET, num_shards=2,
                         fault_plan=plan,
                         supervision=self._supervision()) as router:
            probe = users[2]
            assert router.recommend_fanout(probe, k=K) == expected[probe]
            stats = router.stats()
        assert stats["faults"]["crashes"] >= 1

    def test_close_is_idempotent_and_leaks_nothing(self, world):
        model, index, dataset = world
        router = ShardRouter(model, index, dataset, TARGET, num_shards=2)
        router.recommend_many(sorted(dataset.users)[:4], k=K)
        router.close()
        router.close()
        assert not mp.active_children()

    def test_invalid_num_shards(self, world):
        model, index, dataset = world
        with pytest.raises(ValueError):
            ShardRouter(model, index, dataset, TARGET, num_shards=0)


class TestShardTelemetry:
    def test_per_shard_logs_aggregate_through_metrics_report(
            self, world, tmp_path):
        from repro.obs.export import load_run_state_tree

        model, index, dataset = world
        users = sorted(dataset.users)
        with ShardRouter(model, index, dataset, TARGET, num_shards=2,
                         telemetry_dir=tmp_path) as router:
            router.recommend_many(users, k=K)
        logs = sorted(p.parent.name for p in tmp_path.glob("*/events.jsonl"))
        assert logs == ["shard-0", "shard-1"]
        registry, _tracer, num_runs, num_logs = load_run_state_tree(tmp_path)
        assert num_logs == 2 and num_runs == 2
        total = sum(metric.value for key, metric in registry.items()
                    if key.startswith("fleet.shard.users"))
        assert total == len(users)

    def test_router_registry_sees_shard_counters(self, world):
        from repro.obs.metrics import MetricsRegistry

        model, index, dataset = world
        users = sorted(dataset.users)
        registry = MetricsRegistry()
        with ShardRouter(model, index, dataset, TARGET, num_shards=2,
                         registry=registry) as router:
            router.recommend_many(users, k=K)
            merged = router.merged_shard_registry()
        shard_users = sum(metric.value for key, metric in merged.items()
                          if key.startswith("fleet.shard.users"))
        assert shard_users == len(users)
        assert registry.histogram(
            "fleet.router.request_latency_ms", outcome="ok").count == 1

    def test_latency_observed_with_error_outcome_on_failure(self, world):
        from repro.fleet.router import FleetUnavailableError
        from repro.obs.metrics import MetricsRegistry

        model, index, dataset = world
        users = sorted(dataset.users)
        registry = MetricsRegistry()
        plan = FaultPlan([Fault.crash(worker=0, step=0)])
        with ShardRouter(model, index, dataset, TARGET, num_shards=1,
                         fault_plan=plan, registry=registry,
                         supervision=SupervisionConfig(
                             step_timeout=60.0, max_respawns=0,
                             respawn_backoff=0.01)) as router:
            with pytest.raises(FleetUnavailableError):
                router.recommend_many(users, k=K)
        # The failed request is *not* invisible to the latency
        # histogram: it lands under its own outcome label.
        assert registry.histogram(
            "fleet.router.request_latency_ms", outcome="error").count == 1
        assert registry.histogram(
            "fleet.router.request_latency_ms", outcome="ok").count == 0


class TestFleetUnavailable:
    def test_total_loss_names_every_shard_slot(self, world):
        from repro.fleet.router import FleetUnavailableError

        model, index, dataset = world
        users = sorted(dataset.users)
        # Both shards crash on their first request with no respawn
        # budget: the plain path must say *which* slots died and why,
        # not surface a bare pipe error.
        plan = FaultPlan([Fault.crash(worker=0, step=0),
                          Fault.crash(worker=1, step=0)])
        with ShardRouter(model, index, dataset, TARGET, num_shards=2,
                         fault_plan=plan,
                         supervision=SupervisionConfig(
                             step_timeout=60.0, max_respawns=0,
                             respawn_backoff=0.01)) as router:
            with pytest.raises(FleetUnavailableError) as excinfo:
                router.recommend_many(users, k=K)
        message = str(excinfo.value)
        assert "no live shards" in message
        assert "shard 0" in message and "shard 1" in message
        assert set(excinfo.value.shard_states) == {0, 1}
        assert not mp.active_children()

    def test_fleet_unavailable_is_a_worker_failure(self):
        from repro.fleet.router import FleetUnavailableError
        from repro.parallel.supervisor import WorkerFailure

        error = FleetUnavailableError(3, {0: "removed after 2 respawns"})
        assert isinstance(error, WorkerFailure)
        assert "removed after 2 respawns" in str(error)


class TestCloseSafety:
    def test_close_after_failed_spawn_leaks_nothing(self, world,
                                                    monkeypatch):
        model, index, dataset = world
        original = ShardRouter._spawn_shard

        def failing_spawn(self, shard_id, incarnation):
            if shard_id == 1:
                raise RuntimeError("spawn exploded")
            return original(self, shard_id, incarnation)

        monkeypatch.setattr(ShardRouter, "_spawn_shard", failing_spawn)
        # Shard 0 starts, shard 1's spawn raises: the constructor must
        # propagate the error but reap shard 0 and free the shm block.
        with pytest.raises(RuntimeError, match="spawn exploded"):
            ShardRouter(model, index, dataset, TARGET, num_shards=2)
        assert not mp.active_children()

    def test_double_close_after_failed_spawn_is_safe(self, world,
                                                     monkeypatch):
        model, index, dataset = world
        created = []

        def exploding_spawn(self, shard_id, incarnation):
            created.append(self)
            raise RuntimeError("no shards at all")

        monkeypatch.setattr(ShardRouter, "_spawn_shard", exploding_spawn)
        with pytest.raises(RuntimeError, match="no shards at all"):
            ShardRouter(model, index, dataset, TARGET, num_shards=2)
        # The constructor already closed once on its failure path;
        # closing the half-built router again must be a no-op.
        router = created[0]
        router.close()
        router.close()
        assert not mp.active_children()


def _catalogue_filtered(dataset, user_id, catalogue_ids):
    """``visited_poi_ids`` as the engine applies it: only ids the
    catalogue holds can be excluded."""
    held = {int(p) for p in catalogue_ids}
    return sorted(p for p in visited_poi_ids(dataset, user_id) if p in held)


def _engine_answers(engine, index, dataset, users):
    """A single-process engine's answers to the batches a 2-shard
    router sends, with the visited sets as exclusions."""
    entries = [(u, index.users.index_of(u)) for u in users]
    out = {}
    for group in group_by_shard(entries, 2, [0, 1]).values():
        rows = engine.top_k_catalogue(
            [i for _u, i in group], K,
            exclude_poi_ids=[visited_poi_ids(dataset, u) for u, _i in group])
        out.update({u: row for (u, _i), row in zip(group, rows)})
    return out


def _nested(value):
    """``value`` and everything nested in its tuples, lists and dicts."""
    yield value
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _nested(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _nested(item)


class TestVisitedExclusions:
    """The router resolves each user's visited POIs once, filtered to the
    catalogue, and ships them to shards as flat int arrays."""

    def _spy(self, router):
        units = []
        serve = router._serve

        def spy(entries, batch_units, *args, **kwargs):
            units.extend(batch_units)
            return serve(entries, batch_units, *args, **kwargs)

        router._serve = spy
        return units

    def test_cached_exclusions_equal_visited_in_catalogue(self, world,
                                                          reference):
        model, index, dataset = world
        users, expected = reference
        with ShardRouter(model, index, dataset, TARGET,
                         num_shards=2) as router:
            assert router.recommend_many(users, k=K) == expected
            catalogue = InferenceEngine.from_model(
                model, index, dataset, TARGET).catalogue_poi_ids
            for user_id in users:
                cached = np.frombuffer(router._visited[user_id], np.int64)
                assert cached.tolist() == _catalogue_filtered(
                    dataset, user_id, catalogue)
            # Resolved once: a second call reuses the very same arrays.
            first = dict(router._visited)
            router.recommend_many(users, k=K)
            assert all(router._visited[u] is first[u] for u in users)

    def test_topk_units_carry_no_python_sets(self, world, reference):
        from repro.resilience import ResilienceConfig
        from repro.serving.engine import Exclusions

        model, index, dataset = world
        users, expected = reference
        config = ResilienceConfig(deadline_ms=10_000.0,
                                  hop_timeout_ms=5_000.0,
                                  hedge_after_ms=2_000.0)
        with ShardRouter(model, index, dataset, TARGET, num_shards=2,
                         resilience=config) as router:
            units = self._spy(router)
            assert router.recommend_many(users, k=K) == expected
            assert router.recommend_fanout(users[1], k=K) == \
                expected[users[1]]
            resilient = router.recommend_resilient(users[:4], k=K)
            assert {u: r.items for u, r in resilient.items()} == \
                {u: expected[u] for u in users[:4]}
            router.recommend_many(users[:3], k=K, exclude_visited=False)
        topk = [unit for unit in units if unit.message[0] == "topk"]
        assert len(topk) >= 4
        for unit in topk:
            payload = unit.message[1]
            assert not any(isinstance(item, (set, frozenset))
                           for item in _nested(payload))
            exclusions = payload[4]
            if exclusions is None:
                continue
            assert isinstance(exclusions, Exclusions)
            assert type(exclusions.ids) is type(exclusions.offsets) is bytes
            assert exclusions.num_users == len(unit.members)
        assert any(unit.message[1][4] is None for unit in topk)

    def test_cache_stays_correct_across_swap(self, world, reference,
                                             monkeypatch):
        from repro.fleet import router as router_module

        model, index, dataset = world
        users, expected = reference
        other = STTransRec(index.num_users, index.num_pois, index.num_words,
                           STTransRecConfig(embedding_dim=8, seed=4))
        other.eval()
        with ShardRouter(model, index, dataset, TARGET,
                         num_shards=2) as router:
            router.recommend_many(users, k=K)
            cached = dict(router._visited)
            # Same catalogue: the cached arrays stay valid and in use.
            router.swap(other)
            assert all(router._visited[u] is cached[u] for u in users)
            assert router.recommend_many(users, k=K) == _engine_answers(
                InferenceEngine.from_model(other, index, dataset, TARGET),
                index, dataset, users)

            # A swap whose catalogue ids differ (same size) is refused
            # before the fleet or the cache changes.
            catalogue = [int(p) for p in router._catalogue_ids]
            foreign = next(p for u in users
                           for p in sorted(visited_poi_ids(dataset, u))
                           if p not in set(catalogue))
            changed = catalogue[:-1] + [foreign]

            def from_model(model, index, dataset, target_city, dtype):
                return InferenceEngine(model, index, changed, dtype=dtype)

            generation = router.generation
            monkeypatch.setattr(router_module.InferenceEngine,
                                "from_model", from_model)
            with pytest.raises(ValueError, match="catalogue"):
                router.swap(model)
            monkeypatch.undo()
            assert router.generation == generation
            assert all(router._visited[u] is cached[u] for u in users)
            assert router.recommend_many(users, k=K) == _engine_answers(
                InferenceEngine.from_model(other, index, dataset, TARGET),
                index, dataset, users)
        assert not mp.active_children()
