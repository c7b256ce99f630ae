"""Zero-downtime hot-swap: parity, generation provenance, validation."""

import multiprocessing as mp
import os
import signal
from multiprocessing import shared_memory

import pytest

from repro.core.config import STTransRecConfig
from repro.core.model import STTransRec
from repro.data.vocabulary import DatasetIndex
from repro.fleet.router import FleetUnavailableError, ShardRouter
from repro.parallel.supervisor import SupervisionConfig
from repro.resilience import QUALITY_FULL, ResilienceConfig
from repro.serving.service import RecommendationService
from repro.streaming import ModelPublisher

TARGET = "shelbyville"
K = 5


def _supervision():
    return SupervisionConfig(step_timeout=60.0, max_respawns=2,
                             respawn_backoff=0.01)


def _make_model(index, seed):
    model = STTransRec(index.num_users, index.num_pois, index.num_words,
                       STTransRecConfig(embedding_dim=8, seed=seed))
    model.eval()
    return model


@pytest.fixture(scope="module")
def world(tiny_dataset):
    dataset, _truth = tiny_dataset
    index = dataset.build_index()
    return _make_model(index, 3), _make_model(index, 4), index, dataset


@pytest.fixture(scope="module")
def references(world):
    """Single-process oracle answers for both generations' parameters."""
    model_a, model_b, index, dataset = world
    users = sorted(dataset.users)
    out = []
    for model in (model_a, model_b):
        with RecommendationService(model, index, dataset, TARGET,
                                   cache_size=0,
                                   use_batcher=False) as service:
            out.append(service.recommend_many(users, k=K))
    return users, out[0], out[1]


class TestSwapParity:
    def test_swap_is_bit_exact_and_tagged(self, world, references):
        model_a, model_b, index, dataset = world
        users, expected_a, expected_b = references
        with ShardRouter(model_a, index, dataset, TARGET, num_shards=2,
                         supervision=_supervision()) as router:
            before, gens = router.recommend_many(users, k=K,
                                                 return_generations=True)
            assert before == expected_a
            assert set(gens.values()) == {0}
            assert router.generation == 0

            summary = router.swap(model_b)

            after, gens = router.recommend_many(users, k=K,
                                                return_generations=True)
            # Zero dropped: every user answered, bit-exact against a
            # single-process engine on the new parameters, and every
            # response names the generation that scored it.
            assert set(after) == set(users)
            assert after == expected_b
            assert set(gens.values()) == {1}

            assert summary["generation"] == 1
            assert summary["previous_generation"] == 0
            assert summary["acked_shards"] == summary["live_shards"]
            assert len(summary["acked_shards"]) == 2
            stats = router.stats()
            assert stats["generation"] == 1
            assert stats["swaps"] == 1
        assert mp.active_children() == []

    def test_back_to_back_swaps_advance_monotonically(self, world,
                                                      references):
        model_a, model_b, index, dataset = world
        users, expected_a, expected_b = references
        with ShardRouter(model_a, index, dataset, TARGET, num_shards=2,
                         supervision=_supervision()) as router:
            assert router.swap(model_b)["generation"] == 1
            assert router.swap(model_a)["generation"] == 2
            assert router.recommend_many(users, k=K) == expected_a
            assert router.stats()["swaps"] == 2


class TestSwapValidation:
    def test_stale_generation_rejected(self, world):
        model_a, model_b, index, dataset = world
        with ShardRouter(model_a, index, dataset, TARGET, num_shards=1,
                         supervision=_supervision()) as router:
            with pytest.raises(ValueError, match="must advance"):
                router.swap(model_b, generation=0)
            # The failed swap left the fleet untouched.
            assert router.generation == 0
            assert router.stats()["swaps"] == 0

    def test_vocabulary_change_rejected(self, world):
        model_a, model_b, index, dataset = world
        shrunk = DatasetIndex(list(index.users.keys())[:-1],
                              index.pois.keys(), index.words.keys())
        with ShardRouter(model_a, index, dataset, TARGET, num_shards=1,
                         supervision=_supervision()) as router:
            with pytest.raises(ValueError, match="vocabulary"):
                router.swap(model_b, index=shrunk)

    def test_closed_router_rejects_swap(self, world):
        model_a, model_b, index, dataset = world
        router = ShardRouter(model_a, index, dataset, TARGET,
                             num_shards=1, supervision=_supervision())
        router.close()
        with pytest.raises(RuntimeError):
            router.swap(model_b)


class TestCacheInvalidation:
    def test_swap_invalidates_resilient_cache(self, world, references):
        model_a, model_b, index, dataset = world
        users, _expected_a, expected_b = references
        resilience = ResilienceConfig(deadline_ms=10_000.0,
                                      hop_timeout_ms=5_000.0,
                                      hedge_after_ms=2_000.0,
                                      poll_interval_ms=5.0)
        with ShardRouter(model_a, index, dataset, TARGET, num_shards=2,
                         supervision=_supervision(),
                         resilience=resilience) as router:
            router.recommend_resilient(users, k=K)
            assert len(router._res_cache) > 0

            router.swap(model_b)

            # Stale generation-0 rankings must not survive the swap…
            assert len(router._res_cache) == 0
            # …and fresh answers come from the new parameters.
            got = router.recommend_resilient(users, k=K)
            for user in users:
                assert got[user].quality == QUALITY_FULL
                assert got[user].items == expected_b[user]


class TestSwapFromCheckpoint:
    def test_published_generations_drive_the_fleet(self, world, references,
                                                   tmp_path):
        model_a, model_b, index, dataset = world
        users, _expected_a, expected_b = references
        publisher = ModelPublisher(tmp_path)
        assert publisher.publish(model_a, index) == 0
        assert publisher.publish(model_b, index) == 1
        with ShardRouter(model_a, index, dataset, TARGET, num_shards=2,
                         supervision=_supervision()) as router:
            summary = router.swap_from_checkpoint(tmp_path / "gen-1.npz")
            assert summary["generation"] == 1
            assert router.recommend_many(users, k=K) == expected_b
            # Re-swapping the stale generation-0 publication fails
            # loudly instead of silently rolling the fleet back.
            with pytest.raises(ValueError, match="must advance"):
                router.swap_from_checkpoint(tmp_path / "gen-0.npz")
            assert router.generation == 1


class TestSwapOnFleetLoss:
    def test_total_loss_raises_unavailable_and_releases_old_block(
            self, world):
        model_a, model_b, index, dataset = world
        router = ShardRouter(model_a, index, dataset, TARGET, num_shards=1,
                             supervision=SupervisionConfig(
                                 step_timeout=60.0, max_respawns=0,
                                 respawn_backoff=0.01))
        old_segment = router._block.manifest.layout.params_name
        try:
            (shard,) = mp.active_children()
            os.kill(shard.pid, signal.SIGKILL)
            shard.join()
            with pytest.raises(FleetUnavailableError) as excinfo:
                router.swap(model_b)
            assert "shard 0" in str(excinfo.value)
        finally:
            router.close()
        # The replaced generation's segment is unlinked, not leaked.
        with pytest.raises(FileNotFoundError):
            leaked = shared_memory.SharedMemory(name=old_segment)
            leaked.close()
            leaked.unlink()
        assert not mp.active_children()
