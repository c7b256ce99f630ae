"""Online fold-in of one user's fresh check-ins (``service.fold_in``)."""

import numpy as np
import pytest

from repro.core.config import STTransRecConfig
from repro.core.model import STTransRec
from repro.serving.service import RecommendationService


@pytest.fixture()
def service(tiny_split):
    dataset = tiny_split.train
    index = dataset.build_index()
    model = STTransRec(index.num_users, index.num_pois, index.num_words,
                       STTransRecConfig(embedding_dim=16, seed=0))
    model.eval()
    svc = RecommendationService(model, index, dataset, "shelbyville",
                                use_batcher=False)
    yield svc
    svc.close()


def target_pois(tiny_split):
    return [p.poi_id for p in tiny_split.train.pois_in_city("shelbyville")]


class TestUpdate:
    def test_only_target_user_row_changes(self, service, tiny_split):
        user = tiny_split.test_users[0]
        pois = target_pois(tiny_split)
        before = service.model.user_vectors()
        poi_before = service.model.poi_vectors()
        service.fold_in(user, pois[:2])
        after = service.model.user_vectors()
        u = service.index.users.index_of(user)
        assert not np.allclose(before[u], after[u])
        mask = np.ones(len(before), dtype=bool)
        mask[u] = False
        np.testing.assert_array_equal(before[mask], after[mask])
        np.testing.assert_array_equal(poi_before,
                                      service.model.poi_vectors())

    def test_restores_training_mode(self, service, tiny_split):
        service.model.train()
        pois = target_pois(tiny_split)
        service.fold_in(tiny_split.test_users[0], pois[:1])
        assert service.model.training
        service.model.eval()


class TestValidation:
    def test_unknown_user_rejected(self, service, tiny_split):
        pois = target_pois(tiny_split)
        with pytest.raises(KeyError):
            service.fold_in(10**9, pois[:1])

    def test_empty_pool_rejected(self, service, tiny_split):
        # Folding in the whole catalogue leaves no unvisited negative.
        pois = target_pois(tiny_split)
        before = service.model.user_vectors()
        with pytest.raises(ValueError):
            service.fold_in(tiny_split.test_users[0], pois)
        np.testing.assert_array_equal(before, service.model.user_vectors())
        assert service.fold_ins == 0
