"""Incremental updater: touched-rows-only movement, negative hygiene."""

import numpy as np
import pytest

from repro.core.config import STTransRecConfig
from repro.core.model import STTransRec, UserSideBPR
from repro.nn.dtypes import using_dtype
from repro.nn.optim import Adam
from repro.obs.metrics import MetricsRegistry
from repro.streaming import CheckinEvent, IncrementalUpdater
from tests.oracle import Tensor, interaction_logits

TARGET = "shelbyville"


def make_updater(dataset, index, config=None, **overrides):
    model = STTransRec(index.num_users, index.num_pois, index.num_words,
                       config or STTransRecConfig(embedding_dim=8, seed=3))
    model.eval()
    pool = [p.poi_id for p in dataset.pois_in_city(TARGET)]
    kwargs = dict(learning_rate=0.1, fold_in_steps=2, retrain_lr=0.05,
                  retrain_steps=3, num_negatives=2, rng=0)
    kwargs.update(overrides)
    return model, IncrementalUpdater(model, index, dataset, pool, **kwargs)


@pytest.fixture(scope="module")
def world(tiny_dataset):
    dataset, _truth = tiny_dataset
    return dataset, dataset.build_index()


def stream_events(dataset, index, num_users=3, per_user=2):
    """Valid target-city events for the first few indexed users."""
    pois = dataset.pois_in_city(TARGET)
    user_ids = sorted(dataset.users)[:num_users]
    events = []
    ts = max(c.timestamp for c in dataset.checkins)
    for i, uid in enumerate(user_ids):
        for j in range(per_user):
            ts += 1.0
            poi = pois[(i * per_user + j) % len(pois)]
            events.append(CheckinEvent(seq=len(events), user_id=uid,
                                       poi_id=poi.poi_id, city=TARGET,
                                       timestamp=ts))
    return events


def equal_bursts(dataset, index, num_bursts, num_users=2, per_burst=2):
    """``num_bursts`` bursts of ``per_burst`` events for each of the
    first users; no (user, POI) pair repeats across the bursts."""
    per_user = num_bursts * per_burst
    events = stream_events(dataset, index, num_users, per_user)
    return [[events[i * per_user + j] for i in range(num_users)
             for j in range(b * per_burst, (b + 1) * per_burst)]
            for b in range(num_bursts)]


def pairs_of(index, events):
    return [(index.users.index_of(e.user_id), index.pois.index_of(e.poi_id))
            for e in events]


def replayed(updater):
    """Run one retrain round; return the (user, POI) rows it replayed,
    or ``None`` when it ran no step."""
    seen = []
    real = UserSideBPR.grads
    k = updater.num_negatives

    def spy(bpr, neg):
        seen.append(list(zip(bpr.users[::k].tolist(),
                             bpr.pos[::k].tolist())))
        return real(bpr, neg)

    UserSideBPR.grads = spy
    try:
        updater.retrain()
    finally:
        UserSideBPR.grads = real
    assert all(rows == seen[0] for rows in seen)
    return seen[0] if seen else None


def embedding_snapshot(model):
    return model.user_embeddings.weight.data.copy()


class TestIngest:
    def test_only_touched_rows_move(self, world):
        dataset, index = world
        model, updater = make_updater(dataset, index)
        events = stream_events(dataset, index)
        before = embedding_snapshot(model)
        stats = updater.ingest(events)
        after = embedding_snapshot(model)

        touched = sorted({index.users.index_of(e.user_id) for e in events})
        untouched = np.setdiff1d(np.arange(index.num_users), touched)
        np.testing.assert_array_equal(after[untouched], before[untouched])
        for row in touched:
            assert not np.array_equal(after[row], before[row])
        assert stats.events_ingested == len(events)
        assert stats.events_skipped == 0
        assert stats.fold_in_steps == updater.fold_in_steps
        assert stats.last_seq == events[-1].seq

    def test_poi_side_parameters_never_change(self, world):
        dataset, index = world
        model, updater = make_updater(dataset, index)
        before = model.poi_embeddings.weight.data.copy()
        updater.ingest(stream_events(dataset, index))
        updater.retrain()
        np.testing.assert_array_equal(
            model.poi_embeddings.weight.data, before)

    def test_unknown_entities_are_counted_and_skipped(self, world):
        dataset, index = world
        model, updater = make_updater(dataset, index)
        known = stream_events(dataset, index, num_users=1, per_user=1)[0]
        unknown = [
            CheckinEvent(seq=1, user_id=10 ** 9, poi_id=known.poi_id,
                         city=TARGET, timestamp=known.timestamp + 1),
            CheckinEvent(seq=2, user_id=known.user_id, poi_id=10 ** 9,
                         city=TARGET, timestamp=known.timestamp + 2),
        ]
        before = embedding_snapshot(model)
        stats = updater.ingest(unknown)
        np.testing.assert_array_equal(embedding_snapshot(model), before)
        assert stats.events_ingested == 0
        assert stats.events_skipped == 2

        stats = updater.ingest([known] + unknown)
        assert stats.events_ingested == 1
        assert stats.events_skipped == 4

    def test_training_mode_restored(self, world):
        dataset, index = world
        model, updater = make_updater(dataset, index)
        model.train()
        updater.ingest(stream_events(dataset, index))
        assert model.training
        model.eval()
        updater.ingest(stream_events(dataset, index, num_users=1))
        assert not model.training


class TestNegativeSampling:
    def test_negatives_never_visited(self, world):
        dataset, index = world
        model, updater = make_updater(dataset, index)
        events = stream_events(dataset, index)
        updater.ingest(events)

        user_rows = np.array(
            [index.users.index_of(e.user_id) for e in events] * 10,
            dtype=np.int64)
        negatives = updater._sample_negatives(user_rows)
        keys = user_rows * len(index.pois) + negatives
        assert not updater._is_visited(keys).any()
        # Every negative comes from the configured pool.
        assert np.isin(negatives, updater._pool).all()

    def test_ingested_pois_become_visited(self, world):
        dataset, index = world
        model, updater = make_updater(dataset, index)
        event = stream_events(dataset, index, num_users=1, per_user=1)[0]
        u = index.users.index_of(event.user_id)
        p = index.pois.index_of(event.poi_id)
        key = np.array([u * len(index.pois) + p], dtype=np.int64)
        assert not updater._is_visited(key)[0]
        updater.ingest([event])
        assert updater._is_visited(key)[0]

    def test_ingest_never_draws_its_own_positives(self, world,
                                                  monkeypatch):
        dataset, index = world
        model, updater = make_updater(dataset, index, fold_in_steps=5)
        events = stream_events(dataset, index, num_users=3, per_user=4)
        batch = set(pairs_of(index, events))
        drawn = []
        real = UserSideBPR.grads

        def spy(bpr, neg):
            drawn.extend(zip(bpr.users.tolist(), neg.tolist()))
            return real(bpr, neg)

        monkeypatch.setattr(UserSideBPR, "grads", spy)
        updater.ingest(events)
        assert len(drawn) == len(events) * updater.num_negatives * 5
        assert not batch & set(drawn)

    def test_empty_pool_raises(self, world):
        dataset, index = world
        model = STTransRec(index.num_users, index.num_pois,
                           index.num_words,
                           STTransRecConfig(embedding_dim=8, seed=3))
        with pytest.raises(ValueError, match="empty"):
            IncrementalUpdater(model, index, dataset, [])


class TestValidation:
    def test_invalid_hyperparams_rejected(self, world):
        dataset, index = world
        for bad in ({"learning_rate": 0}, {"fold_in_steps": 0},
                    {"num_negatives": 0}):
            with pytest.raises(ValueError):
                make_updater(dataset, index, **bad)


class TestRetrain:
    def test_retrain_moves_only_touched_rows(self, world):
        dataset, index = world
        model, updater = make_updater(dataset, index)
        events = stream_events(dataset, index)
        updater.ingest(events)
        before = embedding_snapshot(model)
        stats = updater.retrain()
        after = embedding_snapshot(model)

        touched = sorted({index.users.index_of(e.user_id) for e in events})
        untouched = np.setdiff1d(np.arange(index.num_users), touched)
        np.testing.assert_array_equal(after[untouched], before[untouched])
        assert any(not np.array_equal(after[row], before[row])
                   for row in touched)
        assert stats.retrain_rounds == 1

    def test_retrain_without_history_is_noop(self, world):
        dataset, index = world
        model, updater = make_updater(dataset, index)
        before = embedding_snapshot(model)
        stats = updater.retrain()
        np.testing.assert_array_equal(embedding_snapshot(model), before)
        assert stats.retrain_rounds == 0

    def test_replay_is_new_rows_plus_equal_older_sample(self, world):
        dataset, index = world
        model, updater = make_updater(dataset, index, retrain_steps=1)
        first, second, third = equal_bursts(dataset, index, 3)
        history = []
        for burst, older_sampled in ((first, 0), (second, 4),
                                     (third[:3], 3)):
            updater.ingest(burst)
            new = pairs_of(index, burst)
            rows = replayed(updater)
            assert len(rows) == len(set(rows))
            assert set(new) <= set(rows)
            assert set(rows) - set(new) <= set(history)
            assert len(rows) == len(new) + older_sampled
            history.extend(new)

    def test_retrain_rows_bounded_over_equal_bursts(self, world):
        dataset, index = world
        registry = MetricsRegistry()
        model, updater = make_updater(dataset, index, retrain_steps=1,
                                      registry=registry)
        gauge = registry.gauge("streaming.retrain_rows")
        bursts = equal_bursts(dataset, index, 6)
        burst_pairs = len(bursts[0]) * updater.num_negatives
        seen = []
        for burst in bursts:
            updater.ingest(burst)
            updater.retrain()
            seen.append(gauge.value)
        assert seen == [burst_pairs] + [2 * burst_pairs] * 5
        assert sum(len(h) for h in updater._history.values()) == \
            len(bursts) * len(bursts[0])

    def test_retrain_with_nothing_new_is_noop(self, world):
        dataset, index = world
        model, updater = make_updater(dataset, index)
        updater.ingest(stream_events(dataset, index))
        assert updater.retrain().retrain_rounds == 1
        before = embedding_snapshot(model)
        state = updater._rng.bit_generator.state
        assert replayed(updater) is None
        assert updater.stats.retrain_rounds == 1
        np.testing.assert_array_equal(embedding_snapshot(model), before)
        assert updater._rng.bit_generator.state == state

    def test_evicted_rows_never_replayed(self, world):
        dataset, index = world
        model, updater = make_updater(dataset, index,
                                      max_history_per_user=3)
        events = stream_events(dataset, index, num_users=1, per_user=8)
        pairs = pairs_of(index, events)
        updater.ingest(events[:5])
        assert replayed(updater) == pairs[2:5]
        updater.ingest(events[5:7])
        # One older row is retained, fewer than the two new ones: all
        # of it is replayed, and nothing evicted is.
        assert replayed(updater) == pairs[4:7]
        updater.ingest(events[7:])
        rows = replayed(updater)
        assert rows[-1] == pairs[7] and len(rows) == 2
        assert set(rows[:1]) <= set(pairs[5:7])

    def test_history_is_bounded(self, world):
        dataset, index = world
        model, updater = make_updater(dataset, index,
                                      max_history_per_user=3)
        events = stream_events(dataset, index, num_users=1, per_user=8)
        updater.ingest(events)
        row = index.users.index_of(events[0].user_id)
        history = updater._history[row]
        assert len(history) == 3
        expected = [index.pois.index_of(e.poi_id) for e in events[-3:]]
        assert history == expected


class TestTouchedTracking:
    def test_drain_touched_returns_and_clears(self, world):
        dataset, index = world
        model, updater = make_updater(dataset, index)
        events = stream_events(dataset, index)
        updater.ingest(events)
        expected = sorted({e.user_id for e in events})
        assert updater.touched_users() == expected
        assert updater.drain_touched() == expected
        assert updater.touched_users() == []
        # History survives the drain (retrain still has replay data).
        assert updater.retrain().retrain_rounds == 1


# ----------------------------------------------------------------------
# Frozen-leaf backward: bit-identical to a backward through everything
# ----------------------------------------------------------------------
def full_graph_loss(model, users, pos, neg):
    model.zero_grad()
    pos_logits = interaction_logits(model, users, pos)
    neg_logits = interaction_logits(model, users, neg)
    return -(pos_logits - neg_logits).log_sigmoid().mean()


def full_graph_fold_in(updater, user_rows, poi_rows):
    """The fold-in with every parameter trainable (no freeze)."""
    model = updater.model
    pos = np.repeat(poi_rows, updater.num_negatives)
    users = np.repeat(user_rows, updater.num_negatives)
    touched = np.unique(user_rows)
    weight = model.user_embeddings.weight
    for _ in range(updater.fold_in_steps):
        neg = updater._sample_negatives(users)
        full_graph_loss(model, users, pos, neg).backward()
        weight.data[touched] -= updater.learning_rate * weight.grad[touched]
    model.zero_grad()


def full_graph_retrain(updater):
    """The retrain round with every parameter trainable (no freeze),
    over the same replay rows: one ``interaction_logits`` call over the
    positive pairs followed by the negative ones, so the user lookup's
    backward scatters the positive branch's rows ahead of the negative
    branch's, then a plain Adam."""
    model = updater.model
    rows, positives = updater._replay_rows()
    users = np.repeat(rows, updater.num_negatives)
    pos = np.repeat(positives, updater.num_negatives)
    n = users.size
    pairs = np.concatenate([users, users])
    optimizer = Adam([model.user_embeddings.weight], lr=updater.retrain_lr)
    for _ in range(updater.retrain_steps):
        neg = updater._sample_negatives(users)
        model.zero_grad()
        logits = interaction_logits(model, pairs, np.concatenate([pos, neg]))
        (-(logits[:n] - logits[n:]).log_sigmoid().mean()).backward()
        optimizer.step()
    model.zero_grad()


def run_updates(dataset, index, updater, retrain):
    """ingest → fold_in_user → retrain, then ingest → retrain twice.

    The second and third rounds have fewer new rows (4, then 2) than
    older ones (6, then 10), so they replay a sample of the history.
    """
    events = stream_events(dataset, index, num_users=4, per_user=3)
    updater.ingest(events[:6])
    user_row = index.users.index_of(events[0].user_id)
    pois = dataset.pois_in_city(TARGET)
    updater.fold_in_user(user_row, np.array(
        [index.pois.index_of(pois[-1].poi_id),
         index.pois.index_of(pois[-2].poi_id)], dtype=np.int64))
    retrain(updater)
    updater.ingest(events[6:10])
    retrain(updater)
    updater.ingest(events[10:])
    retrain(updater)
    return embedding_snapshot(updater.model)


class TestFrozenBackward:
    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_user_rows_bit_identical_to_full_graph(self, world, precision):
        dataset, index = world
        registry = MetricsRegistry()
        with using_dtype(precision):
            model, updater = make_updater(dataset, index,
                                          registry=registry)
            ref_model, reference = make_updater(dataset, index)
        assert model.user_embeddings.weight.data.dtype == \
            np.dtype(np.float64 if precision == "f64" else np.float32)
        reference._fold_in = lambda users, pois: full_graph_fold_in(
            reference, users, pois)

        before = embedding_snapshot(model)
        got = run_updates(dataset, index, updater,
                          lambda u: u.retrain())
        expected = run_updates(dataset, index, reference,
                               full_graph_retrain)
        assert not np.array_equal(got, before)
        # The last round replayed its 2 new rows and 2 of the 10 older.
        assert registry.gauge("streaming.retrain_rows").value == \
            4 * updater.num_negatives
        assert got.tobytes() == expected.tobytes()
        for (name, p), (_, q) in zip(model.named_parameters(),
                                     ref_model.named_parameters()):
            assert p.data.tobytes() == q.data.tobytes(), name

    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    @pytest.mark.parametrize("hidden_sizes", [[16], None],
                             ids=["hidden16", "paper"])
    @pytest.mark.parametrize("features", ["concat", "concat_product"])
    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_configuration_matrix_bit_identical(self, world, precision,
                                                features, hidden_sizes,
                                                dropout):
        dataset, index = world
        config = STTransRecConfig(embedding_dim=8, seed=3,
                                  interaction_features=features,
                                  hidden_sizes=hidden_sizes, dropout=dropout)
        with using_dtype(precision):
            model, updater = make_updater(dataset, index, config)
            ref_model, reference = make_updater(dataset, index, config)
        reference._fold_in = lambda users, pois: full_graph_fold_in(
            reference, users, pois)
        user_table = model.user_embeddings.weight
        before = {name: p.data.tobytes()
                  for name, p in model.named_parameters()
                  if p is not user_table}

        got = run_updates(dataset, index, updater, lambda u: u.retrain())
        expected = run_updates(dataset, index, reference,
                               full_graph_retrain)
        assert got.dtype == np.dtype(
            np.float64 if precision == "f64" else np.float32)
        assert got.tobytes() == expected.tobytes()
        for name, p in model.named_parameters():
            if p is not user_table:
                assert p.data.tobytes() == before[name], name

    def test_only_the_user_table_receives_a_grad(self, world, monkeypatch):
        dataset, index = world
        model, updater = make_updater(dataset, index)
        weight = model.user_embeddings.weight
        others = [(n, p) for n, p in model.named_parameters()
                  if p is not weight]
        seen = []
        backward_calls = []
        real_grads = UserSideBPR.grads

        def spy(bpr, neg):
            branches = real_grads(bpr, neg)
            user_rows = (len(bpr.users), weight.data.shape[1])
            seen.append((all(g.shape == user_rows for g in branches),
                         [n for n, p in others if p.grad is not None]))
            return branches

        monkeypatch.setattr(UserSideBPR, "grads", spy)
        monkeypatch.setattr(Tensor, "backward",
                            lambda self, grad=None: backward_calls.append(1))
        events = stream_events(dataset, index)
        updater.ingest(events)
        updater.fold_in_user(index.users.index_of(events[0].user_id),
                             np.array([0], dtype=np.int64))
        updater.retrain()
        expected_calls = 2 * updater.fold_in_steps + updater.retrain_steps
        assert len(seen) == expected_calls
        assert all(user_grad and not other for user_grad, other in seen)
        assert {n.split(".")[0] for n, _ in others} >= {
            "poi_embeddings", "poi_bias", "tower"}
        # Tape-free: no backward ran and no parameter holds a grad.
        assert not backward_calls
        assert all(p.grad is None for _n, p in model.named_parameters())

    def test_retrain_rows_gauge(self, world):
        dataset, index = world
        registry = MetricsRegistry()
        model, updater = make_updater(dataset, index, registry=registry)
        events = stream_events(dataset, index, num_users=2, per_user=3)
        updater.ingest(events)
        updater.retrain()
        assert registry.gauge("streaming.retrain_rows").value == \
            len(events) * updater.num_negatives
