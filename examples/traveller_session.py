"""A traveller's live session: recommend → check in → fold in → recommend.

Run:
    python examples/traveller_session.py

Simulates serving: a crossing-city user receives recommendations from a
:class:`RecommendationService`, "checks in" at two of their actual
ground-truth POIs, the service folds those events into the user's
embedding online (no retraining), and the refreshed ranking is compared
against the first one.
"""

from repro.core import STTransRecConfig, STTransRecTrainer
from repro.data import foursquare_like, generate_dataset, make_crossing_city_split
from repro.serving import RecommendationService


def show(label, ranked, truth):
    print(f"{label}:")
    for i, (poi_id, score) in enumerate(ranked, start=1):
        marker = " *" if poi_id in truth else ""
        print(f"  {i}. POI {poi_id:>4}  score={score:.3f}{marker}")


def main() -> None:
    config = foursquare_like(scale=0.5)
    dataset, _ = generate_dataset(config)
    split = make_crossing_city_split(dataset, config.target_city)

    print("Training ST-TransRec...")
    trainer = STTransRecTrainer(split, STTransRecConfig(
        embedding_dim=32, epochs=8, weight_decay=3e-4, dropout=0.3,
        pretrain_epochs=15, seed=0,
    ))
    trainer.fit()
    trainer.model.eval()

    # Pick a traveller with several ground-truth visits.
    user = max(split.test_users,
               key=lambda u: len(split.ground_truth.get(u, ())))
    truth = split.ground_truth[user]
    print(f"\nTraveller #{user} (will actually visit "
          f"{len(truth)} POIs: {sorted(truth)})\n")

    with RecommendationService(trainer.model, trainer.index, split.train,
                               split.target_city,
                               use_batcher=False) as service:
        before = service.recommend(user, k=8)
        show("Initial top-8", before, truth)

        # The traveller checks in at two of their true POIs; the service
        # now excludes them as visited.
        observed = sorted(truth)[:2]
        print(f"\n>>> traveller checks in at POIs {observed}; "
              f"folding in...\n")
        service.fold_in(user, observed)

        after = service.recommend(user, k=8)
        show("Refreshed top-8", after, truth)

    remaining = truth - set(observed)

    def hits(ranked):
        return sum(1 for poi_id, _ in ranked if poi_id in remaining)
    print(f"\nRemaining ground-truth POIs in top-8: "
          f"{hits(before)} before -> {hits(after)} after the fold-in")


if __name__ == "__main__":
    main()
