"""Watch the transfer layer close the city gap.

Run:
    python examples/transfer_visualization.py

Trains ST-TransRec with and without the MMD transfer term and reports,
for each, (a) the final MMD between source- and target-city POI
embedding distributions and (b) how well POIs of the same latent topic
align *across* cities (mean cosine of same-topic vs different-topic
cross-city centroids).  The MMD-trained model should show a smaller
distribution gap and a wider same-vs-different margin — the
city-independent features of Fig. 1a.
"""

import numpy as np

from repro.core import STTransRecConfig, STTransRecTrainer
from repro.data import foursquare_like, generate_dataset, make_crossing_city_split
from repro.transfer import GaussianKernel, MMDBatch


def topic_alignment(trainer, dataset, target_city, num_topics):
    """(same-topic, different-topic) mean cross-city centroid cosines."""
    emb = trainer.model.poi_vectors()
    emb = emb / np.maximum(np.linalg.norm(emb, axis=1, keepdims=True), 1e-12)
    centroids = {}
    for poi in dataset.pois.values():
        key = (poi.city == target_city, poi.topic)
        centroids.setdefault(key, []).append(
            emb[trainer.index.pois.index_of(poi.poi_id)]
        )
    centroids = {k: np.mean(v, axis=0) for k, v in centroids.items()}

    def cosine(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-12))

    same, different = [], []
    for topic in range(num_topics):
        if (True, topic) not in centroids or (False, topic) not in centroids:
            continue
        same.append(cosine(centroids[(True, topic)],
                           centroids[(False, topic)]))
        for other in range(num_topics):
            if other != topic and (False, other) in centroids:
                different.append(cosine(centroids[(True, topic)],
                                        centroids[(False, other)]))
    return float(np.mean(same)), float(np.mean(different))


def final_mmd(trainer):
    emb = trainer.model.poi_embeddings.weight
    rng = np.random.default_rng(0)
    src = rng.choice(trainer.source_mmd_pool, size=256)
    tgt = rng.choice(trainer.target_mmd_pool, size=256)
    kernel = GaussianKernel(trainer._kernel.bandwidth)
    return float(MMDBatch(emb.data[src], emb.data[tgt], kernel).loss)


def main() -> None:
    config = foursquare_like(scale=0.5)
    dataset, _ = generate_dataset(config)
    split = make_crossing_city_split(dataset, config.target_city)

    for label, use_mmd in (("with MMD transfer", True),
                           ("without MMD (ST-TransRec-1)", False)):
        model_config = STTransRecConfig(
            embedding_dim=32, epochs=8, weight_decay=3e-4, dropout=0.3,
            pretrain_epochs=10, use_mmd=use_mmd, seed=0,
        )
        trainer = STTransRecTrainer(split, model_config)
        trainer.fit()
        gap = final_mmd(trainer)
        same, different = topic_alignment(
            trainer, dataset, config.target_city, config.num_topics
        )
        print(f"{label}:")
        print(f"  source↔target embedding MMD²: {gap:.4f}")
        print(f"  cross-city same-topic cosine: {same:.3f}")
        print(f"  cross-city diff-topic cosine: {different:.3f}")
        print(f"  alignment margin:             {same - different:.3f}\n")


if __name__ == "__main__":
    main()
