"""ST-TransRec: crossing-city POI recommendation (paper reproduction).

A pure-Python implementation of "A Deep Neural Network for Crossing-City
POI Recommendations" (Li & Gong) with every substrate built from scratch:
closed-form numpy neural networks, a synthetic LBSN data generator, region
segmentation and density resampling, MMD transfer, all eight comparison
baselines, and the full evaluation harness.

Typical entry points::

    from repro import (
        STTransRecConfig, STTransRecTrainer, Recommender,
        foursquare_like, generate_dataset, make_crossing_city_split,
        RankingEvaluator,
    )

See README.md for a worked example and DESIGN.md for the system map.
"""

from repro.core import (
    Recommender,
    STTransRec,
    STTransRecConfig,
    STTransRecTrainer,
)
from repro.data import (
    CheckinDataset,
    CheckinRecord,
    POI,
    SyntheticConfig,
    foursquare_like,
    generate_dataset,
    load_dataset,
    make_crossing_city_split,
    save_dataset,
    yelp_like,
)
from repro.eval import RankingEvaluator

__version__ = "1.0.0"

__all__ = [
    "STTransRec",
    "STTransRecConfig",
    "STTransRecTrainer",
    "Recommender",
    "POI",
    "CheckinRecord",
    "CheckinDataset",
    "SyntheticConfig",
    "foursquare_like",
    "yelp_like",
    "generate_dataset",
    "make_crossing_city_split",
    "save_dataset",
    "load_dataset",
    "RankingEvaluator",
    "__version__",
]
