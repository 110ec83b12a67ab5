"""Auto-tuning of partition and credit sizes (Bayesian Optimization)."""

from repro.tuning.adaptive import AdaptiveTuner, AdaptiveTuningResult, PageHinkley
from repro.tuning.autotuner import AutoTuner, TuningResult, simulated_objective
from repro.tuning.gp import GaussianProcess
from repro.tuning.live import LiveTuner, record_tuning_stats
from repro.tuning.online import OnlineTuner, OnlineTuningResult
from repro.tuning.searchers import (
    BayesianOptimizer,
    GridSearch,
    RandomSearch,
    Searcher,
    SGDMomentumSearch,
    make_searcher,
)
from repro.tuning.space import Point, SearchSpace

__all__ = [
    "SearchSpace",
    "Point",
    "GaussianProcess",
    "Searcher",
    "BayesianOptimizer",
    "GridSearch",
    "RandomSearch",
    "SGDMomentumSearch",
    "make_searcher",
    "AdaptiveTuner",
    "AdaptiveTuningResult",
    "AutoTuner",
    "LiveTuner",
    "OnlineTuner",
    "OnlineTuningResult",
    "PageHinkley",
    "TuningResult",
    "record_tuning_stats",
    "simulated_objective",
]
