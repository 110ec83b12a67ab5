"""Unit tests for the search strategies and the auto-tuner."""

import math

import pytest

from repro.errors import TuningError
from repro.tuning import (
    AutoTuner,
    BayesianOptimizer,
    GridSearch,
    RandomSearch,
    Searcher,
    SearchSpace,
    SGDMomentumSearch,
    make_searcher,
)
from repro.units import MB

SPACE = SearchSpace(
    partition_min=1 * MB,
    partition_max=64 * MB,
    credit_min=1 * MB,
    credit_max=256 * MB,
)


def quadratic_objective(partition, credit):
    """Smooth unimodal speed surface peaking at (8 MB, 32 MB)."""
    lp = math.log2(partition / (8 * MB))
    lc = math.log2(credit / (32 * MB))
    return 1000.0 - 40.0 * lp * lp - 25.0 * lc * lc


def run_searcher(searcher, trials, objective=quadratic_objective):
    for _ in range(trials):
        point = searcher.suggest()
        searcher.observe(point, objective(*point))
    return searcher.best()


def test_grid_visits_every_point_once():
    searcher = GridSearch(SPACE, resolution=3)
    points = [searcher.suggest() for _ in range(9)]
    assert len(set(points)) == 9
    with pytest.raises(TuningError):
        searcher.suggest()


def test_grid_finds_coarse_optimum():
    searcher = GridSearch(SPACE, resolution=7)
    (partition, credit), best = run_searcher(searcher, 49)
    assert best >= 900.0


def test_random_search_reproducible():
    a = RandomSearch(SPACE, seed=11)
    b = RandomSearch(SPACE, seed=11)
    assert [a.suggest() for _ in range(5)] == [b.suggest() for _ in range(5)]


def test_bo_beats_random_on_budget():
    budget = 12
    bo_best = run_searcher(BayesianOptimizer(SPACE, seed=1), budget)[1]
    rnd_best = run_searcher(RandomSearch(SPACE, seed=1), budget)[1]
    assert bo_best >= rnd_best - 1e-9


def test_bo_converges_near_optimum():
    searcher = BayesianOptimizer(SPACE, seed=3)
    (_point, best) = run_searcher(searcher, 15)
    assert best >= 985.0  # within 1.5% of the peak (1000)


def test_bo_posterior_matches_observations():
    import numpy as np

    searcher = BayesianOptimizer(SPACE, seed=0)
    run_searcher(searcher, 8)
    units = np.array([SPACE.to_unit(point) for point, _ in searcher.history])
    mean, std = searcher.posterior(units)
    observed = [speed for _, speed in searcher.history]
    assert mean == pytest.approx(observed, rel=0.05)


def test_sgd_improves_over_start():
    searcher = SGDMomentumSearch(SPACE, seed=5)
    first_point = searcher.suggest()
    first_value = quadratic_objective(*first_point)
    _best_point, best = run_searcher(searcher, 30)
    assert best >= first_value


def test_best_before_observations_raises():
    with pytest.raises(TuningError):
        RandomSearch(SPACE).best()


def test_make_searcher_names():
    for name, cls in [
        ("bo", BayesianOptimizer),
        ("grid", GridSearch),
        ("random", RandomSearch),
        ("sgd", SGDMomentumSearch),
    ]:
        assert isinstance(make_searcher(name, SPACE), cls)
    with pytest.raises(TuningError):
        make_searcher("simulated-annealing", SPACE)


def test_autotuner_finds_good_point():
    tuner = AutoTuner(quadratic_objective, space=SPACE, method="bo", seed=2)
    result = tuner.run(max_trials=15)
    assert result.best_speed >= 980.0
    assert result.num_trials == 15


def test_autotuner_noise_is_seeded():
    tuner_a = AutoTuner(quadratic_objective, space=SPACE, seed=4, noise=0.05)
    tuner_b = AutoTuner(quadratic_objective, space=SPACE, seed=4, noise=0.05)
    assert tuner_a.run(8).trials == tuner_b.run(8).trials


def test_autotuner_restart_penalty_charged_on_partition_change():
    tuner = AutoTuner(
        quadratic_objective,
        space=SPACE,
        method="random",
        seed=1,
        restart_penalty=5.0,
    )
    result = tuner.run(max_trials=6)
    # Random search changes partition nearly every trial.
    assert result.restart_overhead >= 5.0 * 4


class OutOfBoxSearcher(Searcher):
    """Scripted searcher whose suggestions may fall outside the box."""

    def __init__(self, space, suggestions):
        super().__init__(space)
        self._suggestions = list(suggestions)

    def suggest(self):
        return self._suggestions.pop(0)


def test_autotuner_clips_before_charging_restarts():
    # Two distinct unclipped suggestions that clip to the *same*
    # boundary partition: the pre-fix tuner compared the raw
    # suggestions and charged a spurious PS restart.
    tuner = AutoTuner(
        quadratic_objective,
        space=SPACE,
        restart_penalty=5.0,
    )
    tuner.searcher = OutOfBoxSearcher(
        SPACE,
        [
            (256 * MB, 32 * MB),  # clips to partition_max = 64 MB
            (512 * MB, 32 * MB),  # clips to partition_max too
        ],
    )
    result = tuner.run(max_trials=2)
    assert result.restart_overhead == 0.0


def test_autotuner_records_clipped_trials():
    # Trials and best_point must be inside the search box even when the
    # searcher suggests points outside it (the pre-fix tuner recorded
    # the raw suggestion while profiling the clipped one).
    tuner = AutoTuner(quadratic_objective, space=SPACE)
    tuner.searcher = OutOfBoxSearcher(
        SPACE, [(1e12, 1e12), (1.0, 1.0), (8 * MB, 32 * MB)]
    )
    result = tuner.run(max_trials=3)
    for (partition, credit), _speed in result.trials:
        assert SPACE.partition_min <= partition <= SPACE.partition_max
        assert SPACE.credit_min <= credit <= SPACE.credit_max
    best_partition, best_credit = result.best_point
    assert SPACE.partition_min <= best_partition <= SPACE.partition_max
    assert SPACE.credit_min <= best_credit <= SPACE.credit_max
    # The in-box optimum wins, and its recorded speed matches the
    # clipped configuration that was actually profiled.
    assert result.best_point == (8 * MB, 32 * MB)
    assert result.best_speed == pytest.approx(1000.0)


def test_autotuner_validation():
    with pytest.raises(TuningError):
        AutoTuner(quadratic_objective, noise=-1.0)
    tuner = AutoTuner(quadratic_objective, space=SPACE)
    with pytest.raises(TuningError):
        tuner.run(max_trials=0)


@pytest.mark.parametrize(
    "knobs",
    [
        {"noise": math.nan},
        {"restart_penalty": -1.0},
        {"restart_penalty": math.nan},
    ],
)
def test_autotuner_rejects_bad_knobs(knobs):
    with pytest.raises(TuningError):
        AutoTuner(quadratic_objective, space=SPACE, **knobs)


def test_trials_to_reach():
    tuner = AutoTuner(quadratic_objective, space=SPACE, method="grid")
    result = tuner.run(max_trials=20)
    needed = result.trials_to_reach(result.best_speed)
    assert needed is not None
    assert 1 <= needed <= 20
    assert result.trials_to_reach(1e9) is None
