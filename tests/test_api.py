"""Public API surface checks: units, errors, and package exports."""

import pytest

import repro
from repro import analysis, comm, core, frameworks, models, net, sim, training, tuning
from repro.errors import (
    ConfigError,
    ReproError,
    SchedulerError,
    SimulationError,
    TuningError,
)
from repro.units import GB, KB, MB, MS, US, gbps, to_gbps


def test_version_is_exposed():
    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") == 2


def test_units_are_consistent():
    assert MB == 1024 * KB
    assert GB == 1024 * MB
    assert MS == 1000 * US


def test_gbps_conversion():
    assert gbps(8) == pytest.approx(1e9)
    assert to_gbps(1.25e9) == pytest.approx(10.0)


def test_error_hierarchy():
    for error in (SimulationError, ConfigError, SchedulerError, TuningError):
        assert issubclass(error, ReproError)
    assert issubclass(ReproError, Exception)


@pytest.mark.parametrize(
    "module,names",
    [
        (sim, ["Environment", "Completion", "Trace"]),
        (net, ["Fabric", "Link", "Message", "TCPTransport", "RDMATransport"]),
        (models, ["ModelSpec", "vgg16", "get_model", "figure2_model"]),
        (frameworks, ["MXNetEngine", "TensorFlowEngine", "PyTorchEngine"]),
        (comm, ["PSBackend", "RingAllReduceBackend", "ChunkSpec"]),
        (core, ["ByteSchedulerCore", "CommTask", "ByteSchedulerAdapter"]),
        (tuning, ["AutoTuner", "OnlineTuner", "BayesianOptimizer", "SearchSpace"]),
        (analysis, ["ideal_iteration_time", "ps_delay_bound", "analyze_worker"]),
        (training, ["ClusterSpec", "SchedulerSpec", "TrainingJob", "run_experiment"]),
    ],
)
def test_documented_exports_exist(module, names):
    for name in names:
        assert hasattr(module, name), f"{module.__name__}.{name} missing"
        assert name in module.__all__


def test_all_exports_resolve():
    for module in (sim, net, models, frameworks, comm, core, tuning, analysis, training):
        for name in module.__all__:
            assert getattr(module, name) is not None
