import time

import numpy as np
import pytest

from dualbid import sim
from dualbid.dsp import DspChoiceModel
from dualbid.mmkp import sgd_solve
from dualbid.utility import ObjectiveKind


@pytest.fixture(scope="session")
def default_instances():
    return {
        kind: sim.gen_mock_instance(sim.MockConfig(objective_kind=kind))
        for kind in (ObjectiveKind.REVENUE, ObjectiveKind.PERFORMANCE)
    }


@pytest.fixture(scope="session")
def solved_defaults(default_instances):
    """Solve both default cases once; reused by the solver-facing tests."""
    out = {}
    t0 = time.monotonic()
    for kind, instance in default_instances.items():
        model = DspChoiceModel(instance)
        state = sgd_solve(model)
        report = sim.run_expectation(model, state.alpha)
        out[kind] = {"instance": instance, "model": model, "state": state, "report": report}
    out["solve_seconds"] = time.monotonic() - t0
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
