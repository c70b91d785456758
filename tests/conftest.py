"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.core import (
    PftkSimplifiedFormula,
    PftkStandardFormula,
    SqrtFormula,
    tfrc_weights,
)
from repro.lossprocess import ShiftedExponentialIntervals


# ----------------------------------------------------------------------
# Seeded random component-config generation (a tiny property-based
# harness: no hypothesis dependency, deterministic by construction).
# ----------------------------------------------------------------------
def _perturb_value(value, rng):
    """Randomise one config field while staying in its plausible domain.

    Heuristics keep most perturbed configs valid: unit-interval floats
    stay inside (0, 1), other positive floats scale up, ints nudge up.
    Strings, bools, None and nested lists' non-numeric entries are kept.
    """
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value + int(rng.integers(0, 3))
    if isinstance(value, float):
        if 0.0 < value < 1.0:
            return float(value * rng.uniform(0.5, 0.999))
        if value > 0.0:
            return float(value * rng.uniform(1.0, 2.0))
        return value
    if isinstance(value, (list, tuple)):
        return [_perturb_value(entry, rng) for entry in value]
    return value


def make_random_config(registry, kind, rng):
    """A seeded random-but-valid config dict for one registered kind.

    Starts from the registry's representative example, randomises every
    parameter field, and verifies the result still constructs; if the
    perturbation broke a validation rule, falls back to the unperturbed
    canonical example config (still a valid case for key properties).
    """
    example = registry.examples()[kind]
    config = registry.to_config(example)
    perturbed = {
        name: (value if name == "kind" else _perturb_value(value, rng))
        for name, value in config.items()
    }
    try:
        registry.from_config(perturbed)
    except Exception:
        return config
    return perturbed


@pytest.fixture
def random_config_factory():
    """``(registry, kind, rng) -> config dict``: seeded random generator."""
    return make_random_config


@pytest.fixture
def sqrt_formula():
    """SQRT formula with unit RTT (the paper's reference setting)."""
    return SqrtFormula(rtt=1.0)


@pytest.fixture
def pftk_simplified():
    """PFTK-simplified with unit RTT and q = 4r."""
    return PftkSimplifiedFormula(rtt=1.0)


@pytest.fixture
def pftk_standard():
    """PFTK-standard with unit RTT and q = 4r."""
    return PftkStandardFormula(rtt=1.0)


@pytest.fixture
def all_formulas(sqrt_formula, pftk_simplified, pftk_standard):
    """The three formulas studied in the paper."""
    return [sqrt_formula, pftk_simplified, pftk_standard]


@pytest.fixture
def moderate_loss_process():
    """Shifted-exponential intervals at p = 0.05, cv close to 1."""
    return ShiftedExponentialIntervals.from_loss_rate_and_cv(0.05, 0.999)


@pytest.fixture
def heavy_loss_process():
    """Shifted-exponential intervals at p = 0.3, cv close to 1."""
    return ShiftedExponentialIntervals.from_loss_rate_and_cv(0.3, 0.999)


@pytest.fixture
def rng():
    """A fixed-seed generator shared by tests that sample directly."""
    return np.random.default_rng(20020814)


@pytest.fixture
def tfrc8_weights():
    """TFRC weight profile of length 8."""
    return tfrc_weights(8)


@pytest.fixture
def pool_run():
    """``(spec, workers=2) -> CampaignResult`` on a real process pool.

    Clears ``IN_PROCESS_KINDS`` for the one call, so montecarlo and
    shortflow campaigns reach the pool they otherwise skip, and fails the
    test if no pool was started.
    """
    from repro.experiments import ExperimentRunner
    from repro.experiments import runner as runner_module

    real_pool = runner_module.ProcessPoolExecutor

    def run(spec, workers=2):
        started = []

        def spy_pool(*args, **kwargs):
            started.append(kwargs.get("max_workers"))
            return real_pool(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(runner_module, "IN_PROCESS_KINDS", frozenset())
            patch.setattr(runner_module, "ProcessPoolExecutor", spy_pool)
            campaign = ExperimentRunner(workers=workers).run(spec)
        assert started, "the campaign never reached the process pool"
        return campaign

    return run
