import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from robustsurv import CensoredSample, FamilySpec, SyntheticDesign, datasets

# a fixed draw: every run tries the same examples, and no example database
# is read or written
settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
    database=None,
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def veteran():
    return datasets.load_veteran()


@pytest.fixture(scope="session")
def weibull_design():
    """The canonical simulation design: Weibull(2,5) lifetimes, 10%
    exponential censoring."""
    return SyntheticDesign(
        lifetime=FamilySpec("weibull", (2.0, 5.0)), censoring_mean=17.4, seed=1234
    )


@pytest.fixture
def small_sample():
    return CensoredSample.from_pairs([(1.0, 1), (2.0, 0), (3.0, 1)])


def ks_distance_uniform(p):
    p = np.sort(np.asarray(p, dtype=float))
    n = p.size
    grid = np.arange(1, n + 1) / n
    return float(np.max(np.maximum(grid - p, p - (grid - 1.0 / n))))
