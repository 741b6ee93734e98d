import math

import numpy as np
import pytest
from hypothesis import Phase, settings

from nonovershoot import GainConfig, SystemModel, example_system, demo_gains

settings.register_profile("ci", deadline=None, derandomize=True, max_examples=40)
settings.load_profile("ci")

# every phase but shrinking: for the run-loop properties, whose cases each
# compile loops, shrinking a failure took minutes; the examples stay the same
NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)


@pytest.fixture(scope="session")
def demo():
    return example_system()


@pytest.fixture(scope="session")
def gains():
    return demo_gains()


def chain_integrator(n: int) -> SystemModel:
    """Pure integrator chain with unit gain (drift-free plant)."""
    return SystemModel(n=n, drift=tuple(lambda xs: 0.0 for _ in range(n)),
                       gain=lambda xs: 1.0, xi1=1.0, name="chain")


def random_poly_system(n: int, seed: int) -> SystemModel:
    """Strict-feedback plant with random low-order polynomial drift.

    Drift coefficients stay small so finite-difference oracles remain
    well-conditioned at states of order one.
    """
    rng = np.random.default_rng(seed)

    def make_drift(i):
        lin = rng.uniform(-1.0, 1.0, size=i + 1)
        quad = rng.uniform(-0.5, 0.5, size=i + 1)

        def drift(xs, lin=lin, quad=quad):
            acc = 0.0
            for j in range(len(lin)):
                acc = acc + lin[j] * xs[j] + quad[j] * xs[j] * xs[j]
            return acc

        return drift

    a, b = rng.uniform(-0.5, 0.5), rng.uniform(1.0, 2.0)
    return SystemModel(
        n=n,
        drift=tuple(make_drift(i) for i in range(n)),
        gain=lambda xs: a * math.sin(xs[-1]) + b,
        xi1=(b - abs(a)) ** 2,
        name=f"poly{n}s{seed}",
    )


def negated_gain(sys: SystemModel) -> SystemModel:
    """The plant with its input gain negated: same drifts, same floor."""
    return SystemModel(n=sys.n, drift=sys.drift, gain=lambda xs: -sys.gain(xs), xi1=sys.xi1,
                       name=f"{sys.name}-negated")


def random_gains(n: int, seed: int, descending: bool = False) -> GainConfig:
    rng = np.random.default_rng(seed + 10_000)
    if descending:
        c = tuple(sorted(rng.uniform(1.2, 4.0, size=n), reverse=True))
    else:
        c = tuple(rng.uniform(1.2, 4.0, size=n))
    return GainConfig(c=c, kappa=rng.uniform(0.5, 3.0), lam=4.0, beta=0.8, omega=60.0)


def central_diff(f, x: float, eps: float = 1e-6) -> float:
    return (f(x + eps) - f(x - eps)) / (2 * eps)
