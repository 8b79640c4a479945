import numpy as np
import pytest

from thinfilm import grid as gridmod
from thinfilm import polyops, stencils


@pytest.fixture(scope="session")
def default_grid():
    return gridmod.LogGrid()


@pytest.fixture(scope="session")
def fine_grid():
    return gridmod.LogGrid(-12.0, 4.0, 2049)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def ds_any(values, j, h):
    """d^j/ds^j for any j >= 0, on its own: fourth-order applications composed
    D^4 first and the remainder last, as the derivative tower of grid does."""
    out = np.asarray(values, dtype=float)
    while j > 4:
        out = stencils.apply_derivative(out, 4, h)
        j -= 4
    if j > 0:
        out = stencils.apply_derivative(out, j, h)
    return out


def shifted_pair(k):
    """Symbol pair of the operator conjugated with d^k/dx^k.

    Root multisets {0, -k, 1-k, 2-k} and {0, 1, 1-k, 2-k}.
    """
    if k < 0 or k != int(k):
        raise ValueError("k must be a non-negative integer")
    k = float(k)
    return (polyops.PolynomialOperator((0.0, -k, 1.0 - k, 2.0 - k)),
            polyops.PolynomialOperator((0.0, 1.0, 1.0 - k, 2.0 - k)))


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def gaussian_bump(grid, center=-4.0, width=0.8, amplitude=1.0):
    """Gaussian profile cut to exact compact support by a C^2 window."""
    s = grid.s
    window = (_smoothstep((s - grid.s_min - 0.5) / 1.5)
              * _smoothstep((grid.s_max - 0.5 - s) / 1.5))
    profile = np.exp(-((s - center) ** 2) / (2.0 * width**2))
    return gridmod.GridFunction(grid, amplitude * profile * window)
