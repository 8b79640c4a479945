import numpy as np
import pytest

from thinfilm import grid as gridmod
from thinfilm import stencils
from thinfilm.errors import GridError


def test_fd_weights_classic_first_derivative():
    w = stencils.fd_weights(np.arange(-2, 3), 0.0, 1)
    assert np.allclose(w, [1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12], atol=1e-14)


def test_fd_weights_classic_second_derivative():
    w = stencils.fd_weights(np.arange(-2, 3), 0.0, 2)
    assert np.allclose(w, [-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12], atol=1e-13)


def test_fd_weights_polynomial_exactness():
    nodes = np.array([0.0, 0.7, 1.1, 2.3, 3.1])
    w = stencils.fd_weights(nodes, 1.3, 2)
    # exact second derivative of a quartic at 1.3
    p = np.array([0.3, -1.2, 0.5, 2.0, -0.7])
    vals = np.polyval(p, nodes)
    d2 = np.polyval(np.polyder(p, 2), 1.3)
    assert abs(w @ vals - d2) < 1e-10


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_derivative_order_on_exponential(m):
    # coarse grids: finer ones reach the rounding floor of the h^{-m} weights
    errs = []
    for n in (33, 65, 129):
        s = np.linspace(-2, 2, n)
        h = s[1] - s[0]
        got = stencils.apply_derivative(np.exp(1.3 * s), m, h)
        errs.append(np.max(np.abs(got - 1.3**m * np.exp(1.3 * s))))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) > 3.5


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_derivative_annihilates_constants(m):
    # zero row sums up to the roundoff of the h^{-m}-scaled weights
    out = stencils.apply_derivative(np.full(64, 3.7), m, 0.1)
    assert np.max(np.abs(out)) < 1e-8


_CENTER_POINTS = {1: 5, 2: 5, 3: 7, 4: 7}  # fourth-order centered window of d^m/ds^m


def _fresh_edge_rows(n, m):
    """(row, start, weights) of the one-sided rows of d^m/ds^m on n nodes, h = 1,
    from fd_weights: within half a centered window of either edge, the rows get
    shifted (m+4)-point windows of the same order."""
    half, span = _CENTER_POINTS[m] // 2, m + 4
    starts = [(i, 0) for i in range(half)] + [(i, n - span) for i in range(n - half, n)]
    return [(i, start, stencils.fd_weights(np.arange(span), float(i - start), m))
            for i, start in starts]


def _uncached_derivative(values, m, h, divide_last=False):
    """apply_derivative rebuilt from freshly generated weights on every call,
    each edge's one-sided rows applied as one block. The weights are divided
    by h^m before they are applied, as in the kernel; with ``divide_last`` the
    h = 1 result is divided by h^m instead."""
    n = values.size
    half = _CENTER_POINTS[m] // 2
    scale = 1.0 if divide_last else h**m
    center = stencils.fd_weights(np.arange(-half, half + 1), 0.0, m) / scale
    rows = _fresh_edge_rows(n, m)
    out = np.empty(n)
    out[half:n - half] = np.correlate(values, center, mode="valid")
    for edge in (rows[:half], rows[half:]):
        block = np.array([bw for _, _, bw in edge]) / scale
        start = edge[0][1]
        nodes = values[start:start + block.shape[1]]
        out[[i for i, _, _ in edge]] = (block @ nodes[:, None])[:, 0]
    if divide_last:
        out /= h**m
    return out


@pytest.mark.parametrize("n", [16, 513, 1025])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_cached_plan_matches_fresh_weights(m, n):
    values = np.random.default_rng(n + m).standard_normal(n)
    h = 16.0 / (n - 1)
    want = _uncached_derivative(values, m, h)
    for _ in range(2):  # the first call builds the plan, the second reuses it
        assert np.array_equal(stencils.apply_derivative(values, m, h), want)
    center, _, left, right = stencils._plan(n, m, h)
    for weights in (center, left, right):
        with pytest.raises(ValueError):
            weights[0] = 0.0


@pytest.mark.parametrize("n", [513, 1025, 4097])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_scaled_weights_exact_at_power_of_two_h(m, n):
    # on [-12, 4] these h are powers of two, so dividing the weights by h^m
    # and dividing the h = 1 result by h^m give the same bits
    h = gridmod.LogGrid(-12.0, 4.0, n).h
    assert h == 2.0 ** np.round(np.log2(h))
    rng = np.random.default_rng(3 * n + m)
    values = rng.standard_normal(n) * np.exp(8.0 * rng.standard_normal(n))
    want = _uncached_derivative(values, m, h, divide_last=True)
    assert np.array_equal(stencils.apply_derivative(values, m, h), want)


@pytest.mark.parametrize("n", [16, 513, 1025, 4097])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_stacked_call_matches_per_row_calls(m, n):
    rng = np.random.default_rng(10 * n + m)
    h = 16.0 / (n - 1)
    # rows of very different scales, as in N(u) and the norm towers
    big = rng.standard_normal((4, 6, n + 3)) * np.exp(8.0 * rng.standard_normal((4, 6, n + 3)))
    # C-ordered (3, n) and (2, 3, n) stacks, an empty one, a Fortran-ordered
    # one and a non-contiguous (2, 3, n) slice of the larger array
    stacks = (big[0, :3, :n].copy(), big[1:3, :3, :n].copy(), big[0, :0, :n].copy(),
              np.asfortranarray(big[3, :4, :n]), big[::2, ::2, 2:n + 2])
    for values in stacks:
        got = stencils.apply_derivative(values, m, h)
        assert got.shape == values.shape
        want = [stencils.apply_derivative(row, m, h) for row in values.reshape(-1, n)]
        assert np.array_equal(got.reshape(-1, n), np.array(want).reshape(-1, n))


@pytest.mark.parametrize("n", [129, 1345])  # h = 16 / (n - 1): 1/8, and not a power of two
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_one_field_calls_on_views_match_stacked_rows(m, n):
    # one field takes its own branch; on contiguous and strided 1-D views it
    # gives the bits of the matching row of a stacked call
    rng = np.random.default_rng(7 * n + m)
    h = 16.0 / (n - 1)
    big = rng.standard_normal((3, 2 * n)) * np.exp(8.0 * rng.standard_normal((3, 2 * n)))
    fortran = np.asfortranarray(big[:, :n])  # each row of it is a strided view
    stacked = stencils.apply_derivative(fortran, m, h)
    for i in range(3):
        assert not fortran[i].flags.c_contiguous
        assert np.array_equal(stencils.apply_derivative(fortran[i], m, h), stacked[i])
    every_other = big[1, ::2]  # n of the 2n values
    assert every_other.shape == (n,)
    stacked = stencils.apply_derivative(np.stack([big[0, :n], every_other]), m, h)
    assert np.array_equal(stencils.apply_derivative(every_other, m, h), stacked[1])
    assert np.array_equal(stencils.apply_derivative(big[0, :n], m, h), stacked[0])
    assert np.array_equal(stencils.apply_derivative(every_other.copy(), m, h), stacked[1])


@pytest.mark.parametrize("n", [16, 1025])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_edge_blocks_match_row_dot_products(m, n):
    # the one-sided rows as matrix-vector products agree with one dot product
    # per row to a few ulps of the summed magnitudes
    values = np.random.default_rng(n - m).standard_normal(n)
    got = stencils.apply_derivative(values, m, 1.0)
    for i, start, bw in _fresh_edge_rows(n, m):
        terms = bw * values[start:start + len(bw)]
        assert abs(got[i] - bw @ values[start:start + len(bw)]) <= (
            4 * np.finfo(float).eps * np.sum(np.abs(terms)))


def test_derivative_too_small_grid():
    with pytest.raises(GridError):
        stencils.apply_derivative(np.zeros(6), 4, 0.1)


@pytest.mark.parametrize("m, floor", [(1, 7), (2, 8), (3, 9), (4, 10)])
def test_derivative_size_floor(m, floor):
    # the smallest grid holds both windows (centered and shifted one-sided)
    # and two nodes more; one node fewer is a GridError, not a wrong answer
    with pytest.raises(GridError, match=f"too small for order-{m} stencil"):
        stencils.apply_derivative(np.ones(floor - 1), m, 0.1)
    assert np.max(np.abs(stencils.apply_derivative(np.ones(floor), m, 0.1))) < 1e-8


def test_cumulative_integral_fourth_order():
    errs = []
    for n in (129, 257, 513):
        s = np.linspace(0.0, 2.0, n)
        h = s[1] - s[0]
        got = stencils.cumulative_integral(np.exp(2 * s), h)
        exact = (np.exp(2 * s) - 1.0) / 2.0
        errs.append(np.max(np.abs(got - exact)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) > 3.5


def test_cumulative_integral_exact_on_cubics():
    s = np.linspace(0.0, 1.0, 41)
    got = stencils.cumulative_integral(s**3 - 2 * s, s[1] - s[0])
    exact = s**4 / 4 - s**2
    assert np.max(np.abs(got - exact)) < 1e-14


def test_trapezoid_matches_numpy():
    y = np.sin(np.linspace(0, 3, 100))
    assert np.isclose(stencils.trapezoid(y, 0.01), np.trapezoid(y, dx=0.01))
