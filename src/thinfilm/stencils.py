"""Finite-difference kernels on uniform grids.

Weight generation (Fornberg recursion), fourth-order derivative application
with one-sided closures, and a fourth-order cumulative quadrature. Everything
here operates on plain numpy arrays; grid semantics live in ``grid``.
"""

import functools

import numpy as np

from .errors import GridError

# Centered window sizes giving fourth-order accuracy for d^m/ds^m.
_CENTER_POINTS = {1: 5, 2: 5, 3: 7, 4: 7}


def fd_weights(offsets, x0, m):
    """Weights for the m-th derivative at ``x0`` from nodes at ``offsets``.

    Fornberg's recursion; exact for polynomials of degree < len(offsets).
    """
    nodes = np.asarray(offsets, dtype=float)
    n = nodes.size
    if m >= n:
        raise ValueError(f"need more than {m} nodes for derivative order {m}")
    c = np.zeros((n, m + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = nodes[0] - x0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - x0
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


@functools.lru_cache(maxsize=64)
def window_weights(width, offset, m):
    """Read-only h = 1 weights of d^m/ds^m at node ``offset`` of a ``width``-node window:
    the one Fornberg weight cache, read by _plan and resolvent.assemble."""
    w = fd_weights(np.arange(width) - offset, 0.0, m)
    w.flags.writeable = False
    return w


@functools.lru_cache(maxsize=64)
def _plan(n, m, h):
    """(centered weights, half width, left block, right block) of d^m/ds^m on n nodes.

    Built once per (n, m, h), every array already divided by h^m. The centered
    window does not fit within ``half`` nodes of either edge; those rows get
    shifted (m+4)-point stencils of the same order. The blocks hold them, shape
    (half, m+4): the left block acts on the first m+4 nodes, the right block on
    the last m+4. The arrays are shared by every caller, so they are read-only.
    """
    half, span = _CENTER_POINTS[m] // 2, m + 4
    if n < max(_CENTER_POINTS[m], span) + 2:
        raise GridError(f"grid with {n} nodes too small for order-{m} stencil")
    scale = h**m
    center = window_weights(2 * half + 1, half, m) / scale
    left = np.array([window_weights(span, i, m) for i in range(half)]) / scale
    right = np.array([window_weights(span, span - half + i, m) for i in range(half)]) / scale
    for w in (center, left, right):
        w.flags.writeable = False
    return center, half, left, right


def apply_derivative(values, m, h, out=None):
    """Fourth-order d^m/ds^m of uniformly sampled values, m in 1..4.

    ``values`` is one field or a (..., n) stack of fields, differentiated
    along its last axis. The rows, laid end to end, get one centered
    correlation; the windows that straddle two rows land on edge rows, which
    one matrix-vector product per row and edge block then overwrites. So a
    stacked call equals its per-row calls bitwise. With 1/h^m in the weights,
    the result equals correlating with the h = 1 weights and dividing by h^m
    exactly when h is a power of two, and to the last bits otherwise.

    ``out``, when given, is filled and returned with the bits of a fresh call: a
    C-contiguous float64 array of the shape of ``values`` that shares no memory
    with it (ValueError otherwise: the flat write needs a view of ``out``, and a
    derivative written over its own input would read half-written values).
    """
    if m not in _CENTER_POINTS:
        raise ValueError(f"derivative order {m} not in 1..4")
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    w, half, left, right = _plan(n, m, h)
    span = left.shape[1]
    if out is None:
        out = np.empty(values.shape)
    elif not (isinstance(out, np.ndarray) and out.dtype == float and out.shape == values.shape
              and out.flags.c_contiguous) or np.shares_memory(out, values):
        raise ValueError(f"out must be a C-contiguous float64 array of shape {values.shape} "
                         f"that shares no memory with values")
    if values.ndim == 1:
        # one field: the same correlation and matrix-vector products, without the
        # stack's reshapes and broadcast matmul
        out[half:n - half] = np.correlate(values, w, mode="valid")
        left.dot(values[:span], out=out[:half])
        right.dot(values[n - span:], out=out[n - half:])
        return out
    if values.size:
        out.reshape(-1)[half:-half] = np.correlate(values.reshape(-1), w, mode="valid")
    out[..., :half] = (left @ values[..., :span, None])[..., 0]
    out[..., n - half:] = (right @ values[..., n - span:, None])[..., 0]
    return out


def cumulative_integral(values, h):
    """Fourth-order cumulative integral from the first node (value 0 there).

    Per-interval Newton-Cotes weights of the local cubic interpolant; the two
    end intervals use the one-sided cubic.
    """
    y = np.asarray(values, dtype=float)
    n = y.size
    if n < 4:
        raise GridError("cumulative integral needs at least 4 nodes")
    inc = np.empty(n - 1)
    inc[0] = (9 * y[0] + 19 * y[1] - 5 * y[2] + y[3]) / 24.0
    inc[1:n - 2] = (-y[0:n - 3] + 13 * y[1:n - 2] + 13 * y[2:n - 1] - y[3:n]) / 24.0
    inc[n - 2] = (y[n - 4] - 5 * y[n - 3] + 19 * y[n - 2] + 9 * y[n - 1]) / 24.0
    out = np.empty(n)
    out[0] = 0.0
    np.cumsum(inc, out=out[1:])
    out[1:] *= h
    return out


def trapezoid(values, h):
    """Composite trapezoid rule on a uniform grid, along the last axis."""
    y = np.asarray(values, dtype=float)
    return h * (y.sum(axis=-1) - 0.5 * (y[..., 0] + y[..., -1]))
