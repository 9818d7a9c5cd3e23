"""Discrete differential operators and smoothing kernels.

Gradients use forward differences with Neumann boundaries (the difference
across the last column/row is zero).  The divergence is the exact negative
adjoint of that gradient, so <grad f, p> == <f, -div p> holds to machine
precision.  All smoothing is correlation with mirror (edge-duplicating)
extension, run as one 1-D pass per axis: the Sobel kernels and every
smoothing kernel are outer products of 1-D factors, and convolve_channel
refuses a kernel that is not.  The passes are plain numpy, run over bands
of rows, and repeat scipy.ndimage.correlate1d's arithmetic step for step,
so they equal its two passes bit for bit; they agree with the 2-D
correlation to rounding (about 1e-15 of the input's magnitude).

The gradient and the divergence keep a float32 plane in float32 and take
anything else as float64 (see as_float); the smoothing runs in float64.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "as_float",
    "Kernel",
    "delta_kernel",
    "gaussian_kernel",
    "grad_forward",
    "div_backward",
    "sobel_grad",
    "convolve_channel",
    "reflect_index",
]


def as_float(a):
    """a as a float array without a copy where none is needed: float32 data
    stays float32, anything else becomes float64."""
    a = np.asarray(a)
    return a if a.dtype == np.float32 else np.asarray(a, dtype=np.float64)


@dataclass
class Kernel:
    """Nonnegative square convolution kernel with odd support and unit sum.
    A one-tap kernel, whose weight is within 1e-12 of 1, is stored as
    exactly [[1.0]]: the identity."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("kernel must be square")
        if w.shape[0] % 2 == 0:
            raise ValueError("kernel support must be odd")
        # Each test is written so that NaN fails it.
        if not np.all(np.isfinite(w)):
            raise ValueError("kernel weights must be finite")
        if not np.all(w >= 0):
            raise ValueError("kernel weights must be nonnegative")
        if not abs(w.sum() - 1.0) <= 1e-12:
            raise ValueError("kernel weights must sum to 1")
        self.weights = np.ones((1, 1)) if w.size == 1 else w

    @property
    def support(self):
        return self.weights.shape[0]

    @property
    def radius(self):
        return self.weights.shape[0] // 2

    def taps(self):
        """Row-major list of ((dy, dx), weight) pairs."""
        r = self.radius
        out = []
        for iy in range(self.weights.shape[0]):
            for ix in range(self.weights.shape[1]):
                out.append(((iy - r, ix - r), self.weights[iy, ix]))
        return out


def delta_kernel():
    """The 1x1 identity kernel."""
    return Kernel(np.ones((1, 1)))


def gaussian_kernel(sigma, support):
    """Sampled 2-D Gaussian on a support x support grid, normalized to sum 1.

    support must be an odd positive integer, and support 1 is the delta
    kernel; sigma must be positive and finite.  A sigma of 1e150 or more
    gives the uniform kernel, the limit of large sigma, whose square would
    overflow; one below 0.02 gives the limit of small sigma, all the
    weight at the centre, whose square underflows from about 1e-154 on.
    """
    if not isinstance(support, numbers.Integral) or support % 2 == 0 or support < 1:
        raise ValueError("support must be an odd positive integer, got %r" % (support,))
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError("kernel sigma must be positive and finite")
    if support == 1:
        return delta_kernel()
    r = support // 2
    if sigma < 0.02:
        # every weight off the centre is at most exp(-1 / 8e-4) = exp(-1250),
        # which rounds to 0
        w = np.zeros((support, support))
        w[r, r] = 1.0
        return Kernel(w)
    t = np.arange(-r, r + 1, dtype=np.float64)
    # from sigma 1e150 on every weight rounds to exp(-0), and near 1e154
    # the square overflows: take that uniform limit directly
    two_var = 2.0 * sigma**2 if float(sigma) < 1e150 else math.inf
    g = np.exp(-(t**2) / two_var)
    w = np.outer(g, g)
    return Kernel(w / w.sum())


def grad_forward(channel, out=None):
    """Forward-difference gradient (gx, gy) of a single channel with Neumann
    edges.

    out, when given, is a pair of C-contiguous planes (gx, gy) of the
    channel's shape and dtype that receive the result.
    """
    f = np.ascontiguousarray(as_float(channel))
    if out is None:
        out = (np.empty_like(f), np.empty_like(f))
    gx, gy = _planes(out, f.shape, f.dtype)
    # Differences of the flattened plane: the one that wraps across a row
    # end lands in the last column (last row for y), which is then zeroed.
    flat = f.reshape(-1)
    for plane, lag in ((gx, 1), (gy, f.shape[1])):
        np.subtract(flat[lag:], flat[:-lag], out=plane.reshape(-1)[:-lag])
    gx[:, -1] = 0.0
    gy[-1] = 0.0
    return gx, gy


def div_backward(gx, gy, out=None, scratch=None):
    """Backward-difference divergence of the field (gx, gy), the exact
    negative adjoint of grad_forward.

    out, when given, is a C-contiguous plane of gx's shape and dtype that
    receives the result; scratch, when given, is a C-contiguous plane of
    the same shape that the call may overwrite.
    """
    px = np.ascontiguousarray(as_float(gx))
    py = np.ascontiguousarray(as_float(gy))
    if px.shape != py.shape or px.ndim != 2:
        raise ValueError("gx and gy must be matching 2-D arrays")
    h, w = px.shape
    if out is None:
        out = np.empty_like(px)
    _planes((out,), px.shape, px.dtype)
    # First column copies, interior differences, last column closes the
    # telescope so that the adjoint identity holds exactly.  A size-1 axis
    # has an identically zero forward difference, hence no contribution.
    if w > 1:
        flat = px.reshape(-1)
        np.subtract(flat[1:], flat[:-1], out=out.reshape(-1)[1:])
        out[:, 0] = px[:, 0]
        # not np.negative: in numpy 2.4 it reads the wrong elements when
        # input and output are both strided by 64 bytes (an 8-wide plane)
        np.subtract(0.0, px[:, -2], out=out[:, -1])
    else:
        out[...] = 0.0
    if h > 1:
        out[0] += py[0]
        if h > 2:
            inner = np.empty((h - 2, w), px.dtype) if scratch is None else scratch[: h - 2]
            np.subtract(py[1:-1], py[:-2], out=inner)
            out[1:-1] += inner
        out[-1] -= py[-2]
    return out


def _planes(planes, shape, dtype):
    """Check that every output plane has the given shape and dtype and is
    C-contiguous, so the flat views above write through to it."""
    for plane in planes:
        if plane.shape != shape or plane.dtype != dtype or not plane.flags.c_contiguous:
            raise ValueError("output planes must be C-contiguous with the input's shape and dtype")
    return planes


# The Sobel x kernel is the outer product of a smoothing column and a
# central-difference row; the y kernel is its transpose.
_SOBEL_SMOOTH = np.array([1.0, 2.0, 1.0])
_SOBEL_DIFF = np.array([-1.0, 0.0, 1.0])


def sobel_grad(channel):
    """Unnormalized Sobel derivatives (gx, gy) with mirror extension, each
    taken as two one-dimensional passes."""
    f = np.asarray(channel, dtype=np.float64)
    return (_correlate_separable(f, _SOBEL_SMOOTH, _SOBEL_DIFF),
            _correlate_separable(f, _SOBEL_DIFF, _SOBEL_SMOOTH))


def convolve_channel(channel, kernel):
    """Correlate one channel with a kernel under mirror extension.

    The kernel must be separable: the outer product of its 1-D factor, the
    column sums, with itself (every Gaussian is).  The correlation then runs
    as one pass along each axis.
    """
    f = np.asarray(channel, dtype=np.float64)
    if kernel.support == 1:
        return f.copy()
    w = kernel.weights
    factor = w.sum(axis=0)
    if not np.abs(np.outer(factor, factor) - w).max() <= 1e-12 * w.max():
        raise ValueError("kernel must be the outer product of its 1-D factor")
    return _correlate_separable(f, factor, factor)


# Elements in each of the banded correlation's two buffers (96 KiB of
# float64): the band's source rows with their mirror rows, and its axis-0
# result with mirror columns.  A 96x96 plane under 15-tap passes is one band.
_BAND_ELEMENTS = 12288
_EPS = float(np.finfo(np.float64).eps)


def _correlate_separable(f, column, row):
    """Correlation of the float64 plane f with np.outer(column, row) under
    mirror extension, column along axis 0 and then row along axis 1, for odd
    factors.

    The rows are taken in bands.  Each band gathers its source rows with
    their mirror rows, runs the axis-0 pass into a buffer whose mirror
    columns it then fills, and runs the axis-1 pass straight into its rows
    of the result, so no padded copy of the plane is ever made.  The first
    pass takes its scratch from the band's rows of the result and the second
    from the spent source rows.  A plane that fits the buffers is one band.
    """
    h, w = f.shape
    rc, rr = len(column) // 2, len(row) // 2
    column_plan = _pass_plan(column)
    row_plan = column_plan if row is column else _pass_plan(row)
    out = np.empty((h, w))
    n = min(h, max(1, _BAND_ELEMENTS // (w + 2 * rr)))
    rows = reflect_index(np.arange(-rc, h + rc), h)
    edge = np.r_[0:rr, rr + w:w + 2 * rr]
    edge_source = rr + reflect_index(edge - rr, w)
    src = np.empty((n + 2 * rc, w))
    mid = np.empty((n, w + 2 * rr))
    for y0 in range(0, h, n):
        m = min(n, h - y0)
        band = np.take(f, rows[y0:y0 + m + 2 * rc], axis=0, out=src[:m + 2 * rc], mode="clip")
        _correlate_pass(band, column_plan, mid[:m, rr:rr + w], out[y0:y0 + m], 0)
        if rr:
            mid[:m, edge] = mid[:m, edge_source]
        _correlate_pass(mid[:m], row_plan, out[y0:y0 + m], src[:m], 1)
    return out


def _pass_plan(weights):
    """The steps scipy.ndimage.correlate1d takes for an odd 1-D factor:
    (centre offset, centre weight), the ufunc that combines a pair of taps
    (None for single taps) and the (offset, paired offset, weight) steps.

    A factor symmetric to within machine epsilon starts from the centre tap
    and adds (left + right) * left weight pair by pair, outermost first; an
    antisymmetric one adds (left - right) * left weight the same way; any
    other starts from its last tap and adds the others from the first."""
    w = np.asarray(weights, dtype=np.float64).tolist()
    r = len(w) // 2
    for combine, sign in ((np.add, -1.0), (np.subtract, 1.0)):
        if all(abs(w[r + j] + sign * w[r - j]) <= _EPS for j in range(1, r + 1)):
            return (0, w[r]), combine, [(-j, j, w[r - j]) for j in range(r, 0, -1)]
    return (r, w[-1]), None, [(j, None, w[r + j]) for j in range(-r, r)]


def _correlate_pass(src, plan, out, tmp, axis):
    """out = the correlation of src with a 2r + 1 tap factor along axis (0
    or 1), in the order of plan, where src has 2r more samples than out
    along that axis; tmp is a scratch array of out's shape."""
    n = out.shape[axis]
    r = (src.shape[axis] - n) // 2

    def tap(offset):
        return src[r + offset:r + offset + n] if axis == 0 else src[:, r + offset:r + offset + n]

    (centre, weight), combine, steps = plan
    np.multiply(tap(centre), weight, out=out)
    for a, b, weight in steps:
        if combine is None:
            np.multiply(tap(a), weight, out=tmp)
        else:
            combine(tap(a), tap(b), out=tmp)
            tmp *= weight
        out += tmp


def reflect_index(idx, n):
    """Mirror an integer index into [0, n), duplicating edge samples.

    Follows the half-sample symmetric rule: ... 2 1 0 | 0 1 2 ... n-1 | n-1
    n-2 ...  Accepts arrays.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    m = np.mod(idx, 2 * n)
    return np.where(m >= n, 2 * n - 1 - m, m)
