"""Discrete differential operators and smoothing kernels.

Gradients use forward differences with Neumann boundaries (the difference
across the last column/row is zero).  The divergence is the exact negative
adjoint of that gradient, so <grad f, p> == <f, -div p> holds to machine
precision.  All smoothing is correlation with mirror (edge-duplicating)
extension.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .image import Image

__all__ = [
    "GradientField",
    "Kernel",
    "delta_kernel",
    "gaussian_kernel",
    "grad_forward",
    "div_backward",
    "sobel_grad",
    "convolve",
    "convolve_channel",
    "reflect_index",
]


@dataclass
class GradientField:
    """Per-pixel x and y derivative planes, each shaped (H, W)."""

    gx: np.ndarray
    gy: np.ndarray

    def __post_init__(self):
        self.gx = np.asarray(self.gx, dtype=np.float64)
        self.gy = np.asarray(self.gy, dtype=np.float64)
        if self.gx.shape != self.gy.shape or self.gx.ndim != 2:
            raise ValueError("gx and gy must be matching 2-D arrays")


@dataclass
class Kernel:
    """Nonnegative square convolution kernel with odd support and unit sum."""

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
        self.weights = w

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

    support must be odd; support 1 returns the delta kernel regardless of
    sigma.
    """
    if support % 2 == 0 or support < 1:
        raise ValueError("support must be odd and positive")
    if support == 1:
        return delta_kernel()
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError("kernel sigma must be positive and finite")
    r = support // 2
    t = np.arange(-r, r + 1, dtype=np.float64)
    g = np.exp(-(t**2) / (2.0 * sigma**2))
    w = np.outer(g, g)
    return Kernel(w / w.sum())


def grad_forward(channel, out=None):
    """Forward-difference gradient of a single channel with Neumann edges.

    out, when given, is a pair of C-contiguous planes (gx, gy) of the
    channel's shape that receive the result.
    """
    f = np.ascontiguousarray(channel, dtype=np.float64)
    if out is None:
        out = (np.empty_like(f), np.empty_like(f))
    gx, gy = _planes(out, f.shape)
    # Differences of the flattened plane: the one that wraps across a row
    # end lands in the last column (last row for y), which is then zeroed.
    flat = f.reshape(-1)
    w = f.shape[1]
    np.subtract(flat[1:], flat[:-1], out=gx.reshape(-1)[:-1])
    gx[:, -1] = 0.0
    np.subtract(flat[w:], flat[:-w], out=gy.reshape(-1)[:-w])
    gy[-1] = 0.0
    return GradientField(gx=gx, gy=gy)


def div_backward(p, out=None, scratch=None):
    """Backward-difference divergence, the exact negative adjoint of
    grad_forward.

    out, when given, is a C-contiguous plane that receives the result;
    scratch, when given, is a C-contiguous plane of the same shape that
    the call may overwrite.
    """
    px = np.ascontiguousarray(p.gx)
    py = np.ascontiguousarray(p.gy)
    h, w = px.shape
    if out is None:
        out = np.empty_like(px)
    _planes((out,), px.shape)
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
            inner = np.empty((h - 2, w)) if scratch is None else scratch[: h - 2]
            np.subtract(py[1:-1], py[:-2], out=inner)
            out[1:-1] += inner
        out[-1] -= py[-2]
    return out


def _planes(planes, shape):
    """Check that every output plane has the given shape and is C-contiguous,
    so the flat views above write through to it."""
    for plane in planes:
        if plane.shape != shape or not plane.flags.c_contiguous:
            raise ValueError("output planes must be C-contiguous with the input's shape")
    return planes


_SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])


def sobel_grad(channel):
    """Unnormalized Sobel derivatives with mirror extension."""
    f = np.asarray(channel, dtype=np.float64)
    gx = ndimage.correlate(f, _SOBEL_X, mode="reflect")
    gy = ndimage.correlate(f, _SOBEL_X.T, mode="reflect")
    return GradientField(gx=gx, gy=gy)


def convolve_channel(channel, kernel):
    """Correlate one channel with a kernel under mirror extension."""
    f = np.asarray(channel, dtype=np.float64)
    if kernel.support == 1:
        return f * kernel.weights[0, 0]
    return ndimage.correlate(f, kernel.weights, mode="reflect")


def convolve(img, kernel):
    """Kernel smoothing applied independently per channel."""
    out = np.stack([convolve_channel(img.data[c], kernel) for c in range(img.channels)])
    return Image(out)


def reflect_index(idx, n):
    """Mirror an integer index into [0, n), duplicating edge samples.

    Follows the half-sample symmetric rule: ... 2 1 0 | 0 1 2 ... n-1 | n-1
    n-2 ...  Accepts arrays.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    m = np.mod(idx, 2 * n)
    return np.where(m >= n, 2 * n - 1 - m, m)
