"""Patch-based Jacobian fields, structure tensors, and their adjoints.

The patch-based Jacobian attaches to every pixel i an (L*C) x 2 matrix whose
rows are kernel-weighted gradients gathered from the neighborhood:

    row (c*L + l) = sqrt(K[p_l]) * (grad f^c)[i - p_l]

with L = support^2 taps in row-major order and reflect indexing at borders.
The per-pixel Gram matrix of this stack is the classical structure tensor of
the image smoothed by K, which is what makes 2x2 eigendecompositions
sufficient for every singular-value computation in this package.

The directional variant transforms each gradient by diag(a+, a-[j]) R(-th[j])
at its source pixel j before gathering, steering the penalty toward the
direction th and modulating its strength through a-.

Storage is planar: jacobian_apply fills a (2, L*C, H, W) buffer, so every
row of every gradient component is one contiguous H x W plane, and returns
its (H, W, L*C, 2) view.  A row is gathered as a slice of the gradient
plane extended by the kernel radius under reflect indexing; the adjoint
adds each row into a padded plane at the same slice and folds the border
back onto the samples it mirrors.  Per-pixel Gram sums run over the rows
axis of the planes.
"""

from dataclasses import dataclass

import numpy as np

from .diffops import GradientField, Kernel, div_backward, grad_forward, reflect_index
from .image import Image

__all__ = [
    "DirectionalParams",
    "PatchJacobianField",
    "StructureTensorField",
    "patch_jacobian",
    "patch_jacobian_adjoint",
    "directional_patch_jacobian",
    "directional_adjoint",
    "apply_direction",
    "structure_tensor",
    "eig2x2",
    "coherence",
    "regularizer_value",
    "jacobian_apply",
    "jacobian_adjoint_apply",
]


@dataclass
class DirectionalParams:
    """Per-pixel steering fields shared by all channels.

    alpha_plus is a global scalar >= 1; alpha_minus varies per pixel within
    [1, alpha_plus]; theta is an orientation field in [0, pi).
    """

    alpha_plus: float
    alpha_minus: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        self.alpha_plus = float(self.alpha_plus)
        self.alpha_minus = np.asarray(self.alpha_minus, dtype=np.float64)
        self.theta = np.asarray(self.theta, dtype=np.float64)
        # Each test is written so that NaN fails it.
        if not 1.0 <= self.alpha_plus < np.inf:
            raise ValueError("alpha_plus must be finite and >= 1")
        if self.alpha_minus.shape != self.theta.shape or self.alpha_minus.ndim != 2:
            raise ValueError("alpha_minus and theta must be matching 2-D fields")
        slack = 1e-9
        am = self.alpha_minus
        if not np.all((am >= 1.0 - slack) & (am <= self.alpha_plus + slack)):
            raise ValueError("alpha_minus must lie in [1, alpha_plus]")
        if not np.all((self.theta >= 0.0) & (self.theta < np.pi)):
            raise ValueError("theta must lie in [0, pi)")
        self.alpha_minus = np.clip(self.alpha_minus, 1.0, self.alpha_plus)

    @classmethod
    def identity(cls, shape):
        """alpha_plus = alpha_minus = 1, theta = 0: the untransformed case."""
        h, w = shape
        return cls(1.0, np.ones((h, w)), np.zeros((h, w)))

    @property
    def shape(self):
        return self.theta.shape

    def trig(self):
        # cos/sin of theta, computed once; theta is treated as immutable.
        cached = getattr(self, "_trig", None)
        if cached is None:
            cached = (np.cos(self.theta), np.sin(self.theta))
            self._trig = cached
        return cached


@dataclass
class PatchJacobianField:
    """Stack of per-pixel (L*C) x 2 matrices, stored as (H, W, L*C, 2)."""

    data: np.ndarray
    kernel: Kernel
    channels: int

    def __post_init__(self):
        if self.data.ndim != 4 or self.data.shape[-1] != 2:
            raise ValueError("field data must have shape (H, W, rows, 2)")
        if self.data.shape[2] != self.kernel.support**2 * self.channels:
            raise ValueError("row count must equal support^2 * channels")

    @property
    def height(self):
        return self.data.shape[0]

    @property
    def width(self):
        return self.data.shape[1]

    @property
    def rows(self):
        return self.data.shape[2]

    def gram(self):
        """Per-pixel 2x2 Gram matrix M^T M, shape (H, W, 2, 2)."""
        gxx, gxy, gyy = _gram(self.data)
        out = np.empty(gxx.shape + (2, 2))
        out[..., 0, 0] = gxx
        out[..., 0, 1] = gxy
        out[..., 1, 0] = gxy
        out[..., 1, 1] = gyy
        return out


@dataclass
class StructureTensorField:
    """Smoothed gradient outer products with their eigensystem."""

    sxx: np.ndarray
    sxy: np.ndarray
    syy: np.ndarray
    lambda_plus: np.ndarray
    lambda_minus: np.ndarray
    v_plus: np.ndarray
    v_minus: np.ndarray


# ---------------------------------------------------------------------------
# Gather/scatter plumbing


def _planar(field):
    """The (2, rows, H, W) view of an (H, W, rows, 2) field."""
    return field.transpose(3, 2, 0, 1)


def _gram(field):
    """Per-pixel Gram entries (gxx, gxy, gyy) of an (..., rows, 2) field."""
    a = field[..., 0]
    b = field[..., 1]
    return (
        np.einsum("...r,...r->...", a, a),
        np.einsum("...r,...r->...", a, b),
        np.einsum("...r,...r->...", b, b),
    )


def _extension(r, h, w):
    """Source rows and columns of the reflect extension by r on every side."""
    return reflect_index(np.arange(-r, h + r), h), reflect_index(np.arange(-r, w + r), w)


def _fold(acc, r, ys, xs):
    """Adjoint of the reflect extension: add every border row and column of
    the (..., h + 2r, w + 2r) planes acc onto the sample it mirrors.
    Returns the (..., h, w) view of acc, which it overwrites."""
    h = acc.shape[-2] - 2 * r
    w = acc.shape[-1] - 2 * r
    inner = acc[..., r : r + h, :]
    for j in (*range(r), *range(h + r, h + 2 * r)):
        inner[..., ys[j], :] += acc[..., j, :]
    out = inner[..., r : r + w]
    for j in (*range(r), *range(w + r, w + 2 * r)):
        out[..., xs[j]] += inner[..., j]
    return out


def _transformed_gradients(channels, dp):
    """Forward-difference gradients, steered by dp when given."""
    grads = []
    if dp is not None:
        ct, st = dp.trig()
        ap = dp.alpha_plus
        am = dp.alpha_minus
    for ch in channels:
        gf = grad_forward(ch)
        if dp is None:
            grads.append((gf.gx, gf.gy))
        else:
            # diag(ap, am) R(-th) applied per source pixel
            rx = ct * gf.gx + st * gf.gy
            ry = ct * gf.gy - st * gf.gx
            grads.append((ap * rx, am * ry))
    return grads


def jacobian_apply(channels, kernel, dp=None, out=None):
    """Raw forward operator: (C, H, W) samples -> (H, W, L*C, 2) field.

    The result is the (H, W, L*C, 2) view of a planar (2, L*C, H, W)
    buffer.  out, when given, is such a view (an earlier result) and is
    filled and returned instead of a new one.
    """
    nch, h, w = channels.shape
    if dp is not None and dp.shape != (h, w):
        raise ValueError("direction fields do not match image dimensions")
    taps = kernel.taps()
    L = len(taps)
    if out is None:
        out = np.empty((2, L * nch, h, w)).transpose(2, 3, 1, 0)
    elif out.shape != (h, w, L * nch, 2):
        raise ValueError("out does not match image, kernel and channels")
    planar = _planar(out)
    r = kernel.radius
    ys, xs = _extension(r, h, w)
    for c, grads in enumerate(_transformed_gradients(channels, dp)):
        for k, grad in enumerate(grads):
            ext = grad[np.ix_(ys, xs)] if r else grad
            for l, ((dy, dx), weight) in enumerate(taps):
                dst = planar[k, c * L + l]
                if weight == 0.0:
                    dst[...] = 0.0
                    continue
                # row (c, l) at pixel i is sqrt(K[p_l]) grad[i - p_l]
                np.multiply(np.sqrt(weight), ext[r - dy : r - dy + h, r - dx : r - dx + w], out=dst)
    return out


def jacobian_adjoint_apply(data, kernel, channels, dp=None):
    """Raw adjoint operator: (H, W, L*C, 2) field -> (C, H, W) samples."""
    h, w, rows, _ = data.shape
    taps = kernel.taps()
    L = len(taps)
    if rows != L * channels:
        raise ValueError("field row count does not match kernel and channels")
    if dp is not None:
        if dp.shape != (h, w):
            raise ValueError("direction fields do not match image dimensions")
        ct, st = dp.trig()
        ap = dp.alpha_plus
        am = dp.alpha_minus
    planar = _planar(data)
    r = kernel.radius
    ys, xs = _extension(r, h, w)
    out = np.empty((channels, h, w))
    for c in range(channels):
        if r == 0:
            # one tap and no border
            ax, ay = np.sqrt(taps[0][1]) * planar[:, c]
        else:
            # scatter each row back to its source pixel i - p_l, then fold
            # the reflect border onto the samples it came from
            term = np.empty((2, h, w))
            acc = np.zeros((2, h + 2 * r, w + 2 * r))
            for l, ((dy, dx), weight) in enumerate(taps):
                if weight == 0.0:
                    continue
                np.multiply(np.sqrt(weight), planar[:, c * L + l], out=term)
                acc[:, r - dy : r - dy + h, r - dx : r - dx + w] += term
            ax, ay = _fold(acc, r, ys, xs)
        if dp is not None:
            # transpose of diag(ap, am) R(-th) is R(th) diag(ap, am)
            bx = ct * ap * ax - st * am * ay
            by = st * ap * ax + ct * am * ay
            ax, ay = bx, by
        out[c] = -div_backward(GradientField(gx=ax, gy=ay))
    return out


# ---------------------------------------------------------------------------
# Public operators


def patch_jacobian(f, k):
    """Kernel-weighted stack of shifted gradients for every pixel."""
    return PatchJacobianField(jacobian_apply(f.data, k), k, f.channels)


def patch_jacobian_adjoint(psi):
    """Exact adjoint of patch_jacobian under the Euclidean inner products."""
    return Image(jacobian_adjoint_apply(psi.data, psi.kernel, psi.channels))


def apply_direction(g, ap, am, th):
    """diag(ap, am) R(-th) g for a gradient vector (or array of vectors).

    R(th) = [[cos th, -sin th], [sin th, cos th]]; the last axis of g holds
    the (x, y) components.  Scalars and broadcastable arrays are accepted.
    """
    g = np.asarray(g, dtype=np.float64)
    ct = np.cos(th)
    st = np.sin(th)
    gx = g[..., 0]
    gy = g[..., 1]
    return np.stack([ap * (ct * gx + st * gy), am * (ct * gy - st * gx)], axis=-1)


def directional_patch_jacobian(f, k, dp):
    """Patch-based Jacobian of the steered gradients.

    Each channel gradient is transformed by apply_direction with the
    alpha_minus and theta values at its source pixel, then gathered and
    weighted exactly like patch_jacobian.
    """
    return PatchJacobianField(jacobian_apply(f.data, k, dp), k, f.channels)


def directional_adjoint(psi, dp):
    """Exact adjoint of directional_patch_jacobian."""
    return Image(jacobian_adjoint_apply(psi.data, psi.kernel, psi.channels, dp))


def structure_tensor(f, k):
    """Channel-summed gradient outer products, smoothed by k, with eigensystem."""
    sxx = np.zeros((f.height, f.width))
    sxy = np.zeros_like(sxx)
    syy = np.zeros_like(sxx)
    for c in range(f.channels):
        gf = grad_forward(f.data[c])
        sxx += gf.gx * gf.gx
        sxy += gf.gx * gf.gy
        syy += gf.gy * gf.gy
    from .diffops import convolve_channel

    sxx = convolve_channel(sxx, k)
    sxy = convolve_channel(sxy, k)
    syy = convolve_channel(syy, k)
    lp, lm, vp, vm = eig2x2(sxx, sxy, syy)
    return StructureTensorField(sxx, sxy, syy, lp, lm, vp, vm)


def eig2x2(sxx, sxy, syy):
    """Closed-form eigendecomposition of symmetric 2x2 matrices.

    Returns (lambda_plus, lambda_minus, v_plus, v_minus) with lambda_plus >=
    lambda_minus, unit eigenvectors stacked on the last axis, and a sign
    convention making the first nonzero component nonnegative.  Works on
    scalars or arrays of matching shape.
    """
    sxx = np.asarray(sxx, dtype=np.float64)
    sxy = np.asarray(sxy, dtype=np.float64)
    syy = np.asarray(syy, dtype=np.float64)
    mean = 0.5 * (sxx + syy)
    half = 0.5 * (sxx - syy)
    rad = np.hypot(half, sxy)
    lp = mean + rad
    lm = mean - rad
    # Columns of (A - lm I) span the lambda_plus eigenspace; both are free of
    # cancellation (entries half+rad and rad-half are nonnegative).  Pick the
    # larger one; when both vanish the matrix is isotropic and the coordinate
    # axes serve as eigenvectors.
    c1x = half + rad
    c1y = sxy
    c2x = sxy
    c2y = rad - half
    n1 = np.hypot(c1x, c1y)
    n2 = np.hypot(c2x, c2y)
    use1 = n1 >= n2
    vx = np.where(use1, c1x, c2x)
    vy = np.where(use1, c1y, c2y)
    n = np.hypot(vx, vy)
    safe = np.where(n == 0.0, 1.0, n)
    vx = np.where(n == 0.0, 1.0, vx / safe)
    vy = np.where(n == 0.0, 0.0, vy / safe)
    flip = (vx < 0.0) | ((vx == 0.0) & (vy < 0.0))
    sgn = np.where(flip, -1.0, 1.0)
    vx = sgn * vx
    vy = sgn * vy
    # v_minus is the perpendicular, re-signed under the same convention.
    wx = -vy
    wy = vx
    flip = (wx < 0.0) | ((wx == 0.0) & (wy < 0.0))
    sgn = np.where(flip, -1.0, 1.0)
    wx = sgn * wx
    wy = sgn * wy
    return lp, lm, np.stack([vx, vy], axis=-1), np.stack([wx, wy], axis=-1)


def coherence(lambda_plus, lambda_minus, eps=1e-12):
    """Anisotropy measure (l+ - l-) / l+ in [0, 1]; 0 where l+ <= eps."""
    lp = np.asarray(lambda_plus, dtype=np.float64)
    lm = np.asarray(lambda_minus, dtype=np.float64)
    safe = np.where(lp > eps, lp, 1.0)
    c = np.where(lp > eps, (lp - lm) / safe, 0.0)
    return np.clip(c, 0.0, 1.0)


def regularizer_value(f, k, dp=None, q=1):
    """Sum over pixels of the Schatten-q norm of the (steered) patch Jacobian.

    Singular values come from the per-pixel 2x2 Gram eigenvalues, which is
    exact for matrices with two columns.
    """
    if q not in (1, 2):
        raise ValueError("q must be 1 or 2")
    lp, lm, _, _ = eig2x2(*_gram(jacobian_apply(f.data, k, dp)))
    lp = np.maximum(lp, 0.0)
    lm = np.maximum(lm, 0.0)
    if q == 1:
        return float(np.sum(np.sqrt(lp) + np.sqrt(lm)))
    return float(np.sum(np.sqrt(lp + lm)))
