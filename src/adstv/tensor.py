"""The patch-based Jacobian operator, its adjoint, and 2x2 eigenvalues.

The patch-based Jacobian attaches to every pixel i an (L*C) x 2 matrix whose
rows are kernel-weighted gradients gathered from the neighborhood:

    row (c*L + l) = sqrt(K[p_l]) * (grad f^c)[i - p_l]

with L = support^2 taps in row-major order and reflect indexing at borders.
The per-pixel Gram matrix of this stack is the classical structure tensor of
the image smoothed by K, which is what makes closed-form 2x2 eigenvalues
sufficient for every singular-value computation in this package.

The directional variant transforms each gradient by diag(a+, a-[j]) R(-th[j])
at its source pixel j before gathering, steering the penalty toward the
direction th and modulating its strength through a-.

A dual field is a C-contiguous (2, L*C, H, W) array, as dual_field
allocates and jacobian_apply fills: field[k, r] is row r of gradient
component k, one contiguous H x W plane.  A row is gathered as a slice of
the gradient plane extended by the kernel radius under reflect indexing
(one np.take through a flat index); the adjoint adds each row into a
padded plane at the same slice, as one contiguous run, and folds the
border back onto the samples it mirrors.  Per-pixel Gram sums run over the
rows axis.  jacobian_apply has one tap loop, which
adds every row into the field: plain J adds into a zeroed field, and the
solver's dual ascent step adds J / step into its dual.  Every kernel,
steered or not, runs that loop; a 1x1 kernel (TV, EADTV) has no extension,
and its one row is the gradient plane itself.

A Workspace carries what every call for the same operands shares: the
taps, the extension index, the steering products and the scratch planes.
The solver builds one per solve and passes it to every J and J*, which then
allocate nothing; a call without one builds its own.

Both operators follow the dtype of their input: float32 samples or fields
give float32 results, computed through float32 scratch planes and steering
products, and anything else is taken as float64.  The arithmetic is the
same for both dtypes.
"""

from dataclasses import dataclass

import numpy as np

from .diffops import (
    as_float,
    div_backward,
    grad_forward,
    reflect_index,
)

__all__ = [
    "DirectionalParams",
    "Workspace",
    "eig2x2",
    "coherence",
    "regularizer_value",
    "jacobian_apply",
    "jacobian_adjoint_apply",
    "dual_field",
    "upsample_dual",
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

    @property
    def shape(self):
        return self.theta.shape


# ---------------------------------------------------------------------------
# Gather/scatter plumbing


class Workspace:
    """Constants and scratch memory shared by the operator calls of one solve.

    Built once from (kernel, channels, H, W, dp, dtype).  It holds the taps
    as offsets and square-root weights, the flat index of the reflect
    extension by the kernel radius, the steering fields and the products
    that the adjoint needs, a boolean mask per channel and one block of
    scratch planes.  The steering arrays and the block are in dtype, the
    dtype of the samples and fields the workspace serves.
    J, J* and the ball projection each draw their planes from the start of
    that block and never hold them past their own call, so the block is as
    large as the largest single demand; it grows only on a demand larger
    than any before.  Their arithmetic reads and writes whole C-contiguous
    planes or one-dimensional runs, which numpy iterates without buffers of
    its own: strided two-dimensional windows are only copied.
    """

    def __init__(self, kernel, channels, h, w, dp=None, dtype=np.float64):
        if dp is not None and dp.shape != (h, w):
            raise ValueError("direction fields do not match image dimensions")
        self.kernel = kernel
        self.channels = channels
        self.shape = (h, w)
        self.dp = dp
        self.dtype = np.dtype(dtype)
        # Python floats, so that they scale a float32 plane in float32
        self.taps = [(offset, float(np.sqrt(weight))) for offset, weight in kernel.taps()]
        r = kernel.radius
        self.padded_shape = (h + 2 * r, w + 2 * r)
        self.ys, self.xs = _extension(r, h, w)
        # the extension of a plane is plane.flat[extension]
        self.extension = self.ys[:, None] * w + self.xs[None, :] if r else None
        if dp is not None:
            ct, st = np.cos(dp.theta), np.sin(dp.theta)
            ap = dp.alpha_plus
            am = dp.alpha_minus
            # the adjoint of diag(ap, am) R(-th) is R(th) diag(ap, am)
            steering = (ct, st, am, ct * ap, st * am, st * ap, ct * am)
            (self.cos, self.sin, self.am, self.cos_ap, self.sin_am,
             self.sin_ap, self.cos_am) = (np.asarray(a, self.dtype) for a in steering)
        self.mask = np.empty((channels, h, w), dtype=bool)
        self._slot = self.padded_shape[0] * self.padded_shape[1]
        self._block = np.empty(0, self.dtype)

    def _reserve(self, slots):
        if self._block.size < slots * self._slot:
            self._block = None  # release the old block before the new one
            self._block = np.empty(slots * self._slot, self.dtype)

    def scratch(self, padded=0, planes=0):
        """Lists of `padded` extension-sized and then `planes` image-sized
        scratch planes, each C-contiguous, from the start of the block."""
        self._reserve(padded + planes)
        slots = self._block[: (padded + planes) * self._slot].reshape(-1, self._slot)
        h, w = self.shape
        return ([slot.reshape(self.padded_shape) for slot in slots[:padded]],
                [slot[: h * w].reshape(h, w) for slot in slots[padded:]])


def _workspace(workspace, kernel, channels, h, w, dp, dtype):
    """workspace, checked against the call's operands, or a new one."""
    if workspace is None:
        return Workspace(kernel, channels, h, w, dp, dtype)
    if (workspace.kernel is not kernel or workspace.dp is not dp
            or workspace.channels != channels or workspace.shape != (h, w)
            or workspace.dtype != dtype):
        raise ValueError("workspace was built for other operands")
    return workspace


def _check_field(field, name, shape, dtype):
    """Raise ValueError, naming the field name, unless field is a
    C-contiguous array of this shape and dtype, as dual_field makes."""
    if (not isinstance(field, np.ndarray) or field.shape != shape or field.dtype != dtype
            or not field.flags.c_contiguous):
        raise ValueError("%s must be a C-contiguous (2, rows, H, W) field, as dual_field "
                         "makes, for this image and kernel, in the samples' dtype" % name)


def dual_field(rows, h, w, dtype=np.float64):
    """A zeroed (2, rows, H, W) field of dtype."""
    return np.zeros((2, rows, h, w), dtype)


def upsample_dual(coarse, h, w):
    """The (2, rows, h, w) nearest-neighbour 2x upsampling of the dual
    field coarse, of shape (2, rows, h // 2, w // 2): every coarse block is
    repeated on a 2 x 2 patch, and an odd last row or column repeats its
    neighbour.  Each block of the result is a block of coarse, so a coarse
    field on the unit balls gives a fine one on them."""
    up = np.repeat(np.repeat(coarse, 2, axis=2), 2, axis=3)
    pad_h, pad_w = h - up.shape[2], w - up.shape[3]
    if pad_h or pad_w:
        up = np.pad(up, ((0, 0), (0, 0), (0, pad_h), (0, pad_w)), mode="edge")
    return up


def _gram(field, out=(None, None, None)):
    """Per-pixel Gram entries (gxx, gxy, gyy) of a (2, rows, ...) field,
    written to the three planes of out when given."""
    a, b = field
    gxx, gxy, gyy = out
    return (
        np.einsum("r...,r...->...", a, a, out=gxx),
        np.einsum("r...,r...->...", a, b, out=gxy),
        np.einsum("r...,r...->...", b, b, out=gyy),
    )


def _extension(r, h, w):
    """Source rows and columns of the reflect extension by r on every side."""
    return reflect_index(np.arange(-r, h + r), h), reflect_index(np.arange(-r, w + r), w)


def _gradient(ws, channel, gx, gy, tmp):
    """Forward-difference gradient of one channel, steered by the
    workspace's fields when it has them, written to the planes gx and gy.
    tmp is a pair of scratch planes, used only when steering."""
    if ws.dp is None:
        grad_forward(channel, out=(gx, gy))
        return
    fx, fy = tmp
    grad_forward(channel, out=(fx, fy))
    # diag(ap, am) R(-th) applied per source pixel
    np.multiply(ws.cos, fx, out=gx)
    np.multiply(ws.sin, fy, out=gy)
    gx += gy
    gx *= ws.dp.alpha_plus
    np.multiply(ws.cos, fy, out=gy)
    fx *= ws.sin
    gy -= fx
    gy *= ws.am


def jacobian_apply(channels, kernel, dp=None, out=None, workspace=None, step=None):
    """Raw forward operator: (C, H, W) samples -> (2, L*C, H, W) field.

    The result is a C-contiguous field in the samples' dtype (float32 stays
    float32, anything else is float64).  out, when given, is such a field
    (an earlier result) and is filled and returned instead of a new one.
    workspace is the solve's Workspace for these operands; without one the
    call builds its own.

    Every row is added into the field through a scratch plane: plain J
    adds into a zeroed out (a new dual_field when out is not given).
    step, valid only with out, makes this the dual ascent step: out is not
    zeroed, and each row is divided by step before it is added, so out
    gains J(channels) / step.  step is a scalar, the solver's one step
    bound.
    """
    if np.ndim(step):
        raise ValueError("step must be a scalar")
    channels = as_float(channels)
    nch, h, w = channels.shape
    ws = _workspace(workspace, kernel, nch, h, w, dp, channels.dtype)
    L = len(ws.taps)
    if out is None:
        if step is not None:
            raise ValueError("step is valid only with out")
        out = dual_field(L * nch, h, w, channels.dtype)
    else:
        _check_field(out, "out", (2, L * nch, h, w), channels.dtype)
        if step is None:
            out[...] = 0.0
    r = kernel.radius
    # planes[2] takes the row being added (when steering it is free once
    # the gradient is taken); with one tap the row is the gradient plane
    # itself, which no other row reads
    pads, planes = ws.scratch(1 if r else 0, 4 if dp is not None else 2 + (r > 0))
    for c in range(nch):
        _gradient(ws, channels[c], planes[0], planes[1], planes[2:])
        for k in range(2):
            ext = planes[k]
            if r:
                ext = np.take(ext, ws.extension, out=pads[0], mode="clip")
            for l, ((dy, dx), sw) in enumerate(ws.taps):
                if sw == 0.0:
                    continue
                # row (c, l) at pixel i is sqrt(K[p_l]) grad[i - p_l]
                row = ext
                if r:
                    row = planes[2]
                    row[...] = ext[r - dy : r - dy + h, r - dx : r - dx + w]
                if sw != 1.0:
                    row *= sw
                if step is not None:
                    row /= step
                out[k, c * L + l] += row
    return out


def jacobian_adjoint_apply(data, kernel, channels, dp=None, out=None, workspace=None):
    """Raw adjoint operator: (2, L*C, H, W) field -> (C, H, W) samples.

    The result is in the field's dtype (float32 stays float32, anything
    else is float64).  out, when given, is a C-contiguous (C, H, W) array
    of that dtype that is filled and returned.  workspace is as for
    jacobian_apply.
    """
    data = as_float(data)
    if data.ndim != 4 or data.shape[0] != 2:
        raise ValueError("the field must be (2, rows, H, W)")
    _, rows, h, w = data.shape
    ws = _workspace(workspace, kernel, channels, h, w, dp, data.dtype)
    L = len(ws.taps)
    if rows != L * channels:
        raise ValueError("field row count does not match kernel and channels")
    if out is None:
        out = np.empty((channels, h, w), data.dtype)
    elif out.shape != (channels, h, w) or out.dtype != data.dtype:
        raise ValueError("out does not match image, channels and dtype")
    r = kernel.radius
    steered = dp is not None
    unit = r == 0 and ws.taps[0][1] == 1.0
    # planes[:2] hold the scattered rows unless the field's own planes
    # serve; the next three (one unsteered) serve steering and divergence
    first = 0 if unit else 2
    pads, planes = ws.scratch(3 if r else 0, first + (3 if steered else 1))
    if r:
        wp = ws.padded_shape[1]
        # A row is copied into an (h, wp) layout whose last 2r columns are
        # zero, so adding it into the padded plane is one contiguous run;
        # the zeros land on samples of the padded plane outside the window.
        run = (h - 1) * wp + w
        grid = pads[2].reshape(-1)[: h * wp].reshape(h, wp)
        grid[:, w:] = 0.0
        term = pads[2].reshape(-1)[:run]
    for c in range(channels):
        if r == 0:
            # one tap: the rows are the channel's gradients, times sw
            ax, ay = data[0, c], data[1, c]
            sw = ws.taps[0][1]
            if sw != 1.0:
                ax = np.multiply(sw, ax, out=planes[0])
                ay = np.multiply(sw, ay, out=planes[1])
        else:
            for k in range(2):
                # scatter each row back to its source pixel i - p_l, then
                # fold the reflect border onto the samples it came from
                acc = pads[k]
                acc[...] = 0.0
                flat = acc.reshape(-1)
                for l, ((dy, dx), sw) in enumerate(ws.taps):
                    if sw == 0.0:
                        continue
                    grid[:, :w] = data[k, c * L + l]
                    if sw != 1.0:
                        term *= sw
                    start = (r - dy) * wp + (r - dx)
                    flat[start : start + run] += term
                for j in (*range(r), *range(h + r, h + 2 * r)):
                    acc[r + ws.ys[j]] += acc[j]
                folded = planes[k]
                folded[...] = acc[r : r + h, r : r + w]
                for j in (*range(r), *range(w + r, w + 2 * r)):
                    folded[:, ws.xs[j]] += acc[r : r + h, j]
            ax, ay = planes[0], planes[1]
        if steered:
            bx, by, tmp = planes[first : first + 3]
            np.multiply(ws.cos_ap, ax, out=bx)
            np.multiply(ws.sin_am, ay, out=tmp)
            bx -= tmp
            np.multiply(ws.sin_ap, ax, out=by)
            np.multiply(ws.cos_am, ay, out=tmp)
            by += tmp
            ax, ay = bx, by
        div_backward(ax, ay, out=out[c], scratch=planes[-1])
        np.negative(out[c], out=out[c])
    return out


# ---------------------------------------------------------------------------
# Eigenvalues and the regularizer


def eig2x2(sxx, sxy, syy, out=None):
    """Closed-form eigenvalues of symmetric 2x2 matrices.

    Returns (lambda_plus, lambda_minus) = mean +- rad, rad = hypot(half,
    sxy), with mean and half the half-sum and half-difference of the
    diagonal, so lambda_plus >= lambda_minus.  Works on scalars or arrays
    of matching shape, in the entries' dtype (float32 stays float32,
    anything else is float64).

    out, when given, is four planes (lp, lm, half, rad) that receive
    lambda_plus, lambda_minus, half and rad; lm may be sxx's plane and rad
    syy's, which are read before those are written.  Without out an array
    call holds at most three planes besides its inputs.
    """
    sxx, sxy, syy = as_float(sxx), as_float(sxy), as_float(syy)
    lp, lm, half, rad = (None,) * 4 if out is None else out
    half = np.subtract(sxx, syy, out=half)
    half *= 0.5
    lp = np.add(sxx, syy, out=lp)
    lp *= 0.5
    rad = np.hypot(half, sxy, out=rad)
    del half  # without out, its plane is freed before lm takes one
    lm = np.subtract(lp, rad, out=lm)
    lp += rad
    return lp, lm


COHERENCE_EPS = 1e-12


def coherence(lambda_plus, lambda_minus):
    """Anisotropy measure (l+ - l-) / l+ in [0, 1]; 0 where l+ <= COHERENCE_EPS."""
    lp = np.asarray(lambda_plus, dtype=np.float64)
    lm = np.asarray(lambda_minus, dtype=np.float64)
    live = lp > COHERENCE_EPS
    c = np.zeros(np.broadcast_shapes(lp.shape, lm.shape))
    np.subtract(lp, lm, out=c, where=live)
    np.divide(c, lp, out=c, where=live)
    return np.clip(c, 0.0, 1.0, out=c)


def regularizer_value(f, k, dp=None, q=1):
    """Sum over pixels of the Schatten-q norm of the (steered) patch Jacobian.

    Singular values come from the per-pixel 2x2 Gram eigenvalues, which is
    exact for matrices with two columns.  The value is computed in float64
    whatever f's dtype.
    """
    if q not in (1, 2):
        raise ValueError("q must be 1 or 2")
    lp, lm = eig2x2(*_gram(jacobian_apply(np.asarray(f.data, np.float64), k, dp)))
    lp = np.maximum(lp, 0.0)
    lm = np.maximum(lm, 0.0)
    if q == 1:
        return float(np.sum(np.sqrt(lp) + np.sqrt(lm)))
    return float(np.sum(np.sqrt(lp + lm)))
