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
component k, one contiguous H x W plane.  Per-pixel Gram sums run over the
rows axis.

Each operator is two steps, one over the whole image and one over a band
of image rows.  J first extends every channel's (steered) gradient planes
by the kernel radius under reflect indexing (one np.take through a flat
index); its tap loop then gathers each row of a band as a slice of those
extensions and adds it into the field: plain J adds into a zeroed field,
and the solver's dual ascent step adds J / step into its dual.  J*'s
scatter adds each row of a band into a padded accumulator at the same
slice, as one contiguous run; its finish folds the border back onto the
samples it mirrors, steers, and takes the divergence.  jacobian_apply and
jacobian_adjoint_apply run the image as one band, unless jacobian_apply
is given an each_band hook: the solver's ascent passes one that projects
and extrapolates each band between its gather and its scatter, while the
band is in cache.  Bands taken from the top give every sum the order of
the one-band case, so the band count changes no bit of any result.  A 1x1
kernel (TV, EADTV) has no extension, its one row is the gradient plane
itself, and J* reads the field's own planes: its scatter does nothing.

The solver's duality gap needs the regularizer of an image, the sum of
the Schatten norms of J's per-pixel blocks, and _schatten_sum takes it
from the blocks' Gram matrices, the kernel-smoothed products of the
extended gradients, without J's field.

A Workspace carries what every call for the same operands shares: the
taps, the extension index, the steering products, the bands and the
scratch planes.  The solver builds one per solve and passes it to every J
and to J*'s two steps, which then allocate nothing; a jacobian_apply call
without one, and every jacobian_adjoint_apply call, builds its own.

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

# The bytes of dual field that one band of the solver's ascent covers at
# most: a band's rows of the two dual fields stay in cache from the gather
# to the scatter.  A field of at most this size is one band.
BAND_BYTES = 2**21


class Workspace:
    """Constants and scratch memory shared by the operator calls of one solve.

    Built once from (kernel, channels, H, W, dp, dtype).  It holds the taps
    as offsets and square-root weights, the flat index of the reflect
    extension by the kernel radius, the steering fields and the products
    that the adjoint needs, a boolean mask per channel, the bands of image
    rows that the solver's ascent works through, and one block of scratch
    planes.  The steering arrays and the block are in dtype, the dtype of
    the samples and fields the workspace serves.

    The block is counted in extension-sized slots.  With a kernel radius
    above 0, J*'s 2C padded accumulators take the first 2C slots and J's 2C
    extended gradient planes the next 2C (component k of channel c at
    2c + k in both); a one-tap kernel has no accumulators, and its gradient
    planes are its extensions.  All other planes are scratch of one phase:
    J's extension step takes its planes past the extensions, J*'s finish
    over them, and a band its row, projection and grid planes past both,
    where they spare the extensions that later bands read and the
    accumulators that earlier bands filled.  A whole-image band has nothing
    to spare: its row and projection start at slot 0 and its grid over the
    spent extensions.  The block is sized for J and J* when the workspace
    is built, and the solver reserves its projection's planes and its
    gap's next, so it never grows under a view that is still in use.
    Arithmetic reads and writes whole C-contiguous planes or
    one-dimensional runs, which numpy iterates without buffers of its own:
    strided windows are only copied.
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
        # a band spans at most BAND_BYTES of the field; the bands are as
        # even as that allows
        row_bytes = 2 * len(self.taps) * channels * w * self.dtype.itemsize
        count = -(-h // max(1, BAND_BYTES // row_bytes))
        self.band_rows = -(-h // count)
        # the (y0, y1) row ranges of the bands, from the top
        self.bands = [(y0, min(y0 + self.band_rows, h)) for y0 in range(0, h, self.band_rows)]
        self.ext_slot = 2 * channels if r else 0
        self.free_slot = self.ext_slot + 2 * channels
        steered = dp is not None
        unit = r == 0 and self.taps[0][1] == 1.0
        # J's extension step takes, past the extensions, the gradient pair
        # (a one-tap kernel writes the extensions themselves) and, when
        # steering, the raw pair; J*'s finish takes, over the extensions,
        # the folded or weighted pair (unless the field's own planes
        # serve) and three steering planes, or one for the divergence
        self.gradient_planes = (2 if r else 0) + (2 if steered else 0)
        self.finish_planes = (0 if unit else 2) + (3 if steered else 1)
        self._slot = self.padded_shape[0] * self.padded_shape[1]
        self._block = np.empty(0, self.dtype)
        self._views = {}
        plane = h * w
        self._reserve(max(self.free_slot * self._slot + self.gradient_planes * plane,
                          self.ext_slot * self._slot + self.finish_planes * plane))

    def _reserve(self, size):
        if self._block.size < size:
            # release the old block, and the views into it, before the new
            # one is allocated
            self._views.clear()
            self._block = None
            self._block = np.empty(size, self.dtype)

    def planes(self, count, shape=None, slot=0):
        """count C-contiguous planes of shape (the image's by default),
        packed in the block from the start of slot on.  The same request
        returns the same list of views, which callers only read."""
        key = (count, shape, slot)
        views = self._views.get(key)
        if views is None:
            rows, cols = self.shape if shape is None else shape
            start, size = slot * self._slot, rows * cols
            self._reserve(start + count * size)
            views = self._views[key] = [
                self._block[start + i * size : start + (i + 1) * size].reshape(rows, cols)
                for i in range(count)]
        return views

    def band_slot(self, rows):
        """The slot where the row and projection scratch of a band of rows
        starts: the block's start for the whole image, else past the
        extensions and accumulators."""
        return 0 if rows == self.shape[0] else self.free_slot


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


def _extend(ws, channels):
    """J's whole-image step: the (steered) gradient of every channel of the
    (C, H, W) samples, extended by the kernel radius under reflect
    indexing, in the workspace's extension planes, which it returns."""
    ext = ws.planes(2 * ws.channels, ws.padded_shape, ws.ext_slot)
    planes = ws.planes(ws.gradient_planes, slot=ws.free_slot)
    r = ws.kernel.radius
    for c in range(ws.channels):
        if r:
            _gradient(ws, channels[c], planes[0], planes[1], planes[2:])
            for k in range(2):
                np.take(planes[k], ws.extension, out=ext[2 * c + k], mode="clip")
        else:
            _gradient(ws, channels[c], ext[2 * c], ext[2 * c + 1], planes)
    return ext


def _gather(ws, ext, out, y0, y1, step):
    """J's tap loop over rows y0:y1: adds every row of the patch Jacobian,
    gathered from the extensions ext, into those rows of the field out,
    each divided by step unless it is None.  A one-tap kernel's row is its
    gradient plane itself, which no other row reads: it is scaled in
    place."""
    r = ws.kernel.radius
    w = ws.shape[1]
    L = len(ws.taps)
    if r:
        row = ws.planes(1, (y1 - y0, w), ws.band_slot(y1 - y0))[0]
    for c in range(ws.channels):
        for k in range(2):
            src = ext[2 * c + k]
            for l, ((dy, dx), sw) in enumerate(ws.taps):
                if sw == 0.0:
                    continue
                # row (c, l) at pixel i is sqrt(K[p_l]) grad[i - p_l]
                if r:
                    row[...] = src[r - dy + y0 : r - dy + y1, r - dx : r - dx + w]
                else:
                    row = src[y0:y1]
                if sw != 1.0:
                    row *= sw
                if step is not None:
                    row /= step
                out[k, c * L + l, y0:y1] += row


def _scatter(ws, data, y0, y1):
    """J*'s per-band step: adds rows y0:y1 of every row plane of the field
    data into the workspace's padded accumulators, each sample at its
    source pixel i - p_l.  The band that starts at row 0 zeroes them
    first, and the bands must come from the top: then every accumulator
    sample takes its taps in tap order, whatever the bands.  A one-tap
    kernel has nothing to scatter: _finish reads the field's own planes."""
    r = ws.kernel.radius
    if not r:
        return
    h, w = ws.shape
    L = len(ws.taps)
    acc = ws.planes(2 * ws.channels, ws.padded_shape)
    if y0 == 0:
        for plane in acc:
            plane[...] = 0.0
    rows = y1 - y0
    wp = ws.padded_shape[1]
    # A row is copied into a (rows, wp) grid whose last 2r columns are
    # zero, so adding it into the padded plane is one contiguous run; the
    # zeros land on samples of the padded plane outside the window.
    grid = ws.planes(1, (rows, wp), ws.ext_slot if rows == h else ws.free_slot)[0]
    grid[:, w:] = 0.0
    run = (rows - 1) * wp + w
    term = grid.reshape(-1)[:run]
    for c in range(ws.channels):
        for k in range(2):
            flat = acc[2 * c + k].reshape(-1)
            for l, ((dy, dx), sw) in enumerate(ws.taps):
                if sw == 0.0:
                    continue
                grid[:, :w] = data[k, c * L + l, y0:y1]
                if sw != 1.0:
                    term *= sw
                start = (r - dy + y0) * wp + (r - dx)
                flat[start : start + run] += term


def _finish(ws, data, out=None):
    """J*'s whole-image step, once every band of the field data is
    scattered: folds the reflect border of each accumulator onto the
    samples it mirrors, steers, and writes the negative divergence to out
    (a new (C, H, W) array when not given), which it returns.  A one-tap
    kernel reads data's own planes, times the tap's weight."""
    h, w = ws.shape
    r = ws.kernel.radius
    if out is None:
        out = np.empty((ws.channels, h, w), ws.dtype)
    planes = ws.planes(ws.finish_planes, slot=ws.ext_slot)
    first = ws.finish_planes - (3 if ws.dp is not None else 1)
    if r:
        acc = ws.planes(2 * ws.channels, ws.padded_shape)
    for c in range(ws.channels):
        if r:
            for k in range(2):
                a = acc[2 * c + k]
                for j in (*range(r), *range(h + r, h + 2 * r)):
                    a[r + ws.ys[j]] += a[j]
                folded = planes[k]
                folded[...] = a[r : r + h, r : r + w]
                for j in (*range(r), *range(w + r, w + 2 * r)):
                    folded[:, ws.xs[j]] += a[r : r + h, j]
            ax, ay = planes[0], planes[1]
        else:
            # one tap: the rows are the channel's gradients, times sw
            ax, ay = data[0, c], data[1, c]
            sw = ws.taps[0][1]
            if sw != 1.0:
                ax = np.multiply(sw, ax, out=planes[0])
                ay = np.multiply(sw, ay, out=planes[1])
        if ws.dp is not None:
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


def jacobian_apply(channels, kernel, dp=None, out=None, workspace=None, step=None,
                   each_band=None):
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

    each_band, valid only with step, splits the rows into the workspace's
    bands: each_band(y0, y1) is called as soon as rows y0:y1 of every row
    plane of out are complete, band by band from the top, so that the
    caller can work on a band while it is in cache.  Without it the image
    is one band.
    """
    if np.ndim(step):
        raise ValueError("step must be a scalar")
    if each_band is not None and step is None:
        raise ValueError("each_band is valid only with step")
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
    ext = _extend(ws, channels)
    for y0, y1 in ws.bands if each_band is not None else [(0, h)]:
        _gather(ws, ext, out, y0, y1, step)
        if each_band is not None:
            each_band(y0, y1)
    return out


def jacobian_adjoint_apply(data, kernel, channels, dp=None):
    """Raw adjoint operator: (2, L*C, H, W) field -> new (C, H, W) samples.

    The result is in the field's dtype (float32 stays float32, anything
    else is float64).  solve does not call it: it runs J*'s two steps,
    _scatter and _finish, through its own Workspace.
    """
    data = as_float(data)
    if data.ndim != 4 or data.shape[0] != 2:
        raise ValueError("the field must be (2, rows, H, W)")
    _, rows, h, w = data.shape
    ws = Workspace(kernel, channels, h, w, dp, data.dtype)
    if rows != len(ws.taps) * channels:
        raise ValueError("field row count does not match kernel and channels")
    _scatter(ws, data, 0, h)
    return _finish(ws, data)


# ---------------------------------------------------------------------------
# Eigenvalues and the regularizer


def eig2x2(sxx, sxy, syy, out=None):
    """Closed-form eigenvalues of symmetric 2x2 matrices.

    Returns (lambda_plus, lambda_minus) = mean +- rad, rad = sqrt(half^2 +
    sxy^2), with mean and half the half-sum and half-difference of the
    diagonal, so lambda_plus >= lambda_minus.  Works on scalars (as 0-d
    arrays) or arrays of matching shape, in the entries' dtype (float32
    stays float32, anything else is float64).  The squares overflow for
    |half| or |sxy| above about 1e19 in float32 (1e154 in float64), and
    lose precision to subnormals below about 1e-19 (1e-154).

    out, when given, is four planes (lp, lm, half, rad) that receive
    lambda_plus, lambda_minus, half and rad; lm may be sxx's plane and rad
    syy's, which are read before those are written.  Without out a call
    holds three planes besides its inputs.
    """
    sxx, sxy, syy = as_float(sxx), as_float(sxy), as_float(syy)
    if out is None:
        shape = np.broadcast_shapes(sxx.shape, sxy.shape, syy.shape)
        lp, half, rad = (np.empty(shape, np.result_type(sxx, sxy, syy)) for _ in range(3))
        # lm takes half's plane once half is spent
        lm = half
    else:
        lp, lm, half, rad = out
    np.subtract(sxx, syy, out=half)
    half *= 0.5
    np.add(sxx, syy, out=lp)
    lp *= 0.5
    # rad in its own plane, and sxy^2 in lm's, whose value (or sxx's) is spent
    np.multiply(half, half, out=rad)
    rad += np.multiply(sxy, sxy, out=lm)
    np.sqrt(rad, out=rad)
    np.subtract(lp, rad, out=lm)
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


def _norm_planes(ws):
    """The scratch planes of _schatten_sum: two padded planes, over the
    spent accumulators (past the extensions for a one-tap kernel), and for
    a kernel radius above 0 three (H, W + 2r) grids past the extensions."""
    r = ws.kernel.radius
    pair = ws.planes(2, ws.padded_shape, 0 if r else ws.free_slot)
    if not r:
        return pair, None
    return pair, ws.planes(3, (ws.shape[0], ws.padded_shape[1]), ws.free_slot)


def _schatten_sum(ws, channels, q):
    """Sum over pixels of the Schatten-q norm of (J channels)[i], in
    float64, for the (C, H, W) samples channels, without J's field.

    The Gram of J at pixel i is the structure tensor of the (steered)
    gradients smoothed by the kernel: sum_l K[p_l] (G^T G)[i - p_l], with
    G the (C, 2) stack of the channels' gradients.  The gradient products,
    summed over the channels, go over the extension planes (and one spare
    plane for xy); each kernel weight scales them once, and every tap of
    that weight adds them as one contiguous run into an (H, W + 2r) grid,
    the trick of J*'s scatter, whose first W columns hold the pixels.  A
    (rows, 2) block has nuclear norm sqrt(tr + 2 sqrt(det)) of its Gram
    and Frobenius norm sqrt(tr); a single row (one tap, one channel) has
    both equal to its norm.  The per-pixel values are in the workspace's
    dtype, summed in float64.  Every plane of the workspace is scratch
    here, the accumulators and the extensions included: the caller
    scatters again before the next J*."""
    h, w = ws.shape
    r = ws.kernel.radius
    nuclear = q == 1 and len(ws.taps) * ws.channels > 1
    ext = _extend(ws, channels)
    (pxy, spare), grids = _norm_planes(ws)
    pxx, pyy = ext[0], ext[1]
    for c in range(ws.channels):
        gx, gy = ext[2 * c], ext[2 * c + 1]
        if nuclear:
            xy = np.multiply(gx, gy, out=pxy if c == 0 else spare)
            if c:
                pxy += xy
        gx *= gx
        gy *= gy
        if c:
            pxx += gx
            pyy += gy
    if nuclear:
        products = (pxx, pxy, pyy)
    else:
        products = (np.add(pxx, pyy, out=pxx),)
    wp = ws.padded_shape[1]
    # the samples of the grids that hold pixels, as one run
    run = (h - 1) * wp + w
    if r:
        # the taps of each nonzero weight
        weights = {}
        for offset, sw in ws.taps:
            if sw != 0.0:
                weights.setdefault(sw, []).append(offset)
        for prod, grid in zip(products, grids):
            flat = grid.reshape(-1)[:run]
            first = True
            for sw, offsets in weights.items():
                src = prod if sw == 1.0 else np.multiply(prod, sw * sw, out=spare)
                src = src.reshape(-1)
                for dy, dx in offsets:
                    start = (r - dy) * wp + (r - dx)
                    if first:
                        flat[...] = src[start : start + run]
                        first = False
                    else:
                        flat += src[start : start + run]
    else:
        # the one tap's weight scales every product
        sw = ws.taps[0][1]
        for prod in products:
            if sw != 1.0:
                prod *= sw * sw
        grids = pxx, pxy, pyy
    gxx, gxy, gyy = (grid.reshape(-1)[:run] for grid in grids)
    if nuclear:
        trace = np.add(gxx, gyy, out=spare.reshape(-1)[:run])
        gxx *= gyy
        gxy *= gxy
        gxx -= gxy
        np.maximum(gxx, 0.0, out=gxx)
        np.sqrt(gxx, out=gxx)
        gxx *= 2.0
        gxx += trace
    np.sqrt(gxx, out=gxx)
    # the run's samples past each row's W pixels are not pixels
    grids[0][:, w:] = 0.0
    return float(np.sum(gxx, dtype=np.float64))
