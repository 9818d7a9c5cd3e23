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
by the kernel radius under reflect indexing (a copy of the interior, then
of the mirrored border rows and columns); its tap loop then gathers each
row of a band as a slice of those extensions and adds it into the field.
J has two modes: plain J adds into a new zeroed field, and the solver's
dual ascent step adds J / step into its dual, calling an each_band hook
on every band as soon as the band is complete: the solver's hook
projects and extrapolates the band and scatters it for the next J*,
while the band is in cache.  J*'s scatter adds each row of a band into a
padded accumulator at the same slice, as one contiguous run; its finish
folds the border back onto the samples it mirrors, steers, and takes the
divergence.  Both modes of J, and J*, run the workspace's bands.  Bands
taken from the top give every sum the order of the one-band case, so the
band count changes no bit of any result.  A 1x1 kernel (TV, EADTV) has
no extension, its one row is the gradient plane itself, and J* reads the
field's own planes: its scatter does nothing.

The solver's duality gap needs the regularizer of an image, the sum of
the Schatten norms of J's per-pixel blocks, and _schatten_sum takes it
from the blocks' Gram matrices, the kernel-smoothed products of the
extended gradients, without J's field.

A Workspace carries what every call for the same operands shares: the
taps, the steering products, the bands and the scratch planes.  The
solver builds one per solve and passes it to every ascent step and to
J*'s two steps, which then allocate nothing; plain J and
jacobian_adjoint_apply build their own.

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

    Built once from (kernel, channels, H, W, dp, dtype), and from the two
    facts only a solve knows: the planes its projection takes per band
    (ball_planes) and whether it takes duality gaps (gap).  It holds the
    taps as offsets and square-root weights, the source rows and columns
    of the reflect extension by the kernel radius, the steering fields and
    the products that the adjoint needs, a boolean mask per channel, the
    bands of image rows that J works through, and the named scratch planes,
    views of one block laid out once by the table in __init__.  The
    steering arrays and the block are in dtype, the dtype of the samples
    and fields the workspace serves.
    """

    def __init__(self, kernel, channels, h, w, dp=None, dtype=np.float64, *,
                 ball_planes=0, gap=False):
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
        # The layout, in slots of one padded plane each.  With a kernel
        # radius above 0, J*'s 2C padded accumulators take the first 2C
        # slots and J's 2C extended gradient planes the next 2C (component
        # k of channel c at 2c + k in both); a one-tap kernel has no
        # accumulators, and its gradient planes are its extensions.  Every
        # other plane is scratch of one phase, laid over what that phase no
        # longer needs:
        # - J's extension step takes, past the extensions, the gradient
        #   pair (a one-tap kernel writes the extensions themselves) and,
        #   when steering, the raw pair;
        # - J*'s finish takes, over the extensions, the folded pair (a
        #   one-tap kernel's field planes serve as it) and three steering
        #   planes, or one for the divergence;
        # - a band takes its gather row, then its projection's planes, and
        #   its scatter grid (a copy of a row whose last 2r columns are
        #   zero) past both, sparing the extensions that later bands read
        #   and the accumulators that earlier bands filled.  A whole-image
        #   band has nothing to spare: its row and projection start at
        #   slot 0 and its grid over the spent extensions;
        # - the gap takes a padded pair over the spent accumulators (past
        #   the extensions for a one-tap kernel) and, for a radius above
        #   0, three (H, W + 2r) grids past the extensions.
        # A last band shorter than band_rows takes the leading rows of its
        # planes.  Arithmetic reads and writes whole C-contiguous planes or
        # one-dimensional runs, which numpy iterates without buffers of its
        # own: strided windows are only copied.
        c2 = 2 * channels
        ext, free = (c2, 2 * c2) if r else (0, c2)
        steered = dp is not None
        whole = self.band_rows == h
        table = {
            "acc": (0, c2 if r else 0, self.padded_shape),
            "ext": (ext, c2, self.padded_shape),
            "gradient_scratch": (free, (2 if r else 0) + (2 if steered else 0), (h, w)),
            "finish_scratch": (ext, (2 if r else 0) + (3 if steered else 1), (h, w)),
            "band_planes": (0 if whole else free, max(ball_planes, 1 if r else 0),
                            (self.band_rows, w)),
            "scatter_grid": (ext if whole else free, 1 if r else 0, (self.band_rows, w + 2 * r)),
            "gap_pair": (0 if r else free, 2 if gap else 0, self.padded_shape),
            "gap_grids": (free, 3 if gap and r else 0, (h, w + 2 * r)),
        }
        slot = self.padded_shape[0] * self.padded_shape[1]
        self._block = np.empty(max(at * slot + count * rows * cols
                                   for at, count, (rows, cols) in table.values()), self.dtype)
        for name, (at, count, (rows, cols)) in table.items():
            start, size = at * slot, rows * cols
            setattr(self, name, [self._block[start + i * size : start + (i + 1) * size]
                                 .reshape(rows, cols) for i in range(count)])


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
    indexing, in the workspace's extension planes, which it returns.  An
    extension copies the interior, then mirrors the border rows through
    ws.ys and the border columns through ws.xs: the transpose of _finish's
    fold."""
    ext = ws.ext
    planes = ws.gradient_scratch
    r = ws.kernel.radius
    h, w = ws.shape
    for c in range(ws.channels):
        if not r:
            _gradient(ws, channels[c], ext[2 * c], ext[2 * c + 1], planes)
            continue
        _gradient(ws, channels[c], planes[0], planes[1], planes[2:])
        for k in range(2):
            e = ext[2 * c + k]
            e[r : r + h, r : r + w] = planes[k]
            for j in (*range(r), *range(h + r, h + 2 * r)):
                e[j, r : r + w] = e[r + ws.ys[j], r : r + w]
            for j in (*range(r), *range(w + r, w + 2 * r)):
                e[:, j] = e[:, r + ws.xs[j]]
    return ext


def _gather(ws, ext, out, y0, y1, step):
    """J's tap loop over rows y0:y1: adds every row of the patch Jacobian,
    gathered from the extensions ext, into those rows of the field out,
    each divided by step unless it is None.  A one-tap kernel's row is its
    gradient plane itself, which no other row reads: it is divided in
    place."""
    r = ws.kernel.radius
    w = ws.shape[1]
    L = len(ws.taps)
    if r:
        row = ws.band_planes[0][: y1 - y0]
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
    w = ws.shape[1]
    L = len(ws.taps)
    if y0 == 0:
        for plane in ws.acc:
            plane[...] = 0.0
    rows = y1 - y0
    wp = ws.padded_shape[1]
    # A row is copied into a (rows, wp) grid whose last 2r columns are
    # zero, so adding it into the padded plane is one contiguous run; the
    # zeros land on samples of the padded plane outside the window.
    grid = ws.scatter_grid[0][:rows]
    grid[:, w:] = 0.0
    run = (rows - 1) * wp + w
    term = grid.reshape(-1)[:run]
    for c in range(ws.channels):
        for k in range(2):
            flat = ws.acc[2 * c + k].reshape(-1)
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
    kernel, of weight 1, reads data's own planes."""
    h, w = ws.shape
    r = ws.kernel.radius
    if out is None:
        out = np.empty((ws.channels, h, w), ws.dtype)
    planes = ws.finish_scratch
    for c in range(ws.channels):
        if r:
            for k in range(2):
                a = ws.acc[2 * c + k]
                for j in (*range(r), *range(h + r, h + 2 * r)):
                    a[r + ws.ys[j]] += a[j]
                folded = planes[k]
                folded[...] = a[r : r + h, r : r + w]
                for j in (*range(r), *range(w + r, w + 2 * r)):
                    folded[:, ws.xs[j]] += a[r : r + h, j]
            ax, ay = planes[0], planes[1]
        else:
            # one tap: the rows are the channel's gradients
            ax, ay = data[0, c], data[1, c]
        if ws.dp is not None:
            bx, by, tmp = planes[-3:]
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


def jacobian_apply(channels, kernel, dp=None, *, out=None, workspace=None, step=None,
                   each_band=None):
    """Raw forward operator: (C, H, W) samples -> (2, L*C, H, W) field.

    J has two modes.  Plain J, jacobian_apply(channels, kernel, dp),
    returns a new C-contiguous field in the samples' dtype (float32 stays
    float32, anything else is float64), through a throwaway Workspace.

    With out, workspace and step, given together, it is the solver's dual
    ascent step: workspace is the solve's Workspace, built for these
    channels, kernel, dp and dtype, and out a field of its shape and dtype
    (from dual_field); each row is divided by the scalar step and added
    into out, which gains J(channels) / step and is returned.  each_band,
    when given, is called as each_band(y0, y1) as soon as rows y0:y1 of
    every row plane of out are complete, band by band from the top, so
    that the caller can work on a band while it is in cache.

    Both modes run the workspace's bands, whose count changes no bit of
    the result.
    """
    if (out is None) != (workspace is None) or (out is None) != (step is None):
        raise ValueError("out, workspace and step must be given together: the ascent step")
    channels = as_float(channels)
    if workspace is None:
        nch, h, w = channels.shape
        workspace = Workspace(kernel, nch, h, w, dp, channels.dtype)
        out = dual_field(len(workspace.taps) * nch, h, w, channels.dtype)
    ext = _extend(workspace, channels)
    for y0, y1 in workspace.bands:
        _gather(workspace, ext, out, y0, y1, step)
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
    for y0, y1 in ws.bands:
        _scatter(ws, data, y0, y1)
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
    pxy, spare = ws.gap_pair
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
    # one tap of weight 1: the products are the grids
    grids = ws.gap_grids if r else (pxx, pxy, pyy)
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
