"""Dual fast-gradient-projection solver for steered structure tensor
denoising.

The primal problem

    argmin_{f in C}  1/2 ||g - f||^2 + tau * sum_i ||(J~ f)[i]||_{S_q}

is solved through its dual: maximize d(Psi) over the product of unit
Schatten-p balls (1/p + 1/q = 1), where

    d(Psi) = 1/2 ||w - P_C(w)||^2 + 1/2 (||g||^2 - ||w||^2),
    w = g - tau * J~* Psi,

by projected gradient ascent with FISTA momentum.  The ascent step is
scaled by 1/L with one scalar L = 8 tau (a+)^2, or 8 tau unsteered; this
single-tau form pairs with an ascent step that applies J~ z without an
extra tau factor, so the effective step respects the tau^2 curvature bound
of the dual.  L rests on ||J~||^2 <= 8 (a+)^2: the forward-difference
gradient has squared norm below 8 (Chambolle, JMIV 2004; Beck and
Teboulle, IEEE TIP 2009), the steering scales a gradient by at most a+
(a- lies in [1, a+]), and the kernel weights sum to 1.  The reflect
extension can repeat a border gradient, so the tests check the exact norm
on small shapes for kernel supports 1 to 7, where it peaks at 7.84 (a+)^2.
The paper's per-pixel 8 sqrt(2) tau ((a+)^2 + (a-[i])^2) is looser than L
by sqrt(2) to 2 sqrt(2) at every pixel, and FISTA's gap falls as L / k^2.

The ascent starts from the zero field, or from a dual the caller passes
(solve's dual=), into which the last accepted dual is also written back:
any point of the balls is a valid start, so a dual from a related problem
(a coarser grid, a nearby tau) can warm-start the solve.

Two rules stop the loop.  The last iteration is a check, and with a
rel_tol so is every GAP_EVERY-th: the ascent scatters the accepted dual psi
in place of the extrapolated point, and the solve takes z = P_C(g - tau
J~* psi), the image it returns if it stops there, and with a rel_tol the
relative duality gap (P(z) - D(psi)) / P(z).  The last check always stops
the loop (stop_reason "max_iters"); an earlier one stops it when the gap
is at most rel_tol (stop_reason "gap"), else scatters the extrapolated
point and goes on.  The gap needs no dual field and no J~ call: at z =
P_C(w), P(z) - D(psi) = tau R(z) - <z, tau J~* psi> (Fenchel-Young), and
R(z) sums the Schatten norms of the per-pixel Gram of J~ z, the
kernel-smoothed structure tensor of z's steered gradient
(tensor._schatten_sum), from a few planes of the solve's Workspace.  Its
sums are float64, its per-pixel values in the solve's dtype, so a float32
gap is an estimate, not a proven bound.  A solve with a rel_tol reports
the gap of the image it returns, whatever stopped it.

A third rule serves sweeps that keep only the best of many solves (solve's
prune=(clean, radius)).  The primal is 1-strongly convex on the box, so at
a check 1/2 ||z - z*||^2 <= P(z) - P(z*) <= G, the absolute gap P(z) -
D(psi), and the exact minimizer z* lies at least ||z - clean|| - sqrt(2 G)
from clean (Beck and Teboulle, IEEE TIP 2009; Chambolle and Pock, JMIV
2011).  A check that the gap has not stopped, the last one excepted, stops
the loop (stop_reason "pruned") when that exceeds radius: z* then lies
strictly farther than radius from clean.  In float32 G is an estimate, as
the relative gap is; its 4-ulp allowance errs toward a larger G, so
toward not pruning.

One helper computes z, for every iteration and every check, and one clip
serves it and the box projection.  The ball projection takes its Gram
eigenvalues from tensor.eig2x2, the helper analyze uses.

A solve follows the dtype of its input image: a float32 g is solved in
float32 throughout (dual fields, iterates, scratch planes and result), and
a float64 g in float64.  Both run the same code.
"""

import math
import numbers
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .diffops import Kernel, delta_kernel, gaussian_kernel
from .image import Image
from .tensor import (
    Workspace,
    _finish,
    _gram,
    _scatter,
    _schatten_sum,
    dual_field,
    eig2x2,
    # unused: perfbench/spans.py wraps this name, and its test looks it up
    jacobian_adjoint_apply,
    jacobian_apply,
)

__all__ = [
    "SolverConfig",
    "SolveResult",
    "project_box",
    "solve",
    "tv_denoise",
]


# The Gaussian patch window of SolverConfig and of the CLI's kernel flags.
KERNEL_SIGMA = 0.5
KERNEL_SUPPORT = 3

# A solve with a rel_tol takes its duality gap every GAP_EVERY iterations.
GAP_EVERY = 10


def _default_kernel():
    return gaussian_kernel(KERNEL_SIGMA, KERNEL_SUPPORT)


@dataclass
class SolverConfig:
    """Solver settings; the defaults match the reference configuration.
    rel_tol is the relative duality gap (P - D) / P that stops a solve;
    None runs max_iters iterations and takes no gap."""

    tau: float
    q: int = 1
    max_iters: int = 100
    rel_tol: float = None
    constraint: tuple = (0.0, 1.0)
    kernel: Kernel = dataclass_field(default_factory=_default_kernel)

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError("tau must be positive and finite")
        if self.q not in (1, 2):
            raise ValueError("q must be 1 or 2")
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1:
            raise ValueError("max_iters must be an integer >= 1, got %r" % (self.max_iters,))
        if self.rel_tol is not None and not (math.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise ValueError("rel_tol must be None or positive and finite, got %r"
                             % self.rel_tol)
        _check_box(self.constraint)

    @property
    def dual_p(self):
        return math.inf if self.q == 1 else 2


@dataclass
class SolveResult:
    """The restored image, the iterations run, and why the loop stopped:
    "gap" when the relative duality gap fell to rel_tol, "max_iters" when
    the cap ran out first, "pruned" when a check of a solve with a prune
    showed that the exact minimizer lies farther than the prune's radius
    from its clean image (the image is then that check's, not a solution
    to rel_tol).  gap is the relative duality gap of the returned image,
    None when the solve had no rel_tol."""

    image: Image
    iterations: int
    stop_reason: str = "max_iters"
    gap: float = None


def _check_box(constraint):
    """Raise ValueError unless constraint is None or a box lo < hi, which a
    NaN bound fails."""
    if constraint is not None and not constraint[0] < constraint[1]:
        raise ValueError("constraint bounds must satisfy lo < hi, got %r" % (constraint,))


def _clip(data, constraint, out=None):
    """data clamped into the box constraint, written to out when given;
    data itself when unconstrained."""
    if constraint is None:
        return data
    return np.clip(data, constraint[0], constraint[1], out=out)


def project_box(img, constraint):
    """Clamp every sample into the box; identity when unconstrained.  The
    result never shares img's samples.  A box SolverConfig would refuse
    (lo >= hi, or a NaN bound) raises ValueError."""
    _check_box(constraint)
    data = img.data.copy()
    return Image(_clip(data, constraint, out=data))


def _ball_planes(p, rows):
    """The scratch planes _project_ball takes: one to rescale by a norm,
    eight for the q = 1 map of blocks with more than one row."""
    # A single row has one singular value, its norm: both balls agree.
    return 1 if p == 2 or rows == 1 else 8


def _project_ball(data, p, workspace=None):
    """Project each (rows, 2) block of the (2, rows, ...) field data onto
    the unit Schatten-p ball, in place; returns data.  The per-pixel
    planes come from workspace when given (the solve's Workspace, for a
    (2, rows, band, W) band of its field, as its band scratch), else from
    a throwaway set.  A single (rows, 2) matrix M is projected as
    _project_ball(M.T, p).T."""
    if p != 2 and not math.isinf(p):
        raise ValueError("p must be 2 or inf")
    rows = data.shape[1]
    count = _ball_planes(p, rows)
    rescale = count == 1
    if workspace is None:
        shape = data.shape[2:]
        block = np.empty((count,) + shape, data.dtype)
        planes = [block[i, ...] for i in range(count)]
        mask = np.empty(shape, dtype=bool)
    else:
        band = data.shape[2]
        planes = [plane[:band] for plane in workspace.band_planes]
        mask = workspace.mask[0, :band]
    # row r of component k is data[k, r, ...], a view even when 0-d
    if rescale:
        n = planes[0]
        np.einsum("kr...,kr...->...", data, data, out=n)
        np.sqrt(n, out=n)
        np.maximum(n, 1.0, out=n)
        for k in range(2):
            for r in range(rows):
                np.divide(data[k, r, ...], n, out=data[k, r, ...])
        return data
    # M -> M F with F = V diag(f+, f-) V^T, f = 1/max(1, sigma), built from
    # the Gram matrix G = M^T M without its eigenvectors:
    #     F = f- I + c (G - l- I),  c = (f+ - f-) / (l+ - l-).
    # Planes are reused once their value is spent; the names say what each
    # holds at that point.
    gxx, gxy, gyy, half, sp, fp, fm, quot = planes
    _gram(data, out=(gxx, gxy, gyy))
    # l+ into sp, l- over gxx and the radius sqrt(half^2 + gxy^2) over gyy
    sp, sm = eig2x2(gxx, gxy, gyy, out=(sp, gxx, half, gyy))
    rad = gyy
    np.sqrt(sp, out=sp)
    np.maximum(sm, 0.0, out=sm)
    np.sqrt(sm, out=sm)
    np.maximum(sp, 1.0, out=fp)
    np.divide(1.0, fp, out=fp)
    np.maximum(sm, 1.0, out=fm)
    np.divide(1.0, fm, out=fm)
    # Where sigma- > 1 the quotient is -1/(s+ s- (s+ + s-)): free of
    # cancellation and finite at l+ = l-, where F = f+ I.  Elsewhere f- = 1,
    # and l+ > l- (rad > 0) wherever f+ < 1; where f+ = 1 as well the
    # quotient is 0 and the guarded denominator is never used.
    np.multiply(fp, fm, out=quot)
    np.negative(quot, out=quot)
    den = np.add(sp, sm, out=sp)
    np.maximum(den, 2.0, out=den)
    np.divide(quot, den, out=quot)
    c = np.subtract(fp, 1.0, out=fp)
    den = np.multiply(2.0, rad, out=den)
    np.greater(rad, 0.0, out=mask)
    np.logical_not(mask, out=mask)
    np.copyto(den, 1.0, where=mask)
    np.divide(c, den, out=c)
    np.greater(sm, 1.0, out=mask)
    np.copyto(c, quot, where=mask)
    f00 = np.add(half, rad, out=den)
    f00 *= c
    f00 += fm
    f11 = np.subtract(rad, half, out=half)
    f11 *= c
    f11 += fm
    f01 = np.multiply(gxy, c, out=gxy)
    bf, af = sm, rad
    for r in range(rows):
        ar, br = data[0, r, ...], data[1, r, ...]
        np.multiply(br, f01, out=bf)
        np.multiply(ar, f01, out=af)
        ar *= f00
        ar += bf
        br *= f11
        br += af
    return data


def _primal_step(psi, g, cfg, workspace, out, scaled=None):
    """z = P_C(g - tau J* psi) for the (2, rows, H, W) field psi, whose
    bands the workspace has scattered, written to out, a (C, H, W) array
    of g's dtype, which it returns.  scaled, when given, is another such
    array, which keeps tau J* psi.  A non-finite g - tau J* psi raises
    FloatingPointError: it is tested before the clip, which would map an
    infinite sample into the box."""
    s = _finish(workspace, psi, out if scaled is None else scaled)
    s *= cfg.tau
    z = np.subtract(g.data, s, out=out)
    if not np.isfinite(z, out=workspace.mask).all():
        raise FloatingPointError("non-finite values in solver iterate")
    return _clip(z, cfg.constraint, out=z)


def _duality_gap(psi, g, cfg, workspace, z, scaled):
    """The duality gap G = P(z) - D(psi) and the relative gap G / P(z) at
    the dual psi, whose bands the workspace has scattered, and z = P_C(g -
    tau J* psi), which it writes to z as _primal_step does; scaled is a
    scratch array of z's shape and dtype, spent on return.  At this z, G =
    tau R(z) - <z, tau J* psi>, which spares D the cancellation of ||g||^2
    - ||w||^2; R comes from the Gram of J z (tensor._schatten_sum), which
    leaves every scratch plane of the workspace spent.  The relative gap
    is 0 where P(z) = 0: z = g is then optimal."""
    _primal_step(psi, g, cfg, workspace, out=z, scaled=scaled)
    dot = float(np.einsum("cij,cij->", z, scaled, dtype=np.float64))
    fit = np.subtract(g.data, z, out=scaled)
    penalty = cfg.tau * _schatten_sum(workspace, z, cfg.q)
    primal = 0.5 * float(np.einsum("cij,cij->", fit, fit, dtype=np.float64)) + penalty
    # a 4-ulp allowance for the round-off of the per-pixel values, which
    # are in z's dtype.  It bounds no worst case (a near rank-1 block's
    # sqrt(det) can lose sqrt(eps) of its norm, and the Gram's and J*'s
    # sums a few ulp of their terms), so in float32 the gap is an estimate
    slack = 4.0 * float(np.finfo(z.dtype).eps) * (penalty + abs(dot))
    gap = max(penalty - dot + slack, 0.0)
    return gap, gap / primal if primal > 0 else 0.0


def _check_prune(prune, g, cfg):
    """Raise ValueError unless prune is a (clean, radius) pair that a solve
    of g under cfg can test: cfg has a rel_tol, whose checks the test runs
    at, clean is an image of g's shape and radius is finite and >= 0."""
    clean, radius = prune
    if cfg.rel_tol is None:
        raise ValueError("prune needs a cfg.rel_tol: the prune test runs at its gap checks")
    if clean.shape != g.shape:
        raise ValueError("the prune image's shape %r differs from the image's %r"
                         % (clean.shape, g.shape))
    # written so that NaN fails it
    if not 0.0 <= radius < math.inf:
        raise ValueError("the prune radius must be finite and >= 0, got %r" % (radius,))


def _beyond(z, prune, gap, scaled):
    """True when every image within sqrt(2 gap) of z, the exact minimizer
    among them, lies farther than radius from clean, for prune = (clean,
    radius): ||z - clean|| - sqrt(2 gap) > radius.  z - clean is written to
    scaled, a spent scratch array of z's shape and dtype, and its square
    summed in float64."""
    clean, radius = prune
    diff = np.subtract(z, clean.data, out=scaled)
    dist = math.sqrt(float(np.einsum("cij,cij->", diff, diff, dtype=np.float64)))
    return dist - math.sqrt(2.0 * gap) > radius


def _ascent(z, psi, prev, momentum, p, workspace, lip, scatter_accepted=False):
    """The ascent step from the extrapolated point psi, band by band:
    psi += J z / L, and each band goes onto the balls as soon as it has
    its step, so that psi becomes the accepted point.  With prev, the last
    accepted point, each band then writes the next extrapolated point
    psi + momentum (psi - prev) over prev and scatters it for the next
    J*; with scatter_accepted (a check, the last iteration among them)
    the band scatters psi instead.  Without prev (the last iteration) no
    extrapolated point is written.  Each band of psi and prev is read from
    memory once.  Returns psi."""

    def accept(y0, y1):
        band = psi[:, :, y0:y1]
        _project_ball(band, p, workspace)
        if prev is not None:
            # numpy buffers a ufunc over a strided band: one plane at a
            # time, or the whole band when it is one run
            shape = (1, -1) if band.flags.c_contiguous else (-1, y1 - y0, psi.shape[3])
            for now, ahead in zip(band.reshape(shape), prev[:, :, y0:y1].reshape(shape)):
                np.subtract(now, ahead, out=ahead)
                ahead *= momentum
                ahead += now
        _scatter(workspace, psi if scatter_accepted else prev, y0, y1)

    return jacobian_apply(z, workspace.kernel, workspace.dp, out=psi, workspace=workspace,
                          step=lip, each_band=accept)


def _check_dual(dual, rows, h, w, dtype):
    """Raise ValueError unless dual can start a solve and take its final
    dual: a writeable, finite, C-contiguous (2, rows, H, W) field of the
    solve's dtype, as dual_field makes."""
    if (not isinstance(dual, np.ndarray) or dual.shape != (2, rows, h, w)
            or dual.dtype != dtype or not dual.flags.c_contiguous):
        raise ValueError("dual must be a C-contiguous (2, rows, H, W) field, as dual_field "
                         "makes, for this image and kernel, in the samples' dtype")
    if not dual.flags.writeable:
        raise ValueError("dual must be writeable")
    if not np.isfinite(dual).all():
        raise ValueError("dual samples must be finite")


def _step_bound(tau, alpha_plus, dtype):
    """The scalar step bound L = 8 tau (a+)^2 of a solve in dtype, 8 tau
    unsteered (alpha_plus None).  Raises ValueError when L or alpha_plus
    exceeds the range of dtype, into which the Workspace casts the
    steering products such as a+ cos(theta)."""
    lip = 8.0 * tau * (1.0 if alpha_plus is None else alpha_plus * alpha_plus)
    top = float(np.finfo(dtype).max)
    if lip > top:
        raise ValueError("the step bound 8 tau alpha_plus^2 = %g exceeds the %s range"
                         % (lip, np.dtype(dtype)))
    if alpha_plus is not None and alpha_plus > top:
        raise ValueError("alpha_plus = %g exceeds the %s range" % (alpha_plus, np.dtype(dtype)))
    return lip


def solve(g, dp, cfg, *, dual=None, prune=None):
    """Run the dual ascent; returns a SolveResult: the restored image, the
    iteration count, the stop reason and, with a cfg.rel_tol, the image's
    relative duality gap.

    The solve follows g's dtype: a float32 g gives float32 dual fields,
    iterates and result, anything else float64.  dp may be None for the
    unsteered regularizer.

    dual, when given, is both the start point and the output of the dual:
    a finite, C-contiguous (2, rows, H, W) field of g's dtype (as
    dual_field makes, rows = support^2 * channels).  The ascent starts from
    it in place of the zero field, and the last accepted dual is written
    back into it.  A dual that does not fit raises ValueError before it is
    touched.  The result itself keeps no dual field.

    prune, when given, is a (clean, radius) pair: clean an image of g's
    shape, radius finite and >= 0.  Each gap check that does not stop the
    solve on its gap, the last one excepted, then stops it with
    stop_reason "pruned" when ||z - clean|| - sqrt(2 G) > radius, where z
    is the check's image and G its absolute duality gap: the exact
    minimizer then lies strictly farther than radius from clean (see the
    module docstring, and its float32 caveat).  A pruned solve writes its
    last accepted dual back into dual, as any other solve does.  prune
    without a cfg.rel_tol, whose checks it runs at, raises ValueError, as
    do a clean of another shape and a radius that is negative, NaN or
    infinite.

    A step bound L = 8 tau (a+)^2 or an a+ beyond the range of g's dtype
    raises ValueError, and a non-finite iterate FloatingPointError.

    One Workspace, built here, serves every J, J* and projection of the
    solve.  An iteration finishes J* from the bands the last one scattered
    (fold, steering, divergence) to get z, extends z's gradients, and then
    streams the dual fields once, band by band of the workspace: the J
    gather, the projection, the extrapolation and the J* scatter of a band
    run while it is in cache (_ascent).  The iteration tail (w, the
    finiteness check and the clip) runs in one preallocated buffer z, so
    from the second iteration on an iteration allocates no image-sized
    array.  A check (the last iteration, and every GAP_EVERY-th with a
    cfg.rel_tol) writes the image of the accepted dual over the spent z,
    which the result then holds; a gap runs in the workspace and one more
    image-sized buffer, which then takes z - clean for a prune test.  A
    check that does not stop the loop scatters the extrapolated point
    again, so the iterates are those of a solve without checks, bit for
    bit.
    """
    kernel = cfg.kernel
    p = cfg.dual_p
    nch, h, w_ = g.shape
    dtype = g.data.dtype
    rows = kernel.support**2 * nch
    if dual is not None:
        _check_dual(dual, rows, h, w_, dtype)
    if prune is not None:
        _check_prune(prune, g, cfg)
    # tested before the Workspace casts the steering fields to dtype
    lip = _step_bound(cfg.tau, None if dp is None else dp.alpha_plus, dtype)
    ws = Workspace(kernel, nch, h, w_, dp, dtype, ball_planes=_ball_planes(p, rows),
                   gap=cfg.rel_tol is not None)
    scaled = None if cfg.rel_tol is None else np.empty(g.shape, dtype)
    # Two dual fields alternate through the loop: the extrapolated point
    # psi, which takes the ascent step and the projection in place and so
    # becomes the accepted point, and the last accepted point prev, over
    # which the next extrapolated point is written.  A given dual starts
    # as prev, and psi as its copy: the first extrapolated point is the
    # start point itself.
    psi = dual_field(rows, h, w_, dtype)
    if dual is None:
        prev = dual_field(rows, h, w_, dtype)
    else:
        prev = dual
        np.copyto(psi, dual)
    z = np.empty(g.shape, dtype)
    # the first J* reads the start point
    for y0, y1 in ws.bands:
        _scatter(ws, psi, y0, y1)
    t = 1.0
    stop_reason = "max_iters"
    gap = None
    # every solve ends in the break of its last iteration, a check
    for it in range(1, cfg.max_iters + 1):
        _primal_step(psi, g, cfg, ws, out=z)
        last = it == cfg.max_iters
        check = last or (scaled is not None and it % GAP_EVERY == 0)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        _ascent(z, psi, None if last else prev, (t - 1.0) / t_next, p, ws, lip,
                scatter_accepted=check)
        if check:
            # z, spent by the ascent, takes the image of the accepted psi
            if scaled is None:
                _primal_step(psi, g, cfg, ws, out=z)
            else:
                absolute, gap = _duality_gap(psi, g, cfg, ws, z, scaled)
            if last:
                break
            if gap <= cfg.rel_tol:
                stop_reason = "gap"
                break
            if prune is not None and _beyond(z, prune, absolute, scaled):
                stop_reason = "pruned"
                break
            for y0, y1 in ws.bands:
                _scatter(ws, prev, y0, y1)
        # the next extrapolated point is in prev, and the accepted psi
        # becomes prev
        psi, prev = prev, psi
        t = t_next
    if dual is not None and psi is not dual:
        np.copyto(dual, psi)
    return SolveResult(Image(z), it, stop_reason, gap)


def tv_denoise(g, tau, box=(0.0, 1.0), max_iters=SolverConfig.max_iters, dual=None):
    """Classical TV denoising of a single-channel image over a box.

    Realized as the delta-kernel, q = 2, unsteered special case of the same
    dual machinery, in g's dtype.  dual, a (2, 1, H, W) field, starts the
    solve and takes its final dual, as in solve.  tau = 0 short-circuits to
    the box projection and leaves dual as it is.
    """
    if g.channels != 1:
        raise ValueError("tv_denoise expects a single channel")
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if tau == 0:
        return project_box(g, box)
    cfg = SolverConfig(tau=tau, q=2, kernel=delta_kernel(), constraint=box,
                       max_iters=max_iters)
    return solve(g, None, cfg, dual=dual).image
