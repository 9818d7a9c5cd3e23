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

Three rules stop the loop.  The primal iterate z = P_C(w) doubles as a
convergence test: iteration stops when its relative l2 change drops below
rel_tol (stop_reason "tol").  With a gap_tol, every GAP_EVERY iterations
but the last the ascent scatters the accepted dual psi in place of the
extrapolated point, and the solve takes the relative duality gap
(P(z) - D(psi)) / P(z) at z = P_C(g - tau J~* psi), the very image it
would return: the loop stops when the gap is at most gap_tol (stop_reason
"gap"), and otherwise scatters the extrapolated point and goes on.  Else
it stops after max_iters (stop_reason "max_iters").  The gap needs no dual
field and no J~ call: at z = P_C(w), P(z) - D(psi) = tau R(z) - <z, tau
J~* psi> (Fenchel-Young), and R(z) sums the Schatten norms of the per-pixel
Gram of J~ z, the kernel-smoothed structure tensor of z's steered gradient
(tensor._schatten_sum), from a few planes of the solve's Workspace.  Its
sums are float64, its per-pixel values in the solve's dtype, so a float32
gap is an estimate, not a proven bound.  A solve with a gap_tol reports
the gap of the image it returns, whatever stopped it.

One helper computes z, for every iteration and for the final image, and
one clip serves it, the box projection and the dual objective.  The ball
projection takes its Gram eigenvalues from tensor.eig2x2, the helper
analyze uses.

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
    _check_field,
    _finish,
    _gram,
    _norm_planes,
    _scatter,
    _schatten_sum,
    dual_field,
    eig2x2,
    jacobian_adjoint_apply,
    jacobian_apply,
    regularizer_value,
)

__all__ = [
    "SolverConfig",
    "SolveResult",
    "project_box",
    "dual_objective",
    "primal_energy",
    "solve",
    "tv_denoise",
]


# The Gaussian patch window of SolverConfig and of the CLI's kernel flags.
KERNEL_SIGMA = 0.5
KERNEL_SUPPORT = 3

# A solve with a gap_tol takes its duality gap every GAP_EVERY iterations.
GAP_EVERY = 10


def _default_kernel():
    return gaussian_kernel(KERNEL_SIGMA, KERNEL_SUPPORT)


@dataclass
class SolverConfig:
    """Solver settings; the defaults match the reference configuration.
    gap_tol None takes no duality gap."""

    tau: float
    q: int = 1
    max_iters: int = 100
    rel_tol: float = 1e-5
    constraint: tuple = (0.0, 1.0)
    kernel: Kernel = dataclass_field(default_factory=_default_kernel)
    gap_tol: float = None

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError("tau must be positive and finite")
        if self.q not in (1, 2):
            raise ValueError("q must be 1 or 2")
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1:
            raise ValueError("max_iters must be an integer >= 1, got %r" % (self.max_iters,))
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise ValueError("rel_tol must be positive and finite")
        if self.gap_tol is not None and not (math.isfinite(self.gap_tol) and self.gap_tol > 0):
            raise ValueError("gap_tol must be None or positive and finite, got %r"
                             % self.gap_tol)
        if self.constraint is not None:
            lo, hi = self.constraint
            if not lo < hi:
                raise ValueError("constraint bounds must satisfy lo < hi")

    @property
    def dual_p(self):
        return math.inf if self.q == 1 else 2


@dataclass
class SolveResult:
    """The restored image, the iterations run, and why the loop stopped:
    "tol" when the relative change of z fell below rel_tol, "gap" when the
    relative duality gap fell to gap_tol, "max_iters" when the cap ran out
    first.  gap is the relative duality gap of the returned image, None
    when the solve had no gap_tol."""

    image: Image
    iterations: int
    stop_reason: str = "max_iters"
    gap: float = None


def _clip(data, constraint, out=None):
    """data clamped into the box constraint, written to out when given;
    data itself when unconstrained."""
    if constraint is None:
        return data
    return np.clip(data, constraint[0], constraint[1], out=out)


def project_box(img, constraint):
    """Clamp every sample into the box; identity when unconstrained.  The
    result never shares img's samples."""
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
        band, w = data.shape[2:]
        planes = workspace.planes(count, (band, w), workspace.band_slot(band))
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


def dual_objective(psi, g, dp, cfg):
    """The dual value at the (2, rows, H, W) field psi, for the duality
    gap.  It is computed in float64 whatever the dtype of psi and g: the
    duality gap P - D cancels most of the digits of either energy."""
    g64 = np.asarray(g.data, np.float64)
    w = g64 - cfg.tau * jacobian_adjoint_apply(
        np.asarray(psi, np.float64), cfg.kernel, g.channels, dp)
    pc = _clip(w, cfg.constraint)
    return float(
        0.5 * np.sum((w - pc) ** 2) + 0.5 * (np.sum(g64**2) - np.sum(w * w))
    )


def primal_energy(f, g, dp, cfg):
    """1/2 ||g - f||^2 + tau * (regularizer of f), in float64 whatever the
    dtype of f and g."""
    if f.shape != g.shape:
        raise ValueError("shape mismatch")
    fidelity = 0.5 * float(np.sum(np.subtract(g.data, f.data, dtype=np.float64) ** 2))
    return fidelity + cfg.tau * regularizer_value(f, cfg.kernel, dp, cfg.q)


def _primal_step(psi, g, cfg, workspace, out=None, scaled=None):
    """z = P_C(g - tau J* psi) for the (2, rows, H, W) field psi, whose
    bands the workspace has scattered, written to out when given (a
    (C, H, W) array of g's dtype).  scaled, when given, is another such
    array, which keeps tau J* psi.  A non-finite g - tau J* psi raises
    FloatingPointError: it is tested before the clip, which would map an
    infinite sample into the box."""
    s = _finish(workspace, psi, out if scaled is None else scaled)
    s *= cfg.tau
    z = np.subtract(g.data, s, out=s if scaled is None else out)
    if not np.isfinite(z, out=workspace.mask).all():
        raise FloatingPointError("non-finite values in solver iterate")
    return _clip(z, cfg.constraint, out=z)


def _relative_gap(psi, g, cfg, workspace, z, scaled):
    """The relative duality gap (P(z) - D(psi)) / P(z) at the dual psi,
    whose bands the workspace has scattered, and z = P_C(g - tau J* psi),
    which it writes to z as _primal_step does; scaled is a scratch array
    of z's shape and dtype.  At this z, P(z) - D(psi) = tau R(z) - <z,
    tau J* psi>, which spares D the cancellation of ||g||^2 - ||w||^2; R
    comes from the Gram of J z (tensor._schatten_sum), which leaves every
    scratch plane of the workspace spent.  The gap is 0 where P(z) = 0: z
    = g is then optimal."""
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
    return max(penalty - dot + slack, 0.0) / primal if primal > 0 else 0.0


def _ascent(z, psi, prev, momentum, p, workspace, lip, scatter_accepted=False):
    """The ascent step from the extrapolated point psi, band by band:
    psi += J z / L, and each band goes onto the balls as soon as it has
    its step, so that psi becomes the accepted point.  With prev, the last
    accepted point, each band then writes the next extrapolated point
    psi + momentum (psi - prev) over prev and scatters it for the next
    J*; without prev (the last iteration), or with scatter_accepted (a gap
    check), the band scatters psi instead.  Each band of psi and prev is
    read from memory once.  Returns psi."""

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
        _scatter(workspace, psi if prev is None or scatter_accepted else prev, y0, y1)

    return jacobian_apply(z, workspace.kernel, workspace.dp, out=psi, workspace=workspace,
                          step=lip, each_band=accept)


def _check_dual(dual, rows, h, w, dtype):
    """Raise ValueError unless dual can start a solve and take its final
    dual: a writeable, finite, C-contiguous (2, rows, H, W) field of the
    solve's dtype, as dual_field makes."""
    _check_field(dual, "dual", (2, rows, h, w), dtype)
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


def solve(g, dp, cfg, *, dual=None):
    """Run the dual ascent; returns a SolveResult: the restored image, the
    iteration count, the stop reason and, with a cfg.gap_tol, the image's
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

    A step bound L = 8 tau (a+)^2 or an a+ beyond the range of g's dtype
    raises ValueError, and a non-finite iterate FloatingPointError.

    One Workspace, built here, serves every J, J* and projection of the
    solve.  An iteration finishes J* from the bands the last one scattered
    (fold, steering, divergence) to get z, extends z's gradients, and then
    streams the dual fields once, band by band of the workspace: the J
    gather, the projection, the extrapolation and the J* scatter of a band
    run while it is in cache (_ascent).  The iteration tail (w, the
    finiteness check, the clip and the rel-change difference) runs in
    preallocated buffers, so from the second iteration on an iteration
    allocates no image-sized array.  A gap check (every GAP_EVERY
    iterations with a cfg.gap_tol) runs in the workspace and one more
    image-sized buffer; a check that does not stop the loop scatters the
    extrapolated point again, so the iterates are those of a solve without
    checks, bit for bit.
    """
    kernel = cfg.kernel
    p = cfg.dual_p
    nch, h, w_ = g.shape
    dtype = g.data.dtype
    rows = kernel.support**2 * nch
    if dual is not None:
        _check_dual(dual, rows, h, w_, dtype)
    # tested before the Workspace casts the steering fields to dtype
    lip = _step_bound(cfg.tau, None if dp is None else dp.alpha_plus, dtype)
    ws = Workspace(kernel, nch, h, w_, dp, dtype)
    # the projection's band planes and the gap's planes, reserved before
    # any band is scattered
    ws.planes(_ball_planes(p, rows), (ws.band_rows, w_), ws.band_slot(ws.band_rows))
    scaled = None
    if cfg.gap_tol is not None:
        _norm_planes(ws)
        scaled = np.empty(g.shape, dtype)
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
    z, z_prev = np.empty(g.shape, dtype), np.empty(g.shape, dtype)
    # the first J* reads the start point
    _scatter(ws, psi, 0, h)
    t = 1.0
    stop_reason = "max_iters"
    gap = None
    # every solve ends in the break of its last iteration
    for it in range(1, cfg.max_iters + 1):
        _primal_step(psi, g, cfg, ws, out=z)
        if it > 1:
            # z_prev is spent after this test: the next primal step
            # overwrites it
            base = float(np.linalg.norm(z_prev))
            delta = float(np.linalg.norm(np.subtract(z, z_prev, out=z_prev)))
            if delta <= cfg.rel_tol * max(base, 1e-30):
                stop_reason = "tol"
        # the last ascent scatters the accepted psi, the last dual, for the
        # final primal step
        last = stop_reason == "tol" or it == cfg.max_iters
        check = not last and scaled is not None and it % GAP_EVERY == 0
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        _ascent(z, psi, None if last else prev, (t - 1.0) / t_next, p, ws, lip,
                scatter_accepted=check)
        if last:
            break
        if check:
            # the check's image goes to the spent z_prev
            gap = _relative_gap(psi, g, cfg, ws, z_prev, scaled)
            if gap <= cfg.gap_tol:
                stop_reason = "gap"
                break
            for y0, y1 in ws.bands:
                _scatter(ws, prev, y0, y1)
        # the next extrapolated point is in prev, and the accepted psi
        # becomes prev
        psi, prev = prev, psi
        t = t_next
        z, z_prev = z_prev, z
    if dual is not None and psi is not dual:
        np.copyto(dual, psi)
        psi = dual
    # only psi and the scatter are read from here on: release prev before
    # the result is allocated
    del prev
    if stop_reason == "gap":
        # the image of the check that stopped the loop
        image = z_prev
    elif scaled is None:
        image = _primal_step(psi, g, cfg, ws)
    else:
        image = np.empty(g.shape, dtype)
        gap = _relative_gap(psi, g, cfg, ws, image, scaled)
    return SolveResult(Image(image), it, stop_reason, gap)


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
