"""Dual fast-gradient-projection solver for steered structure tensor
denoising.

The primal problem

    argmin_{f in C}  1/2 ||g - f||^2 + tau * sum_i ||(J~ f)[i]||_{S_q}

is solved through its dual: maximize d(Psi) over the product of unit
Schatten-p balls (1/p + 1/q = 1), where

    d(Psi) = 1/2 ||w - P_C(w)||^2 + 1/2 (||g||^2 - ||w||^2),
    w = g - tau * J~* Psi,

by projected gradient ascent with FISTA momentum.  Each per-pixel block of
the ascent step is scaled by 1/L[i] with L[i] = 8 sqrt(2) tau ((a+)^2 +
(a-[i])^2); this single-tau form pairs with an ascent step that applies J~ z
without an extra tau factor, so the effective step respects the tau^2
curvature bound of the dual.  The primal iterate z = P_C(w) doubles as the
convergence monitor: iteration stops when its relative l2 change drops below
rel_tol, or after max_iters.
"""

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .diffops import Kernel, delta_kernel, gaussian_kernel
from .image import Image
from .tensor import (
    Workspace,
    _gram,
    dual_field,
    dual_planes,
    jacobian_adjoint_apply,
    jacobian_apply,
    regularizer_value,
)

# The solver makes no eigendecomposition; the name stays because perfbench's
# traced run wraps solver.eig2x2 (its span now reads 0).
from .tensor import eig2x2  # noqa: F401

__all__ = [
    "SolverConfig",
    "SolveResult",
    "lipschitz_field",
    "project_box",
    "dual_gradient",
    "dual_objective",
    "primal_energy",
    "solve",
    "tv_denoise",
]


def _default_kernel():
    return gaussian_kernel(0.5, 3)


@dataclass
class SolverConfig:
    """Solver settings; the defaults match the reference configuration."""

    tau: float
    q: int = 1
    max_iters: int = 100
    rel_tol: float = 1e-5
    constraint: tuple = (0.0, 1.0)
    kernel: Kernel = dataclass_field(default_factory=_default_kernel)

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError("tau must be positive and finite")
        if self.q not in (1, 2):
            raise ValueError("q must be 1 or 2")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise ValueError("rel_tol must be positive and finite")
        if self.constraint is not None:
            lo, hi = self.constraint
            if not lo < hi:
                raise ValueError("constraint bounds must satisfy lo < hi")

    @property
    def dual_p(self):
        return math.inf if self.q == 1 else 2


@dataclass
class SolveResult:
    image: Image
    iterations: int


def lipschitz_field(dp, tau):
    """Per-pixel step bound 8 sqrt(2) tau ((a+)^2 + (a-[i])^2)."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    return 8.0 * math.sqrt(2.0) * tau * (dp.alpha_plus**2 + dp.alpha_minus**2)


def _clip(data, constraint):
    if constraint is None:
        return data
    return np.clip(data, constraint[0], constraint[1])


def project_box(img, constraint):
    """Clamp every sample into the box; identity when unconstrained."""
    if constraint is None:
        return Image(img.data.copy())
    return Image(np.clip(img.data, constraint[0], constraint[1]))


def _project_ball(data, p, workspace=None):
    """Project each (rows, 2) block of the (..., rows, 2) field data onto
    the unit Schatten-p ball, in place; returns data.  The per-pixel
    planes come from workspace when given (the solve's Workspace, for an
    (H, W, rows, 2) field), else from a throwaway set."""
    if p != 2 and not math.isinf(p):
        raise ValueError("p must be 2 or inf")
    rows = data.shape[-2]
    # A single row has one singular value, its norm: both balls agree.
    rescale = p == 2 or rows == 1
    count = 1 if rescale else 8
    if workspace is None:
        shape = data.shape[:-2]
        block = np.empty((count,) + shape)
        planes = [block[i, ...] for i in range(count)]
        mask = np.empty(shape, dtype=bool)
    else:
        _, planes = workspace.scratch(planes=count)
        mask = workspace.mask[0]
    # row r of component k is planar[k, r, ...], a view even when 0-d
    planar = np.moveaxis(data, (-1, -2), (0, 1))
    if rescale:
        n = planes[0]
        np.einsum("...rk,...rk->...", data, data, out=n)
        np.sqrt(n, out=n)
        np.maximum(n, 1.0, out=n)
        for k in range(2):
            for r in range(rows):
                np.divide(planar[k, r, ...], n, out=planar[k, r, ...])
        return data
    # M -> M F with F = V diag(f+, f-) V^T, f = 1/max(1, sigma), built from
    # the Gram matrix G = M^T M without its eigenvectors:
    #     F = f- I + c (G - l- I),  c = (f+ - f-) / (l+ - l-).
    # Planes are reused once their value is spent; the names say what each
    # holds at that point.
    gxx, gxy, gyy, half, sp, fp, fm, quot = planes
    _gram(data, out=(gxx, gxy, gyy))
    np.subtract(gxx, gyy, out=half)
    half *= 0.5
    mean = np.add(gxx, gyy, out=gxx)
    mean *= 0.5
    rad = np.hypot(half, gxy, out=gyy)
    np.add(mean, rad, out=sp)
    np.sqrt(sp, out=sp)
    sm = np.subtract(mean, rad, out=mean)
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
        ar, br = planar[0, r, ...], planar[1, r, ...]
        np.multiply(br, f01, out=bf)
        np.multiply(ar, f01, out=af)
        ar *= f00
        ar += bf
        br *= f11
        br += af
    return data


def dual_gradient(psi, g, dp, cfg):
    """tau * J~ P_C(g - tau J~* Psi), the ascent direction of the dual at
    the (H, W, rows, 2) field psi, as a field of the same shape."""
    w = g.data - cfg.tau * jacobian_adjoint_apply(psi, cfg.kernel, g.channels, dp)
    z = _clip(w, cfg.constraint)
    return cfg.tau * jacobian_apply(z, cfg.kernel, dp)


def dual_objective(psi, g, dp, cfg):
    """The dual value at the (H, W, rows, 2) field psi; diagnostic
    companion of dual_gradient."""
    w = g.data - cfg.tau * jacobian_adjoint_apply(psi, cfg.kernel, g.channels, dp)
    pc = _clip(w, cfg.constraint)
    return float(
        0.5 * np.sum((w - pc) ** 2) + 0.5 * (np.sum(g.data**2) - np.sum(w * w))
    )


def primal_energy(f, g, dp, cfg):
    """1/2 ||g - f||^2 + tau * (regularizer of f)."""
    if f.shape != g.shape:
        raise ValueError("shape mismatch")
    fidelity = 0.5 * float(np.sum((g.data - f.data) ** 2))
    return fidelity + cfg.tau * regularizer_value(f, cfg.kernel, dp, cfg.q)


def solve(g, dp, cfg, monitor=None):
    """Run the dual ascent; returns the restored image and iteration count.

    dp may be None for the unsteered regularizer.  monitor, when given, is
    called after every iteration as monitor(iteration, z, psi_accepted) and
    exists for diagnostics and tests.  z and psi_accepted are reused
    buffers, valid until the next call; the last psi_accepted stays intact
    after solve returns.

    One Workspace, built here, serves every J, J* and projection of the
    solve, and the iteration tail (w, the clip, the finiteness check and
    the rel-change difference) runs in preallocated buffers, so from the
    second iteration on an iteration allocates no image-sized array.
    """
    kernel = cfg.kernel
    tau = cfg.tau
    p = cfg.dual_p
    nch, h, w_ = g.shape
    rows = kernel.support**2 * nch
    ws = Workspace(kernel, nch, h, w_, dp)
    lip = 16.0 * math.sqrt(2.0) * tau if dp is None else lipschitz_field(dp, tau)
    # Three dual fields rotate through the loop: the extrapolated point psi,
    # the last accepted point prev, and the ascent step.
    psi, prev, step = (dual_field(rows, h, w_) for _ in range(3))
    z, z_prev = np.empty(g.shape), np.empty(g.shape)
    t = 1.0
    iterations = 0
    for it in range(1, cfg.max_iters + 1):
        iterations = it
        # z = P_C(g - tau J* psi), written in place
        jacobian_adjoint_apply(psi, kernel, nch, dp, out=z, workspace=ws)
        z *= tau
        np.subtract(g.data, z, out=z)
        if cfg.constraint is not None:
            np.clip(z, cfg.constraint[0], cfg.constraint[1], out=z)
        if not np.isfinite(z, out=ws.mask).all():
            raise FloatingPointError("non-finite values in solver iterate")
        jacobian_apply(z, kernel, dp, out=step, workspace=ws)
        if dp is None:
            step /= lip
        else:
            for plane in dual_planes(step):
                plane /= lip
        step += psi
        _project_ball(step, p, ws)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        # psi <- step + (t - 1)/t_next (step - prev), written over prev; the
        # accepted step becomes prev and the spent psi buffer takes the
        # next ascent step.
        np.subtract(step, prev, out=prev)
        prev *= (t - 1.0) / t_next
        prev += step
        step, psi, prev = psi, prev, step
        t = t_next
        if monitor is not None:
            monitor(it, z, prev)
        if it > 1:
            # z_prev is spent after this test: the next J* overwrites it
            base = float(np.linalg.norm(z_prev))
            delta = float(np.linalg.norm(np.subtract(z, z_prev, out=z_prev)))
            if delta <= cfg.rel_tol * max(base, 1e-30):
                break
        z, z_prev = z_prev, z
    # only prev is read from here on: release the other two dual fields
    # before the result is allocated
    del psi, step
    final = jacobian_adjoint_apply(prev, kernel, nch, dp, workspace=ws)
    final *= tau
    np.subtract(g.data, final, out=final)
    if cfg.constraint is not None:
        np.clip(final, cfg.constraint[0], cfg.constraint[1], out=final)
    return SolveResult(Image(final), iterations)


def tv_denoise(g, tau, box=(0.0, 1.0), max_iters=100, rel_tol=1e-5):
    """Classical TV denoising of a single-channel image over a box.

    Realized as the delta-kernel, q = 2, unsteered special case of the same
    dual machinery.  tau = 0 short-circuits to the box projection.
    """
    if g.channels != 1:
        raise ValueError("tv_denoise expects a single channel")
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if tau == 0:
        return project_box(g, box)
    cfg = SolverConfig(tau=tau, q=2, kernel=delta_kernel(), constraint=box,
                       max_iters=max_iters, rel_tol=rel_tol)
    return solve(g, None, cfg).image
