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
    PatchJacobianField,
    _gram,
    jacobian_adjoint_apply,
    jacobian_apply,
    regularizer_value,
)

# The solver makes no eigendecomposition; the name stays because perfbench's
# traced run wraps solver.eig2x2 (its span now reads 0).
from .tensor import eig2x2  # noqa: F401

__all__ = [
    "SolverConfig",
    "DualState",
    "SolveResult",
    "lipschitz_field",
    "project_box",
    "project_schatten",
    "dual_gradient",
    "dual_objective",
    "primal_energy",
    "solve",
    "denoise_adstv",
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
class DualState:
    """Mutable state of one dual ascent: current point, momentum, step bound."""

    psi: np.ndarray
    psi_prev: np.ndarray
    t: float
    lipschitz: np.ndarray


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


def _project_ball(data, p, scratch):
    """Project each (rows, 2) block of the (..., rows, 2) field data onto
    the unit Schatten-p ball, in place; returns data.  scratch is a field of
    the same shape that the p = inf branch overwrites."""
    if p != 2 and not math.isinf(p):
        raise ValueError("p must be 2 or inf")
    a = data[..., 0]
    b = data[..., 1]
    if p == 2 or data.shape[-2] == 1:
        # A single row has one singular value, its norm: both balls agree.
        n = np.sqrt(np.einsum("...rk,...rk->...", data, data))
        data /= np.maximum(1.0, n)[..., None, None]
        return data
    # M -> M F with F = V diag(f+, f-) V^T, f = 1/max(1, sigma), built from
    # the Gram matrix G = M^T M without its eigenvectors:
    #     F = f- I + c (G - l- I),  c = (f+ - f-) / (l+ - l-).
    gxx, gxy, gyy = _gram(data)
    half = 0.5 * (gxx - gyy)
    rad = np.hypot(half, gxy)
    mean = 0.5 * (gxx + gyy)
    sp = np.sqrt(mean + rad)
    sm = np.sqrt(np.maximum(mean - rad, 0.0))
    fp = 1.0 / np.maximum(sp, 1.0)
    fm = 1.0 / np.maximum(sm, 1.0)
    # Where sigma- > 1 the quotient is -1/(s+ s- (s+ + s-)): free of
    # cancellation and finite at l+ = l-, where F = f+ I.  Elsewhere f- = 1,
    # and l+ > l- (rad > 0) wherever f+ < 1; where f+ = 1 as well the
    # quotient is 0 and the guarded denominator is never used.
    c = np.where(sm > 1.0, -(fp * fm) / np.maximum(sp + sm, 2.0),
                 (fp - 1.0) / np.where(rad > 0.0, 2.0 * rad, 1.0))
    f00 = (fm + c * (half + rad))[..., None]
    f01 = (c * gxy)[..., None]
    f11 = (fm + c * (rad - half))[..., None]
    bf = np.multiply(b, f01, out=scratch[..., 0])
    af = np.multiply(a, f01, out=scratch[..., 1])
    a *= f00
    a += bf
    b *= f11
    b += af
    return data


def project_schatten(m, p):
    """Nearest point of the unit Schatten-p ball to one (rows, 2) matrix.

    For p = 2 this scales by 1/max(1, ||m||_F); for p = inf it clamps the
    singular values to <= 1 through the 2x2 Gram matrix, never forming the
    left singular vectors.
    """
    m = np.array(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] != 2:
        raise ValueError("m must have shape (rows, 2)")
    return _project_ball(m, p, np.empty_like(m))


def _adjoint_image(psi_data, g, kernel, dp):
    return jacobian_adjoint_apply(psi_data, kernel, g.channels, dp)


def dual_gradient(psi, g, dp, cfg):
    """tau * J~ P_C(g - tau J~* Psi), the ascent direction of the dual."""
    w = g.data - cfg.tau * _adjoint_image(psi.data, g, cfg.kernel, dp)
    z = _clip(w, cfg.constraint)
    return PatchJacobianField(cfg.tau * jacobian_apply(z, cfg.kernel, dp), cfg.kernel, g.channels)


def dual_objective(psi, g, dp, cfg):
    """The dual value at Psi; diagnostic companion of dual_gradient."""
    w = g.data - cfg.tau * _adjoint_image(psi.data, g, cfg.kernel, dp)
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
    exists for diagnostics and tests; psi_accepted is a reused buffer, valid
    until the next call.
    """
    kernel = cfg.kernel
    tau = cfg.tau
    p = cfg.dual_p
    h, w_ = g.height, g.width
    rows = kernel.support**2 * g.channels
    if dp is None:
        lip = 16.0 * math.sqrt(2.0) * tau
    else:
        if dp.shape != (h, w_):
            raise ValueError("direction fields do not match image dimensions")
        lip = lipschitz_field(dp, tau)[:, :, None, None]
    # Three planar dual fields rotate through the loop: the extrapolated
    # point psi, the last accepted point psi_prev, and the ascent step.
    def field():
        return np.zeros((2, rows, h, w_)).transpose(2, 3, 1, 0)

    state = DualState(psi=field(), psi_prev=field(), t=1.0, lipschitz=lip)
    step = field()
    z_prev = None
    iterations = 0
    for it in range(1, cfg.max_iters + 1):
        iterations = it
        w = g.data - tau * _adjoint_image(state.psi, g, kernel, dp)
        z = _clip(w, cfg.constraint)
        if not np.all(np.isfinite(z)):
            raise FloatingPointError("non-finite values in solver iterate")
        jacobian_apply(z, kernel, dp, out=step)
        step /= state.lipschitz
        step += state.psi
        accepted = _project_ball(step, p, state.psi)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * state.t * state.t))
        # psi <- accepted + (t - 1)/t_next (accepted - psi_prev), written
        # over psi_prev; the spent psi buffer takes the next ascent step.
        momentum = state.psi_prev
        np.subtract(accepted, momentum, out=momentum)
        momentum *= (state.t - 1.0) / t_next
        momentum += accepted
        step, state.psi, state.psi_prev = state.psi, momentum, accepted
        state.t = t_next
        if monitor is not None:
            monitor(it, z, accepted)
        if z_prev is not None:
            delta = float(np.linalg.norm(z - z_prev))
            base = float(np.linalg.norm(z_prev))
            if delta <= cfg.rel_tol * max(base, 1e-30):
                break
        z_prev = z
    final = _clip(g.data - tau * _adjoint_image(state.psi_prev, g, kernel, dp), cfg.constraint)
    return SolveResult(Image(final), iterations)


def denoise_adstv(g, dp, cfg):
    """Denoise g with the steered regularizer defined by dp and cfg."""
    return solve(g, dp, cfg).image


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
