import math
from types import SimpleNamespace

import numpy as np
from scipy import ndimage

from adstv import Image, dpe, solver
from adstv.diffops import grad_forward
from adstv.dpe import _minor_angle
from adstv.image import to_luminance
from adstv.solver import _project_ball
from adstv.tensor import (
    DirectionalParams,
    coherence,
    eig2x2,
    jacobian_adjoint_apply,
    jacobian_apply,
)


def rand_image(rng, h, w, c=1):
    return Image(rng.random((c, h, w)))


def identity_params(shape):
    """alpha_plus = alpha_minus = 1, theta = 0: the untransformed case."""
    h, w = shape
    return DirectionalParams(1.0, np.ones((h, w)), np.zeros((h, w)))


def apply_direction(g, ap, am, th):
    """Oracle for the steering: diag(ap, am) R(-th) g for a gradient vector
    (or array of vectors).

    R(th) = [[cos th, -sin th], [sin th, cos th]]; the last axis of g holds
    the (x, y) components.  Scalars and broadcastable arrays are accepted.
    """
    g = np.asarray(g, dtype=np.float64)
    ct = np.cos(th)
    st = np.sin(th)
    gx = g[..., 0]
    gy = g[..., 1]
    return np.stack([ap * (ct * gx + st * gy), am * (ct * gy - st * gx)], axis=-1)


def pixel_blocks(field):
    """The (H, W, rows, 2) view of a (2, rows, H, W) dual field: the
    (rows, 2) matrix of every pixel, for the per-pixel oracles."""
    return field.transpose(2, 3, 1, 0)


def dual_gradient(psi, g, dp, cfg):
    """Oracle for the ascent direction of the dual at the (2, rows, H, W)
    field psi: tau * J~ P_C(g - tau J~* Psi), as a field of the same
    shape."""
    w = g.data - cfg.tau * jacobian_adjoint_apply(psi, cfg.kernel, g.channels, dp)
    z = w if cfg.constraint is None else np.clip(w, *cfg.constraint)
    return cfg.tau * jacobian_apply(z, cfg.kernel, dp)


def rand_params(rng, h, w, alpha_plus=None):
    """Random valid steering fields for adjoint/reduction exercises."""
    ap = float(alpha_plus) if alpha_plus is not None else float(1.0 + 9.0 * rng.random())
    am = 1.0 + (ap - 1.0) * rng.random((h, w))
    theta = rng.random((h, w)) * (np.pi - 1e-9)
    return DirectionalParams(ap, am, theta)


def stripe_image(h, w, tangent_angle, period=8.0, contrast=0.4):
    """Sinusoidal grating whose level sets run along tangent_angle."""
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    normal = tangent_angle + np.pi / 2.0
    phase = xx * np.cos(normal) + yy * np.sin(normal)
    return Image((0.5 + contrast * np.sin(2.0 * np.pi * phase / period))[None])


def minor_angle(sxx, sxy, syy):
    """The minor-eigenvector angle analyze takes from 2x2 tensors with
    these entries (scalars or 1-D arrays)."""
    sxx, sxy, syy = (np.atleast_1d(np.asarray(a, dtype=np.float64)) for a in (sxx, sxy, syy))
    return _minor_angle(sxx, sxy, syy, coherence(*eig2x2(sxx, sxy, syy)))


def structure_tensor(f, k):
    """Oracle for the Gram matrices of the patch Jacobian: channel-summed
    gradient outer products smoothed by k (a 2-D correlation, not the
    package's separable passes), with their eigensystem from LAPACK's
    eigh (eigenvectors signed as eigh returns them)."""
    sxx = np.zeros((f.height, f.width))
    sxy = np.zeros_like(sxx)
    syy = np.zeros_like(sxx)
    for c in range(f.channels):
        gx, gy = grad_forward(f.data[c])
        sxx += gx * gx
        sxy += gx * gy
        syy += gy * gy
    sxx = ndimage.correlate(sxx, k.weights, mode="reflect")
    sxy = ndimage.correlate(sxy, k.weights, mode="reflect")
    syy = ndimage.correlate(syy, k.weights, mode="reflect")
    mats = np.stack([np.stack([sxx, sxy], -1), np.stack([sxy, syy], -1)], -2)
    lam, vec = np.linalg.eigh(mats)
    return SimpleNamespace(sxx=sxx, sxy=sxy, syy=syy, lambda_plus=lam[..., 1],
                           lambda_minus=lam[..., 0], v_plus=vec[..., :, 1],
                           v_minus=vec[..., :, 0])


def analyze_stages(g, cfg):
    """Oracle for dpe.analyze that keeps every stage of every scale: the
    raw coherence, its TV cleanup kappa_hat, the running fusion, its skew
    enhancement and the angle, as lists over scales.  theta_raw takes the
    angle at the first scale of largest kappa_hat (np.argmax over the
    stack).  The cleanups go through the module attribute
    dpe.tv_regularize_field, so a test that patches it patches both."""
    gl = to_luminance(g).data[0]
    raw, tv, fused, enhanced, angles = [], [], [], [], []
    for k in range(1, cfg.num_scales + 1):
        c, angle = dpe._scale_fields(gl, k, cfg)
        khat = dpe.tv_regularize_field(c, False, dpe.COHERENCE_TV_WEIGHT, (0.0, 1.0))
        fused.append(khat if not fused else dpe.fuse_scales(fused[-1], khat))
        enhanced.append(dpe.skew_enhance(fused[-1]))
        raw.append(c)
        tv.append(khat)
        angles.append(angle)
    strongest = np.argmax(np.stack(tv), axis=0)
    theta_raw = np.take_along_axis(np.stack(angles), strongest[None], axis=0)[0]
    theta = dpe.tv_regularize_field(theta_raw, True, dpe.THETA_TV_TAU, (0.0, np.pi))
    return SimpleNamespace(coherence_raw=raw, coherence_tv=tv, coherence_fused=fused,
                           coherence_enhanced=enhanced, angle_at_scale=angles,
                           theta_raw=theta_raw, theta=dpe._fold_angle(theta))


def reference_solve(g, dp, cfg, lip=None, dual=None):
    """Dual FISTA in the solver's iteration order, with fresh arrays for
    every intermediate and no workspace, in g's dtype.  lip is the scalar
    step bound, by default the solver's 8 tau (alpha_plus)^2 (8 tau
    unsteered).  dual, when given, is the start point in place of the zero
    field, and takes the last accepted dual at the end, as in solve.
    Returns the restored samples and the iteration count."""
    k, tau, c = cfg.kernel, cfg.tau, g.channels
    if lip is None:
        lip = 8.0 * tau * (1.0 if dp is None else dp.alpha_plus**2)
    if dual is None:
        jf = jacobian_apply(g.data, k, dp)
        psi = np.zeros(jf.shape, jf.dtype)
    else:
        psi = np.array(dual)
    prev = psi.copy()
    t = 1.0
    z_prev = None

    def clip(w):
        return w if cfg.constraint is None else np.clip(w, *cfg.constraint)

    for it in range(1, cfg.max_iters + 1):
        z = clip(g.data - tau * jacobian_adjoint_apply(psi, k, c, dp))
        accepted = _project_ball(jacobian_apply(z, k, dp) / lip + psi, cfg.dual_p)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        psi = accepted + (t - 1.0) / t_next * (accepted - prev)
        prev, t = accepted, t_next
        if z_prev is not None and (np.linalg.norm(z - z_prev)
                                   <= cfg.rel_tol * max(np.linalg.norm(z_prev), 1e-30)):
            break
        z_prev = z
    if dual is not None:
        dual[...] = prev
    return clip(g.data - tau * jacobian_adjoint_apply(prev, k, c, dp)), it


def iteration_probe(monkeypatch, on_iterate=None, on_accepted=None):
    """Watch solve's loop from outside, through monkeypatch.

    Each iteration's ascent is one jacobian_apply call, which projects
    every band of the dual as soon as it has its step.  on_iterate(z) sees
    the iteration's primal iterate z, the first argument solve hands to
    that call; on_accepted(psi) sees the field the call returns, the
    iteration's whole accepted dual.  Both are solve's reused buffers,
    valid until the next iteration; the last accepted dual stays intact
    after solve returns.  The wrap goes through monkeypatch.setattr on
    adstv.solver, which fails if the attribute is renamed."""
    apply = solver.jacobian_apply

    def jacobian_apply(z, *args, **kwargs):
        if on_iterate is not None:
            on_iterate(z)
        accepted = apply(z, *args, **kwargs)
        if on_accepted is not None:
            on_accepted(accepted)
        return accepted

    monkeypatch.setattr(solver, "jacobian_apply", jacobian_apply)
