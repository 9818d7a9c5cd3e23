from types import SimpleNamespace

import numpy as np
from scipy import ndimage

from adstv import Image, dpe
from adstv.diffops import grad_forward
from adstv.dpe import _minor_angle
from adstv.image import to_luminance
from adstv.tensor import DirectionalParams, coherence, eig2x2


def rand_image(rng, h, w, c=1):
    return Image(rng.random((c, h, w)))


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
        gf = grad_forward(f.data[c])
        sxx += gf.gx * gf.gx
        sxy += gf.gx * gf.gy
        syy += gf.gy * gf.gy
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
        khat = dpe.tv_regularize_field(c, False, cfg.coherence_tv_weight, (0.0, 1.0))
        fused.append(khat if not fused else dpe.fuse_scales(fused[-1], khat))
        enhanced.append(dpe.skew_enhance(fused[-1]))
        raw.append(c)
        tv.append(khat)
        angles.append(angle)
    strongest = np.argmax(np.stack(tv), axis=0)
    theta_raw = np.take_along_axis(np.stack(angles), strongest[None], axis=0)[0]
    theta = dpe.tv_regularize_field(theta_raw, True, cfg.theta_tv_tau, (0.0, np.pi))
    return SimpleNamespace(coherence_raw=raw, coherence_tv=tv, coherence_fused=fused,
                           coherence_enhanced=enhanced, angle_at_scale=angles,
                           theta_raw=theta_raw, theta=dpe._fold_angle(theta))
