from types import SimpleNamespace

import numpy as np

from adstv import Image
from adstv.diffops import convolve_channel, grad_forward
from adstv.tensor import DirectionalParams, eig2x2


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


def structure_tensor(f, k):
    """Oracle for the Gram matrices of the patch Jacobian: channel-summed
    gradient outer products smoothed by k (the convolution route), with
    their eigensystem."""
    sxx = np.zeros((f.height, f.width))
    sxy = np.zeros_like(sxx)
    syy = np.zeros_like(sxx)
    for c in range(f.channels):
        gf = grad_forward(f.data[c])
        sxx += gf.gx * gf.gx
        sxy += gf.gx * gf.gy
        syy += gf.gy * gf.gy
    sxx = convolve_channel(sxx, k)
    sxy = convolve_channel(sxy, k)
    syy = convolve_channel(syy, k)
    lp, lm, vp, vm = eig2x2(sxx, sxy, syy)
    return SimpleNamespace(sxx=sxx, sxy=sxy, syy=syy, lambda_plus=lp,
                           lambda_minus=lm, v_plus=vp, v_minus=vm)
