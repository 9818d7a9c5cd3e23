"""Directional parameter estimation from multi-scale coherence analysis.

The estimator turns a (possibly noisy) image into the two per-pixel fields
the steered solver consumes: an orientation field theta in [0, pi) and an
anisotropy-dose field alpha_minus in [1, alpha_plus].  The pipeline, per
scale k = 1..K with pre-smoothing variance 2k - 1:

  1. smooth the luminance, take Sobel gradients, build the structure tensor
     with a wide Gaussian (std sqrt(st_support), support st_support), and
     measure the eigenvalue coherence c in [0, 1]; every smoothing and both
     Sobel derivatives run as one 1-D correlation pass per axis;
  2. clean c with a TV solve (full squared fidelity, unit TV weight) on the
     [0, 1] box, giving kappa_hat;
  3. fuse across scales: keep the previous value where the new one is not
     larger, otherwise average.

After the last scale, if the fused field is strongly skewed (|skewness| >
1), its mass is pushed toward the appropriate end through the
square/fourth-root rule.  alpha_minus is the affine map sending the largest
enhanced coherence to 1 (strong orientation, full anisotropic dose) and the
smallest to alpha_plus (isotropic smoothing).  theta takes the minor
eigenvector angle at the scale with the strongest kappa_hat per pixel (the
first such scale on a tie), then gets its own light TV cleanup (half
fidelity, weight 0.02) and is folded back into [0, pi).  The scales are
streamed: analyze keeps only the running fusion, the largest kappa_hat so
far and its angle from one scale to the next.

The angle comes from the tensor entries alone, as half the double angle
atan2(2 sxy, sxx - syy) turned by pi/2, with no eigenvectors.  Where the
coherence is 0 (an isotropic tensor, or lambda_plus <= 1e-12, as in flat
regions) the angle is pi/2: a tie rule that does not depend on the rounding
of a tensor that is zero up to a few ulps.

The TV cleanups run in float32 and return float64 fields.  The cleaned
fields only steer a float64 solve, and float32 resolution (6e-8) lies far
below the error a cleanup still carries at its iteration cap; the
structure tensors and everything after the cleanups stay float64.
"""

import math
from dataclasses import dataclass

import numpy as np

from .diffops import convolve_channel, gaussian_kernel, grad_forward, sobel_grad
from .image import Image, to_luminance
from .tensor import DirectionalParams, coherence, eig2x2
from .solver import tv_denoise

__all__ = [
    "DpeConfig",
    "DpeFields",
    "tv_regularize_field",
    "fuse_scales",
    "skew_enhance",
    "analyze",
    "estimate",
    "eadtv_angles",
]


@dataclass
class DpeConfig:
    alpha_plus: float
    num_scales: int = 2
    st_support: int = 7
    theta_tv_tau: float = 0.02
    coherence_tv_weight: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha_plus) and self.alpha_plus > 1.0):
            raise ValueError("alpha_plus must be finite and > 1")
        if self.num_scales not in (2, 3):
            raise ValueError("num_scales must be 2 or 3")
        if self.st_support < 3 or self.st_support % 2 == 0:
            raise ValueError("st_support must be odd and >= 3")
        for weight in (self.theta_tv_tau, self.coherence_tv_weight):
            if not (math.isfinite(weight) and weight >= 0):
                raise ValueError("regularization weights must be finite and nonnegative")


def _fold_angle(a):
    """Fold the float array a into [0, pi), in place, and return it."""
    out = np.mod(a, np.pi, out=a)
    # mod of a tiny negative can round up to pi exactly
    out[out >= np.pi] = 0.0
    return out


def _minor_angle(sxx, sxy, syy, c):
    """Angle of the minor eigenvector of [[sxx, sxy], [sxy, syy]] in [0, pi).

    The major eigenvector lies at half the angle of (sxx - syy, 2 sxy), and
    the minor one a quarter turn from it.  Where the coherence c is 0 the
    tensor carries no orientation, and the angle is pi/2 there whatever
    the rounding of its entries.
    """
    angle = np.subtract(sxx, syy)
    np.arctan2(2.0 * sxy, angle, out=angle)
    angle *= 0.5
    angle += 0.5 * np.pi
    angle = _fold_angle(angle)
    angle[c == 0.0] = 0.5 * np.pi
    return angle


def _scale_fields(gl, k_index, cfg):
    """Coherence and minor-eigenvector angle of the scale-k structure tensor.

    Each plane is dropped once the next stage no longer reads it, so a call
    holds at most six float64 planes (and a boolean mask) beyond gl.
    """
    var = 2 * k_index - 1
    if var > 1:
        pre = gaussian_kernel(np.sqrt(var), var)
        gl = convolve_channel(gl, pre)
    gf = sobel_grad(gl)
    del gl
    st_kernel = gaussian_kernel(np.sqrt(cfg.st_support), cfg.st_support)
    sxx = convolve_channel(gf.gx * gf.gx, st_kernel)
    sxy = convolve_channel(gf.gx * gf.gy, st_kernel)
    syy = convolve_channel(gf.gy * gf.gy, st_kernel)
    del gf
    lp, lm = eig2x2(sxx, sxy, syy)
    c = coherence(lp, lm)
    del lp, lm
    return c, _minor_angle(sxx, sxy, syy, c)


def tv_regularize_field(field, fidelity_half, tau, box):
    """ROF cleanup of a scalar field under either fidelity convention.

    fidelity_half selects 1/2 ||x - field||^2 + tau TV(x); otherwise the
    fidelity is the full squared norm, equivalent to halving the TV weight.
    A solve (tau > 0) runs on a float32 copy of the field; tau = 0 is the
    float64 clip onto the box.  The result is float64 either way.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    eff = tau if fidelity_half else 0.5 * tau
    dtype = np.float32 if eff > 0 else np.float64
    out = tv_denoise(Image(np.asarray(field, dtype=dtype)[None]), eff, box)
    return np.asarray(out.data[0], dtype=np.float64)


def fuse_scales(prev, new):
    """Keep prev where new <= prev, else average the two."""
    prev = np.asarray(prev, dtype=np.float64)
    new = np.asarray(new, dtype=np.float64)
    if prev.shape != new.shape:
        raise ValueError("shape mismatch")
    return np.where(new <= prev, prev, 0.5 * (prev + new))


def skew_enhance(field):
    """Push a skewed coherence field toward its dominant end.

    With sample skewness g1 > 1 values below the mean are squared (shrinks
    small values); with g1 < -1 each value is replaced by its fourth root,
    squared where that root still exceeds the mean (boosts large values);
    otherwise the field is returned unchanged.
    """
    field = np.asarray(field, dtype=np.float64)
    if field.std() <= 1e-9:
        # skewness of a (near-)constant field is undefined
        return field.copy()
    # biased sample skewness m3 / m2^1.5, the central moments taken as
    # scipy.stats.skew takes them
    flat = field.ravel()
    dev = flat - flat.mean()
    sq = dev**2
    g1 = float(np.mean(sq * dev) / np.mean(sq) ** 1.5)
    mu = float(field.mean())
    if g1 > 1.0:
        return np.where(field < mu, field * field, field)
    if g1 < -1.0:
        root = field**0.25
        return np.where(root > mu, root * root, root)
    return field.copy()


@dataclass
class DpeFields:
    """The two fields one analysis leaves: the skew-enhanced fusion of the
    cleaned coherences, and the cleaned orientation theta.

    directional_params() applies only the final affine range map to the
    coherence, so one analysis serves any number of alpha_plus values.
    """

    coherence: np.ndarray
    theta: np.ndarray

    def alpha_minus(self, alpha_plus):
        phi = self.coherence
        lo = float(phi.min())
        hi = float(phi.max())
        if hi - lo <= 1e-12:
            # no directional evidence anywhere: fall back to the isotropic dose
            return np.full(phi.shape, float(alpha_plus))
        am = (alpha_plus - 1.0) / (hi - lo) * (hi - phi) + 1.0
        return np.clip(am, 1.0, alpha_plus)

    def directional_params(self, alpha_plus):
        return DirectionalParams(alpha_plus, self.alpha_minus(alpha_plus), self.theta)


def analyze(g, cfg):
    """Run the full multi-scale pipeline once; alpha_plus-independent.

    Each scale updates three planes and drops the rest: the running fusion,
    the largest kappa_hat so far, and the angle at the scale that gave it.
    The last two change only where the new kappa_hat is strictly larger,
    so ties keep the earliest scale.
    """
    gl = to_luminance(g).data[0]
    fused = strongest = theta = None
    for k in range(1, cfg.num_scales + 1):
        c, angle = _scale_fields(gl, k, cfg)
        khat = tv_regularize_field(c, False, cfg.coherence_tv_weight, (0.0, 1.0))
        del c
        if fused is None:
            fused, strongest, theta = khat, khat, angle
            continue
        stronger = khat > strongest
        fused = fuse_scales(fused, khat)
        # strongest no longer aliases fused, which is a new plane
        np.copyto(strongest, khat, where=stronger)
        np.copyto(theta, angle, where=stronger)
        # released before the next scale's structure tensor is built
        del khat, angle, stronger
    del strongest
    theta = tv_regularize_field(theta, True, cfg.theta_tv_tau, (0.0, np.pi))
    return DpeFields(skew_enhance(fused), _fold_angle(theta))


def estimate(g, cfg):
    """Directional parameters (alpha_plus, alpha_minus, theta) for g."""
    return analyze(g, cfg).directional_params(cfg.alpha_plus)


def eadtv_angles(g, smooth_sigma=1.5):
    """Edge-tangent orientation field: the angle perpendicular to the
    smoothed luminance gradient, folded into [0, pi); 0 where the gradient
    vanishes."""
    if not (math.isfinite(smooth_sigma) and smooth_sigma > 0):
        raise ValueError("smooth_sigma must be positive and finite")
    gl = to_luminance(g).data[0]
    support = 2 * int(np.ceil(3.0 * smooth_sigma)) + 1
    gl = convolve_channel(gl, gaussian_kernel(smooth_sigma, support))
    gf = grad_forward(gl)
    return _fold_angle(np.arctan2(gf.gx, -gf.gy))
