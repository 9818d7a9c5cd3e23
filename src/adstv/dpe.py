"""Directional parameter estimation from multi-scale coherence analysis.

The estimator turns a (possibly noisy) image into the two per-pixel fields
the steered solver consumes: an orientation field theta in [0, pi) and an
anisotropy-dose field alpha_minus in [1, alpha_plus].  The pipeline, per
scale k = 1..K with pre-smoothing variance 2k - 1:

  1. smooth the luminance, take Sobel gradients, build the structure tensor
     with a wide Gaussian (std sqrt(st_support), support st_support), and
     measure the eigenvalue coherence c in [0, 1]; every smoothing and both
     Sobel derivatives run as one 1-D correlation pass per axis;
  2. clean c with a TV solve (full squared fidelity, TV weight
     COHERENCE_TV_WEIGHT = 1) on the [0, 1] box, giving kappa_hat;
  3. fuse across scales: keep the previous value where the new one is not
     larger, otherwise average.

After the last scale, if the fused field is strongly skewed (|skewness| >
1), its mass is pushed toward the appropriate end through the
square/fourth-root rule.  alpha_minus is the affine map sending the largest
enhanced coherence to 1 (strong orientation, full anisotropic dose) and the
smallest to alpha_plus (isotropic smoothing).  theta takes the minor
eigenvector angle at the scale with the strongest kappa_hat per pixel (the
first such scale on a tie), then gets its own light TV cleanup (half
fidelity, weight THETA_TV_TAU = 0.02) and is folded back into [0, pi).
The scales are streamed: analyze keeps only the running fusion, the
largest kappa_hat so far and its angle from one scale to the next.

The angle comes from the tensor entries alone, as half the double angle
atan2(2 sxy, sxx - syy) turned by pi/2, with no eigenvectors.  Where the
coherence is 0 (an isotropic tensor, or lambda_plus <= 1e-12, as in flat
regions) the angle is pi/2: a tie rule that does not depend on the rounding
of a tensor that is zero up to a few ulps.

The TV cleanups run in float32 and return float64 fields.  The cleaned
fields only steer a float64 solve, and float32 resolution (6e-8) lies far
below the error a cleanup still carries at its iteration cap; the
structure tensors and everything after the cleanups stay float64.

A coherence cleanup starts on a grid 2x coarser (after Chan and Chen,
"An optimization-based multilevel algorithm for total variation image
denoising", Multiscale Model. Simul. 2006): CLEANUP_COARSE_ITERS (40)
iterations on the 2x2 means of the field at half the TV weight, then
CLEANUP_FINE_ITERS (25) on the field itself from the coarse dual,
upsampled by nearest neighbour.  The dual feasible set is a product of
per-pixel balls, so the upsampled dual is feasible; TV scales with the grid
step and the fidelity with its square, so the coarse problem has half the
weight.  That costs about 35 fine iterations and leaves a smaller duality
gap than 60 cold ones.  The theta cleanup, and a coherence cleanup of a
field shorter than COARSE_MIN_SIDE on a side, run CLEANUP_MAX_ITERS (60)
cold iterations: the 2x2 mean of theta is wrong near the 0/pi seam, and
started from a coarse grid its gap on the 96^2 synthetics rose 1.5 to 3.7
times.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .diffops import convolve_channel, gaussian_kernel, grad_forward, sobel_grad
from .image import Image, to_luminance
from .tensor import DirectionalParams, coherence, dual_field, eig2x2, upsample_dual
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


# Iteration cap of a cold TV cleanup: the theta cleanup, and a coherence
# cleanup of a field too small for a coarse level.  With the step L = 8 tau,
# 60 iterations leave each cleanup's relative duality gap (P - D) / P at or
# below that of 100 iterations at the former 16 sqrt(2) tau step: on the
# noisy 512^2 benchmark scene at sigma 0.2 the theta cleanup read 1.3e-4
# against 2.0e-4.  tests/test_dpe.py checks the same on the three 96^2
# synthetics at sigma 0.1 and 0.2.
CLEANUP_MAX_ITERS = 60

# Iterations of the two levels of a coherence cleanup, and the shortest
# side a field needs for the coarse level.  A coarse iteration costs a
# quarter of a fine one, so 40 + 25 cost about 35 fine iterations.  The
# relative gaps of the three coherence cleanups of the 512^2 scene at
# sigma 0.2 (seed 1), against 60 cold iterations:
#
#     coarse + fine    scale 1   scale 2   scale 3
#     0 + 60 (cold)    0.160     0.127     0.105
#     30 + 30          0.079     0.066     0.057
#     40 + 25          0.071     0.061     0.053
#     50 + 20          0.081     0.069     0.061
#
# On the 96^2 synthetics (15 coherence cleanups, sigma 0.1 and 0.2) 40 + 25
# leaves 0.44 to 0.65 times the cold gap.  Below 32 pixels a side the
# coarse grid carries too little: on noisy gratings 4 of 12 cleanups at
# 16^2 ended above their cold gap (up to 1.6 times), and none of 36 at 24^2
# to 48^2.
CLEANUP_COARSE_ITERS = 40
CLEANUP_FINE_ITERS = 25
COARSE_MIN_SIDE = 32

# TV weights of the two cleanups: the coherence cleanup's under the full
# squared fidelity, and the theta cleanup's under the half fidelity.
COHERENCE_TV_WEIGHT = 1.0
THETA_TV_TAU = 0.02

# Gaussian sigma of the luminance smoothing of eadtv_angles, bench and the CLI.
EADTV_SMOOTH_SIGMA = 1.5


@dataclass
class DpeConfig:
    alpha_plus: float
    num_scales: int = 2
    st_support: int = 7

    def __post_init__(self):
        if not (math.isfinite(self.alpha_plus) and self.alpha_plus > 1.0):
            raise ValueError("alpha_plus must be finite and > 1")
        # 2.0 would compare equal to 2, and 7.5 would run as support 7
        if not isinstance(self.num_scales, numbers.Integral) or self.num_scales not in (2, 3):
            raise ValueError("num_scales must be the integer 2 or 3, got %r" % (self.num_scales,))
        if (not isinstance(self.st_support, numbers.Integral) or self.st_support < 3
                or self.st_support % 2 == 0):
            raise ValueError("st_support must be an odd integer >= 3, got %r"
                             % (self.st_support,))


def _fold_angle(a):
    """Fold the float array a, whose values lie in [-pi, pi], into [0, pi),
    in place, and return it.

    On that range this is np.mod(a, pi) with pi mapped to 0, bit for bit:
    pi is added where a's sign bit is set, so -0.0 (like +0.0) ends as
    +0.0, and a sum that rounds up to pi, or pi itself, becomes 0.
    """
    np.add(a, np.pi, out=a, where=np.signbit(a))
    np.copyto(a, 0.0, where=a >= np.pi)
    return a


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


def _luminance_plane(g):
    """The luminance of g as one plane that is only read: a gray image's
    own plane, with no copy."""
    return g.data[0] if g.channels == 1 else to_luminance(g).data[0]


def _scale_fields(gl, k_index, cfg):
    """Coherence and minor-eigenvector angle of the scale-k structure tensor.

    Each plane is dropped once the next stage no longer reads it, so a call
    holds at most six float64 planes (and a boolean mask) beyond gl.
    """
    var = 2 * k_index - 1
    if var > 1:
        pre = gaussian_kernel(np.sqrt(var), var)
        gl = convolve_channel(gl, pre)
    gx, gy = sobel_grad(gl)
    del gl
    st_kernel = gaussian_kernel(np.sqrt(cfg.st_support), cfg.st_support)
    sxx = convolve_channel(gx * gx, st_kernel)
    sxy = convolve_channel(gx * gy, st_kernel)
    syy = convolve_channel(gy * gy, st_kernel)
    del gx, gy
    lp, lm = eig2x2(sxx, sxy, syy)
    c = coherence(lp, lm)
    del lp, lm
    return c, _minor_angle(sxx, sxy, syy, c)


def tv_regularize_field(field, fidelity_half, tau, box):
    """ROF cleanup of a scalar field under either fidelity convention.

    fidelity_half selects 1/2 ||x - field||^2 + tau TV(x); otherwise the
    fidelity is the full squared norm, equivalent to halving the TV weight.
    A solve (tau > 0) runs on the field in float32 (a copy unless it is
    float32 already); tau = 0 is the float64 clip onto the box.  The result
    is float64 either way.

    A half-fidelity solve (the theta cleanup) runs CLEANUP_MAX_ITERS
    iterations, and takes no duality gap.  A full-fidelity solve (a
    coherence cleanup) on a field whose sides are all COARSE_MIN_SIDE or
    longer runs on two grids: CLEANUP_COARSE_ITERS iterations on the 2x2
    means of the field at half the TV weight, then CLEANUP_FINE_ITERS on
    the field itself from the coarse dual upsampled; a smaller field gets
    the CLEANUP_MAX_ITERS iterations of the theta cleanup.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    eff = tau if fidelity_half else 0.5 * tau
    dtype = np.float32 if eff > 0 else np.float64
    field = np.asarray(field, dtype=dtype)
    dual = None
    iters = CLEANUP_MAX_ITERS
    if not fidelity_half and eff > 0 and min(field.shape) >= COARSE_MIN_SIDE:
        # TV scales with the grid step and the fidelity with its square, so
        # the same problem on a grid 2x coarser has half the weight; an odd
        # last row or column is left out of the 2x2 means
        hc, wc = field.shape[0] // 2, field.shape[1] // 2
        means = field[: 2 * hc, : 2 * wc].reshape(hc, 2, wc, 2).mean(axis=(1, 3))
        coarse = dual_field(1, hc, wc, dtype)
        tv_denoise(Image(means[None]), 0.5 * eff, box, max_iters=CLEANUP_COARSE_ITERS,
                   dual=coarse)
        dual = upsample_dual(coarse, *field.shape)
        del means, coarse
        iters = CLEANUP_FINE_ITERS
    out = tv_denoise(Image(field[None]), eff, box, max_iters=iters, dual=dual)
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
    gl = _luminance_plane(g)
    fused = strongest = theta = None
    for k in range(1, cfg.num_scales + 1):
        c, angle = _scale_fields(gl, k, cfg)
        # the cleanup solves in float32: cast here, so that the float64
        # plane is released before the solve runs
        c = c.astype(np.float32)
        khat = tv_regularize_field(c, False, COHERENCE_TV_WEIGHT, (0.0, 1.0))
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
    theta = tv_regularize_field(theta, True, THETA_TV_TAU, (0.0, np.pi))
    return DpeFields(skew_enhance(fused), _fold_angle(theta))


def estimate(g, cfg):
    """Directional parameters (alpha_plus, alpha_minus, theta) for g."""
    return analyze(g, cfg).directional_params(cfg.alpha_plus)


def eadtv_angles(g, smooth_sigma=EADTV_SMOOTH_SIGMA):
    """Edge-tangent orientation field: the angle perpendicular to the
    smoothed luminance gradient, folded into [0, pi); 0 where the gradient
    vanishes."""
    if not (math.isfinite(smooth_sigma) and smooth_sigma > 0):
        raise ValueError("smooth_sigma must be positive and finite")
    gl = _luminance_plane(g)
    support = 2 * int(np.ceil(3.0 * smooth_sigma)) + 1
    gl = convolve_channel(gl, gaussian_kernel(smooth_sigma, support))
    gx, gy = grad_forward(gl)
    return _fold_angle(np.arctan2(gx, -gy))
