import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from adstv import Image, dpe, solver
from adstv.bench import derive_seed
from adstv.diffops import convolve_channel, delta_kernel, gaussian_kernel, sobel_grad
from adstv.dpe import (
    DpeConfig,
    DpeFields,
    analyze,
    eadtv_angles,
    estimate,
    fuse_scales,
    skew_enhance,
    tv_regularize_field,
)
from adstv.image import NoiseSpec, add_gaussian_noise, to_luminance
from adstv.solver import SolverConfig, dual_objective, primal_energy, solve, tv_denoise
from adstv.tensor import coherence, dual_field, eig2x2

from conftest import analyze_stages, minor_angle, rand_image, reference_solve, stripe_image
from test_acceptance import synthetic_images


def scale_fields(g, cfg, k):
    """Raw coherence and angle of g's luminance at scale k, as analyze
    takes them."""
    return dpe._scale_fields(to_luminance(g).data[0], k, cfg)


def angle_dist(a, b):
    """Distance between orientations identified modulo pi."""
    d = np.abs(a - b) % np.pi
    return np.minimum(d, np.pi - d)


def test_config_validation():
    cfg = DpeConfig(alpha_plus=3.0)
    assert cfg.num_scales == 2 and cfg.st_support == 7
    for bad in (dict(alpha_plus=1.0), dict(alpha_plus=3.0, num_scales=4),
                dict(alpha_plus=3.0, num_scales=1), dict(alpha_plus=3.0, st_support=4),
                dict(alpha_plus=3.0, st_support=1), dict(alpha_plus=3.0, num_scales=2.0),
                dict(alpha_plus=3.0, st_support=7.5), dict(alpha_plus=3.0, st_support=7.0)):
        with pytest.raises(ValueError):
            DpeConfig(**bad)
    cfg = DpeConfig(alpha_plus=3.0, num_scales=np.int32(3), st_support=np.int64(9))
    assert (cfg.num_scales, cfg.st_support) == (3, 9)


def test_config_rejects_non_finite():
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError):
            DpeConfig(alpha_plus=value)


def test_coherence_constant_image_is_zero():
    cfg = DpeConfig(alpha_plus=3.0)
    g = Image(np.full((1, 16, 16), 0.5))
    for k in (1, 2):
        np.testing.assert_array_equal(scale_fields(g, cfg, k)[0], 0.0)


def test_coherence_stripes_near_one():
    cfg = DpeConfig(alpha_plus=3.0)
    g = stripe_image(32, 32, np.pi / 2)
    c = scale_fields(g, cfg, 1)[0]
    assert c.shape == (32, 32)
    assert c[8:-8, 8:-8].min() > 0.99


def test_coherence_matches_dense_eigendecomposition():
    # same smoothing path, but eigenvalues from LAPACK instead of the
    # closed-form 2x2 solver
    rng = np.random.default_rng(20)
    cfg = DpeConfig(alpha_plus=3.0)
    g = rand_image(rng, 14, 14)
    gx, gy = sobel_grad(g.data[0])
    kst = gaussian_kernel(np.sqrt(cfg.st_support), cfg.st_support)
    sxx = convolve_channel(gx * gx, kst)
    sxy = convolve_channel(gx * gy, kst)
    syy = convolve_channel(gy * gy, kst)
    mats = np.stack(
        [np.stack([sxx, sxy], -1), np.stack([sxy, syy], -1)], -2
    )
    lm, lp = np.linalg.eigvalsh(mats)[..., 0], np.linalg.eigvalsh(mats)[..., 1]
    expected = np.clip((lp - lm) / np.maximum(lp, 1e-12), 0.0, 1.0)
    np.testing.assert_allclose(scale_fields(g, cfg, 1)[0], expected, atol=1e-9)


def test_minor_angle_matches_eigh_eigenvector():
    rng = np.random.default_rng(40)
    a = rng.standard_normal((400, 2, 2))
    u = rng.standard_normal((200, 2)) * rng.uniform(0.01, 100.0, (200, 1))
    mats = np.concatenate([a @ a.transpose(0, 2, 1),        # random PSD
                           u[:, :, None] * u[:, None, :]])  # rank one
    theta = minor_angle(mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 1])
    assert ((theta >= 0.0) & (theta < np.pi)).all()
    vec = np.linalg.eigh(mats)[1][..., 0]
    assert angle_dist(theta, np.arctan2(vec[:, 1], vec[:, 0])).max() <= 1e-12
    # zero and isotropic tensors: every unit vector is a minor eigenvector
    # (eigh returns the x axis), and the tie rule gives pi/2
    flat = np.stack([s * np.eye(2) for s in (0.0, 1e-20, 1e-13, 1.0, 3.5, 1e5)])
    theta = minor_angle(flat[:, 0, 0], flat[:, 0, 1], flat[:, 1, 1])
    np.testing.assert_array_equal(theta, np.pi / 2)


def test_minor_angle_is_half_pi_where_coherence_is_zero():
    rng = np.random.default_rng(41)
    a = rng.standard_normal((300, 2, 2))
    mats = a @ a.transpose(0, 2, 1)
    # rescaled so that 0 < lambda_plus <= 1e-12, where coherence is 0
    top = np.linalg.eigvalsh(mats)[:, 1]
    tiny = mats * (rng.uniform(0.01, 0.99, 300) * 1e-12 / top)[:, None, None]
    entries = tiny[:, 0, 0], tiny[:, 0, 1], tiny[:, 1, 1]
    lp, lm = eig2x2(*entries)
    assert ((lp > 0.0) & (lp <= 1e-12)).all()
    assert not coherence(lp, lm).any()
    np.testing.assert_array_equal(minor_angle(*entries), np.pi / 2)
    # through the pipeline: the flat half of a gray image and of its
    # three-channel copy have zero coherence and the same angle
    cfg = DpeConfig(alpha_plus=3.0, num_scales=3)
    mono = striped_and_flat(48, 48, np.pi / 2)
    for g in (mono, Image(np.repeat(mono.data, 3, axis=0))):
        for k in (1, 2, 3):
            c, angle = scale_fields(g, cfg, k)
            assert (c[:, 30:] == 0.0).any()
            np.testing.assert_array_equal(angle[c == 0.0], np.pi / 2)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fold_angle_is_mod_pi_bit_for_bit(dtype):
    # _fold_angle against np.mod(a, pi) with pi then mapped to 0, the sign
    # of zero included (np.mod folds -0.0 to +0.0), over [-pi, pi]
    pi = dtype(np.pi)
    tiny = np.finfo(dtype).smallest_subnormal
    edges = np.array([-np.pi, -pi, -np.nextafter(pi, 0), -1.0, -0.0, 0.0, -tiny, -2 * tiny,
                      tiny, -np.finfo(dtype).tiny, np.nextafter(pi, 0), pi, np.pi, 1.0], dtype)
    rng = np.random.default_rng(44)
    for a in (edges, rng.uniform(-np.pi, np.pi, 10000).astype(dtype)):
        want = np.mod(a, np.pi)
        want[want >= np.pi] = 0.0
        got = dpe._fold_angle(a.copy())
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
        assert ((got >= 0.0) & (got < np.pi)).all()


def test_scale_fields_memory_bound():
    # The planes a 256^2 call holds at once beyond its input, stage by
    # stage: the pre-smoothed plane and the Sobel pair (3); the Sobel pair,
    # two smoothed products, a product and its smoothing (6); the three
    # smoothed products and the three eig2x2 planes (6); the products,
    # both eigenvalues and the coherence (6); the products, the coherence,
    # the angle and 2 sxy (6).  One more plane covers the boolean masks
    # (1/8 plane each) and the kernels.
    rng = np.random.default_rng(42)
    gl = rng.random((256, 256))
    cfg = DpeConfig(alpha_plus=3.0, num_scales=3, st_support=15)
    plane = gl.nbytes
    bound = 7 * plane
    tracemalloc.start()
    try:
        c, angle = dpe._scale_fields(gl, 3, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.shape == angle.shape == gl.shape
    assert peak <= bound, (peak / plane, bound / plane)


def test_coherence_presmoothing_reduces_noise_response():
    rng = np.random.default_rng(21)
    cfg = DpeConfig(alpha_plus=3.0)
    g = Image(np.clip(rng.normal(0.5, 0.15, (1, 32, 32)), 0, 1))
    c1, c2 = (scale_fields(g, cfg, k)[0] for k in (1, 2))
    assert not np.allclose(c1, c2)
    # pure noise has no true orientation; smoothing damps spurious gradients,
    # and the wide window then sees more balanced energy
    assert c2.mean() != c1.mean()


def test_tv_regularize_field_trivial_cases():
    rng = np.random.default_rng(23)
    field = rng.random((9, 9)) * 1.4 - 0.2
    out = tv_regularize_field(field, True, 0.0, (0.0, 1.0))
    np.testing.assert_array_equal(out, np.clip(field, 0, 1))
    const = np.full((9, 9), 0.3)
    np.testing.assert_allclose(tv_regularize_field(const, True, 0.5, (0.0, 1.0)), 0.3, atol=1e-8)
    with pytest.raises(ValueError):
        tv_regularize_field(field, True, -0.1, (0.0, 1.0))


def test_tv_regularize_field_fidelity_conventions_agree():
    # full squared fidelity with weight t is the same problem as half
    # fidelity with weight t/2, so both paths must coincide exactly on a
    # field too small for the coherence cleanup's coarse level
    rng = np.random.default_rng(24)
    field = rng.random((12, 12))
    assert min(field.shape) < dpe.COARSE_MIN_SIDE
    a = tv_regularize_field(field, False, 0.4, (0.0, 1.0))
    b = tv_regularize_field(field, True, 0.2, (0.0, 1.0))
    np.testing.assert_array_equal(a, b)


def test_tv_regularize_field_solves_in_float32_and_returns_float64(monkeypatch):
    rng = np.random.default_rng(26)
    field = rng.random((24, 24)) * 1.2 - 0.1
    solved = []

    def recording(g, *args, **kwargs):
        solved.append((g.data.dtype, kwargs.get("max_iters")))
        return tv_denoise(g, *args, **kwargs)

    monkeypatch.setattr(dpe, "tv_denoise", recording)
    out = tv_regularize_field(field, True, 0.2, (0.0, 1.0))
    cap = dpe.CLEANUP_MAX_ITERS
    assert solved == [(np.float32, cap)] and out.dtype == np.float64
    ref = tv_denoise(Image(field[None]), 0.2, (0.0, 1.0), max_iters=cap).data[0]
    assert np.abs(out - ref).max() <= 1e-5
    # tau = 0 is the float64 clip, exactly
    clipped = tv_regularize_field(field, False, 0.0, (0.0, 1.0))
    assert solved[1:] == [(np.float64, cap)] and clipped.dtype == np.float64
    np.testing.assert_array_equal(clipped, np.clip(field, 0.0, 1.0))


def test_tv_regularize_field_flattens_noisy_step():
    rng = np.random.default_rng(25)
    step = np.zeros((20, 20))
    step[:, 10:] = 0.8
    noisy = np.clip(step + rng.normal(0, 0.08, step.shape), 0, 1)
    cleaned = tv_regularize_field(noisy, True, 0.1, (0.0, 1.0))
    assert np.abs(cleaned - step).mean() < 0.75 * np.abs(noisy - step).mean()
    # interior plateaus come out nearly flat
    assert cleaned[:, :8].std() < 0.02 and cleaned[:, 12:].std() < 0.02


def test_fuse_scales():
    prev = np.array([0.5, 0.5, 0.2])
    new = np.array([0.5, 0.3, 0.8])
    np.testing.assert_allclose(fuse_scales(prev, new), [0.5, 0.5, 0.5])
    # equal values keep prev (<=), averaging only on strict improvement
    np.testing.assert_allclose(fuse_scales([0.0], [0.0]), [0.0])
    np.testing.assert_allclose(fuse_scales([0.2], [1.0]), [0.6])
    with pytest.raises(ValueError):
        fuse_scales(np.zeros(3), np.zeros(4))


def test_skew_enhance_positive_branch():
    # 90 low / 10 high: sample skewness (1 - 2p)/sqrt(p(1-p)) = 2.67 > 1,
    # so below-mean values get squared and the rest pass through
    field = np.full(100, 0.2)
    field[:10] = 0.9
    out = skew_enhance(field)
    np.testing.assert_allclose(out[10:], 0.04, atol=1e-12)
    np.testing.assert_allclose(out[:10], 0.9, atol=1e-12)


def test_skew_enhance_negative_branch():
    # mirrored mass: skewness -2.67 < -1; fourth root everywhere, squared
    # again where the root clears the (pre-enhancement) mean
    field = np.full(100, 0.9)
    field[:10] = 0.2
    out = skew_enhance(field)
    np.testing.assert_allclose(out[10:], np.sqrt(0.9), atol=1e-12)
    np.testing.assert_allclose(out[:10], 0.2**0.25, atol=1e-12)
    # worked spot check: 0.0625 -> fourth root 0.5
    field = np.full(100, 0.9)
    field[:10] = 0.0625
    out = skew_enhance(field)
    np.testing.assert_allclose(out[:10], 0.5, atol=1e-12)


def test_skew_enhance_branches_follow_scipy_skewness():
    # one 64^2 field per branch, and two-level fields whose skewness is
    # within 0.3% of +-1; the branch and the output follow the skewness
    # that scipy.stats.skew reports
    from scipy import stats

    rng = np.random.default_rng(27)
    u = rng.random((64, 64))
    cases = [(u**4, 1), (1.0 - u**4, -1), (u, 0)]
    for high, branch in ((276, 1), (277, 0)):
        # skewness (1 - 2p) / sqrt(p (1 - p)) with p = high / 1000
        field = np.full(1000, 0.2)
        field[:high] = 0.9
        cases += [(field, branch), (1.1 - field, -branch)]
    for field, branch in cases:
        g1 = stats.skew(field.ravel())
        assert (g1 > 1.0, g1 < -1.0) == (branch == 1, branch == -1)
        mu = field.mean()
        if branch == 1:
            expected = np.where(field < mu, field * field, field)
        elif branch == -1:
            root = field**0.25
            expected = np.where(root > mu, root * root, root)
        else:
            expected = field
        np.testing.assert_array_equal(skew_enhance(field), expected)


def test_skew_enhance_symmetric_passthrough():
    rng = np.random.default_rng(26)
    field = rng.uniform(0.2, 0.8, (8, 8))
    out = skew_enhance(field)
    np.testing.assert_array_equal(out, field)
    assert out is not field
    # unit interval is preserved by every branch
    spiky = np.full((50,), 0.05)
    spiky[:3] = 0.95
    assert skew_enhance(spiky).min() >= 0.0 and skew_enhance(spiky).max() <= 1.0


def test_alpha_minus_range_map():
    phi = np.array([[0.0, 0.5], [1.0, 0.25]])
    fields = DpeFields(phi, np.zeros((2, 2)))
    am = fields.alpha_minus(5.0)
    np.testing.assert_allclose(am, [[5.0, 3.0], [1.0, 4.0]])
    # constant coherence carries no evidence: fall back to isotropic dose
    flat = DpeFields(np.full((2, 2), 0.4), np.zeros((2, 2)))
    np.testing.assert_array_equal(flat.alpha_minus(3.0), 3.0)
    dp = fields.directional_params(5.0)
    assert dp.alpha_plus == 5.0
    np.testing.assert_allclose(dp.alpha_minus, am)


def striped_and_flat(h, w, tangent_angle):
    """Left half oriented stripes, right half flat: coherence spans its
    full range so the affine dose map is non-degenerate."""
    g = stripe_image(h, w, tangent_angle)
    data = g.data.copy()
    data[:, :, w // 2 :] = 0.5
    return Image(data)


def test_estimate_striped_vs_flat_regions():
    cfg = DpeConfig(alpha_plus=4.0)
    h = w = 64
    g = striped_and_flat(h, w, np.pi / 2)
    dp = estimate(g, cfg)
    assert dp.alpha_plus == 4.0
    stripes = np.s_[16:-16, 8 : w // 2 - 12]
    flat = np.s_[16:-16, w // 2 + 12 : -8]
    assert np.all(angle_dist(dp.theta[stripes], np.pi / 2) < 0.05)
    # strong orientation earns a small dose, no evidence a large one
    assert dp.alpha_minus[stripes].max() < 1.5
    assert dp.alpha_minus[flat].min() > 3.5
    # exact range map: both endpoints are attained somewhere
    assert dp.alpha_minus.min() == pytest.approx(1.0)
    assert dp.alpha_minus.max() == pytest.approx(4.0)


def test_estimate_horizontal_stripes():
    cfg = DpeConfig(alpha_plus=4.0)
    g = striped_and_flat(64, 64, 0.0)
    dp = estimate(g, cfg)
    stripes = np.s_[16:-16, 8:20]
    assert np.all(angle_dist(dp.theta[stripes], 0.0) < 0.05)
    assert dp.alpha_minus[stripes].max() < 1.5


def test_estimate_uniform_coherence_is_isotropic():
    # wall-to-wall stripes leave the coherence field constant; with no
    # contrast to map, every pixel falls back to the isotropic dose
    cfg = DpeConfig(alpha_plus=4.0)
    g = stripe_image(48, 48, np.pi / 2)
    dp = estimate(g, cfg)
    interior = np.s_[12:-12, 12:-12]
    assert np.all(angle_dist(dp.theta[interior], np.pi / 2) < 0.05)
    if dp.alpha_minus.std() <= 1e-9:
        np.testing.assert_allclose(dp.alpha_minus, 4.0)


def test_estimate_oblique_stripes():
    cfg = DpeConfig(alpha_plus=4.0)
    target = np.pi / 3
    g = stripe_image(48, 48, target)
    dp = estimate(g, cfg)
    interior = np.s_[12:-12, 12:-12]
    assert np.median(angle_dist(dp.theta[interior], target)) < 0.1


def test_estimate_color_image_uses_luminance():
    cfg = DpeConfig(alpha_plus=3.0)
    mono = striped_and_flat(48, 48, np.pi / 2)
    color = Image(np.repeat(mono.data, 3, axis=0))
    a = estimate(mono, cfg)
    b = estimate(color, cfg)
    np.testing.assert_allclose(a.theta, b.theta, atol=1e-12)
    np.testing.assert_allclose(a.alpha_minus, b.alpha_minus, atol=1e-12)


def test_analyze_field_shapes_ranges_and_determinism():
    rng = np.random.default_rng(27)
    cfg = DpeConfig(alpha_plus=3.0, num_scales=3)
    g = rand_image(rng, 20, 20, 3)
    stages = analyze_stages(g, cfg)
    for group in (stages.coherence_raw, stages.coherence_tv,
                  stages.coherence_fused, stages.coherence_enhanced,
                  stages.angle_at_scale):
        assert len(group) == 3
        for arr in group:
            assert arr.shape == (20, 20)
    for arr in stages.coherence_raw + stages.coherence_tv + stages.coherence_fused:
        assert arr.min() >= 0.0 and arr.max() <= 1.0
    fields = analyze(g, cfg)
    assert fields.coherence.shape == fields.theta.shape == (20, 20)
    assert fields.theta.min() >= 0.0 and fields.theta.max() < np.pi
    again = analyze(g, cfg)
    np.testing.assert_array_equal(fields.theta, again.theta)
    np.testing.assert_array_equal(fields.coherence, again.coherence)


def test_analyze_fusion_never_decreases():
    rng = np.random.default_rng(28)
    cfg = DpeConfig(alpha_plus=3.0, num_scales=3)
    g = rand_image(rng, 16, 16)
    fused = analyze_stages(g, cfg).coherence_fused
    assert (fused[1] >= fused[0] - 1e-12).all()
    assert (fused[2] >= fused[1] - 1e-12).all()


def assert_analyze_matches_oracle(g, cfg):
    fields = analyze(g, cfg)
    stages = analyze_stages(g, cfg)
    np.testing.assert_array_equal(fields.coherence, stages.coherence_enhanced[-1])
    np.testing.assert_array_equal(fields.theta, stages.theta)
    return stages


@pytest.mark.parametrize("h, w", [(1, 1), (7, 3), (48, 40)], ids=["1x1", "7x3", "48x40"])
@pytest.mark.parametrize("channels", [1, 3], ids=["gray", "rgb"])
@pytest.mark.parametrize("scales", [2, 3], ids=["2scales", "3scales"])
def test_analyze_matches_list_keeping_oracle(h, w, channels, scales):
    assert [f.name for f in dataclasses.fields(DpeFields)] == ["coherence", "theta"]
    rng = np.random.default_rng(1000 * h + 10 * channels + scales)
    g = striped_and_flat(h, w, np.pi / 3) if w > 1 else rand_image(rng, h, w)
    noisy = np.clip(g.data + rng.normal(0.0, 0.1, g.data.shape), 0.0, 1.0)
    g = Image(np.repeat(noisy, channels, axis=0) * rng.uniform(0.8, 1.0, (channels, 1, 1)))
    assert_analyze_matches_oracle(g, DpeConfig(alpha_plus=3.0, num_scales=scales))


def test_analyze_ties_keep_the_first_scale(monkeypatch, capsys):
    # kappa_hat rounded to eighths ties between scales at many pixels; the
    # angle must come from the first scale of the largest value, as
    # np.argmax over the stacked kappa_hat takes it
    cleanup = dpe.tv_regularize_field

    def coarse(field, fidelity_half, tau, box):
        out = cleanup(field, fidelity_half, tau, box)
        return np.round(out * 8.0) / 8.0 if box == (0.0, 1.0) else out

    monkeypatch.setattr(dpe, "tv_regularize_field", coarse)
    rng = np.random.default_rng(29)
    g = Image(np.clip(striped_and_flat(48, 40, np.pi / 4).data
                      + rng.normal(0.0, 0.1, (1, 48, 40)), 0.0, 1.0))
    stages = assert_analyze_matches_oracle(g, DpeConfig(alpha_plus=3.0, num_scales=3))
    khat = np.stack(stages.coherence_tv)
    angles = np.stack(stages.angle_at_scale)
    top = khat.max(axis=0)
    at_top = khat == top
    # pixels where two or more scales reach the maximum with different angles
    tied = (at_top.sum(axis=0) > 1) & (
        np.where(at_top, angles, np.inf).min(axis=0)
        != np.where(at_top, angles, -np.inf).max(axis=0))
    with capsys.disabled():
        print("\nanalyze tie case: %d of %d pixels tie between scales with "
              "different angles" % (tied.sum(), tied.size))
    assert tied.sum() > 0


def test_analyze_memory_bound(monkeypatch):
    # The planes a 256^2 three-scale call on a gray image holds at once:
    # from one scale to the next, the running fusion, the largest kappa_hat
    # and its angle (3); the luminance is the image's own plane.  Inside a
    # scale the largest demand is _scale_fields, at most 7 planes beyond
    # its input (test_scale_fields_memory_bound).  A coherence cleanup
    # starts with those 3, the angle and the float32 c held (4.5; 1/8 more
    # covers kernels and small objects), and its fine solve takes 4.6 more:
    # two dual fields (2, the upsampled coarse dual among them), two
    # iterates (1), two scratch planes (1), a mask (1/8) and its result
    # (0.5); the coarse solve before it takes a quarter of that.  Fusing
    # needs 2 planes and a mask, and the theta cleanup and skew_enhance run
    # with 2 planes held.
    rng = np.random.default_rng(43)
    g = Image(rng.random((1, 256, 256)))
    cfg = DpeConfig(alpha_plus=3.0, num_scales=3, st_support=15)
    plane = g.data.nbytes
    bound = (3 + 7) * plane
    held = []
    cleanup = dpe.tv_regularize_field

    def measured(field, fidelity_half, tau, box):
        if not fidelity_half:
            held.append(tracemalloc.get_traced_memory()[0])
        return cleanup(field, fidelity_half, tau, box)

    monkeypatch.setattr(dpe, "tv_regularize_field", measured)
    tracemalloc.start()
    try:
        fields = analyze(g, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fields.theta.shape == (256, 256) and len(held) == 3
    assert peak <= bound, (peak / plane, bound / plane)
    assert max(held) <= 4.625 * plane, [h / plane for h in held]


def relative_gap(g, z, psi, cfg):
    """Relative duality gap (P - D) / P of a TV cleanup of the float32
    image g at the iterate z and the dual field psi, both taken in
    float64."""
    g64 = Image(g.data.astype(np.float64))
    primal = primal_energy(Image(np.asarray(z, np.float64).reshape(g.shape)), g64, None, cfg)
    return (primal - dual_objective(np.asarray(psi, np.float64), g64, None, cfg)) / primal


def cold_gap(g, cfg, lip=None):
    """The relative gap a cold cleanup of g leaves: run by solve, or by the
    fresh-array reference at the scalar step lip when given."""
    dual = dual_field(1, g.height, g.width, g.data.dtype)
    if lip is None:
        z = solve(g, None, cfg, dual=dual).image.data
    else:
        z = reference_solve(g, None, cfg, lip=lip, dual=dual)[0]
    return relative_gap(g, z, dual, cfg)


@pytest.mark.parametrize("sigma", [0.1, 0.2])
def test_cleanups_keep_their_certified_gap_at_the_lower_cap(monkeypatch, capsys, sigma):
    # Every TV cleanup of analyze on the three 96^2 synthetics, at the
    # settings of the acceptance sweep, certified from the field it returned
    # and its own final dual.  Each must leave a relative duality gap no
    # larger than 100 iterations at the former step 16 sqrt(2) tau left; a
    # coherence cleanup (coarse and fine level) no larger than a cold
    # CLEANUP_MAX_ITERS solve leaves; and the theta cleanup is that cold
    # solve, bit for bit.
    solves, cleanups = [], []
    denoise = dpe.tv_denoise
    cleanup = dpe.tv_regularize_field

    def recording_denoise(g, tau, box, max_iters, dual=None):
        if dual is None:
            # the zero start is the cold start; the buffer keeps the final dual
            dual = dual_field(1, g.height, g.width, g.data.dtype)
        solves.append((g, tau, max_iters, dual))
        return denoise(g, tau, box, max_iters=max_iters, dual=dual)

    def recording_cleanup(field, fidelity_half, tau, box):
        out = cleanup(field, fidelity_half, tau, box)
        # a copy: analyze updates its largest kappa_hat in place
        cleanups.append((box, out.copy(), solves[:]))
        solves.clear()
        return out

    monkeypatch.setattr(dpe, "tv_denoise", recording_denoise)
    monkeypatch.setattr(dpe, "tv_regularize_field", recording_cleanup)
    lines = []
    for name, arr in synthetic_images().items():
        noisy = add_gaussian_noise(Image(arr[None]), NoiseSpec(sigma, derive_seed(name, sigma, 0)))
        cfg = DpeConfig(alpha_plus=2.0, num_scales=2 if sigma < 0.2 else 3, st_support=7)
        cleanups.clear()
        analyze(noisy, cfg)
        assert [box for box, _, _ in cleanups] == [(0.0, 1.0)] * cfg.num_scales + [(0.0, np.pi)]
        for box, out, calls in cleanups:
            g, tau, cap, dual = calls[-1]
            assert g.data.dtype == np.float32
            solver_cfg = SolverConfig(tau=tau, q=2, kernel=delta_kernel(), constraint=box,
                                      max_iters=dpe.CLEANUP_MAX_ITERS)
            new = relative_gap(g, out, dual, solver_cfg)
            old = cold_gap(g, dataclasses.replace(solver_cfg, max_iters=100),
                           lip=16.0 * math.sqrt(2.0) * tau)
            cold = cold_gap(g, solver_cfg)
            theta = box[1] > 1
            lines.append("%s %s: %.3e, %.3e -> %.3e" % (name, "theta" if theta else "coherence",
                                                        old, cold, new))
            assert 0.0 <= new <= old, lines[-1]
            if theta:
                assert len(calls) == 1 and cap == dpe.CLEANUP_MAX_ITERS
                ref = tv_denoise(g, tau, box, max_iters=dpe.CLEANUP_MAX_ITERS)
                assert np.array_equal(out, ref.data[0])
            else:
                (coarse, coarse_tau, coarse_cap, _), = calls[:-1]
                assert coarse.shape == (1, g.height // 2, g.width // 2)
                assert (coarse_tau, coarse_cap, cap) == (
                    0.5 * tau, dpe.CLEANUP_COARSE_ITERS, dpe.CLEANUP_FINE_ITERS)
                assert new <= cold, lines[-1]
    with capsys.disabled():
        print("\ncleanup gaps at sigma %.1f, 100 iterations at 16 sqrt(2) tau, %d cold at "
              "8 tau -> analyze's cleanup:\n  %s"
              % (sigma, dpe.CLEANUP_MAX_ITERS, "\n  ".join(lines)))


def test_analyze_sends_every_cleanup_solve_through_solver_solve(monkeypatch):
    # perfbench's traced run counts solves and iterations at solver.solve:
    # a coarse and a fine solve per coherence cleanup, one for theta
    calls = []
    real = solver.solve

    def counting(g, dp, cfg, **kwargs):
        calls.append((g.shape[1:], cfg.tau, cfg.max_iters))
        return real(g, dp, cfg, **kwargs)

    monkeypatch.setattr(solver, "solve", counting)
    rng = np.random.default_rng(44)
    g = Image(rng.random((1, 65, 47)))
    cfg = DpeConfig(alpha_plus=3.0, num_scales=3)
    analyze(g, cfg)
    coherence_cleanup = [((32, 23), 0.25, dpe.CLEANUP_COARSE_ITERS),
                         ((65, 47), 0.5, dpe.CLEANUP_FINE_ITERS)]
    theta_cleanup = [((65, 47), dpe.THETA_TV_TAU, dpe.CLEANUP_MAX_ITERS)]
    assert calls == coherence_cleanup * 3 + theta_cleanup


@pytest.mark.parametrize("shape", [(1, 1), (7, 3), (2, 40), (31, 64), (97, 95)])
def test_cleanups_of_small_and_odd_fields_are_finite_and_in_the_box(monkeypatch, shape):
    rng = np.random.default_rng(45)
    field = rng.uniform(-0.3, 1.3, shape)
    upsampled = []
    upsample = dpe.upsample_dual

    def recording(coarse, h, w):
        dual = upsample(coarse, h, w)
        # a copy: the fine solve writes its final dual over this one
        upsampled.append(dual.copy())
        return dual

    monkeypatch.setattr(dpe, "upsample_dual", recording)
    for fidelity_half, tau, box in ((False, dpe.COHERENCE_TV_WEIGHT, (0.0, 1.0)),
                                    (True, dpe.THETA_TV_TAU, (0.0, np.pi))):
        out = tv_regularize_field(field, fidelity_half, tau, box)
        assert out.shape == shape and out.dtype == np.float64
        assert np.isfinite(out).all() and out.min() >= box[0] and out.max() <= box[1]
    # only a coherence cleanup of a field at least COARSE_MIN_SIDE on a side
    # starts from a coarse dual, which lies on the unit balls
    assert len(upsampled) == (min(shape) >= dpe.COARSE_MIN_SIDE)
    for dual in upsampled:
        assert dual.shape == (2, 1) + shape
        assert np.sqrt(np.sum(dual.astype(np.float64) ** 2, axis=(0, 1))).max() <= 1.0 + 1e-6


def test_eadtv_angles_axis_aligned_ramps():
    h = w = 24
    y = np.linspace(0, 1, h)[:, None] * np.ones((1, w))
    theta = eadtv_angles(Image(y[None]))
    interior = np.s_[4:-4, 4:-4]
    assert np.all(angle_dist(theta[interior], 0.0) < 1e-6)
    x = np.ones((h, 1)) * np.linspace(0, 1, w)[None, :]
    theta = eadtv_angles(Image(x[None]))
    assert np.all(np.abs(theta[interior] - np.pi / 2) < 1e-6)


def test_eadtv_angles_oblique_ramp():
    h = w = 32
    yy, xx = np.mgrid[0:h, 0:w] / 32.0
    phi = np.pi / 6
    ramp = np.cos(phi) * xx + np.sin(phi) * yy
    theta = eadtv_angles(Image(ramp[None]))
    interior = np.s_[6:-6, 6:-6]
    assert np.all(angle_dist(theta[interior], phi + np.pi / 2) < 0.05)


def test_eadtv_angles_flat_and_validation():
    g = Image(np.full((1, 16, 16), 0.7))
    np.testing.assert_array_equal(eadtv_angles(g), 0.0)
    with pytest.raises(ValueError):
        eadtv_angles(g, smooth_sigma=0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="smooth_sigma"):
            eadtv_angles(g, smooth_sigma=bad)
