import math
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from adstv import Image, solver, tensor
from adstv.bench import derive_seed
from adstv.diffops import delta_kernel, gaussian_kernel
from adstv.solver import (
    GAP_EVERY,
    SolverConfig,
    _project_ball,
    dual_objective,
    primal_energy,
    project_box,
    solve,
    tv_denoise,
)
from adstv.image import NoiseSpec, add_gaussian_noise
from adstv.tensor import (
    DirectionalParams,
    Workspace,
    dual_field,
    jacobian_adjoint_apply,
    jacobian_apply,
    regularizer_value,
)

from conftest import (
    band_rows,
    dual_gradient,
    identity_params,
    iteration_probe,
    pixel_blocks,
    rand_image,
    rand_params,
    reference_solve,
    stripe_image,
)
from test_acceptance import synth_half_oriented


def project_block(m, p):
    """The projection of one (rows, 2) block onto the unit Schatten-p ball."""
    return _project_ball(np.array(m, float).T, p).T


def svd_clamp(m):
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    return (u * np.minimum(s, 1.0)) @ vt


def test_config_validation_and_defaults():
    cfg = SolverConfig(tau=0.1)
    assert [f.name for f in fields(SolverConfig)] == [
        "tau", "q", "max_iters", "rel_tol", "constraint", "kernel"]
    assert cfg.q == 1 and cfg.max_iters == 100
    assert cfg.rel_tol is None  # no duality gap is taken
    assert cfg.constraint == (0.0, 1.0)
    assert cfg.kernel.support == 3
    assert math.isinf(cfg.dual_p)
    assert SolverConfig(tau=0.1, q=2).dual_p == 2
    for bad in (dict(tau=0.0), dict(tau=0.1, q=3), dict(tau=0.1, max_iters=0),
                dict(tau=0.1, rel_tol=0.0), dict(tau=0.1, rel_tol=-1.0),
                dict(tau=0.1, constraint=(1.0, 0.0)), dict(tau=0.1, constraint=(0.0, np.nan)),
                dict(tau=0.1, max_iters=2.5), dict(tau=0.1, max_iters=100.0)):
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    assert SolverConfig(tau=0.1, max_iters=np.int64(7)).max_iters == 7


def test_config_rejects_non_finite():
    for value in (math.nan, math.inf):
        for bad in (dict(tau=value), dict(tau=0.1, rel_tol=value)):
            with pytest.raises(ValueError):
                SolverConfig(**bad)


def dense_jacobian(h, w, kernel, dp):
    """J of one (h, w) channel as a (taps * 2 * h * w, h * w) matrix, from
    one call on the identity stacked as h * w channels."""
    n = h * w
    basis = np.eye(n).reshape(n, h, w)
    field = jacobian_apply(basis, kernel, dp)
    taps = kernel.support**2
    return field.reshape(2, n, taps * h * w).transpose(0, 2, 1).reshape(-1, n)


NORM_SHAPES = [(1, 2), (2, 1), (1, 7), (2, 3), (3, 3), (4, 6), (5, 5), (7, 4), (9, 8), (16, 9)]


@pytest.mark.parametrize("support", [1, 3, 5, 7])
def test_patch_jacobian_norm_is_within_the_scalar_step_bound(support, capsys):
    # The solver's step L = 8 tau (alpha_plus)^2 rests on ||J||^2 <= 8
    # (alpha_plus)^2 for every kernel (its weights sum to 1), steered or
    # not; 8 bounds the forward-difference gradient with Neumann edges
    rng = np.random.default_rng(60 + support)
    kernel = delta_kernel() if support == 1 else gaussian_kernel(0.4 * support, support)
    worst = 0.0
    for h, w in NORM_SHAPES:
        cases = [None, identity_params((h, w))]
        cases += [rand_params(rng, h, w, alpha_plus=ap) for ap in (1.5, 4.0, 30.0)]
        for dp in cases:
            ap = 1.0 if dp is None else dp.alpha_plus
            sigma = np.linalg.norm(dense_jacobian(h, w, kernel, dp), 2)
            ratio = sigma**2 / ap**2
            worst = max(worst, ratio)
            assert ratio <= 8.0, ((h, w), ap, ratio)
    with capsys.disabled():
        print("\nsupport %d: largest ||J||^2 / alpha_plus^2 = %.4f" % (support, worst))


def test_project_box():
    img = Image(np.array([[[-0.2, 0.4], [1.3, 1.0]]]))
    out = project_box(img, (0.0, 1.0))
    np.testing.assert_array_equal(out.data, [[[0.0, 0.4], [1.0, 1.0]]])
    np.testing.assert_array_equal(project_box(out, (0.0, 1.0)).data, out.data)
    np.testing.assert_array_equal(project_box(img, None).data, img.data)


@pytest.mark.parametrize("box", [(1.0, 0.0), (0.5, 0.5), (np.nan, 1.0), (0.0, np.nan)])
def test_project_box_and_tv_denoise_refuse_an_empty_or_nan_box(box):
    # tau = 0 takes the box projection, and a positive tau refuses the box
    # in SolverConfig: both with the same error
    g = Image(np.full((1, 5, 5), 0.5))
    with pytest.raises(ValueError, match="constraint bounds"):
        project_box(g, box)
    for tau in (0.0, 0.1):
        with pytest.raises(ValueError, match="constraint bounds"):
            tv_denoise(g, tau, box=box)


def test_project_schatten_inside_ball_and_clamp():
    m = np.diag([0.5, 0.2])
    np.testing.assert_allclose(project_block(m, math.inf), m, atol=1e-14)
    m = np.diag([3.0, 0.5])
    out = project_block(m, math.inf)
    np.testing.assert_allclose(np.linalg.svd(out, compute_uv=False), [1.0, 0.5], atol=1e-12)
    # p=2: Frobenius rescale
    m = np.array([[3.0, 4.0]])
    np.testing.assert_allclose(project_block(m, 2), m / 5.0, atol=1e-14)
    np.testing.assert_allclose(project_block(m / 10.0, 2), m / 10.0, atol=1e-14)
    with pytest.raises(ValueError):
        project_block(np.zeros((2, 2)), 3)


def test_project_schatten_matches_svd_oracle():
    rng = np.random.default_rng(1)
    for _ in range(100):
        rows = int(rng.integers(1, 13))
        m = rng.standard_normal((rows, 2)) * rng.choice([0.2, 1.0, 4.0])
        out = project_block(m, math.inf)
        np.testing.assert_allclose(out, svd_clamp(m), atol=1e-10)
        # idempotent, and no singular value grows
        np.testing.assert_allclose(project_block(out, math.inf), out, atol=1e-10)
        assert (np.linalg.svd(out, compute_uv=False)
                <= np.linalg.svd(m, compute_uv=False) + 1e-12).all()


def test_project_schatten_zero_and_rank1():
    np.testing.assert_array_equal(project_block(np.zeros((4, 2)), math.inf), np.zeros((4, 2)))
    m = np.array([[6.0, 0.0], [8.0, 0.0]])  # rank 1, sigma = 10
    out = project_block(m, math.inf)
    np.testing.assert_allclose(out, m / 10.0, atol=1e-12)


def branch_blocks():
    """Blocks that hit every branch of the p = inf projection."""
    rng = np.random.default_rng(20)
    q, _ = np.linalg.qr(rng.standard_normal((5, 2)))  # orthonormal columns
    rot = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
    u = rng.standard_normal(4)
    v = np.array([0.6, -0.8])
    return {
        # l+ = l-: sigma+ = sigma- on either side of 1, and both exactly 1
        "equal": [2.0 * np.vstack([np.eye(2), np.zeros((1, 2))]), 3.0 * q, 0.4 * q,
                  q, 5.0 * rot, np.eye(2)],
        "zero": [np.zeros((rows, 2)) for rows in (1, 2, 9, 27)],
        "rank1": [s * np.outer(u / np.linalg.norm(u), v) for s in (0.3, 1.0, 2.5, 40.0)],
        # sigma+ = 1 exactly, sigma- below 1 or 0
        "on_ball": [np.diag([1.0, 0.3]), q @ np.diag([1.0, 0.5]) @ rot, q @ np.diag([1.0, 0.0])],
    }


@pytest.mark.parametrize("branch", ["equal", "zero", "rank1", "on_ball"])
def test_project_schatten_branches_match_svd_oracle(branch):
    for m in branch_blocks()[branch]:
        out = project_block(m, math.inf)
        np.testing.assert_allclose(out, svd_clamp(m), atol=1e-10)
        assert np.all(np.isfinite(out))


def test_project_schatten_one_row_is_frobenius_rescale():
    rng = np.random.default_rng(21)
    for scale in (0.0, 0.2, 1.0, 7.0):
        m = scale * rng.standard_normal((1, 2))
        out = project_block(m, math.inf)
        np.testing.assert_array_equal(out, project_block(m, 2))
        np.testing.assert_allclose(out, svd_clamp(m), atol=1e-10)


def test_field_projection_matches_blockwise():
    # the in-place projection of a (2, rows, H, W) field agrees with the one-block
    # projection on a field that mixes every branch
    rng = np.random.default_rng(22)
    rows = 9
    blocks = [b for group in branch_blocks().values() for b in group if len(b) <= rows]
    blocks += list(rng.standard_normal((20, rows, 2)) * rng.choice([0.2, 1.0, 4.0], (20, 1, 1)))
    # zero rows leave the singular values, and the projection, unchanged
    field = np.stack([np.vstack([b, np.zeros((rows - len(b), 2))]) for b in blocks])[None]
    expected = np.stack([project_block(b, math.inf) for b in field[0]])
    data = np.ascontiguousarray(field.transpose(3, 2, 0, 1))
    out = _project_ball(data, math.inf)
    assert out is data
    np.testing.assert_allclose(pixel_blocks(out)[0], expected, atol=1e-14)


def test_dual_gradient_trivial_cases():
    rng = np.random.default_rng(2)
    g = rand_image(rng, 5, 5)
    cfg = SolverConfig(tau=0.3, constraint=None)
    psi = np.zeros((2, 9, 5, 5))
    grad = dual_gradient(psi, g, None, cfg)
    np.testing.assert_allclose(grad, 0.3 * jacobian_apply(g.data, cfg.kernel), atol=1e-14)
    const = Image(np.full((1, 5, 5), 0.6))
    np.testing.assert_array_equal(dual_gradient(psi, const, None, cfg), 0.0)


def test_dual_objective_trivial_cases():
    rng = np.random.default_rng(3)
    g = rand_image(rng, 5, 5)  # already inside the box
    cfg = SolverConfig(tau=0.2)
    assert dual_objective(np.zeros((2, 9, 5, 5)), g, None, cfg) == 0.0
    # unconstrained: only the norm-difference term survives
    cfg2 = SolverConfig(tau=0.2, constraint=None)
    psi = rng.standard_normal((2, 9, 5, 5))
    w = g.data - 0.2 * jacobian_adjoint_apply(psi, cfg2.kernel, 1)
    expected = 0.5 * (np.sum(g.data**2) - np.sum(w**2))
    assert dual_objective(psi, g, None, cfg2) == pytest.approx(expected, rel=1e-12)


def test_dual_gradient_finite_difference():
    rng = np.random.default_rng(4)
    g = rand_image(rng, 4, 4)
    dp = rand_params(rng, 4, 4)
    cfg = SolverConfig(tau=0.3, constraint=None)
    psi = 0.3 * rng.standard_normal((2, 9, 4, 4))
    grad = dual_gradient(psi, g, dp, cfg)
    eps = 1e-4
    for _ in range(10):
        direction = rng.standard_normal(psi.shape)
        direction /= np.linalg.norm(direction)
        plus = psi + eps * direction
        minus = psi - eps * direction
        fd = (dual_objective(plus, g, dp, cfg) - dual_objective(minus, g, dp, cfg)) / (2 * eps)
        ip = np.vdot(grad, direction)
        assert abs(fd - ip) <= 1e-5 * max(abs(fd), abs(ip), 1e-12)


def test_primal_energy():
    rng = np.random.default_rng(5)
    cfg = SolverConfig(tau=0.25)
    const = Image(np.full((1, 6, 6), 0.5))
    assert primal_energy(const, const, None, cfg) == 0.0
    g = rand_image(rng, 6, 6)
    assert primal_energy(g, g, None, cfg) == pytest.approx(
        0.25 * regularizer_value(g, cfg.kernel, None, 1), rel=1e-12
    )
    f = rand_image(rng, 6, 6)
    dp = rand_params(rng, 6, 6)
    expected = 0.5 * np.sum((g.data - f.data) ** 2) + 0.25 * regularizer_value(
        f, cfg.kernel, dp, 1
    )
    assert primal_energy(f, g, dp, cfg) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        primal_energy(rand_image(rng, 3, 3), g, None, cfg)


def test_energies_of_float32_inputs_are_taken_in_float64():
    # A float32 STV solve on the synth_half texture: its energies must be
    # those of the float64 upcasts of its iterate, dual field and data,
    # and so certify a positive gap
    clean = Image(synth_half_oriented()[None])
    noisy = add_gaussian_noise(clean, NoiseSpec(0.1, derive_seed("synth_half", 0.1, 1)))
    g = Image(noisy.data.astype(np.float32))
    cfg = SolverConfig(tau=0.04)
    # a zero start is the cold start, and receives the last accepted dual
    psi = dual_field(cfg.kernel.support**2, g.height, g.width, np.float32)
    f = solve(g, None, cfg, dual=psi).image
    assert f.data.dtype == psi.dtype == np.float32
    g64, f64 = Image(g.data.astype(np.float64)), Image(f.data.astype(np.float64))
    primal = primal_energy(f, g, None, cfg)
    dual = dual_objective(psi, g, None, cfg)
    assert primal == pytest.approx(primal_energy(f64, g64, None, cfg), rel=1e-12)
    assert dual == pytest.approx(dual_objective(psi.astype(np.float64), g64, None, cfg),
                                 rel=1e-12)
    assert regularizer_value(f, cfg.kernel, None, 1) == pytest.approx(
        regularizer_value(f64, cfg.kernel, None, 1), rel=1e-12)
    assert primal - dual > 0


def test_solve_vanishing_regularization():
    rng = np.random.default_rng(6)
    g = rand_image(rng, 8, 8)
    cfg = SolverConfig(tau=1e-12)
    out = solve(g, None, cfg).image
    np.testing.assert_allclose(out.data, g.data, atol=1e-9)


def test_solve_respects_box_and_is_deterministic():
    rng = np.random.default_rng(7)
    g = Image(rng.random((3, 12, 12)) * 1.6 - 0.3)
    dp = rand_params(rng, 12, 12)
    cfg = SolverConfig(tau=0.1)
    a = solve(g, dp, cfg)
    b = solve(g, dp, cfg)
    np.testing.assert_array_equal(a.image.data, b.image.data)
    assert a.iterations == b.iterations <= 100
    assert a.image.data.min() >= 0.0 and a.image.data.max() <= 1.0


def test_solve_dual_feasible_every_iteration():
    rng = np.random.default_rng(8)
    g = rand_image(rng, 10, 10)
    dp = rand_params(rng, 10, 10)
    for q in (1, 2):
        cfg = SolverConfig(tau=0.2, q=q)
        worst = []

        def largest_norm(acc, worst=worst, q=q):
            if q == 1:
                s = np.linalg.svd(pixel_blocks(acc), compute_uv=False)
                worst.append(s.max())
            else:
                worst.append(np.sqrt(np.sum(acc**2, axis=(0, 1))).max())

        with pytest.MonkeyPatch.context() as mp:
            iteration_probe(mp, on_accepted=largest_norm)
            res = solve(g, dp, cfg)
        # every iteration's dual was seen, none skipped
        assert len(worst) == res.iterations
        assert max(worst) <= 1.0 + 1e-9


def test_denoise_reduces_noise():
    rng = np.random.default_rng(9)
    clean = np.zeros((1, 24, 24))
    clean[:, :, 12:] = 0.8
    noisy = Image(clean + rng.normal(0, 0.1, clean.shape))
    cfg = SolverConfig(tau=0.08)
    dp = DirectionalParams(3.0, np.full((24, 24), 1.5), np.full((24, 24), np.pi / 2))
    out = solve(noisy, dp, cfg).image
    before = np.mean((noisy.data.clip(0, 1) - clean) ** 2)
    after = np.mean((out.data - clean) ** 2)
    assert after < before / 2


def test_tv_denoise_trivial_cases():
    rng = np.random.default_rng(10)
    g = Image(rng.random((1, 6, 6)) * 1.4 - 0.2)
    out = tv_denoise(g, 0.0)
    np.testing.assert_array_equal(out.data, np.clip(g.data, 0, 1))
    const = Image(np.full((1, 9, 9), 0.42))
    np.testing.assert_allclose(tv_denoise(const, 0.3).data, 0.42, atol=1e-8)
    with pytest.raises(ValueError):
        tv_denoise(Image(np.zeros((3, 5, 5))), 0.1)
    with pytest.raises(ValueError):
        tv_denoise(Image(np.zeros((1, 5, 5))), -0.1)


def test_tv_denoise_duality_gap_certificate():
    # a run of up to 10k iterations to a relative gap of 1e-12 closes the
    # primal-dual gap, certifying optimality of the fixed point the default
    # run approaches
    rng = np.random.default_rng(11)
    g = rand_image(rng, 4, 4)
    tau = 0.2
    cfg = SolverConfig(tau=tau, q=2, kernel=delta_kernel(), max_iters=10000, rel_tol=1e-12)
    # a zero start is the cold start, and receives the last accepted dual
    psi = dual_field(1, 4, 4, g.data.dtype)
    res = solve(g, None, cfg, dual=psi)
    assert res.stop_reason == "gap"
    gap = primal_energy(res.image, g, None, cfg) - dual_objective(psi, g, None, cfg)
    assert 0 <= gap < 1e-4


def test_tv_denoise_matches_convex_solver():
    cp = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(12)
    h = w = 8
    g = rng.random((h, w))
    tau = 0.15
    f = cp.Variable((h, w))
    gx = cp.hstack([f[:, 1:] - f[:, :-1], np.zeros((h, 1))])
    gy = cp.vstack([f[1:, :] - f[:-1, :], np.zeros((1, w))])
    stacked = cp.vstack([cp.vec(gx, order="C"), cp.vec(gy, order="C")])
    objective = 0.5 * cp.sum_squares(f - g) + tau * cp.sum(cp.norm(stacked, axis=0))
    cp.Problem(cp.Minimize(objective), [f >= 0, f <= 1]).solve(solver=cp.CLARABEL)
    cfg = SolverConfig(tau=tau, q=2, kernel=delta_kernel(), max_iters=5000)
    ours = solve(Image(g[None]), None, cfg).image
    assert np.abs(ours.data[0] - f.value).max() < 5e-5


def test_steered_solve_matches_convex_solver():
    # independent certificate for the full pipeline: operator, adjoint,
    # step bound, ball projection, and box handling at once
    cp = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(13)
    h = w = 6
    g = rng.random((h, w))
    k = gaussian_kernel(0.5, 3)
    dp = rand_params(rng, h, w, alpha_plus=4.0)
    tau = 0.1
    n = h * w
    cols = []
    for j in range(n):
        e = np.zeros((1, h, w))
        e.ravel()[j] = 1.0
        # one (rows, 2) block per pixel, rows first
        cols.append(pixel_blocks(jacobian_apply(e, k, dp)).ravel())
    a = np.stack(cols, axis=1)
    fv = cp.Variable(n)
    jf = a @ fv
    rows = k.support**2
    terms = [
        cp.normNuc(cp.reshape(jf[i * rows * 2 : (i + 1) * rows * 2], (rows, 2), order="C"))
        for i in range(n)
    ]
    objective = 0.5 * cp.sum_squares(fv - g.ravel()) + tau * cp.sum(terms)
    cp.Problem(cp.Minimize(objective), [fv >= 0, fv <= 1]).solve(solver=cp.CLARABEL)
    cfg = SolverConfig(tau=tau, q=1, kernel=k, max_iters=5000)
    ours = solve(Image(g[None]), dp, cfg).image
    assert np.abs(ours.data.ravel() - fv.value).max() < 1e-6


@pytest.mark.parametrize("shape", [(7, 5), (1, 4)])
@pytest.mark.parametrize("case", ["tv", "tv-float32", "steered-1", "steered-3", "stv",
                                  "steered-3-5x5", "tv-warm", "tv-float32-warm",
                                  "steered-3-warm"])
def test_solve_is_bit_identical_to_fresh_array_reference(case, shape):
    rng = np.random.default_rng(23)
    h, w = shape
    if case.startswith("tv"):
        g = Image(rng.random((1, h, w)) * 1.4 - 0.2)
        if "float32" in case:
            # the dtype of analyze's cleanups
            g = Image(g.data.astype(np.float32))
        dp = None
        cfg = SolverConfig(tau=0.2, q=2, kernel=delta_kernel(), max_iters=60)
    elif case == "stv":
        # unsteered, with a kernel radius above 0
        g = Image(rng.random((1, h, w)) * 1.4 - 0.2)
        dp = None
        cfg = SolverConfig(tau=0.1, q=1, max_iters=60)
    elif case == "steered-3-5x5":
        g = Image(rng.random((3, h, w)) * 1.4 - 0.2)
        dp = rand_params(rng, h, w)
        cfg = SolverConfig(tau=0.1, q=1, kernel=gaussian_kernel(1.0, 5), max_iters=60)
    else:
        g = Image(rng.random((int(case.split("-")[1]), h, w)) * 1.4 - 0.2)
        dp = rand_params(rng, h, w)
        cfg = SolverConfig(tau=0.1, q=1, max_iters=60)
    dual = ref_dual = None
    if case.endswith("-warm"):
        # a start on the balls, as a coarser grid or a nearby tau leaves one
        rows = cfg.kernel.support**2 * g.channels
        dual = dual_field(rows, h, w, g.data.dtype)
        dual[...] = rng.standard_normal(dual.shape)
        _project_ball(dual, cfg.dual_p)
        ref_dual = dual_field(rows, h, w, g.data.dtype)
        np.copyto(ref_dual, dual)
    res = solve(g, dp, cfg, dual=dual)
    expected = reference_solve(g, dp, cfg, dual=ref_dual)
    assert res.iterations == cfg.max_iters
    assert res.image.data.dtype == expected.dtype == g.data.dtype
    assert np.array_equal(res.image.data, expected)
    if dual is not None:
        # both wrote their last accepted dual back into the start field
        assert np.array_equal(dual, ref_dual)


BAND_KERNELS = {"delta": delta_kernel(), "3x3": gaussian_kernel(0.5, 3),
                "5x5": gaussian_kernel(1.0, 5)}


@pytest.mark.parametrize("kernel", sorted(BAND_KERNELS))
@pytest.mark.parametrize("rows", [1, 2, 3, 7])
def test_banded_solve_is_bit_identical_to_fresh_array_reference(rows, kernel, monkeypatch):
    # 19 rows as bands of at most 1, 2, 3 or 7 rows: the last band of 2,
    # 3 and 7 is short (1, 1 and 5 rows).  Every output and final dual of
    # a banded solve equals the one-band reference, bit for bit: cold
    # solves that hit the cap, and for each channel count and dtype a warm
    # one that stops on its gap, against the reference capped there.
    k = BAND_KERNELS[kernel]
    h, w = 19, 8
    rng = np.random.default_rng([rows, k.support])
    for c in (1, 3):
        for dtype in (np.float32, np.float64):
            band_rows(monkeypatch, rows, k, c, w, dtype)
            bands = Workspace(k, c, h, w, None, dtype).bands
            assert bands[0] == (0, rows) and bands[-1][1] == h
            assert [y1 - y0 for y0, y1 in bands[:-1]] == [rows] * (len(bands) - 1)
            for steered in (False, True):
                for q in (1, 2):
                    g = Image((rng.random((c, h, w)) * 1.4 - 0.2).astype(dtype))
                    dp = rand_params(rng, h, w) if steered else None
                    cfg = SolverConfig(tau=0.1, q=q, kernel=k, max_iters=4)
                    dual = ref_dual = None
                    if (steered, q) == ((dtype == np.float64), (1 if c == 1 else 2)):
                        cfg = replace(cfg, max_iters=100, rel_tol=1e-2)
                        dual = dual_field(k.support**2 * c, h, w, dtype)
                        dual[...] = rng.standard_normal(dual.shape)
                        _project_ball(dual, cfg.dual_p)
                        ref_dual = dual.copy()
                    res = solve(g, dp, cfg, dual=dual)
                    assert res.stop_reason == ("max_iters" if dual is None else "gap")
                    expected = reference_solve(g, dp, replace(cfg, max_iters=res.iterations),
                                               dual=ref_dual)
                    assert np.array_equal(res.image.data, expected)
                    if dual is not None:
                        assert np.array_equal(dual, ref_dual)


@pytest.mark.parametrize("steered", [False, True], ids=["tv", "steered"])
def test_the_probe_sees_each_iteration_once_at_any_band_count(steered, monkeypatch):
    # the iterates and accepted duals iteration_probe hands out are the
    # same, one per iteration, whatever the band count, and the last
    # accepted dual is the one solve writes back
    rng = np.random.default_rng(61)
    h, w = 23, 14
    g = rand_image(rng, h, w)
    dp = rand_params(rng, h, w) if steered else None
    kernel = gaussian_kernel(0.5, 3) if steered else delta_kernel()
    cfg = SolverConfig(tau=0.1, q=1, kernel=kernel, max_iters=9)
    seen = {}
    for rows in (None, 1, 4):
        if rows is not None:
            band_rows(monkeypatch, rows, kernel, 1, w)
        iterates, accepted = [], []
        dual = dual_field(kernel.support**2, h, w)
        with pytest.MonkeyPatch.context() as mp:
            iteration_probe(mp, on_iterate=lambda z: iterates.append(z.copy()),
                            on_accepted=lambda psi: accepted.append(psi.copy()))
            res = solve(g, dp, cfg, dual=dual)
        assert len(iterates) == len(accepted) == res.iterations == 9
        assert np.array_equal(accepted[-1], dual)
        seen[rows] = (iterates, accepted)
    assert len(Workspace(kernel, 1, h, w, dp).bands) == 6
    for rows in (1, 4):
        for ours, one_band in zip(seen[rows], seen[None]):
            assert all(np.array_equal(a, b) for a, b in zip(ours, one_band))


def test_band_counts_follow_the_field_size():
    # a field of at most BAND_BYTES is one band: the 0.66 MB float32 field
    # of a 96^2 3x3 solve, and the float32 field of a 512^2 TV cleanup,
    # exactly 2 MiB; the 37.7 MB float64 field of a 512^2 3x3 solve is cut
    # into even bands, none above BAND_BYTES
    k3 = gaussian_kernel(0.5, 3)
    assert len(Workspace(k3, 1, 96, 96, None, np.float32).bands) == 1
    assert 2 * 512 * 512 * 4 == tensor.BAND_BYTES
    assert len(Workspace(delta_kernel(), 1, 512, 512, None, np.float32).bands) == 1
    bands = Workspace(k3, 1, 512, 512, None, np.float64).bands
    assert len(bands) >= 2
    sizes = {y1 - y0 for y0, y1 in bands}
    assert max(sizes) - min(sizes) <= 1 and sum(sizes) > 0
    assert max(sizes) * 2 * 9 * 512 * 8 <= tensor.BAND_BYTES


def test_a_zero_start_is_the_cold_start_and_returns_the_last_dual():
    rng = np.random.default_rng(28)
    g = Image(rng.random((1, 9, 8)).astype(np.float32))
    cfg = SolverConfig(tau=0.2, q=2, kernel=delta_kernel(), max_iters=40)
    last = {}

    def keep(psi):
        last["psi"] = psi.copy()

    # the probe watches the cold solve only
    with pytest.MonkeyPatch.context() as mp:
        iteration_probe(mp, on_accepted=keep)
        cold = solve(g, None, cfg)
    dual = dual_field(1, 9, 8, np.float32)
    warm = solve(g, None, cfg, dual=dual)
    assert np.array_equal(cold.image.data, warm.image.data)
    assert cold.iterations == warm.iterations == 40
    assert np.array_equal(dual, last["psi"])
    # a result keeps no dual field alive: the caller's buffer is the only
    # way out for the dual
    assert sorted(vars(cold)) == ["gap", "image", "iterations", "stop_reason"]
    assert not np.shares_memory(dual, warm.image.data)


def test_bad_initial_duals_raise_and_are_left_untouched():
    rng = np.random.default_rng(29)
    h, w = 6, 5
    g = Image(rng.random((1, h, w)))
    cfg = SolverConfig(tau=0.1, q=2, kernel=delta_kernel())

    def filled(field):
        field[...] = rng.uniform(-0.5, 0.5, field.shape)
        return field

    nan = filled(dual_field(1, h, w))
    nan[1, 0, 2, 3] = np.nan
    inf = filled(dual_field(1, h, w))
    inf[0, 0, 0, 0] = -np.inf
    frozen = filled(dual_field(1, h, w))
    frozen.flags.writeable = False
    bad = {
        "shape": filled(dual_field(1, w, h)),
        "rows": filled(dual_field(9, h, w)),
        "dtype": filled(dual_field(1, h, w, np.float32)),
        "layout": filled(np.empty((h, w, 1, 2))),
        "strided": filled(np.empty((2, 1, h, 2 * w)))[..., ::2],
        "nan": nan,
        "inf": inf,
        "read-only": frozen,
    }
    for name, dual in bad.items():
        before = dual.copy()
        with pytest.raises(ValueError, match="dual"):
            solve(g, None, cfg, dual=dual)
        with pytest.raises(ValueError, match="dual"):
            tv_denoise(g, 0.1, dual=dual)
        assert np.array_equal(dual, before, equal_nan=True), name
    with pytest.raises(ValueError, match="dual"):
        solve(g, None, cfg, dual=[[0.0]])


@pytest.mark.parametrize("steered", [False, True], ids=["tv", "steered"])
def test_stop_reason_tells_the_gap_from_the_cap(steered):
    rng = np.random.default_rng(27)
    g = rand_image(rng, 12, 10)
    dp = rand_params(rng, 12, 10) if steered else None
    kernel = gaussian_kernel(0.5, 3) if steered else delta_kernel()
    cfg = SolverConfig(tau=0.1, q=1, kernel=kernel, max_iters=1000, rel_tol=1e-4)
    res = solve(g, dp, cfg)
    assert res.stop_reason == "gap" and 1 < res.iterations < 1000
    assert res.iterations % GAP_EVERY == 0 and res.gap <= cfg.rel_tol
    expected = reference_solve(g, dp, replace(cfg, max_iters=res.iterations))
    assert np.array_equal(res.image.data, expected)
    capped = solve(g, dp, replace(cfg, max_iters=res.iterations - 1))
    assert capped.stop_reason == "max_iters" and capped.iterations == res.iterations - 1
    one = SolverConfig(tau=0.1, q=1, kernel=kernel, max_iters=1)
    assert solve(g, dp, one).stop_reason == "max_iters"


@pytest.mark.parametrize("case, rows", [("tv", None), ("steered", None), ("tv", 5),
                                        ("steered", 5)],
                         ids=["tv", "steered", "tv-bands-of-5", "steered-bands-of-5"])
def test_iterations_after_the_second_allocate_less_than_a_plane(case, rows, monkeypatch):
    # peak traced memory between consecutive accepted duals (one whole
    # iteration apart), above what was held at the earlier one
    rng = np.random.default_rng(24)
    h = w = 64
    g = Image(rng.random((1, h, w)))
    if case == "tv":
        dp = None
        cfg = SolverConfig(tau=0.1, q=2, kernel=delta_kernel(), max_iters=8)
    else:
        dp = rand_params(rng, h, w)
        cfg = SolverConfig(tau=0.1, q=1, max_iters=8)
    if rows is not None:
        band_rows(monkeypatch, rows, cfg.kernel, 1, w)
        assert len(Workspace(cfg.kernel, 1, h, w, dp).bands) == 13
    growth = {}
    held = {}

    def measure(acc):
        it = held.get("it", 0) + 1
        if it > 1:
            growth[it] = tracemalloc.get_traced_memory()[1] - held["bytes"]
        tracemalloc.reset_peak()
        held.update(it=it, bytes=tracemalloc.get_traced_memory()[0])

    iteration_probe(monkeypatch, on_accepted=measure)
    tracemalloc.start()
    try:
        solve(g, dp, cfg)
    finally:
        tracemalloc.stop()
    assert sorted(growth) == list(range(2, 9))
    plane = h * w * 8
    assert all(growth[it] < plane for it in range(3, 9)), growth


def test_steered_solve_peaks_below_two_dual_fields_and_the_workspace(monkeypatch):
    steered_solve_peaks_below_two_dual_fields_and_the_workspace(None, monkeypatch)


@pytest.mark.parametrize("rows", [5, 32], ids=["bands-of-5", "two-bands"])
def test_banded_steered_solve_peaks_below_the_same_bound(rows, monkeypatch):
    steered_solve_peaks_below_two_dual_fields_and_the_workspace(rows, monkeypatch)


@pytest.mark.parametrize("rows", [None, 5], ids=["one-band", "bands-of-5"])
def test_gap_checks_keep_the_steered_peak_below_the_same_bound(rows, monkeypatch):
    # two checks that do not stop the loop and the final gap
    steered_solve_peaks_below_two_dual_fields_and_the_workspace(rows, monkeypatch,
                                                                rel_tol=1e-300)


def steered_solve_peaks_below_two_dual_fields_and_the_workspace(rows, monkeypatch,
                                                                rel_tol=None):
    # The bound is counted from the shapes: two dual fields of 2 * 9 planes,
    # the workspace block (eight extension-sized planes: past the four
    # slots of the accumulators and the extensions, the four planes of J's
    # extension step, or a band's projection, which is no larger) and
    # eleven planes for the rest: z, the gap's second image, cos and sin
    # of theta, the four steering products and the masks; the step is a
    # scalar.  A third dual field (18 planes) does not fit.
    rng = np.random.default_rng(25)
    h = w = 64
    g = Image(rng.random((1, h, w)))
    dp = rand_params(rng, h, w)
    cfg = SolverConfig(tau=0.1, q=1, max_iters=4)
    if rel_tol is not None:
        cfg = replace(cfg, max_iters=2 * GAP_EVERY + 1, rel_tol=rel_tol)
    if rows is not None:
        band_rows(monkeypatch, rows, cfg.kernel, 1, w)
    plane = h * w * 8
    fields = 2 * (2 * 9) * plane
    block = 8 * (h + 2) * (w + 2) * 8
    bound = fields + block + 11 * plane
    tracemalloc.start()
    try:
        res = solve(g, dp, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak, bound)
    assert res.iterations == cfg.max_iters and (res.gap is None) == (rel_tol is None)


@pytest.mark.parametrize("tau", [0.02, 0.25, 1.0])
def test_float32_tv_denoise_tracks_float64(tau):
    rng = np.random.default_rng(47)
    g = Image(rng.uniform(-0.1, 1.1, (1, 64, 64)))
    out = tv_denoise(Image(g.data.astype(np.float32)), tau)
    assert out.data.dtype == np.float32
    assert np.abs(out.data - tv_denoise(g, tau).data).max() <= 1e-5


@pytest.mark.parametrize("tau", [0.01, 0.1])
def test_float32_steered_solve_tracks_float64(tau):
    rng = np.random.default_rng(53)
    g = rand_image(rng, 32, 32)
    dp = rand_params(rng, 32, 32, alpha_plus=20.0)
    cfg = SolverConfig(tau=tau, q=1, kernel=gaussian_kernel(0.5, 3))
    out = solve(Image(g.data.astype(np.float32)), dp, cfg).image
    assert out.data.dtype == np.float32
    assert np.abs(out.data - solve(g, dp, cfg).image.data).max() <= 1e-5


def test_overflow_in_a_finite_input_raises():
    # J of columns alternating +-1e308 overflows; the next iterate is NaN
    data = np.empty((1, 6, 6))
    data[..., 0::2] = 1e308
    data[..., 1::2] = -1e308
    cfg = SolverConfig(tau=0.1, q=2, kernel=delta_kernel(), constraint=None)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match="non-finite values in solver iterate"):
            solve(Image(data), None, cfg)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_step_bound_beyond_the_dtype_range_is_refused(dtype):
    g = Image(rand_image(np.random.default_rng(5), 8, 8).data.astype(dtype))
    ones = np.ones((8, 8))
    steered = DirectionalParams(1e200, ones, np.zeros((8, 8)))
    huge_tau = {np.float32: 1e38, np.float64: 1e308}[dtype]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="step bound"):
            solve(g, steered, SolverConfig(tau=0.05))
        with pytest.raises(ValueError, match="step bound"):
            solve(g, None, SolverConfig(tau=huge_tau, q=2, kernel=delta_kernel()))
        # the largest tau whose bound fits still solves, and flattens g
        fits = {np.float32: 1e37, np.float64: 1e300}[dtype]
        out = solve(g, None, SolverConfig(tau=fits, q=2, kernel=delta_kernel())).image
    assert np.ptp(out.data) < 0.01 * np.ptp(g.data)


@pytest.mark.parametrize("constraint", [(0.0, 1.0), None])
def test_an_infinite_sample_is_refused_before_the_box_clip(constraint):
    data = np.random.default_rng(9).random((1, 8, 8)).astype(np.float32)
    data[0, 2, 3] = np.inf
    cfg = SolverConfig(tau=0.05, constraint=constraint)
    with pytest.raises(FloatingPointError, match="non-finite values in solver iterate"):
        solve(Image(data), None, cfg)


def test_an_alpha_plus_beyond_the_dtype_range_is_refused_before_the_cast():
    # the step bound 8 tau alpha_plus^2 fits float32 at this tau, and
    # alpha_plus, which the Workspace's float32 steering products carry,
    # does not; a float64 solve takes it
    rng = np.random.default_rng(6)
    g = rand_image(rng, 8, 8)
    steered = DirectionalParams(1e39, np.ones((8, 8)), rng.random((8, 8)) * 3.0)
    cfg = SolverConfig(tau=1e-80, q=1, kernel=delta_kernel())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="alpha_plus = 1e\\+39 exceeds the float32 range"):
            solve(Image(g.data.astype(np.float32)), steered, cfg)
        assert solve(g, steered, cfg).image.data.dtype == np.float64


GAP_CASES = [(dtype, steered, q, kernel, c, rows)
             for dtype in ("float32", "float64") for steered in (False, True)
             for q in (1, 2) for kernel in ("delta", "3x3") for c in (1, 3)
             for rows in (None, 4)]


@pytest.mark.parametrize("dtype, steered, q, kernel, c, rows", GAP_CASES,
                         ids=["-".join(map(str, case)) for case in GAP_CASES])
def test_a_gap_stop_is_certified_and_bit_identical_to_the_reference(dtype, steered, q, kernel,
                                                                    c, rows, monkeypatch):
    # The image and final dual of a gap-stopped solve have a gap, taken by
    # the float64 energies, of at most rel_tol and of at most the gap the
    # solve reports; both are those of the fresh-array reference run for
    # the same iteration count, bit for bit.  rows 4 cuts 19 rows into 5
    # bands.
    k = BAND_KERNELS[kernel]
    h, w = 19, 14
    if rows is not None:
        band_rows(monkeypatch, rows, k, c, w, dtype)
        assert len(Workspace(k, c, h, w, None, dtype).bands) == 5
    rng = np.random.default_rng([q, k.support, c])
    g = Image((rng.random((c, h, w)) * 1.2 - 0.1).astype(dtype))
    dp = rand_params(rng, h, w, alpha_plus=3.0) if steered else None
    cfg = SolverConfig(tau=0.05 if steered else 0.15, q=q, kernel=k, max_iters=3000,
                       rel_tol=1e-3)
    dual = dual_field(k.support**2 * c, h, w, g.data.dtype)
    res = solve(g, dp, cfg, dual=dual)
    assert res.stop_reason == "gap" and res.iterations % GAP_EVERY == 0
    primal = primal_energy(res.image, g, dp, cfg)
    certified = (primal - dual_objective(dual, g, dp, cfg)) / primal
    assert 0.0 <= certified <= cfg.rel_tol, (certified, res.gap)
    # the reported gap bounds it from above, up to the round-off of the
    # oracle, whose eig2x2 leaves sqrt(eps) in a one-row block's minor
    # singular value, and within the float32 solve's round-off allowance
    assert certified - 1e-9 <= res.gap <= certified + 1e-5, (certified, res.gap)
    ref_dual = dual_field(k.support**2 * c, h, w, g.data.dtype)
    expected = reference_solve(g, dp, replace(cfg, max_iters=res.iterations), dual=ref_dual)
    assert np.array_equal(res.image.data, expected)
    assert np.array_equal(dual, ref_dual)


@pytest.mark.parametrize("steered", [False, True], ids=["tv", "steered"])
@pytest.mark.parametrize("kernel", [gaussian_kernel(0.5, 3), gaussian_kernel(1.5, 7)],
                         ids=["3x3", "7x7"])
def test_a_float32_gap_on_oriented_stripes_is_not_below_the_oracle(kernel, steered):
    # A grating's gradients share one direction, so every per-pixel block
    # of J z is near rank 1, where the float32 sqrt(det) of its Gram loses
    # the most: the reported q = 1 gap still holds the float64 energies'
    # gap, at a gap stop, near float32's floor and before the first check.
    h, w = 40, 40
    angle = 0.5
    rng = np.random.default_rng(65)
    g = stripe_image(h, w, angle).data + 0.02 * rng.standard_normal((1, h, w))
    g = Image(g.astype(np.float32))
    dp = DirectionalParams(4.0, np.ones((h, w)), np.full((h, w), angle)) if steered else None
    cfg = SolverConfig(tau=0.05, q=1, kernel=kernel)
    for rel_tol, max_iters, reasons in ((1e-3, 3000, {"gap"}), (1e-5, 300, {"gap", "max_iters"}),
                                        (1e-3, GAP_EVERY - 1, {"max_iters"})):
        dual = dual_field(kernel.support**2, h, w, np.float32)
        res = solve(g, dp, replace(cfg, max_iters=max_iters, rel_tol=rel_tol), dual=dual)
        assert res.stop_reason in reasons
        primal = primal_energy(res.image, g, dp, cfg)
        certified = (primal - dual_objective(dual, g, dp, cfg)) / primal
        # 1e-9: the oracle's own sqrt(eps) in a rank-1 block's minor value
        assert certified - 1e-9 <= res.gap, (certified, res.gap)


@pytest.mark.parametrize("steered", [False, True], ids=["tv", "steered"])
def test_the_probe_sees_each_iteration_once_with_gap_checks(steered, monkeypatch):
    # checks that do not stop the loop leave every iterate and accepted
    # dual as they are without checks, one per iteration; a check never
    # runs J through the module's jacobian_apply
    rng = np.random.default_rng(62)
    h, w = 17, 12
    g = rand_image(rng, h, w)
    dp = rand_params(rng, h, w) if steered else None
    kernel = gaussian_kernel(0.5, 3) if steered else delta_kernel()
    cfg = SolverConfig(tau=0.1, q=1, kernel=kernel, max_iters=3 * GAP_EVERY + 4)
    seen = {}
    for rel_tol in (None, 1e-300):
        iterates, accepted = [], []
        with pytest.MonkeyPatch.context() as mp:
            iteration_probe(mp, on_iterate=lambda z: iterates.append(z.copy()),
                            on_accepted=lambda psi: accepted.append(psi.copy()))
            res = solve(g, dp, replace(cfg, rel_tol=rel_tol))
        assert len(iterates) == len(accepted) == res.iterations == cfg.max_iters
        assert res.stop_reason == "max_iters" and (res.gap is None) == (rel_tol is None)
        seen[rel_tol] = (iterates, accepted, res.image.data)
    for ours, plain in zip(seen[1e-300], seen[None]):
        assert all(np.array_equal(a, b) for a, b in zip(ours, plain))
    # a solve that the gap stops: one probe call per iteration too
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        iteration_probe(mp, on_iterate=calls.append)
        res = solve(g, dp, replace(cfg, max_iters=1000, rel_tol=0.5))
    assert res.stop_reason == "gap" and len(calls) == res.iterations == GAP_EVERY


@pytest.mark.parametrize("steered", [False, True], ids=["tv", "steered"])
def test_a_cap_on_a_check_iteration_stops_on_max_iters_with_the_checks_image(steered):
    # the solve of the test above whose cap falls on its first gap check:
    # the cap names the stop, and its image, gap and final dual are bit for
    # bit those of the uncapped solve, which the same check stops on gap
    rng = np.random.default_rng(62)
    h, w = 17, 12
    g = rand_image(rng, h, w)
    dp = rand_params(rng, h, w) if steered else None
    kernel = gaussian_kernel(0.5, 3) if steered else delta_kernel()
    cfg = SolverConfig(tau=0.1, q=1, kernel=kernel, rel_tol=0.5)
    runs = []
    for max_iters in (GAP_EVERY, 1000):
        dual = dual_field(kernel.support**2 * g.channels, h, w, g.data.dtype)
        runs.append((solve(g, dp, replace(cfg, max_iters=max_iters), dual=dual), dual))
    (capped, capped_dual), (stopped, stopped_dual) = runs
    assert capped.stop_reason == "max_iters" and stopped.stop_reason == "gap"
    assert capped.iterations == stopped.iterations == GAP_EVERY
    assert capped.gap == stopped.gap <= cfg.rel_tol
    np.testing.assert_array_equal(capped.image.data, stopped.image.data)
    np.testing.assert_array_equal(capped_dual, stopped_dual)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_gap_taken_only_at_the_cap_leaves_the_image_bit_identical(dtype):
    # the configuration of the benchmark's 512^2 denoise (tau 0.01, a+ 10,
    # 3x3 q = 1, rel_tol 1e-5, 10 iterations) on a small image: its one
    # check, at the cap, reports a gap and returns the image of the same
    # solve without a rel_tol, bit for bit
    rng = np.random.default_rng(66)
    h, w = 21, 17
    g = Image(rand_image(rng, h, w).data.astype(dtype))
    dp = rand_params(rng, h, w, alpha_plus=10.0)
    cfg = SolverConfig(tau=0.01, q=1, kernel=gaussian_kernel(0.5, 3), max_iters=10,
                       rel_tol=1e-5, constraint=(0.0, 1.0))
    gapped = solve(g, dp, cfg)
    plain = solve(g, dp, replace(cfg, rel_tol=None))
    assert gapped.stop_reason == plain.stop_reason == "max_iters"
    assert gapped.iterations == plain.iterations == 10
    assert gapped.gap > cfg.rel_tol and plain.gap is None
    np.testing.assert_array_equal(gapped.image.data, plain.image.data)


def test_the_returned_gap_is_that_of_the_returned_image():
    # whatever stops a solve with a rel_tol, its gap is the one the float64
    # energies give its image and final dual, up to round-off
    rng = np.random.default_rng(63)
    h, w = 16, 13
    g = Image(rng.random((1, h, w)).astype(np.float32))
    dp = rand_params(rng, h, w, alpha_plus=4.0)
    cfg = SolverConfig(tau=0.03, q=1)
    for max_iters, rel_tol, reason in ((7, 1e-6, "max_iters"), (100, 1e-2, "gap")):
        dual = dual_field(9, h, w, np.float32)
        res = solve(g, dp, replace(cfg, max_iters=max_iters, rel_tol=rel_tol), dual=dual)
        assert res.stop_reason == reason
        primal = primal_energy(res.image, g, dp, cfg)
        certified = (primal - dual_objective(dual, g, dp, cfg)) / primal
        assert certified <= res.gap <= certified + 1e-5, (certified, res.gap)
    assert solve(g, dp, cfg).gap is None


@pytest.mark.parametrize("kernel", [delta_kernel(), gaussian_kernel(0.5, 3),
                                    gaussian_kernel(1.0, 5), gaussian_kernel(1.5, 7)],
                         ids=["1x1", "3x3", "5x5", "7x7"])
@pytest.mark.parametrize("shape, rows", [((19, 3), None), ((19, 3), 2), ((3, 2), None),
                                         ((2, 9), 1)])
def test_the_workspace_views_lie_in_one_block_and_never_alias_while_in_use(
        kernel, shape, rows, monkeypatch):
    # Every scratch view of the workspaces that solves build is a view of
    # the one block, and no two views that one phase uses at once share
    # memory: J*'s accumulators and J's extensions, which outlive every
    # phase; an extension step's planes, the finish's, a band's gather
    # row and scatter grid against what that phase reads or fills, and
    # with several bands every band plane, since later bands read the
    # extensions and earlier ones filled the accumulators; and the gap's
    # planes against the extensions they sum and each other.  Narrow
    # images make the gap's planes the largest.
    h, w = shape
    r = kernel.radius
    if rows is not None:
        band_rows(monkeypatch, rows, kernel, 1, w, np.float32)
    built = []

    def spy(*args, **kwargs):
        built.append(Workspace(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(solver, "Workspace", spy)
    rng = np.random.default_rng(64)
    g = Image(rng.random((1, h, w)).astype(np.float32))
    gaps = []
    for dp in (None, rand_params(rng, h, w)):
        for q in (1, 2):
            for rel_tol in (None, 1e-30):
                cfg = SolverConfig(tau=0.1, q=q, kernel=kernel, max_iters=GAP_EVERY + 2,
                                   rel_tol=rel_tol)
                assert solve(g, dp, cfg).iterations == GAP_EVERY + 2
                gaps.append(rel_tol is not None)
    assert len(built) == len(gaps) == 8
    for ws, takes_gaps in zip(built, gaps):
        assert (len(ws.bands) > 1) == (rows is not None)
        gap = ws.gap_pair + ws.gap_grids
        assert len(gap) == (5 if r else 2) * takes_gaps
        views = {"acc": ws.acc, "ext": ws.ext, "gradient": ws.gradient_scratch,
                 "finish": ws.finish_scratch, "row": ws.band_planes[:1] if r else [],
                 "band": ws.band_planes, "grid": ws.scatter_grid, "gap": gap}
        for group in views.values():
            assert all(v.base is ws._block and v.flags.c_contiguous for v in group)
        in_use = [("acc", "ext"), ("ext", "gradient"), ("acc", "finish"), ("ext", "row"),
                  ("acc", "grid"), ("ext", "gap")]
        if len(ws.bands) > 1:
            in_use += [("acc", "band"), ("ext", "band"), ("ext", "grid")]
        for one, other in in_use:
            assert not any(np.shares_memory(a, b)
                           for a in views[one] for b in views[other]), (one, other)
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(gap) for b in gap[i + 1 :])


def low_contrast_problem(dtype):
    """A faint grating under sigma 0.1 noise, steered along its stripes, in
    the 3x3 q = 1 setting of the sweeps: the clean image and the noisy
    one in dtype."""
    h = w = 32
    angle = 0.5
    clean = stripe_image(h, w, angle, contrast=0.04)
    noise = 0.1 * np.random.default_rng(7).standard_normal(clean.shape)
    dp = DirectionalParams(4.0, np.full((h, w), 1.5), np.full((h, w), angle))
    return clean, Image((clean.data + noise).astype(dtype)), dp


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("steered", [False, True], ids=["tv", "steered"])
def test_a_radius_never_reached_leaves_the_solve_bit_identical(steered, dtype):
    # the prune test reads the check's image and gap and writes only the
    # spent scratch: image, iterations, stop, gap and final dual are those
    # of the solve without it, bit for bit
    clean, g, dp = low_contrast_problem(dtype)
    if not steered:
        dp = None
    cfg = SolverConfig(tau=0.04, q=1, max_iters=1000, rel_tol=1e-3)
    runs = []
    for prune in (None, (clean, 1e3)):
        dual = dual_field(9, 32, 32, dtype)
        runs.append((solve(g, dp, cfg, dual=dual, prune=prune), dual))
    (plain, plain_dual), (pruned, pruned_dual) = runs
    assert plain.stop_reason == "gap" and plain.iterations > GAP_EVERY
    assert (pruned.iterations, pruned.stop_reason, pruned.gap) == (
        plain.iterations, plain.stop_reason, plain.gap)
    np.testing.assert_array_equal(pruned.image.data, plain.image.data)
    np.testing.assert_array_equal(pruned_dual, plain_dual)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_pruned_solve_is_certified_farther_than_its_radius(dtype):
    # The exact minimizer, here a 3000-iteration float64 solve, lies
    # farther than the radius of every solve pruned against it.  The
    # iterate at 40 iterations lies about 5% farther from clean than the
    # minimizer does, so a test that left out the sqrt(2 G) term of the
    # bound would prune at 1.02 and 1.05 times its distance.
    clean, g, dp = low_contrast_problem(dtype)
    cfg = SolverConfig(tau=0.04, q=1, max_iters=1000, rel_tol=1e-4)
    exact = solve(Image(g.data.astype(np.float64)), dp, replace(cfg, max_iters=3000,
                                                                 rel_tol=None))
    distance = float(np.linalg.norm(exact.image.data - clean.data))
    pruned = []
    for factor in (0.9, 1.02, 1.05):
        radius = factor * distance
        dual = dual_field(9, 32, 32, dtype)
        res = solve(g, dp, cfg, dual=dual, prune=(clean, radius))
        if res.stop_reason == "pruned":
            assert distance > radius, (factor, res.iterations)
            pruned.append((res, dual))
        else:
            assert res.stop_reason == "gap", factor
    assert len(pruned) == 1
    # a pruned solve ends on a check, with that check's image and
    # accepted dual: those of the solve capped there
    res, dual = pruned[0]
    assert res.iterations % GAP_EVERY == 0 and res.gap > cfg.rel_tol
    capped_dual = dual_field(9, 32, 32, dtype)
    capped = solve(g, dp, replace(cfg, max_iters=res.iterations), dual=capped_dual)
    assert capped.gap == res.gap
    np.testing.assert_array_equal(res.image.data, capped.image.data)
    np.testing.assert_array_equal(dual, capped_dual)


def test_prune_is_refused_without_a_gap_or_with_a_bad_image_or_radius():
    clean, g, dp = low_contrast_problem(np.float32)
    cfg = SolverConfig(tau=0.04, q=1, max_iters=20, rel_tol=1e-3)
    dual = dual_field(9, 32, 32, np.float32)
    for bad_cfg, prune, says in (
            (replace(cfg, rel_tol=None), (clean, 1.0), "rel_tol"),
            (cfg, (Image(clean.data[:, :31]), 1.0), "shape"),
            (cfg, (Image(np.stack([clean.data[0]] * 3)), 1.0), "shape"),
            (cfg, (clean, -1e-9), "radius"),
            (cfg, (clean, math.nan), "radius"),
            (cfg, (clean, math.inf), "radius")):
        with pytest.raises(ValueError, match=says):
            solve(g, dp, bad_cfg, dual=dual, prune=prune)
    # refused before the dual is touched
    assert not dual.any()
    # a radius of 0 is a distance like any other
    assert solve(g, dp, cfg, prune=(clean, 0.0)).iterations >= GAP_EVERY
