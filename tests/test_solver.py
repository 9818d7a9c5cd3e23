import math
import tracemalloc

import numpy as np
import pytest

from adstv import Image
from adstv.diffops import delta_kernel, gaussian_kernel
from adstv.solver import (
    SolverConfig,
    _project_ball,
    dual_gradient,
    dual_objective,
    lipschitz_field,
    primal_energy,
    project_box,
    solve,
    tv_denoise,
)
from adstv.tensor import (
    DirectionalParams,
    jacobian_adjoint_apply,
    jacobian_apply,
    regularizer_value,
)

from conftest import rand_image, rand_params


def project_block(m, p):
    """The projection of one (rows, 2) block onto the unit Schatten-p ball."""
    return _project_ball(np.array(m, float), p)


def svd_clamp(m):
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    return (u * np.minimum(s, 1.0)) @ vt


def test_config_validation_and_defaults():
    cfg = SolverConfig(tau=0.1)
    assert cfg.q == 1 and cfg.max_iters == 100 and cfg.rel_tol == 1e-5
    assert cfg.constraint == (0.0, 1.0)
    assert cfg.kernel.support == 3
    assert math.isinf(cfg.dual_p)
    assert SolverConfig(tau=0.1, q=2).dual_p == 2
    for bad in (dict(tau=0.0), dict(tau=0.1, q=3), dict(tau=0.1, max_iters=0),
                dict(tau=0.1, rel_tol=0.0), dict(tau=0.1, constraint=(1.0, 0.0))):
        with pytest.raises(ValueError):
            SolverConfig(**bad)


def test_config_rejects_non_finite():
    for value in (math.nan, math.inf):
        for bad in (dict(tau=value), dict(tau=0.1, rel_tol=value)):
            with pytest.raises(ValueError):
                SolverConfig(**bad)


def test_lipschitz_field_reference_values():
    h = w = 4
    unit = DirectionalParams.identity((h, w))
    np.testing.assert_allclose(lipschitz_field(unit, 1.0), 16.0 * np.sqrt(2.0))
    assert lipschitz_field(unit, 1.0)[0, 0] == pytest.approx(22.6274, abs=1e-4)
    dp = DirectionalParams(2.0, np.ones((h, w)), np.zeros((h, w)))
    assert lipschitz_field(dp, 0.1)[0, 0] == pytest.approx(5.6569, abs=1e-4)
    # pointwise monotone in alpha_minus
    rng = np.random.default_rng(0)
    a = 1.0 + rng.random((h, w))
    b = a + 0.5
    dpa = DirectionalParams(3.0, a, np.zeros((h, w)))
    dpb = DirectionalParams(3.0, b, np.zeros((h, w)))
    assert (lipschitz_field(dpb, 0.3) > lipschitz_field(dpa, 0.3)).all()
    with pytest.raises(ValueError):
        lipschitz_field(unit, 0.0)


def test_project_box():
    img = Image(np.array([[[-0.2, 0.4], [1.3, 1.0]]]))
    out = project_box(img, (0.0, 1.0))
    np.testing.assert_array_equal(out.data, [[[0.0, 0.4], [1.0, 1.0]]])
    np.testing.assert_array_equal(project_box(out, (0.0, 1.0)).data, out.data)
    np.testing.assert_array_equal(project_box(img, None).data, img.data)


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
    # the in-place projection of a planar field agrees with the one-block
    # projection on a field that mixes every branch
    rng = np.random.default_rng(22)
    rows = 9
    blocks = [b for group in branch_blocks().values() for b in group if len(b) <= rows]
    blocks += list(rng.standard_normal((20, rows, 2)) * rng.choice([0.2, 1.0, 4.0], (20, 1, 1)))
    # zero rows leave the singular values, and the projection, unchanged
    field = np.stack([np.vstack([b, np.zeros((rows - len(b), 2))]) for b in blocks])[None]
    expected = np.stack([project_block(b, math.inf) for b in field[0]])
    planar = np.ascontiguousarray(field.transpose(3, 2, 0, 1))
    data = planar.transpose(2, 3, 1, 0)
    out = _project_ball(data, math.inf)
    assert out is data
    np.testing.assert_allclose(out[0], expected, atol=1e-14)


def test_dual_gradient_trivial_cases():
    rng = np.random.default_rng(2)
    g = rand_image(rng, 5, 5)
    cfg = SolverConfig(tau=0.3, constraint=None)
    psi = np.zeros((5, 5, 9, 2))
    grad = dual_gradient(psi, g, None, cfg)
    np.testing.assert_allclose(grad, 0.3 * jacobian_apply(g.data, cfg.kernel), atol=1e-14)
    const = Image(np.full((1, 5, 5), 0.6))
    np.testing.assert_array_equal(dual_gradient(psi, const, None, cfg), 0.0)


def test_dual_objective_trivial_cases():
    rng = np.random.default_rng(3)
    g = rand_image(rng, 5, 5)  # already inside the box
    cfg = SolverConfig(tau=0.2)
    assert dual_objective(np.zeros((5, 5, 9, 2)), g, None, cfg) == 0.0
    # unconstrained: only the norm-difference term survives
    cfg2 = SolverConfig(tau=0.2, constraint=None)
    psi = rng.standard_normal((5, 5, 9, 2))
    w = g.data - 0.2 * jacobian_adjoint_apply(psi, cfg2.kernel, 1)
    expected = 0.5 * (np.sum(g.data**2) - np.sum(w**2))
    assert dual_objective(psi, g, None, cfg2) == pytest.approx(expected, rel=1e-12)


def test_dual_gradient_finite_difference():
    rng = np.random.default_rng(4)
    g = rand_image(rng, 4, 4)
    dp = rand_params(rng, 4, 4)
    cfg = SolverConfig(tau=0.3, constraint=None)
    psi = 0.3 * rng.standard_normal((4, 4, 9, 2))
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

        def mon(it, z, acc, worst=worst, q=q):
            if q == 1:
                s = np.linalg.svd(acc.reshape(-1, acc.shape[2], 2), compute_uv=False)
                worst.append(s.max())
            else:
                worst.append(np.sqrt(np.sum(acc**2, axis=(2, 3))).max())

        solve(g, dp, cfg, monitor=mon)
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
    # 10k-iteration reference run closes the primal-dual gap, certifying
    # optimality of the fixed point the default run approaches
    rng = np.random.default_rng(11)
    g = rand_image(rng, 4, 4)
    tau = 0.2
    cfg = SolverConfig(tau=tau, q=2, kernel=delta_kernel(), max_iters=10000, rel_tol=1e-15)
    last = {}

    def mon(it, z, acc):
        last["psi"] = acc

    res = solve(g, None, cfg, monitor=mon)
    gap = primal_energy(res.image, g, None, cfg) - dual_objective(last["psi"], g, None, cfg)
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
    cfg = SolverConfig(tau=tau, q=2, kernel=delta_kernel(), max_iters=5000, rel_tol=1e-14)
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
        cols.append(jacobian_apply(e, k, dp).ravel())
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
    cfg = SolverConfig(tau=tau, q=1, kernel=k, max_iters=5000, rel_tol=1e-14)
    ours = solve(Image(g[None]), dp, cfg).image
    assert np.abs(ours.data.ravel() - fv.value).max() < 1e-6


def reference_solve(g, dp, cfg):
    """Dual FISTA in the solver's iteration order, with fresh arrays for
    every intermediate and no workspace."""
    k, tau, c = cfg.kernel, cfg.tau, g.channels
    lip = (16.0 * math.sqrt(2.0) * tau if dp is None
           else lipschitz_field(dp, tau)[:, :, None, None])
    psi = np.zeros(jacobian_apply(g.data, k, dp).shape)
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
    return clip(g.data - tau * jacobian_adjoint_apply(prev, k, c, dp)), it


@pytest.mark.parametrize("shape", [(7, 5), (1, 4)])
@pytest.mark.parametrize("case", ["tv", "steered-1", "steered-3"])
def test_solve_is_bit_identical_to_fresh_array_reference(case, shape):
    rng = np.random.default_rng(23)
    h, w = shape
    if case == "tv":
        g = Image(rng.random((1, h, w)) * 1.4 - 0.2)
        dp = None
        cfg = SolverConfig(tau=0.2, q=2, kernel=delta_kernel(), max_iters=60, rel_tol=1e-3)
    else:
        g = Image(rng.random((int(case[-1]), h, w)) * 1.4 - 0.2)
        dp = rand_params(rng, h, w)
        cfg = SolverConfig(tau=0.1, q=1, max_iters=60, rel_tol=1e-3)
    res = solve(g, dp, cfg)
    expected, iterations = reference_solve(g, dp, cfg)
    assert res.iterations == iterations
    assert np.array_equal(res.image.data, expected)


@pytest.mark.parametrize("case", ["tv", "steered"])
def test_iterations_after_the_second_allocate_less_than_a_plane(case):
    # peak traced memory between consecutive monitor calls, above what
    # was held at the earlier call
    rng = np.random.default_rng(24)
    h = w = 64
    g = Image(rng.random((1, h, w)))
    if case == "tv":
        dp = None
        cfg = SolverConfig(tau=0.1, q=2, kernel=delta_kernel(), max_iters=8, rel_tol=1e-15)
    else:
        dp = rand_params(rng, h, w)
        cfg = SolverConfig(tau=0.1, q=1, max_iters=8, rel_tol=1e-15)
    growth = {}
    held = {}

    def mon(it, z, acc):
        if it > 1:
            growth[it] = tracemalloc.get_traced_memory()[1] - held["bytes"]
        tracemalloc.reset_peak()
        held["bytes"] = tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        solve(g, dp, cfg, monitor=mon)
    finally:
        tracemalloc.stop()
    assert sorted(growth) == list(range(2, 9))
    plane = h * w * 8
    assert all(growth[it] < plane for it in range(3, 9)), growth


def test_overflow_in_a_finite_input_raises():
    # J of columns alternating +-1e308 overflows; the next iterate is NaN
    data = np.empty((1, 6, 6))
    data[..., 0::2] = 1e308
    data[..., 1::2] = -1e308
    cfg = SolverConfig(tau=0.1, q=2, kernel=delta_kernel(), constraint=None)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match="non-finite values in solver iterate"):
            solve(Image(data), None, cfg)
