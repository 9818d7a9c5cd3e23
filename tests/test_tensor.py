import tracemalloc

import numpy as np
import pytest

from adstv import Image
from adstv.diffops import Kernel, delta_kernel, gaussian_kernel, grad_forward, reflect_index
from adstv.tensor import (
    DirectionalParams,
    Workspace,
    _finish,
    _gram,
    _scatter,
    coherence,
    dual_field,
    eig2x2,
    jacobian_adjoint_apply,
    jacobian_apply,
    upsample_dual,
)
from adstv.solver import SolverConfig, _project_ball, solve

from conftest import (
    apply_direction,
    band_rows,
    identity_params,
    minor_angle,
    pixel_blocks,
    rand_image,
    rand_params,
    regularizer_value,
    structure_tensor,
)


# ---------------------------------------------------------------------------
# DirectionalParams


def test_params_validation():
    ones = np.ones((3, 3))
    zeros = np.zeros((3, 3))
    dp = identity_params((3, 3))
    assert dp.alpha_plus == 1.0
    with pytest.raises(ValueError):
        DirectionalParams(0.5, ones, zeros)
    with pytest.raises(ValueError):
        DirectionalParams(2.0, ones * 3.0, zeros)          # am > ap
    with pytest.raises(ValueError):
        DirectionalParams(2.0, ones, zeros + np.pi)        # theta out of range
    with pytest.raises(ValueError):
        DirectionalParams(2.0, ones, zeros - 0.1)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            DirectionalParams(bad, ones, zeros)
        with pytest.raises(ValueError):
            DirectionalParams(2.0, np.where(np.eye(3) > 0, bad, 1.0), zeros)
        with pytest.raises(ValueError):
            DirectionalParams(2.0, ones, np.where(np.eye(3) > 0, bad, 0.0))


# ---------------------------------------------------------------------------
# Forward operator


def test_patch_jacobian_zero_for_constant():
    jf = jacobian_apply(np.full((1, 5, 5), 0.8), gaussian_kernel(0.5, 3))
    assert not jf.any()


def test_patch_jacobian_delta_kernel_rows_are_gradients():
    rng = np.random.default_rng(0)
    f = rand_image(rng, 6, 6)
    jf = jacobian_apply(f.data, delta_kernel())
    gx, gy = grad_forward(f.data[0])
    np.testing.assert_array_equal(jf[0, 0], gx)
    np.testing.assert_array_equal(jf[1, 0], gy)


def test_patch_jacobian_row_layout():
    # rows enumerate channels, then taps in row-major offset order; each row
    # is sqrt(weight) times the gradient at the mirrored source pixel
    rng = np.random.default_rng(1)
    f = rand_image(rng, 5, 4, c=3)
    k = gaussian_kernel(1.0, 3)
    jf = jacobian_apply(f.data, k)
    assert jf.shape[1] == 9 * 3
    taps = k.taps()
    grads = [grad_forward(f.data[c]) for c in range(3)]

    def mirror(i, n):
        m = i % (2 * n)
        return 2 * n - 1 - m if m >= n else m

    for c in range(3):
        for l, ((dy, dx), wt) in enumerate(taps):
            for y in (0, 2, 4):
                for x in (0, 3):
                    sy = mirror(y - dy, 5)
                    sx = mirror(x - dx, 4)
                    row = jf[:, c * 9 + l, y, x]
                    assert row[0] == pytest.approx(np.sqrt(wt) * grads[c][0][sy, sx], abs=1e-15)
                    assert row[1] == pytest.approx(np.sqrt(wt) * grads[c][1][sy, sx], abs=1e-15)


def gather_oracle(f, k, dp):
    """The forward operator by explicit reflect-indexed lookups: row c*L + l
    at pixel (y, x) is sqrt(w_l) g[reflect(y - dy), reflect(x - dx)]."""
    c, h, w = f.data.shape
    taps = k.taps()
    out = np.empty((2, len(taps) * c, h, w))
    blocks = pixel_blocks(out)
    for ch in range(c):
        g = np.stack(grad_forward(f.data[ch]), axis=-1)
        if dp is not None:
            g = apply_direction(g, dp.alpha_plus, dp.alpha_minus, dp.theta)
        for l, ((dy, dx), wt) in enumerate(taps):
            ys = reflect_index(np.arange(h) - dy, h)
            xs = reflect_index(np.arange(w) - dx, w)
            blocks[:, :, ch * len(taps) + l] = np.sqrt(wt) * g[np.ix_(ys, xs)]
    return out


@pytest.mark.parametrize("support", [5, 7])
@pytest.mark.parametrize("shape", [(1, 1), (1, 4), (2, 3), (3, 2)])
def test_gather_scatter_on_images_smaller_than_the_kernel(support, shape):
    # the reflect extension wraps more than once on every side
    rng = np.random.default_rng(support * 10 + shape[0] * 3 + shape[1])
    k = gaussian_kernel(1.2, support)
    h, w = shape
    for c in (1, 3):
        for dp in (None, rand_params(rng, h, w)):
            f = rand_image(rng, h, w, c)
            jf = jacobian_apply(f.data, k, dp)
            np.testing.assert_array_equal(jf, gather_oracle(f, k, dp))
            psi = rng.standard_normal(jf.shape)
            lhs = np.vdot(jf, psi)
            rhs = np.vdot(f.data, jacobian_adjoint_apply(psi, k, c, dp))
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


def test_jacobian_apply_returns_a_contiguous_field():
    rng = np.random.default_rng(19)
    f = rand_image(rng, 6, 5, 3)
    k = gaussian_kernel(0.5, 3)
    dp = rand_params(rng, 6, 5)
    jf = jacobian_apply(f.data, k, dp)
    assert jf.shape == (2, 27, 6, 5) and jf.flags.c_contiguous


@pytest.mark.parametrize("support", [1, 3])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("steered", [False, True], ids=["unsteered", "steered"])
@pytest.mark.parametrize("c", [1, 3])
def test_banded_plain_j_equals_the_one_band_field(monkeypatch, support, dtype, steered, c):
    # plain J runs its workspace's bands, as the ascent does: three or more
    # bands, even or not, change no bit of the field
    rng = np.random.default_rng([support, c, int(steered), np.dtype(dtype).itemsize])
    k = delta_kernel() if support == 1 else gaussian_kernel(0.7, 3)
    h, w = 8, 5
    f = rand_image(rng, h, w, c).data.astype(dtype)
    dp = rand_params(rng, h, w) if steered else None
    assert len(Workspace(k, c, h, w, dp, dtype).bands) == 1
    whole = jacobian_apply(f, k, dp)
    for rows in (1, 2, 3):
        band_rows(monkeypatch, rows, k, c, w, dtype)
        assert len(Workspace(k, c, h, w, dp, dtype).bands) >= 3
        banded = jacobian_apply(f, k, dp)
        assert banded.dtype == dtype
        assert np.array_equal(banded, whole)


@pytest.mark.parametrize("kernel", ["delta", "3x3", "5x5"])
@pytest.mark.parametrize("steered", [False, True], ids=["unsteered", "steered"])
@pytest.mark.parametrize("c", [1, 3])
def test_banded_adjoint_equals_the_one_band_adjoint(monkeypatch, kernel, steered, c):
    # J* scatters its workspace's bands from the top, in
    # jacobian_adjoint_apply and in a solve's first scatter: bands of 1, 2
    # and 5 rows change no bit of the samples, nor of a cold or a warm
    # solve, whose first scatter carries the start dual
    k = {"delta": delta_kernel(), "3x3": gaussian_kernel(0.5, 3),
         "5x5": gaussian_kernel(1.0, 5)}[kernel]
    h, w = 11, 6
    rows = k.support**2 * c
    rng = np.random.default_rng([k.support, c, int(steered)])
    dp = rand_params(rng, h, w) if steered else None
    psi = rng.standard_normal((2, rows, h, w))
    g = rand_image(rng, h, w, c)
    cfg = SolverConfig(tau=0.1, q=1, kernel=k, max_iters=3)
    start = _project_ball(rng.standard_normal((2, rows, h, w)), cfg.dual_p)

    def results():
        warm = start.copy()
        return (jacobian_adjoint_apply(psi, k, c, dp), solve(g, dp, cfg).image.data,
                solve(g, dp, cfg, dual=warm).image.data, warm)

    assert len(Workspace(k, c, h, w, dp).bands) == 1
    whole = results()
    for band in (1, 2, 5):
        band_rows(monkeypatch, band, k, c, w)
        assert len(Workspace(k, c, h, w, dp).bands) == -(-h // band)
        for banded, one_band in zip(results(), whole):
            assert np.array_equal(banded, one_band)


def test_adjoint_refuses_a_field_whose_leading_axis_is_not_two():
    # the (H, W, rows, 2) layout of a 6 x 1 image has a fitting row count
    # when read as (2, rows, H, W), and only its leading axis gives it away
    rng = np.random.default_rng(41)
    f = rand_image(rng, 6, 1)
    jf = jacobian_apply(f.data, delta_kernel())
    assert jf.shape == (2, 1, 6, 1)
    jacobian_adjoint_apply(jf, delta_kernel(), 1)
    for bad in (pixel_blocks(jf), jf[0], jf[None]):
        with pytest.raises(ValueError, match="2, rows, H, W"):
            jacobian_adjoint_apply(bad, delta_kernel(), 1)


def test_dual_field_is_contiguous_and_its_planes_are_views():
    field = dual_field(27, 6, 5)
    assert field.shape == (2, 27, 6, 5) and field.flags.c_contiguous and not field.any()
    planes = field.reshape(54, 6, 5, copy=False)
    for kk in range(2):
        for r in range(27):
            assert field[kk, r].base is field
            np.testing.assert_array_equal(planes[27 * kk + r], field[kk, r])


@pytest.mark.parametrize("rows, p", [(1, 2), (9, np.inf)])
@pytest.mark.parametrize("shape", [(8, 6), (9, 7), (97, 95), (2, 40)])
def test_upsample_dual_repeats_blocks_and_stays_on_the_balls(shape, rows, p):
    rng = np.random.default_rng(31)
    h, w = shape
    hc, wc = h // 2, w // 2
    coarse = dual_field(rows, hc, wc, np.float32)
    coarse[...] = 3.0 * rng.standard_normal(coarse.shape)
    _project_ball(coarse, p)
    fine = upsample_dual(coarse, h, w)
    assert fine.shape == (2, rows, h, w) and fine.dtype == np.float32
    assert fine.flags.c_contiguous
    # nearest neighbour, with an odd last row or column repeating the one
    # before it
    ys = np.minimum(np.arange(h) // 2, hc - 1)
    xs = np.minimum(np.arange(w) // 2, wc - 1)
    np.testing.assert_array_equal(fine, coarse[:, :, ys][:, :, :, xs])
    blocks = pixel_blocks(fine).reshape(-1, rows, 2).astype(np.float64)
    if p == 2:
        norms = np.sqrt(np.sum(blocks**2, axis=(1, 2)))
    else:
        norms = np.linalg.svd(blocks, compute_uv=False).max(axis=1)
    assert norms.max() <= 1.0 + 1e-6


def test_a_one_tap_kernel_is_stored_as_the_identity():
    # a 1x1 weight within the unit-sum tolerance of 1 is stored as exactly
    # 1, so its J and J* are those of the delta kernel, bit for bit (1 +
    # 1e-12 rounds to just past the tolerance)
    rng = np.random.default_rng(29)
    for weight in (1.0 - 1e-12, 1.0 + 5e-13):
        assert weight != 1.0
        k = Kernel(np.array([[weight]]))
        assert k.weights.dtype == np.float64 and k.weights.tolist() == [[1.0]]
        for c in (1, 3):
            for dp in (None, rand_params(rng, 6, 5)):
                f = rand_image(rng, 6, 5, c).data
                np.testing.assert_array_equal(
                    jacobian_apply(f, k, dp), jacobian_apply(f, delta_kernel(), dp))
                psi = rng.standard_normal((2, c, 6, 5))
                np.testing.assert_array_equal(
                    jacobian_adjoint_apply(psi, k, c, dp),
                    jacobian_adjoint_apply(psi, delta_kernel(), c, dp))


@pytest.mark.parametrize("support", [1, 3, 5])
def test_workspace_and_out_change_no_value(support):
    # J's ascent step from a zeroed field with step 1, and J*'s scatter and
    # finish, the path solve runs, through one reused workspace, whose
    # scratch is filled with NaN before every call, and into given outputs
    # equal the plain calls
    rng = np.random.default_rng(support)
    k = delta_kernel() if support == 1 else gaussian_kernel(0.8, support)
    h, w = 7, 5
    for c in (1, 3):
        for dp in (None, rand_params(rng, h, w)):
            f = rand_image(rng, h, w, c).data
            ws = Workspace(k, c, h, w, dp)
            jf = jacobian_apply(f, k, dp)
            psi = rng.standard_normal((2, support**2 * c, h, w))
            adj = jacobian_adjoint_apply(psi, k, c, dp)
            out = np.empty((2, support**2 * c, h, w))
            into = np.empty((c, h, w))
            for _ in range(2):
                ws._block[...] = np.nan
                out[...] = 0.0
                assert jacobian_apply(f, k, dp, out=out, workspace=ws, step=1.0) is out
                np.testing.assert_array_equal(out, jf)
                ws._block[...] = np.nan
                _scatter(ws, psi, 0, h)
                assert _finish(ws, psi, into) is into
                np.testing.assert_array_equal(into, adj)
            # J* is the plain operator: it takes no workspace and no out
            for kwargs in (dict(workspace=ws), dict(out=into)):
                with pytest.raises(TypeError):
                    jacobian_adjoint_apply(psi, k, c, dp, **kwargs)


STEP_KERNELS = {
    "1": delta_kernel(),
    "1-nonunit": Kernel(np.array([[1.0 - 1e-12]])),
    "3": gaussian_kernel(0.5, 3),
    "5": gaussian_kernel(1.0, 5),
    "7": gaussian_kernel(1.2, 7),
    "3-zero-taps": Kernel(np.array([[0.0, 0.2, 0.0], [0.2, 0.2, 0.2], [0.0, 0.2, 0.0]])),
}


@pytest.mark.parametrize("kernel", sorted(STEP_KERNELS))
@pytest.mark.parametrize("shape", [(1, 1), (1, 4), (2, 3), (3, 2), (7, 5)])
def test_step_mode_adds_j_over_step_into_out(kernel, shape):
    # jacobian_apply(z, k, dp, out=psi, step=L) leaves psi0 + J z / L in
    # psi, exactly, through a reused workspace whose scratch is NaN-filled
    # before every call
    k = STEP_KERNELS[kernel]
    h, w = shape
    rng = np.random.default_rng([h, w, k.support, len(kernel)])
    for c in (1, 3):
        for dp in (None, rand_params(rng, h, w)):
            ws = Workspace(k, c, h, w, dp)
            rows = k.support**2 * c
            for step in (8.0 * 0.07, 1.0 + 30.0 * rng.random()):
                z = rand_image(rng, h, w, c).data
                psi0 = rng.standard_normal((2, rows, h, w))
                expected = psi0 + jacobian_apply(z, k, dp) / step
                psi = dual_field(rows, h, w)
                psi[...] = psi0
                ws._block[...] = np.nan
                assert jacobian_apply(z, k, dp, out=psi, workspace=ws, step=step) is psi
                assert np.array_equal(psi, expected)


def test_step_mode_needs_out_workspace_and_step_together():
    # J is plain, or the ascent step with all three: any other mix is
    # refused before the field is touched
    rng = np.random.default_rng(31)
    f = rand_image(rng, 6, 5, 1).data
    k = gaussian_kernel(0.5, 3)
    dp = rand_params(rng, 6, 5)
    ws = Workspace(k, 1, 6, 5, dp)
    psi = dual_field(9, 6, 5)
    ascent = dict(out=psi, workspace=ws, step=2.0)
    for left_out in [("workspace", "step"), ("out", "step"), ("out", "workspace"),
                     ("step",), ("workspace",), ("out",)]:
        kwargs = {key: value for key, value in ascent.items() if key not in left_out}
        with pytest.raises(ValueError, match="together"):
            jacobian_apply(f, k, dp, **kwargs)
        assert not psi.any()


def test_gram_equals_convolution_structure_tensor():
    rng = np.random.default_rng(2)
    f = rand_image(rng, 6, 6)
    k = gaussian_kernel(0.5, 3)
    gxx, gxy, gyy = _gram(jacobian_apply(f.data, k))
    st = structure_tensor(f, k)
    np.testing.assert_allclose(gxx, st.sxx, atol=1e-10)
    np.testing.assert_allclose(gxy, st.sxy, atol=1e-10)
    np.testing.assert_allclose(gyy, st.syy, atol=1e-10)


# ---------------------------------------------------------------------------
# Adjoints


def test_adjoint_zero_and_delta_reduction():
    rng = np.random.default_rng(3)
    k = gaussian_kernel(0.5, 3)
    jf = jacobian_apply(rand_image(rng, 4, 4).data, k)
    out = jacobian_adjoint_apply(rng.standard_normal(jf.shape), k, 1)
    assert out.shape == (1, 4, 4)
    assert not jacobian_adjoint_apply(np.zeros(jf.shape), k, 1).any()
    # single-tap case: adjoint is minus the divergence of the row field
    from adstv.diffops import div_backward

    psi = rng.standard_normal(jacobian_apply(rand_image(rng, 4, 4).data, delta_kernel()).shape)
    expected = -div_backward(psi[0, 0], psi[1, 0])
    np.testing.assert_array_equal(jacobian_adjoint_apply(psi, delta_kernel(), 1)[0], expected)


def test_adjoint_inner_product_identity():
    rng = np.random.default_rng(4)
    for c in (1, 3):
        for support in (1, 3):
            k = delta_kernel() if support == 1 else gaussian_kernel(0.5, support)
            f = rand_image(rng, 5, 5, c)
            jf = jacobian_apply(f.data, k)
            psi = rng.standard_normal(jf.shape)
            lhs = np.vdot(jf, psi)
            rhs = np.vdot(f.data, jacobian_adjoint_apply(psi, k, c))
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


def test_directional_adjoint_inner_product_identity():
    rng = np.random.default_rng(5)
    for c in (1, 3):
        for support in (1, 3, 5):
            k = delta_kernel() if support == 1 else gaussian_kernel(0.7, support)
            f = rand_image(rng, 5, 5, c)
            dp = rand_params(rng, 5, 5)
            jf = jacobian_apply(f.data, k, dp)
            psi = rng.standard_normal(jf.shape)
            lhs = np.vdot(jf, psi)
            rhs = np.vdot(f.data, jacobian_adjoint_apply(psi, k, c, dp))
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


def test_directional_reduces_to_plain_under_identity_params():
    rng = np.random.default_rng(6)
    f = rand_image(rng, 6, 5, 3)
    k = gaussian_kernel(0.5, 3)
    dp = identity_params((6, 5))
    np.testing.assert_array_equal(
        jacobian_apply(f.data, k, dp), jacobian_apply(f.data, k)
    )
    psi = rng.standard_normal(jacobian_apply(f.data, k).shape)
    np.testing.assert_array_equal(
        jacobian_adjoint_apply(psi, k, 3, dp), jacobian_adjoint_apply(psi, k, 3)
    )


def test_directional_dimension_mismatch():
    rng = np.random.default_rng(7)
    f = rand_image(rng, 6, 6)
    dp = rand_params(rng, 5, 5)
    with pytest.raises(ValueError):
        jacobian_apply(f.data, gaussian_kernel(0.5, 3), dp)


# ---------------------------------------------------------------------------
# apply_direction, the steering oracle of conftest


def test_apply_direction_identity_and_rotation():
    g = np.array([0.3, -0.7])
    np.testing.assert_allclose(apply_direction(g, 1.0, 1.0, 0.0), g, atol=1e-15)
    out = apply_direction(np.array([0.0, 1.0]), 2.5, 1.5, np.pi / 2)
    np.testing.assert_allclose(out, [2.5, 0.0], atol=1e-12)


def test_apply_direction_matches_matrix_product():
    rng = np.random.default_rng(8)
    for _ in range(50):
        g = rng.standard_normal(2)
        ap = 1.0 + 5.0 * rng.random()
        am = 1.0 + (ap - 1.0) * rng.random()
        th = rng.random() * np.pi
        rot = np.array([[np.cos(-th), -np.sin(-th)], [np.sin(-th), np.cos(-th)]])
        expected = np.diag([ap, am]) @ rot @ g
        np.testing.assert_allclose(apply_direction(g, ap, am, th), expected, atol=1e-12)
        r = rot @ g
        assert np.sum(apply_direction(g, ap, am, th) ** 2) == pytest.approx(
            ap**2 * r[0] ** 2 + am**2 * r[1] ** 2, rel=1e-12
        )


def test_constant_rotation_preserves_gram_eigenvalues():
    rng = np.random.default_rng(9)
    f = rand_image(rng, 8, 8)
    k = gaussian_kernel(0.5, 3)
    h, w = 8, 8
    dp = DirectionalParams(1.0, np.ones((h, w)), np.full((h, w), 0.9))
    lp0, lm0 = eig2x2(*_gram(jacobian_apply(f.data, k)))
    lp1, lm1 = eig2x2(*_gram(jacobian_apply(f.data, k, dp)))
    np.testing.assert_allclose(lp0, lp1, atol=1e-10)
    np.testing.assert_allclose(lm0, lm1, atol=1e-10)


def test_directional_linear_in_image():
    rng = np.random.default_rng(10)
    k = gaussian_kernel(0.5, 3)
    dp = rand_params(rng, 5, 5)
    f1 = rand_image(rng, 5, 5)
    f2 = rand_image(rng, 5, 5)
    combo = Image(2.0 * f1.data - 3.0 * f2.data)
    lhs = jacobian_apply(combo.data, k, dp)
    rhs = (2.0 * jacobian_apply(f1.data, k, dp)
           - 3.0 * jacobian_apply(f2.data, k, dp))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# Structure tensor and eigensystem


def test_structure_tensor_trivial_cases():
    st = structure_tensor(Image(np.full((1, 6, 6), 0.2)), gaussian_kernel(0.5, 3))
    assert not st.lambda_plus.any() and not st.lambda_minus.any()
    w = 8
    ramp = Image(np.tile(np.arange(w, dtype=np.float64), (8, 1))[None] / w)
    st = structure_tensor(ramp, gaussian_kernel(0.5, 3))
    inner = np.s_[2:-2, 2:-2]
    assert (st.sxx[inner] > 0).all()
    np.testing.assert_allclose(st.sxy[inner], 0.0, atol=1e-15)
    np.testing.assert_allclose(st.syy[inner], 0.0, atol=1e-15)
    np.testing.assert_allclose(np.abs(st.v_plus[inner][..., 0]), 1.0, atol=1e-12)


def test_structure_tensor_psd_and_orthonormal():
    rng = np.random.default_rng(11)
    st = structure_tensor(rand_image(rng, 10, 10, 3), gaussian_kernel(0.5, 3))
    assert (st.sxx >= 0).all() and (st.syy >= 0).all()
    assert (st.sxx * st.syy - st.sxy**2 >= -1e-10).all()
    assert (st.lambda_plus >= st.lambda_minus).all()
    assert (st.lambda_minus >= -1e-12).all()
    dots = np.sum(st.v_plus * st.v_minus, axis=-1)
    np.testing.assert_allclose(dots, 0.0, atol=1e-10)
    np.testing.assert_allclose(np.sum(st.v_plus**2, axis=-1), 1.0, atol=1e-10)


def test_eig2x2_diagonal_and_rank1():
    lp, lm = eig2x2(4.0, 0.0, 1.0)
    assert lp == 4.0 and lm == 1.0
    # minor vector (0, 1)
    np.testing.assert_allclose(minor_angle(4.0, 0.0, 1.0), [np.pi / 2])
    lp, lm = eig2x2(1.0, 1.0, 1.0)
    assert lp == pytest.approx(2.0, abs=1e-14)
    assert lm == pytest.approx(0.0, abs=1e-14)
    # major vector (1, 1) / sqrt(2), minor vector at 3 pi / 4
    np.testing.assert_allclose(minor_angle(1.0, 1.0, 1.0), [0.75 * np.pi], atol=1e-14)
    # isotropic: no orientation, so the tie rule's pi/2
    np.testing.assert_array_equal(minor_angle(2.0, 0.0, 2.0), [np.pi / 2])


def test_eig2x2_characteristic_polynomial_oracle():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((200, 2, 2))
    mats = a @ a.transpose(0, 2, 1)  # random PSD
    sxx, sxy, syy = mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 1]
    lp, lm = eig2x2(sxx, sxy, syy)
    for lam in (lp, lm):
        residual = lam**2 - (sxx + syy) * lam + (sxx * syy - sxy**2)
        assert np.all(np.abs(residual) <= 1e-12 * np.maximum(1.0, lp**2))
    # eigenvector equations for the unit vectors at the minor angle and a
    # quarter turn from it
    theta = minor_angle(sxx, sxy, syy)
    vm = np.stack([np.cos(theta), np.sin(theta)], -1)
    vp = np.stack([-np.sin(theta), np.cos(theta)], -1)
    np.testing.assert_allclose(sxx * vp[:, 0] + sxy * vp[:, 1], lp * vp[:, 0], atol=1e-10)
    np.testing.assert_allclose(sxy * vp[:, 0] + syy * vp[:, 1], lp * vp[:, 1], atol=1e-10)
    np.testing.assert_allclose(sxy * vm[:, 0] + syy * vm[:, 1], lm * vm[:, 1], atol=1e-10)
    # the angle is folded into [0, pi)
    assert ((theta >= 0.0) & (theta < np.pi)).all()


def test_eig2x2_matches_lapack():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((100, 2, 2))
    mats = a @ a.transpose(0, 2, 1)
    lp, lm = eig2x2(mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 1])
    ref = np.linalg.eigvalsh(mats)
    np.testing.assert_allclose(lm, ref[:, 0], atol=1e-11)
    np.testing.assert_allclose(lp, ref[:, 1], atol=1e-11)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_eig2x2_matches_a_float64_hypot_reference(dtype):
    # sqrt(half^2 + sxy^2) in the entries' dtype against float64 hypot, at
    # magnitudes 1e-6 to 1e6 and at near-equal eigenvalues, where half is
    # 0 or a few ulps of the diagonal
    rng = np.random.default_rng(43)
    eps = np.finfo(dtype).eps
    a = rng.standard_normal((4000, 2, 2))
    mats = a @ a.transpose(0, 2, 1) * 10.0 ** rng.uniform(-6, 6, 4000)[:, None, None]
    sxx, sxy, syy = mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 1]
    d = 10.0 ** rng.uniform(-6, 6, 1000)
    near = (d, d * (1.0 + eps * rng.integers(0, 4, 1000)), d)
    tiny = d * 10.0 ** rng.uniform(-6, 0, 1000) * rng.choice([-1.0, 1.0], 1000)
    entries = [np.concatenate(e).astype(dtype)
               for e in ((sxx, near[0]), (sxy, tiny), (syy, near[1]))]
    out = tuple(np.empty_like(entries[0]) for _ in range(4))
    lp, lm = eig2x2(*entries, out=out)
    sxx, sxy, syy = (e.astype(np.float64) for e in entries)
    half = 0.5 * (sxx - syy)
    rad = np.hypot(half, sxy)
    np.testing.assert_allclose(out[3], rad, rtol=2 * eps, atol=0)
    mean = 0.5 * (sxx + syy)
    # lambda- cancels where it is small against lambda+: error relative to
    # the matrix's scale
    scale = np.abs(mean) + rad
    assert np.all(np.abs(lp - (mean + rad)) <= 3 * eps * scale)
    assert np.all(np.abs(lm - (mean - rad)) <= 3 * eps * scale)
    assert np.all(lp >= lm)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_eig2x2_out_planes_change_no_value_and_allocate_nothing(dtype):
    rng = np.random.default_rng(41)
    a = rng.standard_normal((64, 64, 2, 2)).astype(dtype)
    mats = a @ a.transpose(0, 1, 3, 2)
    entries = [np.ascontiguousarray(mats[..., i, j]) for i, j in ((0, 0), (0, 1), (1, 1))]
    lp, lm = eig2x2(*entries)
    assert lp.dtype == lm.dtype == dtype
    # into four planes of their own: the same bits, and half and rad too
    out = tuple(np.full((64, 64), np.nan, dtype) for _ in range(4))
    got = eig2x2(*entries, out=out)
    assert got[0] is out[0] and got[1] is out[1]
    assert np.array_equal(out[0], lp) and np.array_equal(out[1], lm)
    sxx, sxy, syy = (e.astype(np.float64) for e in entries)
    half = 0.5 * (sxx - syy)
    np.testing.assert_allclose(out[2], half, rtol=1e-6 if dtype == np.float32 else 1e-15)
    np.testing.assert_allclose(out[3], np.hypot(half, sxy),
                               rtol=1e-5 if dtype == np.float32 else 1e-15)
    # lm written over sxx and rad over syy, as the ball projection does
    sxx, sxy, syy = (e.copy() for e in entries)
    lp2, half2 = np.empty_like(sxx), np.empty_like(sxx)
    got = eig2x2(sxx, sxy, syy, out=(lp2, sxx, half2, syy))
    assert got[0] is lp2 and got[1] is sxx
    assert np.array_equal(lp2, lp) and np.array_equal(sxx, lm)
    assert np.array_equal(half2, out[2]) and np.array_equal(syy, out[3])
    # with out the call allocates no plane, nor any part of one
    tracemalloc.start()
    try:
        eig2x2(*entries, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < entries[0].nbytes // 8, peak


def test_coherence_values():
    assert coherence(3.0, 0.0) == 1.0
    assert coherence(2.0, 2.0) == 0.0
    assert coherence(4.0, 1.0) == 0.75
    assert coherence(0.0, 0.0) == 0.0
    assert coherence(1e-15, 0.0) == 0.0  # degenerate flat region
    rng = np.random.default_rng(14)
    lp = rng.random(100) + 1e-6
    lm = lp * rng.random(100)
    c = coherence(lp, lm)
    assert ((c >= 0) & (c <= 1)).all()


# ---------------------------------------------------------------------------
# Regularizer value


def test_regularizer_trivial_cases():
    const = Image(np.full((1, 6, 6), 0.4))
    assert regularizer_value(const, gaussian_kernel(0.5, 3), None, 1) == 0.0
    rng = np.random.default_rng(15)
    f = rand_image(rng, 6, 6)
    gx, gy = grad_forward(f.data[0])
    tv = np.sum(np.sqrt(gx**2 + gy**2))
    assert regularizer_value(f, delta_kernel(), None, 2) == pytest.approx(tv, rel=1e-12)
    with pytest.raises(ValueError):
        regularizer_value(f, delta_kernel(), None, 3)


def test_regularizer_matches_structure_tensor_route():
    rng = np.random.default_rng(16)
    f = rand_image(rng, 5, 5, 3)
    k = gaussian_kernel(0.5, 3)
    st = structure_tensor(f, k)
    sp = np.sqrt(np.maximum(st.lambda_plus, 0))
    sm = np.sqrt(np.maximum(st.lambda_minus, 0))
    assert regularizer_value(f, k, None, 1) == pytest.approx(np.sum(sp + sm), rel=1e-10)
    assert regularizer_value(f, k, None, 2) == pytest.approx(
        np.sum(np.sqrt(sp**2 + sm**2)), rel=1e-10
    )


def test_regularizer_singular_values_match_full_svd():
    rng = np.random.default_rng(17)
    f = rand_image(rng, 5, 5, 3)
    k = gaussian_kernel(0.7, 3)
    dp = rand_params(rng, 5, 5)
    jf = jacobian_apply(f.data, k, dp)
    svals = np.linalg.svd(pixel_blocks(jf), compute_uv=False)
    assert regularizer_value(f, k, dp, 1) == pytest.approx(svals.sum(), rel=1e-10)


def test_regularizer_rotation_invariance_with_constant_theta():
    rng = np.random.default_rng(18)
    f = rand_image(rng, 7, 7)
    k = gaussian_kernel(0.5, 3)
    h, w = 7, 7
    for th in (0.4, 1.3):
        dp = DirectionalParams(1.0, np.ones((h, w)), np.full((h, w), th))
        for q in (1, 2):
            assert regularizer_value(f, k, dp, q) == pytest.approx(
                regularizer_value(f, k, None, q), rel=1e-10
            )


@pytest.mark.parametrize("support", [1, 3])
def test_float32_operands_keep_float32_buffers(support):
    # J, J*, dual_field and a workspace's scratch follow the operands'
    # dtype, and a float32 J agrees with the float64 one on the same samples
    rng = np.random.default_rng(37 + support)
    k = delta_kernel() if support == 1 else gaussian_kernel(0.5, 3)
    h, w = 7, 5
    for c in (1, 3):
        for dp in (None, rand_params(rng, h, w)):
            f = rand_image(rng, h, w, c).data.astype(np.float32)
            rows = support**2 * c
            ws = Workspace(k, c, h, w, dp, np.float32)
            jf = jacobian_apply(f, k, dp)
            assert jf.dtype == np.float32
            np.testing.assert_allclose(jf, jacobian_apply(f.astype(np.float64), k, dp),
                                       rtol=1e-5, atol=1e-5)
            field = dual_field(rows, h, w, np.float32)
            assert field.dtype == np.float32 and field.shape == (2, rows, h, w)
            assert jacobian_apply(f, k, dp, out=field, workspace=ws, step=3.0) is field
            assert field.dtype == np.float32
            assert jacobian_adjoint_apply(field, k, c, dp).dtype == np.float32
            into = np.empty((c, h, w), np.float32)
            _scatter(ws, field, 0, h)
            assert _finish(ws, field, into) is into
            assert ws._block.dtype == np.float32
