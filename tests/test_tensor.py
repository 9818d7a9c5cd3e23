import numpy as np
import pytest

from adstv import Image
from adstv.diffops import Kernel, delta_kernel, gaussian_kernel, grad_forward, reflect_index
from adstv.tensor import (
    DirectionalParams,
    Workspace,
    _gram,
    apply_direction,
    coherence,
    dual_field,
    dual_planes,
    eig2x2,
    jacobian_adjoint_apply,
    jacobian_apply,
    regularizer_value,
)

from conftest import rand_image, rand_params, structure_tensor


# ---------------------------------------------------------------------------
# DirectionalParams


def test_params_validation():
    ones = np.ones((3, 3))
    zeros = np.zeros((3, 3))
    dp = DirectionalParams.identity((3, 3))
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
    gf = grad_forward(f.data[0])
    np.testing.assert_array_equal(jf[:, :, 0, 0], gf.gx)
    np.testing.assert_array_equal(jf[:, :, 0, 1], gf.gy)


def test_patch_jacobian_row_layout():
    # rows enumerate channels, then taps in row-major offset order; each row
    # is sqrt(weight) times the gradient at the mirrored source pixel
    rng = np.random.default_rng(1)
    f = rand_image(rng, 5, 4, c=3)
    k = gaussian_kernel(1.0, 3)
    jf = jacobian_apply(f.data, k)
    assert jf.shape[2] == 9 * 3
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
                    row = jf[y, x, c * 9 + l]
                    assert row[0] == pytest.approx(np.sqrt(wt) * grads[c].gx[sy, sx], abs=1e-15)
                    assert row[1] == pytest.approx(np.sqrt(wt) * grads[c].gy[sy, sx], abs=1e-15)


def gather_oracle(f, k, dp):
    """The forward operator by explicit reflect-indexed lookups: row c*L + l
    at pixel (y, x) is sqrt(w_l) g[reflect(y - dy), reflect(x - dx)]."""
    c, h, w = f.data.shape
    taps = k.taps()
    out = np.empty((h, w, len(taps) * c, 2))
    for ch in range(c):
        gf = grad_forward(f.data[ch])
        g = np.stack([gf.gx, gf.gy], axis=-1)
        if dp is not None:
            g = apply_direction(g, dp.alpha_plus, dp.alpha_minus, dp.theta)
        for l, ((dy, dx), wt) in enumerate(taps):
            ys = reflect_index(np.arange(h) - dy, h)
            xs = reflect_index(np.arange(w) - dx, w)
            out[:, :, ch * len(taps) + l] = np.sqrt(wt) * g[np.ix_(ys, xs)]
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


def test_jacobian_apply_is_planar_view_and_fills_out():
    rng = np.random.default_rng(19)
    f = rand_image(rng, 6, 5, 3)
    k = gaussian_kernel(0.5, 3)
    dp = rand_params(rng, 6, 5)
    jf = jacobian_apply(f.data, k, dp)
    assert jf.shape == (6, 5, 27, 2)
    assert jf.transpose(3, 2, 0, 1).flags.c_contiguous
    out = np.zeros((2, 27, 6, 5)).transpose(2, 3, 1, 0)
    assert jacobian_apply(f.data, k, dp, out=out) is out
    np.testing.assert_array_equal(out, jf)
    with pytest.raises(ValueError):
        jacobian_apply(f.data, k, dp, out=np.zeros((6, 5, 9, 2)))


def test_dual_field_is_planar_and_its_planes_are_views():
    rng = np.random.default_rng(23)
    f = rand_image(rng, 6, 5, 3)
    k = gaussian_kernel(0.5, 3)
    field = dual_field(27, 6, 5)
    assert field.shape == (6, 5, 27, 2) and not field.any()
    assert jacobian_apply(f.data, k, out=field) is field
    planes = dual_planes(field)
    assert planes.shape == (54, 6, 5) and np.shares_memory(planes, field)
    np.testing.assert_array_equal(planes[27 + 4], field[:, :, 4, 1])
    with pytest.raises(ValueError):
        dual_planes(np.zeros((6, 5, 27, 2)))


def test_single_tap_weight_scales_the_rows():
    # a 1x1 kernel whose weight is not exactly 1 scales J and J* by its
    # square root
    rng = np.random.default_rng(29)
    k = Kernel(np.array([[1.0 - 1e-12]]))
    sw = np.sqrt(1.0 - 1e-12)
    assert sw != 1.0
    for c in (1, 3):
        for dp in (None, rand_params(rng, 6, 5)):
            f = rand_image(rng, 6, 5, c).data
            np.testing.assert_array_equal(
                jacobian_apply(f, k, dp), sw * jacobian_apply(f, delta_kernel(), dp))
            psi = rng.standard_normal((6, 5, c, 2))
            np.testing.assert_array_equal(
                jacobian_adjoint_apply(psi, k, c, dp),
                jacobian_adjoint_apply(sw * psi, delta_kernel(), c, dp))


@pytest.mark.parametrize("support", [1, 3, 5])
def test_workspace_and_out_change_no_value(support):
    # J and J* through one reused workspace, whose scratch is filled with
    # NaN before every call, and into given outputs equal the plain calls
    rng = np.random.default_rng(support)
    k = delta_kernel() if support == 1 else gaussian_kernel(0.8, support)
    h, w = 7, 5
    for c in (1, 3):
        for dp in (None, rand_params(rng, h, w)):
            f = rand_image(rng, h, w, c).data
            ws = Workspace(k, c, h, w, dp)
            jf = jacobian_apply(f, k, dp)
            psi = np.ascontiguousarray(rng.standard_normal((2, support**2 * c, h, w)))
            psi = psi.transpose(2, 3, 1, 0)
            adj = jacobian_adjoint_apply(psi, k, c, dp)
            out = np.empty((2, support**2 * c, h, w)).transpose(2, 3, 1, 0)
            into = np.empty((c, h, w))
            for _ in range(2):
                for plane in sum(ws.scratch(3, 8), []):
                    plane[...] = np.nan
                assert jacobian_apply(f, k, dp, out=out, workspace=ws) is out
                np.testing.assert_array_equal(out, jf)
                for plane in sum(ws.scratch(3, 8), []):
                    plane[...] = np.nan
                assert jacobian_adjoint_apply(psi, k, c, dp, out=into, workspace=ws) is into
                np.testing.assert_array_equal(into, adj)
            other = None if dp is not None else rand_params(rng, h, w)
            with pytest.raises(ValueError):
                jacobian_apply(f, k, other, workspace=ws)
            with pytest.raises(ValueError):
                jacobian_adjoint_apply(psi, k, c, other, workspace=ws)


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
    from adstv.diffops import GradientField, div_backward

    psi = rng.standard_normal(jacobian_apply(rand_image(rng, 4, 4).data, delta_kernel()).shape)
    expected = -div_backward(GradientField(gx=psi[:, :, 0, 0], gy=psi[:, :, 0, 1]))
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
    dp = DirectionalParams.identity((6, 5))
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
# apply_direction


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
    lp0, lm0, _, _ = eig2x2(*_gram(jacobian_apply(f.data, k)))
    lp1, lm1, _, _ = eig2x2(*_gram(jacobian_apply(f.data, k, dp)))
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
    lp, lm, vp, vm = eig2x2(4.0, 0.0, 1.0)
    assert lp == 4.0 and lm == 1.0
    np.testing.assert_allclose(vp, [1.0, 0.0])
    np.testing.assert_allclose(vm, [0.0, 1.0])
    lp, lm, vp, vm = eig2x2(1.0, 1.0, 1.0)
    assert lp == pytest.approx(2.0, abs=1e-14)
    assert lm == pytest.approx(0.0, abs=1e-14)
    np.testing.assert_allclose(vp, np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-14)
    # isotropic: coordinate axes by convention
    _, _, vp, vm = eig2x2(2.0, 0.0, 2.0)
    np.testing.assert_array_equal(vp, [1.0, 0.0])
    np.testing.assert_array_equal(vm, [0.0, 1.0])


def test_eig2x2_characteristic_polynomial_oracle():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((200, 2, 2))
    mats = a @ a.transpose(0, 2, 1)  # random PSD
    sxx, sxy, syy = mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 1]
    lp, lm, vp, vm = eig2x2(sxx, sxy, syy)
    for lam in (lp, lm):
        residual = lam**2 - (sxx + syy) * lam + (sxx * syy - sxy**2)
        assert np.all(np.abs(residual) <= 1e-12 * np.maximum(1.0, lp**2))
    # eigenvector equations
    np.testing.assert_allclose(sxx * vp[:, 0] + sxy * vp[:, 1], lp * vp[:, 0], atol=1e-10)
    np.testing.assert_allclose(sxy * vp[:, 0] + syy * vp[:, 1], lp * vp[:, 1], atol=1e-10)
    np.testing.assert_allclose(sxy * vm[:, 0] + syy * vm[:, 1], lm * vm[:, 1], atol=1e-10)
    # sign convention: first nonzero component nonnegative
    assert ((vp[:, 0] > 0) | ((vp[:, 0] == 0) & (vp[:, 1] >= 0))).all()


def test_eig2x2_matches_lapack():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((100, 2, 2))
    mats = a @ a.transpose(0, 2, 1)
    lp, lm, _, _ = eig2x2(mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 1])
    ref = np.linalg.eigvalsh(mats)
    np.testing.assert_allclose(lm, ref[:, 0], atol=1e-11)
    np.testing.assert_allclose(lp, ref[:, 1], atol=1e-11)


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
    gf = grad_forward(f.data[0])
    tv = np.sum(np.sqrt(gf.gx**2 + gf.gy**2))
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
    svals = np.linalg.svd(jf.reshape(-1, jf.shape[2], 2), compute_uv=False)
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
