import numpy as np
import pytest

from adstv import Image
from adstv.diffops import (
    GradientField,
    Kernel,
    convolve,
    convolve_channel,
    delta_kernel,
    div_backward,
    gaussian_kernel,
    grad_forward,
    reflect_index,
    sobel_grad,
)


def grad_matrix(h, w):
    """Dense (2*h*w, h*w) matrix of the forward-difference gradient."""
    n = h * w
    m = np.zeros((2 * n, n))
    for y in range(h):
        for x in range(w):
            i = y * w + x
            if x + 1 < w:
                m[i, y * w + x + 1] += 1.0
                m[i, i] -= 1.0
            if y + 1 < h:
                m[n + i, (y + 1) * w + x] += 1.0
                m[n + i, i] -= 1.0
    return m


def naive_correlate_reflect(f, k):
    """Triple-loop correlation with edge-mirrored extension."""
    h, w = f.shape
    r = k.shape[0] // 2
    pad = np.pad(f, r, mode="symmetric")
    out = np.zeros_like(f)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for dy in range(-r, r + 1):
                for dx in range(-r, r + 1):
                    acc += k[dy + r, dx + r] * pad[y + dy + r, x + dx + r]
            out[y, x] = acc
    return out


def test_grad_trivial_cases():
    gf = grad_forward(np.full((4, 5), 0.3))
    assert not gf.gx.any() and not gf.gy.any()
    w = 6
    ramp = np.tile(np.arange(w) / (w - 1), (4, 1))
    gf = grad_forward(ramp)
    np.testing.assert_allclose(gf.gx[:, :-1], 1.0 / (w - 1))
    assert not gf.gx[:, -1].any() and not gf.gy.any()


def test_grad_matches_dense_matrix():
    rng = np.random.default_rng(0)
    f = rng.random((5, 5))
    m = grad_matrix(5, 5)
    flat = m @ f.ravel()
    gf = grad_forward(f)
    np.testing.assert_allclose(gf.gx.ravel(), flat[:25], atol=1e-14)
    np.testing.assert_allclose(gf.gy.ravel(), flat[25:], atol=1e-14)


def test_div_is_negative_adjoint_dense():
    rng = np.random.default_rng(1)
    m = grad_matrix(4, 7)
    p = rng.standard_normal((2, 4, 7))
    via_matrix = -(m.T @ np.concatenate([p[0].ravel(), p[1].ravel()]))
    out = div_backward(GradientField(gx=p[0], gy=p[1]))
    np.testing.assert_allclose(out.ravel(), via_matrix, atol=1e-13)


def test_adjoint_identity_many_sizes():
    rng = np.random.default_rng(2)
    for h, w in ((2, 2), (3, 5), (7, 7), (1, 4), (4, 1)):
        u = rng.standard_normal((h, w))
        px = rng.standard_normal((h, w))
        py = rng.standard_normal((h, w))
        gf = grad_forward(u)
        lhs = np.sum(gf.gx * px + gf.gy * py)
        rhs = -np.sum(u * div_backward(GradientField(gx=px, gy=py)))
        assert abs(lhs - rhs) < 1e-12


def test_div_of_grad_of_constant():
    u = np.full((5, 5), 0.42)
    out = div_backward(grad_forward(u))
    np.testing.assert_array_equal(out, 0.0)


def test_sobel_cases():
    assert not sobel_grad(np.full((4, 4), 0.9)).gx.any()
    step = np.zeros((6, 6))
    step[:, 3:] = 1.0
    gf = sobel_grad(step)
    np.testing.assert_allclose(gf.gx[:, 2], 4.0)
    np.testing.assert_allclose(gf.gx[:, 3], 4.0)
    np.testing.assert_allclose(gf.gy, 0.0, atol=1e-14)


def test_sobel_matches_naive_oracle():
    rng = np.random.default_rng(3)
    f = rng.random((6, 6))
    sx = np.array([[-1.0, 0, 1], [-2, 0, 2], [-1, 0, 1]])
    gf = sobel_grad(f)
    np.testing.assert_allclose(gf.gx, naive_correlate_reflect(f, sx), atol=1e-12)
    np.testing.assert_allclose(gf.gy, naive_correlate_reflect(f, sx.T), atol=1e-12)


def test_kernel_validation():
    with pytest.raises(ValueError):
        Kernel(np.ones((2, 2)) / 4)       # even support
    with pytest.raises(ValueError):
        Kernel(np.ones((3, 3)))           # sum != 1
    with pytest.raises(ValueError):
        Kernel(np.array([[2.0, -1.0, 0.0]] * 3) / 3)  # negative weight
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            Kernel(np.array([[bad]]))
        weights = np.full((3, 3), 1.0 / 9.0)
        weights[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            Kernel(weights)
    k = delta_kernel()
    assert k.support == 1 and k.weights[0, 0] == 1.0


def test_gaussian_kernel_values():
    assert gaussian_kernel(5.0, 1).support == 1
    k = gaussian_kernel(0.5, 3)
    assert abs(k.weights.sum() - 1.0) < 1e-14
    # corner-to-center ratio is exp(-(1+1)/(2*0.25)) = e^-4
    assert abs(k.weights[0, 0] / k.weights[1, 1] - np.exp(-4.0)) < 1e-12
    k7 = gaussian_kernel(np.sqrt(7.0), 7)
    t = np.arange(-3, 4, dtype=np.float64)
    raw = np.exp(-(t[:, None] ** 2 + t[None, :] ** 2) / 14.0)
    np.testing.assert_allclose(k7.weights, raw / raw.sum(), atol=1e-14)
    assert np.array_equal(k7.weights, k7.weights[::-1, ::-1])
    with pytest.raises(ValueError):
        gaussian_kernel(1.0, 4)
    with pytest.raises(ValueError):
        gaussian_kernel(-1.0, 3)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="kernel sigma"):
            gaussian_kernel(bad, 3)


def test_kernel_taps_enumeration():
    k = gaussian_kernel(1.0, 3)
    taps = k.taps()
    assert len(taps) == 9
    assert taps[0][0] == (-1, -1) and taps[4][0] == (0, 0) and taps[8][0] == (1, 1)
    assert abs(sum(wt for _, wt in taps) - 1.0) < 1e-12


def test_convolve_identity_and_constant():
    rng = np.random.default_rng(4)
    img = Image(rng.random((3, 5, 6)))
    out = convolve(img, delta_kernel())
    np.testing.assert_array_equal(out.data, img.data)
    const = Image(np.full((1, 8, 8), 0.37))
    out = convolve(const, gaussian_kernel(1.0, 5))
    np.testing.assert_allclose(out.data, 0.37, atol=1e-12)


def test_convolve_matches_naive_oracle():
    rng = np.random.default_rng(5)
    f = rng.random((7, 6))
    k = gaussian_kernel(1.0, 3)
    out = convolve_channel(f, k)
    np.testing.assert_allclose(out, naive_correlate_reflect(f, k.weights), atol=1e-13)


def test_reflect_index_rule():
    n = 4
    idx = np.arange(-6, 10)
    out = reflect_index(idx, n)
    # period-8 tiling: ... f2 f1 f0 | f0 f1 f2 f3 | f3 f2 f1 f0 | f0 f1 ...
    expected = [2, 3, 3, 2, 1, 0, 0, 1, 2, 3, 3, 2, 1, 0, 0, 1]
    np.testing.assert_array_equal(out, expected)
    # independent oracle: edge-mirrored padding of the identity sequence
    padded = np.pad(np.arange(n), 6, mode="symmetric")
    np.testing.assert_array_equal(out, padded[idx + 6])
    assert reflect_index(np.array([0]), 1) == 0
