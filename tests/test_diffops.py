import numpy as np
import pytest
from scipy import ndimage

from adstv import Image
from adstv.diffops import (
    _BAND_ELEMENTS,
    Kernel,
    _correlate_separable,
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
    gx, gy = grad_forward(np.full((4, 5), 0.3))
    assert not gx.any() and not gy.any()
    w = 6
    ramp = np.tile(np.arange(w) / (w - 1), (4, 1))
    gx, gy = grad_forward(ramp)
    np.testing.assert_allclose(gx[:, :-1], 1.0 / (w - 1))
    assert not gx[:, -1].any() and not gy.any()


def test_grad_matches_dense_matrix():
    rng = np.random.default_rng(0)
    f = rng.random((5, 5))
    m = grad_matrix(5, 5)
    flat = m @ f.ravel()
    gx, gy = grad_forward(f)
    np.testing.assert_allclose(gx.ravel(), flat[:25], atol=1e-14)
    np.testing.assert_allclose(gy.ravel(), flat[25:], atol=1e-14)


def test_div_is_negative_adjoint_dense():
    rng = np.random.default_rng(1)
    m = grad_matrix(4, 7)
    p = rng.standard_normal((2, 4, 7))
    via_matrix = -(m.T @ np.concatenate([p[0].ravel(), p[1].ravel()]))
    out = div_backward(p[0], p[1])
    np.testing.assert_allclose(out.ravel(), via_matrix, atol=1e-13)


def test_adjoint_identity_many_sizes():
    rng = np.random.default_rng(2)
    for h, w in ((2, 2), (3, 5), (7, 7), (1, 4), (4, 1)):
        u = rng.standard_normal((h, w))
        px = rng.standard_normal((h, w))
        py = rng.standard_normal((h, w))
        gx, gy = grad_forward(u)
        lhs = np.sum(gx * px + gy * py)
        rhs = -np.sum(u * div_backward(px, py))
        assert abs(lhs - rhs) < 1e-12


def test_div_of_grad_of_constant():
    u = np.full((5, 5), 0.42)
    out = div_backward(*grad_forward(u))
    np.testing.assert_array_equal(out, 0.0)


def test_sobel_cases():
    assert not sobel_grad(np.full((4, 4), 0.9))[0].any()
    step = np.zeros((6, 6))
    step[:, 3:] = 1.0
    gx, gy = sobel_grad(step)
    np.testing.assert_allclose(gx[:, 2], 4.0)
    np.testing.assert_allclose(gx[:, 3], 4.0)
    np.testing.assert_allclose(gy, 0.0, atol=1e-14)


def test_sobel_matches_naive_oracle():
    rng = np.random.default_rng(3)
    f = rng.random((6, 6))
    sx = np.array([[-1.0, 0, 1], [-2, 0, 2], [-1, 0, 1]])
    gx, gy = sobel_grad(f)
    np.testing.assert_allclose(gx, naive_correlate_reflect(f, sx), atol=1e-12)
    np.testing.assert_allclose(gy, naive_correlate_reflect(f, sx.T), atol=1e-12)


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
    # sigma is checked before the one-tap shortcut, as at any other support
    for bad in (np.nan, np.inf, 0.0, -1.0):
        for support in (1, 3):
            with pytest.raises(ValueError, match="kernel sigma"):
                gaussian_kernel(bad, support)
    k = gaussian_kernel(0.5, 3)
    assert abs(k.weights.sum() - 1.0) < 1e-14
    # corner-to-center ratio is exp(-(1+1)/(2*0.25)) = e^-4
    assert abs(k.weights[0, 0] / k.weights[1, 1] - np.exp(-4.0)) < 1e-12
    k7 = gaussian_kernel(np.sqrt(7.0), 7)
    t = np.arange(-3, 4, dtype=np.float64)
    raw = np.exp(-(t[:, None] ** 2 + t[None, :] ** 2) / 14.0)
    np.testing.assert_allclose(k7.weights, raw / raw.sum(), atol=1e-14)
    assert np.array_equal(k7.weights, k7.weights[::-1, ::-1])
    # a sigma whose square overflows is the uniform limit, as 1e150 is
    for sigma in (1e150, 1e155, 1e300, np.finfo(np.float64).max):
        assert np.array_equal(gaussian_kernel(sigma, 5).weights, np.full((5, 5), 1 / 25))
    # one whose square underflows, or nearly, is the small-sigma limit, with
    # no floating-point warning on the way
    for sigma in (1e-160, 1e-200, 5e-324):
        for support in (3, 5):
            centre = np.zeros((support, support))
            centre[support // 2, support // 2] = 1.0
            assert np.array_equal(gaussian_kernel(sigma, support).weights, centre)
    # the sigmas in use give the sampled Gaussian, bit for bit
    for sigma in (0.5, 1.5, np.sqrt(3), np.sqrt(5), np.sqrt(7), np.sqrt(11), np.sqrt(15)):
        for support in (3, 5, 7, 9):
            t = np.arange(-(support // 2), support // 2 + 1, dtype=np.float64)
            g = np.exp(-(t**2) / (2.0 * sigma**2))
            w = np.outer(g, g)
            assert np.array_equal(gaussian_kernel(sigma, support).weights, w / w.sum())
    # 7.5 used to run as support 7
    for support in (4, 7.5, 7.0):
        with pytest.raises(ValueError, match="support"):
            gaussian_kernel(1.0, support)
    assert gaussian_kernel(1.0, np.int64(5)).support == 5
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
    out = np.stack([convolve_channel(ch, delta_kernel()) for ch in img.data])
    np.testing.assert_array_equal(out, img.data)
    const = Image(np.full((1, 8, 8), 0.37))
    out = np.stack([convolve_channel(ch, gaussian_kernel(1.0, 5)) for ch in const.data])
    np.testing.assert_allclose(out, 0.37, atol=1e-12)


def test_convolve_matches_naive_oracle():
    rng = np.random.default_rng(5)
    f = rng.random((7, 6))
    k = gaussian_kernel(1.0, 3)
    out = convolve_channel(f, k)
    np.testing.assert_allclose(out, naive_correlate_reflect(f, k.weights), atol=1e-13)


# planes wider and narrower than the kernels below; across a narrow one the
# mirror extension wraps more than once
SEPARABLE_SHAPES = [(1, 1), (1, 5), (5, 1), (7, 3), (33, 20)]


@pytest.mark.parametrize("support", [1, 3, 5, 7, 11, 15])
def test_convolve_matches_2d_correlate(support):
    rng = np.random.default_rng(support)
    for sigma in (np.sqrt(support), 1.5):
        k = gaussian_kernel(sigma, support)
        for shape in SEPARABLE_SHAPES:
            f = 3.0 * rng.standard_normal(shape)
            ref = ndimage.correlate(f, k.weights, mode="reflect")
            out = convolve_channel(f, k)
            assert out.shape == shape and out.dtype == np.float64
            assert np.abs(out - ref).max() <= 1e-13 * np.abs(f).max()


def test_convolve_rejects_non_separable_kernel():
    f = np.ones((6, 5))
    cross = np.array([[0.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 0.0]]) / 6.0
    # rank one, but its rows and columns have different factors
    lopsided = np.outer([1.0, 2.0, 1.0], [1.0, 1.0, 2.0])
    for weights in (cross, lopsided / lopsided.sum()):
        with pytest.raises(ValueError, match="outer product"):
            convolve_channel(f, Kernel(weights))


def test_sobel_matches_2d_correlate():
    rng = np.random.default_rng(7)
    sx = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
    for shape in SEPARABLE_SHAPES:
        f = 3.0 * rng.standard_normal(shape)
        gx, gy = sobel_grad(f)
        for got, k in ((gx, sx), (gy, sx.T)):
            ref = ndimage.correlate(f, k, mode="reflect")
            assert got.shape == shape
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(f).max()


# more rows than one band of _correlate_separable holds, for every factor
# below; its transpose is a single band
BANDED_SHAPE = (300, 97)


def correlate1d_pair(f, column, row):
    """The two ndimage passes that _correlate_separable repeats."""
    out = ndimage.correlate1d(f, column, axis=0, mode="reflect")
    return ndimage.correlate1d(out, row, axis=1, mode="reflect", output=out)


def test_correlate_separable_equals_the_ndimage_passes_exactly():
    h, w = BANDED_SHAPE
    assert h > _BAND_ELEMENTS // (w + 2)
    smooth, diff = np.array([1.0, 2.0, 1.0]), np.array([-1.0, 0.0, 1.0])
    pairs = [(smooth, diff), (diff, smooth)]
    for support in (3, 5, 7, 11, 15):
        factor = gaussian_kernel(1.5, support).weights.sum(axis=0)
        pairs.append((factor, factor))
    # neither symmetric nor antisymmetric: ndimage sums its taps in order
    pairs.append((np.array([0.2, 0.3, 0.5]), np.array([0.1, 0.6, 0.3])))
    rng = np.random.default_rng(8)
    for shape in SEPARABLE_SHAPES + [BANDED_SHAPE, BANDED_SHAPE[::-1]]:
        f = 3.0 * rng.standard_normal(shape)
        for column, row in pairs:
            assert np.array_equal(_correlate_separable(f, column, row),
                                  correlate1d_pair(f, column, row)), (shape, column, row)


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


def test_grad_and_div_keep_float32_planes():
    rng = np.random.default_rng(12)
    f = rng.random((6, 7)).astype(np.float32)
    gx, gy = grad_forward(f)
    assert gx.dtype == gy.dtype == np.float32
    # a difference of two float32 samples rounds once either way
    ref = grad_forward(f.astype(np.float64))
    np.testing.assert_array_equal(gx, ref[0].astype(np.float32))
    np.testing.assert_array_equal(gy, ref[1].astype(np.float32))
    planes = (np.empty((6, 7), np.float32), np.empty((6, 7), np.float32))
    got = grad_forward(f, out=planes)
    assert got[0] is planes[0] and got[1] is planes[1]
    d = div_backward(gx, gy)
    assert d.dtype == np.float32
    np.testing.assert_allclose(d, div_backward(*ref), rtol=1e-6, atol=1e-6)
    out = np.empty((6, 7), np.float32)
    assert div_backward(gx, gy, out=out) is out
    # an output plane of another dtype is refused, not silently converted
    with pytest.raises(ValueError, match="dtype"):
        grad_forward(f, out=(np.empty((6, 7)), np.empty((6, 7))))
    with pytest.raises(ValueError, match="dtype"):
        div_backward(gx, gy, out=np.empty((6, 7)))
    # and so are fields whose planes do not match, or are not 2-D
    with pytest.raises(ValueError, match="matching 2-D arrays"):
        div_backward(gx, gy[:, :-1])
    with pytest.raises(ValueError, match="matching 2-D arrays"):
        div_backward(gx[0], gy[0])
