import math

import numpy as np
import pytest

from adstv import (
    Image,
    NoiseSpec,
    add_gaussian_noise,
    load_image,
    psnr,
    save_image,
    ssim,
    to_luminance,
)
from adstv.image import FormatError

from conftest import rand_image


def test_image_shape_normalization():
    img = Image(np.zeros((4, 5)))
    assert img.shape == (1, 4, 5)
    assert img.channels == 1 and img.height == 4 and img.width == 5
    with pytest.raises(ValueError):
        Image(np.zeros((2, 4, 5)))


def test_non_finite_samples_are_rejected_on_load(tmp_path):
    for bad in (np.nan, np.inf, -np.inf):
        data = np.full((1, 3, 4), 0.5)
        data[0, 1, 2] = bad
        path = tmp_path / "t.pfm"
        path.write_bytes(b"Pf\n4 3\n-1.0\n" + data[0, ::-1].astype("<f4").tobytes())
        with pytest.raises(ValueError, match="finite"):
            load_image(path)


def test_load_p5_direct_scaling(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
    img = load_image(path)
    assert img.channels == 1
    np.testing.assert_allclose(
        img.data[0], [[0.0, 1.0], [128 / 255, 64 / 255]], atol=1e-12
    )


def test_load_p5_comments_and_16bit(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5 # comment\n# another\n2 1 65535\n" + (30000).to_bytes(2, "big") + (65535).to_bytes(2, "big"))
    img = load_image(path)
    np.testing.assert_allclose(img.data[0], [[30000 / 65535, 1.0]], atol=1e-12)
    # a comment glued to the token before it
    path.write_bytes(b"P5#c\n2 2\n255\n" + bytes([0, 255, 51, 102]))
    np.testing.assert_allclose(load_image(path).data[0], [[0.0, 1.0], [0.2, 0.4]], atol=1e-12)


def test_load_p6_planar_reorder(tmp_path):
    path = tmp_path / "t.ppm"
    path.write_bytes(b"P6\n1 1\n255\n" + bytes([10, 20, 30]))
    img = load_image(path)
    assert img.channels == 3
    np.testing.assert_allclose(img.data[:, 0, 0], np.array([10, 20, 30]) / 255)


def test_load_rejects_bad_files(tmp_path):
    cases = [
        b"P4\n1 1\n255\n\x00",                      # unsupported format
        b"P5\n2 2\n255\n\x00\x00",                  # truncated payload
        b"P5\n2 2\n200\n" + bytes(4),               # bad maxval
        b"P5\n2 2\n",                               # truncated header
        b"P5\n2 2\n# runs to the end",              # truncated header
        b"Pf\n1 1\n0\n" + bytes(4),                 # zero scale
    ]
    for payload in cases:
        path = tmp_path / "bad.pgm"
        path.write_bytes(payload)
        with pytest.raises(FormatError):
            load_image(path)


def test_pfm_scale_must_be_finite(tmp_path):
    # the sign of the scale picks the byte order; NaN has no sign to read,
    # and a little-endian 0.5 read as big-endian would load as 8.8e-44
    payload = np.full(4, 0.5, dtype="<f4").tobytes()
    path = tmp_path / "bad.pfm"
    for scale in (b"nan", b"-nan", b"inf", b"-inf"):
        path.write_bytes(b"Pf\n2 2\n" + scale + b"\n" + payload)
        with pytest.raises(FormatError, match="scale"):
            load_image(path)
    path.write_bytes(b"Pf\n2 2\n-1.0\n" + payload)
    np.testing.assert_array_equal(load_image(path).data, 0.5)


def test_save_pgm_quantization(tmp_path):
    img = Image(np.array([[[0.5, 1.2, -0.3, 127.4 / 255]]]))
    path = tmp_path / "q.pgm"
    save_image(img, path)
    payload = path.read_bytes()
    assert payload.endswith(bytes([128, 255, 0, 127]))


def test_pfm_roundtrip_lossless(tmp_path):
    rng = np.random.default_rng(3)
    img = Image(rng.standard_normal((3, 7, 5)).astype(np.float32).astype(np.float64))
    path = tmp_path / "t.pfm"
    save_image(img, path)
    back = load_image(path)
    np.testing.assert_array_equal(back.data, img.data)


def test_pfm_save_rejects_samples_beyond_float32(tmp_path):
    big = float(np.finfo(np.float32).max)
    path = tmp_path / "t.pfm"
    for bad in (1e39, -1e39, np.inf, -np.inf):
        data = np.full((1, 4, 5), 0.5)
        data[0, 2, 3] = bad
        with pytest.raises(ValueError, match="float32"):
            save_image(Image(data), path)
        assert not path.exists()
    # the largest float32 itself still round-trips
    save_image(Image(np.full((1, 4, 5), big)), path)
    np.testing.assert_array_equal(load_image(path).data, big)


def test_pgm_roundtrip_of_quantized(tmp_path):
    rng = np.random.default_rng(4)
    img = Image(np.round(rng.random((1, 6, 6)) * 255) / 255)
    path = tmp_path / "t.pgm"
    save_image(img, path)
    np.testing.assert_allclose(load_image(path).data, img.data, atol=1e-12)


def test_luminance():
    gray = Image(np.full((1, 3, 3), 0.7))
    assert to_luminance(gray).data is not gray.data
    np.testing.assert_array_equal(to_luminance(gray).data, gray.data)
    white = Image(np.ones((3, 2, 2)))
    np.testing.assert_allclose(to_luminance(white).data, 1.0)
    red = Image(np.stack([np.ones((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))]))
    np.testing.assert_allclose(to_luminance(red).data, 0.299)


def test_noise_deterministic_and_unclamped():
    img = Image(np.full((1, 8, 8), 0.01))
    a = add_gaussian_noise(img, NoiseSpec(0.5, seed=9))
    b = add_gaussian_noise(img, NoiseSpec(0.5, seed=9))
    np.testing.assert_array_equal(a.data, b.data)
    assert a.data.min() < 0.0  # no clamping
    zero = add_gaussian_noise(img, NoiseSpec(0.0, seed=9))
    np.testing.assert_array_equal(zero.data, img.data)


def test_noise_spec_rejects_bad_sigma():
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="sigma_eta"):
            NoiseSpec(bad)


def test_noise_sample_statistics():
    img = Image(np.zeros((1, 512, 512)))
    out = add_gaussian_noise(img, NoiseSpec(0.1, seed=0))
    delta = out.data - img.data
    assert abs(delta.mean()) < 4 * 0.1 / 512
    assert abs(delta.var() - 0.01) < 0.0005


def test_psnr_cases():
    rng = np.random.default_rng(5)
    a = rand_image(rng, 16, 16)
    assert psnr(a, a) == math.inf
    shifted = Image(a.data + 0.1)
    assert abs(psnr(a, shifted) - 20.0) < 1e-12
    assert psnr(a, shifted) == psnr(shifted, a)
    with pytest.raises(ValueError):
        psnr(a, rand_image(rng, 8, 8))


def test_psnr_monotone_in_perturbation():
    rng = np.random.default_rng(6)
    a = rand_image(rng, 16, 16)
    values = [psnr(a, Image(a.data + eps)) for eps in (0.01, 0.05, 0.2)]
    assert values[0] > values[1] > values[2]


def test_ssim_trivial_cases():
    a = Image(np.full((1, 16, 16), 0.5))
    assert ssim(a, a) == 1.0
    rng = np.random.default_rng(7)
    b = rand_image(rng, 16, 16)
    assert ssim(b, b) == 1.0
    c = rand_image(rng, 16, 16)
    assert ssim(b, c) == ssim(c, b)
    with pytest.raises(ValueError):
        ssim(Image(np.zeros((1, 8, 8))), Image(np.zeros((1, 8, 8))))


def test_ssim_matches_reference_implementation():
    skimage = pytest.importorskip("skimage.metrics")
    rng = np.random.default_rng(8)
    for c in (1, 3):
        a = rand_image(rng, 32, 24, c)
        b = Image(np.clip(a.data + rng.normal(0, 0.08, a.data.shape), 0, 1))
        expected = np.mean([
            skimage.structural_similarity(
                a.data[i], b.data[i], gaussian_weights=True, sigma=1.5,
                use_sample_covariance=False, data_range=1.0)
            for i in range(c)
        ])
        assert abs(ssim(a, b) - expected) < 1e-10


def ssim_convolve2d(x, y):
    """SSIM of one channel pair with the full 11x11 window (sigma 1.5) as a
    2-D valid-mode convolution, the textbook form."""
    from scipy.signal import convolve2d

    t = np.arange(-5, 6, dtype=np.float64)
    g = np.exp(-(t**2) / (2.0 * 1.5**2))
    win = np.outer(g, g) / g.sum() ** 2

    def filt(a):
        return convolve2d(a, win, mode="valid")

    mx, my = filt(x), filt(y)
    vx, vy, cov = filt(x * x) - mx * mx, filt(y * y) - my * my, filt(x * y) - mx * my
    num = (2 * mx * my + 0.01**2) * (2 * cov + 0.03**2)
    den = (mx * mx + my * my + 0.01**2) * (vx + vy + 0.03**2)
    return float(np.mean(num / den))


@pytest.mark.parametrize("c, h, w", [(1, 32, 24), (3, 32, 24), (1, 11, 11), (1, 11, 40)])
def test_ssim_matches_the_2d_window(c, h, w):
    rng = np.random.default_rng(9)
    a = rand_image(rng, h, w, c)
    b = Image(np.clip(a.data + rng.normal(0, 0.08, a.data.shape), 0, 1))
    expected = np.mean([ssim_convolve2d(a.data[i], b.data[i]) for i in range(c)])
    assert abs(ssim(a, b) - expected) <= 1e-12


def test_metrics_of_float32_pairs_are_those_of_their_float64_upcasts():
    rng = np.random.default_rng(10)
    for c in (1, 3):
        a = Image(rng.random((c, 20, 17)).astype(np.float32))
        b = Image(np.clip(a.data + rng.normal(0, 0.05, a.data.shape), 0, 1).astype(np.float32))
        a64, b64 = Image(a.data.astype(np.float64)), Image(b.data.astype(np.float64))
        assert ssim(a, b) == ssim(a64, b64)
        assert psnr(a, b) == psnr(a64, b64)
        # a mixed pair, as bench scores a float32 result against float64 clean
        assert ssim(a64, b) == ssim(a64, b64)
        assert psnr(a64, b) == psnr(a64, b64)


def test_float32_data_stays_float32_and_loads_are_float64(tmp_path):
    f32 = np.random.default_rng(5).random((4, 5)).astype(np.float32)
    img = Image(f32)
    assert img.data.dtype == np.float32 and np.shares_memory(img.data, f32)
    for other in (f32.astype(np.float16), np.zeros((4, 5), dtype=int), [[0, 1]],
                  f32.astype(np.longdouble)):
        assert Image(other).data.dtype == np.float64
    for name in ("a.pfm", "a.pgm"):
        save_image(img, tmp_path / name)
        assert load_image(tmp_path / name).data.dtype == np.float64
