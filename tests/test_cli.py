import math

import numpy as np
import pytest

from adstv import Image, load_image, psnr, save_image, ssim
from adstv.cli import main
from adstv.image import NoiseSpec, add_gaussian_noise

from conftest import rand_image, stripe_image


@pytest.fixture
def noisy_stripes(tmp_path):
    clean = stripe_image(32, 32, np.pi / 3)
    noisy = add_gaussian_noise(clean, NoiseSpec(0.1, 42))
    clean_path = tmp_path / "clean.pgm"
    noisy_path = tmp_path / "noisy.pfm"
    save_image(clean, clean_path)
    save_image(noisy, noisy_path)
    return clean_path, noisy_path


def test_help_and_flag_errors():
    assert main(["--help"]) == 0
    assert main(["denoise", "--help"]) == 0
    assert main([]) == 1
    assert main(["denoise", "--input", "a", "--output", "b",
                 "--regularizer", "bogus", "--tau", "0.1"]) == 1
    assert main(["denoise", "--input", "a", "--output", "b",
                 "--regularizer", "tv"]) == 1  # --tau missing
    assert main(["no-such-command"]) == 1


def test_missing_input_is_io_error(tmp_path):
    out = tmp_path / "out.pgm"
    assert main(["denoise", "--input", str(tmp_path / "absent.pgm"),
                 "--output", str(out), "--regularizer", "tv", "--tau", "0.1"]) == 2


def test_malformed_input_is_validation_error(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P9\n2 2\n255\nxxxx")
    assert main(["denoise", "--input", str(bad), "--output",
                 str(tmp_path / "out.pgm"), "--regularizer", "tv", "--tau", "0.1"]) == 1


def test_non_finite_settings_and_samples_are_validation_errors(tmp_path, capsys):
    rng = np.random.default_rng(31)
    src = tmp_path / "src.pfm"
    dst = tmp_path / "dst.pgm"
    save_image(rand_image(rng, 8, 8), src)
    io = ["--input", str(src), "--output", str(dst)]
    for argv, says in (
            (["denoise", "--regularizer", "tv", "--tau", "nan"], "tau"),
            (["denoise", "--regularizer", "stv", "--tau", "inf"], "tau"),
            (["denoise", "--regularizer", "stv", "--tau", "0.1", "--tol", "nan"], "rel_tol"),
            (["denoise", "--regularizer", "eadtv", "--tau", "0.1", "--alpha-plus", "nan"],
             "alpha_plus"),
            # rejected before the direction fields are estimated
            (["denoise", "--regularizer", "adstv", "--tau", "0.1", "--alpha-plus", "nan"],
             "--alpha-plus"),
            (["denoise", "--regularizer", "adstv", "--tau", "0.1", "--alpha-plus", "inf"],
             "--alpha-plus"),
            (["denoise", "--regularizer", "stv", "--tau", "0.1", "--kernel-sigma", "nan"],
             "kernel"),
            (["denoise", "--regularizer", "adstv", "--tau", "0.1", "--kernel-sigma", "inf"],
             "kernel"),
            (["denoise", "--regularizer", "eadtv", "--tau", "0.1", "--smooth-sigma", "inf"],
             "smooth_sigma"),
            (["denoise", "--regularizer", "eadtv", "--tau", "0.1", "--smooth-sigma", "nan"],
             "smooth_sigma"),
            (["add-noise", "--sigma", "nan"], "sigma_eta"),
            (["add-noise", "--sigma", "inf"], "sigma_eta")):
        assert main(argv[:1] + io + argv[1:]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert says in err
        assert not dst.exists()
    # a non-finite sample is rejected when the file is loaded
    data = rng.random((1, 8, 8))
    data[0, 3, 4] = np.nan
    save_image(Image(data), src)
    assert main(["denoise", "--input", str(src), "--output", str(dst),
                 "--regularizer", "tv", "--tau", "0.1"]) == 1
    err = capsys.readouterr().err
    assert err == "error: image samples must be finite\n"
    assert not dst.exists()


def test_denoise_tv_tau_zero_is_passthrough(tmp_path):
    rng = np.random.default_rng(30)
    src = tmp_path / "src.pgm"
    dst = tmp_path / "dst.pgm"
    save_image(rand_image(rng, 12, 10), src)
    assert main(["denoise", "--input", str(src), "--output", str(dst),
                 "--regularizer", "tv", "--tau", "0"]) == 0
    np.testing.assert_array_equal(load_image(dst).data, load_image(src).data)


def test_denoise_tau_zero_unconstrained_keeps_out_of_range(tmp_path):
    data = np.array([[[-0.5, 0.25], [1.5, 0.75]]])
    src = tmp_path / "src.pfm"
    dst = tmp_path / "dst.pfm"
    save_image(Image(data), src)
    assert main(["denoise", "--input", str(src), "--output", str(dst),
                 "--regularizer", "tv", "--tau", "0", "--unconstrained"]) == 0
    np.testing.assert_allclose(load_image(dst).data, data, atol=1e-6)


def test_adstv_alpha_one_override_matches_stv(noisy_stripes, tmp_path):
    # a unit dose with one fixed angle only rotates each gradient pair, so
    # the steered run must land on the plain structure tensor result
    _, noisy = noisy_stripes
    out_stv = tmp_path / "stv.pfm"
    out_ad = tmp_path / "ad.pfm"
    common = ["--tau", "0.05", "--iters", "60", "--tol", "1e-14"]
    assert main(["denoise", "--input", str(noisy), "--output", str(out_stv),
                 "--regularizer", "stv"] + common) == 0
    assert main(["denoise", "--input", str(noisy), "--output", str(out_ad),
                 "--regularizer", "adstv", "--alpha-plus", "1",
                 "--theta-override", "1.0"] + common) == 0
    np.testing.assert_allclose(load_image(out_ad).data, load_image(out_stv).data,
                               atol=1e-6)
    # theta 0 makes the rotation the identity: bit-equal files
    out_ad0 = tmp_path / "ad0.pfm"
    assert main(["denoise", "--input", str(noisy), "--output", str(out_ad0),
                 "--regularizer", "adstv", "--alpha-plus", "1",
                 "--theta-override", "0"] + common) == 0
    assert out_ad0.read_bytes() == out_stv.read_bytes()


def test_denoise_eadtv_and_adstv_improve_noisy_stripes(noisy_stripes, tmp_path):
    clean_path, noisy = noisy_stripes
    clean = load_image(clean_path)
    base = psnr(clean, Image(np.clip(load_image(noisy).data, 0.0, 1.0)))
    for reg, tau in (("eadtv", "0.01"), ("adstv", "0.017")):
        out = tmp_path / ("%s.pgm" % reg)
        assert main(["denoise", "--input", str(noisy), "--output", str(out),
                     "--regularizer", reg, "--tau", tau,
                     "--alpha-plus", "4"]) == 0
        assert psnr(clean, load_image(out)) > base + 1.0


def test_denoise_dump_fields(noisy_stripes, tmp_path):
    _, noisy = noisy_stripes
    d = tmp_path / "fields"
    out = tmp_path / "out.pgm"
    assert main(["denoise", "--input", str(noisy), "--output", str(out),
                 "--regularizer", "adstv", "--tau", "0.02", "--alpha-plus", "4",
                 "--dump-fields", str(d)]) == 0
    am = load_image(d / "alpha_minus.pfm").data[0]
    th = load_image(d / "theta.pfm").data[0]
    assert am.shape == th.shape == (32, 32)
    assert am.min() >= 1.0 - 1e-6 and am.max() <= 4.0 + 1e-6
    assert th.min() >= 0.0 and th.max() < math.pi
    # dumping direction fields makes no sense for an isotropic run
    assert main(["denoise", "--input", str(noisy), "--output", str(out),
                 "--regularizer", "tv", "--tau", "0.02",
                 "--dump-fields", str(d)]) == 1


def test_add_noise_deterministic(tmp_path):
    rng = np.random.default_rng(31)
    src = tmp_path / "src.pgm"
    save_image(rand_image(rng, 16, 16), src)
    a = tmp_path / "a.pfm"
    b = tmp_path / "b.pfm"
    for out in (a, b):
        assert main(["add-noise", "--input", str(src), "--output", str(out),
                     "--sigma", "0.1", "--seed", "7"]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.pfm"
    assert main(["add-noise", "--input", str(src), "--output", str(c),
                 "--sigma", "0.1", "--seed", "8"]) == 0
    assert c.read_bytes() != a.read_bytes()
    assert main(["add-noise", "--input", str(src), "--output", str(c),
                 "--sigma", "-1"]) == 1


def test_add_noise_sigma_zero_copies(tmp_path):
    rng = np.random.default_rng(32)
    src = tmp_path / "src.pfm"
    dst = tmp_path / "dst.pfm"
    save_image(rand_image(rng, 9, 9), src)
    assert main(["add-noise", "--input", str(src), "--output", str(dst),
                 "--sigma", "0", "--seed", "0"]) == 0
    np.testing.assert_array_equal(load_image(dst).data, load_image(src).data)


def test_add_noise_sample_statistics(tmp_path):
    src = tmp_path / "src.pfm"
    dst = tmp_path / "dst.pfm"
    save_image(Image(np.full((1, 128, 128), 0.5)), src)
    assert main(["add-noise", "--input", str(src), "--output", str(dst),
                 "--sigma", "0.1", "--seed", "3"]) == 0
    resid = load_image(dst).data - 0.5
    assert abs(resid.std() - 0.1) < 0.002
    assert abs(resid.mean()) < 0.005


def test_metrics_identical_and_offset(tmp_path, capsys):
    a = tmp_path / "a.pfm"
    b = tmp_path / "b.pfm"
    save_image(Image(np.full((1, 16, 16), 0.5)), a)
    assert main(["metrics", "--ref", str(a), "--test", str(a)]) == 0
    assert capsys.readouterr().out.strip() == "psnr=inf ssim=1.000000"
    # 0.5 and 0.625 survive the float32 file format exactly, so the
    # analytic value 10*log10(1/0.125^2) prints without rounding slack
    save_image(Image(np.full((1, 16, 16), 0.625)), b)
    assert main(["metrics", "--ref", str(a), "--test", str(b)]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("psnr=18.061800 ssim=")


def test_metrics_agrees_with_library(tmp_path, capsys):
    rng = np.random.default_rng(33)
    ref = rand_image(rng, 24, 24, 3)
    test = rand_image(rng, 24, 24, 3)
    pa = tmp_path / "ref.pfm"
    pb = tmp_path / "test.pfm"
    save_image(ref, pa)
    save_image(test, pb)
    assert main(["metrics", "--ref", str(pa), "--test", str(pb)]) == 0
    fields = dict(part.split("=") for part in capsys.readouterr().out.split())
    ref32 = load_image(pa)
    test32 = load_image(pb)
    assert float(fields["psnr"]) == pytest.approx(psnr(ref32, test32), abs=1e-6)
    assert float(fields["ssim"]) == pytest.approx(ssim(ref32, test32), abs=1e-6)


def test_metrics_dimension_mismatch(tmp_path):
    rng = np.random.default_rng(34)
    a = tmp_path / "a.pfm"
    b = tmp_path / "b.pfm"
    save_image(rand_image(rng, 8, 8), a)
    save_image(rand_image(rng, 9, 9), b)
    assert main(["metrics", "--ref", str(a), "--test", str(b)]) == 1


def test_estimate_exports_match_api(tmp_path):
    from adstv.dpe import DpeConfig, estimate

    clean = stripe_image(48, 48, np.pi / 2)
    data = clean.data.copy()
    data[:, :, 24:] = 0.5
    img = Image(data)
    src = tmp_path / "src.pfm"
    save_image(img, src)
    d = tmp_path / "fields"
    assert main(["estimate", "--input", str(src), "--out-dir", str(d),
                 "--alpha-plus", "6", "--scales", "2"]) == 0
    # the CLI reads back the float32 file, so compare on the same footing
    dp = estimate(load_image(src), DpeConfig(alpha_plus=6.0, num_scales=2, st_support=7))
    np.testing.assert_allclose(load_image(d / "alpha_minus.pfm").data[0],
                               dp.alpha_minus, atol=1e-4)
    np.testing.assert_allclose(load_image(d / "theta.pfm").data[0],
                               dp.theta, atol=1e-4)


def test_bench_writes_expected_csv(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    save_image(stripe_image(32, 32, np.pi / 3), corpus / "stripe.pgm")
    out = tmp_path / "bench.csv"
    args = ["bench", "--corpus", str(corpus), "--out", str(out),
            "--sigmas", "0.1", "--regularizers", "tv,stv,adstv",
            "--tau-grid", "0.01,0.017,0.027,0.044", "--alpha-grid", "4,8",
            "--seed", "0"]
    assert main(args) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("image_id,regularizer,sigma_eta,tau,alpha_plus,"
                        "psnr_db,ssim,iters,wall_seconds,seed")
    assert len(lines) == 4
    rows = [ln.split(",") for ln in lines[1:]]
    assert [r[1] for r in rows] == ["tv", "stv", "adstv"]
    assert all(r[0] == "stripe" and r[2] == "0.100000" for r in rows)
    by_reg = {r[1]: r for r in rows}
    # directional steering must pay off on an oriented texture
    assert float(by_reg["adstv"][5]) >= float(by_reg["stv"][5])
    assert float(by_reg["tv"][4]) == 1.0  # alpha unused for tv
    assert all(1 <= int(r[7]) <= 100 for r in rows)
    # reproducibility modulo timing
    out2 = tmp_path / "bench2.csv"
    assert main(args[:4] + [str(out2)] + args[5:]) == 0

    def strip_wall(text):
        return [ln.rsplit(",", 2)[0] + "," + ln.rsplit(",", 1)[1]
                for ln in text.splitlines()]

    assert strip_wall(out.read_text()) == strip_wall(out2.read_text())


def test_bench_corpus_errors(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["bench", "--corpus", str(tmp_path / "nope"), "--out", str(out)]) == 1
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["bench", "--corpus", str(empty), "--out", str(out)]) == 1
    assert main(["bench", "--corpus", str(empty), "--out", str(out),
                 "--sigmas", "0.1,oops"]) == 1
