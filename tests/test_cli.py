import argparse
import inspect
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from adstv import Image, bench, cli, load_image, psnr, save_image, ssim
from adstv.bench import REGULARIZERS, regularizer
from adstv.cli import main
from adstv.diffops import gaussian_kernel
from adstv.dpe import EADTV_SMOOTH_SIGMA, DpeConfig, eadtv_angles
from adstv.image import NoiseSpec, add_gaussian_noise
from adstv.solver import GAP_EVERY, KERNEL_SIGMA, KERNEL_SUPPORT, SolverConfig, solve

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
    for command in ("denoise", "add-noise", "metrics", "estimate", "bench"):
        assert main([command, "--help"]) == 0
    assert main([]) == 1
    assert main(["denoise", "--input", "a", "--output", "b",
                 "--regularizer", "bogus", "--tau", "0.1"]) == 1
    assert main(["denoise", "--input", "a", "--output", "b",
                 "--regularizer", "tv"]) == 1  # --tau missing
    assert main(["no-such-command"]) == 1


def test_tol_is_an_unknown_flag(noisy_stripes, tmp_path, capsys):
    # no flag sets a tolerance: denoise runs --iters, and bench stops on
    # bench.SWEEP_GAP_TOL
    _, noisy = noisy_stripes
    out = tmp_path / "out.pfm"
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    save_image(stripe_image(16, 16, 0.5), corpus / "a.pgm")
    for argv in (["denoise", "--input", str(noisy), "--output", str(out),
                  "--regularizer", "tv", "--tau", "0.1"],
                 ["bench", "--corpus", str(corpus), "--out", str(out)]):
        for tol in ("1e-3", "nan"):
            assert main(argv + ["--tol", tol]) == 1
            assert "unrecognized arguments: --tol" in capsys.readouterr().err
            assert not out.exists()


def test_readme_cli_section_names_every_flag():
    # README's CLI section documents every flag the parser defines, and no other
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z0-9-]*", section))
    parser = cli._build_parser()
    (commands,) = [a.choices for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    defined = {flag for sub in commands.values() for action in sub._actions
               for flag in action.option_strings if flag.startswith("--")}
    assert documented == defined - {"--help"}


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
            (["denoise", "--regularizer", "eadtv", "--tau", "0.1", "--alpha-plus", "nan"],
             "alpha_plus"),
            # rejected before the direction fields are estimated
            (["denoise", "--regularizer", "adstv", "--tau", "0.1", "--alpha-plus", "nan"],
             "alpha_plus"),
            (["denoise", "--regularizer", "adstv", "--tau", "0.1", "--alpha-plus", "inf"],
             "alpha_plus"),
            (["denoise", "--regularizer", "stv", "--tau", "0.1", "--kernel-sigma", "nan"],
             "kernel"),
            (["denoise", "--regularizer", "adstv", "--tau", "0.1", "--kernel-sigma", "inf"],
             "kernel"),
            # a one-tap kernel is the delta kernel, but its sigma is still checked
            (["denoise", "--regularizer", "stv", "--tau", "0.1", "--kernel-support", "1",
              "--kernel-sigma", "nan"], "kernel sigma"),
            (["denoise", "--regularizer", "eadtv", "--tau", "0.1", "--smooth-sigma", "inf"],
             "smooth_sigma"),
            (["denoise", "--regularizer", "eadtv", "--tau", "0.1", "--smooth-sigma", "nan"],
             "smooth_sigma"),
            # refused whether or not the angles are estimated
            (["denoise", "--regularizer", "eadtv", "--tau", "0", "--smooth-sigma", "nan"],
             "smooth_sigma"),
            # refused whether or not a solve runs
            (["denoise", "--regularizer", "tv", "--tau", "0", "--iters", "0"], "max_iters"),
            (["denoise", "--regularizer", "tv", "--tau", "0.1", "--iters", "0"], "max_iters"),
            (["denoise", "--regularizer", "adstv", "--tau", "0", "--iters", "-1"], "max_iters"),
            (["add-noise", "--sigma", "nan"], "sigma_eta"),
            (["add-noise", "--sigma", "inf"], "sigma_eta")):
        assert main(argv[:1] + io + argv[1:]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert says in err
        assert not dst.exists()
    # noise beyond float32 range is rejected before a PFM is written
    big = tmp_path / "big.pfm"
    assert main(["add-noise", "--input", str(src), "--output", str(big),
                 "--sigma", "1e39"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "float32" in err
    assert not big.exists()
    # a finite kernel sigma too large to square is the uniform kernel, as
    # 1e150 already is, and not an OverflowError traceback; bench builds
    # its kernel the same way
    outs = []
    for sigma in ("1e150", "1e155", "1e300"):
        outs.append(tmp_path / ("sigma%s.pfm" % sigma))
        assert main(["denoise", "--input", str(src), "--output", str(outs[-1]),
                     "--regularizer", "stv", "--tau", "0.1", "--iters", "3",
                     "--kernel-sigma", sigma]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    save_image(stripe_image(16, 16, 0.5), corpus / "a.pgm")
    assert main(["bench", "--corpus", str(corpus), "--out", str(tmp_path / "b.csv"),
                 "--sigmas", "0.1", "--regularizers", "stv", "--tau-grid", "0.05",
                 "--iters", "3", "--kernel-sigma", "1e300"]) == 0
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


def test_adstv_alpha_one_override_matches_stv(noisy_stripes, tmp_path, monkeypatch):
    # a unit dose with one fixed angle only rotates each gradient pair, so
    # the steered run must land on the plain structure tensor result.  A
    # denoise solve takes no gap and runs exactly --iters, so that the runs
    # stay in step
    results = []

    def spy(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "solve", spy)
    _, noisy = noisy_stripes
    out_stv = tmp_path / "stv.pfm"
    out_ad = tmp_path / "ad.pfm"
    common = ["--tau", "0.05", "--iters", "60"]
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
    assert [(r.iterations, r.stop_reason, r.gap) for r in results] == [(60, "max_iters", None)] * 3


def test_theta_override_is_refused_for_every_regularizer_but_adstv(noisy_stripes, tmp_path,
                                                                    capsys):
    _, noisy = noisy_stripes
    out = tmp_path / "out.pfm"
    for reg in ("eadtv", "stv", "tv"):
        assert main(["denoise", "--input", str(noisy), "--output", str(out),
                     "--regularizer", reg, "--tau", "0.05", "--theta-override", "1.0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--theta-override" in err
        assert not out.exists()


def test_theta_override_must_be_finite(noisy_stripes, tmp_path, capsys):
    _, noisy = noisy_stripes
    out = tmp_path / "out.pfm"
    for value in ("nan", "inf", "-inf"):
        assert main(["denoise", "--input", str(noisy), "--output", str(out),
                     "--regularizer", "adstv", "--tau", "0.05",
                     "--theta-override=" + value]) == 1
        err = capsys.readouterr().err
        assert err == "error: --theta-override must be finite\n"
        assert not out.exists()


def test_theta_override_folds_like_the_estimated_angles(noisy_stripes, tmp_path, monkeypatch):
    # the override takes dpe's fold into [0, pi): pi folds to 0, and so
    # does a tiny negative whose mod rounds up to pi
    _, noisy = noisy_stripes
    seen = []
    original = cli.solve

    def solve(g, dp, cfg, **kwargs):
        seen.append(dp.theta)
        return original(g, dp, cfg, **kwargs)

    monkeypatch.setattr(cli, "solve", solve)
    for value in (0.0, 1.0, math.pi, -1e-17, -1.0, 7.0, 100.0):
        assert main(["denoise", "--input", str(noisy), "--output", str(tmp_path / "o.pfm"),
                     "--regularizer", "adstv", "--tau", "0.05", "--iters", "2",
                     "--theta-override=%r" % value]) == 0
        folded = value % math.pi
        assert np.all(seen[-1] == (0.0 if folded >= math.pi else folded)), value
    assert [float(t[0, 0]) for t in seen[:4]] == [0.0, 1.0, 0.0, 0.0]


def test_solver_flags_default_to_solver_config(tmp_path, monkeypatch):
    default = SolverConfig(tau=1.0)
    parser = cli._build_parser()
    for argv in (["denoise", "--input", "a", "--output", "b", "--regularizer", "stv",
                  "--tau", "0.1"],
                 ["bench", "--corpus", "a", "--out", "b"]):
        args = parser.parse_args(argv)
        assert (args.iters, args.q) == (default.max_iters, default.q)
        assert (args.kernel_sigma, args.kernel_support) == (KERNEL_SIGMA, KERNEL_SUPPORT)
        kernel = gaussian_kernel(args.kernel_sigma, args.kernel_support)
        np.testing.assert_array_equal(kernel.weights, default.kernel.weights)
    # and cmd_bench hands exactly those settings to every solve
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    save_image(stripe_image(16, 16, 0.5), corpus / "a.pgm")
    seen = []

    def spy(g, dp, cfg, dual=None, prune=None):
        seen.append(cfg)
        return solve(g, dp, cfg, dual=dual, prune=prune)

    monkeypatch.setattr(bench, "solve", spy)
    assert main(["bench", "--corpus", str(corpus), "--out", str(tmp_path / "out.csv"),
                 "--sigmas", "0.1", "--regularizers", "stv,adstv", "--tau-grid", "0.02,0.05",
                 "--alpha-grid", "3"]) == 0
    assert len(seen) == 4
    for cfg in seen:
        assert (cfg.max_iters, cfg.q, cfg.constraint) == (
            default.max_iters, default.q, default.constraint)
        assert cfg.rel_tol == bench.SWEEP_GAP_TOL
        np.testing.assert_array_equal(cfg.kernel.weights, default.kernel.weights)


def test_analysis_flags_default_to_the_library_defaults(tmp_path, monkeypatch):
    parser = cli._build_parser()
    denoise = parser.parse_args(["denoise", "--input", "a", "--output", "b",
                                 "--regularizer", "eadtv", "--tau", "0.1"])
    defaults = inspect.signature(regularizer).parameters
    assert (denoise.smooth_sigma == defaults["smooth_sigma"].default
            == inspect.signature(eadtv_angles).parameters["smooth_sigma"].default
            == EADTV_SMOOTH_SIGMA)
    # with no --scales, estimate and denoise analyze at the default scale count
    src = tmp_path / "src.pfm"
    save_image(stripe_image(16, 16, 0.5), src)
    scales = []
    analyze = bench.analyze

    def spy(g, cfg):
        scales.append(cfg.num_scales)
        return analyze(g, cfg)

    monkeypatch.setattr(bench, "analyze", spy)
    assert main(["estimate", "--input", str(src), "--out-dir", str(tmp_path / "d")]) == 0
    assert main(["denoise", "--input", str(src), "--output", str(tmp_path / "o.pfm"),
                 "--regularizer", "adstv", "--tau", "0.05", "--iters", "1"]) == 0
    assert scales == [defaults["num_scales"].default] * 2 == [DpeConfig.num_scales] * 2


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


def test_denoise_writes_the_float64_solve_within_1e6(noisy_stripes, tmp_path, monkeypatch):
    # the CLI solves a float32 copy of its input; its PFM must stay within
    # 1e-6 of the float64 solve on fields from the float64 samples
    _, noisy = noisy_stripes
    img = load_image(noisy)
    seen = []

    def spy(g, dp, cfg):
        seen.append(g.data.dtype)
        return solve(g, dp, cfg)

    monkeypatch.setattr(cli, "solve", spy)
    for reg in ("tv", "stv", "eadtv", "adstv"):
        out = tmp_path / ("%s.pfm" % reg)
        assert main(["denoise", "--input", str(noisy), "--output", str(out),
                     "--regularizer", reg, "--tau", "0.02", "--alpha-plus", "4"]) == 0
        kernel, q, fields = regularizer(reg, gaussian_kernel(0.5, 3), 1)
        dp = None if fields is None else fields(img)(4.0)
        expected = solve(img, dp, SolverConfig(tau=0.02, q=q, kernel=kernel)).image
        np.testing.assert_allclose(load_image(out).data, expected.data, rtol=0, atol=1e-6)
    assert seen == [np.float32] * 4


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


@pytest.mark.parametrize("output, says", [
    ("out.png", "unsupported output extension 'png'"),
    ("out.pgm", "pgm requires a single channel"),
])
def test_denoise_refuses_an_unwritable_output_before_any_work(tmp_path, capsys, monkeypatch,
                                                              output, says):
    rng = np.random.default_rng(47)
    src = tmp_path / "src.ppm"
    save_image(rand_image(rng, 16, 16, 3), src)
    # save_image refuses the same path with the same message
    with pytest.raises(ValueError) as refused:
        save_image(rand_image(rng, 16, 16, 3), tmp_path / output)
    assert str(refused.value) == says
    calls = []
    monkeypatch.setattr(cli, "solve", lambda *args: calls.append("solve"))
    monkeypatch.setattr(bench, "analyze", lambda *args: calls.append("analyze"))
    assert main(["denoise", "--input", str(src), "--output", str(tmp_path / output),
                 "--regularizer", "adstv", "--tau", "0.05"]) == 1
    assert capsys.readouterr().err == "error: %s\n" % says
    assert calls == [] and not (tmp_path / output).exists()


def test_estimate_refuses_alpha_plus_before_estimating(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(43)
    src = tmp_path / "src.pfm"
    save_image(rand_image(rng, 16, 16), src)
    d = tmp_path / "fields"

    def no_analysis(*args):
        raise AssertionError("the fields were estimated")

    monkeypatch.setattr(bench, "analyze", no_analysis)
    for alpha in ("1", "0.5", "nan", "inf"):
        assert main(["estimate", "--input", str(src), "--out-dir", str(d),
                     "--alpha-plus", alpha]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "alpha_plus" in err
        assert not d.exists()


def no_estimates(monkeypatch):
    """Replace bench's two field estimators by stubs that estimate nothing
    and record their calls; returns the record."""
    calls = []
    for name in ("analyze", "eadtv_angles"):
        monkeypatch.setattr(bench, name, lambda *args, name=name: calls.append(name))
    return calls


@pytest.mark.parametrize("reg", ["adstv", "eadtv"])
def test_denoise_refuses_a_bad_tau_before_estimating(noisy_stripes, tmp_path, capsys,
                                                     monkeypatch, reg):
    _, noisy = noisy_stripes
    out, d = tmp_path / "out.pfm", tmp_path / "fields"
    calls = no_estimates(monkeypatch)
    for tau, says in ((["--tau", "-1"], "tau"), (["--tau", "nan"], "tau"),
                      (["--tau", "1e36", "--alpha-plus", "10"], "the step bound")):
        code, err = refused(capsys, ["denoise", "--input", str(noisy), "--output", str(out),
                                     "--regularizer", reg, "--dump-fields", str(d)] + tau)
        assert code == 1 and err.startswith("error: " + says), err
        assert calls == [] and not out.exists() and not d.exists()


def test_denoise_refuses_an_analysis_setting_for_every_regularizer(noisy_stripes, tmp_path,
                                                                   capsys):
    # as bench refuses it, whether or not the regularizer would read it
    _, noisy = noisy_stripes
    out = tmp_path / "out.pfm"
    for reg in REGULARIZERS:
        code, err = refused(capsys, ["denoise", "--input", str(noisy), "--output", str(out),
                                     "--regularizer", reg, "--tau", "0.05",
                                     "--st-support", "4"])
        assert code == 1 and err.startswith("error: st_support"), err
        assert not out.exists()


def test_unwritable_outputs_are_refused_before_the_input_is_loaded(noisy_stripes, tmp_path,
                                                                  capsys, monkeypatch):
    _, noisy = noisy_stripes
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    loads = []
    monkeypatch.setattr(cli, "load_image", lambda path: loads.append(path))
    calls = no_estimates(monkeypatch)
    denoise = ["denoise", "--input", str(noisy), "--regularizer", "adstv", "--tau", "0.05"]
    for argv in (denoise + ["--output", str(tmp_path / "missing" / "o.pfm")],
                 denoise + ["--output", str(tmp_path / "o.pfm"), "--dump-fields", str(taken)],
                 denoise + ["--output", str(tmp_path / "missing" / "o.pfm"),
                            "--dump-fields", str(tmp_path / "new" / "fields")],
                 ["estimate", "--input", str(noisy), "--out-dir", str(taken)],
                 ["estimate", "--input", str(noisy), "--out-dir", str(taken / "fields")]):
        code, err = refused(capsys, argv)
        assert code == 2 and err.startswith("i/o error: "), err
        assert loads == [] and calls == []
        # nothing made, and the file in the way as it was
        assert sorted(p.name for p in tmp_path.iterdir()) == ["clean.pgm", "noisy.pfm", "taken"]
        assert taken.read_text() == "a file\n"


def test_a_failed_run_removes_the_outputs_it_made(noisy_stripes, tmp_path, capsys):
    # an input that cannot be read fails after the outputs were made
    absent = str(tmp_path / "absent.pfm")
    new = tmp_path / "new"
    for argv in (["denoise", "--input", absent, "--output", str(new / "o.pfm"),
                  "--regularizer", "adstv", "--tau", "0.05", "--dump-fields", str(new)],
                 ["estimate", "--input", absent, "--out-dir", str(new / "a" / "b")]):
        code, err = refused(capsys, argv)
        assert code == 2 and err.startswith("i/o error: "), err
        assert not new.exists()
    # an output inside the new --dump-fields directory is written
    _, noisy = noisy_stripes
    assert main(["denoise", "--input", str(noisy), "--output", str(new / "o.pfm"),
                 "--regularizer", "adstv", "--tau", "0.05", "--iters", "2",
                 "--dump-fields", str(new)]) == 0
    assert sorted(p.name for p in new.iterdir()) == ["alpha_minus.pfm", "o.pfm", "theta.pfm"]


def test_denoise_tau_zero_estimates_only_for_dump_fields(noisy_stripes, tmp_path, monkeypatch):
    _, noisy = noisy_stripes
    box = tmp_path / "tv.pfm"
    assert main(["denoise", "--input", str(noisy), "--output", str(box),
                 "--regularizer", "tv", "--tau", "0"]) == 0
    with monkeypatch.context() as mp:
        calls = no_estimates(mp)
        for reg in ("eadtv", "adstv"):
            out = tmp_path / ("%s.pfm" % reg)
            assert main(["denoise", "--input", str(noisy), "--output", str(out),
                         "--regularizer", reg, "--tau", "0"]) == 0
            assert calls == [] and out.read_bytes() == box.read_bytes()
    analyses = []
    analyze = bench.analyze

    def spy(g, cfg):
        analyses.append(cfg)
        return analyze(g, cfg)

    monkeypatch.setattr(bench, "analyze", spy)
    out = tmp_path / "dumped.pfm"
    assert main(["denoise", "--input", str(noisy), "--output", str(out),
                 "--regularizer", "adstv", "--tau", "0",
                 "--dump-fields", str(tmp_path / "fields")]) == 0
    assert len(analyses) == 1 and out.read_bytes() == box.read_bytes()
    assert (tmp_path / "fields" / "theta.pfm").exists()


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
                        "psnr_db,ssim,iters,wall_seconds,seed,stop_reason,"
                        "estimate_seconds,gap,chain_iters")
    assert len(lines) == 4
    rows = [ln.split(",") for ln in lines[1:]]
    assert [r[1] for r in rows] == ["tv", "stv", "adstv"]
    assert all(r[0] == "stripe" and r[2] == "0.100000" for r in rows)
    by_reg = {r[1]: r for r in rows}
    # directional steering must pay off on an oriented texture
    assert float(by_reg["adstv"][5]) >= float(by_reg["stv"][5])
    assert float(by_reg["tv"][4]) == 1.0  # alpha unused for tv
    assert all(1 <= int(r[7]) <= 100 for r in rows)
    # a gap stop falls on a check, and every row has the gap of its image,
    # at most bench.SWEEP_GAP_TOL where it stopped the solve
    for r in rows:
        if r[10] == "gap":
            assert int(r[7]) % GAP_EVERY == 0 and float(r[12]) <= bench.SWEEP_GAP_TOL
        else:
            assert r[10] == "max_iters" and int(r[7]) == 100
        assert 0.0 <= float(r[12]) < math.inf
        # the chain counts the kept solve and the other 3 or 7 of its tuple
        assert int(r[13]) > int(r[7])
    # only the steered regularizer estimates fields
    assert by_reg["tv"][11] == by_reg["stv"][11] == "0.000000"
    assert float(by_reg["adstv"][11]) > 0
    # reproducibility modulo timing
    out2 = tmp_path / "bench2.csv"
    assert main(args[:4] + [str(out2)] + args[5:]) == 0

    def strip_wall(text):
        # drop the two timing columns, wall_seconds and estimate_seconds
        return [ln.split(",")[:8] + ln.split(",")[9:11] + ln.split(",")[12:]
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


def refused(capsys, argv):
    """main(argv)'s exit code and its one error line, with every warning
    an error, so that a warning on the way fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    return code, err


def test_bench_refuses_an_empty_regularizer_list(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    save_image(stripe_image(16, 16, 0.5), corpus / "s.pgm")
    out = tmp_path / "r.csv"
    code, err = refused(capsys, ["bench", "--corpus", str(corpus), "--out", str(out),
                                 "--regularizers", ","])
    assert code == 1 and err == "error: the regularizer list is empty\n", err
    assert not out.exists()


def test_bench_refuses_a_repeated_sigma_or_regularizer_before_any_solve(tmp_path, capsys,
                                                                         monkeypatch):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    save_image(stripe_image(16, 16, 0.5), corpus / "s.pgm")
    out = tmp_path / "r.csv"
    solves = []
    monkeypatch.setattr(bench, "solve", lambda *args: solves.append(args))
    for sigmas, regs, says in (("0.1,0.1", "tv", "error: the sigma 0.1 is listed twice"),
                               ("0.1", "tv,tv", "error: the regularizer 'tv' is listed twice")):
        code, err = refused(capsys, ["bench", "--corpus", str(corpus), "--out", str(out),
                                     "--sigmas", sigmas, "--regularizers", regs,
                                     "--tau-grid", "0.05"])
        assert code == 1 and err.startswith(says), err
        assert solves == [] and not out.exists()


def test_denoise_takes_a_kernel_sigma_whose_square_underflows(noisy_stripes, tmp_path):
    # the small-sigma limit, all the weight at the centre
    _, noisy = noisy_stripes
    out = tmp_path / "o.pfm"
    assert main(["denoise", "--input", str(noisy), "--output", str(out),
                 "--regularizer", "stv", "--tau", "0.05", "--kernel-sigma", "1e-200"]) == 0
    assert out.exists()


def test_a_step_bound_beyond_float32_is_a_validation_error(tmp_path, capsys, monkeypatch):
    src, dst = tmp_path / "src.pfm", tmp_path / "dst.pfm"
    save_image(stripe_image(16, 16, 0.5), src)
    io = ["--input", str(src), "--output", str(dst)]
    for argv in (["--regularizer", "adstv", "--tau", "0.05", "--alpha-plus", "1e200"],
                 ["--regularizer", "eadtv", "--tau", "0.05", "--alpha-plus", "1e200"],
                 ["--regularizer", "tv", "--tau", "1e38"]):
        code, err = refused(capsys, ["denoise"] + io + argv)
        assert code == 1 and err.startswith("error: the step bound"), err
        assert not dst.exists()
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    save_image(stripe_image(16, 16, 0.5), corpus / "s.pgm")
    out = tmp_path / "r.csv"
    code, err = refused(capsys, ["bench", "--corpus", str(corpus), "--out", str(out),
                                 "--sigmas", "0.1", "--regularizers", "adstv",
                                 "--tau-grid", "0.05", "--alpha-grid", "1e200"])
    assert code == 1 and err.startswith("error: the step bound"), err
    assert not out.exists()


def test_settings_beyond_memory_are_a_validation_error(noisy_stripes, tmp_path, capsys,
                                                     monkeypatch):
    # a kernel support or smoothing sigma whose arrays do not fit in
    # memory ends in one error line, not a traceback; the allocation
    # failure is simulated, so that the test allocates nothing
    _, noisy = noisy_stripes
    out = tmp_path / "o.pfm"

    def too_large(*args):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(cli, "gaussian_kernel", too_large)
    code, err = refused(capsys, ["denoise", "--input", str(noisy), "--output", str(out),
                                 "--regularizer", "stv", "--tau", "0.1"])
    assert code == 1 and err == "error: Unable to allocate 74.5 GiB for an array\n", err
    assert not out.exists()


def test_bench_refuses_noise_beyond_float32_before_any_solve(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    save_image(stripe_image(16, 16, 0.5), corpus / "s.pgm")
    out = tmp_path / "r.csv"
    solves = []
    monkeypatch.setattr(bench, "solve", lambda *args: solves.append(args))
    for regs in ("stv", "tv,eadtv,stv,adstv"):
        code, err = refused(capsys, ["bench", "--corpus", str(corpus), "--out", str(out),
                                     "--sigmas", "1e39", "--regularizers", regs,
                                     "--tau-grid", "0.05", "--alpha-grid", "4"])
        assert code == 1 and "exceed the float32 range" in err, err
        assert solves == [] and not out.exists()


def test_bench_refuses_an_unwritable_out_before_any_solve(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    save_image(stripe_image(16, 16, 0.5), corpus / "s.pgm")
    grids = ["--sigmas", "0.1", "--regularizers", "tv,stv", "--tau-grid", "0.05,0.1"]
    solves = []
    monkeypatch.setattr(bench, "solve", lambda *args: solves.append(args))
    for out in (tmp_path / "missing" / "r.csv", corpus):
        code, err = refused(capsys, ["bench", "--corpus", str(corpus), "--out", str(out)]
                            + grids)
        assert code == 2 and err.startswith("i/o error: "), err
        assert solves == []
    assert not (tmp_path / "missing").exists()


def test_an_alpha_plus_beyond_float32_is_a_validation_error(tmp_path, capsys):
    # at this tau the step bound 8 tau alpha_plus^2 fits float32, and
    # alpha_plus itself, which the steering products carry, does not
    src, dst = tmp_path / "src.pfm", tmp_path / "dst.pfm"
    save_image(stripe_image(16, 16, 0.5), src)
    for reg in ("eadtv", "adstv"):
        code, err = refused(capsys, ["denoise", "--input", str(src), "--output", str(dst),
                                     "--regularizer", reg, "--tau", "1e-80",
                                     "--alpha-plus", "1e39"])
        assert code == 1 and err.startswith(
            "error: alpha_plus = 1e+39 exceeds the float32 range"), err
        assert not dst.exists()


def test_bench_refuses_a_step_bound_beyond_float32_before_any_solve(tmp_path, capsys,
                                                                    monkeypatch):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    save_image(stripe_image(16, 16, 0.5), corpus / "s.pgm")
    out = tmp_path / "r.csv"
    solves, analyses = [], []
    monkeypatch.setattr(bench, "solve", lambda *args: solves.append(args))
    monkeypatch.setattr(bench, "analyze", lambda *args: analyses.append(args))
    # tv's solves would fit; adstv's step bound, or its alpha_plus, does not
    for taus, alphas, says in (("0.05", "4,1e200", "the step bound"),
                               ("1e-80", "1e39", "alpha_plus = 1e+39")):
        code, err = refused(capsys, ["bench", "--corpus", str(corpus), "--out", str(out),
                                     "--sigmas", "0.1", "--regularizers", "tv,adstv",
                                     "--tau-grid", taus, "--alpha-grid", alphas])
        assert code == 1 and err.startswith("error: " + says), err
        assert "exceeds the float32 range" in err
    # an unsteered grid is held to the unsteered bound 8 tau
    code, err = refused(capsys, ["bench", "--corpus", str(corpus), "--out", str(out),
                                 "--sigmas", "0.1", "--regularizers", "tv",
                                 "--tau-grid", "0.05,1e38"])
    assert code == 1 and err.startswith("error: the step bound"), err
    assert solves == [] and analyses == [] and not out.exists()


def test_a_failed_sweep_leaves_an_existing_out_as_it_was(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    save_image(stripe_image(16, 16, 0.5), corpus / "s.pgm")
    out = tmp_path / "r.csv"
    out.write_text("an earlier sweep\n")
    sweep = ["bench", "--corpus", str(corpus), "--out", str(out), "--sigmas", "0.1",
             "--regularizers", "tv,adstv", "--tau-grid", "0.05", "--alpha-grid", "4"]
    real = bench.solve

    def steered_fails(g, dp, cfg, dual=None, prune=None):
        if dp is not None:
            raise FloatingPointError("non-finite values in solver iterate")
        return real(g, dp, cfg, dual=dual, prune=prune)

    # tv runs first and succeeds; adstv's first solve then fails
    with monkeypatch.context() as mp:
        mp.setattr(bench, "solve", steered_fails)
        code, _ = refused(capsys, sweep)
        assert code == 1 and out.read_text() == "an earlier sweep\n"
        fresh = tmp_path / "fresh.csv"
        code, _ = refused(capsys, sweep[:4] + [str(fresh)] + sweep[5:])
        assert code == 1 and not fresh.exists()
    # a sweep that finishes replaces it
    assert main(sweep) == 0
    assert out.read_text().startswith("image_id,")
