import concurrent.futures
import dataclasses
import tracemalloc

import numpy as np
import pytest

from adstv import bench
from adstv.cli import main
from adstv.diffops import gaussian_kernel
from adstv.dpe import DpeConfig, eadtv_angles, estimate
from adstv.image import Image, NoiseSpec, add_gaussian_noise, psnr, save_image, ssim
from adstv.solver import GAP_EVERY, SolverConfig, solve
from adstv.tensor import DirectionalParams, dual_field

from conftest import stripe_image
from test_acceptance import synth_half_oriented


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_regularizer_maps_names_to_kernel_q_and_steering():
    k = gaussian_kernel(0.5, 3)
    kernel, q, fields = bench.regularizer("tv", k, 1)
    assert kernel.support == 1 and q == 2 and fields is None
    assert bench.regularizer("stv", k, 1) == (k, 1, None)
    kernel, q, fields = bench.regularizer("eadtv", k, 1)
    assert kernel.support == 1 and q == 1 and callable(fields)
    kernel, q, fields = bench.regularizer("adstv", k, 2)
    assert kernel is k and q == 2 and callable(fields)
    with pytest.raises(ValueError, match="unknown regularizer"):
        bench.regularizer("bogus", k, 1)


def test_steering_estimates_once_and_only_when_called(monkeypatch):
    g = stripe_image(24, 24, 0.5)
    k = gaussian_kernel(0.5, 3)
    angles = counting(monkeypatch, bench, "eadtv_angles")
    analyses = counting(monkeypatch, bench, "analyze")
    _, _, eadtv_fields = bench.regularizer("eadtv", k, 1, smooth_sigma=2.0)
    _, _, adstv_fields = bench.regularizer("adstv", k, 1, num_scales=3)
    # the lookup estimates nothing
    assert not angles and not analyses
    eadtv, adstv = eadtv_fields(g), adstv_fields(g)
    assert len(angles) == 1 and len(analyses) == 1
    for alpha in (4.0, 8.0, 16.0):
        dp = eadtv(alpha)
        theta = eadtv_angles(g, 2.0)
        expected = DirectionalParams(alpha, np.ones(theta.shape), theta)
        assert dp.alpha_plus == alpha
        np.testing.assert_array_equal(dp.alpha_minus, expected.alpha_minus)
        np.testing.assert_array_equal(dp.theta, expected.theta)
        dp = adstv(alpha)
        # st_support defaults by image size: 7 at 24 px
        expected = estimate(g, DpeConfig(alpha, num_scales=3, st_support=7))
        assert dp.alpha_plus == alpha
        np.testing.assert_array_equal(dp.alpha_minus, expected.alpha_minus)
        np.testing.assert_array_equal(dp.theta, expected.theta)
    # one fields(g) call estimates once, for any number of alpha values
    assert len(angles) == 1 and len(analyses) == 1
    # the table keeps no memo: each fields(g) call estimates again
    eadtv_fields(g), adstv_fields(g)
    assert len(angles) == 2 and len(analyses) == 2


def test_run_tuple_times_one_estimate_and_builds_one_field_per_alpha(monkeypatch):
    clean = stripe_image(16, 16, 0.5)
    analyses = counting(monkeypatch, bench, "analyze")
    built = counting(monkeypatch, bench, "DirectionalParams")
    alphas = [3.0, 5.0, 9.0]
    rec = bench.run_tuple(clean, "s", 0.1, "eadtv", [0.05], alphas, 0, {"max_iters": 5})
    # no steering is built outside the sweep
    assert [args[0] for args in built] == alphas
    assert rec.estimate_seconds > 0
    bench.run_tuple(clean, "s", 0.1, "adstv", [0.05], alphas, 0, {"max_iters": 5})
    assert len(analyses) == 1


def test_run_tuple_uses_the_regularizer_kernel_and_q(monkeypatch):
    clean = stripe_image(12, 12, 0.5)
    seen = []
    solve = bench.solve

    def spy(g, dp, cfg, dual=None, prune=None):
        seen.append((dp is None, cfg.kernel.support, cfg.q))
        return solve(g, dp, cfg, dual=dual, prune=prune)

    monkeypatch.setattr(bench, "solve", spy)
    for reg, expected in (("tv", [(True, 1, 2)] * 2),
                          ("stv", [(True, 3, 1)] * 2),
                          ("eadtv", [(False, 1, 1)] * 4),
                          ("adstv", [(False, 3, 1)] * 4)):
        seen.clear()
        rec = bench.run_tuple(clean, "s", 0.1, reg, [0.02, 0.05], [3.0, 6.0], 0)
        assert seen == expected
        assert rec.regularizer == reg
        assert rec.alpha_plus in ((1.0,) if expected[0][0] else (3.0, 6.0))


def test_run_tuple_chains_every_solve_in_tau_alpha_order(monkeypatch):
    # one chain per tuple through one field, in order of tau * alpha_plus
    # with ties to the smaller alpha_plus: the first solve starts from
    # zeros and each later one from the dual the one before it left
    clean = stripe_image(12, 12, 0.5)
    calls = []
    solve = bench.solve

    def spy(g, dp, cfg, dual=None, prune=None):
        start = dual.copy()
        result = solve(g, dp, cfg, dual=dual, prune=prune)
        calls.append((dp, cfg.tau, dual, start, dual.copy()))
        return result

    monkeypatch.setattr(bench, "solve", spy)
    # tau * alpha_plus ties at 0.04 and 0.08, exactly: the factors differ
    # by powers of two
    taus, alphas = [0.04, 0.01, 0.02], [4.0, 2.0]
    steered = [(2.0, 0.01), (2.0, 0.02), (4.0, 0.01), (2.0, 0.04), (4.0, 0.02), (4.0, 0.04)]
    for reg, expected in (("stv", [(None, 0.01), (None, 0.02), (None, 0.04)]),
                          ("adstv", steered), ("eadtv", steered), ("adstv", steered)):
        calls.clear()
        bench.run_tuple(clean, "s", 0.1, reg, taus, alphas, 0, {"max_iters": 12})
        assert [(dp and dp.alpha_plus, tau) for dp, tau, _, _, _ in calls] == expected
        assert len({id(dual) for _, _, dual, _, _ in calls}) == 1
        # every tuple starts cold
        assert not calls[0][3].any()
        for prev, call in zip(calls, calls[1:]):
            assert np.array_equal(call[3], prev[4])
        assert all(end.any() for _, _, _, _, end in calls)


def test_pruning_keeps_the_record_of_the_unpruned_chain(monkeypatch):
    # the taus past the best over-smooth: their solves are pruned, and the
    # record is that of the same chain run by hand without pruning
    clean = stripe_image(48, 48, 0.5, contrast=0.2)
    taus = [0.2, 0.02, 0.119, 0.04, 0.069]
    solves = []
    real = bench.solve

    def spy(g, dp, cfg, dual=None, prune=None):
        solves.append(real(g, dp, cfg, dual=dual, prune=prune))
        return solves[-1]

    monkeypatch.setattr(bench, "solve", spy)
    rec = bench.run_tuple(clean, "s", 0.1, "stv", taus, [], 0)
    noisy = add_gaussian_noise(clean, NoiseSpec(0.1, bench.derive_seed("s", 0.1, 0)))
    g = Image(noisy.data.astype(np.float32))
    dual = dual_field(9, 48, 48, np.float32)
    chain = []
    for tau in sorted(taus):
        res = real(g, None, SolverConfig(tau=tau, rel_tol=bench.SWEEP_GAP_TOL), dual=dual)
        chain.append((psnr(clean, res.image), tau, res))
    p, tau, kept = max(chain, key=lambda run: run[0])
    assert (rec.tau, rec.alpha_plus, rec.psnr_db, rec.ssim) == (tau, 1.0, p,
                                                                  ssim(clean, kept.image))
    assert (rec.iters, rec.stop_reason, rec.gap) == (kept.iterations, kept.stop_reason, kept.gap)
    stops = [res.stop_reason for res in solves]
    assert "pruned" in stops and stops[0] != "pruned"
    # the chain counts the pruned solves too, which stopped early
    assert rec.chain_iters == sum(res.iterations for res in solves)
    assert rec.chain_iters < sum(res.iterations for _, _, res in chain)


def test_kept_record_is_the_first_grid_point_among_equal_psnrs(monkeypatch):
    # every run scores alike: the kept one is the grid's first point,
    # alpha_plus first and then tau, which the chain solves neither first
    # nor last, and its SSIM is the one scored, of the image that run
    # returned
    clean = stripe_image(12, 12, 0.5)
    results = []
    solve = bench.solve

    # every run is a candidate: the spy drops the prune, which would test
    # the true distances that the constant PSNR hides
    def spy(g, dp, cfg, dual=None, prune=None):
        results.append(((dp and dp.alpha_plus, cfg.tau), solve(g, dp, cfg, dual=dual)))
        return results[-1][1]

    monkeypatch.setattr(bench, "solve", spy)
    monkeypatch.setattr(bench, "psnr", lambda clean, image: 30.0)
    scored = counting(monkeypatch, bench, "ssim")
    for reg, taus, alphas, first in (("tv", [0.02, 0.01, 0.04], [], (None, 0.02)),
                                     ("adstv", [0.02, 0.01], [2.0, 4.0], (2.0, 0.02))):
        results.clear()
        scored.clear()
        rec = bench.run_tuple(clean, "s", 0.1, reg, taus, alphas, 0, {"max_iters": 12})
        solved = [key for key, _ in results]
        assert first in solved[1:-1]
        kept = dict(results)[first]
        assert (rec.alpha_plus, rec.tau) == (first[0] or 1.0, first[1])
        assert (rec.psnr_db, rec.iters, rec.stop_reason, rec.gap) == (
            30.0, kept.iterations, kept.stop_reason, kept.gap)
        # one SSIM per tuple, of the kept run's image
        assert len(scored) == 1 and scored[0][1] is kept.image
        assert rec.ssim == bench.ssim(clean, kept.image)


def test_run_tuple_holds_one_alpha_plus_fields_at_a_time():
    # 12 alpha_plus values hold no more than 2 do, within one plane: each
    # DirectionalParams is built when its solve comes up and released
    # before the next one is built
    clean = stripe_image(64, 64, 0.5)
    plane = clean.height * clean.width * 8
    peaks = []
    for alphas in ([2.0, 3.0], [float(a) for a in range(2, 14)]):
        tracemalloc.start()
        try:
            bench.run_tuple(clean, "s", 0.1, "adstv", [0.02], alphas, 0, {"max_iters": 5})
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + plane, (peaks, plane)


def test_run_tuple_takes_unset_solver_settings_from_solver_config(monkeypatch):
    clean = stripe_image(12, 12, 0.5)
    seen = []
    solve = bench.solve

    def spy(g, dp, cfg, dual=None, prune=None):
        seen.append((cfg.max_iters, cfg.q, cfg.kernel, cfg.constraint, cfg.rel_tol))
        return solve(g, dp, cfg, dual=dual, prune=prune)

    monkeypatch.setattr(bench, "solve", spy)
    default = SolverConfig(tau=0.02)
    wide = gaussian_kernel(1.0, 5)
    for opts, expected in (
            ({}, (default.max_iters, default.q, default.kernel)),
            ({"max_iters": 7}, (7, default.q, default.kernel)),
            ({"q": 2, "kernel": wide}, (default.max_iters, 2, wide))):
        seen.clear()
        bench.run_tuple(clean, "s", 0.1, "stv", [0.02], [3.0], 0, opts)
        (got,) = seen
        assert got[:2] == expected[:2] and got[3] == default.constraint
        # the gap stop is the sweep's own, not SolverConfig's
        assert got[4] == bench.SWEEP_GAP_TOL
        np.testing.assert_array_equal(got[2].weights, expected[2].weights)


def test_unknown_opts_keys_are_refused_before_any_tuple_runs(tmp_path, monkeypatch):
    # a misspelt key used to be ignored: {"max_iter": 3} ran under the cap of 100
    clean = stripe_image(16, 16, 0.5)
    path = tmp_path / "stripe.pgm"
    save_image(clean, path)
    tuples = counting(monkeypatch, bench, "run_tuple")
    solves = counting(monkeypatch, bench, "solve")
    # a sweep's rel_tol is SWEEP_GAP_TOL: no key sets it
    unknown = (({"max_iter": 3}, "'max_iter'"), ({"rel_tol": 1e-3}, "'rel_tol'"))
    for opts, says in unknown:
        with pytest.raises(ValueError, match="unknown opts key.*" + says):
            bench.bench([(path, "stripe")], [0.1], ["stv"], [0.05], [4.0], opts=opts)
    assert tuples == []
    for opts, says in unknown:
        with pytest.raises(ValueError, match="unknown opts key.*" + says):
            bench.run_tuple(clean, "stripe", 0.1, "stv", [0.05], [4.0], 0, opts)
    assert solves == []


def test_bad_opts_values_are_refused_before_any_solve(tmp_path, monkeypatch):
    # an analysis value used to be checked only when the first steered
    # tuple estimated its fields: {"st_support": 0} ran 4 solves first
    path = tmp_path / "stripe.pgm"
    save_image(stripe_image(16, 16, 0.5), path)
    solves = counting(monkeypatch, bench, "solve")
    bad = (({"st_support": 0}, "st_support"), ({"st_support": 4}, "st_support"),
           ({"num_scales": 5}, "num_scales"), ({"num_scales": 0}, "num_scales"),
           ({"max_iters": 0}, "max_iters"), ({"q": 3}, "q must"),
           # a count that is not an integer: 2.5 and 2.0 used to reach
           # range() and raise TypeError, and 7.5 ran as support 7
           ({"max_iters": 2.5}, "max_iters"), ({"num_scales": 2.0}, "num_scales"),
           ({"st_support": 7.5}, "st_support"))
    for opts, says in bad:
        # a value that is never valid is refused even where no regularizer
        # would read it
        for regs in (["tv", "stv", "adstv"], ["tv"]):
            with pytest.raises(ValueError, match=says):
                bench.bench([(path, "stripe")], [0.1], regs, [0.05, 0.1], [4.0], opts=opts)
    assert solves == []


def test_only_a_missing_or_none_option_is_unset(monkeypatch):
    clean = stripe_image(16, 16, 0.5)
    # a zero is a setting, and the analysis refuses it: num_scales 0 used
    # to fall back to the noise rule
    for opts, says in (({"num_scales": 0}, "num_scales"), ({"st_support": 0}, "st_support")):
        with pytest.raises(ValueError, match=says):
            bench.run_tuple(clean, "s", 0.2, "adstv", [0.02], [3.0], 0, opts)
    analyses = counting(monkeypatch, bench, "analyze")
    solves = counting(monkeypatch, bench, "solve")
    unset = dict.fromkeys(("max_iters", "q", "kernel", "num_scales", "st_support"))
    for opts in ({}, unset):
        bench.run_tuple(clean, "s", 0.2, "adstv", [0.02], [3.0], 0, opts)
    # sigma 0.2 takes three scales, a 16-pixel image support 7, and the
    # solve SolverConfig's settings
    assert [(cfg.num_scales, cfg.st_support) for _, cfg in analyses] == [(3, 7), (3, 7)]
    default = SolverConfig(tau=0.02)
    for _, _, cfg in solves:
        assert (cfg.max_iters, cfg.q) == (default.max_iters, default.q)
        assert cfg.rel_tol == bench.SWEEP_GAP_TOL
        np.testing.assert_array_equal(cfg.kernel.weights, default.kernel.weights)


def capture_noisy(monkeypatch):
    """Wrap bench.add_gaussian_noise; the list gets every noisy image it
    returns."""
    drawn = []

    def noise(img, spec):
        drawn.append(add_gaussian_noise(img, spec))
        return drawn[-1]

    monkeypatch.setattr(bench, "add_gaussian_noise", noise)
    return drawn


def test_solves_run_in_float32_on_fields_from_the_float64_noisy_image(monkeypatch):
    clean = stripe_image(24, 24, 0.5)
    drawn = capture_noisy(monkeypatch)
    solves = counting(monkeypatch, bench, "solve")
    angles = counting(monkeypatch, bench, "eadtv_angles")
    analyses = counting(monkeypatch, bench, "analyze")
    for reg in bench.REGULARIZERS:
        for calls in (solves, angles, analyses):
            calls.clear()
        bench.run_tuple(clean, "s", 0.1, reg, [0.02, 0.05], [3.0], 0)
        estimates = angles + analyses
        noisy = drawn[-1].data
        assert noisy.dtype == np.float64
        assert len(solves) == 2
        for g, _, _ in solves:
            assert g.data.dtype == np.float32
            np.testing.assert_array_equal(g.data, noisy.astype(np.float32))
        assert len(estimates) == (reg in ("eadtv", "adstv"))
        for args in estimates:
            assert args[0].data is noisy


def test_records_report_stop_reason_and_estimate_seconds(monkeypatch):
    clean = stripe_image(16, 16, 0.5)
    assert bench.CSV_HEADER.endswith(",seed,stop_reason,estimate_seconds,gap,chain_iters")
    for reg in bench.REGULARIZERS:
        steered = reg in ("eadtv", "adstv")
        # the sweep gap stops a solve on a check before the cap, a short
        # cap runs out before a check, and a loose sweep gap stops at the
        # first check: a record's stop is "gap" or "max_iters", nothing else
        early = bench.run_tuple(clean, "s", 0.1, reg, [0.05], [3.0], 0, {"max_iters": 100})
        capped = bench.run_tuple(clean, "s", 0.1, reg, [0.05], [3.0], 0, {"max_iters": 5})
        with monkeypatch.context() as mp:
            mp.setattr(bench, "SWEEP_GAP_TOL", 0.5)
            certified = bench.run_tuple(clean, "s", 0.1, reg, [0.05], [3.0], 0,
                                        {"max_iters": 100})
        assert early.iters < 100 and early.stop_reason == "gap"
        assert early.iters % GAP_EVERY == 0 and early.gap <= bench.SWEEP_GAP_TOL
        assert capped.iters == 5 and capped.stop_reason == "max_iters"
        assert certified.iters == GAP_EVERY and certified.stop_reason == "gap"
        assert certified.gap <= 0.5
        for rec in (early, capped, certified):
            assert (rec.estimate_seconds > 0) if steered else (rec.estimate_seconds == 0.0)
            row = rec.csv_row().split(",")
            assert len(row) == len(bench.CSV_HEADER.split(","))
            assert row[-4] == rec.stop_reason
            assert float(row[-3]) == pytest.approx(rec.estimate_seconds, abs=1e-6)
            # every sweep solve takes a gap, of the image it returns
            assert 0.0 <= rec.gap < np.inf
            assert float(row[-2]) == pytest.approx(rec.gap, rel=1e-3)
            # one grid point: the chain is the kept solve alone
            assert int(row[-1]) == rec.chain_iters == rec.iters


def test_an_exact_restoration_is_kept_with_psnr_inf(tmp_path):
    # at sigma 0 a flat image is its own noisy copy, and TV leaves it as it
    # is: the PSNR of that exact restoration is inf
    rec = bench.run_tuple(Image(np.full((1, 16, 16), 0.5)), "flat", 0.0, "tv", [0.05], [], 0)
    assert rec.psnr_db == np.inf and rec.ssim == pytest.approx(1.0)
    path = tmp_path / "out.csv"
    bench.write_csv([rec], path)
    row = path.read_text().splitlines()[1].split(",")
    assert row[bench.CSV_HEADER.split(",").index("psnr_db")] == "inf"
    for bad in (np.nan, -np.inf):
        with pytest.raises(ValueError, match="psnr_db"):
            dataclasses.replace(rec, psnr_db=bad)


def test_csv_row_formats_each_field_by_its_type():
    rec = bench.RunRecord(image_id="a", regularizer="stv", sigma_eta=0.1, tau=0.25,
                          alpha_plus=1.0, psnr_db=30.1234567, ssim=0.5, iters=17,
                          wall_seconds=4e-7, seed=123, stop_reason="max_iters",
                          estimate_seconds=2.0)
    assert bench.CSV_HEADER == ("image_id,regularizer,sigma_eta,tau,alpha_plus,psnr_db,"
                                "ssim,iters,wall_seconds,seed,stop_reason,estimate_seconds,gap,"
                                "chain_iters")
    # no gap taken: an empty cell; no chain given: the kept solve's own
    assert rec.csv_row() == ("a,stv,0.100000,0.250000,1.000000,30.123457,0.500000,17,"
                             "0.000000,123,max_iters,2.000000,,17")
    gapped = dataclasses.replace(rec, stop_reason="gap", gap=0.000123456, chain_iters=250)
    assert gapped.csv_row().endswith(",123,gap,2.000000,1.235e-04,250")
    for bad in (np.nan, np.inf, -1e-3):
        with pytest.raises(ValueError, match="gap"):
            dataclasses.replace(rec, gap=bad)
    with pytest.raises(ValueError, match="chain_iters"):
        dataclasses.replace(rec, chain_iters=16)
    # a pruned solve is never kept, and no other stop exists
    for bad in ("pruned", "converged", None):
        with pytest.raises(ValueError, match="stop_reason"):
            dataclasses.replace(rec, stop_reason=bad)


# the grids of the sweep-96 benchmark workload
SWEEP_GRID = {
    "tv": ([0.04, 0.08, 0.16], []),
    "stv": ([0.040, 0.069, 0.119], []),
    "eadtv": ([0.008, 0.014, 0.024], [10.0, 20.0]),
    "adstv": ([0.004, 0.008, 0.014], [10.0, 20.0]),
}


def test_float32_sweep_picks_the_float64_choices(monkeypatch):
    # Every record of the sweep grids on synth_half at sigma 0.1 must pick
    # the (tau, alpha) of the same sweep with float64 solves, with its PSNR
    # within 1e-5 dB.  This compares dtypes, not stop rules: the gap stop
    # and the pruning, which needs it, are off, and both sweeps chain their
    # warm starts alike
    monkeypatch.setattr(bench, "SWEEP_GAP_TOL", None)
    monkeypatch.setattr(bench, "solve", lambda g, dp, cfg, dual, prune: solve(g, dp, cfg,
                                                                              dual=dual))
    clean = Image(synth_half_oriented()[None])
    records = {reg: bench.run_tuple(clean, "synth_half", 0.1, reg, taus, alphas, 1)
               for reg, (taus, alphas) in SWEEP_GRID.items()}
    drawn = capture_noisy(monkeypatch)

    def solve64(g, dp, cfg, dual, prune):
        # the sweep's float32 dual starts the float64 solve and takes its
        # final dual
        dual64 = dual.astype(np.float64)
        result = solve(drawn[-1], dp, cfg, dual=dual64)
        dual[...] = dual64
        return result

    monkeypatch.setattr(bench, "solve", solve64)
    for reg, (taus, alphas) in SWEEP_GRID.items():
        rec64 = bench.run_tuple(clean, "synth_half", 0.1, reg, taus, alphas, 1)
        rec = records[reg]
        assert (rec.tau, rec.alpha_plus) == (rec64.tau, rec64.alpha_plus), reg
        assert abs(rec.psnr_db - rec64.psnr_db) <= 1e-5, reg


def test_bench_rejects_unknown_regularizer_before_any_solve(tmp_path, monkeypatch):
    path = tmp_path / "stripe.pgm"
    save_image(stripe_image(16, 16, 0.5), path)
    solves = []
    monkeypatch.setattr(bench, "solve", lambda *args: solves.append(args))
    loads = counting(monkeypatch, bench, "load_image")
    with pytest.raises(ValueError, match="bogus"):
        bench.bench([(path, "stripe")], [0.1], ["stv", "bogus"], [0.05], [4.0])
    # the table's own error, before any image is loaded
    with pytest.raises(ValueError, match="unknown regularizer 'bogus'"):
        bench.bench([(path, "stripe")], [0.1], ["adstv", "bogus"], [0.05], [4.0])
    assert solves == [] and loads == []


@pytest.mark.parametrize("sigmas, regs, taus, alphas, says", [
    pytest.param([0.1], ["eadtv"], [0.05], [], "alpha grid", id="eadtv-no-alpha"),
    pytest.param([0.1], ["tv", "adstv"], [0.05], [], "alpha grid", id="tv-adstv-no-alpha"),
    pytest.param([0.1], ["tv"], [], [2.0], "tau grid", id="tv-no-tau"),
    pytest.param([0.1], ["stv", "eadtv"], [], [2.0], "tau grid", id="stv-eadtv-no-tau"),
    pytest.param([0.1, np.nan], ["tv"], [0.05], [], "noise sigma", id="tv-nan-sigma"),
    pytest.param([0.1, -0.5], ["tv", "stv"], [0.05], [], "noise sigma",
                 id="tv-stv-negative-sigma"),
    pytest.param([np.inf], ["adstv"], [0.05], [2.0], "noise sigma", id="adstv-inf-sigma"),
    pytest.param([0.1], ["tv"], [0.05, -1.0], [], "tau must be", id="tv-negative-tau"),
    pytest.param([0.1], ["stv"], [0.05, 0.0], [], "tau must be", id="stv-zero-tau"),
    pytest.param([0.1], ["eadtv"], [np.nan], [2.0], "tau must be", id="eadtv-nan-tau"),
    pytest.param([0.1], ["adstv"], [0.05, np.inf], [2.0], "tau must be", id="adstv-inf-tau"),
    pytest.param([0.1], ["adstv"], [0.05], [2.0, 0.5], "alpha_plus", id="adstv-alpha-below-1"),
    pytest.param([0.1], ["tv", "eadtv"], [0.05], [np.nan], "alpha_plus",
                 id="tv-eadtv-nan-alpha"),
    pytest.param([0.1], ["adstv"], [0.05], [np.inf], "alpha_plus", id="adstv-inf-alpha"),
    # estimated adstv fields need alpha_plus > 1, DpeConfig's rule
    pytest.param([0.1], ["tv", "adstv"], [0.05], [4.0, 1.0], "alpha_plus", id="adstv-alpha-1"),
    pytest.param([0.1], [], [0.05], [2.0], "regularizer list", id="no-regularizer"),
    pytest.param([], ["tv"], [0.05], [2.0], "sigma list", id="no-sigma"),
    pytest.param([0.1], ["tv", "stv", "tv"], [0.05], [], "regularizer 'tv' is listed twice",
                 id="repeated-regularizer"),
    pytest.param([0.1, 0.2, 0.1 + 1e-12], ["tv"], [0.05], [], "sigma 0.1 is listed twice",
                 id="sigmas-equal-to-6-decimals"),
])
def test_empty_grids_are_rejected_before_any_solve(tmp_path, monkeypatch, sigmas, regs,
                                                   taus, alphas, says):
    path = tmp_path / "stripe.pgm"
    clean = stripe_image(16, 16, 0.5)
    save_image(clean, path)
    solves = counting(monkeypatch, bench, "solve")
    analyses = counting(monkeypatch, bench, "analyze")
    loads = counting(monkeypatch, bench, "load_image")
    with pytest.raises(ValueError, match=says):
        bench.bench([(path, "stripe")], sigmas, regs, taus, alphas)
    assert loads == []
    # the last sigma is the one a sigma case makes bad; run_tuple takes one
    # sigma and one regularizer, so an empty sigma list and a repeat have
    # no run_tuple case
    for reg in regs if sigmas and "listed twice" not in says else []:
        if says in ("alpha grid", "alpha_plus") and reg not in ("eadtv", "adstv"):
            continue  # an unsteered tuple reads no alpha grid
        with pytest.raises(ValueError, match=says):
            bench.run_tuple(clean, "stripe", sigmas[-1], reg, taus, alphas, 0)
    if taus and (alphas or says != "alpha grid"):
        # the same grids through the CLI, where a list cannot be empty
        def listed(values):
            return ",".join(repr(float(v)) for v in values) if values else "auto"

        args = ["bench", "--corpus", str(tmp_path), "--out", str(tmp_path / "out.csv"),
                "--sigmas", listed(sigmas), "--regularizers", ",".join(regs),
                "--tau-grid", listed(taus), "--alpha-grid", listed(alphas)]
        assert main(args) == 1
    assert solves == [] and analyses == []
    # an unsteered regularizer needs no alpha grid
    assert bench.bench([(path, "stripe")], [0.1], ["tv"], [0.05], [])[0].regularizer == "tv"
    assert len(solves) == 1


class FakePool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in
    this process, so no worker is ever started."""

    made = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("jobs, regs, workers", [
    (64, ["tv", "stv", "adstv"], [3]),
    (2, ["tv", "stv", "adstv"], [2]),
    (64, ["tv"], []),    # one task runs in this process
    (1, ["tv", "stv"], []),
])
def test_bench_pool_is_capped_at_task_count(monkeypatch, jobs, regs, workers):
    FakePool.made = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(bench, "load_image", lambda path: stripe_image(16, 16, 0.5))
    monkeypatch.setattr(bench, "_run_task", lambda task: task[3])
    out = bench.bench([("unused.pgm", "x")], [0.1], regs, [0.05], [4.0], jobs=jobs)
    assert out == regs
    assert FakePool.made == workers



@pytest.mark.parametrize("jobs", [0, -3])
def test_bench_rejects_jobs_below_one_before_any_work(tmp_path, monkeypatch, capsys, jobs):
    tasks = []
    monkeypatch.setattr(bench, "_run_task", tasks.append)
    with pytest.raises(ValueError, match="jobs"):
        bench.bench([("unused.pgm", "x")], [0.1], ["tv"], [0.05], [], jobs=jobs)
    assert tasks == []
    # the CLI reports it as a validation error and writes no CSV
    save_image(stripe_image(16, 16, 0.5), tmp_path / "stripe.pgm")
    out = tmp_path / "out.csv"
    assert main(["bench", "--corpus", str(tmp_path), "--out", str(out),
                 "--sigmas", "0.1", "--regularizers", "tv", "--tau-grid", "0.05",
                 "--jobs", str(jobs)]) == 1
    assert tasks == [] and not out.exists()
    assert capsys.readouterr().err.startswith("error: jobs must be an integer >= 1")


@pytest.mark.parametrize("key, value", [("jobs", 1.5), ("jobs", 2.0), ("jobs", "2"),
                                        ("master_seed", 1.7), ("master_seed", 1.0),
                                        ("master_seed", "0")])
def test_bench_refuses_a_jobs_or_master_seed_that_is_not_an_integer(monkeypatch, key, value):
    # jobs 1.5 would reach the pool as a TypeError, and master_seed 1.7
    # would run as seed 1 through derive_seed's %d
    loads = counting(monkeypatch, bench, "load_image")
    with pytest.raises(ValueError, match=key):
        bench.bench([("unused.pgm", "x")], [0.1], ["tv"], [0.05], [], **{key: value})
    assert loads == []
    # numpy integers are integers
    monkeypatch.setattr(bench, "load_image", lambda path: stripe_image(16, 16, 0.5))
    monkeypatch.setattr(bench, "_run_task", lambda task: task[6])
    assert bench.bench([("unused.pgm", "x")], [0.1], ["tv"], [0.05], [],
                       master_seed=np.int64(3), jobs=np.int32(1)) == [3]


@pytest.mark.parametrize("master_seed", [1.7, 1.0, "0"])
def test_run_tuple_refuses_a_master_seed_that_is_not_an_integer(monkeypatch, master_seed):
    # derive_seed's %d would run 1.7 as seed 1, the noise of another seed
    clean = stripe_image(16, 16, 0.5)
    noises = counting(monkeypatch, bench, "add_gaussian_noise")
    solves = counting(monkeypatch, bench, "solve")
    with pytest.raises(ValueError, match="master_seed"):
        bench.run_tuple(clean, "s", 0.1, "tv", [0.05], [], master_seed)
    assert noises == [] and solves == []
    # numpy integers are integers, and run as the same seed
    runs = [bench.run_tuple(clean, "s", 0.1, "tv", [0.05], [], seed, {"max_iters": 5})
            for seed in (np.int64(3), 3)]
    assert runs[0].psnr_db == runs[1].psnr_db


def test_an_image_below_the_ssim_window_is_refused_before_any_solve(tmp_path, monkeypatch):
    # the small image comes last, after a tuple that could run
    big, small = tmp_path / "big.pgm", tmp_path / "small.pgm"
    save_image(stripe_image(16, 16, 0.5), big)
    save_image(stripe_image(8, 8, 0.5), small)
    solves = counting(monkeypatch, bench, "solve")
    loads = counting(monkeypatch, bench, "load_image")
    with pytest.raises(ValueError, match="small.pgm is 8x8, smaller than SSIM's 11x11 window"):
        bench.bench([(big, "big"), (small, "small")], [0.1], ["tv", "stv"], [0.05, 0.1], [])
    assert solves == []
    # every image is loaded once, whatever the number of its tuples
    records = bench.bench([(big, "big")], [0.05, 0.1], ["tv", "stv"], [0.05], [])
    assert len(records) == 4 and len(solves) == 4
    assert len(loads) == 3


@pytest.mark.parametrize("shape", [(8, 30), (30, 10)])
def test_run_tuple_refuses_an_image_below_the_ssim_window_before_any_work(monkeypatch, shape):
    # ssim would refuse it only after the estimate and every solve
    clean = stripe_image(*shape, 0.5)
    noises = counting(monkeypatch, bench, "add_gaussian_noise")
    analyses = counting(monkeypatch, bench, "analyze")
    solves = counting(monkeypatch, bench, "solve")
    with pytest.raises(ValueError, match="s is %dx%d, smaller than SSIM's 11x11 window"
                       % (shape[1], shape[0])):
        bench.run_tuple(clean, "s", 0.1, "adstv", [0.05, 0.1], [4.0, 8.0], 1)
    assert noises == [] and analyses == [] and solves == []


def test_images_with_the_same_id_are_refused_before_any_image_is_loaded(tmp_path,
                                                                        monkeypatch):
    pgm, pfm = tmp_path / "a.pgm", tmp_path / "a.pfm"
    save_image(stripe_image(16, 16, 0.5), pgm)
    save_image(stripe_image(16, 16, 0.5), pfm)
    loads = counting(monkeypatch, bench, "load_image")
    with pytest.raises(ValueError) as refused:
        bench.bench([(pfm, "a"), (pgm, "a")], [0.1], ["tv"], [0.05], [])
    assert str(refused.value) == "%s and %s have the same image id 'a'" % (pfm, pgm)
    assert loads == []
