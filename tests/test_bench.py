import numpy as np
import pytest

from adstv import bench
from adstv.cli import main
from adstv.diffops import gaussian_kernel
from adstv.dpe import DpeConfig, eadtv_angles, estimate
from adstv.image import save_image
from adstv.tensor import DirectionalParams

from conftest import stripe_image


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
    g = stripe_image(16, 16, 0.5)
    k = gaussian_kernel(0.5, 3)
    kernel, q, steering = bench.regularizer("tv", g, k, 1)
    assert kernel.support == 1 and q == 2 and steering is None
    assert bench.regularizer("stv", g, k, 1) == (k, 1, None)
    kernel, q, steering = bench.regularizer("eadtv", g, k, 1)
    assert kernel.support == 1 and q == 1 and callable(steering)
    kernel, q, steering = bench.regularizer("adstv", g, k, 2)
    assert kernel is k and q == 2 and callable(steering)
    with pytest.raises(ValueError, match="unknown regularizer"):
        bench.regularizer("bogus", g, k, 1)


def test_steering_estimates_once_and_only_when_called(monkeypatch):
    g = stripe_image(24, 24, 0.5)
    k = gaussian_kernel(0.5, 3)
    angles = counting(monkeypatch, bench, "eadtv_angles")
    analyses = counting(monkeypatch, bench, "analyze")
    _, _, eadtv = bench.regularizer("eadtv", g, k, 1, smooth_sigma=2.0)
    _, _, adstv = bench.regularizer("adstv", g, k, 1, num_scales=3)
    assert not angles and not analyses
    for alpha in (4.0, 8.0):
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
    assert len(angles) == 1 and len(analyses) == 1


def test_run_tuple_uses_the_regularizer_kernel_and_q(monkeypatch):
    clean = stripe_image(12, 12, 0.5)
    seen = []
    solve = bench.solve

    def spy(g, dp, cfg):
        seen.append((dp is None, cfg.kernel.support, cfg.q))
        return solve(g, dp, cfg)

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


def test_bench_rejects_unknown_regularizer_before_any_solve(tmp_path, monkeypatch):
    path = tmp_path / "stripe.pgm"
    save_image(stripe_image(16, 16, 0.5), path)
    solves = []
    monkeypatch.setattr(bench, "solve", lambda *args: solves.append(args))
    with pytest.raises(ValueError, match="bogus"):
        bench.bench([(path, "stripe")], [0.1], ["stv", "bogus"], [0.05], [4.0])
    assert solves == []


@pytest.mark.parametrize("sigmas, regs, taus, alphas, says", [
    pytest.param([0.1], ["eadtv"], [0.05], [], "alpha grid", id="eadtv-no-alpha"),
    pytest.param([0.1], ["tv", "adstv"], [0.05], [], "alpha grid", id="tv-adstv-no-alpha"),
    pytest.param([0.1], ["tv"], [], [2.0], "tau grid", id="tv-no-tau"),
    pytest.param([0.1], ["stv", "eadtv"], [], [2.0], "tau grid", id="stv-eadtv-no-tau"),
    pytest.param([0.1, np.nan], ["tv"], [0.05], [], "noise sigma", id="tv-nan-sigma"),
    pytest.param([0.1, -0.5], ["tv", "stv"], [0.05], [], "noise sigma",
                 id="tv-stv-negative-sigma"),
    pytest.param([np.inf], ["adstv"], [0.05], [2.0], "noise sigma", id="adstv-inf-sigma"),
    pytest.param([0.1], ["tv"], [0.05, -1.0], [], "tau grid", id="tv-negative-tau"),
    pytest.param([0.1], ["stv"], [0.05, 0.0], [], "tau grid", id="stv-zero-tau"),
    pytest.param([0.1], ["eadtv"], [np.nan], [2.0], "tau grid", id="eadtv-nan-tau"),
    pytest.param([0.1], ["adstv"], [0.05, np.inf], [2.0], "tau grid", id="adstv-inf-tau"),
    pytest.param([0.1], ["adstv"], [0.05], [2.0, 0.5], "alpha grid", id="adstv-alpha-below-1"),
    pytest.param([0.1], ["tv", "eadtv"], [0.05], [np.nan], "alpha grid",
                 id="tv-eadtv-nan-alpha"),
    pytest.param([0.1], ["adstv"], [0.05], [np.inf], "alpha grid", id="adstv-inf-alpha"),
])
def test_empty_grids_are_rejected_before_any_solve(tmp_path, monkeypatch, sigmas, regs,
                                                   taus, alphas, says):
    path = tmp_path / "stripe.pgm"
    clean = stripe_image(16, 16, 0.5)
    save_image(clean, path)
    solves = counting(monkeypatch, bench, "solve")
    analyses = counting(monkeypatch, bench, "analyze")
    with pytest.raises(ValueError, match=says):
        bench.bench([(path, "stripe")], sigmas, regs, taus, alphas)
    # the last sigma is the one a sigma case makes bad
    for reg in regs:
        if says == "alpha grid" and reg not in ("eadtv", "adstv"):
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
    monkeypatch.setattr(bench, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(bench, "_run_tuple_from_path", lambda task: task[3])
    out = bench.bench([("unused.pgm", "x")], [0.1], regs, [0.05], [4.0], jobs=jobs)
    assert out == regs
    assert FakePool.made == workers



@pytest.mark.parametrize("jobs", [0, -3])
def test_bench_rejects_jobs_below_one_before_any_work(tmp_path, monkeypatch, capsys, jobs):
    tasks = []
    monkeypatch.setattr(bench, "_run_tuple_from_path", tasks.append)
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
    assert capsys.readouterr().err.startswith("error: jobs must be >= 1")
