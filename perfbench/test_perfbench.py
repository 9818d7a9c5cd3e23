"""Tests of the benchmark itself: seeded inputs, span arithmetic, failure
counting and the agreement of BENCHMARK.json with the code.

    python3 -m pytest perfbench -q
"""

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from adstv import bench, diffops, dpe, image, solver, tensor  # noqa: E402
from adstv.bench import RunRecord  # noqa: E402
from adstv.image import Image  # noqa: E402
from adstv.solver import SolveResult, SolverConfig  # noqa: E402

MODULES = dict(bench=bench, diffops=diffops, dpe=dpe, image=image, solver=solver,
               tensor=tensor)


def test_same_seed_same_inputs_other_seed_other_noise():
    clean_a, noisy_a = workloads.noisy_scene(7, 0.1)
    clean_b, noisy_b = workloads.noisy_scene(7, 0.1)
    _, noisy_c = workloads.noisy_scene(8, 0.1)
    assert np.array_equal(clean_a, clean_b)
    assert np.array_equal(noisy_a, noisy_b)
    assert not np.array_equal(noisy_a, noisy_c)
    assert abs(float(np.std(noisy_a - clean_a)) - 0.1) < 0.002


def test_sweep_files_are_fixed_and_its_noise_follows_the_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    wa, wb = workloads.Sweep96(1, a), workloads.Sweep96(2, b)
    wa.setup()
    wb.setup()
    names = sorted(p.name for p in a.iterdir())
    assert names == ["synth_half.pfm", "synth_quad.pfm", "synth_rings.pfm"]
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    # bench draws the noise from the master seed, which is the run's seed
    assert not np.array_equal(wa.references["synth_half"][1], wb.references["synth_half"][1])


def _span(name, start, end, parent=-1):
    return spans.Span(name, start, end, parent)


def test_self_times_on_a_hand_built_tree():
    #  job 0..10
    #    solver.solve 1..9
    #      tensor.J 2..4
    #        diffops.grad 2.5..3
    #      tensor.Jt 5..6
    #    image.psnr 9..9.5
    tree = [
        _span("harness.job", 0.0, 10.0),
        _span("solver.solve", 1.0, 9.0, 0),
        _span("tensor.J", 2.0, 4.0, 1),
        _span("diffops.grad", 2.5, 3.0, 2),
        _span("tensor.Jt", 5.0, 6.0, 1),
        _span("image.psnr", 9.0, 9.5, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([1.5, 5.0, 1.5, 0.5, 1.0, 0.5])
    for s in tree[1:3]:
        s.attrs.update(iters=4, cap=4, pixels=100, support=3, bytes=8000)
    tree[4].attrs.update(support=3)
    m = spans.layer_metrics(tree, jobs=1)
    assert m["harness.self_s"] == pytest.approx(1.5)
    assert m["solver.self_s"] == pytest.approx(5.0)
    assert m["tensor.self_s"] == pytest.approx(2.5)
    assert m["diffops.self_s"] == pytest.approx(0.5)
    # the self times of all layers add up to the root span
    assert sum(m["%s.self_s" % layer] for layer in spans.LAYERS) == pytest.approx(10.0)
    # solve minus J and J*, per iteration
    assert m["solver.self_ms_per_iter"] == pytest.approx((8.0 - 2.0 - 1.0) / 4 * 1e3)
    assert m["solver.cap_hit_ratio"] == 1.0
    assert m["tensor.J.mb_computed"] == pytest.approx(0.008)
    assert set(m) <= set(spans.PER_LAYER)


def test_instrumented_run_covers_the_job_and_restores_the_modules():
    originals = {(m, a): getattr(MODULES[m], a) for m, a, _, _ in spans.WRAPS}
    recorder = spans.Recorder()
    g = Image(np.random.default_rng(0).random((1, 16, 16)))
    dp = dpe.estimate(g, dpe.DpeConfig(4.0, 2, 7))
    cfg = SolverConfig(tau=0.05, max_iters=3)
    with spans.instrumented(recorder, MODULES), recorder.job(1) as root:
        dpe.estimate(g, dpe.DpeConfig(4.0, 2, 7))
        solver.solve(g, dp, cfg)
    assert {(m, a): getattr(MODULES[m], a) for m, a in originals} == originals
    m = spans.layer_metrics(recorder.spans, jobs=1)
    total = sum(m["%s.self_s" % layer] for layer in spans.LAYERS)
    assert total == pytest.approx(root.duration, rel=1e-9)
    assert m["solver.solves"] == 4  # three TV cleanups and the steered solve
    assert m["tensor.J.calls"] == m["solver.iters"]
    assert m["solver.alloc_peak_mb"] > 0
    assert all(s.run_id == 1 for s in recorder.spans)


def _denoise_output(w, restored, iterations=5, theta=np.pi / 6, alpha_minus=1.0):
    # a plain namespace, because DirectionalParams rejects corrupt fields
    dp = SimpleNamespace(theta=np.full(w.clean.shape, theta),
                         alpha_minus=np.full(w.clean.shape, alpha_minus))
    return dp, SolveResult(Image(restored[None]), iterations)


def test_corrupted_outputs_are_counted_as_failures(tmp_path):
    w = workloads.Denoise512(3, tmp_path)
    w.setup()
    near = np.clip(w.clean + np.random.default_rng(0).normal(0, 0.01, w.clean.shape), 0, 1)
    assert w.check(_denoise_output(w, near)).failed == 0

    nan = w.clean.copy()
    nan[5, 5] = math.nan
    assert w.check(_denoise_output(w, nan)).failed == 1
    assert w.check(_denoise_output(w, np.clip(w.noisy, 0, 1))).failed == 1  # no 3 dB gain
    # leaves [0, 1] and loses the 3 dB gain: one failed operation
    assert w.check(_denoise_output(w, w.clean * 1.5)).failed == 1
    assert w.check(_denoise_output(w, near, iterations=0)).failed == 1
    assert w.check(_denoise_output(w, near, iterations=w.max_iters + 1)).failed == 1
    assert w.check(_denoise_output(w, near, theta=np.pi)).failed == 1
    assert w.check(_denoise_output(w, near, alpha_minus=0.5)).failed == 1


def test_corrupted_sweep_records_are_counted_as_failures(tmp_path):
    w = workloads.Sweep96(3, tmp_path)
    w.setup()
    records = [RunRecord(image_id=i, regularizer=r, sigma_eta=0.1, tau=0.1, alpha_plus=1.0,
                         psnr_db=40.0, ssim=0.9, iters=50, wall_seconds=0.1, seed=0)
               for r in workloads.SWEEP_GRID for _, i in w.paths]
    assert w.check(records).failed == 0
    records[0].psnr_db = 5.0
    records[1].iters = 0
    records[2].ssim = 1.5
    assert w.check(records).failed == 3
    assert w.check(records[1:]).failed == len(records)  # a missing record fails all


class _FakeWorkload:
    """Job n returns n; odd jobs fail their check and job 2 raises."""

    name = "fake"
    seed = 0
    fields = [(4, 4, 1, 2)]

    def __init__(self):
        self.jobs = 0

    def setup(self):
        pass

    def job(self):
        self.jobs += 1
        if self.jobs == 3:
            raise RuntimeError("deliberate")
        return self.jobs

    def check(self, n):
        return workloads.Checked(2, ["corrupt"] if n % 2 == 0 else [], 20.0, 1.0)


def test_run_counts_failed_checks_and_raising_jobs():
    result = run.run(_FakeWorkload(), seconds=60, trace=0, modules={}, import_s=0.1)
    # jobs 1 and 2 ran and were checked (2 operations each, job 2 failing
    # one); job 3 raised and counts as one failed operation
    assert result["attempted"] == 5
    assert result["failed"] == 2
    assert result["correct"] is False
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER


def test_attributes_a_module_lacks_are_skipped():
    fake = {name: SimpleNamespace() for name in MODULES}
    fake["solver"].solve = original = lambda g, dp, cfg: SimpleNamespace(iterations=1)
    recorder = spans.Recorder()
    with spans.instrumented(recorder, fake), recorder.job(0):
        assert fake["solver"].solve is not original
        fake["solver"].solve(Image(np.zeros((1, 4, 4))), None, SolverConfig(tau=1.0))
    assert fake["solver"].solve is original
    assert [s.name for s in recorder.spans] == ["harness.job", "solver.solve"]
