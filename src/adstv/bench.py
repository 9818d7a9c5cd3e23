"""Benchmark harness: noise injection, parameter sweeps, CSV reporting.

For every (image, sigma, regularizer) tuple the harness adds Gaussian noise
with a seed derived from the tuple itself (so all regularizers see the same
noisy realization), sweeps the tau grid (and the alpha_plus grid for the
steered regularizers), and keeps the best-PSNR run.  wall_seconds records
the solve time of the winning run only, excluding parameter estimation.
"""

import hashlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .diffops import delta_kernel, gaussian_kernel
from .dpe import DpeConfig, analyze, eadtv_angles
from .image import NoiseSpec, add_gaussian_noise, load_image, psnr, ssim
from .solver import SolverConfig, solve
from .tensor import DirectionalParams

__all__ = [
    "REGULARIZERS",
    "CSV_HEADER",
    "RunRecord",
    "derive_seed",
    "default_num_scales",
    "default_st_support",
    "default_tau_grid",
    "default_alpha_grid",
    "regularizer",
    "run_tuple",
    "bench",
]

REGULARIZERS = ("tv", "eadtv", "stv", "adstv")


def regularizer(name, g, kernel, q, smooth_sigma=1.5, num_scales=2, st_support=None):
    """The (kernel, q, steering) that the regularizer name denoises g with.

    tv is the delta kernel at q = 2 and stv the given kernel at q; neither
    is steered, and steering is None.  eadtv (the delta kernel) and adstv
    (the given kernel) are steered at q: steering maps alpha_plus to the
    DirectionalParams of the solve.  Its first call estimates the fields
    from g, with eadtv_angles (gradients smoothed by smooth_sigma) or with
    analyze (num_scales scales, structure-tensor support st_support, by
    default chosen from the image size), and later calls reuse them.
    """
    if name == "tv":
        return delta_kernel(), 2, None
    if name == "stv":
        return kernel, q, None
    if name == "eadtv":
        kernel = delta_kernel()

        def fields():
            theta = eadtv_angles(g, smooth_sigma)
            ones = np.ones(theta.shape)
            return lambda alpha_plus: DirectionalParams(alpha_plus, ones, theta)
    elif name == "adstv":

        def fields():
            support = st_support
            if support is None:
                support = default_st_support(g.height, g.width)
            # analyze() never reads alpha_plus; the value here only satisfies
            # config validation, and the real alpha is steering's argument
            cfg = DpeConfig(alpha_plus=2.0, num_scales=num_scales, st_support=support)
            return analyze(g, cfg).directional_params
    else:
        raise ValueError("unknown regularizer %r" % name)
    estimated = []

    def steering(alpha_plus):
        if not estimated:
            estimated.append(fields())
        return estimated[0](alpha_plus)

    return kernel, q, steering


CSV_HEADER = "image_id,regularizer,sigma_eta,tau,alpha_plus,psnr_db,ssim,iters,wall_seconds,seed"


@dataclass
class RunRecord:
    image_id: str
    regularizer: str
    sigma_eta: float
    tau: float
    alpha_plus: float
    psnr_db: float
    ssim: float
    iters: int
    wall_seconds: float
    seed: int

    def __post_init__(self):
        if self.regularizer not in REGULARIZERS:
            raise ValueError("unknown regularizer %r" % self.regularizer)
        for name in ("sigma_eta", "tau", "alpha_plus", "psnr_db", "ssim", "wall_seconds"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError("non-finite %s" % name)

    def csv_row(self):
        return "%s,%s,%.6f,%.6f,%.6f,%.6f,%.6f,%d,%.6f,%d" % (
            self.image_id,
            self.regularizer,
            self.sigma_eta,
            self.tau,
            self.alpha_plus,
            self.psnr_db,
            self.ssim,
            self.iters,
            self.wall_seconds,
            self.seed,
        )


def derive_seed(image_id, sigma_eta, master_seed):
    """Stable per-tuple seed so every regularizer denoises the same noise."""
    key = "%s|%.6f|%d" % (image_id, sigma_eta, master_seed)
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def default_num_scales(sigma_eta):
    """Two analysis scales below sigma 0.2, three at or above."""
    # written so that NaN fails it
    if not 0.0 <= sigma_eta < np.inf:
        raise ValueError("noise sigma must be finite and nonnegative, got %r" % sigma_eta)
    return 2 if sigma_eta < 0.2 else 3


def default_st_support(height, width):
    """Structure-tensor support by image size: 7 / 11 / 15.

    Keyed to the smaller dimension so that wide-but-short photographs get
    the middle setting and full 512x512 frames the largest.
    """
    m = min(height, width)
    if m <= 256:
        return 7
    if m < 512:
        return 11
    return 15


def default_tau_grid():
    return [float(t) for t in np.geomspace(0.01, 0.5, 20)]


def default_alpha_grid():
    return [float(a) for a in np.arange(2, 31)]


def _check_grids(regularizers, sigmas, tau_grid, alpha_grid):
    """Reject a grid that would leave a tuple without a single solve, or
    whose values a solve would refuse."""
    for sigma in sigmas:
        # refuses the sigmas NoiseSpec refuses: NaN, infinite or negative
        default_num_scales(sigma)
    if not tau_grid:
        raise ValueError("the tau grid is empty")
    for tau in tau_grid:
        # written so that NaN fails it
        if not 0.0 < tau < np.inf:
            raise ValueError("tau grid values must be positive and finite, got %r" % tau)
    steered = [reg for reg in regularizers if reg in ("eadtv", "adstv")]
    if not steered:
        return
    if not alpha_grid:
        raise ValueError("the alpha grid is empty, and %s needs one" % steered[0])
    for alpha in alpha_grid:
        if not 1.0 <= alpha < np.inf:  # NaN fails it too
            raise ValueError("alpha grid values must be finite and >= 1, got %r" % alpha)


def _solver_kwargs(opts):
    return dict(
        max_iters=opts.get("max_iters", 100),
        rel_tol=opts.get("rel_tol", 1e-5),
        constraint=opts.get("constraint", (0.0, 1.0)),
    )


def run_tuple(clean, image_id, sigma_eta, reg, tau_grid, alpha_grid,
              master_seed, opts=None):
    """Best-PSNR record for one (image, sigma, regularizer) tuple."""
    tau_grid, alpha_grid = list(tau_grid), list(alpha_grid)
    _check_grids([reg], [sigma_eta], tau_grid, alpha_grid)
    opts = opts or {}
    seed = derive_seed(image_id, sigma_eta, master_seed)
    noisy = add_gaussian_noise(clean, NoiseSpec(sigma_eta, seed))
    kernel, q, steering = regularizer(
        reg, noisy, opts.get("kernel") or gaussian_kernel(0.5, 3), opts.get("q", 1),
        smooth_sigma=opts.get("smooth_sigma", 1.5),
        num_scales=opts.get("num_scales") or default_num_scales(sigma_eta),
        st_support=opts.get("st_support"))
    if steering is None:
        runs = [(1.0, None)]
    else:
        runs = ((a, steering(a)) for a in alpha_grid)

    best = None
    for alpha, dp in runs:
        for tau in tau_grid:
            cfg = SolverConfig(tau=float(tau), q=q, kernel=kernel,
                               **_solver_kwargs(opts))
            t0 = time.perf_counter()
            result = solve(noisy, dp, cfg)
            wall = time.perf_counter() - t0
            p = psnr(clean, result.image)
            if best is None or p > best.psnr_db:
                best = RunRecord(
                    image_id=image_id,
                    regularizer=reg,
                    sigma_eta=float(sigma_eta),
                    tau=float(tau),
                    alpha_plus=float(alpha),
                    psnr_db=p,
                    ssim=ssim(clean, result.image),
                    iters=result.iterations,
                    wall_seconds=wall,
                    seed=seed,
                )
    return best


def _run_tuple_from_path(args):
    path, image_id, sigma, reg, tau_grid, alpha_grid, master_seed, opts = args
    return run_tuple(load_image(path), image_id, sigma, reg, tau_grid,
                     alpha_grid, master_seed, opts)


def bench(image_paths, sigmas, regularizers, tau_grid, alpha_grid,
          master_seed=0, jobs=1, opts=None):
    """Sweep all tuples; returns RunRecords in deterministic order.

    jobs is the number of worker processes, at least 1 (1 runs every tuple
    in this process)."""
    if jobs < 1:
        raise ValueError("jobs must be >= 1, got %r" % jobs)
    for reg in regularizers:
        if reg not in REGULARIZERS:
            raise ValueError("unknown regularizer %r" % reg)
    tau_grid, alpha_grid = list(tau_grid), list(alpha_grid)
    _check_grids(regularizers, sigmas, tau_grid, alpha_grid)
    tasks = []
    for path, image_id in image_paths:
        for sigma in sigmas:
            for reg in regularizers:
                tasks.append((str(path), image_id, float(sigma), reg,
                              tau_grid, alpha_grid, master_seed,
                              opts or {}))
    # a pool starts all its workers at once, so it gets no more than tasks
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_tuple_from_path, tasks))
    return [_run_tuple_from_path(t) for t in tasks]


def write_csv(records, path):
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            fh.write(rec.csv_row() + "\n")
