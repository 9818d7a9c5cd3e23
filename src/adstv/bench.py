"""Benchmark harness: noise injection, parameter sweeps, CSV reporting.

For every (image, sigma, regularizer) tuple the harness adds Gaussian noise
with a seed derived from the tuple itself (so all regularizers see the same
noisy realization), sweeps the tau grid (and the alpha_plus grid for the
steered regularizers), and keeps the best-PSNR run.  regularizer is the one
table from a regularizer name to its (kernel, q, fields): the sweep, its
grid checks and the CLI all ask it, and it keeps no state.  _check_point
holds the rules that a (tau, alpha_plus) point of a regularizer must meet,
which the sweep applies to every point of its grids and the CLI to its
flags, before either loads or estimates anything.

The direction fields are estimated from the float64 noisy image; every
solve runs on one float32 copy of it, and PSNR and SSIM compare each result
with the float64 clean image.

Every solve of a sweep stops once its relative duality gap is at most
SWEEP_GAP_TOL.  A tuple's solves run as one warm-start chain in order of
the effective weight tau * alpha_plus (ties to the smaller alpha_plus,
then to grid order): the first starts from zeros, and each later one from
the dual the previous one left, a feasible start because the dual
feasible set depends on neither tau nor the steering.  The rule for the
kept record does not depend on that order: it is the highest PSNR, a tie
going to the earlier grid point, alpha_plus first and then tau.

Once a tuple holds a candidate, every later solve is pruned against it
(solver.solve's prune): the sweep's solves minimize a 1-strongly convex
primal, so a check's absolute duality gap G puts the exact minimizer
within sqrt(2 G) of the check's image z.  When ||z - clean|| - sqrt(2 G)
exceeds the candidate's own distance from the clean image, the exact
minimizer scores strictly below the candidate, and the solve stops there
(stop_reason "pruned").  A pruned solve is never a candidate, and its last
accepted dual still starts the next solve of the chain.  The bound covers
exact minimizers: a candidate is a solve to SWEEP_GAP_TOL, which can score
a few hundredths of a dB off its own minimizer, and in float32 G is an
estimate, whose round-off allowance errs toward not pruning.  A record's
chain_iters counts the iterations of every solve of its tuple, pruned ones
included.
"""

import dataclasses
import hashlib
import math
import numbers
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .diffops import delta_kernel
from .dpe import EADTV_SMOOTH_SIGMA, DpeConfig, analyze, eadtv_angles
from .image import (
    SSIM_WINDOW,
    Image,
    NoiseSpec,
    _mse,
    add_gaussian_noise,
    load_image,
    psnr,
    ssim,
)
from .solver import SolverConfig, _step_bound, solve
from .tensor import DirectionalParams, dual_field

__all__ = [
    "REGULARIZERS",
    "SWEEP_GAP_TOL",
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

# The relative duality gap at which a sweep's solves stop: in a
# 3000-iteration study a gap at or below 1e-3 kept PSNR within 0.020 dB of
# the converged solve.
SWEEP_GAP_TOL = 1e-3


def regularizer(name, kernel, q, smooth_sigma=EADTV_SMOOTH_SIGMA,
                num_scales=DpeConfig.num_scales, st_support=None):
    """The (kernel, q, fields) that the regularizer name denoises with.

    tv is the delta kernel at q = 2 and stv the given kernel at q; neither
    is steered, and fields is None.  eadtv (the delta kernel) and adstv
    (the given kernel) are steered at q: fields(g) estimates the direction
    fields of the image g, with eadtv_angles (gradients smoothed by
    smooth_sigma) or with analyze (num_scales scales, structure-tensor
    support st_support, by default chosen from g's size), and returns the
    map from alpha_plus to the DirectionalParams of the solve.  The lookup
    itself estimates nothing; eadtv's refuses a smooth_sigma that is not
    positive and finite.
    """
    if name == "tv":
        return delta_kernel(), 2, None
    if name == "stv":
        return kernel, q, None
    if name == "eadtv":
        # eadtv_angles' rule, applied here too: a run that estimates
        # nothing still refuses the sigma
        if not 0.0 < smooth_sigma < np.inf:
            raise ValueError("smooth_sigma must be positive and finite, got %r" % smooth_sigma)

        def fields(g):
            theta = eadtv_angles(g, smooth_sigma)
            ones = np.ones(theta.shape)
            return lambda alpha_plus: DirectionalParams(alpha_plus, ones, theta)

        return delta_kernel(), q, fields
    if name == "adstv":

        def fields(g):
            support = st_support
            if support is None:
                support = default_st_support(g.height, g.width)
            # analyze() never reads alpha_plus; the value here only satisfies
            # config validation, and the real alpha is the map's argument
            cfg = DpeConfig(alpha_plus=2.0, num_scales=num_scales, st_support=support)
            return analyze(g, cfg).directional_params

        return kernel, q, fields
    raise ValueError("unknown regularizer %r" % name)


def _check_point(name, tau, alpha_plus, estimated=True):
    """Refuse a (tau, alpha_plus) point that a float32 solve of the
    regularizer name could not run: a tau that is not positive and finite,
    a steered regularizer's alpha_plus that is not finite and >= 1, or not
    > 1 where adstv's fields are estimated (DpeConfig's rule; estimated
    False is a fixed direction field), and a point whose step bound
    8 tau alpha_plus^2, or whose alpha_plus, exceeds the float32 range.
    tv and stv read no alpha_plus.  tau None is a run with no solve, and
    checks alpha_plus alone."""
    if tau is not None and not 0.0 < tau < np.inf:  # NaN fails it too
        raise ValueError("tau must be positive and finite, got %r" % tau)
    if regularizer(name, None, 1)[2] is None:
        alpha_plus = None
    elif not (1.0 < alpha_plus < np.inf
              or alpha_plus == 1.0 and not (name == "adstv" and estimated)):
        raise ValueError("alpha_plus must be finite and >= 1, and > 1 where adstv estimates "
                         "its fields, got %r" % alpha_plus)
    if tau is not None:
        _step_bound(tau, alpha_plus, np.float32)


@dataclass
class RunRecord:
    """One CSV row, its fields in order (CSV_HEADER holds their names): the
    best-PSNR run of one tuple.  psnr_db is inf for an exact restoration,
    wall_seconds is that run's solve time, stop_reason why it stopped
    ("gap" or "max_iters": a pruned solve is never kept), estimate_seconds
    the time of the tuple's direction estimation (0 for tv and stv), gap
    the relative duality gap of the kept run's image (None, an empty cell,
    when its solve took none), and chain_iters the iterations of every
    solve of the tuple, pruned ones included (by default iters, a chain of
    the kept solve alone), at least iters."""

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
    stop_reason: str = "max_iters"
    estimate_seconds: float = 0.0
    gap: Optional[float] = None
    chain_iters: Optional[int] = None

    def __post_init__(self):
        if self.regularizer not in REGULARIZERS:
            raise ValueError("unknown regularizer %r" % self.regularizer)
        if self.stop_reason not in ("gap", "max_iters"):
            raise ValueError("stop_reason must be 'gap' or 'max_iters', got %r"
                             % (self.stop_reason,))
        if self.chain_iters is None:
            self.chain_iters = self.iters
        if not self.chain_iters >= self.iters:
            raise ValueError("chain_iters %r is below the kept solve's %r iterations"
                             % (self.chain_iters, self.iters))
        for name in ("sigma_eta", "tau", "alpha_plus", "ssim", "wall_seconds",
                     "estimate_seconds"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError("non-finite %s" % name)
        # written so that NaN fails it
        if not -np.inf < self.psnr_db <= np.inf:
            raise ValueError("psnr_db must be a number or +inf, got %r" % self.psnr_db)
        if self.gap is not None and not 0.0 <= self.gap < np.inf:
            raise ValueError("gap must be None or finite and >= 0, got %r" % self.gap)

    def csv_row(self):
        values = ((f.type, getattr(self, f.name)) for f in dataclasses.fields(self))
        return ",".join("" if v is None else _CSV_FORMATS[t] % v for t, v in values)


_CSV_FORMATS = {str: "%s", int: "%d", float: "%.6f", Optional[float]: "%.3e",
                Optional[int]: "%d"}
CSV_HEADER = ",".join(f.name for f in dataclasses.fields(RunRecord))


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
    """Reject an empty regularizer or sigma list, which would leave no
    tuple at all, a repeated regularizer or sigma, which would run a tuple
    twice, an empty tau grid, or an empty alpha grid where a steered
    regularizer needs one, which would leave a tuple without a single
    solve, and a grid point that _check_point refuses.  Two sigmas are the
    same when they agree to the 6 decimals of derive_seed and of the CSV.
    An unknown regularizer raises regularizer's own error."""
    if not regularizers:
        raise ValueError("the regularizer list is empty")
    if not sigmas:
        raise ValueError("the sigma list is empty")
    for i, reg in enumerate(regularizers):
        if reg in regularizers[:i]:
            raise ValueError("the regularizer %r is listed twice" % reg)
    seen = {}
    for sigma in sigmas:
        # refuses the sigmas NoiseSpec refuses: NaN, infinite or negative
        default_num_scales(sigma)
        key = "%.6f" % sigma
        if key in seen:
            raise ValueError("the sigma %r is listed twice: %r agrees with it to 6 decimals"
                             % (seen[key], sigma))
        seen[key] = sigma
    if not tau_grid:
        raise ValueError("the tau grid is empty")
    for reg in regularizers:
        steered = regularizer(reg, None, 1)[2] is not None
        if steered and not alpha_grid:
            raise ValueError("the alpha grid is empty, and %s needs one" % reg)
        for alpha in alpha_grid if steered else [None]:
            for tau in tau_grid:
                _check_point(reg, tau, alpha)


# the opts keys of run_tuple: the solve's settings, then the analysis'
_SOLVER_OPTS = ("max_iters", "q", "kernel")
_ANALYSIS_OPTS = ("num_scales", "st_support")
_OPTS = _SOLVER_OPTS + _ANALYSIS_OPTS


def _given_opts(opts):
    """The keys that opts sets, to anything but None, and the SolverConfig
    of its solver keys at a placeholder tau of 1 (every solve replaces the
    tau and the regularizer's kernel and q), which stops on a gap of
    SWEEP_GAP_TOL.  A key outside _OPTS, or a value that SolverConfig or
    DpeConfig refuses, raises ValueError, whether or not a steered
    regularizer would read it."""
    opts = opts or {}
    unknown = sorted(set(opts) - set(_OPTS))
    if unknown:
        raise ValueError("unknown opts key(s) %s; run_tuple reads %s"
                         % (", ".join(map(repr, unknown)), ", ".join(_OPTS)))
    given = {key: value for key, value in opts.items() if value is not None}
    settings = SolverConfig(tau=1.0, rel_tol=SWEEP_GAP_TOL,
                            **{k: given[k] for k in _SOLVER_OPTS if k in given})
    analysis = {k: given[k] for k in _ANALYSIS_OPTS if k in given}
    if analysis:
        # DpeConfig's defaults fill an unset analysis key, and alpha_plus
        # is a placeholder, as in regularizer
        DpeConfig(alpha_plus=2.0, **analysis)
    return given, settings


def run_tuple(clean, image_id, sigma_eta, reg, tau_grid, alpha_grid,
              master_seed, opts=None):
    """Best-PSNR record for one (image, sigma, regularizer) tuple.

    The fields are estimated from the float64 noisy image, and every solve
    runs on its float32 copy and stops on a gap of SWEEP_GAP_TOL.  opts may
    set the solve's max_iters, q and kernel (SolverConfig's defaults fill
    the rest) and the analysis' num_scales and st_support (by
    default from sigma_eta and the image size); a key that is missing or
    None is unset, and any other key, or a value SolverConfig or DpeConfig
    refuses, raises ValueError before the first solve, as does a noisy
    sample beyond the float32 range or a master_seed that is not an
    integer.  A clean image smaller than SSIM's window on either side is
    refused before the noise is drawn.

    The tuple solves every (alpha_plus, tau) pair of the grids (alpha_plus
    1 for tv and stv) in one chain, in order of the effective weight
    tau * alpha_plus, ties going to the smaller alpha_plus and then to grid
    order: the steered operator is alpha_plus diag(1, alpha_minus /
    alpha_plus) R(-theta) grad, so a solve depends on tau and alpha_plus
    through their product and the ratio.  One dual field is every solve's
    start and output: the first solve starts from zeros, and each later one
    from the dual the previous one left.  Any earlier dual is a feasible
    start, as the dual feasible set, the unit balls, depends on neither tau
    nor the steering; the nearest weight's is the closest at hand.  An
    alpha_plus's DirectionalParams is built when its solve comes up, after
    the previous one is released, so at most one is held.

    Once a candidate is kept, each later solve gets prune=(clean, radius),
    radius the candidate's distance sqrt(N mse) from the clean image in
    psnr's float64 arithmetic (N samples), and stops as "pruned" at a check
    whose duality gap proves that its exact minimizer lies farther from
    clean than that, so scores strictly below the candidate (see the module
    docstring for the bound and its float32 caveat).  A pruned solve is
    never a candidate; its last accepted dual starts the next solve.

    The kept record is the highest PSNR among the solves not pruned, a tie
    going to the earlier point of the grid order (alpha_plus first, then
    tau), whatever the solve order; its SSIM is scored once, after the
    last solve, and its chain_iters sums the iterations of every solve."""
    _check_master_seed(master_seed)
    _check_ssim_size(clean, image_id)
    tau_grid, alpha_grid = list(tau_grid), list(alpha_grid)
    _check_grids([reg], [sigma_eta], tau_grid, alpha_grid)
    opts, settings = _given_opts(opts)
    seed = derive_seed(image_id, sigma_eta, master_seed)
    noisy = add_gaussian_noise(clean, NoiseSpec(sigma_eta, seed))
    # such a sample would be inf in the float32 copy
    if np.abs(noisy.data).max() > np.finfo(np.float32).max:
        raise ValueError("noisy samples of %s at sigma %g exceed the float32 range"
                         % (image_id, sigma_eta))
    noisy32 = Image(noisy.data.astype(np.float32))
    kernel, q, fields = regularizer(
        reg, settings.kernel, settings.q,
        num_scales=opts.get("num_scales", default_num_scales(sigma_eta)),
        st_support=opts.get("st_support"))
    estimate_seconds = 0.0
    steering = None
    if fields is None:
        alpha_grid = [1.0]
    else:
        t0 = time.perf_counter()
        steering = fields(noisy)
        estimate_seconds = time.perf_counter() - t0

    grid = [(alpha, tau) for alpha in alpha_grid for tau in tau_grid]
    # a stable sort: equal keys keep grid order
    order = sorted(range(len(grid)), key=lambda i: (grid[i][0] * grid[i][1], grid[i][0]))
    dual = dual_field(kernel.support**2 * clean.channels, clean.height, clean.width, np.float32)
    dp = best = prune = None
    chain_iters = 0
    for i in order:
        alpha, tau = grid[i]
        if steering is not None and (dp is None or dp.alpha_plus != alpha):
            # the fields of the last alpha_plus are released before these are built
            dp = None
            dp = steering(alpha)
        cfg = dataclasses.replace(settings, tau=float(tau), q=q, kernel=kernel)
        t0 = time.perf_counter()
        result = solve(noisy32, dp, cfg, dual=dual, prune=prune)
        wall = time.perf_counter() - t0
        chain_iters += result.iterations
        if result.stop_reason == "pruned":
            continue
        p = psnr(clean, result.image)
        if best is None or p > best[0] or (p == best[0] and i < best[1]):
            best = (p, i, result, wall)
            # the candidate's distance from clean, in psnr's arithmetic:
            # an image farther from clean scores strictly less
            prune = (clean, math.sqrt(clean.data.size * _mse(clean, result.image)))
    p, i, result, wall = best
    alpha, tau = grid[i]
    return RunRecord(
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
        stop_reason=result.stop_reason,
        estimate_seconds=estimate_seconds,
        gap=result.gap,
        chain_iters=chain_iters,
    )


def _check_master_seed(master_seed):
    # derive_seed's %d would run a master_seed of 1.7 as 1
    if not isinstance(master_seed, numbers.Integral):
        raise ValueError("master_seed must be an integer, got %r" % (master_seed,))


def _check_ssim_size(clean, name):
    """Refuse an image smaller than SSIM's window on either side, which
    could be scored only after every solve of its tuples."""
    if min(clean.height, clean.width) < SSIM_WINDOW:
        raise ValueError("%s is %dx%d, smaller than SSIM's %dx%d window"
                         % (name, clean.width, clean.height, SSIM_WINDOW, SSIM_WINDOW))


def _run_task(task):
    return run_tuple(*task)


def bench(image_paths, sigmas, regularizers, tau_grid, alpha_grid,
          master_seed=0, jobs=1, opts=None):
    """Sweep all tuples; returns RunRecords in deterministic order.

    jobs is the number of worker processes, an integer of at least 1 (1
    runs every tuple in this process).  opts is run_tuple's, checked
    before any tuple runs.  Two images with the same id are refused before
    any image is loaded.  Each image is loaded once, before the first
    tuple, and one smaller than SSIM's window on either side is refused."""
    if not isinstance(jobs, numbers.Integral) or jobs < 1:
        raise ValueError("jobs must be an integer >= 1, got %r" % (jobs,))
    _check_master_seed(master_seed)
    sigmas, regularizers = list(sigmas), list(regularizers)
    tau_grid, alpha_grid = list(tau_grid), list(alpha_grid)
    _check_grids(regularizers, sigmas, tau_grid, alpha_grid)
    opts, _ = _given_opts(opts)
    image_paths = list(image_paths)
    first_path = {}
    for path, image_id in image_paths:
        if image_id in first_path:
            raise ValueError("%s and %s have the same image id %r"
                             % (first_path[image_id], path, image_id))
        first_path[image_id] = path
    tasks = []
    for path, image_id in image_paths:
        clean = load_image(path)
        _check_ssim_size(clean, path)
        for sigma in sigmas:
            for reg in regularizers:
                tasks.append((clean, image_id, float(sigma), reg,
                              tau_grid, alpha_grid, master_seed, opts))
    # a pool starts all its workers at once, so it gets no more than tasks
    workers = min(jobs, len(tasks))
    if workers > 1:
        # imported here: it loads multiprocessing, which no other command needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_task, tasks))
    return [_run_task(t) for t in tasks]


def write_csv(records, path):
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            fh.write(rec.csv_row() + "\n")
