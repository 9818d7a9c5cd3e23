"""Command-line interface.

Subcommands: denoise, add-noise, metrics, estimate, bench.

denoise and bench estimate the direction fields from the float64 samples
and run every solve on a float32 copy of the noisy image.  A denoise
solve runs exactly --iters iterations; a bench solve stops on a duality
gap of bench.SWEEP_GAP_TOL, or after --iters.

The bench CSV has one row per (image, sigma, regularizer), the best-PSNR
run; its columns are the fields of bench.RunRecord.  bench refuses an --out
that it cannot open before the first solve, and an existing --out keeps its
contents until the sweep has finished.

Exit codes: 0 success, 1 validation error (bad flags, malformed files,
inconsistent dimensions, a solve that left the finite range, settings
whose arrays do not fit in memory), 2 operating-system level I/O failure.
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .bench import (
    REGULARIZERS,
    bench,
    default_alpha_grid,
    default_num_scales,
    default_tau_grid,
    regularizer,
    write_csv,
)
from .diffops import gaussian_kernel
from .dpe import EADTV_SMOOTH_SIGMA, DpeConfig, _fold_angle
from .image import (Image, FormatError, NoiseSpec, add_gaussian_noise, load_image, output_format,
                    psnr, save_image, ssim)
from .solver import KERNEL_SIGMA, KERNEL_SUPPORT, SolverConfig, project_box, solve
from .tensor import DirectionalParams

__all__ = ["main"]


def _add_solve_flags(p):
    p.add_argument("--kernel-sigma", type=float, default=KERNEL_SIGMA)
    p.add_argument("--kernel-support", type=int, default=KERNEL_SUPPORT)
    p.add_argument("--q", type=int, default=SolverConfig.q, choices=(1, 2),
                   help="Schatten order of the per-pixel penalty")
    p.add_argument("--iters", type=int, default=SolverConfig.max_iters)


def _add_analysis_flags(p):
    p.add_argument("--scales", type=int, default=None, choices=(2, 3),
                   help="coherence analysis scales (default by the noise level)")
    p.add_argument("--st-support", type=int, default=None,
                   help="structure tensor kernel support (default by image size)")


def _add_field_flags(p):
    # bench takes these from its sigma and alpha grids
    p.add_argument("--alpha-plus", type=float, default=10.0,
                   help="anisotropy scale for eadtv/adstv (default %(default)g)")
    p.add_argument("--noise-sigma", type=float, default=None,
                   help="declared noise level; only sets the default scale count")


def _auto_grid_help(grid_fn):
    grid = grid_fn()
    return "comma list, or 'auto' for bench.%s(): %d values from %g to %g" % (
        grid_fn.__name__, len(grid), grid[0], grid[-1])


def _num_scales(args):
    # --noise-sigma is checked even when --scales overrides its rule
    by_noise = DpeConfig.num_scales
    if args.noise_sigma is not None:
        try:
            by_noise = default_num_scales(args.noise_sigma)
        except ValueError as exc:
            raise ValueError("--noise-sigma: %s" % exc) from None
    return by_noise if args.scales is None else args.scales


def _check_alpha_plus(args):
    """Refuse an --alpha-plus that estimated adstv fields cannot take,
    before they are estimated."""
    # written so that NaN fails it too
    if not 1.0 < args.alpha_plus < math.inf:
        raise ValueError("adstv's estimated fields need a finite --alpha-plus > 1")


def _dump_fields(dirpath, dp):
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    save_image(Image(dp.alpha_minus[None]), d / "alpha_minus.pfm")
    save_image(Image(dp.theta[None]), d / "theta.pfm")


def cmd_denoise(args):
    reg = args.regularizer
    # --tau 0 builds no SolverConfig, which would refuse it
    if args.iters < 1:
        raise ValueError("--iters must be at least 1, got %d" % args.iters)
    if args.theta_override is not None and reg != "adstv":
        raise ValueError("--theta-override applies to adstv only, not %s" % reg)
    if args.theta_override is not None and not math.isfinite(args.theta_override):
        raise ValueError("--theta-override must be finite")
    img = load_image(args.input)
    # the result has the input's channels: refuse an output path that
    # cannot take them before anything is estimated or solved
    output_format(args.output, img.channels)
    box = None if args.unconstrained else (0.0, 1.0)
    kernel, q, fields = regularizer(
        reg, gaussian_kernel(args.kernel_sigma, args.kernel_support), args.q,
        smooth_sigma=args.smooth_sigma,
        num_scales=_num_scales(args), st_support=args.st_support)
    dp = None
    if args.theta_override is not None:
        # fixed global direction: no estimation, unit dose everywhere
        shape = (img.height, img.width)
        # Python's % is np.mod; _fold_angle then maps pi to 0
        theta = _fold_angle(np.full(shape, args.theta_override % math.pi))
        dp = DirectionalParams(args.alpha_plus, np.ones(shape), theta)
    elif fields is not None:
        if reg == "adstv":
            _check_alpha_plus(args)
        dp = fields(img)(args.alpha_plus)
    if args.dump_fields:
        if dp is None:
            raise ValueError("--dump-fields requires a directional regularizer")
        _dump_fields(args.dump_fields, dp)
    if args.tau == 0:
        out = project_box(img, box)
    else:
        cfg = SolverConfig(tau=args.tau, q=q, max_iters=args.iters, constraint=box,
                           kernel=kernel)
        # a float32 iteration costs about half a float64 one; the fields
        # above were estimated from the float64 samples
        out = solve(Image(img.data.astype(np.float32)), dp, cfg).image
    save_image(out, args.output)
    return 0


def cmd_add_noise(args):
    img = load_image(args.input)
    noisy = add_gaussian_noise(img, NoiseSpec(args.sigma, args.seed))
    save_image(noisy, args.output)
    return 0


def cmd_metrics(args):
    ref = load_image(args.ref)
    test = load_image(args.test)
    print("psnr=%.6f ssim=%.6f" % (psnr(ref, test), ssim(ref, test)))
    return 0


def cmd_estimate(args):
    img = load_image(args.input)
    # adstv's fields, whose kernel and q go unused here
    _, _, fields = regularizer("adstv", None, 1, num_scales=_num_scales(args),
                               st_support=args.st_support)
    _check_alpha_plus(args)
    _dump_fields(args.out_dir, fields(img)(args.alpha_plus))
    return 0


def _parse_float_list(text):
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ValueError("expected a comma-separated list of numbers, got %r" % text) from None
    if not values:
        raise ValueError("empty list %r" % text)
    return values


def cmd_bench(args):
    corpus = Path(args.corpus)
    if not corpus.is_dir():
        raise ValueError("--corpus must be an existing directory")
    paths = sorted(p for p in corpus.iterdir()
                   if p.suffix.lower() in (".pgm", ".ppm", ".pfm"))
    if not paths:
        raise ValueError("no PGM/PPM/PFM images in %s" % corpus)
    sigmas = _parse_float_list(args.sigmas)
    regs = [r.strip() for r in args.regularizers.split(",") if r.strip()]
    tau_grid = default_tau_grid() if args.tau_grid == "auto" else _parse_float_list(args.tau_grid)
    alpha_grid = default_alpha_grid() if args.alpha_grid == "auto" else _parse_float_list(args.alpha_grid)
    opts = {
        "max_iters": args.iters,
        "q": args.q,
        "kernel": gaussian_kernel(args.kernel_sigma, args.kernel_support),
        "num_scales": args.scales,
        "st_support": args.st_support,
    }
    out = Path(args.out)
    created = not out.exists()
    # an append-mode open leaves an existing file as it is: it refuses an
    # unwritable --out before the first solve
    open(out, "a").close()
    try:
        records = bench([(p, p.stem) for p in paths], sigmas, regs, tau_grid,
                        alpha_grid, master_seed=args.seed, jobs=args.jobs, opts=opts)
    except BaseException:
        if created:
            out.unlink()
        raise
    write_csv(records, out)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="adstv",
        description="Structure tensor total variation denoising with "
                    "direction-adaptive steering.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("denoise", help="restore a noisy image")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--regularizer", required=True, choices=REGULARIZERS)
    p.add_argument("--tau", type=float, required=True, help="regularization weight")
    p.add_argument("--unconstrained", action="store_true",
                   help="drop the [0,1] box constraint")
    _add_solve_flags(p)
    _add_analysis_flags(p)
    _add_field_flags(p)
    p.add_argument("--smooth-sigma", type=float, default=EADTV_SMOOTH_SIGMA,
                   help="gradient pre-smoothing for eadtv angles")
    p.add_argument("--theta-override", type=float, default=None,
                   help="adstv only: one global direction (radians), no estimation")
    p.add_argument("--dump-fields", default=None, metavar="DIR",
                   help="write alpha_minus.pfm and theta.pfm to DIR")
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("add-noise", help="add white Gaussian noise")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_add_noise)

    p = sub.add_parser("metrics", help="PSNR/SSIM between two images")
    p.add_argument("--ref", required=True)
    p.add_argument("--test", required=True)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("estimate", help="export the estimated direction fields")
    p.add_argument("--input", required=True)
    p.add_argument("--out-dir", required=True)
    _add_analysis_flags(p)
    _add_field_flags(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("bench", help="parameter sweep over a corpus, CSV out")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sigmas", default="0.05,0.1,0.15,0.2,0.25")
    p.add_argument("--regularizers", default="tv,eadtv,stv,adstv")
    p.add_argument("--tau-grid", default="auto", help=_auto_grid_help(default_tau_grid))
    p.add_argument("--alpha-grid", default="auto", help=_auto_grid_help(default_alpha_grid))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    _add_solve_flags(p)
    _add_analysis_flags(p)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on flag errors; those are validation failures here
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (FormatError, ValueError, FloatingPointError, MemoryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
