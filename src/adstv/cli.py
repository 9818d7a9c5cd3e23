"""Command-line interface.

Subcommands: denoise, add-noise, metrics, estimate, bench.

denoise and bench estimate the direction fields from the float64 samples
and run every solve on a float32 copy of the noisy image.  A denoise
solve runs exactly --iters iterations; a bench solve stops on a duality
gap of bench.SWEEP_GAP_TOL, or after --iters.  denoise --tau 0 is the box
projection of its input, with no solve, and estimates fields only for
--dump-fields.

denoise, estimate and bench check their settings by the same rules,
bench._given_opts for the solve and analysis flags and bench._check_point
for each (tau, alpha_plus), then make or open their outputs, all before
they load an image: a bad setting or an output that cannot be written
fails before any work.  A run that fails removes the files and
directories it made, and an existing output keeps its contents until the
run writes it.

The bench CSV has one row per (image, sigma, regularizer), the best-PSNR
run; its columns are the fields of bench.RunRecord.

Exit codes: 0 success, 1 validation error (bad flags, malformed files,
inconsistent dimensions, a solve that left the finite range, settings
whose arrays do not fit in memory), 2 operating-system level I/O failure.
"""

import argparse
import contextlib
import math
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from .bench import (
    REGULARIZERS,
    _check_point,
    _given_opts,
    bench,
    default_alpha_grid,
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


def _add_analysis_flags(p, scales=DpeConfig.num_scales):
    # bench's default None takes the scale count from each noise level
    p.add_argument("--scales", type=int, default=scales, choices=(2, 3),
                   help="coherence analysis scales (default %s)" % (scales or "by noise level"))
    p.add_argument("--st-support", type=int, default=None,
                   help="structure tensor kernel support (default by image size)")


def _auto_grid_help(grid_fn):
    grid = grid_fn()
    return "comma list, or 'auto' for bench.%s(): %d values from %g to %g" % (
        grid_fn.__name__, len(grid), grid[0], grid[-1])


def _opts(args):
    """run_tuple's opts from the solve and analysis flags of args (None:
    unset)."""
    return {"max_iters": args.iters, "q": args.q, "num_scales": args.scales,
            "st_support": args.st_support,
            "kernel": gaussian_kernel(args.kernel_sigma, args.kernel_support)}


@contextlib.contextmanager
def _outputs(file=None, directory=None):
    """Make the output directory, with its missing parents, and open the
    output file for append, so that an output that cannot be written
    fails before any work, and an existing file keeps its contents.  If
    that or the body raises, what this made is removed."""
    made = []
    try:
        # the directory first: the file may lie in it
        for path, is_dir in ((directory, True), (file, False)):
            if path is not None:
                path = Path(path)
                # the outermost of path and its parents that this makes
                top = [p for p in (path, *path.parents) if not os.path.lexists(p)][-1:]
                if is_dir:
                    path.mkdir(parents=True, exist_ok=True)
                else:
                    open(path, "a").close()
                made += top
        yield
    except BaseException:
        for path in reversed(made):
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink()
        raise


def _dump_fields(dirpath, dp):
    d = Path(dirpath)
    save_image(Image(dp.alpha_minus[None]), d / "alpha_minus.pfm")
    save_image(Image(dp.theta[None]), d / "theta.pfm")


def cmd_denoise(args):
    reg, override = args.regularizer, args.theta_override
    if override is not None and reg != "adstv":
        raise ValueError("--theta-override applies to adstv only, not %s" % reg)
    if override is not None and not math.isfinite(override):
        raise ValueError("--theta-override must be finite")
    _, settings = _given_opts(_opts(args))
    kernel, q, fields = regularizer(
        reg, settings.kernel, settings.q, smooth_sigma=args.smooth_sigma,
        num_scales=args.scales, st_support=args.st_support)
    if args.dump_fields and fields is None:
        raise ValueError("--dump-fields requires a directional regularizer")
    # --tau 0 is the box projection: no solve, and no SolverConfig, which
    # would refuse it
    tau = None if args.tau == 0 else args.tau
    _check_point(reg, tau, args.alpha_plus, estimated=override is None)
    box = None if args.unconstrained else (0.0, 1.0)
    cfg = None if tau is None else SolverConfig(
        tau=tau, q=q, max_iters=settings.max_iters, constraint=box, kernel=kernel)
    with _outputs(args.output, args.dump_fields):
        img = load_image(args.input)
        # the result has the input's channels
        output_format(args.output, img.channels)
        dp = None
        if override is not None:
            # fixed global direction: no estimation, unit dose everywhere
            shape = (img.height, img.width)
            # Python's % is np.mod; _fold_angle then maps pi to 0
            theta = _fold_angle(np.full(shape, override % math.pi))
            dp = DirectionalParams(args.alpha_plus, np.ones(shape), theta)
        elif fields is not None and (cfg is not None or args.dump_fields):
            dp = fields(img)(args.alpha_plus)
        if args.dump_fields:
            _dump_fields(args.dump_fields, dp)
        if cfg is None:
            out = project_box(img, box)
        else:
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
    # --scales takes only valid values
    _given_opts({"st_support": args.st_support})
    _check_point("adstv", None, args.alpha_plus)
    with _outputs(directory=args.out_dir):
        img = load_image(args.input)
        # adstv's fields, whose kernel and q go unused here
        _, _, fields = regularizer("adstv", None, 1, num_scales=args.scales,
                                   st_support=args.st_support)
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
    with _outputs(args.out):
        records = bench([(p, p.stem) for p in paths], sigmas, regs, tau_grid, alpha_grid,
                        master_seed=args.seed, jobs=args.jobs, opts=_opts(args))
        write_csv(records, args.out)
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
    # bench takes alpha_plus from its alpha grid
    p.add_argument("--alpha-plus", type=float, default=10.0,
                   help="anisotropy scale for eadtv/adstv (default %(default)g)")
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
    p.add_argument("--alpha-plus", type=float, default=10.0,
                   help="anisotropy scale of the exported fields (default %(default)g)")
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
    _add_analysis_flags(p, scales=None)
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
