"""Command-line interface.

Subcommands: denoise, add-noise, metrics, estimate, bench.  Exit codes:
0 success, 1 validation error (bad flags, malformed files, inconsistent
dimensions, a solve that left the finite range), 2 operating-system level
I/O failure.
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
    default_st_support,
    default_tau_grid,
    regularizer,
    write_csv,
)
from .diffops import gaussian_kernel
from .dpe import DpeConfig, estimate
from .image import Image, FormatError, NoiseSpec, add_gaussian_noise, load_image, psnr, save_image, ssim
from .solver import SolverConfig, project_box, solve
from .tensor import DirectionalParams

__all__ = ["main"]


def _add_solver_flags(p):
    p.add_argument("--tau", type=float, required=True, help="regularization weight")
    p.add_argument("--alpha-plus", type=float, default=10.0,
                   help="anisotropy scale for eadtv/adstv (default 10)")
    p.add_argument("--kernel-sigma", type=float, default=0.5)
    p.add_argument("--kernel-support", type=int, default=3)
    p.add_argument("--q", type=int, default=1, choices=(1, 2),
                   help="Schatten order of the per-pixel penalty")
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--unconstrained", action="store_true",
                   help="drop the [0,1] box constraint")


def _add_dpe_flags(p):
    p.add_argument("--scales", type=int, default=None, choices=(2, 3),
                   help="coherence analysis scales (default by --noise-sigma rule)")
    p.add_argument("--st-support", type=int, default=None,
                   help="structure tensor kernel support (default by image size)")
    p.add_argument("--noise-sigma", type=float, default=None,
                   help="declared noise level; only sets the default scale count")


def _num_scales(args):
    if args.scales is not None:
        return args.scales
    return default_num_scales(args.noise_sigma) if args.noise_sigma is not None else 2


def _dpe_config(args, img):
    support = args.st_support
    if support is None:
        support = default_st_support(img.height, img.width)
    return DpeConfig(alpha_plus=args.alpha_plus, num_scales=_num_scales(args),
                     st_support=support)


def _dump_fields(dirpath, dp):
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    save_image(Image(dp.alpha_minus[None]), d / "alpha_minus.pfm")
    save_image(Image(dp.theta[None]), d / "theta.pfm")


def cmd_denoise(args):
    img = load_image(args.input)
    box = None if args.unconstrained else (0.0, 1.0)
    reg = args.regularizer
    kernel, q, steering = regularizer(
        reg, img, gaussian_kernel(args.kernel_sigma, args.kernel_support), args.q,
        smooth_sigma=args.smooth_sigma, num_scales=_num_scales(args),
        st_support=args.st_support)
    dp = None
    if reg == "adstv" and args.theta_override is not None:
        # fixed global direction: no estimation, unit dose everywhere
        shape = (img.height, img.width)
        folded = args.theta_override % math.pi
        if folded >= math.pi:
            folded = 0.0
        dp = DirectionalParams(args.alpha_plus, np.ones(shape), np.full(shape, folded))
    elif steering is not None:
        # written so that NaN fails it too
        if reg == "adstv" and not 1.0 < args.alpha_plus < math.inf:
            raise ValueError("adstv needs a finite --alpha-plus > 1 unless "
                             "--theta-override is given")
        dp = steering(args.alpha_plus)
    if args.dump_fields:
        if dp is None:
            raise ValueError("--dump-fields requires a directional regularizer")
        _dump_fields(args.dump_fields, dp)
    if args.tau == 0:
        out = project_box(img, box)
    else:
        cfg = SolverConfig(tau=args.tau, q=q, max_iters=args.iters,
                           rel_tol=args.tol, constraint=box, kernel=kernel)
        out = solve(img, dp, cfg).image
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
    dp = estimate(img, _dpe_config(args, img))
    _dump_fields(args.out_dir, dp)
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
        "rel_tol": args.tol,
        "q": args.q,
        "kernel": gaussian_kernel(args.kernel_sigma, args.kernel_support),
        "num_scales": args.scales,
        "st_support": args.st_support,
    }
    records = bench([(p, p.stem) for p in paths], sigmas, regs, tau_grid,
                    alpha_grid, master_seed=args.seed, jobs=args.jobs, opts=opts)
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
    _add_solver_flags(p)
    _add_dpe_flags(p)
    p.add_argument("--smooth-sigma", type=float, default=1.5,
                   help="gradient pre-smoothing for eadtv angles")
    p.add_argument("--theta-override", type=float, default=None,
                   help="use one global direction (radians) instead of estimation")
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
    p.add_argument("--alpha-plus", type=float, default=10.0)
    _add_dpe_flags(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("bench", help="parameter sweep over a corpus, CSV out")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sigmas", default="0.05,0.1,0.15,0.2,0.25")
    p.add_argument("--regularizers", default="tv,eadtv,stv,adstv")
    p.add_argument("--tau-grid", default="auto",
                   help="comma list, or 'auto' for 20 log points in [0.01, 0.5]")
    p.add_argument("--alpha-grid", default="auto",
                   help="comma list, or 'auto' for 2..30 step 1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--q", type=int, default=1, choices=(1, 2))
    p.add_argument("--kernel-sigma", type=float, default=0.5)
    p.add_argument("--kernel-support", type=int, default=3)
    p.add_argument("--scales", type=int, default=None, choices=(2, 3))
    p.add_argument("--st-support", type=int, default=None)
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
    except (FormatError, ValueError, FloatingPointError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
