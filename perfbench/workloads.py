"""The three benchmark workloads: synthetic inputs, the timed job, and the
output checks.

Every input is built here from the run's seed; the program only ever sees
the generated images (and, for the sweep, PFM files written at set-up).
Each workload exposes

    setup()      build the inputs (timed as set-up, repeated per run)
    job()        one closed-loop call into the program (timed as wall_s)
    check(out)   verify one job's outputs; returns a Checked record

Quality numbers are computed with the benchmark's own arithmetic, never with
the program's psnr, so a defect there cannot hide itself.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from adstv import bench, dpe, solver
from adstv.diffops import gaussian_kernel
from adstv.image import Image, NoiseSpec, add_gaussian_noise, load_image, save_image

# The criterion-8b rule: a restoration must beat the clipped noisy input by
# at least this many dB.
MIN_GAIN_DB = 3.0


# --- synthetic scenes -------------------------------------------------------


def grating(h, w, tangent, period=8.0, contrast=0.4):
    """Sinusoidal grating whose level sets run along `tangent` (radians)."""
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    normal = tangent + np.pi / 2.0
    phase = xx * np.cos(normal) + yy * np.sin(normal)
    return 0.5 + contrast * np.sin(2.0 * np.pi * phase / period)


def rings(h, w, period=8.0, flat_radius=12.0):
    """Concentric grating around the centre, flat inside flat_radius."""
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    r = np.hypot(yy - (h - 1) / 2.0, xx - (w - 1) / 2.0)
    out = 0.5 + 0.2 * np.sin(2.0 * np.pi * r / period)
    out[r < flat_radius] = 0.5
    return out


def scene512():
    """30 and 120 degree gratings (top row), rings and flat gray (bottom)."""
    n, h = 512, 256
    out = np.full((n, n), 0.5)
    out[:h, :h] = grating(h, h, np.pi / 6)
    out[:h, h:] = grating(h, h, 2 * np.pi / 3)
    out[h:, :h] = rings(h, h)
    return out


def scene512_regions():
    """(index, tangent) of the two linear-grating quadrants, less a margin
    about as wide as the structure-tensor window (st_support 15)."""
    h, margin = 256, 16
    return [
        ((slice(margin, h - margin), slice(margin, h - margin)), np.pi / 6),
        ((slice(margin, h - margin), slice(h + margin, 2 * h - margin)), 2 * np.pi / 3),
    ]


def synth_half():
    """30 degree grating on the left half, flat gray on the right."""
    a = grating(96, 96, np.pi / 6)
    a[:, 48:] = 0.5
    return a


def synth_quad():
    """30 and 120 degree gratings on opposite quadrants, flat elsewhere."""
    c = np.full((96, 96), 0.5)
    c[:48, :48] = grating(48, 48, np.pi / 6)
    c[48:, 48:] = grating(48, 48, 2 * np.pi / 3)
    return c


def rings_tangent(h, w):
    """The rings' level-set tangent at every pixel."""
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    return np.mod(np.arctan2(yy - (h - 1) / 2.0, xx - (w - 1) / 2.0) + np.pi / 2, np.pi)


def synth_regions(image_id):
    """(index, tangent) of the oriented parts of a 96 synthetic, less a
    margin about as wide as its structure-tensor window (st_support 7)."""
    margin = 8
    inner, outer = slice(margin, 48 - margin), slice(48 + margin, 96 - margin)
    if image_id == "synth_half":
        return [((slice(margin, 96 - margin), inner), np.pi / 6)]
    if image_id == "synth_quad":
        return [((inner, inner), np.pi / 6), ((outer, outer), 2 * np.pi / 3)]
    yy, xx = np.mgrid[0:96, 0:96]
    r = np.hypot(yy - 47.5, xx - 47.5)
    annulus = (r >= 12 + margin) & (r <= 48 - margin)
    return [(annulus, rings_tangent(96, 96)[annulus])]


def noisy_scene(seed, sigma):
    """The 512 scene plus white Gaussian noise drawn from the seed."""
    clean = scene512()
    noise = np.random.default_rng(seed).normal(0.0, sigma, clean.shape)
    return clean, clean + noise


# --- quality arithmetic -----------------------------------------------------


def psnr_db(ref, test):
    """PSNR with peak 1 (inf for identical images)."""
    mse = float(np.mean((np.asarray(ref) - np.asarray(test)) ** 2))
    return 10.0 * math.log10(1.0 / mse) if mse > 0 else math.inf


def region_errors(theta, regions):
    """Mean orientation error (radians, mod pi) in each (index, tangent)
    region; tangent is a scalar or an array shaped like theta[index]."""
    errs = []
    for index, tangent in regions:
        d = np.abs(theta[index] - tangent) % np.pi
        errs.append(float(np.mean(np.minimum(d, np.pi - d))))
    return errs


def theta_err_deg(theta, regions):
    """Mean of the regions' orientation errors, in degrees."""
    return math.degrees(float(np.mean(region_errors(theta, regions))))


# --- checks -----------------------------------------------------------------


@dataclass
class Checked:
    """Outcome of checking one job: operations attempted, one line per
    failed operation, and the job's quality numbers."""

    attempted: int
    failures: list = field(default_factory=list)
    psnr_db: float = math.nan
    theta_err_deg: float = math.nan

    @property
    def failed(self):
        return len(self.failures)

    def add(self, reasons):
        """Count one operation as failed when it broke any check."""
        if reasons:
            self.failures.append("; ".join(reasons))


def restored_failures(restored, clean, noisy):
    """Finite, inside [0, 1], and MIN_GAIN_DB above the clipped noisy input."""
    if not np.all(np.isfinite(restored)):
        return ["restored image has non-finite samples"]
    out = []
    if restored.min() < 0.0 or restored.max() > 1.0:
        out.append("restored image leaves [0, 1]")
    floor = psnr_db(clean, np.clip(noisy, 0.0, 1.0)) + MIN_GAIN_DB
    got = psnr_db(clean, restored)
    if not got >= floor:
        out.append("psnr %.3f dB below the %.3f dB floor" % (got, floor))
    return out


def field_failures(dp, alpha_plus):
    """theta in [0, pi) and alpha_minus in [1, alpha_plus], all finite."""
    out = []
    th, am = dp.theta, dp.alpha_minus
    if not (np.all(np.isfinite(th)) and th.min() >= 0.0 and th.max() < np.pi):
        out.append("theta outside [0, pi)")
    if not (np.all(np.isfinite(am)) and am.min() >= 1.0 and am.max() <= alpha_plus):
        out.append("alpha_minus outside [1, alpha_plus]")
    return out


def iteration_failures(iters, max_iters):
    if not 1 <= iters <= max_iters:
        return ["%d iterations outside [1, %d]" % (iters, max_iters)]
    return []


# --- workloads --------------------------------------------------------------


class _Scene512:
    """The 512 scene with seeded noise at the workload's sigma."""

    alpha_plus = 10.0

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        self.clean, self.noisy = noisy_scene(self.seed, self.sigma)
        self.image = Image(self.noisy[None])


class Denoise512(_Scene512):
    """`adstv denoise --regularizer adstv` on the 512 scene at sigma 0.1."""

    name = "denoise-512"
    sigma = 0.1
    # The CLI default is 100; ten iterations let three jobs fit in one run
    # while the solve still hits its cap, so per-iteration work is what
    # the solve time measures.
    max_iters = 10
    # dual fields (H, W, rows, 2) float64: the 3x3 solve and the TV cleanups
    fields = [(512, 512, 9, 2), (512, 512, 1, 2)]

    def job(self):
        # num_scales 2 and st_support 15 are the CLI defaults for this size
        dp = dpe.estimate(self.image, dpe.DpeConfig(self.alpha_plus, 2, 15))
        cfg = solver.SolverConfig(tau=0.01, q=1, kernel=gaussian_kernel(0.5, 3),
                                  max_iters=self.max_iters, rel_tol=1e-5,
                                  constraint=(0.0, 1.0))
        return dp, solver.solve(self.image, dp, cfg)

    def check(self, out):
        dp, result = out
        restored = result.image.data[0]
        c = Checked(attempted=1)
        c.add(restored_failures(restored, self.clean, self.noisy)
              + field_failures(dp, self.alpha_plus)
              + iteration_failures(result.iterations, self.max_iters))
        if np.all(np.isfinite(restored)):
            c.psnr_db = psnr_db(self.clean, restored)
        c.theta_err_deg = theta_err_deg(dp.theta, scene512_regions())
        return c


class Estimate512(_Scene512):
    """`adstv estimate` on the 512 scene at sigma 0.2 (three scales)."""

    name = "estimate-512"
    sigma = 0.2
    fields = [(512, 512, 1, 2)]

    def job(self):
        # num_scales 3 (sigma >= 0.2) and st_support 15 are the CLI defaults
        return dpe.estimate(self.image, dpe.DpeConfig(self.alpha_plus, 3, 15))

    def check(self, dp):
        c = Checked(attempted=1)
        c.add(field_failures(dp, self.alpha_plus))
        # This path restores no image: psnr_db reports the clipped noisy
        # input, the floor the other workloads' restorations must beat.
        c.psnr_db = psnr_db(self.clean, np.clip(self.noisy, 0.0, 1.0))
        c.theta_err_deg = theta_err_deg(dp.theta, scene512_regions())
        return c


# regularizer -> (tau grid, alpha grid); 54 solves over the three images
SWEEP_GRID = {
    "tv": ([0.04, 0.08, 0.16], []),
    "stv": ([0.040, 0.069, 0.119], []),
    "eadtv": ([0.008, 0.014, 0.024], [10.0, 20.0]),
    "adstv": ([0.004, 0.008, 0.014], [10.0, 20.0]),
}
SWEEP_SYNTHS = {
    "synth_half": synth_half,
    "synth_rings": lambda: rings(96, 96),
    "synth_quad": synth_quad,
}


class Sweep96:
    """`bench.bench(..., jobs=1)` over the three 96 synthetics at sigma 0.1,
    one call per regularizer with its own grids."""

    name = "sweep-96"
    sigma = 0.1
    max_iters = 100
    fields = [(96, 96, 9, 2), (96, 96, 1, 2)]

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        self.paths = []
        for image_id, make in SWEEP_SYNTHS.items():
            path = self.workdir / (image_id + ".pfm")
            save_image(Image(make()[None]), path)
            self.paths.append((path, image_id))

    def job(self):
        records = []
        for reg, (taus, alphas) in SWEEP_GRID.items():
            records += bench.bench(self.paths, [self.sigma], [reg], taus, alphas,
                                   master_seed=self.seed, jobs=1)
        return records

    @cached_property
    def references(self):
        """image_id -> (clean as bench loads it, noisy as bench draws it)."""
        refs = {}
        for path, image_id in self.paths:
            clean = load_image(path)  # PFM holds float32 samples
            seed = bench.derive_seed(image_id, self.sigma, self.seed)
            noisy = add_gaussian_noise(clean, NoiseSpec(self.sigma, seed))
            refs[image_id] = (clean.data[0], noisy.data[0])
        return refs

    @cached_property
    def theta_err(self):
        """bench keeps no fields, so analyze each noisy realization again at
        the sweep's settings (2 scales, st_support 7 at 96 px) and average
        the errors of the oriented regions of all three images."""
        errs = []
        for image_id, (_, noisy) in self.references.items():
            fields = dpe.analyze(Image(noisy[None]), dpe.DpeConfig(2.0, 2, 7))
            errs += region_errors(fields.theta, synth_regions(image_id))
        return math.degrees(float(np.mean(errs)))

    def check(self, records):
        want = [(i, r) for r in SWEEP_GRID for _, i in self.paths]
        c = Checked(attempted=len(want))
        got = [(rec.image_id, rec.regularizer) for rec in records]
        if sorted(got) != sorted(want):
            c.failures = ["sweep returned records %r, expected %r" % (got, want)] * len(want)
            return c
        for rec in records:
            clean, noisy = self.references[rec.image_id]
            floor = psnr_db(clean, np.clip(noisy, 0.0, 1.0)) + MIN_GAIN_DB
            bad = iteration_failures(rec.iters, self.max_iters)
            if not (math.isfinite(rec.psnr_db) and rec.psnr_db >= floor):
                bad.append("psnr %.3f dB below the %.3f dB floor" % (rec.psnr_db, floor))
            if not -1.0 <= rec.ssim <= 1.0:
                bad.append("ssim %r outside [-1, 1]" % rec.ssim)
            c.add(["%s/%s: %s" % (rec.image_id, rec.regularizer, b) for b in bad])
        c.psnr_db = float(np.mean([rec.psnr_db for rec in records]))
        c.theta_err_deg = self.theta_err
        return c


WORKLOADS = {w.name: w for w in (Denoise512, Estimate512, Sweep96)}
