"""Image container, file formats, synthetic noise, and quality metrics.

Pixel data lives in float arrays of shape (channels, height, width) with
the nominal intensity range [0, 1]: float32 data stays float32, so that a
solve on it runs in single precision, and every other input becomes
float64.  Supported container formats are binary PGM (P5), binary PPM (P6),
and PFM (Pf/PF).  load_image always returns float64.  Integer formats are
scaled by their maxval on load; PFM samples are kept verbatim, so values
outside [0, 1] survive a round trip (useful for storing noisy inputs
exactly).
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .diffops import _correlate_separable, as_float

__all__ = [
    "FormatError",
    "Image",
    "NoiseSpec",
    "load_image",
    "output_format",
    "save_image",
    "to_luminance",
    "add_gaussian_noise",
    "psnr",
    "ssim",
]


class FormatError(ValueError):
    """Raised when an image file violates its format contract."""


@dataclass
class Image:
    """A float raster with explicit channel axis, shape (C, H, W).

    float32 data stays float32; every other input becomes float64.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = as_float(self.data)
        if arr.ndim == 2:
            arr = arr[None]
        if arr.ndim != 3:
            raise ValueError("image data must be (H, W) or (C, H, W)")
        if arr.shape[0] not in (1, 3):
            raise ValueError("channel count must be 1 or 3")
        if arr.shape[1] < 1 or arr.shape[2] < 1:
            raise ValueError("image dimensions must be positive")
        self.data = arr

    @property
    def channels(self):
        return self.data.shape[0]

    @property
    def height(self):
        return self.data.shape[1]

    @property
    def width(self):
        return self.data.shape[2]

    @property
    def shape(self):
        return self.data.shape


@dataclass
class NoiseSpec:
    """Additive white Gaussian noise parameters."""

    sigma_eta: float
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.sigma_eta < math.inf:
            raise ValueError("sigma_eta must be finite and nonnegative")


# ---------------------------------------------------------------------------
# File formats


def _read_pnm_tokens(buf, count):
    # Whitespace-separated ASCII tokens; '#' starts a comment through EOL.
    tokens = []
    pos = 0
    while len(tokens) < count:
        if pos >= len(buf):
            raise FormatError("truncated header")
        ch = buf[pos : pos + 1]
        if ch == b"#":
            eol = buf.find(b"\n", pos)
            if eol < 0:
                raise FormatError("truncated header")
            pos = eol + 1
        elif ch.isspace():
            pos += 1
        else:
            m = re.match(rb"[^\s#]+", buf[pos:])
            tokens.append(m.group(0))
            pos += len(m.group(0))
    return tokens, pos


def _load_pnm(buf, magic):
    tokens, pos = _read_pnm_tokens(buf, 4)
    if tokens[0] != magic:
        raise FormatError("magic mismatch")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        raise FormatError("non-numeric header field") from None
    if width <= 0 or height <= 0:
        raise FormatError("bad dimensions")
    if maxval not in (255, 65535):
        raise FormatError("maxval must be 255 or 65535")
    # Exactly one whitespace byte separates header and payload.
    if pos >= len(buf) or not buf[pos : pos + 1].isspace():
        raise FormatError("missing header terminator")
    pos += 1
    nchan = 3 if magic == b"P6" else 1
    dtype = np.dtype(">u2") if maxval == 65535 else np.dtype("u1")
    need = width * height * nchan * dtype.itemsize
    payload = buf[pos : pos + need]
    if len(payload) < need:
        raise FormatError("truncated payload")
    arr = np.frombuffer(payload, dtype=dtype).astype(np.float64) / maxval
    arr = arr.reshape(height, width, nchan)
    return Image(np.moveaxis(arr, 2, 0))


def _load_pfm(buf):
    lines = []
    pos = 0
    for _ in range(3):
        eol = buf.find(b"\n", pos)
        if eol < 0:
            raise FormatError("truncated header")
        lines.append(buf[pos:eol].strip())
        pos = eol + 1
    magic = lines[0]
    if magic not in (b"Pf", b"PF"):
        raise FormatError("magic mismatch")
    try:
        width, height = (int(t) for t in lines[1].split())
        scale = float(lines[2])
    except ValueError:
        raise FormatError("non-numeric header field") from None
    if width <= 0 or height <= 0:
        raise FormatError("bad dimensions")
    # written so that NaN fails it; its sign picks the byte order
    if not (0 < abs(scale) < math.inf):
        raise FormatError("scale must be finite and nonzero")
    nchan = 3 if magic == b"PF" else 1
    dtype = np.dtype("<f4") if scale < 0 else np.dtype(">f4")
    need = width * height * nchan * 4
    payload = buf[pos : pos + need]
    if len(payload) < need:
        raise FormatError("truncated payload")
    arr = np.frombuffer(payload, dtype=dtype).astype(np.float64)
    if not np.isfinite(arr).all():
        raise ValueError("image samples must be finite")
    arr = arr.reshape(height, width, nchan)
    # PFM scanlines run bottom to top.
    arr = arr[::-1]
    return Image(np.moveaxis(arr, 2, 0))


def load_image(path):
    """Load a PGM (P5), PPM (P6), or PFM (Pf/PF) file as float64 samples.

    A PFM sample that is NaN or infinite is rejected like any other
    invalid image (ValueError)."""
    with open(path, "rb") as fh:
        buf = fh.read()
    magic = buf[:2]
    if magic in (b"P5", b"P6"):
        return _load_pnm(buf, magic)
    if magic in (b"Pf", b"PF"):
        return _load_pfm(buf)
    raise FormatError("unsupported format")


def _quantize(img, maxval):
    # Round half away from zero after clamping to [0, 1].
    clamped = np.clip(img.data, 0.0, 1.0)
    return np.floor(clamped * maxval + 0.5).astype(np.uint32)


def output_format(path, channels):
    """The format, "pgm", "ppm" or "pfm", in which save_image writes an
    image of this many channels to path, from the file extension.  Raises
    ValueError for any other extension, and for a channel count the format
    cannot hold: ``.pgm`` holds one channel, ``.ppm`` three."""
    suffix = str(path).lower().rsplit(".", 1)
    ext = suffix[1] if len(suffix) == 2 else ""
    if ext not in ("pgm", "ppm", "pfm"):
        raise ValueError("unsupported output extension %r" % ext)
    if ext == "pgm" and channels != 1:
        raise ValueError("pgm requires a single channel")
    if ext == "ppm" and channels != 3:
        raise ValueError("ppm requires three channels")
    return ext


def save_image(img, path):
    """Write an image in the format output_format names.

    ``.pgm`` and ``.ppm`` clamp to [0, 1] and quantize with round-half-up
    at maxval 255.  ``.pfm`` stores float32 samples without clamping.
    """
    ext = output_format(path, img.channels)
    if ext == "pgm":
        q = _quantize(img, 255)[0]
        header = b"P5\n%d %d\n255\n" % (img.width, img.height)
        body = q.astype(np.uint8).tobytes()
    elif ext == "ppm":
        q = np.moveaxis(_quantize(img, 255), 0, 2)
        header = b"P6\n%d %d\n255\n" % (img.width, img.height)
        body = q.astype(np.uint8).tobytes()
    else:
        # a finite sample beyond float32 range would be written as inf,
        # which load_image rejects
        if np.any(np.abs(img.data) > np.finfo(np.float32).max):
            raise ValueError("image samples exceed the float32 range of PFM")
        magic = b"PF" if img.channels == 3 else b"Pf"
        header = magic + b"\n%d %d\n-1.0\n" % (img.width, img.height)
        arr = np.moveaxis(img.data, 0, 2)[::-1]
        body = arr.astype("<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(body)


# ---------------------------------------------------------------------------
# Color and noise


_LUMA = np.array([0.299, 0.587, 0.114])


def to_luminance(img):
    """Collapse to one channel with BT.601 weights; gray passes through."""
    if img.channels == 1:
        return Image(img.data.copy())
    return Image(np.tensordot(_LUMA, img.data, axes=(0, 0)))


def add_gaussian_noise(img, spec):
    """Add white Gaussian noise; the output is deliberately not clamped."""
    rng = np.random.default_rng(spec.seed)
    noise = rng.normal(0.0, spec.sigma_eta, size=img.data.shape)
    return Image(img.data + noise)


# ---------------------------------------------------------------------------
# Quality metrics


def psnr(ref, test):
    """Peak signal-to-noise ratio in dB with peak 1.0 (inf for identical).

    The difference is taken in float64 whatever the samples' dtype."""
    if ref.shape != test.shape:
        raise ValueError("shape mismatch")
    mse = np.mean(np.subtract(ref.data, test.data, dtype=np.float64) ** 2)
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


# 11-tap Gaussian, sigma 1.5, normalized: the 1-D factor of SSIM's window
_SSIM_HALF = 5
SSIM_WINDOW = 2 * _SSIM_HALF + 1
_SSIM_TAPS = np.exp(-(np.arange(-_SSIM_HALF, _SSIM_HALF + 1) ** 2) / (2.0 * 1.5**2))
_SSIM_TAPS /= _SSIM_TAPS.sum()


def _ssim_filter(a):
    """The 11x11 Gaussian window in valid mode, as two 1-D passes cropped
    by the window radius."""
    h = _SSIM_HALF
    return _correlate_separable(a, _SSIM_TAPS, _SSIM_TAPS)[h:-h, h:-h]


def _ssim_channel(x, y):
    # 11x11 Gaussian window, sigma 1.5, applied in valid mode; population
    # statistics; stabilizers C1=(0.01)^2, C2=(0.03)^2 for unit dynamic range.
    x = np.asarray(x, np.float64)
    y = np.asarray(y, np.float64)
    c1 = 0.01**2
    c2 = 0.03**2
    mx = _ssim_filter(x)
    my = _ssim_filter(y)
    vx = _ssim_filter(x * x) - mx * mx
    vy = _ssim_filter(y * y) - my * my
    cov = _ssim_filter(x * y) - mx * my
    num = (2 * mx * my + c1) * (2 * cov + c2)
    den = (mx * mx + my * my + c1) * (vx + vy + c2)
    return float(np.mean(num / den))


def ssim(ref, test):
    """Mean structural similarity, computed in float64; color images
    average per-channel scores."""
    if ref.shape != test.shape:
        raise ValueError("shape mismatch")
    if ref.height < SSIM_WINDOW or ref.width < SSIM_WINDOW:
        raise ValueError("image too small for the %dx%d window" % (SSIM_WINDOW, SSIM_WINDOW))
    scores = [_ssim_channel(ref.data[c], test.data[c]) for c in range(ref.channels)]
    return float(np.mean(scores))
