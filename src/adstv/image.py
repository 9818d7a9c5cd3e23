"""Image container, file formats, synthetic noise, and quality metrics.

Pixel data lives in float64 arrays of shape (channels, height, width) with
the nominal intensity range [0, 1].  Supported container formats are binary
PGM (P5), binary PPM (P6), and PFM (Pf/PF).  Integer formats are scaled by
their maxval on load; PFM samples are kept verbatim, so values outside
[0, 1] survive a round trip (useful for storing noisy inputs exactly).
"""

import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FormatError",
    "Image",
    "NoiseSpec",
    "QualityReport",
    "load_image",
    "save_image",
    "to_luminance",
    "add_gaussian_noise",
    "psnr",
    "ssim",
    "quality",
]


class FormatError(ValueError):
    """Raised when an image file violates its format contract."""


@dataclass
class Image:
    """A float64 raster with explicit channel axis, shape (C, H, W)."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
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

    def channel(self, c):
        return self.data[c]

    def copy(self):
        return Image(self.data.copy())


@dataclass
class NoiseSpec:
    """Additive white Gaussian noise parameters."""

    sigma_eta: float
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.sigma_eta < math.inf:
            raise ValueError("sigma_eta must be finite and nonnegative")


@dataclass
class QualityReport:
    psnr_db: float
    ssim: float


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
    want = 4 if magic in (b"P5", b"P6") else 0
    tokens, pos = _read_pnm_tokens(buf, want)
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
    if scale == 0:
        raise FormatError("zero scale")
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
    """Load a PGM (P5), PPM (P6), or PFM (Pf/PF) file.

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


def save_image(img, path):
    """Write an image; the format follows the file extension.

    ``.pgm`` expects one channel, ``.ppm`` expects three; both clamp to
    [0, 1] and quantize with round-half-up at maxval 255.  ``.pfm`` stores
    float32 samples without clamping.
    """
    suffix = str(path).lower().rsplit(".", 1)
    ext = suffix[1] if len(suffix) == 2 else ""
    if ext == "pgm":
        if img.channels != 1:
            raise ValueError("pgm requires a single channel")
        q = _quantize(img, 255)[0]
        header = b"P5\n%d %d\n255\n" % (img.width, img.height)
        body = q.astype(np.uint8).tobytes()
    elif ext == "ppm":
        if img.channels != 3:
            raise ValueError("ppm requires three channels")
        q = np.moveaxis(_quantize(img, 255), 0, 2)
        header = b"P6\n%d %d\n255\n" % (img.width, img.height)
        body = q.astype(np.uint8).tobytes()
    elif ext == "pfm":
        magic = b"PF" if img.channels == 3 else b"Pf"
        header = magic + b"\n%d %d\n-1.0\n" % (img.width, img.height)
        arr = np.moveaxis(img.data, 0, 2)[::-1]
        body = arr.astype("<f4").tobytes()
    else:
        raise ValueError("unsupported output extension %r" % ext)
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
    """Peak signal-to-noise ratio in dB with peak 1.0 (inf for identical)."""
    if ref.shape != test.shape:
        raise ValueError("shape mismatch")
    mse = np.mean((ref.data - test.data) ** 2)
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def _ssim_channel(x, y):
    # 11x11 Gaussian window, sigma 1.5, applied in valid mode; population
    # statistics; stabilizers C1=(0.01)^2, C2=(0.03)^2 for unit dynamic range.
    half = 5
    t = np.arange(-half, half + 1, dtype=np.float64)
    g = np.exp(-(t**2) / (2.0 * 1.5**2))
    g /= g.sum()
    win = np.outer(g, g)

    from scipy.signal import convolve2d

    def filt(a):
        return convolve2d(a, win, mode="valid")

    c1 = 0.01**2
    c2 = 0.03**2
    mx = filt(x)
    my = filt(y)
    vx = filt(x * x) - mx * mx
    vy = filt(y * y) - my * my
    cov = filt(x * y) - mx * my
    num = (2 * mx * my + c1) * (2 * cov + c2)
    den = (mx * mx + my * my + c1) * (vx + vy + c2)
    return float(np.mean(num / den))


def ssim(ref, test):
    """Mean structural similarity; color images average per-channel scores."""
    if ref.shape != test.shape:
        raise ValueError("shape mismatch")
    if ref.height < 11 or ref.width < 11:
        raise ValueError("image too small for the 11x11 window")
    scores = [_ssim_channel(ref.data[c], test.data[c]) for c in range(ref.channels)]
    return float(np.mean(scores))


def quality(ref, test):
    return QualityReport(psnr_db=psnr(ref, test), ssim=ssim(ref, test))
