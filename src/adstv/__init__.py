"""Direction-adaptive structure tensor total variation denoising.

The regularizer penalizes, at every pixel, the Schatten-q norm of a stack of
neighborhood gradients that has been rotated into a locally estimated
orientation and anisotropically weighted.  Classical TV, its structure
tensor generalization, and globally steered variants are all configurations
of the same machinery.
"""

from .diffops import Kernel, delta_kernel, gaussian_kernel
from .dpe import DpeConfig, analyze, eadtv_angles, estimate
from .image import (
    Image,
    NoiseSpec,
    add_gaussian_noise,
    load_image,
    psnr,
    save_image,
    ssim,
    to_luminance,
)
from .solver import SolverConfig, solve, tv_denoise
from .tensor import DirectionalParams

__version__ = "0.1.0"

__all__ = [
    "Image",
    "NoiseSpec",
    "Kernel",
    "DirectionalParams",
    "DpeConfig",
    "SolverConfig",
    "load_image",
    "save_image",
    "to_luminance",
    "add_gaussian_noise",
    "psnr",
    "ssim",
    "delta_kernel",
    "gaussian_kernel",
    "analyze",
    "estimate",
    "eadtv_angles",
    "solve",
    "tv_denoise",
    "__version__",
]
