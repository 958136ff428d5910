"""Seeded synthetic inputs for the benchmark workloads.

Natural-image datasets (LSUN, CIFAR-10, STL-10, PASCAL VOC) only determine
the *values* flowing through the deconvolution layers, never the shapes or
the cycle/energy accounting; random tensors exercise the identical code
path and are a stricter numerical test.  All generators are deterministic
given ``seed``.
"""

from __future__ import annotations

import numpy as np

from repro.deconv.shapes import DeconvSpec
from repro.utils.validation import check_positive_int
from repro.workloads.specs import BenchmarkLayer


def latent_batch(batch: int, dim: int, seed: int = 0) -> np.ndarray:
    """GAN latent vectors ``z ~ N(0, 1)`` shaped ``(batch, dim)``."""
    check_positive_int(batch, "batch")
    check_positive_int(dim, "dim")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((batch, dim))


def layer_input(layer: BenchmarkLayer | DeconvSpec, seed: int = 0) -> np.ndarray:
    """Paper-layout ``(IH, IW, C)`` input tensor for one benchmark layer."""
    spec = layer.spec if isinstance(layer, BenchmarkLayer) else layer
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(spec.input_shape)
    return np.maximum(x, 0.0)


def layer_kernel(layer: BenchmarkLayer | DeconvSpec, seed: int = 1) -> np.ndarray:
    """Paper-layout ``(KH, KW, C, M)`` kernel tensor for one benchmark layer."""
    spec = layer.spec if isinstance(layer, BenchmarkLayer) else layer
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 0.02, size=spec.kernel_shape)
