"""The networks behind Table I, built on the NumPy NN substrate.

Each builder reproduces the *generator / decoder* architecture whose
deconvolution layers the paper benchmarks:

* :class:`DCGANGenerator` — Radford et al.'s LSUN generator; its second
  deconvolution (8x8x512 -> 16x16x256, 5x5, stride 2) is GAN_Deconv1.
* :class:`ImprovedGANGenerator` — Salimans et al.'s CIFAR-10 generator;
  its 4x4x512 -> 8x8x256 layer is GAN_Deconv2.
* :class:`SNGANGenerator` — Miyato et al.'s generator (4x4 kernels); the
  CIFAR-10 variant contributes GAN_Deconv3, the STL-10 variant GAN_Deconv4.
* :class:`FCN8sDecoder` — the up-sampling head of voc-fcn8s: a 2x deconv
  (FCN_Deconv1), skip fusions, and the final 8x deconv (FCN_Deconv2),
  initialized to bilinear interpolation as in the FCN paper.

Weights are synthetic (seeded DCGAN-style initialization) because trained
checkpoints are irrelevant to accelerator behaviour; shapes are exact.
:func:`build_network` defers the draw when it owns the Generator.
Evaluating a whole network reads only its layer shapes, so it never pays
for DCGAN's 18.9M weights; any read of a parameter still sees the
weights an eager build of the same seed draws.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError
from repro.nn.init import bilinear_upsampling_kernel, dcgan_init
from repro.nn.modules import (
    SHAPES_ONLY,
    BatchNorm2d,
    Conv2d,
    ConvTranspose2d,
    Module,
    ReLU,
    Sequential,
    Tanh,
    defer_weights,
)


def _deconv_block(
    in_ch: int, out_ch: int, kernel: int, stride: int, padding: int,
    output_padding: int = 0, final: bool = False,
    rng: np.random.Generator | None = None,
) -> Sequential:
    """Deconv + (BN + ReLU | Tanh) block used by all three generators."""
    deconv = ConvTranspose2d(
        in_ch, out_ch, kernel, stride=stride, padding=padding,
        output_padding=output_padding, bias=final, rng=rng,
    )
    if final:
        return Sequential(deconv, Tanh())
    return Sequential(deconv, BatchNorm2d(out_ch), ReLU())


class DCGANGenerator(Module):
    """DCGAN LSUN generator: z(100) -> 64x64x3 through four 5x5/s2 deconvs.

    Layer 2 (8x8x512 -> 16x16x256) is the paper's GAN_Deconv1.
    """

    latent_dim = 100

    def __init__(self, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(42)
        self.project = Sequential(
            ConvTranspose2d(self.latent_dim, 1024, 4, stride=1, padding=0, bias=False, rng=rng),
            BatchNorm2d(1024),
            ReLU(),
        )
        self.block1 = _deconv_block(1024, 512, 5, 2, 2, output_padding=1, rng=rng)
        self.block2 = _deconv_block(512, 256, 5, 2, 2, output_padding=1, rng=rng)  # GAN_Deconv1
        self.block3 = _deconv_block(256, 128, 5, 2, 2, output_padding=1, rng=rng)
        self.block4 = _deconv_block(128, 3, 5, 2, 2, output_padding=1, final=True, rng=rng)
        dcgan_init(self, rng=rng)

    def forward(self, z: np.ndarray) -> np.ndarray:
        x = z.reshape(z.shape[0], self.latent_dim, 1, 1)
        x = self.project(x)
        x = self.block1(x)
        x = self.block2(x)
        x = self.block3(x)
        return self.block4(x)


class ImprovedGANGenerator(Module):
    """Improved-GAN CIFAR-10 generator; first deconv block is GAN_Deconv2."""

    latent_dim = 100

    def __init__(self, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(43)
        self.project = Sequential(
            ConvTranspose2d(self.latent_dim, 512, 4, stride=1, padding=0, bias=False, rng=rng),
            BatchNorm2d(512),
            ReLU(),
        )
        self.block1 = _deconv_block(512, 256, 5, 2, 2, output_padding=1, rng=rng)  # GAN_Deconv2
        self.block2 = _deconv_block(256, 128, 5, 2, 2, output_padding=1, rng=rng)
        self.block3 = _deconv_block(128, 3, 5, 2, 2, output_padding=1, final=True, rng=rng)
        dcgan_init(self, rng=rng)

    def forward(self, z: np.ndarray) -> np.ndarray:
        x = z.reshape(z.shape[0], self.latent_dim, 1, 1)
        x = self.project(x)
        x = self.block1(x)
        x = self.block2(x)
        return self.block3(x)


class SNGANGenerator(Module):
    """SNGAN generator with 4x4 stride-2 deconvolutions.

    ``base_size=4`` (CIFAR-10) makes the first deconv GAN_Deconv3;
    ``base_size=6`` (STL-10, 48x48 output) makes it GAN_Deconv4.
    """

    latent_dim = 128

    def __init__(self, base_size: int = 4, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if base_size not in (4, 6):
            raise ParameterError(f"base_size must be 4 (CIFAR) or 6 (STL), got {base_size}")
        rng = rng or np.random.default_rng(44)
        self.base_size = base_size
        self.project = Sequential(
            ConvTranspose2d(self.latent_dim, 512, base_size, stride=1, padding=0, bias=False, rng=rng),
            BatchNorm2d(512),
            ReLU(),
        )
        self.block1 = _deconv_block(512, 256, 4, 2, 1, rng=rng)  # GAN_Deconv3 / 4
        self.block2 = _deconv_block(256, 128, 4, 2, 1, rng=rng)
        self.block3 = _deconv_block(128, 64, 4, 2, 1, rng=rng)
        self.to_rgb = Sequential(
            Conv2d(64, 3, 3, stride=1, padding=1, bias=True, rng=rng),
            Tanh(),
        )
        dcgan_init(self, rng=rng)

    def forward(self, z: np.ndarray) -> np.ndarray:
        x = z.reshape(z.shape[0], self.latent_dim, 1, 1)
        x = self.project(x)
        x = self.block1(x)
        x = self.block2(x)
        x = self.block3(x)
        return self.to_rgb(x)


class FCN8sDecoder(Module):
    """The voc-fcn8s up-sampling head (21 PASCAL-VOC classes).

    Takes the three encoder score maps (``score_fr`` at 1/32 resolution,
    ``pool4`` at 1/16, ``pool3`` at 1/8), applies the 2x deconv
    (FCN_Deconv1 geometry), fuses skips with center-cropping, and finishes
    with the 8x deconv (FCN_Deconv2 geometry).  Deconvolution kernels are
    bilinear-initialized exactly as in the FCN paper; scoring convs are
    seeded randomly.
    """

    num_classes = 21

    def __init__(self, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(45)
        n = self.num_classes
        self.upscore2 = ConvTranspose2d(n, n, 4, stride=2, padding=0, bias=False, rng=rng)
        self.upscore_pool4 = ConvTranspose2d(n, n, 4, stride=2, padding=0, bias=False, rng=rng)
        self.upscore8 = ConvTranspose2d(n, n, 16, stride=8, padding=0, bias=False, rng=rng)
        for deconv in (self.upscore2, self.upscore_pool4):
            deconv.register_parameter("weight", bilinear_upsampling_kernel(4, n, n))
        self.upscore8.register_parameter("weight", bilinear_upsampling_kernel(16, n, n))

    def forward(self, score_fr: np.ndarray) -> np.ndarray:
        """Single-input convenience path: zero skip connections."""
        n = score_fr.shape[0]
        up2 = self.upscore2(score_fr)
        pool4 = np.zeros((n, self.num_classes, up2.shape[2], up2.shape[3]))
        up4 = self.upscore_pool4(up2 + pool4)
        pool3 = np.zeros((n, self.num_classes, up4.shape[2], up4.shape[3]))
        return self.upscore8(up4 + pool3)


NETWORK_BUILDERS = {
    "DCGAN": DCGANGenerator,
    "Improved GAN": ImprovedGANGenerator,
    "SNGAN": SNGANGenerator,
    "voc-fcn8s 2x": FCN8sDecoder,
    "voc-fcn8s 8x": FCN8sDecoder,
}


def _construct(name: str, rng) -> Module:
    """The network ``name`` names, built from ``rng`` (class default if ``None``)."""
    builder = NETWORK_BUILDERS[name]
    if builder is SNGANGenerator:
        return SNGANGenerator(base_size=4, rng=rng)
    return builder(rng=rng)


def build_network(
    name: str,
    rng: np.random.Generator | None = None,
    *,
    seed: int | None = None,
) -> Module:
    """Instantiate a workload network by its Table I ``network`` name.

    Weight initialisation is seeded one of three ways: pass ``seed`` to
    let this module own the seed-to-generator mapping (the service tier
    does this — generators never cross the API boundary), pass an
    explicit ``rng``, or pass neither to get each network's fixed
    default seed.  Passing both is a contract error.

    A caller's ``rng`` is consumed here, exactly as the network class
    consumes it.  Otherwise this function owns the Generator, so nobody
    can tell when it draws: the tree comes back with its layer shapes
    only and draws every weight on the first read of any parameter
    (:func:`repro.nn.modules.defer_weights`) — the same bytes an eager
    build draws.  Walking the layer shapes, as
    :func:`repro.system.network_mapper.extract_deconv_layers` does,
    draws nothing.
    """
    if name not in NETWORK_BUILDERS:
        raise KeyError(f"unknown network {name!r}; choose from {sorted(NETWORK_BUILDERS)}")
    if rng is not None:
        if seed is not None:
            raise ValueError("build_network() takes rng or seed, not both")
        return _construct(name, rng)

    def draw() -> Module:
        return _construct(name, None if seed is None else np.random.default_rng(seed))

    return defer_weights(_construct(name, SHAPES_ONLY), draw)
