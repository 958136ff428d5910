"""Complete workload networks: FCN-8s with encoder, GAN discriminators.

The benchmark layers only need the decoders, but a credible workload
library carries whole models: the FCN-8s encoder+decoder pipeline (a
compact VGG-style encoder at reduced width — the *shapes* of the skip
topology are exact, channel widths are scaled so CI-sized inputs run in
seconds) and the DCGAN discriminator (the conv counterpart of the
generator, useful for exercising :class:`ConvolutionDesign` on realistic
stacks).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn import functional as F
from repro.nn.init import bilinear_upsampling_kernel, dcgan_init
from repro.nn.modules import (
    BatchNorm2d,
    Conv2d,
    ConvTranspose2d,
    LeakyReLU,
    Module,
    ReLU,
    Sequential,
    Sigmoid,
)


class FCN8s(Module):
    """FCN-8s: VGG-style encoder, three score heads, fused 8x up-sampling.

    The spatial topology matches Long et al.: three 2x-pooling stages
    produce 1/2-, 1/4- and 1/8-resolution features (this compact variant
    pools three times instead of five, so inputs need only be multiples
    of 8); score heads tap the last two stages; the decoder fuses them
    with 2x deconvolutions and finishes with the 8x... here 4x kernel
    chain scaled to the pooling depth.  Class count and bilinear deconv
    initialization follow the paper's PASCAL-VOC setup.
    """

    num_classes = 21

    def __init__(self, width: int = 16, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(50)
        n = self.num_classes
        w1, w2, w3 = width, 2 * width, 4 * width

        def conv_block(cin: int, cout: int) -> Sequential:
            return Sequential(
                Conv2d(cin, cout, 3, padding=1, rng=rng), ReLU(),
                Conv2d(cout, cout, 3, padding=1, rng=rng), ReLU(),
            )

        self.stage1 = conv_block(3, w1)      # full res
        self.stage2 = conv_block(w1, w2)     # after pool1: 1/2
        self.stage3 = conv_block(w2, w3)     # after pool2: 1/4
        # Score heads: coarsest on the 1/8 path, skips on the 1/4 and 1/2
        # feature maps (w2- and w1-channel tensors respectively).
        self.score_fr = Conv2d(w3, n, 1, rng=rng)       # coarsest scores
        self.score_pool3 = Conv2d(w2, n, 1, rng=rng)    # 1/4-res skip
        self.score_pool2 = Conv2d(w1, n, 1, rng=rng)    # 1/2-res skip
        self.upscore2 = ConvTranspose2d(n, n, 4, stride=2, padding=1, bias=False, rng=rng)
        self.upscore4 = ConvTranspose2d(n, n, 4, stride=2, padding=1, bias=False, rng=rng)
        self.upscore_final = ConvTranspose2d(n, n, 4, stride=2, padding=1, bias=False, rng=rng)
        for deconv in (self.upscore2, self.upscore4, self.upscore_final):
            deconv.register_parameter("weight", bilinear_upsampling_kernel(4, n, n))

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[2] % 8 or x.shape[3] % 8:
            raise ShapeError(
                f"FCN8s input spatial dims must be multiples of 8, got {x.shape}"
            )
        f1 = self.stage1(x)
        p1 = F.max_pool2d(f1, 2)
        f2 = self.stage2(p1)
        p2 = F.max_pool2d(f2, 2)
        f3 = self.stage3(p2)
        p3 = F.max_pool2d(f3, 2)

        score = self.score_fr(p3)                       # 1/8 resolution
        up2 = self.upscore2(score)                      # -> 1/4
        fuse3 = up2 + self.score_pool3(p2)
        up4 = self.upscore4(fuse3)                      # -> 1/2
        fuse2 = up4 + self.score_pool2(p1)
        return self.upscore_final(fuse2)                # -> full res

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Per-pixel class indices."""
        return self.forward(x).argmax(axis=1)


class DCGANDiscriminator(Module):
    """DCGAN 64x64 discriminator: strided conv stack with leaky ReLU."""

    def __init__(self, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(51)
        self.features = Sequential(
            Conv2d(3, 64, 5, stride=2, padding=2, rng=rng), LeakyReLU(0.2),
            Conv2d(64, 128, 5, stride=2, padding=2, rng=rng),
            BatchNorm2d(128), LeakyReLU(0.2),
            Conv2d(128, 256, 5, stride=2, padding=2, rng=rng),
            BatchNorm2d(256), LeakyReLU(0.2),
            Conv2d(256, 512, 5, stride=2, padding=2, rng=rng),
            BatchNorm2d(512), LeakyReLU(0.2),
        )
        self.classifier = Sequential(
            Conv2d(512, 1, 4, stride=1, padding=0, rng=rng), Sigmoid(),
        )
        dcgan_init(self, rng=rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1:] != (3, 64, 64):
            raise ShapeError(f"discriminator expects (N, 3, 64, 64), got {x.shape}")
        features = self.features(x)
        return self.classifier(features).reshape(x.shape[0])


def gan_round_trip(batch: int = 1, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Generate images with the DCGAN generator and score them with the
    discriminator — the full adversarial pair, end to end on NumPy.

    Returns:
        ``(images, scores)``.
    """
    from repro.workloads.data import latent_batch
    from repro.workloads.networks import DCGANGenerator

    rng = np.random.default_rng(seed)
    generator = DCGANGenerator(rng=rng)
    discriminator = DCGANDiscriminator(rng=rng)
    images = generator(latent_batch(batch, generator.latent_dim, seed=seed))
    scores = discriminator(images)
    return images, scores
