"""Golden weight digests of every workload network.

The trained-weight paths (``repro.nn`` forward passes, the functional
simulations) must read exactly the weights each network has always
drawn for its seed.  Each digest is a SHA-256 over the network's
``named_parameters()``: every name, dtype, shape and the raw bytes, in
order.  A change to how or when weights are drawn that moves a single
bit, or consumes a caller's Generator differently, fails here.
"""

import hashlib

import numpy as np
import pytest

from repro.workloads.full_networks import DCGANDiscriminator, FCN8s, gan_round_trip
from repro.workloads.networks import (
    NETWORK_BUILDERS,
    DCGANGenerator,
    SNGANGenerator,
    build_network,
)

#: ``build_network(name, seed=seed)`` digests.  The FCN head is
#: bilinear-initialized and bias-free, so it draws no seeded weight.
NETWORK_DIGESTS = {
    ("DCGAN", None): "e06bf09f40bcd3da4f5b10af871f75705d10795daf83f9147e84c34698f10c10",
    ("DCGAN", 0): "5f25c0f7f8a0887c6793c3f7ecf994529546385a29292e2cc7440ddcbcec3cb8",
    ("DCGAN", 1): "8de1efe30356ece9789793ac6ec6dbafd2eaafecda0357ea56f7cb327378a5dd",
    ("Improved GAN", None): "0edcd34a963fd74cc2fbbfc594f8731238d19f679ec1857b56d4db1b32111473",
    ("Improved GAN", 0): "5dfebfb0b7bacbaf59e3db975d87b0fc67799046410ac4c83efd001f6270ea3c",
    ("Improved GAN", 1): "cfa517331f49c99dc08dbd9544fe3ce53af1481ff2cb249b03f9467e513a76ca",
    ("SNGAN", None): "20cd8a62da813d31e678c38b6a9dae4fa4824132dc8203548726755ec66d552e",
    ("SNGAN", 0): "a16cd0c244ebd8071afc5c217d1e0ff6d17fb7dce077bba72a0ebd1133f1290a",
    ("SNGAN", 1): "fd3e7dc176c164e31e6a75346a2771db2762506c29c06fa92d844c2d2de807a6",
    **{
        (name, seed): "d48f7ce690f1bcd3835eb6c7430540d89e8dbe1d5b7a85c37d564ef818c10cd7"
        for name in ("voc-fcn8s 2x", "voc-fcn8s 8x")
        for seed in (None, 0, 1)
    },
}

#: Digests of each class built with ``rng=np.random.default_rng(7)``.
CLASS_DIGESTS = {
    "DCGANGenerator": "2e58aec8d194b3d3d22f9322bd3728837f46cdc6d6fbfbb9f19f9d57b0ca1419",
    "SNGANGenerator(base_size=6)": "b9eb226db05329b9b410a2fef3f6ba1ee88305b69edf17e1db3e4241f1d4ae16",
    "FCN8s": "c8b11c7393d88a67c70ade5f1b2d8e6b9047dc224d1ba5e7244f3049e103618e",
    "DCGANDiscriminator": "c52813d6d86f16a715b1cf14f88df11367c6f05d4e6f1d25ed4e396b91ffe8e8",
}

CLASS_BUILDERS = {
    "DCGANGenerator": lambda rng: DCGANGenerator(rng=rng),
    "SNGANGenerator(base_size=6)": lambda rng: SNGANGenerator(base_size=6, rng=rng),
    "FCN8s": lambda rng: FCN8s(rng=rng),
    "DCGANDiscriminator": lambda rng: DCGANDiscriminator(rng=rng),
}

#: The caller's Generator's next draw after ``build_network("DCGAN", rng=g)``.
NEXT_RANDOM_AFTER_DCGAN = 0.21530923445201477

#: ``gan_round_trip(seed=5)``: SHA-256 of the image and score bytes.
ROUND_TRIP_DIGESTS = (
    "8b79aabbde7b76c3b7a36376dca97a57be26246617612c1845d6e5f99cb54fb9",
    "e16a69adb4c0a2709e02e1c6d73037aae75d6c89167e59e82a09587ec1836510",
)


def weight_digest(module) -> str:
    """SHA-256 over every ``(name, dtype, shape, bytes)`` of a module tree."""
    digest = hashlib.sha256()
    for name, value in module.named_parameters():
        digest.update(f"{name}|{value.dtype.str}|{value.shape}|".encode())
        digest.update(np.ascontiguousarray(value).data)
    return digest.hexdigest()


def test_every_builder_and_seed_is_pinned():
    assert {name for name, _ in NETWORK_DIGESTS} == set(NETWORK_BUILDERS)


@pytest.mark.parametrize(
    "name, seed", sorted(NETWORK_DIGESTS, key=repr), ids=lambda value: repr(value)
)
def test_build_network_weights(name, seed):
    assert weight_digest(build_network(name, seed=seed)) == NETWORK_DIGESTS[name, seed]


@pytest.mark.parametrize("label", sorted(CLASS_DIGESTS))
def test_class_weights_from_caller_generator(label):
    network = CLASS_BUILDERS[label](np.random.default_rng(7))
    assert weight_digest(network) == CLASS_DIGESTS[label]


def test_caller_generator_is_consumed_as_before():
    rng = np.random.default_rng(7)
    network = build_network("DCGAN", rng=rng)
    assert rng.random() == NEXT_RANDOM_AFTER_DCGAN
    assert weight_digest(network) == CLASS_DIGESTS["DCGANGenerator"]


def test_gan_round_trip_outputs():
    images, scores = gan_round_trip(seed=5)
    assert images.shape == (1, 3, 64, 64) and scores.shape == (1,)
    assert (
        hashlib.sha256(images.tobytes()).hexdigest(),
        hashlib.sha256(scores.tobytes()).hexdigest(),
    ) == ROUND_TRIP_DIGESTS
