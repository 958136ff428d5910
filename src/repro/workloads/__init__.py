"""Benchmark workloads: Table I layer specs and their source networks."""

from repro.workloads.data import (
    latent_batch,
    layer_input,
    layer_kernel,
)
from repro.workloads.networks import (
    NETWORK_BUILDERS,
    DCGANGenerator,
    FCN8sDecoder,
    ImprovedGANGenerator,
    SNGANGenerator,
    build_network,
)
from repro.workloads.specs import (
    TABLE_I_LAYERS,
    BenchmarkLayer,
    get_layer,
    layer_names,
)

__all__ = [
    "BenchmarkLayer",
    "TABLE_I_LAYERS",
    "get_layer",
    "layer_names",
    "DCGANGenerator",
    "ImprovedGANGenerator",
    "SNGANGenerator",
    "FCN8sDecoder",
    "build_network",
    "NETWORK_BUILDERS",
    "latent_batch",
    "layer_input",
    "layer_kernel",
]
