"""Networks built by ``build_network`` draw their weights on first read.

``build_network`` owns the Generator when it is given a ``seed`` or no
Generator at all.  It then returns the module tree with layer shapes
only, and the first read of any parameter draws every weight, byte for
byte what an eager build of that seed draws (the golden digests in
``test_weight_golden.py``).  Whole-network evaluation reads only the
shapes, so it must never draw.
"""

import copy
import gc
import pickle
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.api.schema import NetworkRequest
from repro.api.service import RedService
from repro.workloads import networks
from repro.workloads.data import latent_batch
from repro.workloads.networks import build_network
from tests.workloads.test_weight_golden import NETWORK_DIGESTS, weight_digest

GAN_NAMES = ("DCGAN", "Improved GAN", "SNGAN")

#: Far below any of these networks' weights (DCGAN: 151 MB of float64).
PEAK_LIMIT_BYTES = 2 * 1024 * 1024


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def warm_service_imports():
    # First calls import modules and fill caches; measure steady state.
    RedService().evaluate_network(NetworkRequest(network="voc-fcn8s 8x"))
    build_network("SNGAN", seed=0)


class TestShapesWithoutWeights:
    @pytest.mark.parametrize("name", GAN_NAMES)
    def test_build_network_draws_nothing(self, name, warm_service_imports):
        assert traced_peak(lambda: build_network(name, seed=0)) < PEAK_LIMIT_BYTES

    @pytest.mark.parametrize("name", GAN_NAMES)
    def test_evaluate_network_draws_nothing(self, name, warm_service_imports):
        def evaluate():
            RedService().evaluate_network(NetworkRequest(network=name))

        assert traced_peak(evaluate) < PEAK_LIMIT_BYTES

    @pytest.mark.parametrize("read", (False, True), ids=("unread", "read"))
    def test_trees_free_without_the_cycle_collector(self, read):
        # A reference cycle would hold every discarded tree until a full
        # collection, raising the peak memory of a long-lived service.
        gc.disable()
        try:
            network = build_network("SNGAN", seed=0)
            if read:
                [module._parameters for module in network.modules()]
            layer = weakref.ref(network.block1[0])
            del network
            assert layer() is None
        finally:
            gc.enable()


#: Every way to read a parameter: each must draw the whole tree.
READS = {
    "root _parameters": lambda net: net._parameters,
    "child _parameters": lambda net: net.project[1]._parameters["running_var"],
    "weight": lambda net: net.block1[0].weight,
    "bias": lambda net: net.to_rgb[0].bias,
    "forward": lambda net: net(latent_batch(1, net.latent_dim)),
}


class TestFirstReadDrawsGoldenWeights:
    @pytest.mark.parametrize("read", sorted(READS))
    def test_any_first_read(self, read):
        network = build_network("SNGAN", seed=1)
        READS[read](network)
        assert weight_digest(network) == NETWORK_DIGESTS["SNGAN", 1]

    def test_default_seed_and_largest_network(self):
        network = build_network("DCGAN")
        layer = network.block2[0]
        assert layer.weight is layer.weight  # drawn once, then stable
        assert weight_digest(network) == NETWORK_DIGESTS["DCGAN", None]

    @pytest.mark.parametrize(
        "clone",
        (copy.deepcopy, lambda net: pickle.loads(pickle.dumps(net))),
        ids=("deepcopy", "pickle"),
    )
    def test_copies_carry_the_drawn_weights(self, clone):
        network = build_network("Improved GAN", seed=0)
        assert weight_digest(clone(network)) == NETWORK_DIGESTS["Improved GAN", 0]
        assert weight_digest(network) == NETWORK_DIGESTS["Improved GAN", 0]

    def test_writes_after_the_draw_stick(self):
        network = build_network("SNGAN", seed=0)
        source = build_network("SNGAN", seed=1)
        for into, read_from in zip(network.modules(), source.modules()):
            for name, array in read_from._parameters.items():
                into._parameters[name][...] = array
        assert weight_digest(network) == NETWORK_DIGESTS["SNGAN", 1]


def run_threads(target, args_list) -> None:
    """Run one thread per args tuple with frequent switches; all must finish."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=target, args=args) for args in args_list]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


class TestConcurrentReads:
    """More threads than the 2-vCPU CI host has cores, switching often."""

    def test_builds_and_reads_on_many_threads(self):
        # Each thread builds a deferred network and reads it while the
        # others build theirs, plus one from a caller-seeded Generator.
        cases = (("SNGAN", 0), ("Improved GAN", 1), ("SNGAN", 1), ("Improved GAN", 0))
        barrier = threading.Barrier(len(cases), timeout=60)
        digests: dict = {}

        def work(name, seed):
            barrier.wait()
            deferred = build_network(name, seed=seed)
            caller = build_network("SNGAN", rng=np.random.default_rng(seed))
            digests[name, seed] = (weight_digest(deferred), weight_digest(caller))

        run_threads(work, cases)
        assert digests == {
            (name, seed): (NETWORK_DIGESTS[name, seed], NETWORK_DIGESTS["SNGAN", seed])
            for name, seed in cases
        }

    def test_concurrent_first_reads_draw_once(self, monkeypatch):
        network = build_network("SNGAN", seed=1)
        draws = []
        construct = networks._construct

        def counted(name, rng):
            draws.append(name)
            return construct(name, rng)

        monkeypatch.setattr(networks, "_construct", counted)
        reads = ("weight", "root _parameters", "forward", "child _parameters")
        barrier = threading.Barrier(len(reads), timeout=60)
        seen = {}

        def first_read(read):
            barrier.wait()
            READS[read](network)
            seen[read] = (id(network.block1[0].weight), weight_digest(network))

        run_threads(first_read, [(read,) for read in reads])
        assert draws == ["SNGAN"]
        assert set(seen) == set(reads)
        assert len(set(seen.values())) == 1
        assert next(iter(seen.values()))[1] == NETWORK_DIGESTS["SNGAN", 1]
