"""``run_cycle_jobs`` answers: pinned bytes and the functional simulator.

A :class:`~repro.eval.parallel.CycleStats` is persisted under the
``"cycles"`` kind, so its pickled bytes are a storage contract: stores
written before any change to how the stats are computed must keep
serving identical answers.  The six Table-I digests pin those bytes; the
property ties every ``(fold, cycles, counters)`` triple to what the
functional :class:`~repro.sim.batch.BatchEngine` measures executing the
same job.
"""

import hashlib
import pickle

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.tech import default_tech
from repro.eval.parallel import DesignJob, run_cycle_jobs
from repro.sim.batch import BatchEngine, BatchJob
from repro.workloads.specs import TABLE_I_LAYERS
from tests.conftest import deconv_specs

TECH = default_tech()

#: SHA-256 of ``pickle.dumps(stats, protocol=5)`` per Table-I layer
#: (RED, default fold, labelled with the layer name).
TABLE_I_DIGESTS = {
    "GAN_Deconv1": "7f5718f5752aa3acbd65154d8cb1e5c274fde85a0f835aceacd0ded7d0922ba6",
    "GAN_Deconv2": "cc78ed76c2007cc813a9f3ebf86e1d620999044a1817802ea62facb4d9bde372",
    "GAN_Deconv3": "3d08105cf49ef48404b5fadbfff4561d21f47e037505fe9832390dfeb47b8cfc",
    "GAN_Deconv4": "09a6d276f5fdc4989cc87802719161100cb0a8883b9be3b464fb35162d8050f3",
    "FCN_Deconv1": "6d8b0c8f44f7c20f74a6cc7b13f39d7da3daabd92fd9f5c320bd13ddc01bf76a",
    "FCN_Deconv2": "11f6b8ca98742635a2e3356c23e5cfc0e3e838399ccbe11159b8dd87409ef4d1",
}


def test_table_i_cycle_stats_pickle_byte_identical():
    jobs = [
        DesignJob("RED", layer.spec, TECH, layer_name=layer.name)
        for layer in TABLE_I_LAYERS
    ]
    digests = {
        stats.layer: hashlib.sha256(pickle.dumps(stats, protocol=5)).hexdigest()
        for stats in run_cycle_jobs(jobs)
    }
    assert digests == TABLE_I_DIGESTS


@given(
    pairs=st.lists(
        st.tuples(deconv_specs(), st.sampled_from((1, 2, 4, "auto"))),
        min_size=1,
        max_size=4,
    ),
    max_sub_crossbars=st.sampled_from((1, 4, 128)),
)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cycle_stats_match_the_functional_simulator(pairs, max_sub_crossbars):
    jobs = [
        DesignJob("RED", spec, TECH, fold=fold, layer_name=f"job{index}")
        for index, (spec, fold) in enumerate(pairs)
    ]
    stats = run_cycle_jobs(jobs, max_sub_crossbars=max_sub_crossbars)
    executed = BatchEngine(max_sub_crossbars=max_sub_crossbars).run(
        [BatchJob(spec, fold=fold) for spec, fold in pairs]
    )
    for stat, result in zip(stats, executed.results):
        assert (stat.fold, stat.cycles, stat.counters) == (
            result.fold,
            result.cycles,
            tuple(sorted(result.counters.items())),
        )
