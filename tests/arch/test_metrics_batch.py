"""Bit-identity and packing tests for the vectorized analytic plane."""

import dataclasses
import math
import pickle

import numpy as np
import pytest

from repro.api.registry import build_design
from repro.arch.metrics import evaluate_design
from repro.arch.metrics_batch import (
    PerfInputBatch,
    _exact_log2,
    area_breakdown_batch,
    energy_breakdown_batch,
    evaluate_perf_batch,
    latency_breakdown_batch,
    pack_metrics,
    unpack_metrics,
)
from repro.arch.perf_input import DecoderBank, DesignPerfInput
from repro.arch.tech import default_tech
from repro.deconv.shapes import DeconvSpec
from repro.errors import ParameterError
from tests.conftest import SMALL_SPECS

DESIGNS = ("zero-padding", "padding-free", "RED")


def perf_zoo(tech):
    """Scalar perf inputs across every design and the corner-spec zoo."""
    perfs = []
    for spec in SMALL_SPECS:
        for design in DESIGNS:
            perfs.append(
                build_design(design, spec, tech).perf_input(f"{design}-{spec.stride}")
            )
    return perfs


class TestExactLog2:
    def test_matches_math_log2_bitwise(self):
        values = np.array([1, 2, 3, 5, 7, 64, 127, 1024, 4096], dtype=np.int64)
        out = _exact_log2(values)
        for value, result in zip(values.tolist(), out.tolist()):
            assert result == math.log2(value)

    def test_repeated_values_share_entries(self):
        out = _exact_log2(np.array([8, 8, 2, 8], dtype=np.int64))
        assert out.tolist() == [3.0, 3.0, 1.0, 3.0]


class TestPacking:
    def test_from_perf_inputs_round_trip_fields(self):
        tech = default_tech()
        perfs = perf_zoo(tech)
        batch = PerfInputBatch.from_perf_inputs(perfs)
        assert len(batch) == len(perfs)
        assert batch.designs == tuple(p.design for p in perfs)
        assert batch.layers == tuple(p.layer for p in perfs)
        for index, perf in enumerate(perfs):
            assert batch.cycles[index] == perf.cycles
            assert batch.conv_values_per_cycle[index] == perf.conv_values_per_cycle
            assert batch.decoder_rows[index, 0] == perf.decoder_banks[0].rows
            assert batch.decoder_counts[index, 0] == perf.decoder_banks[0].count

    def test_ragged_decoder_banks_pad_with_empty_slots(self):
        spec = SMALL_SPECS[0]
        base = dict(
            design="x", layer="L", spec=spec, cycles=4, wordline_cols=2,
            bitline_rows=6, rows_selected_per_cycle=6,
            conv_values_per_cycle=2.0, live_row_cycles_total=3.0,
            useful_macs=10, total_cells_logical=24,
        )
        one = DesignPerfInput(decoder_banks=(DecoderBank(rows=6, count=1),), **base)
        two = DesignPerfInput(
            decoder_banks=(DecoderBank(rows=4, count=2), DecoderBank(rows=2, count=1)),
            **base,
        )
        batch = PerfInputBatch.from_perf_inputs([one, two])
        assert batch.decoder_rows.shape == (2, 2)
        assert batch.decoder_rows[0].tolist() == [6, 0]
        assert batch.decoder_counts[0].tolist() == [1, 0]
        assert batch.decoder_rows[1].tolist() == [4, 2]

    def test_mismatched_lengths_rejected(self):
        tech = default_tech()
        batch = PerfInputBatch.from_perf_inputs(perf_zoo(tech)[:2])
        with pytest.raises(ParameterError):
            PerfInputBatch(
                **{
                    **{f: getattr(batch, f) for f in (
                        "designs", "layers", "cycles", "wordline_cols",
                        "bitline_rows", "rows_selected_per_cycle", "decoder_rows",
                        "decoder_counts", "conv_values_per_cycle",
                        "live_row_cycles_total", "useful_macs",
                        "total_cells_logical", "broadcast_instances",
                        "sa_extra_ops_per_value", "crop_values_total",
                        "col_periphery_sets", "col_set_width",
                        "row_bank_instances", "has_crop_unit",
                        "overlap_adder_cols",
                    )},
                    "cycles": batch.cycles[:1],
                }
            )

    def test_mismatched_layer_labels_rejected(self):
        batch = PerfInputBatch.from_perf_inputs(perf_zoo(default_tech())[:2])
        with pytest.raises(ParameterError, match="2 designs but 1 layer labels"):
            dataclasses.replace(batch, layers=batch.layers[:1])

    def test_decoder_tables_of_different_shapes_rejected(self):
        batch = PerfInputBatch.from_perf_inputs(perf_zoo(default_tech())[:2])
        padded = np.zeros((2, batch.decoder_counts.shape[1] + 1), dtype=np.int64)
        with pytest.raises(ParameterError, match="decoder_rows/decoder_counts"):
            dataclasses.replace(batch, decoder_counts=padded)

    def test_flat_decoder_tables_rejected(self):
        batch = PerfInputBatch.from_perf_inputs(perf_zoo(default_tech())[:2])
        with pytest.raises(ParameterError, match=r"\(jobs, max_banks\)"):
            dataclasses.replace(
                batch,
                decoder_rows=batch.decoder_rows[:, 0],
                decoder_counts=batch.decoder_counts[:, 0],
            )


class TestBitIdentity:
    """The batch evaluator against the scalar oracle, component for component."""

    @pytest.mark.parametrize(
        "tech",
        [
            default_tech(),
            default_tech().with_overrides(mux_share=4, bits_input=4),
            default_tech().with_overrides(differential=False, bits_per_cell=4),
        ],
        ids=("default", "narrow", "single-ended"),
    )
    def test_evaluate_perf_batch_matches_scalar(self, tech):
        perfs = perf_zoo(tech)
        batch = PerfInputBatch.from_perf_inputs(perfs)
        vectorized = evaluate_perf_batch(batch, tech)
        for perf, got in zip(perfs, vectorized):
            expected = evaluate_design(perf, tech)
            assert pickle.dumps(got, 5) == pickle.dumps(expected, 5)
            assert got == expected

    def test_breakdown_components_match_scalar(self):
        from repro.arch.metrics import (
            area_breakdown,
            energy_breakdown,
            latency_breakdown,
        )

        tech = default_tech()
        perfs = perf_zoo(tech)
        batch = PerfInputBatch.from_perf_inputs(perfs)
        latency = latency_breakdown_batch(batch, tech)
        energy = energy_breakdown_batch(batch, tech)
        area = area_breakdown_batch(batch, tech)
        for index, perf in enumerate(perfs):
            for name, value in latency_breakdown(perf, tech).as_dict().items():
                if name in latency:
                    assert latency[name][index] == value
            for name, value in energy_breakdown(perf, tech).as_dict().items():
                if name in energy:
                    assert energy[name][index] == value
            for name, value in area_breakdown(perf, tech).as_dict().items():
                if name in area:
                    assert area[name][index] == value

    def test_result_types_are_the_public_dataclasses(self):
        """Fast assembly must still yield real, frozen DesignMetrics."""
        from dataclasses import FrozenInstanceError

        from repro.arch.breakdown import DesignMetrics

        tech = default_tech()
        batch = PerfInputBatch.from_perf_inputs(perf_zoo(tech)[:3])
        result = evaluate_perf_batch(batch, tech)[0]
        assert type(result) is DesignMetrics
        assert isinstance(result.latency.total, float)
        assert isinstance(result.cycles, int)
        with pytest.raises(FrozenInstanceError):
            result.design = "other"

    def test_fcn_scale_layer_matches(self):
        """A large FCN-style layer exercises the big-count regime."""
        tech = default_tech()
        spec = DeconvSpec(18, 18, 64, 16, 16, 21, stride=8, padding=4)
        perfs = [
            build_design(design, spec, tech).perf_input("fcn") for design in DESIGNS
        ]
        batch = PerfInputBatch.from_perf_inputs(perfs)
        for perf, got in zip(perfs, evaluate_perf_batch(batch, tech)):
            assert got == evaluate_design(perf, tech)


class TestPackedRows:
    """``pack_metrics`` bytes rebuild a row pickle for pickle, or refuse it."""

    def test_scalar_rows_round_trip_pickle_identical(self):
        tech = default_tech()
        rows = [evaluate_design(perf, tech) for perf in perf_zoo(tech)]
        packed = [pack_metrics(row) for row in rows]
        rebuilt = unpack_metrics(
            [row.design for row in rows], [row.layer for row in rows], packed
        )
        assert {len(entry) for entry in packed} == {224}
        for row, again in zip(rows, rebuilt):
            assert pickle.dumps(again, 5) == pickle.dumps(row, 5)

    def test_rows_bytes_cannot_restore_are_refused(self):
        from repro.arch.breakdown import DesignMetrics

        class Tagged(DesignMetrics):
            pass

        tech = default_tech()
        row = evaluate_design(perf_zoo(tech)[0], tech)
        assert pack_metrics(row) is not None
        refused = [
            dataclasses.replace(row, cycles=2**63),  # outside int64
            dataclasses.replace(row, cycles=True),
            dataclasses.replace(
                row, latency=dataclasses.replace(row.latency, mux=np.float64(row.latency.mux))
            ),
            dataclasses.replace(row, area=dataclasses.replace(row.area, crop=0)),
            Tagged(**{f.name: getattr(row, f.name) for f in dataclasses.fields(row)}),
        ]
        assert [pack_metrics(candidate) for candidate in refused] == [None] * len(refused)
