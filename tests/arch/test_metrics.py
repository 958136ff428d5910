"""Tests for the analytical evaluator."""

import pytest

from repro.arch.metrics import area_breakdown, energy_breakdown, latency_breakdown
from repro.arch.perf_input import DecoderBank, DesignPerfInput
from repro.deconv.shapes import DeconvSpec
from repro.errors import ParameterError


def make_perf(**overrides) -> DesignPerfInput:
    spec = DeconvSpec(4, 4, 8, 4, 4, 5, stride=2, padding=1)
    defaults = dict(
        design="test",
        layer="unit",
        spec=spec,
        cycles=64,
        wordline_cols=5,
        bitline_rows=128,
        rows_selected_per_cycle=128,
        decoder_banks=(DecoderBank(rows=128, count=1),),
        conv_values_per_cycle=5,
        live_row_cycles_total=1000.0,
        useful_macs=40000,
        total_cells_logical=640,
    )
    defaults.update(overrides)
    return DesignPerfInput(**defaults)


class TestLatency:
    def test_all_components_scale_with_cycles(self):
        one = latency_breakdown(make_perf(cycles=1))
        many = latency_breakdown(make_perf(cycles=10))
        for name, value in one.as_dict().items():
            assert many.as_dict()[name] == pytest.approx(10 * value)

    def test_broadcast_adds_wordline_latency(self):
        base = latency_breakdown(make_perf())
        bcast = latency_breakdown(make_perf(broadcast_instances=16))
        assert bcast.wordline > base.wordline
        assert bcast.read_circuit == base.read_circuit

    def test_extra_sa_ops_add_latency(self):
        base = latency_breakdown(make_perf())
        extra = latency_breakdown(make_perf(sa_extra_ops_per_value=2.0))
        assert extra.shift_adder > base.shift_adder

    def test_wider_wordline_slower(self):
        narrow = latency_breakdown(make_perf(wordline_cols=5))
        wide = latency_breakdown(make_perf(wordline_cols=5000))
        assert wide.wordline > narrow.wordline

    def test_taller_bitline_slower(self):
        short = latency_breakdown(make_perf(bitline_rows=64))
        tall = latency_breakdown(make_perf(bitline_rows=6400))
        assert tall.bitline > short.bitline


class TestEnergy:
    def test_compute_energy_proportional_to_useful_macs(self):
        a = energy_breakdown(make_perf(useful_macs=1000))
        b = energy_breakdown(make_perf(useful_macs=3000))
        assert b.computation == pytest.approx(3 * a.computation)

    def test_wordline_energy_uses_live_rows_not_cycles(self):
        """Gating: doubling cycles at fixed live rows leaves WL energy flat."""
        a = energy_breakdown(make_perf(cycles=64))
        b = energy_breakdown(make_perf(cycles=128))
        assert b.wordline == pytest.approx(a.wordline)
        assert b.decoder > a.decoder  # decoder is per-cycle

    def test_decoder_energy_scales_with_rows(self):
        small = energy_breakdown(make_perf(decoder_banks=(DecoderBank(64, 1),)))
        large = energy_breakdown(make_perf(decoder_banks=(DecoderBank(6400, 1),)))
        assert large.decoder > small.decoder

    def test_conversions_drive_rc_and_mux(self):
        a = energy_breakdown(make_perf(conv_values_per_cycle=5))
        b = energy_breakdown(make_perf(conv_values_per_cycle=50))
        assert b.read_circuit == pytest.approx(10 * a.read_circuit)
        assert b.mux == pytest.approx(10 * a.mux)

    def test_overlap_and_crop_buckets(self):
        pf = energy_breakdown(
            make_perf(overlap_adder_cols=80, crop_values_total=1000, has_crop_unit=True)
        )
        base = energy_breakdown(make_perf())
        assert pf.extra_adder > 0.0
        assert pf.crop > 0.0
        assert base.extra_adder == base.crop == 0.0

    def test_fractional_conversions_supported(self):
        half = energy_breakdown(make_perf(conv_values_per_cycle=2.5))
        full = energy_breakdown(make_perf(conv_values_per_cycle=5))
        assert half.read_circuit == pytest.approx(full.read_circuit / 2)


class TestArea:
    def test_array_area_depends_only_on_cells(self):
        a = area_breakdown(make_perf(cycles=1))
        b = area_breakdown(make_perf(cycles=100000, wordline_cols=500))
        assert a.computation == b.computation

    def test_row_banks_add_area(self):
        one = area_breakdown(make_perf(row_bank_instances=1))
        many = area_breakdown(make_perf(row_bank_instances=25))
        assert many.decoder > one.decoder

    def test_col_sets_multiply_read_circuit_area(self):
        one = area_breakdown(make_perf(col_periphery_sets=1, col_set_width=5))
        four = area_breakdown(make_perf(col_periphery_sets=4, col_set_width=5))
        assert four.read_circuit == pytest.approx(4 * one.read_circuit)

    def test_crop_unit_area(self):
        assert area_breakdown(make_perf(has_crop_unit=True)).crop > 0.0

    def test_router_area_only_with_broadcast(self):
        base = area_breakdown(make_perf())
        routed = area_breakdown(make_perf(broadcast_instances=9, row_bank_instances=9))
        assert routed.decoder > base.decoder


class TestValidation:
    def test_rejects_zero_cycles(self):
        with pytest.raises(ParameterError):
            make_perf(cycles=0)

    def test_rejects_empty_decoder_banks(self):
        with pytest.raises(ParameterError):
            make_perf(decoder_banks=())

    def test_rejects_non_positive_live_rows(self):
        with pytest.raises(ParameterError):
            make_perf(live_row_cycles_total=0.0)

    def test_rejects_negative_crop(self):
        with pytest.raises(ParameterError):
            make_perf(crop_values_total=-1)

    def test_decoder_bank_validation(self):
        with pytest.raises(ParameterError):
            DecoderBank(rows=0, count=1)

    def test_decoder_bank_rejects_zero_copies(self):
        with pytest.raises(ParameterError, match="count>=1"):
            DecoderBank(rows=128, count=0)

    @pytest.mark.parametrize(
        "name",
        [
            "wordline_cols",
            "bitline_rows",
            "rows_selected_per_cycle",
            "useful_macs",
            "total_cells_logical",
            "broadcast_instances",
            "col_periphery_sets",
            "row_bank_instances",
        ],
    )
    def test_rejects_count_below_one(self, name):
        with pytest.raises(ParameterError, match=f"{name} must be >= 1, got 0"):
            make_perf(**{name: 0})

    @pytest.mark.parametrize("rate", [0, -0.5])
    def test_rejects_non_positive_conversion_rate(self, rate):
        with pytest.raises(ParameterError, match="conv_values_per_cycle"):
            make_perf(conv_values_per_cycle=rate)

    def test_rejects_negative_extra_sa_ops(self):
        with pytest.raises(ParameterError, match="sa_extra_ops_per_value"):
            make_perf(sa_extra_ops_per_value=-0.5)
