"""Tests for the formatting helpers."""

from repro.utils.formatting import (
    format_area,
    format_engineering,
    format_joules,
    format_ratio,
    format_seconds,
    render_ascii_table,
)


class TestEngineering:
    def test_nano(self):
        assert format_seconds(1.28e-7) == "128 ns"

    def test_micro(self):
        assert format_joules(3.2e-6) == "3.2 uJ"

    def test_zero(self):
        assert format_engineering(0.0, "J") == "0 J"

    def test_unit_range(self):
        assert format_engineering(2.5, "s") == "2.5 s"

    def test_kilo(self):
        assert format_engineering(1500.0, "Hz") == "1.5 kHz"

    def test_negative_values_keep_their_prefix(self):
        assert format_joules(-3.2e-6) == "-3.2 uJ"

    def test_beyond_the_prefix_table_falls_back_to_the_bare_unit(self):
        assert format_engineering(1e-18, "J") == "1e-18 J"
        assert format_engineering(-2e12, "Hz") == "-2e+12 Hz"

    def test_area_mm2(self):
        assert format_area(1.33e-6) == "1.33 mm^2"

    def test_ratio(self):
        assert format_ratio(3.6901) == "3.69x"


class TestAsciiTable:
    def test_renders_headers_and_rows(self):
        text = render_ascii_table(("a", "bb"), [("1", "2"), ("333", "4")])
        lines = text.splitlines()
        assert lines[1].startswith("| a")
        assert "333" in text

    def test_title(self):
        text = render_ascii_table(("x",), [("1",)], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_column_width_fits_widest(self):
        text = render_ascii_table(("col",), [("wideentry",)])
        header_line = text.splitlines()[1]
        assert len(header_line) >= len("| wideentry |")

    def test_non_string_cells(self):
        text = render_ascii_table(("n",), [(42,)])
        assert "42" in text
