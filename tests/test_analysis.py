"""Aggregate metrics and ASCII rendering."""

import pytest

from repro.analysis import (
    ascii_bars, ascii_table, geomean, reduction, speedup,
    stacked_fractions,
)


class TestMetrics:
    def test_geomean_known(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geomean_handles_zero(self):
        assert geomean([0.0, 1.0]) >= 0.0

    def test_speedup_and_reduction(self):
        assert speedup(10.0, 5.0) == pytest.approx(2.0)
        assert reduction(10.0, 7.0) == pytest.approx(0.3)
        with pytest.raises(ValueError):
            speedup(1.0, 0.0)


class TestRendering:
    def test_table_contains_cells(self):
        text = ascii_table(["name", "value"], [["LRU", 0.5], ["OPT", 0.71]],
                           title="hit rates")
        assert "hit rates" in text
        assert "LRU" in text and "0.71" in text

    def test_bars_scale(self):
        text = ascii_bars(["a", "b"], [1.0, 2.0])
        lines = text.splitlines()
        assert lines[1].count("#") > lines[0].count("#")

    def test_stacked(self):
        text = stacked_fractions(
            ["LRU"], [{"cache_hit": 0.5, "on_demand": 0.5}]
        )
        assert "cache_hit" in text and "LRU" in text
