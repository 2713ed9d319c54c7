import math
import xml.etree.ElementTree as ET

import pytest

from multiport.robustness import FidelityStats, SweepResult
from multiport.svgchart import _TICKS, _nice_ticks, save_chart, sweep_chart

SVG_NS = "{http://www.w3.org/2000/svg}"


def cell(n, m, fu, se=0.0, sigma=0.1):
    fq = FidelityStats(mean=0.9, std_error=0.0, samples=1)
    return SweepResult(n=n, m=m, sigma=sigma, fq=fq, fu=FidelityStats(fu, se, 4))


def two_lines():
    """Three cells per block size; m = 2 has error bars, m = 3 has none."""
    return [
        cell(2, 2, 1.0, 0.01), cell(4, 2, 0.8, 0.02), cell(6, 2, 0.5, 0.03),
        cell(2, 3, 1.0), cell(4, 3, 0.9), cell(6, 3, 0.7),
    ]


def by_n(r):
    return r.n


def polyline_points(svg):
    root = ET.fromstring(svg)
    return [
        [tuple(map(float, pt.split(","))) for pt in line.attrib["points"].split()]
        for line in root.findall(f"{SVG_NS}polyline")
    ]


class TestSweepChart:
    def test_parses_as_xml(self):
        root = ET.fromstring(sweep_chart(two_lines(), by_n, "n", "t"))
        assert root.tag == f"{SVG_NS}svg"

    def test_one_sorted_line_per_block_size(self):
        # cells out of order in both m and n
        results = [cell(8, 3, 0.7, 0.02), cell(4, 3, 0.9, 0.01), cell(4, 2, 0.8, 0.03)]
        svg = sweep_chart(results, by_n, "n", "t")
        m2, m3 = polyline_points(svg)
        assert len(m2) == 1 and len(m3) == 2
        # m = 3: n = 4 left of n = 8, and its higher fidelity drawn higher up
        (x4, y4), (x8, y8) = m3
        assert x4 < x8 and y4 < y8
        assert m2[0][0] == x4
        assert svg.index("m = 2") < svg.index("m = 3")

    def test_labels_present(self):
        text = sweep_chart(two_lines(), by_n, "matrix size n", title="sweep")
        assert "matrix size n" in text
        assert "mean matrix fidelity" in text
        assert "sweep" in text
        assert "m = 2" in text and "m = 3" in text

    def test_reserved_characters_in_text_are_escaped(self):
        root = ET.fromstring(sweep_chart(two_lines(), by_n, "x < 1 & y", title="a > b"))
        texts = {t.text for t in root.iter(f"{SVG_NS}text")}
        assert {"x < 1 & y", "a > b"} <= texts

    def test_error_bars_drawn_only_when_nonzero(self):
        root = ET.fromstring(sweep_chart(two_lines(), by_n, "n", "t"))

        def bars(color):
            # stroke-width 1 distinguishes error bars from legend swatches
            return [
                el
                for el in root.findall(f"{SVG_NS}line")
                if el.attrib.get("stroke") == color
                and el.attrib.get("stroke-width") == "1"
            ]

        # m = 2: 3 error bars, each a stem plus two caps
        assert len(bars("#1f77b4")) == 9
        # m = 3 has zero errors, so no bars
        assert len(bars("#d62728")) == 0

    def test_deterministic(self):
        svg = sweep_chart(two_lines(), by_n, "n", "t")
        assert sweep_chart(two_lines(), by_n, "n", "t") == svg

    def test_single_point(self):
        ET.fromstring(sweep_chart([cell(2, 2, 0.5)], by_n, "n", "t"))

    def test_flat_line(self):
        ET.fromstring(sweep_chart([cell(1, 2, 1.0), cell(2, 2, 1.0)], by_n, "n", "t"))

    def test_tick_labels_cover_range(self):
        svg = sweep_chart([cell(2, 2, 0.0), cell(3, 2, 1.0)], by_n, "n", "t")
        assert ">0.2<" in svg and ">0.8<" in svg

    def test_plots_any_abscissa(self):
        # the noise sweep plots against pooled block fidelity
        results = [cell(6, 2, 0.9, sigma=0.0), cell(6, 2, 0.4, sigma=0.2)]
        (points,) = polyline_points(sweep_chart(results, lambda r: r.sigma, "sigma", "t"))
        assert points[0][0] < points[1][0]

    def test_rejects_empty_results(self):
        with pytest.raises(ValueError):
            sweep_chart([], by_n, "n", "t")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_abscissa(self, bad):
        with pytest.raises(ValueError, match="finite"):
            sweep_chart(two_lines(), lambda r: bad if r.n == 4 else r.n, "n", "t")

    def test_save(self, tmp_path):
        path = tmp_path / "chart.svg"
        save_chart(path, sweep_chart(two_lines(), by_n, "n", "t"))
        assert path.read_text().startswith("<svg")


class TestNiceTicks:
    @pytest.mark.parametrize(
        "lo,hi",
        [
            (0.0, 1.0),
            (0.8, 1.0),
            (3.0, 3.0),
            (0.0, 0.0),
            (1 - 2.2e-16, 1.0),  # fidelities equal to 1 within an ulp
            (5e4, 5e4 + 1e-10),  # 14 ulps: widened
            (5e4, 5e4 + 1e-9),  # 137 ulps: kept
            (-7.0, 250.0),
        ],
    )
    def test_bounded_increasing_and_finite(self, lo, hi):
        ticks = _nice_ticks(lo, hi)
        assert 2 <= len(ticks) <= _TICKS + 3
        assert all(map(math.isfinite, ticks))
        assert all(a < b for a, b in zip(ticks, ticks[1:]))

    def test_span_below_float_resolution_is_widened(self):
        assert _nice_ticks(1 - 2.2e-16, 1.0) == [0.0, 0.5, 1.0, 1.5, 2.0]
