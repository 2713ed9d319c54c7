import math
import xml.etree.ElementTree as ET

import pytest

from multiport.robustness import FidelityStats, SweepResult
from multiport.svgchart import _TICKS, Series, _nice_ticks, line_chart, save_chart, sweep_chart

SVG_NS = "{http://www.w3.org/2000/svg}"


def two_series():
    return [
        Series(label="m = 2", x=(0.0, 1.0, 2.0), y=(1.0, 0.8, 0.5), y_err=(0.01, 0.02, 0.03)),
        Series(label="m = 3", x=(0.0, 1.0, 2.0), y=(1.0, 0.9, 0.7), y_err=(0.0, 0.0, 0.0)),
    ]


class TestSeries:
    def test_tuple_coercion(self):
        s = Series(label="a", x=[1, 2], y=[3, 4], y_err=[0, 1])
        assert s.x == (1.0, 2.0)
        assert s.y == (3.0, 4.0)
        assert s.y_err == (0.0, 1.0)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Series(label="a", x=(1.0,), y=(1.0, 2.0), y_err=(0.0, 0.0))
        with pytest.raises(ValueError):
            Series(label="a", x=(1.0,), y=(1.0,), y_err=(0.1, 0.1))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Series(label="a", x=(), y=(), y_err=())

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Series(label="a", x=(float("nan"),), y=(1.0,), y_err=(0.0,))

    def test_rejects_negative_error(self):
        with pytest.raises(ValueError):
            Series(label="a", x=(1.0,), y=(1.0,), y_err=(-0.1,))


class TestLineChart:
    def test_parses_as_xml(self):
        root = ET.fromstring(line_chart(two_series(), "x", "y", title="t"))
        assert root.tag == f"{SVG_NS}svg"

    def test_one_polyline_per_series(self):
        root = ET.fromstring(line_chart(two_series(), "x", "y", title="t"))
        polylines = root.findall(f"{SVG_NS}polyline")
        assert len(polylines) == 2
        # three points each
        for p in polylines:
            assert len(p.attrib["points"].split()) == 3

    def test_labels_present(self):
        text = line_chart(two_series(), "noise strength", "fidelity", title="sweep")
        assert "noise strength" in text
        assert "fidelity" in text
        assert "sweep" in text
        assert "m = 2" in text and "m = 3" in text

    def test_reserved_characters_in_text_are_escaped(self):
        series = [Series("m < 3 & more", (0.0, 1.0), (0.5, 0.6), (0.0, 0.0))]
        root = ET.fromstring(line_chart(series, "x < 1", "y & z", title="a > b"))
        texts = {t.text for t in root.iter(f"{SVG_NS}text")}
        assert {"m < 3 & more", "x < 1", "y & z", "a > b"} <= texts

    def test_error_bars_drawn_only_when_given(self):
        root = ET.fromstring(line_chart(two_series(), "x", "y", title="t"))

        def bars(color):
            # stroke-width 1 distinguishes error bars from legend swatches
            return [
                el
                for el in root.findall(f"{SVG_NS}line")
                if el.attrib.get("stroke") == color
                and el.attrib.get("stroke-width") == "1"
            ]

        # first series: 3 error bars, each a stem plus two caps
        assert len(bars("#1f77b4")) == 9
        # second series has zero errors, so no bars
        assert len(bars("#d62728")) == 0

    def test_deterministic(self):
        svg = line_chart(two_series(), "x", "y", title="t")
        assert line_chart(two_series(), "x", "y", title="t") == svg

    def test_single_point_series(self):
        svg = line_chart([Series(label="only", x=(2.0,), y=(0.5,), y_err=(0.0,))], "x", "y", "t")
        ET.fromstring(svg)

    def test_flat_series(self):
        svg = line_chart(
            [Series(label="flat", x=(1.0, 2.0), y=(1.0, 1.0), y_err=(0.0, 0.0))], "x", "y", "t"
        )
        ET.fromstring(svg)

    def test_tick_labels_cover_range(self):
        svg = line_chart(
            [Series(label="s", x=(0.0, 1.0), y=(0.0, 100.0), y_err=(0.0, 0.0))], "x", "y", "t"
        )
        assert ">20<" in svg and ">80<" in svg

    def test_rejects_empty_series_list(self):
        with pytest.raises(ValueError):
            line_chart([], "x", "y", "t")

    def test_rejects_non_series(self):
        with pytest.raises(TypeError):
            line_chart([(1, 2)], "x", "y", "t")

    def test_save(self, tmp_path):
        path = tmp_path / "chart.svg"
        save_chart(path, line_chart(two_series(), "x", "y", title="t"))
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


class TestSweepChart:
    def test_one_sorted_line_per_block_size(self):
        def cell(n, m, fu, se):
            fq = FidelityStats(mean=0.9, std_error=0.0, samples=1)
            return SweepResult(n=n, m=m, sigma=0.1, fq=fq, fu=FidelityStats(fu, se, 4))

        # cells out of order in both m and n
        results = [cell(8, 3, 0.7, 0.02), cell(4, 3, 0.9, 0.01), cell(4, 2, 0.8, 0.03)]
        expected = line_chart(
            [
                Series(label="m = 2", x=(4.0,), y=(0.8,), y_err=(0.03,)),
                Series(label="m = 3", x=(4.0, 8.0), y=(0.9, 0.7), y_err=(0.01, 0.02)),
            ],
            x_label="n",
            y_label="mean matrix fidelity",
            title="t",
        )
        assert sweep_chart(results, lambda r: r.n, "n", "t") == expected
