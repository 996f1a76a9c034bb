import pytest

from tubevol.census import evaluate, figure_series, ingest, synthesize
from tubevol.svgplot import render_figure

FIGURE_NAMES = (
    "fig_ratio_curve",
    "fig_overshoot",
    "fig_overshoot_zoom",
    "fig_b_over_vdrill",
    "fig_dv_over_pil",
)


def all_figures():
    reports = evaluate(synthesize(30, seed=101))
    return figure_series(reports, bins=10)


class TestRenderFigure:
    def test_every_series_renders(self):
        for fig in all_figures().values():
            svg = render_figure(fig)
            assert svg.startswith("<svg")
            assert svg.rstrip().endswith("</svg>")
            assert fig.xlabel in svg
            assert fig.ylabel in svg

    def test_scatter_points_drawn(self):
        figs = all_figures()
        svg = render_figure(figs["fig_overshoot"])
        assert svg.count("<circle") == len(figs["fig_overshoot"].points["x"])

    def test_curves_drawn_with_legend(self):
        figs = all_figures()
        svg = render_figure(figs["fig_b_over_vdrill"])
        assert svg.count("<polyline") == 2
        assert "inv_c_p" in svg and "inv_c_o" in svg

    def test_histogram_bars(self):
        figs = all_figures()
        svg = render_figure(figs["fig_dv_over_pil"])
        nonzero_bins = sum(1 for c in figs["fig_dv_over_pil"].hist["count"] if c)
        # one frame rect, one background rect, plus a bar per occupied bin
        assert svg.count("<rect") == 2 + nonzero_bins

    def test_curve_only_figure(self):
        figs = all_figures()
        svg = render_figure(figs["fig_ratio_curve"])
        assert svg.count("<polyline") == 1
        assert svg.count("<circle") == 0


@pytest.mark.parametrize("name", FIGURE_NAMES)
def test_svg_bytes_pinned(data_dir, name):
    # every figure of the sample dataset against bytes rendered before the
    # renderer drew from arrays
    figs = figure_series(evaluate(ingest(data_dir / "sample20.csv")))
    golden = (data_dir / f"{name}_golden.svg").read_bytes()
    assert render_figure(figs[name]).encode("utf-8") == golden
