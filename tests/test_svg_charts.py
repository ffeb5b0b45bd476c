"""SVG chart rendering."""

import xml.etree.ElementTree as ET

import pytest

from repro.analysis.figures import AccuracyBar, EnergyBar
from repro.analysis.svg_charts import render_accuracy_svg, render_energy_svg


@pytest.fixture
def accuracy_figure():
    def bar(app, pred, hit_p, hit_b, notpred, miss):
        return AccuracyBar(
            application=app, predictor=pred, hit=hit_p + hit_b, miss=miss,
            not_predicted=notpred, hit_primary=hit_p, hit_backup=hit_b,
            miss_primary=miss, miss_backup=0.0, opportunities=100,
        )

    return {
        "mozilla": {
            "TP": bar("mozilla", "TP", 0.5, 0.0, 0.45, 0.03),
            "PCAP": bar("mozilla", "PCAP", 0.7, 0.15, 0.1, 0.1),
        },
        "nedit": {
            "TP": bar("nedit", "TP", 0.9, 0.0, 0.1, 0.0),
            "PCAP": bar("nedit", "PCAP", 1.0, 0.0, 0.0, 0.0),
        },
    }


@pytest.fixture
def energy_figure():
    def bar(app, pred, busy, short, long_, cycle, savings):
        return EnergyBar(
            application=app, predictor=pred, busy=busy, idle_short=short,
            idle_long=long_, power_cycle=cycle, savings=savings,
        )

    return {
        "mozilla": {
            "Base": bar("mozilla", "Base", 0.01, 0.07, 0.92, 0.0, 0.0),
            "PCAP": bar("mozilla", "PCAP", 0.01, 0.07, 0.17, 0.06, 0.69),
        },
    }


def test_accuracy_svg_is_wellformed_xml(accuracy_figure):
    svg = render_accuracy_svg(accuracy_figure, "Figure 7")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")


def test_accuracy_svg_contains_labels_and_bars(accuracy_figure):
    svg = render_accuracy_svg(accuracy_figure, "Figure 7")
    assert "Figure 7" in svg
    assert "mozilla" in svg and "nedit" in svg
    assert "PCAP" in svg
    # One rect per non-zero segment at least.
    assert svg.count("<rect") > 8


def test_accuracy_svg_scales_with_content(accuracy_figure):
    small = render_accuracy_svg(
        {"mozilla": accuracy_figure["mozilla"]}, "t"
    )
    large = render_accuracy_svg(accuracy_figure, "t")
    width = lambda svg: float(ET.fromstring(svg).get("width"))
    assert width(large) > width(small)


def test_energy_svg_is_wellformed(energy_figure):
    svg = render_energy_svg(energy_figure)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert "Base" in svg


def test_title_is_escaped(accuracy_figure):
    svg = render_accuracy_svg(accuracy_figure, "a < b & c")
    ET.fromstring(svg)  # must stay well-formed
    assert "a &lt; b &amp; c" in svg


def test_cli_svg_output(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "fig7.svg"
    code = main(["figure", "7", "--scale", "0.1", "--svg", str(out)])
    assert code == 0
    root = ET.fromstring(out.read_text())
    assert root.tag.endswith("svg")


def test_label_escaping_is_byte_identical_to_xml_escape(monkeypatch):
    """``html.escape(..., quote=False)`` escapes exactly what
    ``xml.sax.saxutils.escape`` does, so labels holding ``&<>`` (and
    quotes, which neither touches) render to the same bytes."""
    from xml.sax.saxutils import escape as xml_escape

    from repro.analysis import svg_charts

    label = "R&D <\"x'> & >"
    figure = {
        label: {
            label: AccuracyBar(
                application=label, predictor=label, hit=0.5, miss=0.1,
                not_predicted=0.4, hit_primary=0.5, hit_backup=0.0,
                miss_primary=0.1, miss_backup=0.0, opportunities=10,
            ),
        },
    }
    energy = {
        label: {
            label: EnergyBar(
                application=label, predictor=label, busy=0.1,
                idle_short=0.2, idle_long=0.3, power_cycle=0.1,
                savings=0.3,
            ),
        },
    }
    svgs = (render_accuracy_svg(figure, label), render_energy_svg(energy))
    monkeypatch.setattr(svg_charts, "escape",
                        lambda text, quote=False: xml_escape(text))
    assert render_accuracy_svg(figure, label) == svgs[0]
    assert render_energy_svg(energy) == svgs[1]
    assert "R&amp;D &lt;\"x'&gt; &amp; &gt;" in svgs[0]
    ET.fromstring(svgs[0])
    ET.fromstring(svgs[1])


def test_cli_import_skips_the_network_stack():
    """The SVG escaper must not pull ``urllib``/``http``/``ssl`` into
    every ``repro`` process (the serve daemon included)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (
        str(Path(repro.__file__).resolve().parents[1]),
        env.get("PYTHONPATH"),
    )))
    probe = (
        "import sys, repro.cli; "
        "print(sorted(m for m in ('urllib.request', 'http.client', 'ssl') "
        "if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        check=True, env=env, timeout=120,
    )
    assert out.stdout.strip() == "[]"
