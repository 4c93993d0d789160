"""The dependency-free chart writer must emit well-formed SVG."""

import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from solarcast import DataValidationError
from solarcast.io import write_text
from solarcast.svgplot import render_line_chart

SVG_NS = "{http://www.w3.org/2000/svg}"


def sample_curves():
    x = np.linspace(0, 24, 70)
    return [
        ("observed", x, 500 * np.sin(np.pi * x / 24) ** 2),
        ("predicted", x, 480 * np.sin(np.pi * x / 24) ** 2 + 10),
    ]


def test_well_formed_xml():
    text = render_line_chart(sample_curves(), title="overlay", x_label="h", y_label="W/m2")
    root = ET.fromstring(text)
    assert root.tag == f"{SVG_NS}svg"


def test_one_polyline_per_curve():
    root = ET.fromstring(render_line_chart(sample_curves()))
    polylines = root.findall(f"{SVG_NS}polyline")
    assert len(polylines) == 2
    for polyline in polylines:
        assert len(polyline.attrib["points"].split()) == 70


def test_labels_are_escaped():
    curves = [("a<b & c", np.array([0.0, 1.0]), np.array([1.0, 2.0]))]
    text = render_line_chart(curves, title="x < y & z")
    root = ET.fromstring(text)  # would raise on raw < or &
    texts = [el.text for el in root.iter(f"{SVG_NS}text")]
    assert "x < y & z" in texts
    assert "a<b & c" in texts


def test_comment_metadata_included():
    text = render_line_chart(sample_curves(), comment="seed=3 split=0.7")
    assert "<!-- seed=3 split=0.7 -->" in text
    ET.fromstring(text)


def test_write_to_file(tmp_path):
    # the CLI and the demos write a rendered chart through io.write_text
    path = tmp_path / "chart.svg"
    svg = render_line_chart(sample_curves(), title="t")
    write_text(path, (svg,))
    assert path.read_text(encoding="utf-8") == svg
    ET.parse(path)


def test_empty_curves_rejected():
    with pytest.raises(DataValidationError):
        render_line_chart([])
    with pytest.raises(DataValidationError, match="^curves are empty$"):
        render_line_chart([("none", np.array([]), np.array([]))])


def test_constant_curve_does_not_crash():
    curves = [("flat", np.array([0.0, 1.0, 2.0]), np.array([5.0, 5.0, 5.0]))]
    ET.fromstring(render_line_chart(curves))
    # one x value, and y all zero: each axis spans one unit from its value
    for x, y in [(np.full(3, 2.0), np.arange(3.0)), (np.arange(3.0), np.zeros(3))]:
        ET.fromstring(render_line_chart([("flat", x, y)]))


def pinned_chart() -> str:
    """A chart with a negative value, markup characters in a label and
    the title, a comment and an empty y label."""
    x = np.array([0.0, 1.5, 3.0, 4.5, 6.0, 7.5])
    return render_line_chart(
        [
            ("observed <&>", x, np.array([0.0, 120.25, 310.5, 287.0, 95.125, 4.0])),
            ("mar", x, np.array([-12.5, 101.0, 298.75, 301.5, 80.0, 0.0])),
            ("lstm", x[1:], np.array([140.0, 280.0, 250.5, 60.0, -3.25])),
        ],
        title="Observed & predicted, h < 2",
        x_label="hour of day",
        comment="command=compare split=0.7 <x&y>",
    )


def test_bytes_match_pinned_chart():
    # every attribute's order and number format, pinned byte for byte
    expected = (Path(__file__).parent / "data" / "chart.svg").read_bytes()
    assert pinned_chart().encode("utf-8") == expected


def test_zero_tick_is_unsigned():
    # np.ceil(-12.5 / 100) * 100 is -0.0, which "{:g}" writes as "-0"
    texts = [el.text for el in ET.fromstring(pinned_chart()).iter(f"{SVG_NS}text")]
    assert "0" in texts and "-0" not in texts


@pytest.mark.parametrize("axis", ("x", "y"))
@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_non_finite_values_name_the_curve(axis, bad):
    x, y = np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0])
    (x if axis == "x" else y)[1] = bad
    curves = [("observed", np.array([0.0, 2.0]), np.array([1.0, 2.0])), ("lstm", x, y)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataValidationError, match="curve 'lstm' has non-finite values"):
            render_line_chart(curves)
