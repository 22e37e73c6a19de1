import hashlib
import math

from dsff_lab.svgplot import render_loglog

XS = [0.1, 1.0, 10.0]
PREDICTION = [1.0, 0.1, 0.02]
ESTIMATE = [0.9, 0.12, 0.019]
STDERR = [0.05, 0.01, 0.002]

# the bytes this chart had when render_loglog took a list of series dicts
# (prediction a line, estimate points with error bars, xlabel "|tau|")
FROZEN_SHA256 = "71e0a56fb6899b21d86bf6a992a64d2f08bd9989abdaa462aa73ef23c8ca46e8"

ERROR_BAR = 'stroke="#d62728" stroke-width="1"'


def test_renders_expected_elements(tmp_path):
    path = tmp_path / "chart.svg"
    render_loglog(str(path), XS, PREDICTION, ESTIMATE, STDERR, "demo", "y")
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert "<polyline" in text
    assert "<circle" in text
    assert "prediction" in text and "estimate" in text
    assert "demo" in text and "|tau|" in text
    # decade grid labels
    assert "1e-1" in text and "1e0" in text


def test_chart_has_the_frozen_bytes(tmp_path):
    path = tmp_path / "chart.svg"
    render_loglog(str(path), XS, PREDICTION, ESTIMATE, STDERR, "demo", "y")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FROZEN_SHA256


def test_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    render_loglog(str(a), XS, PREDICTION, ESTIMATE, STDERR, "t", "K")
    render_loglog(str(b), XS, PREDICTION, ESTIMATE, STDERR, "t", "K")
    assert a.read_bytes() == b.read_bytes()


def test_nonpositive_values_dropped(tmp_path):
    xs = [0.5, 1.0, 2.0, 4.0]
    path = tmp_path / "mixed.svg"
    render_loglog(str(path), xs, [1.0, 0.5, 0.2, 0.1], [1.0, -0.5, 0.0, 0.25], [0.1] * 4, "t", "K")
    text = path.read_text()
    assert text.count("<circle") == 2
    assert text.count(ERROR_BAR) == 2 * 3


def test_single_series_no_error_bars(tmp_path):
    # standard errors that are not finite and positive draw no error bar
    path = tmp_path / "line.svg"
    render_loglog(str(path), [1, 2, 3], [3, 4, 5], [3, 4, 5], [math.nan, 0.0, -1.0], "t", "K")
    text = path.read_text()
    assert "<polyline" in text and text.count("<circle") == 3
    assert ERROR_BAR not in text
