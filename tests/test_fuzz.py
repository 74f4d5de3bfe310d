"""Fuzzed configuration input: config_from_dict and the waldschmidt CLI.

Any input, well formed or not, must end in a typed package error or one
of the documented exit codes (0, 2, 3, 4, 5) with a message on stderr,
never in an uncaught exception or a traceback.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from waldschmidt.cli import main
from waldschmidt.config import SurfaceConfig, config_from_dict, validate_config
from waldschmidt.errors import WaldschmidtError

_DIGITS = st.text(alphabet="0123456789", max_size=9)
_CLASS_STRINGS = st.one_of(
    st.builds(lambda head, d: f"{head}_{d}", st.sampled_from("ELQC"), _DIGITS),
    st.builds(lambda a, b: f"C_{a};{b}", _DIGITS, _DIGITS),
    st.sampled_from(["L", "K", "[]", "[1,-1]", "[1,-1,-1]", "E_", "L_12 ", " Q_12345"]),
    st.builds(
        lambda v: "[" + ",".join(map(str, v)) + "]",
        st.lists(st.integers(-4, 4), max_size=10),
    ),
    st.text(max_size=12),
)
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10), st.floats(allow_nan=False), st.text(max_size=6),
)
_CURVES = st.one_of(
    _CLASS_STRINGS,
    st.lists(st.integers(-4, 4), max_size=10),
    st.lists(_JSON_SCALARS, max_size=4),
    _JSON_SCALARS,
)
_PAIRS = st.one_of(
    st.lists(st.integers(-1, 9), min_size=2, max_size=2),
    st.lists(st.one_of(st.integers(-1, 9), _JSON_SCALARS), max_size=3),
    _JSON_SCALARS,
)


# Valid configurations: a D5 chain on five points, two infinitely near
# points, three general points.  Dropping curves and changing ranks from
# these reaches validation failures, proximity checks and the LP.
_VALID = [
    {"r": 5, "negative_curves": ["E_12", "E_23", "E_34", "E_45", "L_123", "E_5"]},
    {"r": 2, "proximity": [[2, 1]], "negative_curves": ["E_12", "E_2", "L_12"]},
    {"r": 3, "negative_curves": ["E_1", "E_2", "E_3", "L_12", "L_13", "L_23"]},
]


@st.composite
def _config_data(draw):
    """JSON values shaped more or less like a configuration."""
    if draw(st.integers(0, 19)) == 0:
        return draw(st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=3)))
    if draw(st.booleans()):
        data = dict(draw(st.sampled_from(_VALID)))
        curves = data["negative_curves"]
        data["negative_curves"] = draw(st.lists(
            st.sampled_from(curves), max_size=len(curves), unique=True,
        ).map(lambda kept: kept if kept else curves))
        if draw(st.integers(0, 3)) == 0:
            data["r"] = draw(st.integers(1, 9))
        return data
    data = {}
    if draw(st.integers(0, 9)):
        data["r"] = draw(st.one_of(st.integers(-2, 10), st.integers(2, 5), _JSON_SCALARS))
    if draw(st.integers(0, 9)):
        data["negative_curves"] = draw(st.one_of(st.lists(_CURVES, max_size=10), _JSON_SCALARS))
    if draw(st.booleans()):
        data["proximity"] = draw(st.one_of(st.lists(_PAIRS, max_size=4), _JSON_SCALARS))
    if draw(st.integers(0, 9)) == 0:
        data[draw(st.text(max_size=4))] = draw(_JSON_SCALARS)
    return data


_M_TEXT = st.one_of(
    st.lists(st.integers(-2, 4), min_size=1, max_size=9).map(lambda v: ",".join(map(str, v))),
    st.text(alphabet="0123456789,-a ", max_size=12),
)


@st.composite
def _cli_input(draw):
    """Config file text and the --m argument (None: omitted)."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(st.text(max_size=20)), draw(st.none() | _M_TEXT)
    data = draw(_config_data())
    r = data.get("r") if isinstance(data, dict) else None
    if type(r) is int and 1 <= r <= 9 and kind > 3:
        m = ",".join(map(str, draw(st.lists(st.integers(-1, 3), min_size=r, max_size=r))))
    else:
        m = draw(st.none() | _M_TEXT)
    return json.dumps(data), m


@settings(max_examples=300, deadline=None)
@given(_config_data())
def test_config_from_dict_raises_only_package_errors(data):
    try:
        cfg = config_from_dict(data)
    except WaldschmidtError:
        return
    assert isinstance(cfg, SurfaceConfig)
    validate_config(cfg)


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow],
)
@given(_cli_input(), st.booleans())
def test_waldschmidt_cli_exits_with_a_documented_code(cli_input, as_json):
    text, m = cli_input
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = ["waldschmidt", "--config", path]
        if m is not None:
            argv += ["--m", m]
        if as_json:
            argv.append("--json")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
    assert code in {0, 2, 3, 4, 5}
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().strip()
    if code in {2, 3, 4}:
        assert out.getvalue() == ""
