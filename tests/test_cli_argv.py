"""The CLI is total on its argument vector.

Random labels, negative and out-of-range `--n`/`--m`/`--max-rank`, bad
`--format` values and malformed diagram texts, given to every subcommand
in process: each call exits 0 or 2, an exit 2 prints exactly one `error:`
line, and nothing prints a traceback.  The commands that walk the atlas
(`list`, `verify`, `export-atlas`) get no valid rank above 8, so that no
example runs long.
"""

import io
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from kacvmrt.atlas import ALL_LABELS, enumerate_entries  # noqa: E402
from kacvmrt.cli import main  # noqa: E402
from kacvmrt.folding import FOLDING_PAIRS  # noqa: E402
from kacvmrt.render import FORMATS  # noqa: E402

ARGV = settings(max_examples=300, deadline=None, database=None, derandomize=True)

# Each strategy mixes valid and invalid values.
_LABELS = st.one_of(st.sampled_from(ALL_LABELS), st.sampled_from(ALL_LABELS).map(str.upper),
                    st.text(max_size=10))
_BAD_NUMBERS = st.sampled_from(["x", "1.5", "", "--n", "1e3"])
_PARAMS = st.one_of(st.integers(1, 8).map(str), st.integers(-5, 0).map(str),
                    st.sampled_from(["101", "1000", "1000000", str(10 ** 30)]), _BAD_NUMBERS)
_MAX_RANKS = st.one_of(st.integers(2, 8).map(str), st.integers(-5, 1).map(str),
                       st.sampled_from(["101", "1000000", str(10 ** 30)]), _BAD_NUMBERS)
_FORMATS = st.one_of(st.sampled_from(FORMATS), st.text(max_size=8))
_TEXTS = st.one_of(st.sampled_from(["o-x", "o-o-x[2]", "x=>o + x=>o ~sigma", "O-o", "o-o(o)-x", "x[2]-o-o<=o",
                                    "o-o-o-x-o", "o-o=>o-x"]),
                   st.text(alphabet="oOx-=<>#()[]1234+~sigma @", max_size=20))


def _option(name, values):
    """`[name, value]`, or (less often) nothing."""
    return st.one_of(st.just([]), *[values.map(lambda v: [name, v])] * 3)


def _word(values):
    return values.map(lambda v: [v])


def _joined(*parts):
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


def _entry(e):
    return [e.label] + [a for k, v in e.params for a in (f"--{k}", str(v))]


# An atlas entry as written, or a label with random parameters.
_ENTRY = st.one_of(st.sampled_from(enumerate_entries(8)).map(_entry),
                   _joined(_word(_LABELS), _option("--n", _PARAMS), _option("--m", _PARAMS)))
_PAIRS = st.one_of(st.sampled_from(sorted(FOLDING_PAIRS)), st.text(max_size=6))
ARGVS = st.one_of(
    _joined(_word(st.sampled_from(["kac", "zorbit", "vmrt"])), _ENTRY, _option("--format", _FORMATS)),
    _joined(_word(st.sampled_from(["list", "verify", "export-atlas"])), _option("--max-rank", _MAX_RANKS)),
    _joined(st.just(["dim"]), _word(_TEXTS)),
    _joined(st.just(["fold"]), _word(_PAIRS), _word(_TEXTS), _option("--format", _FORMATS)),
    st.lists(st.text(max_size=8), max_size=3),
)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as ex:  # argparse rejects or prints help
            code = ex.code
    return code, err.getvalue()


@ARGV
@given(ARGVS)
def test_cli_is_total_on_argv(argv):
    if argv[:1] == ["export-atlas"]:
        argv = argv + ["--out", os.devnull]
    code, err = _run(argv)
    assert code in (0, 2), (argv, code, err)
    assert len([line for line in err.splitlines() if "error:" in line]) == (code == 2), (argv, err)
    assert "Traceback" not in err, argv
