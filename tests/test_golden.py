"""Byte-for-byte comparison of CLI reports with the goldens under
tests/golden/, recorded before the exact-arithmetic kernels changed."""

import contextlib
import io
import os

import pytest

from splitloci import cli

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

TAUT_READINGS = [(7, "printed-split", 0), (7, "emended", 0), (8, None, 1),
                 (8, "printed", 1), (9, None, 1), (9, "printed", 1)]

# (golden file, argv, exit code)
CASES = [
    ("taut_g%d_%s.%s" % (g, reading or "default", ext),
     ["taut", "--genus", str(g)]
     + (["--interpretation", reading] if reading else [])
     + ["--format", fmt],
     code)
    for g, reading, code in TAUT_READINGS
    for fmt, ext in (("table", "txt"), ("json", "json"))
] + [("lemma_verify_all.json", ["lemma", "verify", "all", "--format", "json"], 0)]


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(name, argv, code):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main(argv) == code
    assert err.getvalue() == ""
    with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
        assert out.getvalue().encode("utf-8") == fh.read()
