"""Byte-for-byte comparison of CLI reports with the goldens under
tests/golden/, recorded before the exact-arithmetic kernels changed, and
of every `strata` report with the exit code, byte count and SHA-256
recorded in bench/expected/cli.json."""

import contextlib
import hashlib
import io
import json
import os

import pytest

from splitloci import cli

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")
BENCH_EXPECTED = os.path.join(HERE, os.pardir, "bench", "expected", "cli.json")

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


def _strata_digests():
    with open(BENCH_EXPECTED, encoding="utf-8") as fh:
        requests = json.load(fh)["requests"]
    return sorted((cmd, d) for cmd, d in requests.items()
                  if cmd.startswith("strata "))


STRATA_DIGESTS = _strata_digests()


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert err.getvalue() == ""
    return code, out.getvalue().encode("utf-8")


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(name, argv, code):
    with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
        assert _run(argv) == (code, fh.read())


def test_every_strata_report_has_a_digest():
    assert len(STRATA_DIGESTS) == 114


@pytest.mark.parametrize("cmd,digest", STRATA_DIGESTS,
                         ids=[c for c, _ in STRATA_DIGESTS])
def test_strata_output_matches_recorded_digest(cmd, digest):
    code, out = _run(cmd.split())
    assert (code, len(out), hashlib.sha256(out).hexdigest()) == (
        digest["exit"], digest["bytes"], digest["sha256"])
