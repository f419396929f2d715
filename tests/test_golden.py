"""Byte-for-byte comparison of CLI reports with the goldens under
tests/golden/, recorded before the exact-arithmetic kernels changed, and
of every `strata` and `lemma verify` report with the exit code, byte
count and SHA-256 recorded in bench/expected/cli.json."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

import splitloci
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


def _digests(prefix):
    with open(BENCH_EXPECTED, encoding="utf-8") as fh:
        requests = json.load(fh)["requests"]
    return sorted((cmd, d) for cmd, d in requests.items()
                  if cmd.startswith(prefix))


STRATA_DIGESTS = _digests("strata ")
LEMMA_DIGESTS = _digests("lemma verify ")


def _run_with_stderr(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


def _run(argv):
    code, out, err = _run_with_stderr(argv)
    assert err == b""
    return code, out


def _run_fresh(argv):
    """The CLI's exit code, stdout and stderr in a new interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(splitloci.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "splitloci", *argv],
                          capture_output=True, env=env, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(name, argv, code):
    with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
        assert _run(argv) == (code, fh.read())


def test_every_strata_report_has_a_digest():
    assert len(STRATA_DIGESTS) == 114


def test_every_lemma_report_has_a_digest():
    # `lemma verify all --format json` and the eight per-lemma tables
    assert len(LEMMA_DIGESTS) == 9


@pytest.mark.parametrize("cmd,digest", STRATA_DIGESTS,
                         ids=[c for c, _ in STRATA_DIGESTS])
def test_strata_output_matches_recorded_digest(cmd, digest):
    code, out = _run(cmd.split())
    assert (code, len(out), hashlib.sha256(out).hexdigest()) == (
        digest["exit"], digest["bytes"], digest["sha256"])


@pytest.mark.parametrize("cmd,digest", LEMMA_DIGESTS,
                         ids=[c for c, _ in LEMMA_DIGESTS])
def test_lemma_output_matches_recorded_digest(cmd, digest):
    code, out = _run(cmd.split())
    assert (code, len(out), hashlib.sha256(out).hexdigest()) == (
        digest["exit"], digest["bytes"], digest["sha256"])


def test_one_process_serves_errors_help_and_every_subcommand():
    # main shares one parser across calls: a usage error and --help must
    # leave it fit for the reports that follow
    for argv, code in ((["strata", "--degree", "6", "--genus", "9"], 2),
                       (["--help"], 0)):
        result = _run_with_stderr(argv)
        assert result[0] == code
        assert result == _run_fresh(argv)
    assert _run(["eval", "h1(End(O(2,3,5)))"]) == (0, b"3\n")
    with open(BENCH_EXPECTED, encoding="utf-8") as fh:
        digests = json.load(fh)["requests"]
    for cmd in ("strata --degree 5 --genus 9 --format dot",
                "lemma verify shape1"):
        code, out = _run(cmd.split())
        assert (code, len(out), hashlib.sha256(out).hexdigest()) == (
            digests[cmd]["exit"], digests[cmd]["bytes"], digests[cmd]["sha256"])
    with open(os.path.join(GOLDEN_DIR, "taut_g9_default.txt"), "rb") as fh:
        assert _run(["taut", "--genus", "9"]) == (1, fh.read())
