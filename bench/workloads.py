"""The benchmark's workloads: seeded requests into splitloci's public
entry points, each with the check of its answer.

A request is one verdict a user waits for. Its `call` is the only part
that is timed; `check` runs afterwards and returns None when the answer
is right, or a short reason when it is not. The seed draws coefficients,
request order and coincidence targets only, never problem sizes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from splitloci import chowsym, cli, strata, tautring
from splitloci.polynomial import Poly

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")

TAUT_READINGS = ((7, "printed-split"), (7, "emended"), (8, None), (9, None))
STRATA_GENERA = {4: range(5, strata.GENUS_MAX + 1),
                 5: range(7, strata.GENUS_MAX + 1)}
# (degree, genus) pairs whose records are coincidence targets, and how
# many targets the seed draws from each
COINCIDENCE_GENERA = {4: range(5, 25), 5: range(7, 17)}
COINCIDENCE_TARGETS = 4

# Known answers written out in the README, checked on top of the
# recorded bytes. Exit code 1 for genus 8 and 9 is the documented
# criterion-9 outcome: the expected verdict, not a failure.
README_TAUT = {
    (7, "emended"): {"exit": 0, "socle_degrees": [5], "socle_dims": [1],
                     "ci_verdict": True},
    (7, "printed-split"): {"exit": 0},
    (8, None): {"exit": 1, "hilbert": [1, 1, 2, 2, 2]},
    (9, None): {"exit": 1, "hilbert": [1, 1, 2, 3, 3, 2, 1],
                "minimal_generator_count": 5, "ci_verdict": False},
}
SYM2_COEFFICIENTS = {"degree1_coefficients": [8],
                     "degree2_coefficients": [22, 14],
                     "degree3_coefficients": [28, 54, 38]}


@dataclass
class Request:
    name: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]

    @property
    def report(self) -> str:
        """The report a request belongs to: the formats of one CLI report,
        and the oracle inputs of one kind and size, make one report."""
        return re.sub(r" --format \S+", "", self.name)


def load_expected(name: str) -> dict:
    with open(os.path.join(EXPECTED_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# CLI requests

def run_cli(argv: Sequence[str]) -> Tuple[int, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue().encode("utf-8")


def digest(code: int, data: bytes) -> dict:
    return {"exit": code, "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest()}


def cli_argvs(workload: str) -> List[List[str]]:
    """Every CLI request of a workload, in a fixed order."""
    if workload == "kappa-rings":
        out = []
        for g, reading in TAUT_READINGS:
            argv = ["taut", "--genus", str(g)]
            if reading:
                argv += ["--interpretation", reading]
            out += [argv + ["--format", fmt] for fmt in ("table", "json")]
        return out
    if workload == "strata-sweep":
        return [["strata", "--degree", str(d), "--genus", str(g), "--format", fmt]
                for d, genera in STRATA_GENERA.items() for g in genera
                for fmt in ("table", "json", "dot")]
    if workload == "lemma-verify":
        return ([["lemma", "verify", "all", "--format", "json"]]
                + [["lemma", "verify", lemma] for lemma in chowsym.LEMMAS])
    raise ValueError("unknown workload %r" % workload)


def _readme_check(argv: Sequence[str], code: int, data: bytes) -> Optional[str]:
    if argv[:3] == ["lemma", "verify", "all"]:
        return None if code == 0 else "lemma verify all exited %d" % code
    if argv[0] != "taut":
        return None
    g = int(argv[2])
    reading = argv[4] if "--interpretation" in argv else None
    known = README_TAUT[(g, reading)]
    if code != known["exit"]:
        return "exit %d, README says %d" % (code, known["exit"])
    if argv[-1] != "json":
        return None
    report = json.loads(data)
    for key, want in known.items():
        if key == "exit":
            continue
        got = report[key]
        if key == "hilbert":
            got, tail = got[:len(want)], got[len(want):]
            if any(tail):
                return "hilbert tail %s is not zero" % tail
        if got != want:
            return "%s is %s, README says %s" % (key, got, want)
    return None


def cli_request(argv: List[str], golden: dict) -> Request:
    key = " ".join(argv)

    def check(result) -> Optional[str]:
        code, data = result
        want = golden.get(key)
        if want is None:
            return "no recorded answer"
        if digest(code, data) != want:
            return "output differs from the recorded answer (exit %d, %d bytes)" % (
                code, len(data))
        return _readme_check(argv, code, data)

    return Request("cli " + key, lambda: run_cli(argv), check)


# ---------------------------------------------------------------------------
# conversions between oracle polynomials and splitloci's Poly

def to_poly(p: oracles.IntPoly, names: Sequence[str]) -> Poly:
    return Poly({tuple((names[i], e) for i, e in enumerate(m) if e): c
                 for m, c in p.items()})


def from_poly(p: Poly, names: Sequence[str]) -> Optional[dict]:
    """Exponent-tuple form of p, or None if p uses another variable."""
    index = {n: i for i, n in enumerate(names)}
    out = {}
    for mono, coeff in p.terms.items():
        exps = [0] * len(names)
        for var, e in mono:
            if var not in index:
                return None
            exps[index[var]] = e
        out[tuple(exps)] = coeff
    return out


# ---------------------------------------------------------------------------
# oracle requests

def ci_request(shape: Tuple[int, int, int], rng: random.Random) -> Request:
    gens = oracles.ci_generators(shape, rng)
    want = oracles.ci_expected(shape)
    ideal = tautring.WeightedIdeal(
        oracles.CI_WEIGHTS, [to_poly(g, oracles.CI_VARS) for g in gens])
    g, d_max = want["genus"], want["d_max"]

    def call():
        return (tautring.hilbert(ideal, d_max),
                tautring.socle(ideal, d_max),
                tautring.gorenstein_check(ideal, g, d_max),
                tautring.artinian_check(ideal, g, d_max),
                tautring.minimal_generators(ideal))

    def check(result) -> Optional[str]:
        h, (socle_degrees, socle_dims), gor, art, mingens = result
        got = {"hilbert": h, "socle_degrees": socle_degrees,
               "socle_dims": socle_dims, "gorenstein": gor["gorenstein"],
               "artinian_window": art[1] if art[0] else None,
               "minimal_generators": mingens}
        for key, value in got.items():
            if value != want[key]:
                return "%s is %s, closed form gives %s" % (key, value, want[key])
        return None

    return Request("ci %d,%d,%d" % shape, call, check)


def lu_request(n: int, rng: random.Random) -> Request:
    mat, want = oracles.lu_matrix(n, rng)
    rows = [[to_poly(e, oracles.MATRIX_VARS) for e in row] for row in mat]

    def check(result) -> Optional[str]:
        got = from_poly(result, oracles.MATRIX_VARS)
        return None if got == want else "det differs from the product of U's diagonal"

    return Request("det L.U %dx%d" % (n, n), lambda: chowsym.det(rows), check)


def skew_request(rng: random.Random) -> Request:
    mat, minors = oracles.skew_matrix(rng)
    rows = [[to_poly(e, oracles.MATRIX_VARS) for e in row] for row in mat]

    def check(result) -> Optional[str]:
        for i, (q, minor) in enumerate(zip(result, minors)):
            q = from_poly(q, oracles.MATRIX_VARS)
            if q is None or oracles.p_mul(q, q) != minor:
                return "Q%d squared differs from the det of minor %d" % (i + 1, i)
        return None

    return Request("pfaffians 5x5", lambda: chowsym.pfaffians(rows), check)


def sym2_request() -> Request:
    def check(result) -> Optional[str]:
        if not result.get("ok"):
            return "sym2_chern_check reports ok=false"
        for key, want in SYM2_COEFFICIENTS.items():
            if result.get(key) != want:
                return "%s is %s, expected %s" % (key, result.get(key), want)
        return None

    return Request("sym2_chern_check", chowsym.sym2_chern_check, check)


def coincidence_code(result: dict) -> str:
    """Compact, readable form of a single_locus_coincidence result."""
    def axis(name):
        part = result[name]
        return name + "".join("1" if part[k] else "0" for k in (
            "unique", "codim_matches_expected", "strata_below_handled", "holds"))
    return "%s %s %d" % (axis("e"), axis("f"), result["holds"])


def coincidence_key(degree: int, genus: int, e, f) -> str:
    return "%d/%d/%s/%s" % (degree, genus, ",".join(map(str, e)),
                            ",".join(map(str, f)))


def coincidence_request(degree: int, genus: int, golden: dict,
                        rng: random.Random) -> Request:
    prefix = "%d/%d/" % (degree, genus)
    pool = sorted(k for k in golden if k.startswith(prefix))
    targets = rng.sample(pool, min(COINCIDENCE_TARGETS, len(pool)))

    def call():
        records = strata.enumerate_strata(degree, genus)
        by_key = {coincidence_key(degree, genus, r.e.parts, r.f.parts): r
                  for r in records}
        return {k: (strata.single_locus_coincidence(by_key[k], records)
                    if k in by_key else None) for k in targets}

    def check(result) -> Optional[str]:
        for key, got in result.items():
            if got is None:
                return "target %s is not enumerated" % key
            if coincidence_code(got) != golden[key]:
                return "coincidence of %s is %s, recorded %s" % (
                    key, coincidence_code(got), golden[key])
        return None

    return Request("coincidence d%d g%d" % (degree, genus), call, check)


# ---------------------------------------------------------------------------

def build(workload: str, seed: int) -> List[Request]:
    """The requests of one pass, in the seed's order."""
    rng = random.Random("%s:%d" % (workload, seed))
    golden = load_expected("cli.json")["requests"]
    requests = [cli_request(argv, golden) for argv in cli_argvs(workload)]
    if workload == "kappa-rings":
        requests += [ci_request(shape, rng) for shape in oracles.CI_SHAPES]
    elif workload == "strata-sweep":
        coincidences = load_expected("coincidence.json")["records"]
        requests += [coincidence_request(d, g, coincidences, rng)
                     for d, genera in COINCIDENCE_GENERA.items() for g in genera]
    elif workload == "lemma-verify":
        requests.append(sym2_request())
        requests += [lu_request(n, rng) for n in oracles.LU_SIZES]
        requests += [skew_request(rng) for _ in range(oracles.SKEW_COUNT)]
    rng.shuffle(requests)
    return requests
