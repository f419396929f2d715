"""splitloci benchmark: how long each verdict takes.

    python3 bench/run.py --workload kappa-rings --seed 1 --seconds 40 --trace 0

Runs one workload (see bench/README.md) in this process and thread,
through splitloci's public entry points, from the source tree under
src/. Every answer is checked. The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}: with
--trace 0 the end-to-end metrics, with --trace 1 the per-layer metrics
of one traced pass. The line before it records provenance.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("kappa-rings", "strata-sweep", "lemma-verify")
LAYERS = ("cli", "tautring", "chowsym", "strata", "splitbundle", "polynomial")
IMPORT_METRICS = ("import.total_s",) + tuple(
    "import.%s.self_s" % layer for layer in LAYERS)

# What a CLI invocation pays before any work: a fresh interpreter that
# imports the package and builds the argument parser.
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); import splitloci.cli; "
              "splitloci.cli.build_parser()")
SETUP_SPAWNS = 9
IMPORTTIME_SPAWNS = 5

# Reference work interleaved with every pass, for the calibrated metrics:
# about REF_UNITS_PER_PASS units a pass, split into equal slices around
# the requests. One reference loop is REF_LOOP_UNITS units.
REF_UNITS_PER_PASS = 120
REF_UNIT_STEPS = 1000
REF_LOOP_UNITS = 100
REF_WINDOW_UNITS = 20


class SourceTreeError(RuntimeError):
    pass


def use_source_tree() -> None:
    """Import splitloci from this checkout's src/, and from nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "splitloci", "__init__.py")):
        raise SourceTreeError("no splitloci source tree at %s" % SRC)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import splitloci
    if os.path.dirname(os.path.dirname(os.path.abspath(splitloci.__file__))) != SRC:
        raise SourceTreeError("splitloci was imported from %s, not %s"
                              % (splitloci.__file__, SRC))


def reference_slice(units: int) -> float:
    """Seconds for a fixed amount of pure-Python Fraction and dict work."""
    start = perf_counter()
    for _ in range(units):
        acc = Fraction(0)
        table = {}
        for i in range(1, REF_UNIT_STEPS):
            acc += Fraction(i % 97 + 1, i % 89 + 1)
            table[i % 1000, i % 7] = acc.numerator & 0xFF
    return perf_counter() - start


# ---------------------------------------------------------------------------
# provenance

def _git_commit() -> Optional[str]:
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _source_sha256() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "splitloci")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(**extra) -> dict:
    out = {
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": "%s %s" % (platform.python_implementation(),
                             platform.python_version()),
    }
    out.update(extra)
    return out


# ---------------------------------------------------------------------------
# set-up time, measured from outside

def _spawn(args: Sequence[str]) -> Tuple[float, str]:
    # bytecode caches are allowed, as an installed package has them
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    start = perf_counter()
    proc = subprocess.run([sys.executable, *args, "-c", SETUP_CODE], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError("set-up failed: %s" % proc.stderr.strip())
    return elapsed, proc.stderr


def measure_setup(spawns: int) -> List[float]:
    _spawn(())  # writes the bytecode caches
    return [_spawn(())[0] for _ in range(spawns)]


def measure_import_times(spawns: int) -> Dict[str, float]:
    """Median self time of each splitloci module's import, and the
    package's cumulative import time, from `python -X importtime`."""
    samples: Dict[str, List[float]] = {}
    pattern = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)")
    for _ in range(spawns):
        _, log = _spawn(("-X", "importtime"))
        for self_us, cumulative_us, module in pattern.findall(log):
            if module == "splitloci":
                samples.setdefault("import.total_s", []).append(int(cumulative_us) / 1e6)
            elif module.startswith("splitloci."):
                key = "import.%s.self_s" % module.split(".", 1)[1]
                samples.setdefault(key, []).append(int(self_us) / 1e6)
    return {k: statistics.median(v) for k, v in samples.items()}


# ---------------------------------------------------------------------------
# passes

class PassResult:
    def __init__(self):
        self.times: List[float] = []
        self.slices: List[float] = []
        self.failures: List[str] = []
        self.output_bytes = 0

    @property
    def pass_s(self) -> float:
        return sum(self.times)

    def calibrated(self, units: int) -> List[float]:
        """Each request's time in reference loops: its seconds divided by
        the time one loop took in the slices nearest to it, widened to
        cover at least REF_WINDOW_UNITS units."""
        w = max(1, -(-REF_WINDOW_UNITS // units))
        out = []
        for r, t in enumerate(self.times):
            window = self.slices[max(0, r + 1 - w):r + 1 + w]
            loop_s = sum(window) * REF_LOOP_UNITS / (units * len(window))
            out.append(t / loop_s)
        return out


def run_pass(requests, units: int, tracer=None) -> PassResult:
    """One pass over the requests; only each request's call is timed,
    and a reference slice of `units` units runs before and after each.
    Each request starts with no garbage pending, as in a fresh CLI
    process, whatever ran before it in the seed's order."""
    out = PassResult()
    out.slices.append(reference_slice(units))
    for req in requests:
        gc.collect()
        start = perf_counter()
        try:
            if tracer is None:
                result = req.call()
            else:
                with tracer.span("request"):
                    result = req.call()
        except Exception as exc:  # a request that raises is a failed verdict
            out.times.append(perf_counter() - start)
            out.failures.append("%s: raised %r" % (req.name, exc))
        else:
            out.times.append(perf_counter() - start)
            reason = req.check(result)
            if reason is not None:
                out.failures.append("%s: %s" % (req.name, reason))
            if req.name.startswith("cli "):
                out.output_bytes += len(result[1])
        out.slices.append(reference_slice(units))
    return out


def slice_units(requests) -> int:
    return max(1, REF_UNITS_PER_PASS // len(requests))


def timed_run(requests, seconds: float, setup: List[float]) -> Tuple[dict, List[PassResult]]:
    """Passes until a pass of the mean length so far would end after
    `seconds`; at least one."""
    units = slice_units(requests)
    passes: List[PassResult] = []
    start = perf_counter()
    while True:
        passes.append(run_pass(requests, units))
        elapsed = perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    attempted = len(requests) * len(passes)
    failed = sum(len(p.failures) for p in passes)
    calibrated = [p.calibrated(units) for p in passes]
    report_totals = []
    for c in calibrated:
        totals: Dict[str, float] = {}
        for req, value in zip(requests, c):
            totals[req.report] = totals.get(req.report, 0.0) + value
        report_totals.append(totals)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_cal": (statistics.median(sum(c) for c in calibrated), "loops"),
        "max_report_cal": (max(statistics.median(t[report] for t in report_totals)
                               for report in report_totals[0]), "loops"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }
    return metrics, passes


# ---------------------------------------------------------------------------
# traced run

def _note_ideal_degree(tracer, args, result) -> None:
    ideal, degree = args[0], args[1]
    tracer.distinct.setdefault("ideal_degree", set()).add(
        (ideal.weights, tuple(ideal.generators), degree))


def _note_enumeration(tracer, args, result) -> None:
    tracer.counters["strata.records"] += len(result)
    tracer.distinct.setdefault("degree_genus", set()).add(tuple(args[:2]))


HOOKS = {"tautring.graded_ideal_rank": _note_ideal_degree,
         "strata.enumerate_strata": _note_enumeration}

# span names whose self time and/or call count are reported as they are
SELF_TIME_SPANS = (
    "tautring.hilbert", "tautring.socle", "tautring.gorenstein_check",
    "tautring.artinian_check", "tautring.minimal_generators",
    "tautring.graded_ideal_rank", "strata.enumerate_strata", "strata.hasse",
    "strata.single_locus_coincidence", "chowsym.det_bareiss",
    "chowsym.det_cofactor", "chowsym.verify_lemma", "chowsym.pfaffians",
    "chowsym.sym2_chern_check", "polynomial.Poly.mul",
    "polynomial.Poly.divide_exact", "cli.main",
)
CALL_COUNT_SPANS = (
    "tautring.graded_ideal_rank", "tautring.monomials",
    "strata.enumerate_strata", "splitbundle.dominates", "chowsym.det_bareiss",
    "chowsym.det_cofactor", "polynomial.Poly.mul",
    "polynomial.Poly.divide_exact", "polynomial.Poly.evaluate",
    "polynomial.Poly.rewrite", "polynomial.Poly.substitute",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, traced: PassResult, untraced_s: float) -> Dict[str, Tuple[float, str]]:
    summary = tracer.summary()

    def stat(span: str, key: str) -> float:
        return summary.get(span, {}).get(key, 0)

    out: Dict[str, Tuple[float, str]] = {}
    for span in SELF_TIME_SPANS:
        out[span + ".self_s"] = (stat(span, "self_s"), "s")
    for span in CALL_COUNT_SPANS:
        out[span + ".calls"] = (stat(span, "calls"), "count")
    for layer in LAYERS:
        spans = [s for s in summary if s.startswith(layer + ".")]
        out[layer + ".self_s"] = (sum(summary[s]["self_s"] for s in spans), "s")
        out[layer + ".calls"] = (sum(summary[s]["calls"] for s in spans), "count")
    candidates = stat("strata.tet_check", "calls") + stat("strata.pent_check", "calls")
    out["strata.candidates"] = (candidates, "count")
    out["strata.accept_ratio"] = (
        _ratio(tracer.counters["strata.records"], candidates), "ratio")
    out["strata.enumerations_per_distinct"] = (
        _ratio(stat("strata.enumerate_strata", "calls"),
               len(tracer.distinct.get("degree_genus", ()))), "ratio")
    out["tautring.rank_calls_per_degree"] = (
        _ratio(stat("tautring.graded_ideal_rank", "calls"),
               len(tracer.distinct.get("ideal_degree", ()))), "ratio")
    out["cli.output_bytes"] = (traced.output_bytes, "bytes")
    out["trace.spans"] = (len(tracer.span_start), "count")
    out["trace.overhead_s"] = (traced.pass_s - untraced_s, "s")
    return out


def traced_run(requests) -> Tuple[dict, List[PassResult]]:
    """A pass with every layer wrapped, between two untraced passes
    whose mean time is the base of the tracing overhead."""
    import splitloci
    from tracing import Tracer
    units = slice_units(requests)
    imports = measure_import_times(IMPORTTIME_SPAWNS)
    before = run_pass(requests, units)
    tracer = Tracer()
    modules = {layer: getattr(splitloci, layer) for layer in LAYERS}
    with tracer.installed(modules, HOOKS):
        traced = run_pass(requests, units, tracer)
    after = run_pass(requests, units)
    metrics = layer_metrics(tracer, traced, (before.pass_s + after.pass_s) / 2)
    for name in IMPORT_METRICS:
        metrics[name] = (imports.get(name, 0.0), "s")
    return metrics, [before, traced, after]


# ---------------------------------------------------------------------------

def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    try:
        use_source_tree()
    except SourceTreeError as exc:
        print("benchmark cannot run: %s" % exc, file=sys.stderr)
        return 2
    import workloads
    setup = [] if args.trace else measure_setup(SETUP_SPAWNS)
    requests = workloads.build(args.workload, args.seed)
    # the inputs live for the whole run: keep them out of every collection
    gc.collect()
    gc.freeze()
    if args.trace:
        metrics, passes = traced_run(requests)
    else:
        metrics, passes = timed_run(requests, args.seconds, setup)
    failures = [f for p in passes for f in p.failures]
    for line in failures[:20]:
        print("FAILED %s" % line, file=sys.stderr)
    print(json.dumps({"provenance": provenance(
        workload=args.workload, seed=args.seed, trace=args.trace,
        passes=len(passes), requests_per_pass=len(requests),
        pass_s=[p.pass_s for p in passes],
        max_report_s=[max(p.times) for p in passes],
        ref_s=[sum(p.slices) for p in passes])}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(requests) * len(passes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
