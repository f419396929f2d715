"""Write BENCH_<pr>.json: the benchmark run on a parent tree and on a
changed tree, alternated on one machine, with per-workload medians and
the tier-1 wall time of each tree.

    python3 tools/bench_json.py run --parent DIR --change DIR \\
        --out BENCH_<pr>.json
    python3 tools/bench_json.py validate [FILE ...]

`run` runs `python3 bench/run.py --workload W --seed S --seconds 40
--trace 0` inside each tree for every workload W and seed S = 1..10,
ten pairs of runs per workload, the parent first for every other seed
and the change first for the rest, and keeps the scalar provenance
fields and the metrics from the last two lines that run.py prints. Of
run.py's per-pass lists it keeps the medians of pass_s, max_report_s
and ref_s, as the provenance fields pass_s_median and so on, so a
reader can tell whether the raw pass time or the reference slices that
calibrate it moved. After each pair of runs it also times
STARTUP_SPAWNS_PER_PAIR pairs of fresh interpreters that run each
tree's run.py SETUP_CODE, the parent first in every other pair, and
records each tree's spawn times, their median and quartiles: a
start-up series of STARTUP_SPAWNS spawns a tree spread over the whole
run, where run.py's setup_s is the median of one burst of spawns. It
then times the tier-1 tests of each tree three times, in alternating
pairs (parent, change; change, parent; parent, change), keeps each
run's wall time, exit code and summary, and records their median wall
time and the median over the runs of each test file's time, read from
the JUnit XML that pytest writes. Use two fresh copies of the trees, so
that neither run reads the other's bytecode or test caches.

`validate` checks the layout of each file, by default of every
BENCH_*.json at the root of this repository, that its medians are
those of its runs, made for every workload and seed above at 40 s, that
every tier-1 run exited 0, and that a start-up series, where there is
one, holds its spawns and their median and quartiles for both trees.
Files made before the tier-1 runs were repeated hold one run per tree,
with no per-file times, files made before the per-pass medians were
kept hold none of them, and files made before the start-up series hold
no series.
"""

from __future__ import annotations

import argparse
import ast
import glob
import json
import os
import statistics
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from time import perf_counter
from typing import Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FORMAT = "splitloci-bench/1"
LABELS = ("parent", "change")
WORKLOADS = ["kappa-rings", "strata-sweep", "lemma-verify"]
SEEDS = list(range(1, 11))
SECONDS = 40
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
TIER1_RUNS = 3  # per tree
# run.py's per-pass lists whose medians a run keeps as provenance fields
PER_PASS = ("pass_s", "max_report_s", "ref_s")
# start-up spawns per tree after each pair of bench runs, and in all
STARTUP_SPAWNS_PER_PAIR = 2
STARTUP_SPAWNS = STARTUP_SPAWNS_PER_PAIR * len(WORKLOADS) * len(SEEDS)


def bench_argv(workload: str, seed) -> List[str]:
    return ["bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]


def parse_run(stdout: str) -> dict:
    """The scalar provenance fields and the metrics of one run.py run,
    read from the last two non-empty lines of its output. Of the per-pass
    lists of the provenance only the medians of PER_PASS are kept, each
    as the field <name>_median."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError("run.py printed %d lines, not the two result lines"
                         % len(lines))
    try:
        head, last = json.loads(lines[-2]), json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise ValueError("a result line is not JSON: %s" % exc) from None
    if not isinstance(head, dict) or not isinstance(head.get("provenance"), dict):
        raise ValueError("the line before the last holds no provenance")
    if not isinstance(last, dict) or not isinstance(last.get("metrics"), dict):
        raise ValueError("the last line holds no metrics")
    try:
        metrics = {name: entry["value"] for name, entry in last["metrics"].items()}
        units = {name: entry["unit"] for name, entry in last["metrics"].items()}
        provenance = {name: value for name, value in head["provenance"].items()
                      if not isinstance(value, (list, dict))}
        run = {"provenance": provenance, "correct": last["correct"],
               "attempted": last["attempted"], "failed": last["failed"],
               "metrics": metrics, "units": units}
    except (KeyError, TypeError) as exc:
        raise ValueError("the last line lacks %s" % exc) from None
    for name in PER_PASS:
        try:
            provenance[name + "_median"] = statistics.median(
                head["provenance"][name])
        except (KeyError, TypeError, statistics.StatisticsError):
            raise ValueError("the provenance holds no per-pass list %r"
                             % name) from None
    return run


def medians(runs: Sequence[dict]) -> Dict[str, Dict[str, Dict[str, float]]]:
    """{workload: {label: {metric: median over the seeds}}}."""
    values: Dict[str, Dict[str, Dict[str, List[float]]]] = {}
    for run in runs:
        by_metric = values.setdefault(run["workload"], {}).setdefault(run["label"], {})
        for name, value in run["metrics"].items():
            by_metric.setdefault(name, []).append(value)
    return {w: {label: {name: statistics.median(v) for name, v in m.items()}
                for label, m in by_label.items()}
            for w, by_label in values.items()}


def file_seconds(junit_xml: str) -> Dict[str, float]:
    """The summed time of the testcases of each test file in a pytest
    JUnit XML report written with junit_family=xunit1, which names each
    testcase's file; a testcase with no file counts under its classname."""
    totals: Dict[str, float] = {}
    for case in ET.fromstring(junit_xml).iter("testcase"):
        name = case.get("file") or case.get("classname", "")
        totals[name] = totals.get(name, 0.0) + float(case.get("time", "0"))
    return {name: round(t, 3) for name, t in totals.items()}


def tier1_summary(runs: Sequence[dict]) -> dict:
    """One tree's tier-1 record from its runs, each a _tier1 result: the
    runs' wall times, exit codes and summaries, their median wall time,
    and the median over the runs of each file's time."""
    by_file: Dict[str, List[float]] = {}
    for one in runs:
        for name, t in one["file_s"].items():
            by_file.setdefault(name, []).append(t)
    return {"runs": [{k: one[k] for k in ("wall_s", "exit_code", "summary")}
                     for one in runs],
            "wall_s": statistics.median(one["wall_s"] for one in runs),
            "file_s": {name: statistics.median(t) for name, t in by_file.items()}}


def setup_code(tree: str) -> str:
    """The SETUP_CODE string of a tree's bench/run.py, read without
    running the file."""
    path = os.path.join(tree, "bench", "run.py")
    with open(path, encoding="utf-8") as fh:
        module = ast.parse(fh.read(), path)
    for node in module.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "SETUP_CODE"):
            return ast.literal_eval(node.value)
    raise ValueError("%s assigns no SETUP_CODE" % path)


def startup_summary(code: str, spawn_s: Sequence[float]) -> dict:
    """One tree's start-up series: the code each spawn ran, the spawn
    times in order, their median and their quartiles (the exclusive
    method of statistics.quantiles)."""
    q1, _, q3 = statistics.quantiles(spawn_s, n=4)
    return {"code": code, "spawn_s": list(spawn_s),
            "median_s": statistics.median(spawn_s), "q1_s": q1, "q3_s": q3}


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _validate_startup(trees: dict) -> None:
    """Both trees hold a start-up series of STARTUP_SPAWNS positive
    spawn times of the same code, with their median and quartiles, or
    neither does, as in files made before the series."""
    series = {label: tree.get("startup") for label, tree in trees.items()}
    if all(one is None for one in series.values()):
        return
    codes = set()
    for label, one in series.items():
        spawns = one.get("spawn_s") if isinstance(one, dict) else None
        if (not isinstance(spawns, list) or len(spawns) != STARTUP_SPAWNS
                or not all(_number(t) and t > 0 for t in spawns)):
            raise ValueError("tree %r has not %d positive start-up spawn times"
                             % (label, STARTUP_SPAWNS))
        if not isinstance(one.get("code"), str) or not one["code"]:
            raise ValueError("tree %r has no start-up code" % label)
        codes.add(one["code"])
        if one != startup_summary(one["code"], spawns):
            raise ValueError("tree %r: the start-up median and quartiles are "
                             "not those of its spawns" % label)
    if len(codes) != 1:
        raise ValueError("the trees' start-up series ran different code")


def _validate_tier1(label: str, tier1) -> None:
    """A tree's tier-1 record holds TIER1_RUNS runs that exited 0, their
    median wall time and non-negative per-file times; or, in files made
    before the runs were repeated, one run's wall time, exit code 0 and
    summary."""
    if not isinstance(tier1, dict) or not _number(tier1.get("wall_s")):
        raise ValueError("tree %r has no tier-1 wall time" % label)
    repeated = "runs" in tier1
    runs = tier1["runs"] if repeated else [tier1]
    if repeated and (not isinstance(runs, list) or len(runs) != TIER1_RUNS):
        raise ValueError("tree %r has not %d tier-1 runs" % (label, TIER1_RUNS))
    for one in runs:
        if (not isinstance(one, dict) or not _number(one.get("wall_s"))
                or not isinstance(one.get("summary"), str)):
            raise ValueError("tree %r has a tier-1 run with no wall time and "
                             "summary" % label)
        code = one.get("exit_code")
        if type(code) is not int or code != 0:
            raise ValueError("tree %r has a tier-1 run that exited %r"
                             % (label, code))
    if not repeated:
        return
    if tier1["wall_s"] != statistics.median(one["wall_s"] for one in runs):
        raise ValueError("tree %r: the tier-1 wall time is not the median "
                         "of its runs" % label)
    files = tier1.get("file_s")
    if not isinstance(files, dict) or not files or not all(
            _number(t) and t >= 0 for t in files.values()):
        raise ValueError("tree %r: the tier-1 file times are missing or not "
                         "non-negative numbers" % label)


def validate(doc: dict) -> None:
    """Raise ValueError unless doc is a BENCH_*.json document whose
    medians are those of its runs."""
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise ValueError("format is not %r" % FORMAT)
    for key in ("seconds", "seeds", "workloads", "trees", "units", "runs", "medians"):
        if key not in doc:
            raise ValueError("missing %r" % key)
    for key, want in (("workloads", WORKLOADS), ("seeds", SEEDS),
                      ("seconds", SECONDS)):
        if doc[key] != want:
            raise ValueError("%s are not %r" % (key, want))
    if sorted(doc["trees"]) != sorted(LABELS):
        raise ValueError("trees are not labelled %s" % " and ".join(LABELS))
    for label, tree in doc["trees"].items():
        _validate_tier1(label, tree.get("tier1"))
    _validate_startup(doc["trees"])
    expected = {(w, s, label) for w in doc["workloads"] for s in doc["seeds"]
                for label in LABELS}
    seen = set()
    for run in doc["runs"]:
        key = (run.get("workload"), run.get("seed"), run.get("label"))
        if key not in expected or key in seen:
            raise ValueError("unexpected or repeated run %r" % (key,))
        seen.add(key)
        if not isinstance(run.get("provenance"), dict) or any(
                isinstance(v, (list, dict)) for v in run["provenance"].values()):
            raise ValueError("run %r has no scalar provenance" % (key,))
        medians_kept = [run["provenance"].get(name + "_median")
                        for name in PER_PASS]
        if medians_kept != [None] * len(PER_PASS) and not all(
                _number(m) and m >= 0 for m in medians_kept):
            raise ValueError("run %r has not all of the per-pass medians "
                             "as non-negative numbers" % (key,))
        if run["provenance"].get("source_sha256") != \
                doc["trees"][run["label"]].get("source_sha256"):
            raise ValueError("run %r was made on another tree" % (key,))
        if not isinstance(run.get("metrics"), dict) or not isinstance(run.get("correct"), bool):
            raise ValueError("run %r has no metrics or no verdict" % (key,))
        for name, value in run["metrics"].items():
            if name not in doc["units"] or not _number(value):
                raise ValueError("run %r: metric %r has no unit or no number"
                                 % (key, name))
    if seen != expected:
        raise ValueError("runs missing: %r" % sorted(expected - seen))
    if doc["medians"] != medians(doc["runs"]):
        raise ValueError("medians are not those of the runs")


def _bench(tree: str, label: str, workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable] + bench_argv(workload, seed), cwd=tree,
                          capture_output=True, text=True, check=True)
    run = {"label": label, "workload": workload, "seed": seed}
    run.update(parse_run(proc.stdout))
    return run


def _spawn(tree: str, code: str) -> float:
    """Seconds for a fresh interpreter to run code in tree, with the
    bytecode caches allowed, as run.py's setup_s spawns have them."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=tree, env=env,
                   capture_output=True, check=True, timeout=120)
    return perf_counter() - start


def _tier1(tree: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        ["src"] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "tier1.xml")
        start = perf_counter()
        proc = subprocess.run(TIER1 + ["--junitxml", report,
                                       "-o", "junit_family=xunit1"],
                              cwd=tree, env=env, capture_output=True, text=True)
        wall = perf_counter() - start
        files = {}
        if os.path.exists(report):
            with open(report, encoding="utf-8") as fh:
                files = file_seconds(fh.read())
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "exit_code": proc.returncode,
            "summary": lines[-1] if lines else "", "file_s": files}


def _pair(k: int) -> Sequence[str]:
    """The order of the k-th pair of runs: the first run alternates, so
    drift favours neither tree."""
    return LABELS if k % 2 == 0 else LABELS[::-1]


def run(trees: Dict[str, str]) -> dict:
    """The document of both trees' runs, not yet validated: `main` writes
    it before validating, so a failed tier-1 run keeps the bench runs."""
    runs, units = [], {}
    codes = {label: setup_code(trees[label]) for label in LABELS}
    spawns: Dict[str, List[float]] = {label: [] for label in LABELS}
    for label in LABELS:
        _spawn(trees[label], codes[label])  # writes the bytecode caches
    for workload in WORKLOADS:
        for k, seed in enumerate(SEEDS):
            for label in _pair(k):
                print("%s seed %d %s" % (workload, seed, label), file=sys.stderr)
                one = _bench(trees[label], label, workload, seed)
                units.update(one.pop("units"))
                runs.append(one)
            for i in range(STARTUP_SPAWNS_PER_PAIR):
                for label in _pair(i):
                    spawns[label].append(_spawn(trees[label], codes[label]))
    tier1_runs: Dict[str, List[dict]] = {label: [] for label in LABELS}
    for k in range(TIER1_RUNS):
        for label in _pair(k):
            print("tier-1 %s %d" % (label, k + 1), file=sys.stderr)
            tier1_runs[label].append(_tier1(trees[label]))
    tree_info = {}
    for label in LABELS:
        sha = {r["provenance"]["source_sha256"] for r in runs if r["label"] == label}
        if len(sha) != 1:
            raise RuntimeError("the %s tree changed during the runs" % label)
        tree_info[label] = {"source_sha256": sha.pop(),
                            "tier1": tier1_summary(tier1_runs[label]),
                            "startup": startup_summary(codes[label], spawns[label])}
    doc = {"format": FORMAT,
           "bench_command": " ".join(["python3"] + bench_argv("<workload>", "<seed>")),
           "tier1_command": " ".join(["PYTHONPATH=src", "python3"] + TIER1[1:]),
           "seconds": SECONDS, "seeds": SEEDS,
           "workloads": WORKLOADS, "trees": tree_info, "units": units,
           "runs": runs, "medians": medians(runs)}
    return doc


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run the benchmark on both trees")
    p_run.add_argument("--parent", required=True)
    p_run.add_argument("--change", required=True)
    p_run.add_argument("--out", required=True)
    p_val = sub.add_parser("validate", help="check BENCH_*.json files")
    p_val.add_argument("files", nargs="*")
    args = parser.parse_args(argv)
    if args.command == "run":
        doc = run({"parent": args.parent, "change": args.change})
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        files = [args.out]
    else:
        files = args.files or sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
    if not files:
        print("no BENCH_*.json files", file=sys.stderr)
        return 1
    for name in files:
        with open(name, encoding="utf-8") as fh:
            try:
                validate(json.load(fh))
            except ValueError as exc:
                print("%s: %s" % (name, exc), file=sys.stderr)
                return 1
        print("%s: ok" % name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
