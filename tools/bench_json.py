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
fields and the metrics from the last two lines that run.py prints. It
then times the tier-1 tests of each tree. Use two fresh
copies of the trees, so that neither run reads the other's bytecode or
test caches.

`validate` checks the layout of each file, by default of every
BENCH_*.json at the root of this repository, and that its medians are
those of its runs, made for every workload and seed above at 40 s.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FORMAT = "splitloci-bench/1"
LABELS = ("parent", "change")
WORKLOADS = ["kappa-rings", "strata-sweep", "lemma-verify"]
SEEDS = list(range(1, 11))
SECONDS = 40
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def bench_argv(workload: str, seed) -> List[str]:
    return ["bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]


def parse_run(stdout: str) -> dict:
    """The scalar provenance fields and the metrics of one run.py run,
    read from the last two non-empty lines of its output; the per-pass
    lists of the provenance are left out."""
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
        return {"provenance": provenance, "correct": last["correct"],
                "attempted": last["attempted"], "failed": last["failed"],
                "metrics": metrics, "units": units}
    except (KeyError, TypeError) as exc:
        raise ValueError("the last line lacks %s" % exc) from None


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


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


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
        tier1 = tree.get("tier1", {})
        if not _number(tier1.get("wall_s")) or not isinstance(tier1.get("summary"), str):
            raise ValueError("tree %r has no tier-1 wall time and summary" % label)
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


def _tier1(tree: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        ["src"] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    start = perf_counter()
    proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    wall = perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "exit_code": proc.returncode,
            "summary": lines[-1] if lines else ""}


def run(trees: Dict[str, str]) -> dict:
    runs, units = [], {}
    for workload in WORKLOADS:
        for k, seed in enumerate(SEEDS):
            # the first run of each pair alternates, so drift favours neither
            for label in LABELS if k % 2 == 0 else LABELS[::-1]:
                print("%s seed %d %s" % (workload, seed, label), file=sys.stderr)
                one = _bench(trees[label], label, workload, seed)
                units.update(one.pop("units"))
                runs.append(one)
    tree_info = {}
    for label in LABELS:
        print("tier-1 %s" % label, file=sys.stderr)
        sha = {r["provenance"]["source_sha256"] for r in runs if r["label"] == label}
        if len(sha) != 1:
            raise RuntimeError("the %s tree changed during the runs" % label)
        tree_info[label] = {"source_sha256": sha.pop(), "tier1": _tier1(trees[label])}
    doc = {"format": FORMAT,
           "bench_command": " ".join(["python3"] + bench_argv("<workload>", "<seed>")),
           "tier1_command": " ".join(["PYTHONPATH=src", "python3"] + TIER1[1:]),
           "seconds": SECONDS, "seeds": SEEDS,
           "workloads": WORKLOADS, "trees": tree_info, "units": units,
           "runs": runs, "medians": medians(runs)}
    validate(doc)
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
        return 0
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
