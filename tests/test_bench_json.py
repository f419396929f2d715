"""Tests for tools/bench_json.py on canned run.py output; no benchmark
is run."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_json", os.path.join(ROOT, "tools", "bench_json.py"))
bj = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bj)


def canned(sha, pass_cal, failed=0, workload="kappa-rings", seed=3):
    """What run.py prints on stdout: the provenance line, then the
    result line."""
    return "\n".join([
        json.dumps({"provenance": {"commit": None, "source_sha256": sha,
                                   "nproc": 2, "workload": workload,
                                   "seed": seed, "trace": 0, "passes": 2,
                                   "pass_s": [0.02, 0.03],
                                   "requests_per_pass": {"ci": 4}}}),
        json.dumps({"correct": failed == 0, "attempted": 24, "failed": failed,
                    "metrics": {"pass_cal": {"value": pass_cal, "unit": "loops"},
                                "ok_frac": {"value": 1.0, "unit": "ratio"}}}),
    ]) + "\n"


def test_parse_run_keeps_the_scalar_provenance_and_the_metrics():
    out = bj.parse_run("an earlier line\n\n" + canned("aa", 0.05, failed=1))
    assert out["provenance"] == {"commit": None, "source_sha256": "aa",
                                 "nproc": 2, "workload": "kappa-rings",
                                 "seed": 3, "trace": 0, "passes": 2}
    assert out["metrics"] == {"pass_cal": 0.05, "ok_frac": 1.0}
    assert out["units"] == {"pass_cal": "loops", "ok_frac": "ratio"}
    assert (out["correct"], out["attempted"], out["failed"]) == (False, 24, 1)


@pytest.mark.parametrize("stdout,message", [
    ("", "printed 0 lines"),
    ('{"correct": true}\n', "printed 1 lines"),
    ('{"provenance": {}}\nnot json\n', "not JSON"),
    ('{"no": 1}\n{"metrics": {}}\n', "no provenance"),
    ('{"provenance": {}}\n{"correct": true}\n', "no metrics"),
    ('{"provenance": {}}\n{"metrics": {"x": {"value": 1}}}\n', "lacks"),
])
def test_parse_run_rejects_other_output(stdout, message):
    with pytest.raises(ValueError, match=message):
        bj.parse_run(stdout)


def document():
    """A full document: every workload and seed, on two trees; the
    kappa-rings pass_cal of seed s is 0.050 + s/1000 on the parent and
    0.040 + s/1000 on the change."""
    runs = []
    for workload in bj.WORKLOADS:
        for seed in bj.SEEDS:
            for label, sha, base in (("parent", "aa", 0.05), ("change", "bb", 0.04)):
                run = {"label": label, "workload": workload, "seed": seed}
                run.update(bj.parse_run(canned(sha, base + seed / 1000,
                                               workload=workload, seed=seed)))
                run.pop("units")
                runs.append(run)
    return {"format": bj.FORMAT, "seconds": 40, "seeds": list(range(1, 11)),
            "workloads": ["kappa-rings", "strata-sweep", "lemma-verify"],
            "trees": {label: {"source_sha256": sha,
                              "tier1": {"wall_s": 40.0, "summary": "650 passed"}}
                      for label, sha in (("parent", "aa"), ("change", "bb"))},
            "units": {"pass_cal": "loops", "ok_frac": "ratio"},
            "runs": runs, "medians": bj.medians(runs)}


def test_medians_are_taken_per_workload_and_label():
    got = bj.medians(document()["runs"])
    assert sorted(got) == sorted(bj.WORKLOADS)
    for by_label in got.values():
        assert by_label["parent"] == {"pass_cal": pytest.approx(0.0555), "ok_frac": 1.0}
        assert by_label["change"] == {"pass_cal": pytest.approx(0.0455), "ok_frac": 1.0}


def test_validate_accepts_a_document_and_its_json_round_trip():
    doc = document()
    bj.validate(doc)
    bj.validate(json.loads(json.dumps(doc)))


def _break_medians(doc):
    doc["medians"]["kappa-rings"]["change"]["pass_cal"] = 0.04


def _subset_of_workloads(doc):
    doc["workloads"] = ["kappa-rings"]
    doc["runs"] = [r for r in doc["runs"] if r["workload"] == "kappa-rings"]
    doc["medians"] = bj.medians(doc["runs"])


def _three_seeds(doc):
    doc["seeds"] = [3, 4, 5]
    doc["runs"] = [r for r in doc["runs"] if r["seed"] in (3, 4, 5)]
    doc["medians"] = bj.medians(doc["runs"])


def _short_runs(doc):
    doc["seconds"] = 10


def _per_pass_list(doc):
    doc["runs"][0]["provenance"]["pass_s"] = [0.02, 0.03]


def _drop_run(doc):
    doc["runs"].pop()


def _repeat_run(doc):
    doc["runs"][-1] = doc["runs"][-2]


def _swap_tree(doc):
    doc["runs"][0]["provenance"]["source_sha256"] = "bb"


def _no_tier1(doc):
    del doc["trees"]["parent"]["tier1"]


def _unknown_unit(doc):
    doc["runs"][0]["metrics"]["new"] = 1.0


@pytest.mark.parametrize("breaks,message", [
    (_break_medians, "medians"), (_drop_run, "missing"),
    (_subset_of_workloads, "workloads are not"), (_three_seeds, "seeds are not"),
    (_short_runs, "seconds are not"), (_per_pass_list, "no scalar provenance"),
    (_repeat_run, "repeated"), (_swap_tree, "another tree"),
    (_no_tier1, "tier-1"), (_unknown_unit, "no unit"),
])
def test_validate_rejects_a_broken_document(breaks, message):
    doc = document()
    breaks(doc)
    with pytest.raises(ValueError, match=message):
        bj.validate(doc)


def test_validate_command(tmp_path, capsys):
    good, bad = tmp_path / "BENCH_1.json", tmp_path / "BENCH_2.json"
    good.write_text(json.dumps(document()))
    doc = document()
    _drop_run(doc)
    bad.write_text(json.dumps(doc))
    assert bj.main(["validate", str(good)]) == 0
    assert bj.main(["validate", str(good), str(bad)]) == 1
    assert "runs missing" in capsys.readouterr().err

