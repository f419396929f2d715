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
                                   "seed": seed, "trace": 0, "passes": 3,
                                   "pass_s": [0.02, 0.05, 0.03],
                                   "max_report_s": [0.004, 0.002, 0.003],
                                   "ref_s": [0.01, 0.01, 0.02],
                                   "requests_per_pass": {"ci": 4}}}),
        json.dumps({"correct": failed == 0, "attempted": 24, "failed": failed,
                    "metrics": {"pass_cal": {"value": pass_cal, "unit": "loops"},
                                "ok_frac": {"value": 1.0, "unit": "ratio"}}}),
    ]) + "\n"


def test_parse_run_keeps_the_scalar_provenance_and_the_metrics():
    out = bj.parse_run("an earlier line\n\n" + canned("aa", 0.05, failed=1))
    # of the per-pass lists, only the medians of pass_s, max_report_s
    # and ref_s
    assert out["provenance"] == {"commit": None, "source_sha256": "aa",
                                 "nproc": 2, "workload": "kappa-rings",
                                 "seed": 3, "trace": 0, "passes": 3,
                                 "pass_s_median": 0.03,
                                 "max_report_s_median": 0.003,
                                 "ref_s_median": 0.01}
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
    ('{"provenance": {"pass_s": [1], "max_report_s": [1]}}\n'
     '{"correct": true, "attempted": 1, "failed": 0, "metrics": {}}\n',
     "no per-pass list 'ref_s'"),
    ('{"provenance": {"pass_s": [], "max_report_s": [1], "ref_s": [1]}}\n'
     '{"correct": true, "attempted": 1, "failed": 0, "metrics": {}}\n',
     "no per-pass list 'pass_s'"),
])
def test_parse_run_rejects_other_output(stdout, message):
    with pytest.raises(ValueError, match=message):
        bj.parse_run(stdout)


def tier1(walls, files=None):
    """A tree's tier-1 record from runs of the given wall times, each
    exiting 0, with the per-file times of the last run."""
    return bj.tier1_summary([
        {"wall_s": w, "exit_code": 0, "summary": "690 passed",
         "file_s": files or {"tests/test_a.py": 1.5, "tests/test_b.py": 0.0}}
        for w in walls])


SETUP = "import splitloci.cli"


def startup(base):
    """A start-up series of STARTUP_SPAWNS spawns, base + k/1000 s for
    k = 0, 1, ..."""
    return bj.startup_summary(
        SETUP, [base + k / 1000 for k in range(bj.STARTUP_SPAWNS)])


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
                              "tier1": tier1([40.0, 38.5, 41.0]),
                              "startup": startup(base)}
                      for label, sha, base in (("parent", "aa", 0.06),
                                               ("change", "bb", 0.05))},
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


def _one_median_missing(doc):
    del doc["runs"][3]["provenance"]["ref_s_median"]


def _median_not_a_number(doc):
    doc["runs"][5]["provenance"]["max_report_s_median"] = "0.003"


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


def _tier1_failed(doc):
    doc["trees"]["change"]["tier1"]["runs"][1]["exit_code"] = 1


def _tier1_exit_code_missing(doc):
    del doc["trees"]["change"]["tier1"]["runs"][2]["exit_code"]


def _tier1_not_the_median(doc):
    doc["trees"]["parent"]["tier1"]["wall_s"] = 38.5


def _tier1_two_runs(doc):
    tier1 = doc["trees"]["parent"]["tier1"]
    tier1["runs"].pop()
    tier1["wall_s"] = 40.0


def _tier1_negative_file_time(doc):
    doc["trees"]["parent"]["tier1"]["file_s"]["tests/test_b.py"] = -0.1


def _tier1_file_time_not_a_number(doc):
    doc["trees"]["change"]["tier1"]["file_s"]["tests/test_a.py"] = "1.5"


def _tier1_no_file_times(doc):
    doc["trees"]["change"]["tier1"]["file_s"] = {}


def _startup_in_one_tree(doc):
    del doc["trees"]["change"]["startup"]


def _startup_spawn_missing(doc):
    series = doc["trees"]["parent"]["startup"]
    doc["trees"]["parent"]["startup"] = bj.startup_summary(
        series["code"], series["spawn_s"][:-1])


def _startup_spawn_not_positive(doc):
    doc["trees"]["change"]["startup"]["spawn_s"][4] = 0.0


def _startup_spawn_not_a_number(doc):
    doc["trees"]["change"]["startup"]["spawn_s"][7] = "0.05"


def _startup_not_the_median(doc):
    doc["trees"]["parent"]["startup"]["median_s"] = 0.06


def _startup_quartile(doc):
    doc["trees"]["change"]["startup"]["q3_s"] += 0.001


def _startup_no_code(doc):
    doc["trees"]["parent"]["startup"]["code"] = ""


def _startup_other_code(doc):
    series = doc["trees"]["change"]["startup"]
    doc["trees"]["change"]["startup"] = bj.startup_summary(
        "import splitloci", series["spawn_s"])


def _legacy_tier1_failed(doc):
    doc["trees"]["parent"]["tier1"] = {"wall_s": 29.7, "exit_code": 2,
                                       "summary": "1 failed, 679 passed"}


@pytest.mark.parametrize("breaks,message", [
    (_break_medians, "medians"), (_drop_run, "missing"),
    (_subset_of_workloads, "workloads are not"), (_three_seeds, "seeds are not"),
    (_short_runs, "seconds are not"), (_per_pass_list, "no scalar provenance"),
    (_repeat_run, "repeated"), (_swap_tree, "another tree"),
    (_no_tier1, "tier-1"), (_unknown_unit, "no unit"),
    (_tier1_failed, "exited 1"), (_tier1_exit_code_missing, "exited None"),
    (_tier1_not_the_median, "not the median"), (_tier1_two_runs, "not 3"),
    (_tier1_negative_file_time, "file times"),
    (_tier1_file_time_not_a_number, "file times"),
    (_tier1_no_file_times, "file times"), (_legacy_tier1_failed, "exited 2"),
    (_one_median_missing, "per-pass medians"),
    (_median_not_a_number, "per-pass medians"),
    (_startup_in_one_tree, "60 positive start-up spawn times"),
    (_startup_spawn_missing, "60 positive start-up spawn times"),
    (_startup_spawn_not_positive, "60 positive start-up spawn times"),
    (_startup_spawn_not_a_number, "60 positive start-up spawn times"),
    (_startup_not_the_median, "median and quartiles"),
    (_startup_quartile, "median and quartiles"),
    (_startup_no_code, "no start-up code"),
    (_startup_other_code, "different code"),
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



def test_validate_accepts_one_tier1_run_per_tree_as_in_older_files():
    # the layout of BENCH_22.json to BENCH_24.json
    doc = document()
    for label, wall in (("parent", 29.7), ("change", 38.9)):
        doc["trees"][label]["tier1"] = {"wall_s": wall, "exit_code": 0,
                                        "summary": "687 passed in 38.35s"}
    bj.validate(doc)


def test_validate_accepts_runs_without_the_per_pass_medians():
    # the layout of BENCH_22.json to BENCH_30.json
    doc = document()
    for run in doc["runs"]:
        for name in bj.PER_PASS:
            del run["provenance"][name + "_median"]
    bj.validate(doc)


def test_validate_accepts_trees_without_a_start_up_series():
    # the layout of BENCH_22.json to BENCH_31.json
    doc = document()
    for tree in doc["trees"].values():
        del tree["startup"]
    bj.validate(doc)


def test_startup_summary_takes_the_median_and_quartiles():
    got = bj.startup_summary("pass", [0.5, 0.1, 0.4, 0.2, 0.3, 0.9, 0.6])
    assert got == {"code": "pass", "spawn_s": [0.5, 0.1, 0.4, 0.2, 0.3, 0.9, 0.6],
                   "median_s": 0.4, "q1_s": 0.2, "q3_s": 0.6}


def test_setup_code_is_read_from_run_py():
    spec = importlib.util.spec_from_file_location(
        "bench_run", os.path.join(ROOT, "bench", "run.py"))
    run_py = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_py)
    assert bj.setup_code(ROOT) == run_py.SETUP_CODE


def test_setup_code_of_a_tree_without_it_raises(tmp_path):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text("SETUP_SPAWNS = 9\n")
    with pytest.raises(ValueError, match="no SETUP_CODE"):
        bj.setup_code(str(tmp_path))


def test_file_seconds_sums_the_testcases_of_each_file():
    report = """<?xml version="1.0" encoding="utf-8"?><testsuites>
<testsuite name="pytest" tests="4">
<testcase classname="tests.test_a" name="test_x" file="tests/test_a.py"
 line="3" time="0.125" />
<testcase classname="tests.test_a.TestY" name="test_z" file="tests/test_a.py"
 line="9" time="1.250"><failure message="no">trace</failure></testcase>
<testcase classname="tests.test_b" name="test_w" file="tests/test_b.py"
 line="1" time="0.000" />
<testcase classname="tests.test_c" name="test_v" time="0.5" />
</testsuite></testsuites>"""
    assert bj.file_seconds(report) == {"tests/test_a.py": 1.375,
                                       "tests/test_b.py": 0.0,
                                       "tests.test_c": 0.5}


def test_tier1_summary_keeps_each_run_and_takes_medians():
    runs = [{"wall_s": w, "exit_code": 0, "summary": "s%d" % i,
             "file_s": {"a.py": w / 10, "b.py": 1.0}}
            for i, w in enumerate((30.0, 44.0, 29.0))]
    assert bj.tier1_summary(runs) == {
        "runs": [{"wall_s": 30.0, "exit_code": 0, "summary": "s0"},
                 {"wall_s": 44.0, "exit_code": 0, "summary": "s1"},
                 {"wall_s": 29.0, "exit_code": 0, "summary": "s2"}],
        "wall_s": 30.0, "file_s": {"a.py": 3.0, "b.py": 1.0}}


def test_run_times_tier1_in_alternating_pairs(monkeypatch):
    walls = {"parent": iter([30.0, 44.5, 29.7]),
             "change": iter([38.9, 43.8, 31.0])}
    order, spawned, events, read = [], [], [], []

    def bench(tree, label, workload, seed):
        events.append("bench")
        run = {"label": label, "workload": workload, "seed": seed}
        run.update(bj.parse_run(canned(tree, 0.05, workload=workload,
                                       seed=seed)))
        return run

    def tier1(tree):
        order.append(tree)
        return {"wall_s": next(walls[tree]), "exit_code": 0,
                "summary": "690 passed", "file_s": {"tests/test_a.py": 1.0}}

    def spawn(tree, code):
        assert code == SETUP
        events.append("spawn")
        spawned.append(tree)
        return 0.05 if tree == "change" else 0.06

    monkeypatch.setattr(bj, "_bench", bench)
    monkeypatch.setattr(bj, "_tier1", tier1)
    monkeypatch.setattr(bj, "_spawn", spawn)
    monkeypatch.setattr(bj, "setup_code", lambda tree: read.append(tree) or SETUP)
    doc = bj.run({"parent": "parent", "change": "change"})
    assert order == ["parent", "change", "change", "parent", "parent",
                     "change"]
    assert read == ["parent", "change"]
    # one spawn a tree for the bytecode caches, then two pairs of
    # spawns, in alternating order, after each pair of bench runs
    pairs = len(bj.WORKLOADS) * len(bj.SEEDS)
    assert events == ["spawn"] * 2 + (["bench"] * 2 + ["spawn"] * 4) * pairs
    assert spawned == ["parent", "change"] + ["parent", "change", "change",
                                              "parent"] * pairs
    for label, base in (("parent", 0.06), ("change", 0.05)):
        series = doc["trees"][label]["startup"]
        assert series["spawn_s"] == [base] * bj.STARTUP_SPAWNS
        assert series["median_s"] == series["q1_s"] == series["q3_s"] == base
    assert doc["trees"]["parent"]["tier1"]["wall_s"] == 30.0
    assert doc["trees"]["change"]["tier1"]["wall_s"] == 38.9
    assert [r["wall_s"] for r in doc["trees"]["change"]["tier1"]["runs"]] \
        == [38.9, 43.8, 31.0]
    bj.validate(doc)


def test_run_command_writes_the_file_before_validating_it(tmp_path,
                                                          monkeypatch,
                                                          capsys):
    doc = document()
    _tier1_failed(doc)
    monkeypatch.setattr(bj, "run", lambda trees: doc)
    out = tmp_path / "BENCH_9.json"
    assert bj.main(["run", "--parent", "p", "--change", "c",
                    "--out", str(out)]) == 1
    assert json.loads(out.read_text()) == doc
    assert "exited 1" in capsys.readouterr().err
