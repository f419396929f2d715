"""The benchmark's own tests: closed forms against hand checks, the
tracer's bookkeeping, and metric names against BENCHMARK.json.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import pytest

import oracles
import run
import tracing

run.use_source_tree()

import splitloci  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


# ---------------------------------------------------------------------------
# closed forms

def test_fat_point_hilbert_and_socle():
    # Q[k]/(k^4) with k of weight 1: 1, k, k^2, k^3; socle k^3
    assert oracles.ci_hilbert((4,), (1,)) == [1, 1, 1, 1]
    assert oracles.ci_socle_degree((4,), (1,)) == 3
    # k of weight 2: the nonzero degrees are 0, 2, 4
    assert oracles.ci_hilbert((3,), (2,)) == [1, 0, 1, 0, 1]
    assert oracles.ci_socle_degree((3,), (2,)) == 4


def test_weighted_ci_closed_form():
    # (k1^2, k2^2, k3^2), weights (1, 2, 3): basis monomials k1^i k2^j k3^l
    # with i, j, l in {0, 1} have degrees 0, 1, 2, 3, 3, 4, 5, 6
    want = oracles.ci_expected((2, 2, 2))
    assert want["hilbert"][:7] == [1, 1, 1, 2, 1, 1, 1]
    assert not any(want["hilbert"][7:])
    assert want["socle_degrees"] == [6] and want["genus"] == 8
    assert want["artinian_window"] == (7, 9)
    assert want["minimal_generators"] == {2: 1, 4: 1, 6: 1}


def test_ci_generators_are_weighted_homogeneous():
    gens = oracles.ci_generators((3, 2, 2), random.Random(5))
    for gen, degree in zip(gens, (3, 4, 6)):
        assert {sum(e * w for e, w in zip(m, oracles.CI_WEIGHTS)) for m in gen} == {degree}


def test_two_by_two_lu_by_hand():
    nv = 3
    x = oracles.p_var(0, nv)
    # L = [[1, 0], [2, 1]], U = [[3, x], [0, 5]]: A = [[3, x], [6, 2x + 5]]
    a = [[oracles.p_const(3, nv), x],
         [oracles.p_const(6, nv), oracles.p_add(oracles.p_mul(oracles.p_const(2, nv), x),
                                                oracles.p_const(5, nv))]]
    assert oracles.det_leibniz(a, nv) == oracles.p_const(15, nv)


def test_lu_matrix_det_is_product_of_diagonal():
    mat, det = oracles.lu_matrix(2, random.Random(7))
    assert oracles.det_leibniz(mat, 3) == det


def test_skew_minors_are_squares():
    mat, minors = oracles.skew_matrix(random.Random(3))
    m = mat
    # Pf of the minor omitting row/column 0: m12 m34 - m13 m24 + m14 m23
    pf = oracles.p_add(oracles.p_add(oracles.p_mul(m[1][2], m[3][4]),
                                     oracles.p_mul(m[1][3], m[2][4]), -1),
                       oracles.p_mul(m[1][4], m[2][3]))
    assert oracles.p_mul(pf, pf) == minors[0]


# ---------------------------------------------------------------------------
# tracing

class _Toy:
    @staticmethod
    def inner(n):
        return sum(range(n))

    @staticmethod
    def outer(n):
        return _Toy.inner(n) + _Toy.inner(n)


def test_self_time_is_span_minus_children():
    tracer = tracing.Tracer()
    tracer.wrap(_Toy, "inner", "toy.inner")
    tracer.wrap(_Toy, "outer", "toy.outer")
    try:
        assert _Toy.outer(1000) == 2 * sum(range(1000))
    finally:
        tracer.restore()
    summary = tracer.summary()
    assert summary["toy.inner"]["calls"] == 2
    assert summary["toy.outer"]["calls"] == 1
    outer = summary["toy.outer"]
    assert outer["self_s"] == pytest.approx(
        outer["total_s"] - summary["toy.inner"]["total_s"], abs=1e-9)
    assert list(tracer.span_parent) == [-1, 0, 0]


def _snapshot():
    modules = {layer: getattr(splitloci, layer) for layer in run.LAYERS}
    out = {}
    for layer, module in modules.items():
        for name in tracing.public_functions(module):
            out[(layer, name)] = vars(module)[name]
    for layer, cls, method, _ in tracing.TRACED_METHODS:
        out[(cls, method)] = vars(getattr(modules[layer], cls))[method]
    return modules, out


def test_traced_pass_leaves_no_wrapper_installed():
    modules, before = _snapshot()
    tracer = tracing.Tracer()
    with tracer.installed(modules, run.HOOKS):
        with contextlib.redirect_stdout(io.StringIO()):
            assert splitloci.cli.main(["strata", "--degree", "4", "--genus", "6"]) == 0
        assert splitloci.strata.enumerate_strata is not before[("strata", "enumerate_strata")]
    assert _snapshot()[1] == before
    summary = tracer.summary()
    assert summary["cli.main"]["calls"] == 1
    assert summary["strata.enumerate_strata"]["calls"] == 1
    assert tracer.counters["strata.records"] == 5


def test_wrappers_removed_when_the_pass_raises():
    modules, before = _snapshot()
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed(modules, {}):
            raise RuntimeError("request failed")
    assert _snapshot()[1] == before


# ---------------------------------------------------------------------------
# metric names

def test_end_to_end_names_match_spec():
    req = workloads.Request("noop", lambda: None, lambda result: None)
    metrics, passes = run.timed_run([req], 0, [0.1])
    assert len(passes) == 1
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(unit == units[name] for name, (_, unit) in metrics.items())


def test_per_layer_names_match_spec():
    metrics = run.layer_metrics(tracing.Tracer(), run.PassResult(), 0.0)
    names = sorted(list(metrics) + list(run.IMPORT_METRICS))
    assert names == sorted(m["name"] for m in SPEC["per_layer"])
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(unit == units[name] for name, (_, unit) in metrics.items())


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
