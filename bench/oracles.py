"""Seeded oracle inputs with closed-form answers.

Every expected answer here is computed by this file's own small
integer-polynomial arithmetic, never by splitloci, so a defect in the
package cannot hide in its own expected values. A polynomial is a dict
mapping exponent tuples (one entry per variable of a fixed list) to
nonzero integers.

Three families:

* deformed weighted monomial complete intersections
  (k1^a, k2^b, k3^c) in Q[k1, k2, k3] with weights (1, 2, 3), moved by a
  random triangular weighted automorphism. The quotient is isomorphic to
  the monomial one, so its Hilbert function is the coefficient list of
  prod_i (1 + t^w_i + ... + t^((n_i - 1) w_i)), its socle is one
  dimension in degree D = sum (n_i - 1) w_i, it is Gorenstein, it
  vanishes from degree D + 1 on, and it has 3 minimal generators;
* square matrices A = L.U with L unit lower triangular and U upper
  triangular, entries affine-linear in x, y, z; det A is the product of
  U's diagonal;
* 5x5 skew matrices with affine-linear entries; each Pfaffian quadric
  squared equals the determinant of the matching 4x4 principal minor.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Sequence, Tuple

Exps = Tuple[int, ...]
IntPoly = Dict[Exps, int]

CI_VARS = ("k1", "k2", "k3")
CI_WEIGHTS = (1, 2, 3)
MATRIX_VARS = ("x", "y", "z")

# (a, b, c) exponent shapes of the deformed complete intersections. Fixed,
# so the work per pass does not depend on the seed.
CI_SHAPES = ((4, 2, 1), (3, 3, 1), (3, 2, 2), (2, 3, 2))
LU_SIZES = (4, 4, 4, 5, 5)
SKEW_COUNT = 12


# ---------------------------------------------------------------------------
# integer polynomial arithmetic

def p_add(a: IntPoly, b: IntPoly, scale: int = 1) -> IntPoly:
    out = dict(a)
    for m, c in b.items():
        v = out.get(m, 0) + scale * c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def p_mul(a: IntPoly, b: IntPoly) -> IntPoly:
    out: IntPoly = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            v = out.get(m, 0) + c1 * c2
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def p_pow(a: IntPoly, n: int, nvars: int) -> IntPoly:
    out: IntPoly = {(0,) * nvars: 1}
    for _ in range(n):
        out = p_mul(out, a)
    return out


def p_const(c: int, nvars: int) -> IntPoly:
    return {(0,) * nvars: c} if c else {}


def p_var(i: int, nvars: int) -> IntPoly:
    return {tuple(1 if j == i else 0 for j in range(nvars)): 1}


def det_leibniz(mat: Sequence[Sequence[IntPoly]], nvars: int) -> IntPoly:
    """Determinant by the permutation expansion; for small matrices."""
    n = len(mat)
    total: IntPoly = {}
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = p_const(1, nvars)
        for i in range(n):
            term = p_mul(term, mat[i][perm[i]])
            if not term:
                break
        total = p_add(total, term, -1 if inversions % 2 else 1)
    return total


def _nonzero(rng: random.Random, bound: int = 9) -> int:
    v = rng.randint(1, bound)
    return v if rng.random() < 0.5 else -v


def _affine(rng: random.Random, nvars: int) -> IntPoly:
    """c0 + c1 v1 + ... with every coefficient nonzero, so the term
    pattern (and hence the work) is the same for every seed."""
    out = p_const(_nonzero(rng), nvars)
    for i in range(nvars):
        out = p_add(out, p_var(i, nvars), _nonzero(rng))
    return out


# ---------------------------------------------------------------------------
# deformed complete intersections

def ci_hilbert(shape: Sequence[int], weights: Sequence[int] = CI_WEIGHTS) -> List[int]:
    """Coefficients of prod_i (1 + t^w_i + ... + t^((n_i-1) w_i))."""
    series = [1]
    for n, w in zip(shape, weights):
        out = [0] * (len(series) + (n - 1) * w)
        for d, c in enumerate(series):
            for k in range(n):
                out[d + k * w] += c
        series = out
    return series


def ci_socle_degree(shape: Sequence[int], weights: Sequence[int] = CI_WEIGHTS) -> int:
    return sum((n - 1) * w for n, w in zip(shape, weights))


def ci_generators(shape: Sequence[int], rng: random.Random) -> List[IntPoly]:
    """(k1^a, k2^b, k3^c) under the weighted automorphism
    k1 -> u1 k1, k2 -> u2 k2 + v k1^2, k3 -> u3 k3 + s k1^3 + t k1 k2."""
    nv = 3
    k1, k2, k3 = (p_var(i, nv) for i in range(nv))
    u1, u2, v, u3, s, t = (_nonzero(rng) for _ in range(6))
    img1 = p_add({}, k1, u1)
    img2 = p_add(p_add({}, k2, u2), p_pow(k1, 2, nv), v)
    img3 = p_add(p_add(p_add({}, k3, u3), p_pow(k1, 3, nv), s), p_mul(k1, k2), t)
    a, b, c = shape
    return [p_pow(img1, a, nv), p_pow(img2, b, nv), p_pow(img3, c, nv)]


def ci_expected(shape: Sequence[int]) -> dict:
    """Closed-form answers, for genus parameter g = D + 2 (socle in
    degree g - 2) and the default window d_max = g + 6."""
    top = ci_socle_degree(shape)
    g = top + 2
    d_max = g + 6
    h = ci_hilbert(shape)
    gen_degrees: Dict[int, int] = {}
    for n, w in zip(shape, CI_WEIGHTS):
        gen_degrees[n * w] = gen_degrees.get(n * w, 0) + 1
    return {
        "genus": g,
        "d_max": d_max,
        "hilbert": h + [0] * (d_max + 1 - len(h)),
        "socle_degrees": [top],
        "socle_dims": [1],
        "gorenstein": True,
        "artinian_window": (top + 1, top + max(CI_WEIGHTS)),
        "minimal_generators": gen_degrees,
    }


# ---------------------------------------------------------------------------
# L.U determinants and skew Pfaffians

def lu_matrix(n: int, rng: random.Random) -> Tuple[List[List[IntPoly]], IntPoly]:
    """(A, det A) for A = L.U with affine-linear entries in x, y, z."""
    nv = len(MATRIX_VARS)
    zero: IntPoly = {}
    lower = [[p_const(1, nv) if i == j else (_affine(rng, nv) if i > j else zero)
              for j in range(n)] for i in range(n)]
    upper = [[_affine(rng, nv) if i <= j else zero for j in range(n)]
             for i in range(n)]
    a = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc: IntPoly = {}
            for k in range(min(i, j) + 1):
                acc = p_add(acc, p_mul(lower[i][k], upper[k][j]))
            a[i][j] = acc
    det = p_const(1, nv)
    for i in range(n):
        det = p_mul(det, upper[i][i])
    return a, det


def skew_matrix(rng: random.Random) -> Tuple[List[List[IntPoly]], List[IntPoly]]:
    """(M, [det of the principal minor omitting i, for i = 0..4])."""
    nv = len(MATRIX_VARS)
    m: List[List[IntPoly]] = [[{} for _ in range(5)] for _ in range(5)]
    for i in range(5):
        for j in range(i + 1, 5):
            entry = _affine(rng, nv)
            m[i][j] = entry
            m[j][i] = {k: -v for k, v in entry.items()}
    minors = []
    for drop in range(5):
        keep = [i for i in range(5) if i != drop]
        minors.append(det_leibniz([[m[i][j] for j in keep] for i in keep], nv))
    return m, minors
