"""Tests for graded Chow-class algebra, determinants, Pfaffians, and the
relation-matrix verification reports."""

import copy
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from splitloci import chowsym as cs, strata, tautring as tr
from splitloci.chowsym import FilteredBundle
from splitloci.linalg import Echelon, integer_row
from splitloci.polynomial import Poly

C2 = Poly.var("c2")


def V(name):
    return Poly.var(name)


E1, E2, E3, E4 = V("e1"), V("e2"), V("e3"), V("e4")
F1, F2, F3, F4, F5 = V("f1"), V("f2"), V("f3"), V("f4"), V("f5")
G = V("g")
_0, _1 = Poly(), Poly.const(1)
AFFINE = ("g", "e1", "e2", "e3", "e4", "f1", "f2", "f3", "f4", "f5")


def affine_row(form):
    """The coefficients of an affine form: its constant, then AFFINE."""
    assert form.total_degree() <= 1 and form.variables() <= set(AFFINE)
    coeffs = {mono[0][0] if mono else "": c for mono, c in form.terms.items()}
    return [coeffs.get(v, 0) for v in ("",) + AFFINE]


def rank(rows):
    """The rank over Q of a matrix of ints and Fractions."""
    form = Echelon()
    for row in rows:
        form.insert(integer_row(dict(enumerate(row))))
    return len(form)


Z = Poly.var("z")


class TestZReduction:
    """Classes are polynomials in z, reduced by z^2 = -c2."""

    def test_z_squared_is_minus_c2(self):
        assert cs._reduce_z(Z * Z) == -C2

    def test_pow(self):
        assert cs._reduce_z(Z ** 4) == C2 * C2
        assert cs._reduce_z(Z ** 3) == -C2 * Z

    def test_reduction_respects_products(self):
        a = 2 + V("l") + Z
        b = V("m") - 3 * Z + Z ** 2
        c = V("l") * V("m") + 1
        reduce = cs._reduce_z
        assert reduce(a * (b + c)) == reduce(reduce(a) * reduce(b) + a * c)
        assert reduce(a * b) == reduce(reduce(a) * reduce(b))

    def test_z_adds_one_to_the_codimension(self):
        # a rank-2 piece twisted by 3 has c = 1 + r1 + r2 + 6z + 3*r1*z
        # + 9z^2: r1*z lands in c2 beside r2, and 6z in c1 beside r1
        c1, c2 = cs.chern_total(
            FilteredBundle([FilteredBundle.rank2("r1", "r2", 3)]))
        assert (c1.a, c1.b) == (V("r1"), Poly.const(6))
        assert (c2.a, c2.b) == (V("r2") - 9 * C2, 3 * V("r1"))
        # the weight-0 twist alone, times z, is a codimension-1 class
        (c1,) = cs.chern_total(FilteredBundle([FilteredBundle.rank1("l", F1)]))
        assert (c1.a, c1.b) == (V("l"), F1)

    @pytest.mark.parametrize("make", [
        lambda: FilteredBundle.rank1("x", 2),
        lambda: FilteredBundle.rank2("x1", "x2", 1),
        lambda: FilteredBundle.rank2("r2", "r1", 1),
    ])
    def test_classes_of_the_wrong_codimension_rejected(self, make):
        # an unlisted name, or a swapped pair, would fall into the wrong
        # codimension of chern_total
        with pytest.raises(ValueError, match="need codimensions"):
            make()

    def test_ce_extract(self):
        c = cs.ZPair(V("l"), V("f1"))
        assert (c.a, c.b) == (V("l"), V("f1"))


# distinct first classes of weight 1 for rank-1 pieces; (weight-1,
# weight-2) class pairs for rank-2 pieces
RANK1_CLASSES = ("l", "s", "t", "m", "n")
RANK2_CLASSES = (("r1", "r2"), ("m1", "m2"), ("n1", "n2"))
TWISTS = st.one_of(st.integers(-5, 5).map(Poly.const),
                   st.sampled_from((E1, E2, F1, F2)))


@st.composite
def filtered_bundles(draw, rank2=True):
    """(pieces as (rank, classes, twist), FilteredBundle) with distinct
    classes across pieces."""
    ones = draw(st.lists(st.sampled_from(RANK1_CLASSES), unique=True,
                         min_size=0 if rank2 else 1, max_size=4))
    twos = draw(st.lists(st.sampled_from(RANK2_CLASSES), unique=True,
                         min_size=0 if ones else 1, max_size=2 if rank2 else 0))
    pieces = ([(1, (x,), draw(TWISTS)) for x in ones]
              + [(2, xs, draw(TWISTS)) for xs in twos])
    pieces = draw(st.permutations(pieces))
    bundle = FilteredBundle([FilteredBundle.rank1(cls[0], d) if rank == 1
                             else FilteredBundle.rank2(*cls, d)
                             for rank, cls, d in pieces])
    return pieces, bundle


def pair_mul(p, q):
    """(a, b)(a', b') = (aa' - bb'c2, ab' + ba'): the product of a + bz
    and a' + b'z under z^2 = -c2."""
    (a, b), (a2, b2) = p, q
    return (a * a2 - b * b2 * C2, a * b2 + b * a2)


def pair_elementary(roots, k):
    """The k-th elementary symmetric function of pairs (x_i, d_i), the
    Chern roots x_i + d_i z of a sum of line bundles."""
    total = (Poly(), Poly())
    for subset in itertools.combinations(roots, k):
        term = (Poly.const(1), Poly())
        for root in subset:
            term = pair_mul(term, root)
        total = (total[0] + term[0], total[1] + term[1])
    return total


class TestChernTotalProperties:
    @settings(max_examples=60, deadline=None)
    @given(filtered_bundles())
    def test_first_chern_class(self, drawn):
        pieces, bundle = drawn
        classes = cs.chern_total(bundle)
        assert len(classes) == sum(rank for rank, _, _ in pieces)
        c1 = classes[0]
        assert (c1.a, c1.b) == (
            sum((V(cls[0]) for _, cls, _ in pieces), Poly()),
            sum((rank * d for rank, _, d in pieces), Poly()))

    @settings(max_examples=60, deadline=None)
    @given(filtered_bundles(rank2=False))
    def test_line_bundle_sums_match_pair_expansion(self, drawn):
        pieces, bundle = drawn
        roots = [(V(cls[0]), d) for _, cls, d in pieces]
        classes = cs.chern_total(bundle)
        assert len(classes) == len(roots)
        for k, c in enumerate(classes, start=1):
            assert (c.a, c.b) == pair_elementary(roots, k)


class TestSplittingPrincipleDisplays:
    """The filtered-bundle Chern classes reproduce the printed display
    identities for each stratum shape, as exact polynomial identities."""

    def test_rank2_plus_rank1_shape(self):
        # e = (e1, e2, e2): rank-2 subbundle twisted by e2, rank-1 by e1
        bundle = FilteredBundle([FilteredBundle.rank2("r1", "r2", E2),
                                 FilteredBundle.rank1("l", E1)])
        c1, c2, c3 = cs.chern_total(bundle)
        r1, r2, l = V("r1"), V("r2"), V("l")
        assert (c1.a, c1.b) == (r1 + l, 2 * E2 + E1)
        a, b = (c2.a, c2.b)
        assert b == 2 * E2 * l + (E1 + E2) * r1
        assert a == l * r1 + r2 - (2 * E1 * E2 + E2 * E2) * C2

    def test_rank2_f_shape(self):
        # f = (f1, f2): two rank-1 pieces
        bundle = FilteredBundle([FilteredBundle.rank1("n", F2),
                                 FilteredBundle.rank1("m", F1)])
        c1, c2 = cs.chern_total(bundle)
        m, n = V("m"), V("n")
        assert (c1.a, c1.b) == (m + n, F1 + F2)
        assert (c2.a, c2.b) == (m * n - F1 * F2 * C2, F2 * m + F1 * n)

    def test_three_rank1_pieces_shape(self):
        # e = (e1, e2, e3) all distinct: three rank-1 pieces
        bundle = FilteredBundle([FilteredBundle.rank1("l", E1),
                                 FilteredBundle.rank1("s", E2),
                                 FilteredBundle.rank1("t", E3)])
        c1, c2, c3 = cs.chern_total(bundle)
        l, s, t = V("l"), V("s"), V("t")
        assert (c1.a, c1.b) == (l + s + t, E1 + E2 + E3)
        a, b = (c2.a, c2.b)
        assert b == (E2 + E3) * l + (E1 + E3) * s + (E1 + E2) * t
        assert a == (l * (s + t) + s * t
                     - (E1 * E2 + E1 * E3 + E2 * E3) * C2)

    def test_pentagonal_first_shape(self):
        # e = (e1, e2, e2, e4): rank-1 L at e4, rank-2 R at e2, rank-1 T at e1
        ve = FilteredBundle([FilteredBundle.rank1("l", E4),
                             FilteredBundle.rank2("r1", "r2", E2),
                             FilteredBundle.rank1("t", E1)])
        c1e, c2e, _, _ = cs.chern_total(ve)
        l, r1, r2, t = V("l"), V("r1"), V("r2"), V("t")
        assert (c1e.a, c1e.b)[0] == l + r1 + t
        a2, a2p = (c2e.a, c2e.b)
        assert a2p == (E1 + 2 * E2) * l + (E1 + E2 + E4) * r1 \
            + (2 * E2 + E4) * t
        assert a2 == (r2 + r1 * (l + t) + l * t
                      - (2 * E1 * E2 + E2 * E2 + E1 * E4
                         + 2 * E2 * E4) * C2)

        # f = (f1, f1, f3, f3, f5): rank-1 S at f5, rank-2 M at f3,
        # rank-2 N at f1
        vf = FilteredBundle([FilteredBundle.rank1("s", F5),
                             FilteredBundle.rank2("m1", "m2", F3),
                             FilteredBundle.rank2("n1", "n2", F1)])
        c1f, c2f, c3f, _, _ = cs.chern_total(vf)
        s, m1, m2, n1, n2 = V("s"), V("m1"), V("m2"), V("n1"), V("n2")
        b1, b1p = (c1f.a, c1f.b)
        assert b1 == s + m1 + n1
        assert b1p == F5 + 2 * F3 + 2 * F1
        b2, b2p = (c2f.a, c2f.b)
        assert b2p == (2 * F3 + 2 * F1) * s + (F5 + F3 + 2 * F1) * m1 \
            + (F5 + 2 * F3 + F1) * n1
        assert b2 == (s * (m1 + n1) + m1 * n1 + m2 + n2
                      - (2 * F5 * F3 + F3 * F3 + 2 * F5 * F1
                         + 4 * F3 * F1 + F1 * F1) * C2)
        _, b3p = (c3f.a, c3f.b)
        assert b3p == ((F3 + 2 * F1) * s * m1 + (2 * F3 + F1) * s * n1
                       + (F5 + F3 + F1) * m1 * n1
                       + (F5 + 2 * F1) * m2 + (F5 + 2 * F3) * n2
                       - (F5 * F3 * F3 + 4 * F5 * F3 * F1
                          + 2 * F3 * F3 * F1 + F5 * F1 * F1
                          + 2 * F3 * F1 * F1) * C2)

    def test_pentagonal_second_shape(self):
        # e = (e1, e2, e3, e3): rank-2 R at e3, rank-1 S at e2, rank-1 L at e1
        ve = FilteredBundle([FilteredBundle.rank2("r1", "r2", E3),
                             FilteredBundle.rank1("s", E2),
                             FilteredBundle.rank1("l", E1)])
        _, c2e, _, _ = cs.chern_total(ve)
        l, r1, r2, s = V("l"), V("r1"), V("r2"), V("s")
        a2, a2p = (c2e.a, c2e.b)
        assert a2p == (E2 + 2 * E3) * l + (E1 + E2 + E3) * r1 \
            + (E1 + 2 * E3) * s
        assert a2 == (l * r1 + l * s + r1 * s + r2
                      - (E1 * E2 + 2 * E1 * E3 + 2 * E2 * E3
                         + E3 * E3) * C2)

        # f = (f1, f2, f2, f4, f4): rank-2 M at f4, rank-2 N at f2,
        # rank-1 T at f1
        vf = FilteredBundle([FilteredBundle.rank2("m1", "m2", F4),
                             FilteredBundle.rank2("n1", "n2", F2),
                             FilteredBundle.rank1("t", F1)])
        _, c2f, c3f, _, _ = cs.chern_total(vf)
        t, m1, m2, n1, n2 = V("t"), V("m1"), V("m2"), V("n1"), V("n2")
        b2, b2p = (c2f.a, c2f.b)
        assert b2p == (2 * F4 + 2 * F2) * t + (F4 + 2 * F2 + F1) * m1 \
            + (2 * F4 + F2 + F1) * n1
        assert b2 == (t * m1 + t * n1 + m1 * n1 + m2 + n2
                      - (F4 * F4 + 4 * F4 * F2 + F2 * F2
                         + 2 * F4 * F1 + 2 * F2 * F1) * C2)
        _, b3p = (c3f.a, c3f.b)
        assert b3p == ((F4 + 2 * F2) * t * m1 + (2 * F4 + F2) * t * n1
                       + (F4 + F2 + F1) * m1 * n1
                       + (2 * F2 + F1) * m2 + (2 * F4 + F1) * n2
                       - (2 * F4 * F4 * F2 + 2 * F4 * F2 * F2
                          + F4 * F4 * F1 + 4 * F4 * F2 * F1
                          + F2 * F2 * F1) * C2)


# up to two terms c * x0^a * x1^b, c in [-4, 4] and a, b in [0, 2]
small_polys = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(0, 2), st.integers(0, 2)),
    max_size=2).map(lambda terms: sum(
        (c * Poly.var("x0", a) * Poly.var("x1", b) for c, a, b in terms),
        Poly()))


@st.composite
def poly_matrices(draw):
    n = draw(st.integers(1, 5))
    return [[draw(small_polys) for _ in range(n)] for _ in range(n)]


@st.composite
def triangular_factors(draw):
    """(L, U): L unit lower and U upper triangular, n <= 5, with small
    polynomial entries off L's diagonal and on and above U's."""
    n = draw(st.integers(1, 5))
    lower = [[draw(small_polys) if j < i else _1 if j == i else _0
              for j in range(n)] for i in range(n)]
    upper = [[draw(small_polys) if j >= i else _0 for j in range(n)]
             for i in range(n)]
    return lower, upper


def poly_leibniz(rows):
    """The determinant by the Leibniz formula in plain `Poly` arithmetic,
    skipping each permutation that meets a zero entry."""
    n = len(rows)
    total = Poly()
    for perm in itertools.permutations(range(n)):
        factors = [rows[i][j] for i, j in enumerate(perm)]
        if any(f.is_zero() for f in factors):
            continue
        term = Poly.const(1)
        for f in factors:
            term = term * f
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total = total - term if inversions % 2 else total + term
    return total


def minor_rank(rows):
    """The rank over Q(parameters): the largest k with a nonzero k x k
    minor, each minor by `poly_leibniz`."""
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    for k in range(min(nrows, ncols), 0, -1):
        for keep in itertools.combinations(range(nrows), k):
            for cols in itertools.combinations(range(ncols), k):
                if not poly_leibniz([[rows[i][j] for j in cols] for i in keep]).is_zero():
                    return k
    return 0


def registry_matrices():
    """(name, rows) for every printed and reconstructed matrix of the
    lemma registry, as printed and with the lemma's substitutions."""
    out = []
    for spec in cs.LEMMAS.values():
        for kind, rows in (("printed", spec.rows), ("reconstructed", spec.reconstructed_rows)):
            if rows is None:
                continue
            out.append(("%s %s" % (spec.lemma_id, kind), rows))
            if spec.substitutions:
                out.append(("%s %s substituted" % (spec.lemma_id, kind),
                            [[e.rewrite(spec.substitutions) for e in row] for row in rows]))
    return out


class TestDeterminants:
    @given(poly_matrices())
    def test_engines_agree_on_random_matrices(self, m):
        assert cs.det_bareiss(m) == cs.det_cofactor(m)

    @given(triangular_factors())
    def test_a_product_l_u_has_the_determinant_of_u(self, factors):
        # det(L.U) = det(L) det(U) = 1 * (U11 * ... * Unn)
        lower, upper = factors
        n = len(lower)
        product = [[sum((lower[i][k] * upper[k][j] for k in range(n)), Poly())
                    for j in range(n)] for i in range(n)]
        diagonal = Poly.const(1)
        for i in range(n):
            diagonal = diagonal * upper[i][i]
        assert cs.det_bareiss(product) == diagonal
        assert cs.det_cofactor(product) == diagonal

    def test_singular_matrix(self):
        row = [Poly.var("a"), Poly.var("b")]
        assert cs.det_bareiss([row, row]).is_zero()

    def test_integer_spot_value(self):
        m = [[Poly.const(c) for c in row]
             for row in [[2, 1, 0], [1, 3, 1], [0, 1, 2]]]
        assert cs.det(m) == Poly.const(8)

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            cs.det_bareiss([[Poly.const(1), Poly.const(2)]])

    @pytest.mark.parametrize("rows", [[[1, 2, 3], [4, 5, 6]], [[1, 2], [3]]])
    def test_cofactor_rejects_a_matrix_that_is_not_square(self, rows):
        m = [[Poly.const(c) for c in row] for row in rows]
        with pytest.raises(ValueError, match="matrix is not square"):
            cs.det_cofactor(m)

    def test_the_empty_matrix_has_determinant_one(self):
        assert cs.det_cofactor([]) == Poly.const(1)
        assert cs.det([]) == Poly.const(1)

    def test_det_raises_when_engines_disagree(self, monkeypatch):
        m = [[Poly.const(c) for c in row] for row in [[2, 1], [1, 3]]]
        monkeypatch.setattr(cs, "det_cofactor", lambda rows: Poly.const(0))
        with pytest.raises(RuntimeError, match="determinant engines disagree"):
            cs.det(m)

    def test_det_packs_once_for_both_engines(self, monkeypatch):
        pack, packings, handed = cs._slot_pack_matrix, [], []
        monkeypatch.setattr(cs, "_slot_pack_matrix",
                            lambda mat: packings.append(pack(mat)) or packings[-1])
        for name in ("det_bareiss", "det_cofactor"):
            monkeypatch.setattr(cs, name, lambda rows, engine=getattr(cs, name):
                                handed.append(rows) or engine(rows))
        for spec in cs.LEMMAS.values():
            for rows in filter(None, (spec.rows, spec.reconstructed_rows)):
                packings.clear()
                handed.clear()
                cs.det(rows)
                assert len(packings) == 1
                assert handed == [packings[0], packings[0]]
                assert isinstance(packings[0], cs.SlotPacked)

    @pytest.mark.parametrize("n,packed,calls", [
        (7, True, 0), (7, False, 0), (6, True, 1), (6, False, 1)])
    def test_the_cross_check_reads_the_matrix_size(self, n, packed, calls,
                                                   monkeypatch):
        # a SlotPacked is a tuple of six fields, so len() of one is 6 for
        # a packed matrix of any size
        m = [[Poly.const(int(i == j)) for j in range(n)] for i in range(n)]
        rows = cs._slot_pack_matrix(m) if packed else m
        cofactor, asked = cs.det_cofactor, []
        monkeypatch.setattr(cs, "det_cofactor",
                            lambda rows: asked.append(rows) or cofactor(rows))
        assert cs.det(rows) == Poly.const(1)
        assert len(asked) == calls

    @given(poly_matrices(), st.booleans())
    def test_a_packing_is_left_as_it_was(self, m, high):
        # det hands one packing to det_bareiss, then to det_cofactor. The
        # small entries put every variable in the slot, so the rows hold
        # ints; a term in x0^4096 keeps x0 in the keys, and they hold
        # dicts, which the engines must not write to either
        if high:
            m[0][0] = m[0][0] + Poly.var("x0", 4096)
        packed = cs._slot_pack_matrix(m)
        assert isinstance(packed, cs._IntSlotPacked) is not high
        rows = [list(row) for row in packed.rows]
        entries = copy.deepcopy(rows)
        assert cs.det_bareiss(packed) == cs.det_bareiss(m)
        assert packed.rows == rows == entries
        assert all(a is b for r, s in zip(packed.rows, rows) for a, b in zip(r, s))
        assert cs.det_cofactor(packed) == cs.det_cofactor(m)
        assert packed.rows == rows == entries

    def test_det_on_all_registered_matrices(self):
        # each packs all its variables, so both engines run on ints; the
        # Leibniz sum in Poly arithmetic shares no step with them
        for name, rows in registry_matrices():
            assert isinstance(cs._slot_pack_matrix(rows), cs._IntSlotPacked), name
            want = poly_leibniz(rows)
            assert cs.det_bareiss(rows) == want, name
            assert cs.det_cofactor(rows) == want, name
            assert cs.det(rows) == want, name


class TestPfaffians:
    def test_printed_quadric_forms(self):
        mat = cs.generic_skew5()
        L = {(i, j): Poly.var("L%d%d" % (i, j))
             for i in range(1, 6) for j in range(i + 1, 6)}
        q1, q2, q3, q4, q5 = cs.pfaffians(mat)
        assert q1 == L[2, 5] * L[3, 4] - L[2, 4] * L[3, 5] + L[2, 3] * L[4, 5]
        assert q2 == L[1, 5] * L[3, 4] - L[1, 4] * L[3, 5] + L[1, 3] * L[4, 5]
        assert q3 == L[1, 5] * L[2, 4] - L[1, 4] * L[2, 5] + L[1, 2] * L[4, 5]
        assert q4 == L[1, 5] * L[2, 3] - L[1, 3] * L[2, 5] + L[1, 2] * L[3, 5]
        assert q5 == L[1, 4] * L[2, 3] - L[1, 3] * L[2, 4] + L[1, 2] * L[3, 4]

    def test_quadrics_equal_sub_pfaffians(self):
        mat = cs.generic_skew5()
        qs = cs.pfaffians(mat)
        for i in range(5):
            minor = cs.principal_minor(mat, i)
            assert qs[i] == cs.pfaffian4(minor)

    def test_pfaffian_squared_is_determinant(self):
        mat = cs.generic_skew5()
        for i in range(5):
            minor = cs.principal_minor(mat, i)
            pf = cs.pfaffian4(minor)
            assert pf * pf == cs.det(minor)

    def test_skew_checks(self):
        with pytest.raises(ValueError):
            cs.pfaffian4([[Poly.const(1)] * 4 for _ in range(4)])
        with pytest.raises(ValueError):
            cs.pfaffians(cs.generic_skew5()[:4])

    def test_a_skew_matrix_of_the_other_size(self):
        mat = cs.generic_skew5()
        with pytest.raises(ValueError, match="expected a 4x4 matrix"):
            cs.pfaffian4(mat)
        with pytest.raises(ValueError, match="expected a 5x5 matrix"):
            cs.pfaffians(cs.principal_minor(mat, 0))

    def test_checks_the_5x5_matrix_once(self, monkeypatch):
        checked = []
        original = cs._check_skew

        def counted(mat):
            checked.append(len(mat))
            original(mat)

        monkeypatch.setattr(cs, "_check_skew", counted)
        cs.pfaffians(cs.generic_skew5())
        assert checked == [5]

    @pytest.mark.parametrize(
        "i,j", list(itertools.combinations(range(5), 2)) + [(2, 2)])
    def test_rejects_a_5x5_matrix_that_is_not_skew(self, i, j):
        # entry (j, i) equal to entry (i, j): symmetric, not skew, pair;
        # i == j puts 1 on the diagonal
        mat = cs.generic_skew5()
        mat[j][i] = mat[i][j] if i != j else _1
        with pytest.raises(ValueError, match="skew"):
            cs.pfaffians(mat)


class TestRankFormulas:
    def test_ce_rank_values(self):
        assert cs.ce_rank(4, 1) == 2
        assert cs.ce_rank(5, 1) == 5
        assert cs.ce_rank(5, 2) == 5

    # beta_1 = ce_rank(k, 1) counts the minimal generators of a Gorenstein
    # Artinian ring with h-vector (1, k-2, 1), the fibre of a degree-k
    # cover cut down to a point
    def test_ce_rank_5_1_counts_the_pfaffians_of_a_skew_matrix(self):
        k1, k2, k3 = V("k1"), V("k2"), V("k3")
        forms = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1),
                 (1, 0, 1), (1, 2, 0), (0, 1, 2), (2, 0, 1), (1, 1, 1)]
        mat = [[_0] * 5 for _ in range(5)]
        for (i, j), (a, b, c) in zip(itertools.combinations(range(5), 2), forms):
            mat[i][j] = a * k1 + b * k2 + c * k3
            mat[j][i] = -mat[i][j]
        q = tr.GradedQuotient(tr.WeightedIdeal((1, 1, 1), cs.pfaffians(mat)))
        assert tr.hilbert(q, 4) == [1, 3, 1, 0, 0]
        assert tr.gorenstein_check(q, 4)["gorenstein"]
        assert tr.minimal_generators(q) == {2: cs.ce_rank(5, 1)}

    def test_ce_rank_4_1_counts_two_conics(self):
        k1, k2 = V("k1"), V("k2")
        conics = [k1 * (k1 + k2), k2 * (k1 + 2 * k2)]
        q = tr.GradedQuotient(tr.WeightedIdeal((1, 1), conics))
        assert tr.hilbert(q, 4) == [1, 2, 1, 0, 0]
        assert tr.gorenstein_check(q, 4)["gorenstein"]
        assert tr.minimal_generators(q) == {2: cs.ce_rank(4, 1)}

    def test_ce_rank_out_of_range(self):
        with pytest.raises(ValueError):
            cs.ce_rank(4, 3)
        with pytest.raises(ValueError):
            cs.ce_rank(2, 1)

    def test_quadric_count(self):
        assert cs.quadric_count(9) == 21
        assert cs.quadric_count(7) == 10
        with pytest.raises(ValueError):
            cs.quadric_count(3)

    @pytest.mark.parametrize("genus", [9.0, "9", None])
    def test_quadric_count_of_a_genus_that_is_not_an_integer_raises(
            self, genus):
        # 9.0 returned the float 21.0
        with pytest.raises(TypeError):
            cs.quadric_count(genus)

    def test_sym2_chern_identity(self):
        result = cs.sym2_chern_check()
        assert result["ok"]
        assert result["odd_classes_vanish"]
        assert result["degree1_coefficients"] == [8]
        assert result["degree2_coefficients"] == [22, 14]
        assert result["degree3_coefficients"] == [28, 54, 38]


class TestLemmaReports:
    def test_registry_contents(self):
        assert set(cs.LEMMAS) == {
            "twoequalparts", "distinctparts-1", "distinctparts-2",
            "distinctparts-3i", "distinctparts-3ii",
            "shape1", "forsigma2", "forsigma3"}
        with pytest.raises(ValueError) as info:
            cs.verify_lemma("nope")
        assert str(info.value) == (
            "unknown lemma id 'nope' (known: %s)" % ", ".join(cs.LEMMAS))

    def test_twoequalparts_invertible_everywhere(self):
        report = cs.verify_lemma("twoequalparts")
        assert report.verdict == "nonvanishing-only"
        assert report.det_claimed is None
        assert report.evaluations
        assert all(ev["nonvanishing"] for ev in report.evaluations)
        # determinant factors as (e2 - e1)(f1 - f2)
        spec = cs.LEMMAS["twoequalparts"]
        assert cs.det(spec.rows) == (E2 - E1) * (F1 - F2)

    @pytest.mark.parametrize("lemma_id", [
        "distinctparts-1", "distinctparts-3i", "distinctparts-3ii",
        "shape1", "forsigma2", "forsigma3"])
    def test_closed_forms_match(self, lemma_id):
        report = cs.verify_lemma(lemma_id)
        assert report.verdict == "match"
        assert not report.is_failure

    @pytest.mark.parametrize("lemma_id", ["shape1", "forsigma2", "forsigma3"])
    def test_pentagonal_identities_need_no_substitution(self, lemma_id):
        assert cs.LEMMAS[lemma_id].substitutions == ()

    def test_distinctparts2_structured_discrepancy(self):
        report = cs.verify_lemma("distinctparts-2")
        assert report.verdict.startswith("mismatch")
        assert report.annotations  # documented, hence not a failure
        assert not report.is_failure
        assert all(ev["nonvanishing"] for ev in report.evaluations)
        # the printed matrix, the relation-derived matrix, and the claimed
        # closed form give three pairwise different polynomials
        spec = cs.LEMMAS["distinctparts-2"]
        subs = spec.substitutions  # applied in order
        printed = cs.det(
            [[e.rewrite(subs) for e in row] for row in spec.rows])
        recon = cs.det([[e.rewrite(subs) for e in row]
                        for row in spec.reconstructed_rows])
        claimed = spec.claimed.rewrite(subs)
        assert printed == 96 * (E2 - E1) * (E1 + E2 + 4)
        assert recon == 96 * (E2 - E1) * (E1 + E2 - 2)
        assert claimed == 96 * (E2 - E1) * (E1 + E2 + 1)
        assert report.reconstructed is not None
        assert report.reconstructed["matches_claimed"] is False

    def test_distinctparts2_spot_evaluation(self):
        report = cs.verify_lemma("distinctparts-2")
        spot = next(ev for ev in report.evaluations
                    if ev["stratum"]["genus"] == 9
                    and ev["stratum"]["e"] == [2, 4, 6])
        assert spot["value_claimed"] == "1344"  # 48 * 14 * 2
        assert spot["value_computed"] == "1920"
        assert spot["nonvanishing"]

    def test_row_differences_are_multiples_of_first_relation(self):
        report = cs.verify_lemma("distinctparts-2")
        diffs = report.reconstructed["row_differences"]
        assert diffs[3] == ["48", "48", "48", "0", "0"]
        assert diffs[4] == ["72", "72", "72", "0", "0"]

    def test_engineered_zero_certified_singular(self):
        report = cs.verify_lemma("distinctparts-3ii")
        zero = [ev for ev in report.evaluations if ev.get("engineered_zero")]
        assert len(zero) == 1
        ev = zero[0]
        assert ev["stratum"] == {"genus": 6, "label": None,
                                 "e": [2, 3, 4], "f": [3, 6]}
        assert ev["singular_confirmed"]
        assert ev["null_vector"] is not None
        assert ev["value_claimed"] == "0"
        assert not report.is_failure

    def test_engineered_zero_sits_on_the_lemma_strata(self):
        # an enumerated stratum meeting every atom of distinctparts-3ii but
        # g != 9 - f1, and every atom of distinctparts-3i; each atom is
        # read by Poly.evaluate, not by the table
        spec = cs.LEMMAS["distinctparts-3ii"]
        g, e, f = spec.engineered_zero
        assert (e, f) in {(r.e.parts, r.f.parts)
                          for r in strata.enumerate_strata(4, g)}
        values = {"g": g, "e1": e[0], "e2": e[1], "e3": e[2],
                  "f1": f[0], "f2": f[1]}

        def holds(form, relation):
            value = form.evaluate(values)
            return {">=": value >= 0, "==": value == 0,
                    "!=": value != 0}[relation]

        failing = [a for a in spec.hypotheses if not holds(*a)]
        assert failing == [a for a in spec.hypotheses if a[1] == "!="]
        assert len(failing) == 1
        assert all(holds(*a) for a in cs.LEMMAS["distinctparts-3i"].hypotheses)

    @pytest.mark.parametrize("lemma_id", sorted(cs.LEMMAS))
    def test_substitutions_follow_from_the_equality_atoms(self, lemma_id):
        # each var - expr lies in the affine span of the lemma's == atoms
        # and the degree sums, over the coordinates (1, g, e1.., f1..)
        spec = cs.LEMMAS[lemma_id]
        sums = {4: strata.TET_CONSTRAINTS["TOTALDEG"],
                5: strata.PENT_CONSTRAINTS["SUM_E"]
                + strata.PENT_CONSTRAINTS["SUM_F"]}[spec.degree]
        span = [affine_row(form) for form, relation
                in spec.hypotheses + sums if relation == "=="]
        base = rank(span)
        for var, expr in spec.substitutions:
            row = affine_row(V(var) - expr)
            assert rank(span + [row]) == base, (var, str(expr))
        if lemma_id == "distinctparts-3i":
            # a typo the span catches: g = 3e2 - 2 instead of 3e2 - 3
            assert rank(span + [affine_row(G - 3 * E2 + 2)]) == base + 1

    def test_pentagonal_single_applicable_strata(self):
        for lemma_id, genus, value in [("shape1", 8, "-3"),
                                       ("forsigma2", 9, "-1"),
                                       ("forsigma3", 9, "-9")]:
            report = cs.verify_lemma(lemma_id)
            assert len(report.evaluations) == 1
            ev = report.evaluations[0]
            assert ev["stratum"]["genus"] == genus
            assert ev["value_computed"] == value == ev["value_claimed"]

    def test_is_failure_semantics(self):
        base = dict(lemma="x", matrix=[], substitutions=[],
                    det_computed="1", det_claimed="2",
                    verdict="mismatch(-1)", evaluations=[])
        assert cs.LemmaReport(**base).is_failure
        annotated = dict(base, annotations=["documented-discrepancy: ..."])
        assert not cs.LemmaReport(**annotated).is_failure
        vanishing = dict(base, verdict="match", evaluations=[
            {"nonvanishing": False}])
        assert cs.LemmaReport(**vanishing).is_failure
        engineered = dict(base, verdict="match", evaluations=[
            {"nonvanishing": False, "engineered_zero": True}])
        assert not cs.LemmaReport(**engineered).is_failure
        assert cs.LemmaReport(**engineered).nonvanishing
        assert not cs.LemmaReport(**vanishing).nonvanishing
        assert cs.LemmaReport(**base).nonvanishing

    def test_verify_all(self):
        reports = cs.verify_all_lemmas()
        assert len(reports) == 8
        assert not any(r.is_failure for r in reports)
        for r in reports:
            data = r.to_dict()
            assert data["lemma"] == r.lemma

    def test_verify_all_enumerates_each_pair_once(self, monkeypatch):
        calls = []
        enumerate_strata = cs.strata.enumerate_strata

        def counting(degree, genus):
            calls.append((degree, genus))
            return enumerate_strata(degree, genus)

        monkeypatch.setattr(cs.strata, "enumerate_strata", counting)
        cs.verify_all_lemmas()
        assert sorted(calls) == sorted(set(calls))
        assert len(calls) == sum(len(r) for r in cs.EVAL_GENUS_RANGE.values())


class TestExactRowSpaces:
    def test_rank_over_parameters(self):
        assert cs._bareiss([[E1, E2], [E1 * E2, E2 * E2]])[0] == 1
        assert cs._bareiss([[E1, E2], [E2, E1]])[0] == 2
        # a column without a pivot is skipped, and the division stays exact
        assert cs._bareiss([[_0, E1, _1], [_0, E2, E1]])[0] == 2
        assert cs._bareiss([[_0, E1, _1], [_0, E1 * E2, E2]])[0] == 1
        assert cs._bareiss([[_0, _0]])[0] == 0

    def test_rank_is_generic_not_pointwise(self):
        # singular at e1 = e2 only, so full rank over Q(e1, e2)
        assert cs._bareiss([[_1, E1], [_1, E2]])[0] == 2

    def test_rowspaces(self):
        assert cs._rowspaces_agree([[_1, E1]], [[E2, E1 * E2]])
        assert not cs._rowspaces_agree([[_1, E1]], [[_1, E2]])
        assert not cs._rowspaces_agree([[_1, E1]], [[_1, E1], [_0, _1]])

    def test_printed_and_reconstructed_rows_agree(self):
        for spec in cs.LEMMAS.values():
            if spec.reconstructed_rows is not None:
                assert cs._rowspaces_agree(spec.rows, spec.reconstructed_rows)

    def test_rowspace_ranks_against_minors(self):
        # the three ranks _rowspaces_agree may take, as printed and
        # substituted: each 5 x 5 matrix packs all its variables, and so
        # does the stacked 10 x 5 one in the two variables left after
        # the substitutions; as printed, with twice the degree bounds of
        # five variables, it keeps some in the keys
        checked = 0
        for spec in cs.LEMMAS.values():
            if spec.reconstructed_rows is None:
                continue
            for subs in ((), spec.substitutions):
                a, b = ([[e.rewrite(subs) for e in row] for row in rows]
                        for rows in (spec.rows, spec.reconstructed_rows))
                for rows, ints in ((a, True), (b, True), (a + b, bool(subs))):
                    packed = cs._slot_pack_matrix(rows)
                    assert isinstance(packed, cs._IntSlotPacked) is ints
                    assert cs._bareiss(rows)[0] == minor_rank(rows)
                    checked += 1
        assert checked == 12

    def _counting_bareiss(self, monkeypatch):
        calls = []
        bareiss = cs._bareiss

        def counting(rows):
            calls.append(len(rows))
            return bareiss(rows)

        monkeypatch.setattr(cs, "_bareiss", counting)
        return calls

    def test_full_rank_pair_skips_the_stacked_elimination(self, monkeypatch):
        calls = self._counting_bareiss(monkeypatch)
        assert cs._rowspaces_agree([[_1, E1], [_0, E2]], [[E2, _0], [_1, _1]])
        assert calls == [2, 2]

    def test_equal_lower_ranks_still_stack(self, monkeypatch):
        calls = self._counting_bareiss(monkeypatch)
        # rank 1 each, in a 2-column space: the stacked rank decides
        assert not cs._rowspaces_agree([[_1, E1]], [[E2, _1]])
        assert cs._rowspaces_agree([[_1, E1]], [[E2, E1 * E2]])
        assert calls == [1, 1, 2, 1, 1, 2]
