"""Group fragments, collection, cohomology counts, duality, Kummer bridge."""

import hashlib
import itertools
import random
from math import comb, isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from milnork import linalg
from milnork.abelcentral import (
    AbcGroup,
    BadSymbol,
    Mismatch,
    MultFragment,
    NotCompatible,
    TooLarge,
    duality_check,
    h2_brute_force,
    h2_predicted_dim,
    kummer_bridge,
    parse_word,
    upsilon,
    word_normal_form,
)
from milnork.abelcentral import _mod
from milnork.cli import _quadratic_fragment
from milnork.groundfield import FunctionField
from milnork.jsonio import decode_certificate
from milnork.kmilnor import KContext
from milnork.lattice import RationalSubgroup, Universe


def test_word_normal_form_defining_commutator():
    G = AbcGroup(2, 3)
    ab, central = word_normal_form("x1 x2 x1^-1 x2^-1", G)
    assert ab == (0, 0)
    assert central == (1,)


def test_word_normal_form_ell_th_power_dies():
    G = AbcGroup(2, 3)
    ab, central = word_normal_form("x1^3", G)
    assert ab == (0, 0) and central == (0,)
    ab, central = word_normal_form("x1 x2 x1 x2 x1 x2", G)
    assert ab == (0, 0)


def test_word_normal_form_bilinearity():
    G = AbcGroup(2, 5)
    a1, c1 = word_normal_form("x1 x2", G)
    a2, c2 = word_normal_form("x2 x1", G)
    assert a1 == a2 == (1, 1)
    diff = (c1[0] - c2[0]) % 5
    assert diff in (1, 4) and diff != 0


def test_word_normal_form_respects_relations():
    w = [0] * linalg.wedge_dim(2)
    w[0] = 1
    G = AbcGroup(2, 3, relations=[tuple(w)])
    _, central = word_normal_form("x1 x2 x1^-1 x2^-1", G)
    assert central == (0,)


def test_word_parsing_and_errors():
    assert parse_word("x1^2 x2^-1", 2) == [(0, 1), (0, 1), (1, -1)]
    G = AbcGroup(2, 3)
    with pytest.raises(BadSymbol):
        word_normal_form("x3", G)
    with pytest.raises(BadSymbol):
        word_normal_form("y1", G)


def test_commutator_form_kernels():
    # free: injective; fully abelian: everything; one relation: that line.
    # The commutator map on wedge coordinates is the reduction modulo the
    # relations, so its kernel is the relation subspace
    assert AbcGroup(2, 3).relations.dim == 0
    full = AbcGroup(2, 3, relations=linalg.identity(1))
    assert full.relations.dim == 1
    w = [0] * linalg.wedge_dim(3)
    w[linalg.wedge_index(0, 1, 3)] = 1
    G = AbcGroup(3, 3, relations=[tuple(w)])
    assert G.relations == linalg.Subspace(3, [w], 3)
    assert not any(G.central_reduce(w))


def _wedge_kernel(G):
    """The kernel of the commutator map computed from its matrix: the
    nullspace of the transposed matrix whose row i is the reduction of the
    i-th wedge basis vector modulo the relations."""
    rows = tuple(G.central_reduce(e) for e in linalg.identity(G.wdim))
    return linalg.Subspace(
        G.wdim, linalg.nullspace(linalg.transpose(rows), G.ell), G.ell)


@st.composite
def _abc_groups(draw):
    n = draw(st.integers(0, 7))
    ell = draw(st.sampled_from([2, 3, 5, 7]))
    wd = linalg.wedge_dim(n)
    rows = draw(st.lists(st.lists(st.integers(0, ell - 1), min_size=wd,
                                  max_size=wd), max_size=wd + 1))
    return AbcGroup(n, ell, rows)


@settings(max_examples=100, deadline=None)
@given(_abc_groups())
def test_commutator_kernel_is_the_relation_subspace(G):
    K = _wedge_kernel(G)
    assert K.basis == G.relations.basis and K.dim == G.relations.dim


def test_commutator_form_values():
    # [x1, x2] = x1 x2 x1^-1 x2^-1 collects to e_0 ^ e_1, and [x2, x1] to
    # its negative
    G = AbcGroup(3, 5)
    expected = [0] * 3
    expected[linalg.wedge_index(0, 1, 3)] = 1
    assert word_normal_form("x1 x2 x1^-1 x2^-1", G) == ((0,) * 3, tuple(expected))
    assert word_normal_form("x2 x1 x2^-1 x1^-1", G) == (
        (0,) * 3, tuple((-x) % 5 for x in expected))


# admissible (n, l) pairs, l^n <= 243
H2_PAIRS = (
    [(1, l) for l in (2, 3, 5, 7, 11, 13, 127, 131, 241)]
    + [(2, l) for l in (2, 3, 5, 7, 11, 13)]
    + [(3, l) for l in (2, 3, 5)]
    + [(4, 2), (4, 3), (5, 2), (5, 3), (6, 2), (7, 2)]
)


@pytest.mark.parametrize("n, ell", H2_PAIRS)
def test_h2_brute_force_counts(n, ell):
    res = h2_brute_force(n, ell)
    assert res.dim == h2_predicted_dim(n, ell)
    assert res.dim == (comb(n + 1, 2) if ell == 2 else comb(n, 2) + n)
    assert len(res.basis) == res.dim


def test_h2_basis_cocycles_satisfy_identity():
    rng = random.Random(0)
    for n, ell in ((2, 3), (2, 13), (1, 131)):
        res = h2_brute_force(n, ell)
        els = list(itertools.product(range(ell), repeat=n))
        zero = (0,) * n

        def add(a, b):
            return tuple((x + y) % ell for x, y in zip(a, b))

        for vec in res.basis:
            f = res.cocycle(vec)
            assert all(f(zero, h) == 0 for h in els)
            for _ in range(40):
                g, h, k = (rng.choice(els) for _ in range(3))
                assert (f(g, h) + f(add(g, h), k)) % ell == \
                    (f(h, k) + f(g, add(h, k))) % ell


@pytest.mark.parametrize("n, ell", [(1, 1), (1, 4), (1, 0), (2, 9), (-1, 3),
                                    (1, "3"), (1.0, 3)])
def test_h2_rejects_bad_parameters(n, ell):
    with pytest.raises(ValueError) as exc:
        h2_brute_force(n, ell)
    assert not isinstance(exc.value, TooLarge)


def test_h2_trivial_group():
    res = h2_brute_force(0, 3)
    assert res.dim == 0 and res.basis == []


def _peeled_system(n, l):
    """The cocycle rows, built one at a time through the peeling recursion
    f(g, h+e_j) = f(g, h) + f(g+h, e_j) - f(h, e_j), and the coboundary
    rows, as tuples mod l."""
    els = list(itertools.product(range(l), repeat=n))
    col = {(g, j): i * n + j for i, g in enumerate(els) for j in range(n)}
    zero = (0,) * n

    def add(a, b):
        return tuple((x + y) % l for x, y in zip(a, b))

    def unit(j):
        return tuple(int(i == j) for i in range(n))

    def hat(g, h):
        row = [0] * len(col)
        gg, pp = g, zero
        for j in range(n):
            for _ in range(h[j]):
                row[col[(gg, j)]] += 1
                row[col[(pp, j)]] -= 1
                gg, pp = add(gg, unit(j)), add(pp, unit(j))
        return row

    rows = set()
    for g in els:
        for h in els:
            for j in range(n):
                row = hat(g, h)
                row[col[(add(g, h), j)]] += 1
                row[col[(h, j)]] -= 1
                row = [a - b for a, b in zip(row, hat(g, add(h, unit(j))))]
                rows.add(tuple(x % l for x in row))
    for j in range(n):
        rows.add(tuple(int(c == col[(zero, j)]) for c in range(len(col))))
    cobound = []
    for c in els[1:]:
        vec = [0] * len(col)
        for g in els:
            for j in range(n):
                vec[col[(g, j)]] += ((g == c) + (unit(j) == c)
                                     - (add(g, unit(j)) == c))
        cobound.append(tuple(x % l for x in vec))
    return sorted(rows), cobound


@pytest.mark.parametrize("n, ell", [(1, 3), (2, 2), (2, 3), (2, 5), (2, 7),
                                    (3, 3), (4, 2)])
def test_h2_matches_row_by_row_solver(n, ell):
    # the same system solved with the pure-Python linear algebra; duplicate
    # rows are dropped, which leaves the row space alone.  It keeps the rows
    # of every first argument g, where h2_brute_force builds only those of
    # the generators, so it also checks that these span the rest
    rows, cobound = _peeled_system(n, ell)
    Z = linalg.nullspace(rows, ell)
    B = linalg.rref(cobound, ell)[0]
    stack, basis = list(B), []
    for z in Z:
        if linalg.rank(stack + [z], ell) > len(stack):
            stack.append(z)
            basis.append(z)
    res = h2_brute_force(n, ell)
    assert res.dim == len(Z) - len(B) == len(basis)
    assert res.basis == basis


# sha256 of repr(basis), pinned so that a change to the elimination cannot
# move the quotient basis unnoticed
H2_BASIS_SHA256 = {
    (3, 5): "34967214b858a392a29c95670512cffb8ec12f53db34f1cbc8e4302c3208a8ab",
    (4, 3): "5e587906d5e7e396700ac7d7349c8daa179749eecc8e94f8daa09ffab9d66f94",
    (2, 13): "5d75a7fb09648188d87a8c86480dd3745a7820521187711ccecb3f2bce35cab9",
    (1, 131): "fdfe71163c7a8113f2ba8a0a0d42b2994964f0a6c9bd65df396e6b4f90a0e7af",
    (6, 2): "d09096df477f87ef4816427a16243e517d29ebd6c621313ecd0050171ee9d2d0",
    (5, 3): "14dadc3ce600d5092b339e9ec1150c87eaa0ff2d2703af948e7da627164b625a",
    (7, 2): "d5dbe0ca5b28887090036f1f135353aa57f35110a7c4a553328cae88db22e346",
}


@pytest.mark.parametrize("n, ell", sorted(H2_BASIS_SHA256))
def test_h2_basis_pinned(n, ell):
    res = h2_brute_force(n, ell)
    digest = hashlib.sha256(repr(res.basis).encode()).hexdigest()
    assert digest == H2_BASIS_SHA256[(n, ell)]


PRIMES_TO_241 = [p for p in range(2, 242)
                 if all(p % q for q in range(2, isqrt(p) + 1))]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PRIMES_TO_241), st.data())
# the quotient floor(x * (1/l)) is one too large at l = 3 for some
# x = -(3k + 1) near -2^53, and one too small at l = 103 for x = 103 and 206
@example(3, None)
@example(103, None)
def test_mod_matches_python_remainder(ell, data):
    # _mod is exact on integers x with |x| <= 2^53 - 2l: k l - 1, k l and
    # k l + 1 near both ends of that range and near 0, and drawn integers
    bound = 2 ** 53 - 2 * ell
    top = bound // ell
    xs = [s * (k * ell + d) for k in (top - 2, top - 1, top, 0, 1, 2)
          for d in (-1, 0, 1) for s in (1, -1)]
    xs = [x for x in xs if abs(x) <= bound]
    if data is not None:
        xs += data.draw(st.lists(st.integers(-bound, bound), max_size=40))
    arr = np.array(xs, dtype=np.float64)
    assert arr.tolist() == xs
    assert _mod(arr, ell).tolist() == [x % ell for x in xs]


def test_h2_too_large():
    with pytest.raises(TooLarge):
        h2_brute_force(4, 5)


def _pairing_identity_exhaustive(G):
    """<Upsilon(f), e_i ^ e_j> = f([e_i, e_j]) for every basis functional
    f of the annihilator and every i < j, side by side: Upsilon(f) is f on
    wedge coordinates, and [e_i, e_j] is e_i ^ e_j reduced modulo the
    relations."""
    n, l = G.rank, G.ell
    for f in G.relations.annihilator().basis or ():
        for i, j in itertools.combinations(range(n), 2):
            e = linalg.identity(n)
            com = G.central_reduce(linalg.wedge_vec(e[i], e[j], n, l))
            if f[linalg.wedge_index(i, j, n)] % l != sum(
                    a * b for a, b in zip(f, com)) % l:
                return False
    return True


def test_upsilon_free_case():
    G = AbcGroup(2, 3)
    assert upsilon(G).pairing_identity_holds()
    assert _pairing_identity_exhaustive(G)


def test_upsilon_image_is_annihilator():
    w = [0] * linalg.wedge_dim(3)
    w[linalg.wedge_index(0, 1, 3)] = 1
    G = AbcGroup(3, 3, relations=[tuple(w)])
    ann = G.relations.annihilator()
    assert ann.dim == 2 and not ann.contains(tuple(w))
    assert upsilon(G).pairing_identity_holds()
    assert _pairing_identity_exhaustive(G)


def test_upsilon_fully_abelian():
    G = AbcGroup(2, 3, relations=linalg.identity(1))
    assert upsilon(G).pairing_identity_holds()
    assert _pairing_identity_exhaustive(G)


@pytest.mark.parametrize("n", range(1, 9))
def test_free_case_injectivity(n):
    G = AbcGroup(n, 3)
    assert G.relations.dim == 0
    assert _wedge_kernel(G).dim == 0


def test_duality_random_relation_subspaces():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randrange(2, 6)
        wd = linalg.wedge_dim(n)
        W = [tuple(rng.randrange(3) for _ in range(wd))
             for _ in range(rng.randrange(0, wd + 1))]
        mult = MultFragment(n, 3, W)
        G = AbcGroup(n, 3, mult.kernel.basis)
        assert duality_check(mult, G)["passed"]
        assert G.relations == mult.kernel


def test_duality_mismatch_witnessed():
    mult = MultFragment(2, 3, [(1,)])
    with pytest.raises(Mismatch) as exc:
        duality_check(mult, AbcGroup(2, 3))
    assert exc.value.witness is not None


def _kring_fragment(ctx, gens, budget):
    """The pairs of the pipeline's kring stage on a Universe of the
    generators, and the multiplication fragment whose kernel holds a vector
    for each vanishing pair."""
    universe = Universe(ctx, [RationalSubgroup(ctx, g) for g in gens],
                        budget=budget)
    pairs = _quadratic_fragment(universe)["pairs"]
    n = len(gens)
    kernel = []
    for entry in pairs:
        if entry["relation"] in ("equal-classes", "vanishes-by-dimension"):
            vec = [0] * linalg.wedge_dim(n)
            vec[linalg.wedge_index(*entry["pair"], n)] = 1
            kernel.append(tuple(vec))
    return pairs, MultFragment(n, ctx.ell, kernel)


def test_duality_from_certified_symbols(ctx5, ff5):
    # independent coordinates give a full-rank multiplication fragment
    pairs, mult = _kring_fragment(ctx5, [ff5.var(i) for i in range(4)], 48)
    assert mult.kernel.dim == 0
    assert [e["relation"] for e in pairs] == ["independent"] * 6
    assert all("certificate" in e for e in pairs)
    G = AbcGroup(4, 3, mult.kernel.basis)
    assert duality_check(mult, G)["passed"]


def test_duality_from_symbols_detects_equal_classes(ctx5, ff5):
    cube = (ff5.var(1) + ff5.const(1)) ** 3
    gens = [ff5.var(0), ff5.var(0) * cube]
    pairs, mult = _kring_fragment(ctx5, gens, 48)
    assert mult.kernel.dim == 1
    assert [e["relation"] for e in pairs] == ["equal-classes"]
    assert duality_check(mult, AbcGroup(2, 3, mult.kernel.basis))["passed"]


def test_from_symbols_files_a_pair_in_one_variable_as_a_kernel_vector(
        tower7):
    # t0 and t0 + 1 lie in the one-variable field F_p(t0), where every
    # degree-two symbol dies: the pair is a kernel vector, not unknown
    ff = FunctionField(tower7, 3)
    t0, t1 = ff.var(0), ff.var(1)
    gens = [t0, t0 + ff.const(1), t1, t0 * t1]
    pairs, mult = _kring_fragment(KContext(ff, 3), gens, 16)
    assert mult.kernel.dim == 1
    assert not any(e["relation"] == "unknown" for e in pairs)
    assert mult.kernel.contains((1, 0, 0, 0, 0, 0))
    certified = [e for e in pairs if "certificate" in e]
    assert [e["pair"] for e in certified] == [[0, 2], [0, 3], [1, 2], [1, 3],
                                              [2, 3]]
    assert all(decode_certificate(ff, e["certificate"]).replay()
               for e in certified)
    G = AbcGroup(4, 3, mult.kernel.basis)
    assert duality_check(mult, G)["passed"]
    assert not any(word_normal_form("x1 x2 x1^-1 x2^-1", G)[1])


def _kummer_identity_holds(phi, psi, l, BK=None, BL=None):
    """The defining identity of psi, pairing_L(sigma, phi x) =
    pairing_K(psi sigma, x), on basis vectors sigma = e_i and x = e_j, where
    it reads (BL phi)[i][j] = (psi^T BK)[i][j]; BK and BL default to the
    identity."""
    n = len(phi)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    BK, BL = BK or eye, BL or eye
    return all(sum(BL[i][k] * phi[k][j] for k in range(n)) % l
               == sum(psi[k][i] * BK[k][j] for k in range(n)) % l
               for i in range(n) for j in range(n))


def test_kummer_bridge_identity_and_scalars():
    mult = MultFragment(3, 5, [])
    ident = linalg.identity(3)
    assert kummer_bridge(ident, mult, mult) == ident
    for eps in (2, 3, 4):
        scaled = tuple(tuple((eps * x) % 5 for x in row) for row in ident)
        assert kummer_bridge(scaled, mult, mult) == scaled


def test_kummer_bridge_random_fragments():
    rng = random.Random(13)
    l = 3
    for _ in range(30):
        n = rng.randrange(2, 5)
        wd = linalg.wedge_dim(n)
        W = [tuple(rng.randrange(l) for _ in range(wd))
             for _ in range(rng.randrange(0, wd))]
        mult_K = MultFragment(n, l, W)
        while True:
            phi = tuple(tuple(rng.randrange(l) for _ in range(n))
                        for _ in range(n))
            if linalg.is_invertible(phi, l):
                break
        wphi = linalg.wedge_map(phi, n, l)
        WL = [linalg.mat_vec(wphi, v, l) for v in mult_K.kernel.basis]
        mult_L = MultFragment(n, l, WL)
        psi = kummer_bridge(phi, mult_K, mult_L)
        assert _kummer_identity_holds(phi, psi, l)
        eps = rng.randrange(1, l)
        scaled = tuple(tuple((eps * x) % l for x in row) for row in phi)
        assert kummer_bridge(scaled, mult_K, mult_L) == tuple(
            tuple((eps * x) % l for x in row) for row in psi)


def test_kummer_bridge_contravariant_composition():
    rng = random.Random(5)
    l, n = 3, 3
    mult = MultFragment(n, l, [])

    def rand_inv():
        while True:
            m = tuple(tuple(rng.randrange(l) for _ in range(n))
                      for _ in range(n))
            if linalg.is_invertible(m, l):
                return m

    f1, f2 = rand_inv(), rand_inv()
    comp = linalg.mat_mul(f2, f1, l)
    lhs = kummer_bridge(comp, mult, mult)
    rhs = linalg.mat_mul(kummer_bridge(f1, mult, mult),
                         kummer_bridge(f2, mult, mult), l)
    assert lhs == rhs


def test_kummer_bridge_nontrivial_pairings():
    l, n = 5, 2
    mult = MultFragment(n, l, [])
    BK = ((2, 1), (1, 1))
    BL = ((1, 0), (3, 1))
    phi = ((1, 1), (0, 1))
    psi = kummer_bridge(phi, mult, mult, pairing_K=BK, pairing_L=BL)
    assert _kummer_identity_holds(phi, psi, l, BK, BL)
    assert not _kummer_identity_holds(phi, psi, l)


def test_kummer_bridge_incompatible():
    with pytest.raises(NotCompatible):
        kummer_bridge(linalg.identity(2),
                      MultFragment(2, 3, [(1,)]),
                      MultFragment(2, 3, []))


def test_abc_group_json_roundtrip():
    from milnork.jsonio import decode_abc_group

    w = [0] * linalg.wedge_dim(3)
    w[1] = 1
    G = AbcGroup(3, 5, relations=[tuple(w)])
    G2 = decode_abc_group({"rank": 3, "ell": 5, "relations": [
        list(v) for v in G.relations.basis]})
    assert G2.rank == 3 and G2.ell == 5
    assert G2.relations == G.relations


@pytest.mark.parametrize("n", range(2, 7))
def test_upsilon_pairing_exhaustive_up_to_rank_six(n):
    rng = random.Random(n)
    wd = linalg.wedge_dim(n)
    W = [tuple(rng.randrange(3) for _ in range(wd))
         for _ in range(rng.randrange(0, 3))]
    G = AbcGroup(n, 3, relations=W)
    assert upsilon(G).pairing_identity_holds()
    assert _pairing_identity_exhaustive(G)


def test_linalg_guards():
    # a singular matrix has no inverse and a rank-deficient system no
    # presolver; wedge coordinates need i < j < n, and a product with an
    # empty right factor keeps one empty row per row of the left one
    with pytest.raises(ValueError, match="not invertible"):
        linalg.inverse(((1, 2), (2, 4)), 7)
    with pytest.raises(ValueError, match="full column rank"):
        linalg.presolve(((1, 2), (2, 4)), 7)
    for i, j in ((1, 1), (1, 0), (0, 3)):
        with pytest.raises(ValueError, match="i < j"):
            linalg.wedge_index(i, j, 3)
    assert linalg.mat_mul(((), ()), (), 5) == ((), ())
