"""Rational subgroups, divisors, recovery recipes, delta sets, rigidity."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milnork import lattice, linalg
from milnork.groundfield import INF, CoordValuation, FieldTower, FunctionField
from milnork.kmilnor import UNKNOWN, KContext
from milnork.lattice import (
    CERTIFIED,
    RANK,
    RELATION,
    SEARCHED,
    SUPERSET,
    CounterexampleReport,
    DimUnknown,
    LatticeFragment,
    NotPreserving,
    RationalFragmentData,
    RationalSubgroup,
    RigidityInstance,
    SubgroupFragment,
    Universe,
    ZeroInput,
    delta_set,
    div_ell,
    epsilon_rigidity_check,
    milnor_dim_bounds,
    omega,
    recover_rank_1,
    recover_rank_r,
)


@pytest.fixture(scope="module")
def subs(ctx5, ff5):
    return [RationalSubgroup(ctx5, ff5.var(i), "t%d" % i) for i in range(5)]


def test_omega_examples(ctx5, ff5):
    assert omega(ctx5, [ff5.var(0)]).rank == 1
    assert omega(ctx5, [ff5.var(0), ff5.var(1)]).rank == 2
    trivial = omega(ctx5, [ff5.const(4)])
    assert trivial.rank == 0 and not trivial.generators
    with pytest.raises(ZeroInput):
        omega(ctx5, [ff5.zero()])


def test_omega_distinguishes_subfields(ctx5, ff5):
    # distinct rank-one subfields are separated by a certificate
    a = omega(ctx5, [ff5.var(0)])
    b = omega(ctx5, [ff5.var(1)])
    cert = ctx5.certificate_search([a.generators[0], b.generators[0]],
                                   budget=40, shifts=True)
    assert cert is not UNKNOWN


def test_div_ell_examples(ctx5, subs, tower7):
    A = subs[0]
    T = A.param.var(0)
    one, two = A.param.const(1), A.param.const(2)
    d = div_ell((T - one) / (T - two), A)
    assert d == {tower7.from_int(1).compress_key(): 1,
                 tower7.from_int(2).compress_key(): 2}
    d = div_ell(T, A)
    assert d == {tower7.zero().compress_key(): 1, "inf": 2}
    assert div_ell((T - one) ** 3, A) == {}


def test_div_ell_sum_zero_and_trivial_kernel(ctx5, subs, tower7):
    rng = random.Random(4)
    ell = ctx5.ell
    for k in range(60):
        A = subs[k % 5]
        T = A.param.var(0)
        g = A.param.one()
        for _ in range(rng.randrange(1, 4)):
            a = tower7.from_int(rng.randrange(7))
            e = rng.randrange(1, 4)
            g = g * (T - A.param.const(a)) ** e
        for _ in range(rng.randrange(0, 3)):
            a = tower7.from_int(rng.randrange(7))
            g = g / (T - A.param.const(a))
        d = div_ell(g, A)
        assert sum(d.values()) % ell == 0
        # kernel on declared members is trivial: zero divisor means the
        # member is a constant times an l-th power
        if not d:
            lifted = {}
            for poly, sign in ((g.num, 1), (g.den, -1)):
                if poly.is_constant():
                    continue
                for root, mult in A.param.univariate_roots(poly):
                    key = root.compress_key()
                    lifted[key] = lifted.get(key, 0) + sign * mult
            assert all(v % ell == 0 for v in lifted.values())


def test_delta_set_examples(ctx5, subs, ff5, tower7):
    A = subs[0]
    vals = [ff5.valuation(0, 0), ff5.valuation(1, 0),
            CoordValuation(0, INF, 5)]
    ds = delta_set(A, vals)
    assert len(ds) == 2
    points = [("inf" if e.point is INF else e.point.compress_key())
              for e in ds]
    assert tower7.zero().compress_key() in points and "inf" in points
    for e in ds:
        assert e.ram == 1
        # index-l condition: some member maps onto a generator of A/A_v
        T = A.param.var(0)
        member = T if e.point is INF else T - A.param.const(e.point)
        assert e.member_value(A, member) % ctx5.ell != 0


def test_delta_set_skips_ell_ramified(ctx5, ff5, subs):
    # A member valuation with l | ramification keeps the subgroup inside
    # the units and produces no entry
    t0 = ff5.var(0)
    A3 = RationalSubgroup(ctx5, t0 ** 3, "t0cubed")
    ds = delta_set(A3, [ff5.valuation(0, 0)])
    assert len(ds) == 0
    A2 = RationalSubgroup(ctx5, t0 ** 2, "t0squared")
    ds = delta_set(A2, [ff5.valuation(0, 0)])
    assert len(ds) == 1 and ds.entries[0].ram == 2


def test_universe_rank_and_closure(ctx5, subs, ff5):
    gens = [s.gen for s in subs[:3]]
    extra = RationalSubgroup(ctx5, ff5.var(0) + ff5.var(1), "t0+t1")
    uni = Universe(ctx5, subs[:3] + [extra], budget=48)
    assert uni.rank(frozenset([0])) == 1
    assert uni.rank(frozenset([0, 1])) == 2
    assert uni.rank(frozenset([0, 1, 3])) == 2
    assert uni.closure(frozenset([0, 1])) == frozenset([0, 1, 3])
    assert uni.closure(frozenset([2])) == frozenset([2])


def test_independent_dependence_short_cuts(ctx5, subs, ff5, monkeypatch):
    extra = RationalSubgroup(ctx5, ff5.var(0) * ff5.var(1), "t0*t1")
    uni = Universe(ctx5, subs + [extra], budget=48)
    assert uni.independent(frozenset([0, 1, 5])) is False
    calls = []
    jacobian_rank = ctx5.jacobian_rank

    def spy(gens):
        calls.append(len(gens))
        return jacobian_rank(gens)

    monkeypatch.setattr(ctx5, "jacobian_rank", spy)
    # a superset of a cached dependent set, and more members than variables
    assert uni.independent(frozenset([0, 1, 2, 5])) is False
    assert uni.independent(frozenset(range(6))) is False
    assert calls == []
    assert uni.independent(frozenset([0, 2, 5])) is True
    assert uni.independent(frozenset(range(5))) is True
    # dependence is decided without a Jacobian; {0, 2, 5} has a nonlinear
    # member, so its own Jacobian is checked, and it is extended before its
    # search: t1 is rejected (t0*t1 is in the set already), t3 and t4 are
    # kept; range(5) has nvars members and is not extended
    assert calls == [3, 4, 4, 5]


def test_p_power_mixtures_are_independent():
    # p = 3: the Jacobian of x + y^3 forgets y^3, so the rank of
    # [x, x + y^3] is 1, yet the pair carries a certified symbol
    ff = FunctionField(FieldTower(3, seed=0), 2)
    ctx = KContext(ff, 2)
    x, y = ff.var(0), ff.var(1)
    gens = [x, y, x + y ** 3]
    uni = Universe(ctx, [RationalSubgroup(ctx, g, "g%d" % i)
                         for i, g in enumerate(gens)])
    assert ctx.jacobian_rank([x, x + y ** 3]) == 1
    assert uni.independent(frozenset([0, 2])) is True
    assert [uni.rank(frozenset(k)) for k in ([0], [0, 2], [1, 2])] == [1, 2, 2]
    assert uni.closure(frozenset([0])) == frozenset([0])


def test_dependence_without_witness_is_unknown(ff2):
    # {xy, (xy)^2} vanishes and the Jacobian rank is 1, but the pair uses
    # two variables and is not linear: no witness, so no dependent answer
    ctx = KContext(ff2, 3)
    xy = ff2.var(0) * ff2.var(1)
    uni = Universe(ctx, [RationalSubgroup(ctx, g, "g%d" % i)
                         for i, g in enumerate([xy, xy ** 2])], budget=16)
    with pytest.raises(DimUnknown):
        uni.independent(frozenset([0, 1]))


def test_polynomials_in_one_form_are_dependent(ff2):
    # x + y and (x + y)^2 + 3 both lie in k(x + y): the F_p rank of their
    # inner forms witnesses the dependence, with no search
    ctx = KContext(ff2, 3)
    u = ff2.var(0) + ff2.var(1)
    uni = Universe(ctx, [RationalSubgroup(ctx, g, "g%d" % i)
                         for i, g in enumerate([u, u * u + ff2.const(3)])],
                   budget=16)
    assert uni.independent(frozenset([0, 1])) is False
    assert uni.rank(frozenset([0, 1])) == 1
    assert all(rec.answer is not None for rec in uni._records.values())


def test_rank_deficient_jacobian_is_not_extended(monkeypatch):
    # {xy, (xy)^2}: its own Jacobian has rank 1, so no member can enlarge
    # it to full rank, and none is probed before the search that fails
    ff = FunctionField(FieldTower(7, seed=0), 3)
    ctx = KContext(ff, 3)
    t = [ff.var(i) for i in range(3)]
    xy = t[0] * t[1]
    gens = t + [t[0] + t[2], xy, xy ** 2]
    uni = Universe(ctx, [RationalSubgroup(ctx, g, "g%d" % i)
                         for i, g in enumerate(gens)], budget=16)
    sizes = []
    jacobian_rank = ctx.jacobian_rank

    def spy(gens):
        sizes.append(len(gens))
        return jacobian_rank(gens)

    monkeypatch.setattr(ctx, "jacobian_rank", spy)
    with pytest.raises(DimUnknown) as err:
        uni.independent(frozenset([4, 5]))
    assert err.value.candidates == [frozenset([4, 5])]
    assert sizes == [2]


class SearchEverySet(Universe):
    """The oracle with neither the rank rule nor the certified-superset
    rule: every set that passes the Jacobian is searched on its own, and
    an UNKNOWN search is final.  Its answers, None for unresolved, are in
    answers."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.answers = {}

    def independent(self, indices):
        key = frozenset(indices)
        if key not in self.answers:
            self.answers[key] = self._search_every_set(key)
        if self.answers[key] is None:
            raise DimUnknown([key])
        return self.answers[key]

    def _search_every_set(self, key):
        if len(key) > self.ctx.nvars or any(
                self.answers.get(key - {i}) is False for i in key):
            return False
        gens = [self.subgroups[i].gen for i in sorted(key)]
        if self.ctx.jacobian_rank(gens) < len(key):
            return False
        cert = self.ctx.certificate_search(gens, budget=self.budget,
                                           shifts=True)
        return None if cert is UNKNOWN else True


_LINEAR_CONTEXTS = {}


def _linear_context(p, nvars):
    if (p, nvars) not in _LINEAR_CONTEXTS:
        ff = FunctionField(FieldTower(p, seed=0), nvars)
        _LINEAR_CONTEXTS[(p, nvars)] = KContext(ff, 3)
    return _LINEAR_CONTEXTS[(p, nvars)]


@st.composite
def linear_universes(draw):
    p = draw(st.sampled_from([5, 7]))
    nvars = draw(st.integers(4, 5))
    row = st.lists(st.integers(0, p - 1), min_size=nvars,
                   max_size=nvars).filter(any)
    rows = draw(st.lists(row, min_size=6, max_size=10))
    consts = draw(st.lists(st.integers(0, p - 1), min_size=len(rows),
                           max_size=len(rows)))
    subsets = st.frozensets(st.integers(0, len(rows) - 1), max_size=len(rows))
    queries = draw(st.lists(subsets, min_size=1, max_size=6))
    return p, nvars, [tuple(r) for r in rows], consts, queries


def _linear_gens(ff, rows, consts):
    """The linear forms sum_i row[i] t_i + c."""
    gens = []
    for row, c in zip(rows, consts):
        g = ff.const(c)
        for i, a in enumerate(row):
            g = g + ff.const(a) * ff.var(i)
        gens.append(g)
    return gens


@settings(max_examples=20, deadline=None)
@given(linear_universes())
def test_universe_matches_prime_field_rank(case):
    # oracle: linear forms over F_p are algebraically independent exactly
    # when their coefficient vectors are linearly independent
    p, nvars, rows, consts, queries = case
    ctx = _linear_context(p, nvars)
    subs = [RationalSubgroup(ctx, g, "g%d" % j)
            for j, g in enumerate(_linear_gens(ctx.field, rows, consts))]

    def truth(key):
        return linalg.rank(tuple(rows[i] for i in sorted(key)), p)

    new, old = Universe(ctx, subs, budget=64), SearchEverySet(ctx, subs,
                                                               budget=64)
    for key in queries:
        r = truth(key)
        closed = frozenset(i for i in range(len(rows))
                           if truth(key | {i}) == r)
        for uni in (new, old):
            assert uni.rank(key) == r
            assert uni.closure(key) == closed
    answers = {key: rec.answer for key, rec in new._records.items()}
    for got in (answers, old.answers):
        for key, indep in got.items():
            assert indep == (truth(key) == len(key)), sorted(key)
    for key in set(answers) & set(old.answers):
        assert answers[key] == old.answers[key]
    # every record replays, checked here against the drawn rows: an
    # independent set's certificate has a nonzero value, and a dependent
    # set's relation vanishes mod p
    assert new.replay() == []
    for key, rec in new._records.items():
        if rec.answer:
            cert = ctx.straightened_certificate(new._gens(key), True)
            assert cert.value % ctx.ell and cert.replay(), sorted(key)
        else:
            members = [rows[i] for i in sorted(key)]
            assert any(rec.witness) and not any(
                sum(c * row[j] for c, row in zip(rec.witness, members)) % p
                for j in range(nvars)), sorted(key)


@settings(max_examples=20, deadline=None)
@given(linear_universes(), st.lists(st.tuples(st.integers(0, 9),
                                              st.integers(0, 6)), max_size=2))
def test_kept_echelons_match_fresh_reduction(case, squares):
    # a linear universe with up to two members (L + c)^2 mixed in, L the
    # linear form of a drawn member: each square has the inner form L, so
    # the transcendence degree of any set is the F_p rank of its forms
    p, nvars, rows, consts, queries = case
    ctx = _linear_context(p, nvars)
    ff = ctx.field
    gens, forms = _linear_gens(ff, rows, consts), list(rows)
    for j, c in squares:
        gens.append((gens[j % len(rows)] + ff.const(c)) ** 2)
        forms.append(rows[j % len(rows)])
    subs = [RationalSubgroup(ctx, g, "g%d" % j) for j, g in enumerate(gens)]
    uni, fresh = Universe(ctx, subs, budget=64), Universe(ctx, subs, budget=64)
    for key in queries:
        r = fresh.rank(key)
        assert r == linalg.rank(tuple(forms[i] for i in key), p)
        # asked directly, before its basis, a set is reduced in index order
        # from the empty echelon, or from that of a kept set of its first
        # members
        assert uni.independent(key) is (r == len(key))
        assert uni.closure(key) == frozenset(
            i for i in range(len(subs)) if fresh.rank(key | {i}) == r)
    assert uni.replay() == []
    for key, rec in uni._records.items():
        if any(i >= len(rows) for i in key):
            continue
        members = [rows[i] for i in sorted(key)]
        # the witness of every linear record is the fresh kernel vector,
        # and the record is the one a fresh universe gives the set alone,
        # reduced from the empty echelon in index order
        assert rec.witness == lattice._relation(members, p), sorted(key)
        assert Universe(ctx, subs)._decide_by_rows(key) == rec, sorted(key)
        echelon = uni._echelons.get(key)
        assert (echelon is not None) == (rec.how == RANK), sorted(key)
        if echelon is None:
            continue
        # an echelon of the set's rows: one row per member, each the
        # combination of the members it records (a map from members to
        # coefficients, over members of the set only), 1 at its pivot and
        # 0 at the pivots before it, and together of full rank
        assert len(echelon) == len(key)
        for k, (pivot, row, comb) in enumerate(echelon):
            assert set(comb) <= key
            assert list(row) == [sum(c * rows[i][v] for i, c in comb.items())
                                 % p for v in range(nvars)]
            assert row[pivot] == 1
            assert not any(row[q] for q, _, _ in echelon[:k])
        assert linalg.rank(tuple(row for _, row, _ in echelon), p) == len(key)


def _rank_oracle(rows, p):
    """The F_p rank of the rows of a set of members, memoized."""
    memo = {}

    def rank(key):
        key = frozenset(key)
        if key not in memo:
            memo[key] = linalg.rank(tuple(rows[i] for i in sorted(key)), p)
        return memo[key]

    return rank


def _closure_oracle(rank, n):
    return lambda key: frozenset(i for i in range(n)
                                 if rank(set(key) | {i}) == rank(key))


@settings(max_examples=20, deadline=None)
@given(linear_universes())
def test_chain_of_covers_matches_the_rank_oracle(case):
    # basis and closure are read off one chain of covers, and each cover of
    # a kept flat is found from the basis it was kept with; all three are
    # checked against the F_p rank of the drawn rows
    p, nvars, rows, consts, queries = case
    ctx = _linear_context(p, nvars)
    uni = Universe(ctx, [RationalSubgroup(ctx, g, "g%d" % j) for j, g in
                         enumerate(_linear_gens(ctx.field, rows, consts))])
    rank = _rank_oracle(rows, p)
    closure = _closure_oracle(rank, len(rows))
    for key in queries:
        greedy = []
        for i in sorted(key):
            if rank(greedy + [i]) == len(greedy) + 1:
                greedy.append(i)
        assert uni.basis(key) == tuple(greedy)
        assert uni.rank(key) == rank(key)
        assert uni.closure(key) == closure(key)
    # the queries kept flats of every rank they reached, higher ones
    # included, before the covers of the lower ones below are asked
    kept = list(uni._bases)
    assert set(kept) == {f for layer in uni._flats_by_rank.values()
                         for f in layer}
    for flat in kept:
        assert flat == closure(flat)
        assert len(uni._bases[flat]) == rank(flat)
        for i in range(len(rows)):
            assert uni.cover(flat, i) == closure(flat | {i}), (
                sorted(flat), i)
    assert uni.replay() == []
    for key, rec in uni._records.items():
        assert rec.answer == (rank(key) == len(key)), sorted(key)


class _RowMatroid:
    """The F_p matroid of some rows, zero rows as loops, answering the
    questions the pipeline geometry asks of a Universe."""

    def __init__(self, rows, p):
        self.rank = _rank_oracle(rows, p)
        self.closure = _closure_oracle(self.rank, len(rows))

    def basis(self, key):
        out = []
        for i in sorted(key):
            if self.rank(out + [i]) == len(out) + 1:
                out.append(i)
        return tuple(out)

    def cover(self, flat, i):
        return self.closure(flat | {i})


@settings(max_examples=20, deadline=None)
@given(linear_universes(), st.integers(0, 2), st.data())
def test_pipeline_geometry_is_the_closure_of_the_sources(case, loops, data):
    # the geometry on some rank-one flats, as the pipeline finds it through
    # Universe.cover, against flats_by_covers run with the closure of the
    # union of the sources: the same flats and the same table.  Zero rows
    # put loops, members in every flat, at the lowest indices of a
    # test-local matroid, so a point's sources hold members other than its
    # basis member
    from milnork import cli
    from milnork.geometry import flats_by_covers

    p, nvars, rows, consts, _ = case
    ctx = _linear_context(p, nvars)
    uni = Universe(ctx, [RationalSubgroup(ctx, g, "g%d" % j) for j, g in
                         enumerate(_linear_gens(ctx.field, rows, consts))])
    looped = [(0,) * nvars] * loops + rows
    for universe, members in ((uni, rows), (_RowMatroid(looped, p), looped)):
        closure = _closure_oracle(_rank_oracle(members, p), len(members))
        lines = sorted({closure({i}) for i in range(len(members))
                        if closure({i}) != closure(())}, key=sorted)
        chosen = data.draw(st.lists(st.sampled_from(lines), min_size=1,
                                    unique=True))
        points = [SubgroupFragment("p%d" % k, (), 1, sources=f)
                  for k, f in enumerate(chosen)]

        def below(subset):
            closed = closure(frozenset().union(*(x.sources for x in subset)))
            return frozenset(x for x in points if x.sources <= closed)

        got = cli._universe_geometry(universe, points)
        want = flats_by_covers(got.points, below(()),
                               lambda f, x: below(f | {x}))
        assert got.flats == want.flats
        assert got.table == want.table


def _nonlinear_universe(ctx5, ff5, budget=48):
    """t0*t1 and t2*t3 + 1, which take the search path, then t0, t2, t4."""
    t = [ff5.var(i) for i in range(5)]
    gens = [t[0] * t[1], t[2] * t[3] + ff5.const(1), t[0], t[2], t[4]]
    return Universe(ctx5, [RationalSubgroup(ctx5, g, "g%d" % i)
                           for i, g in enumerate(gens)], budget=budget)


def test_subset_of_certified_set_needs_no_search(ctx5, ff5, monkeypatch):
    uni = _nonlinear_universe(ctx5, ff5)
    full = frozenset(range(5))
    assert uni.independent(frozenset([0, 1])) is True
    # the search ran on the extension of {0, 1} to a full basis
    assert uni._records[full].how == CERTIFIED
    assert uni._records[frozenset([0, 1])] == (True, SUPERSET, full)
    searches = []
    search = ctx5.certificate_search

    def spy(elements, **kw):
        searches.append(len(elements))
        return search(elements, **kw)

    monkeypatch.setattr(ctx5, "certificate_search", spy)
    for r in range(1, 6):
        for key in itertools.combinations(range(5), r):
            assert uni.independent(frozenset(key)) is True
    assert searches == []
    assert uni.replay() == []


def test_failed_extension_falls_back_to_the_set(ctx5, ff5, monkeypatch):
    uni = _nonlinear_universe(ctx5, ff5)
    full = frozenset(range(5))
    index = {s.gen.key(): i for i, s in enumerate(uni.subgroups)}
    searched = []
    search = ctx5.certificate_search

    def members(elements):
        return sorted(index[x.key()] for x in elements)

    def stub(elements, **kw):
        searched.append(members(elements))
        if searched[-1] == sorted(full):
            return UNKNOWN
        return search(elements, **kw)

    monkeypatch.setattr(ctx5, "certificate_search", stub)
    assert uni.independent(frozenset([0, 2])) is True
    assert searched == [sorted(full), [0, 2]]
    assert uni._records[frozenset([0, 2])].how == CERTIFIED
    # the failed extension answers nothing true: its record keeps the
    # budget its search spent
    assert uni._records[full] == (None, SEARCHED, 48)
    # the fallback is the search a set gets on its own, so a set that
    # fails both is unresolved; the extension, already failed once, is not
    # searched again, nor is it when asked for itself
    searched.clear()

    def fail(elements, **kw):
        searched.append(members(elements))
        return UNKNOWN

    monkeypatch.setattr(ctx5, "certificate_search", fail)
    with pytest.raises(DimUnknown):
        uni.independent(frozenset([1, 3]))
    assert searched == [[1, 3]]
    assert uni._records[frozenset([1, 3])] == (None, SEARCHED, 48)
    with pytest.raises(DimUnknown):
        uni.independent(full)
    assert searched == [[1, 3]]
    assert uni.replay() == []


def test_recover_rank_r_against_brute_force(ctx5, ff5):
    # oracle: enumerate all subsets, take the F_p rank of their rows (the
    # generators are linear forms), keep the maximal ones of each dimension
    rows = [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
            (1, 1, 0, 0, 0), (0, 1, 1, 0, 0)]
    gens = [ff5.var(0), ff5.var(1), ff5.var(2),
            ff5.var(0) + ff5.var(1), ff5.var(1) + ff5.var(2)]
    subs = [RationalSubgroup(ctx5, g, "g%d" % i) for i, g in enumerate(gens)]
    uni = Universe(ctx5, subs, budget=48)
    got2 = {f.sources for f in recover_rank_r(uni, 2)}
    got3 = {f.sources for f in recover_rank_r(uni, 3)}

    dims = {}
    for r in range(1, 6):
        for sub in itertools.combinations(range(5), r):
            dims[frozenset(sub)] = linalg.rank(
                tuple(rows[i] for i in sub), ff5.p)
    for r, got in ((2, got2), (3, got3)):
        expected = set()
        with_dim = [s for s, d in dims.items() if d == r]
        for s in with_dim:
            if not any(s < t for t in with_dim):
                expected.add(s)
        assert got == expected


def test_recover_rank_r_examples(ctx5, subs, ff5):
    uni = Universe(ctx5, subs[:3], budget=48)
    flats = recover_rank_r(uni, 2)
    assert {f.sources for f in flats} == {frozenset([0, 1]),
                                          frozenset([0, 2]),
                                          frozenset([1, 2])}
    assert recover_rank_r(Universe(ctx5, subs[:1], budget=48), 2) == []
    same = [subs[0],
            RationalSubgroup(ctx5, ff5.var(0) + ff5.const(1), "t0+1")]
    assert recover_rank_r(Universe(ctx5, same, budget=48), 2) == []


def test_recover_outputs_are_antichains(ctx5, ff5):
    gens = [ff5.var(i) for i in range(5)]
    gens += [ff5.var(0) + ff5.var(1), ff5.var(2) + ff5.var(3)]
    uni = Universe(ctx5,
                   [RationalSubgroup(ctx5, g, "g%d" % i)
                    for i, g in enumerate(gens)], budget=48)
    for r in (2, 3):
        flats = recover_rank_r(uni, r)
        for a, b in itertools.combinations(flats, 2):
            assert not a.sources <= b.sources
            assert not b.sources <= a.sources


def test_recover_rank_1_synthetic(ctx5, ff5):
    # coordinates plus two pencils through t0; the intersection fragment of
    # the two rank-2 flats through t0 recovers the point for t0
    gens = [ff5.var(i) for i in range(5)]
    gens += [ff5.var(0) + ff5.var(1), ff5.var(0) + ff5.var(2)]
    uni = Universe(ctx5,
                   [RationalSubgroup(ctx5, g, "g%d" % i)
                    for i, g in enumerate(gens)], budget=48)
    r2 = recover_rank_r(uni, 2)
    r3 = recover_rank_r(uni, 3)
    r1 = recover_rank_1(uni, r2, r3)
    sources = {f.sources for f in r1}
    assert frozenset([0]) in sources
    for f in r1:
        if f.sources == frozenset([0]):
            assert f.provenance["D"] not in f.provenance["C"]
    # every singleton closure is recovered here
    assert sources == {frozenset([i]) for i in range(7)}


def test_recover_rank_1_needs_witness(ctx5, ff5):
    # with only three one-dimensional directions there is no outside D
    gens = [ff5.var(0), ff5.var(1), ff5.var(0) + ff5.var(1)]
    uni = Universe(ctx5,
                   [RationalSubgroup(ctx5, g, "g%d" % i)
                    for i, g in enumerate(gens)], budget=48)
    r2 = recover_rank_r(uni, 2)
    r3 = recover_rank_r(uni, 3)
    assert recover_rank_1(uni, r2, r3) == []
    # three coordinates: each two rank-two flats meet in a point inside the
    # one rank-three flat C, but every direction lies in C
    uni = Universe(ctx5, [RationalSubgroup(ctx5, ff5.var(i))
                          for i in range(3)], budget=48)
    r2, r3 = recover_rank_r(uni, 2), recover_rank_r(uni, 3)
    assert len(r2) == 3 and len(r3) == 1
    assert recover_rank_1(uni, r2, r3) == []


def test_div_ell_of_an_ambient_member_and_of_zero(ctx5, ff5):
    # a member given in the ambient field is pulled back to the parameter
    # first, so it has the divisor of its pullback; zero has none
    A = RationalSubgroup(ctx5, ff5.var(0))
    T, c = A.param.var(0), A.param.const
    g = (ff5.var(0) - ff5.const(1)) / (ff5.var(0) - ff5.const(3))
    assert div_ell(g, A) == div_ell((T - c(1)) / (T - c(3)), A) != {}
    with pytest.raises(ZeroInput):
        div_ell(A.param.zero(), A)


def test_fragment_equality_and_the_rank_guard(ctx5, ff5, subs):
    # fragments without sources compare by their generators, and no
    # fragment equals another kind of object
    a = SubgroupFragment("a", [ff5.var(0)], 1)
    assert a == SubgroupFragment("b", [ff5.var(0)], 1)
    assert a != SubgroupFragment("a", [ff5.var(1)], 1) and a != "a"
    with pytest.raises(ValueError, match="rank two"):
        recover_rank_r(Universe(ctx5, subs, budget=48), 1)


def test_dim_unknown_reported(ctx5, ff5):
    uni = _nonlinear_universe(ctx5, ff5, budget=0)
    with pytest.raises(DimUnknown):
        recover_rank_r(uni, 2)


def _fragment(name, rows):
    return RationalFragmentData(name, rows)


def test_rigidity_scalar_maps():
    # one fragment on three points, ambient dimension 3
    inst = RigidityInstance(5, 3, [
        _fragment("A", [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    ])
    for eps in (1, 2, 3, 4):
        phi = tuple(tuple(eps if i == j else 0 for j in range(3))
                    for i in range(3))
        assert epsilon_rigidity_check(phi, inst) == eps


def test_rigidity_rejects_permutation():
    inst = RigidityInstance(5, 2, [
        _fragment("A", [(1, 0), (0, 1)]),
    ])
    swap = ((0, 1), (1, 0))
    out = epsilon_rigidity_check(swap, inst)
    assert isinstance(out, CounterexampleReport)
    assert out.kind == "divisor-mixing"


def test_rigidity_unequal_scalars_within_fragment():
    inst = RigidityInstance(5, 2, [_fragment("A", [(1, 0), (0, 1)])])
    phi = ((2, 0), (0, 3))
    out = epsilon_rigidity_check(phi, inst)
    assert isinstance(out, CounterexampleReport)
    assert out.kind == "unequal-on-fragment"


def test_rigidity_triangle_glues_fragments():
    # members u in A, v in B, and their difference in C; a map scaling the
    # two sides differently cannot stabilize the connecting fragment
    inst = RigidityInstance(5, 2, [
        _fragment("A", [(1, 0)]),
        _fragment("B", [(0, 1)]),
        _fragment("C", [(1, 4)]),   # u - v mod 5
    ])
    phi = ((2, 0), (0, 2))
    assert epsilon_rigidity_check(phi, inst) == 2
    blocks = ((2, 0), (0, 3))
    with pytest.raises(NotPreserving):
        epsilon_rigidity_check(blocks, inst)


def test_rigidity_triangle_forces_one_epsilon():
    # every map of F_5^2 that stabilizes A, B and C = A - B scales them by
    # one epsilon, so no triangle is ever violated
    inst = RigidityInstance(5, 2, [
        _fragment("A", [(1, 0)]),
        _fragment("B", [(0, 1)]),
        _fragment("C", [(1, 4)]),
    ])
    seen = set()
    for a, b, c, d in itertools.product(range(5), repeat=4):
        try:
            out = epsilon_rigidity_check(((a, b), (c, d)), inst)
        except NotPreserving:
            continue
        assert out in range(1, 5)
        seen.add(out)
    assert seen == {1, 2, 3, 4}


def test_rigidity_missing_triangle_reported():
    inst = RigidityInstance(5, 2, [
        _fragment("A", [(1, 0)]),
        _fragment("B", [(0, 1)]),
    ])
    blocks = ((2, 0), (0, 3))
    out = epsilon_rigidity_check(blocks, inst)
    assert isinstance(out, CounterexampleReport)
    assert out.kind == "missing-triangle"


def test_rigidity_not_preserving():
    inst = RigidityInstance(5, 3, [
        _fragment("A", [(1, 0, 0), (0, 1, 0)]),
    ])
    phi = ((1, 0, 0), (0, 0, 1), (0, 1, 0))  # sends e2 outside the fragment
    with pytest.raises(NotPreserving):
        epsilon_rigidity_check(phi, inst)


def test_div_ell_is_a_homomorphism(ctx5, subs, tower7):
    rng = random.Random(31)
    A = subs[0]
    T = A.param.var(0)
    for _ in range(40):
        def member():
            g = A.param.one()
            for _ in range(rng.randrange(1, 3)):
                g = g * (T - A.param.const(tower7.from_int(rng.randrange(7))))
            if rng.random() < 0.5:
                g = g / (T - A.param.const(tower7.from_int(rng.randrange(7))))
            return g

        f, g = member(), member()
        df, dg, dfg = div_ell(f, A), div_ell(g, A), div_ell(f * g, A)
        total = dict(df)
        for k, v in dg.items():
            total[k] = (total.get(k, 0) + v) % ctx5.ell
        total = {k: v for k, v in total.items() if v}
        assert total == dfg


def test_pullback_membership(ctx5, ff5):
    from milnork.lattice import NotMember

    A = RationalSubgroup(ctx5, ff5.var(0), "t0")
    g = A.pullback((ff5.var(0) + ff5.const(1)) / ff5.var(0))
    assert g.num.nvars == 1
    with pytest.raises(NotMember):
        A.pullback(ff5.var(1))
    with pytest.raises(NotMember):
        B = RationalSubgroup(ctx5, ff5.var(0) + ff5.var(1), "mixed")
        B.pullback(ff5.var(0))


def _extend_by_jacobian(uni, key):
    """Universe._extend as it read with a Jacobian rank per candidate."""
    ctx = uni.ctx
    gens = uni._gens(key)
    if (any(uni._rows[i] is None for i in key)
            and ctx.jacobian_rank(gens) < len(key)):
        return key
    out = set(key)
    for i in range(len(uni.subgroups)):
        if len(out) >= ctx.nvars:
            break
        if i not in out and ctx.jacobian_rank(uni._gens(out | {i})) == len(out) + 1:
            out.add(i)
    return frozenset(out)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, 6)] * 4).filter(any),
                min_size=2, max_size=7),
       st.sampled_from([None, 0, 3]), st.data())
def test_extension_by_rows_is_the_jacobian_extension(rows, nonlinear_at,
                                                     data):
    # linear members, one of them replaced by a product when drawn; the
    # row test must choose the extension the Jacobian ranks chose
    ff = FunctionField(FieldTower(7, seed=0), 4)
    t = [ff.var(i) for i in range(4)]
    gens = [sum((ff.const(a) * t[i] for i, a in enumerate(row) if a),
                ff.const(1)) for row in rows]
    if nonlinear_at is not None and nonlinear_at < len(gens):
        gens[nonlinear_at] = t[0] * t[1] + t[2]
    ctx = KContext(ff, 3)
    uni = Universe(ctx, [RationalSubgroup(ctx, g, "g%d" % i)
                         for i, g in enumerate(gens)])
    size = data.draw(st.integers(1, min(3, len(gens))))
    key = frozenset(data.draw(st.permutations(range(len(gens))))[:size])
    if ctx.trdeg_upper(uni._gens(key)) == len(key):
        assert uni._extend(key) == _extend_by_jacobian(uni, key)


def test_coordinate_universe_at_budget_zero_is_decided_by_rank(
        ctx5, ff5, subs, monkeypatch):
    # linear sets take no search, Jacobian, transcendence bound or
    # extension: the F_p rank decides them, whatever the budget.  So do
    # sets of members g(L) in one-variable subfields k(L), by the rank of
    # their inner forms: (t0+t1)^2 and (t0+t1)^5 + t0 + t1 share the form
    # t0 + t1, and t2^7 + 2 is (t2 + 2)^7
    searches = []
    search = ctx5.certificate_search

    def spy(elements, **kw):
        searches.append(len(elements))
        return search(elements, **kw)

    monkeypatch.setattr(ctx5, "certificate_search", spy)
    for name in ("jacobian_rank", "trdeg_upper"):
        monkeypatch.setattr(ctx5, name, None)
    uni = Universe(ctx5, subs, budget=0)
    assert [sorted(f.sources) for f in recover_rank_r(uni, 2)] == [
        list(pair) for pair in itertools.combinations(range(5), 2)]
    assert uni.rank(frozenset(range(5))) == 5
    assert uni.independent(frozenset()) is True
    assert all(rec.how == RANK for rec in uni._records.values())
    assert searches == []
    assert uni.replay() == []
    t, c = [ff5.var(i) for i in range(3)], ff5.const
    u = t[0] + t[1]
    gens = [u ** 2, (t[0] - t[1]) ** 2 + c(1), u ** 5 + u, t[2] ** 7 + c(2)]
    assert milnor_dim_bounds(ctx5, gens, budget=0) == (3, 3)
    uni = Universe(ctx5, [RationalSubgroup(ctx5, g) for g in gens], budget=0)
    assert uni._rows == [(1, 1, 0, 0, 0), (1, 6, 0, 0, 0), (1, 1, 0, 0, 0),
                         (0, 0, 1, 0, 0)]
    assert uni.basis(range(4)) == (0, 1, 3)
    assert uni._records[frozenset({0, 2})] == (False, RELATION, (6, 1))
    assert {rec.how for rec in uni._records.values()} == {RANK, RELATION}
    assert searches == []
    assert uni.replay() == []


def test_a_member_without_a_straightened_certificate_keeps_no_row(ctx5,
                                                                  ff5):
    # (t0+t1)^3 is an l-th power at l = 3, and t3^3 + 1 loses its roots of
    # multiplicity prime to l when shifted: each keeps the search path,
    # and its answer, although it has an inner form
    t, c = [ff5.var(i) for i in range(4)], ff5.const
    cube, shifted = (t[0] + t[1]) ** 3, t[3] ** 3 + c(1)
    assert ctx5._inner_form(cube) == (1, 1, 0, 0, 0)
    assert ctx5._inner_form(shifted) == (0, 0, 0, 1, 0)
    uni = Universe(ctx5, [RationalSubgroup(ctx5, g)
                          for g in (cube, t[2], shifted)], budget=0)
    assert uni._rows == [None, (0, 0, 1, 0, 0), None]
    for budget in (0, 64):
        assert milnor_dim_bounds(ctx5, [cube, t[2]], budget=budget) == (1, 2)
    # the cube beside t0+t1, the cube's inner form: the pair is decided by
    # the relation of the forms, with no search, and the record replays
    uni = Universe(ctx5, [RationalSubgroup(ctx5, g)
                          for g in (cube, t[0] + t[1])])
    assert uni._rows == [None, (1, 1, 0, 0, 0)]
    assert uni.independent([0, 1]) is False
    assert uni._records[frozenset({0, 1})].how == RELATION
    assert uni.replay() == []


def test_lattice_fragment_edges_follow_containment_and_the_grading():
    # the edges are the pairs (i, j) whose sources nest strictly, in index
    # order, and the covering ones go to DOT; nested sources whose ranks do
    # not rise break the grading
    a, b, c = (SubgroupFragment(x, (), 1, sources={i})
               for i, x in enumerate("abc"))
    ab = SubgroupFragment("ab", (), 2, sources={0, 1})
    abc = SubgroupFragment("abc", (), 3, sources={0, 1, 2})
    lat = LatticeFragment([abc, a, ab, b, c])
    assert lat.edges == [(1, 0), (1, 2), (2, 0), (3, 0), (3, 2), (4, 0)]
    assert lat.to_json()["edges"] == lat.edges
    assert [line for line in lat.to_dot().splitlines() if "->" in line] == [
        "  n1 -> n2;", "  n2 -> n0;", "  n3 -> n2;", "  n4 -> n0;"]
    with pytest.raises(ValueError, match="grading"):
        LatticeFragment([a, SubgroupFragment("ab", (), 1, sources={0, 1})])
