"""Differential tests: the linear fast paths against the generic code they
replace, compared by key (coefficient levels included) and term order."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from milnork import kmilnor, linalg
from milnork.groundfield import INF, FieldTower, FunctionField, RatFunc, SparsePoly
from milnork.jsonio import canonical_json, encode_certificate
from milnork.kmilnor import UNKNOWN, KContext, _poly_matrix_rank

P = 7
NV = 3

TOWER = FieldTower(P, seed=0)
TOWER.ensure_level(2)
FIELD = FunctionField(TOWER, NV)
CTX = KContext(FIELD, 3)


def _unit(j):
    return tuple(1 if k == j else 0 for k in range(NV))


def _same(a, b):
    assert a.key() == b.key()
    assert list(a.num.terms) == list(b.num.terms)
    assert list(a.den.terms) == list(b.den.terms)


def _generic_jacobian_rank(gens):
    rows = []
    for g in gens:
        if g.is_constant():
            continue
        g, _ = g.frobenius_strip(P)
        rows.append([g.num.derivative(j) * g.den - g.num * g.den.derivative(j)
                     for j in range(NV)])
    return _poly_matrix_rank(rows)


@pytest.mark.parametrize("center", [
    0, 3, TOWER.from_int(5), TOWER.element(2, (0, 0)),
    TOWER.element(2, (4, 1)), TOWER.element(2, (0, 6)), INF])
@pytest.mark.parametrize("var", range(NV))
def test_uniformizer_matches_generic(var, center):
    v = FIELD.valuation(var, center)
    if center is INF:
        expected = FIELD.one() / FIELD.var(var)
    else:
        expected = FIELD.var(var) - FIELD.const(v.center)
    _same(FIELD.uniformizer(v), expected)


def test_jacobian_rank_mixed_generators_take_generic_path():
    t0, t1, t2 = (FIELD.var(i) for i in range(NV))
    c2 = FIELD.const(TOWER.element(2, (1, 1)))
    for gens in ([t0, t0 + t1 ** P], [t0 + c2 * t1, t1], [t0 * t1, t2]):
        assert CTX.jacobian_rank(gens) == _generic_jacobian_rank(gens)


# -- the straightened trial of a linear tuple --------------------------------

SEARCH_FIELDS = {}
for _p, _ell in ((2, 3), (3, 2), (7, 3)):
    _tower = FieldTower(_p, seed=0)
    _tower.ensure_level(2)
    SEARCH_FIELDS[_p] = (FunctionField(_tower, NV), _ell)


class GenericTrials(KContext):
    """Every straightened entry substituted by apply_transform rather than
    written down, and shifted by its value at the origin (_value_at_origin)
    rather than by dropping its constant term."""

    def _straightened(self, x, T, k, shift=False):
        y = self.apply_transform(x, T)
        c = self._value_at_origin(y) if shift else None
        return y if c is None else y - self.field.const(c)


@st.composite
def linear_tuples(draw):
    """r = 1..NV independent prime-field forms, each with an optional
    nonzero constant at level one or two, over a constant denominator
    other than 1, terms in a drawn order; and the search options."""
    p = draw(st.sampled_from(sorted(SEARCH_FIELDS)))
    ff, ell = SEARCH_FIELDS[p]
    tower = ff.tower
    r = draw(st.integers(1, NV))
    rows = [tuple(draw(st.integers(0, p - 1)) for _ in range(NV))
            for _ in range(r)]
    assume(linalg.rank(tuple(rows), p) == r)
    constant = st.one_of(
        st.integers(1, p - 1).map(tower.from_int),
        st.integers(1, p * p - 1).map(lambda k: tower.element_from_index(2, k)))
    elements = []
    for row in rows:
        terms = [(_unit(j), tower.from_int(a)) for j, a in enumerate(row) if a]
        if draw(st.booleans()):
            terms.append(((0,) * NV, draw(constant)))
        terms = draw(st.permutations(terms))
        den = tower.from_int(draw(st.integers(1, p - 1)))
        elements.append(RatFunc(SparsePoly(NV, dict(terms)),
                                SparsePoly.constant(NV, den)))
    return ff, ell, elements, draw(st.booleans()), draw(st.integers(0, 3))


@settings(max_examples=200, deadline=None)
@given(linear_tuples())
def test_straightened_trial_matches_the_generic_trial(case):
    ff, ell, elements, shifts, seed = case
    fast, generic = KContext(ff, ell), GenericTrials(ff, ell)
    got = fast.certificate_search(elements, budget=4, seed=seed,
                                  shifts=shifts)
    want = generic.certificate_search(elements, budget=4, seed=seed,
                                      shifts=shifts)
    assert got is not UNKNOWN and want is not UNKNOWN
    assert (canonical_json(encode_certificate(got))
            == canonical_json(encode_certificate(want)))
    for a, b in zip(got.statement, want.statement):
        _same(a, b)
    assert list(fast._trial_values) == list(generic._trial_values)


@settings(max_examples=100, deadline=None)
@given(linear_tuples())
def test_straightened_certificate_is_the_first_trial(case):
    # the certificate the search of an independent linear tuple wins with
    # its first trial, byte for byte, without the search
    ff, ell, elements, shifts, _ = case
    got = KContext(ff, ell).straightened_certificate(elements, shifts)
    want = KContext(ff, ell).canonical_certificate(elements, budget=1,
                                                   shifts=shifts)
    assert want is not UNKNOWN and got.replay()
    assert (canonical_json(encode_certificate(got))
            == canonical_json(encode_certificate(want)))


def test_straightened_certificate_needs_independent_linear_entries():
    ctx = KContext(FIELD, 3)
    t0, t1, t2 = (FIELD.var(i) for i in range(NV))
    c = FIELD.const
    for elements in ([t0 + t1, c(2) * t0 + c(2) * t1 + c(1)], [t0 * t1, t2],
                     [t0, t1, t2, t0 + t1]):
        for shift in (False, True):
            assert ctx.straightened_certificate(elements, shift) is None


def test_straightened_trial_skips_the_substitution(monkeypatch):
    calls = []
    monkeypatch.setattr(KContext, "apply_transform",
                        lambda self, x, T: calls.append(x))
    t0, t1, t2 = (FIELD.var(i) for i in range(NV))
    c = FIELD.const
    cert = KContext(FIELD, 3).certificate_search(
        [t0 + t1 + c(2), t1 + c(3) * t2], shifts=False)
    assert cert.replay() and cert.transform is not None
    assert calls == []


@st.composite
def form_polynomial_tuples(draw):
    """r = 1..NV independent prime-field forms, each in two or more
    coordinates; entry k a quadratic or cubic in form k with coefficients
    at levels one and two, over a constant denominator, terms in a drawn
    order; and the search options."""
    p = draw(st.sampled_from(sorted(SEARCH_FIELDS)))
    ff, ell = SEARCH_FIELDS[p]
    tower = ff.tower
    r = draw(st.integers(1, NV))
    row = st.tuples(*[st.integers(0, p - 1)] * NV).filter(
        lambda row: sum(1 for a in row if a) >= 2)
    rows = draw(st.lists(row, min_size=r, max_size=r))
    assume(linalg.rank(tuple(rows), p) == r)
    constant = st.one_of(
        st.integers(0, p - 1).map(tower.from_int),
        st.integers(0, p * p - 1).map(lambda k: tower.element_from_index(2, k)))
    elements = []
    for row in rows:
        u = ff.zero()
        for j, a in enumerate(row):
            u = u + ff.const(a) * ff.var(j)
        degree = draw(st.sampled_from((2, 3)))
        g, power = ff.zero(), ff.one()
        for m in range(degree + 1):
            c = draw(constant.filter(bool) if m == degree else constant)
            g = g + ff.const(c) * power
            power = power * u
        g = g / ff.const(draw(constant.filter(bool)))
        terms = draw(st.permutations(list(g.num.terms.items())))
        elements.append(RatFunc(SparsePoly(NV, dict(terms)), g.den))
    return ff, ell, elements, draw(st.booleans()), draw(st.integers(0, 3))


@settings(max_examples=60, deadline=None)
@given(form_polynomial_tuples())
def test_straightened_polynomials_match_the_generic_trial(case):
    ff, ell, elements, shifts, seed = case
    fast, generic = KContext(ff, ell), GenericTrials(ff, ell)
    T = fast._straightening_transform(fast._inner_forms(elements))
    for k, x in enumerate(elements):
        _same(fast._straightened(x, T, k), generic.apply_transform(x, T))
    got = fast.certificate_search(elements, budget=4, seed=seed,
                                  shifts=shifts)
    want = generic.certificate_search(elements, budget=4, seed=seed,
                                      shifts=shifts)
    assert (got is UNKNOWN) == (want is UNKNOWN)
    if got is not UNKNOWN:
        assert (canonical_json(encode_certificate(got))
                == canonical_json(encode_certificate(want)))
        for a, b in zip(got.statement, want.statement):
            _same(a, b)
    assert list(fast._trial_values) == list(generic._trial_values)


def test_straightened_polynomials_skip_the_substitution(monkeypatch):
    # the first entry is a cube, so the symbol vanishes and the search ends
    # with its finite stream, well inside the budget: the straightened
    # trial, which takes the written-down entries, the entries as given,
    # and the five other tuples of two of the three variables
    calls = []
    monkeypatch.setattr(RatFunc, "compose",
                        lambda self, funcs: calls.append(self))
    t0, t1, t2 = (FIELD.var(i) for i in range(NV))
    c = FIELD.const
    u, v = t0 + c(2) * t1, t1 + t2
    ctx = KContext(FIELD, 3)
    trials = []
    try_trial = ctx._try_trial

    def spy(search, trial):
        trials.append(trial)
        return try_trial(search, trial)

    ctx._try_trial = spy
    assert ctx.certificate_search([(u * u + c(3)) ** 3, v * v - c(3)],
                                  budget=64, seed=1) is UNKNOWN
    assert [trial[2] is not None for trial in trials] == [True] + [False] * 6
    assert calls == []


def _greedy_completion(rows, n, p):
    """The forms completed by every unit vector that raises the rank, in
    index order."""
    full = list(rows)
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        if linalg.rank(tuple(full + [e]), p) > len(full):
            full.append(e)
    return tuple(full)


@st.composite
def row_sets(draw):
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.tuples(*[st.integers(0, p - 1)] * n),
                         min_size=1, max_size=n))
    return p, n, rows


@settings(max_examples=300, deadline=None)
@given(row_sets())
def test_one_pass_completion_is_the_greedy_completion(case):
    p, n, rows = case
    tower = FieldTower(p, seed=0)
    ctx = KContext(FunctionField(tower, n), 3 if p != 3 else 2)
    # T, read off the r x r minor on the trailing pivots, is the n x n
    # inverse of the forms completed by unit vectors
    got = ctx._straightening_transform(rows)
    if linalg.rank(tuple(rows), p) < len(rows):
        assert got is None
    else:
        A = _greedy_completion(rows, n, p)
        assert got == linalg.inverse(A, p)
        assert linalg.mat_mul(A, got, p) == linalg.identity(n)


def test_completion_takes_e0_beside_a_form_in_both_coordinates():
    # (1, 1): e_0 leaves its span and is taken; e_1 then lies in the span
    # of (1, 1) and e_0, though 1 is the form's first (leading) pivot
    ctx = KContext(FunctionField(FieldTower(7, seed=0), 2), 3)
    assert _greedy_completion([(1, 1)], 2, 7) == ((1, 1), (1, 0))
    assert ctx._straightening_transform([(1, 1)]) == linalg.inverse(
        ((1, 1), (1, 0)), 7)


def _inverse_straightening(self, rows):
    """The straightening as the n x n inverse of the greedy completion."""
    n, p = self.nvars, self.field.p
    if linalg.rank(tuple(rows), p) < len(rows):
        return None
    return linalg.inverse(_greedy_completion(rows, n, p), p)


class GeneralPolicy(GenericTrials):
    """The general per-pair policy, with the straightening inverted and
    substituted rather than read off the minor and written down."""

    _straightening_transform = _inverse_straightening

    def pair_relation(self, x, y, budget):
        if self.kclass_compare(x, y) == kmilnor.EQUAL:
            return "equal-classes", None
        if self.trdeg_upper([x, y]) < 2:
            return "vanishes-by-dimension", None
        cert = self.certificate_search([x, y], budget=budget)
        return ("unknown", None) if cert is UNKNOWN else ("independent", cert)


class ClosedForm(KContext):
    """A context whose pair of linear entries must be decided without
    kclass_compare or trdeg_upper."""

    def kclass_compare(self, x, y):
        raise AssertionError("kclass_compare on a linear pair")

    def trdeg_upper(self, gens):
        raise AssertionError("trdeg_upper on a linear pair")


@st.composite
def linear_pairs(draw):
    """Two linear entries, forms over the prime field with an optional
    constant at level one or two, over a constant denominator other than
    1: the second a constant multiple of the first or of the same
    direction with another constant, both in one coordinate or in any, or
    two independent forms; and a budget of 0 or 64."""
    p = draw(st.sampled_from(sorted(SEARCH_FIELDS)))
    ff, ell = SEARCH_FIELDS[p]
    tower = ff.tower
    kind = draw(st.sampled_from(("proportional", "same direction",
                                 "independent")))
    support = tuple(range(NV))
    if kind != "independent":
        support = draw(st.sampled_from(((0,), (2,), support)))
    constant = st.one_of(
        st.just(tower.zero()),
        st.integers(1, p - 1).map(tower.from_int),
        st.integers(1, p * p - 1).map(lambda k: tower.element_from_index(2, k)))

    def form():
        row = [draw(st.integers(0, p - 1)) if j in support else 0
               for j in range(NV)]
        assume(any(row))
        return row

    def entry(row, c):
        terms = {_unit(j): tower.from_int(a) for j, a in enumerate(row) if a}
        if c:
            terms[(0,) * NV] = c
        den = tower.from_int(draw(st.integers(1, p - 1)))
        return RatFunc(SparsePoly(NV, terms), SparsePoly.constant(NV, den))

    rx, cx = form(), draw(constant)
    if kind == "independent":
        ry, cy = form(), draw(constant)
        assume(linalg.rank((tuple(rx), tuple(ry)), p) == 2)
    else:
        a = draw(st.integers(1, p - 1))
        ry = [a * b % p for b in rx]
        cy = (cx * tower.from_int(a) if kind == "proportional"
              else draw(constant))
    return ff, ell, entry(rx, cx), entry(ry, cy), draw(st.sampled_from((0, 64)))


@settings(max_examples=300, deadline=None)
@given(linear_pairs())
def test_linear_pair_relation_matches_the_general_policy(case):
    # two rows and two constant terms give the relation and the encoded
    # certificate of equal classes, then dimension, then the search
    ff, ell, x, y, budget = case
    got = ClosedForm(ff, ell).pair_relation(x, y, budget)
    want = GeneralPolicy(ff, ell).pair_relation(x, y, budget)
    assert got[0] == want[0]
    assert (got[1] is None) == (want[1] is None)
    if got[1] is not None:
        assert got[1].replay()
        assert (canonical_json(encode_certificate(got[1]))
                == canonical_json(encode_certificate(want[1])))


@settings(max_examples=100, deadline=None)
@given(linear_pairs())
def test_pair_relation_of_squares_matches_the_general_policy(case):
    # the squares of two linear entries have the same inner forms, but
    # their constant terms say nothing of their classes: (L + a)^2 and
    # (L - a)^2 have equal constant terms and distinct classes.  So a pair
    # of squares with proportional forms asks kclass_compare, as the
    # general policy does, and independent forms get its certificate
    ff, ell, x, y, budget = case
    got = KContext(ff, ell).pair_relation(x * x, y * y, budget)
    want = GeneralPolicy(ff, ell).pair_relation(x * x, y * y, budget)
    assert got[0] == want[0]
    assert (got[1] is None) == (want[1] is None)
    if got[1] is not None:
        assert got[1].replay()
        assert (canonical_json(encode_certificate(got[1]))
                == canonical_json(encode_certificate(want[1])))


def _trial(ctx, entries):
    """The certificate of the unshifted trial of entries on t0, t1, ..."""
    return ctx._try_trial((entries, {}),
                          (tuple(range(len(entries))), False, None))


def test_trial_cache_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(kmilnor, "TRIAL_CACHE_LIMIT", 4)
    ctx = KContext(FIELD, 3)
    t0, t1 = FIELD.var(0), FIELD.var(1)
    for k in range(12):
        # t0 - a and t1 - b, centred at a and b: a repeat finds the chain
        a, b = TOWER.from_int(k % P), TOWER.element_from_index(2, k)
        entries = [t0 - FIELD.const(a), t1 - FIELD.const(b)]
        cert = _trial(ctx, entries)
        assert cert.replay()
        assert [v.center for v in cert.chain.steps] == [a, b]
        assert _trial(ctx, entries).chain is cert.chain
        assert 0 < len(ctx._trial_values) <= 4
    # equal in value, at two levels: each keeps the centre it was given
    ctx = KContext(FIELD, 3)
    one, one2 = TOWER.from_int(1), TOWER.element(2, (1, 0))
    low = _trial(ctx, [t0 - FIELD.const(one)])
    high = _trial(ctx, [t0 - FIELD.const(one2)])
    assert low.chain.steps[0].center.level == 1
    assert high.chain.steps[0].center.level == 2
    assert [key[1][1] for key in ctx._trial_values] == [
        ((1, one.coeffs),), ((2, one2.coeffs),)]


def test_trial_cache_keys_a_centre_at_infinity():
    # t0 t1 + 1 has order -1 at t0 = infinity and no zero or pole in t0
    # alone, so its step goes to infinity; t1 is centred at 0
    ctx = KContext(FIELD, 3)
    t0, t1 = FIELD.var(0), FIELD.var(1)
    entries = [t0 * t1 + FIELD.one(), t1]
    cert = _trial(ctx, entries)
    zero = TOWER.zero()
    assert cert.chain.steps == kmilnor.coordinate_chain(
        FIELD, (0, 1), [INF, zero]).steps
    (key, (chain, value)), = ctx._trial_values.items()
    assert key[1] == ((0, 1), (INF, (zero.level, zero.coeffs)))
    assert chain is cert.chain and value == cert.value
    assert _trial(ctx, entries).chain is chain
