"""Differential tests: the linear fast paths against the generic code they
replace, compared by key (coefficient levels included) and term order."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from milnork import linalg
from milnork.groundfield import INF, FieldTower, FunctionField, RatFunc, SparsePoly
from milnork.kmilnor import KContext, _poly_matrix_rank

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


def _generic_transform(x, T):
    """The substitution t_i -> sum_j T[i][j] t_j through RatFunc.compose."""
    images = []
    for i in range(NV):
        poly = SparsePoly.zero(NV)
        for j, c in enumerate(T[i]):
            if c % P:
                poly = poly + SparsePoly(NV, {_unit(j): TOWER.from_int(c)})
        images.append(RatFunc.from_poly(poly, TOWER))
    return x.compose(images)


def _generic_jacobian_rank(gens):
    rows = []
    for g in gens:
        if g.is_constant():
            continue
        g, _ = g.frobenius_strip(P)
        rows.append([g.num.derivative(j) * g.den - g.num * g.den.derivative(j)
                     for j in range(NV)])
    return _poly_matrix_rank(rows)


ground = st.one_of(
    st.integers(0, P - 1).map(TOWER.from_int),
    st.integers(0, P * P - 1).map(lambda k: TOWER.element_from_index(2, k)))
nonzero_ground = ground.filter(bool)


@st.composite
def invertible_matrices(draw):
    T = tuple(tuple(draw(st.integers(-P, 2 * P)) for _ in range(NV))
              for _ in range(NV))
    assume(linalg.is_invertible(tuple(tuple(c % P for c in r) for r in T), P))
    return T


@st.composite
def linear_entries(draw):
    """A nonzero linear form with an optional constant term and a constant
    denominator; coefficients at levels one and two."""
    terms = {}
    for j in range(NV):
        if draw(st.booleans()):
            terms[_unit(j)] = draw(nonzero_ground)
    if draw(st.booleans()):
        terms[(0,) * NV] = draw(nonzero_ground)
    assume(terms)
    return RatFunc(SparsePoly(NV, terms),
                   SparsePoly.constant(NV, draw(nonzero_ground)))


@st.composite
def prime_linear_entries(draw):
    """A nonconstant linear form over the prime field, over a constant."""
    terms = {}
    for j in range(NV):
        c = draw(st.integers(0, P - 1))
        if c:
            terms[_unit(j)] = TOWER.from_int(c)
    assume(terms)
    if draw(st.booleans()):
        terms[(0,) * NV] = draw(nonzero_ground)
    return RatFunc(SparsePoly(NV, terms),
                   SparsePoly.constant(NV, draw(nonzero_ground)))


@settings(max_examples=150, deadline=None)
@given(linear_entries(), invertible_matrices())
def test_linear_apply_transform_matches_compose(x, T):
    _same(CTX.apply_transform(x, T), _generic_transform(x, T))


@settings(max_examples=60, deadline=None)
@given(st.lists(linear_entries(), min_size=1, max_size=3),
       invertible_matrices())
def test_apply_transform_of_products_matches_compose(xs, T):
    # products of linear forms are not linear: both sides run compose
    x = xs[0]
    for y in xs[1:]:
        x = x * y
    _same(CTX.apply_transform(x, T), _generic_transform(x, T))


def test_only_linear_entries_skip_compose(monkeypatch):
    calls = []
    compose = RatFunc.compose

    def spy(self, funcs):
        calls.append(self)
        return compose(self, funcs)

    monkeypatch.setattr(RatFunc, "compose", spy)
    T = ((1, 2, 0), (0, 1, 0), (3, 0, 1))
    t0, t1 = FIELD.var(0), FIELD.var(1)
    CTX.apply_transform(t0 + FIELD.const(2) * t1 + FIELD.const(5), T)
    assert calls == []
    for x in (t0 * t1, t0 / t1, t0 ** 2 + t1, FIELD.one() / (t0 + t1)):
        CTX.apply_transform(x, T)
    assert len(calls) == 4


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


@settings(max_examples=150, deadline=None)
@given(st.lists(prime_linear_entries(), min_size=1, max_size=4),
       st.lists(ground.map(FIELD.const), max_size=1))
def test_linear_jacobian_rank_matches_fraction_free(gens, consts):
    gens = gens + consts
    assert CTX.jacobian_rank(gens) == _generic_jacobian_rank(gens)


def test_jacobian_rank_mixed_generators_take_generic_path():
    t0, t1, t2 = (FIELD.var(i) for i in range(NV))
    c2 = FIELD.const(TOWER.element(2, (1, 1)))
    for gens in ([t0, t0 + t1 ** P], [t0 + c2 * t1, t1], [t0 * t1, t2]):
        assert CTX.jacobian_rank(gens) == _generic_jacobian_rank(gens)
