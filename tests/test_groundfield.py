"""Ground field: tower arithmetic, embeddings, roots, orders and residues."""

import functools
import hashlib
import itertools
import json
import math
import random
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from milnork.groundfield import (
    INF,
    FieldTower,
    FunctionField,
    GroundElem,
    RatFunc,
    SparsePoly,
    ZeroError,
    ZeroInputError,
    ZeroPolyError,
)
from milnork.kmilnor import _cover_substitute


def _elements(tw, level):
    """Every element of F_{p^level}."""
    return (tw.element_from_index(level, k) for k in range(tw.p ** level))


def _embed(tw, x, level):
    """x at the given level, by the lift that every mixed-level operation
    takes (FieldTower.common_level)."""
    y = tw.common_level(x, tw.element(level, [0] * level))[0]
    assert y.level == level
    return y


def _order(x):
    """The multiplicative order of a nonzero x, by trying each divisor of
    the order of its level's unit group."""
    n = x.tower.p ** x.level - 1
    return min(d for d in range(1, n + 1) if n % d == 0 and (x ** d).is_one())


def _ell_th_roots(tw, x, ell):
    """The roots of t^ell - x, with their multiplicities."""
    ff = FunctionField(tw, 1)
    return ff.univariate_roots((ff.var(0) ** ell - ff.const(x)).num)


def test_embed_identity_and_zero():
    tw = FieldTower(3, seed=0)
    assert _embed(tw, tw.one(), 6).is_one()
    assert _embed(tw, tw.element(2, [0, 0]), 4).is_zero()


def test_embed_preserves_multiplicative_order():
    tw = FieldTower(3, seed=0)
    g = next(x for x in _elements(tw, 2) if x and _order(x) == 8)
    assert _order(_embed(tw, g, 4)) == 8


def test_embed_is_ring_homomorphism_mixed_levels():
    # 500 random pairs across mixed levels, each embedded into level 6
    tw = FieldTower(5, seed=1)
    rng = random.Random(10)
    levels = [1, 2, 3, 6]
    for lv in levels:
        tw.ensure_level(lv)
    for _ in range(500):
        la, lb = rng.choice(levels), rng.choice(levels)
        a = tw.element_from_index(la, rng.randrange(5 ** la))
        b = tw.element_from_index(lb, rng.randrange(5 ** lb))
        ea, eb = _embed(tw, a, 6), _embed(tw, b, 6)
        assert _embed(tw, a + b, 6) == ea + eb
        assert _embed(tw, a * b, 6) == ea * eb


def test_embed_then_project_is_identity():
    tw = FieldTower(7, seed=0)
    rng = random.Random(3)
    for _ in range(50):
        x = tw.element_from_index(2, rng.randrange(49))
        assert _embed(tw, x, 4).compress() == x
        assert x.compress().level in (1, 2)


def test_compress_builds_an_unbuilt_subfield():
    # levels {1, 6}: an element of F_49 held at level 6 compresses to level
    # 2, which compress builds first; it raised KeyError: 2 before
    tw = FieldTower(7, seed=0)
    tw.ensure_level(6)
    assert tw.levels() == [1, 6]
    powers = (tw.element_from_index(6, k) ** ((7 ** 6 - 1) // 48)
              for k in range(2, 50))
    z = next(x for x in powers if x ** 7 != x)
    level, coeffs = z.compress_key()
    assert level == 2 and tw.levels() == [1, 2, 6]
    assert _embed(tw, tw.element(2, list(coeffs)), 6) == z
    # an element at its minimal level builds nothing
    before = tw.snapshot()
    assert tw.element_from_index(6, 8).compress_key()[0] == 6
    assert tw.snapshot() == before


def test_ell_th_root_of_order_six_element():
    # the cube roots of a generator of F_7^x live three levels up and have
    # order 18; oracle = exhaustive search over the containing field
    tw = FieldTower(7, seed=0)
    g = next(x for x in _elements(tw, 1) if x and _order(x) == 6)
    roots = [y for y, k in _ell_th_roots(tw, g, 3) if k == 1]
    assert all(y.level == 3 and _order(y) == 18 for y in roots)
    found = [z for z in _elements(tw, 3) if (z ** 3) == g]
    assert len(found) == 3 and sorted(roots, key=found.index) == found


def test_ell_th_root_square_of_generator():
    tw = FieldTower(7, seed=0)
    g = next(x for x in _elements(tw, 1) if x and _order(x) == 6)
    roots = _ell_th_roots(tw, g * g, 3)
    assert len(roots) == 3 and all((y ** 3) == g * g for y, _ in roots)


@pytest.mark.parametrize("p", [2, 7, 11])
@pytest.mark.parametrize("ell", [3, 5])
def test_ell_th_root_random(p, ell):
    tw = FieldTower(p, seed=2)
    rng = random.Random(p * 1000 + ell)
    for _ in range(34):
        lv = rng.choice([1, 2])
        tw.ensure_level(lv)
        x = tw.element_from_index(lv, rng.randrange(1, p ** lv))
        roots = _ell_th_roots(tw, x, ell)
        # t^ell - x is separable and splits in the closure
        assert sum(k for _, k in roots) == ell
        assert all((y ** ell) == x for y, _ in roots)


def test_univariate_roots_examples():
    tw = FieldTower(5, seed=0)
    ff = FunctionField(tw, 1)
    t = ff.var(0)
    roots = ff.univariate_roots((t * t - ff.const(1)).num)
    as_ints = sorted((r.coeffs[0], m) for r, m in roots)
    assert as_ints == [(1, 1), (4, 1)]
    roots = ff.univariate_roots((t ** 3).num)
    assert [(r.is_zero(), m) for r, m in roots] == [(True, 3)]


def test_univariate_roots_irreducible_quadratic():
    tw = FieldTower(3, seed=0)
    ff = FunctionField(tw, 1)
    t = ff.var(0)
    f = (t * t + ff.const(1)).num  # irreducible over F_3
    roots = ff.univariate_roots(f)
    assert len(roots) == 2
    for r, m in roots:
        assert m == 1 and r.level == 2
        assert (r * r + tw.one()).is_zero()
    # the two roots are conjugate
    a, b = roots[0][0], roots[1][0]
    assert a ** 3 == b


def test_univariate_roots_zero_poly():
    tw = FieldTower(3, seed=0)
    ff = FunctionField(tw, 1)
    with pytest.raises(ZeroPolyError):
        ff.univariate_roots(SparsePoly.zero(1))


@pytest.mark.parametrize("p", [3, 5])
def test_univariate_roots_against_exhaustive_evaluation(p):
    # oracle: every claimed root evaluates to zero, the multiplicity total
    # forces completeness over the closure, and the small fields are swept
    # element by element
    tw = FieldTower(p, seed=3)
    ff = FunctionField(tw, 1)
    rng = random.Random(p * 17)
    for _ in range(5):
        deg = rng.randrange(2, 7)
        t = ff.var(0)
        f = t ** deg
        for k in range(deg):
            f = f + ff.const(rng.randrange(p)) * t ** k
        froots = ff.univariate_roots(f.num)
        assert sum(m for _, m in froots) == deg
        seen = {r.compress_key() for r, _ in froots}

        def value_at(z):
            val = tw.zero()
            for e, c in f.num.terms.items():
                val = val + c * z ** e[0]
            return val

        for r, _ in froots:
            assert value_at(r).is_zero()
        for m in (1, 2, 3):
            tw.ensure_level(m)
            for z in _elements(tw, m):
                assert value_at(z).is_zero() == (z.compress_key() in seen)


def test_order_and_residue_examples(ff2, tower7):
    t1, t2 = ff2.var(0), ff2.var(1)
    n, res = ff2.order_and_residue(t1 * t1 * t2, ff2.valuation(0, 0))
    assert n == 2 and res == t2
    v1 = ff2.valuation(0, 1)
    n, res = ff2.order_and_residue((t1 - ff2.const(1)) / (t1 + ff2.const(1)), v1)
    assert n == 1
    assert res == ff2.const(tower7.from_int(2).inverse())
    n, res = ff2.order_and_residue(t2 + ff2.const(3), ff2.valuation(0, 0))
    assert n == 0 and res == t2 + ff2.const(3)


def test_order_and_residue_at_infinity(ff2):
    t1 = ff2.var(0)
    v = ff2.valuation(0, INF)
    assert ff2.order_and_residue(t1, v)[0] == -1
    assert ff2.order_and_residue(ff2.one() / t1, v)[0] == 1
    n, res = ff2.order_and_residue((t1 + ff2.const(1)) / t1, v)
    assert n == 0 and res.is_one()


def test_order_and_residue_zero_input(ff2):
    with pytest.raises(ZeroInputError):
        ff2.order_and_residue(ff2.zero(), ff2.valuation(0, 0))


def test_order_and_residue_is_a_valuation(ff2, tower7):
    # 300 random pairs: v(fg) = v(f) + v(g), v(f+g) >= min(v(f), v(g))
    rng = random.Random(77)

    def rand_rf():
        while True:
            num = SparsePoly.zero(2)
            den = SparsePoly.zero(2)
            for _ in range(3):
                e = (rng.randrange(3), rng.randrange(3))
                num = num + SparsePoly(2, {e: tower7.from_int(rng.randrange(7))})
            for _ in range(2):
                e = (rng.randrange(2), rng.randrange(2))
                den = den + SparsePoly(2, {e: tower7.from_int(rng.randrange(7))})
            if not num.is_zero() and not den.is_zero():
                return RatFunc(num, den)

    vals = [ff2.valuation(0, 0), ff2.valuation(0, 1), ff2.valuation(1, 0),
            ff2.valuation(0, INF), ff2.valuation(1, INF)]
    for k in range(300):
        f, g = rand_rf(), rand_rf()
        v = vals[k % len(vals)]
        nf, rf = ff2.order_and_residue(f, v)
        ng, rg = ff2.order_and_residue(g, v)
        assert ff2.order_and_residue(f * g, v)[0] == nf + ng
        assert not rf.is_zero() and not rg.is_zero()
        s = f + g
        if not s.is_zero():
            assert ff2.order_and_residue(s, v)[0] >= min(nf, ng)


@functools.lru_cache(maxsize=None)
def _tower_to_level_2(p):
    tw = FieldTower(p, seed=0)
    tw.ensure_level(2)
    return tw


def _shift_by_products(poly, i, a):
    """t_i -> t_i + a by SparsePoly products: sum over the t_i^m parts f_m
    of f_m * C(m, j) a^(m-j) t_i^j, added up one product at a time."""
    tower, nv = a.tower, poly.nvars
    univ = {}
    for e, c in poly.terms.items():
        rest = list(e)
        m, rest[i] = rest[i], 0
        univ.setdefault(m, {})[tuple(rest)] = c
    apow = [tower.one()]
    for _ in range(max(univ)):
        apow.append(apow[-1] * a)
    out = SparsePoly.zero(nv)
    for m, coeffs in univ.items():
        for j in range(m + 1):
            b = math.comb(m, j) % tower.p
            if b:
                c = apow[m - j] if b == 1 else tower.from_int(b) * apow[m - j]
                exp = [0] * nv
                exp[i] = j
                out = out + SparsePoly(nv, coeffs) * SparsePoly(nv, {tuple(exp): c})
    return out


def _order_and_residue_by_products(f, v):
    """The read-off at a finite nonzero centre by shifting the centre to 0,
    then keeping the lowest power of t_i with t_i set to 0."""
    i = v.var

    def strip(poly):
        o = poly.order_in(i)
        return SparsePoly(poly.nvars, {
            tuple(0 if k == i else x for k, x in enumerate(e)): c
            for e, c in poly.terms.items() if e[i] == o})

    num = _shift_by_products(f.num, i, v.center)
    den = _shift_by_products(f.den, i, v.center)
    return (num.order_in(i) - den.order_in(i),
            RatFunc(strip(num), strip(den)))


@st.composite
def _recentring_cases(draw):
    """A fraction in 2 to 4 variables over the p = 2, 3 or 7 tower, a step
    variable and a nonzero centre at level 1 or 2.  Coefficients sit at
    level 1 or 2, some of the latter in F_p, so that running sums cancel
    and levels mix; exponents in the step variable reach past p, where
    binomials vanish mod p, and some polynomials leave it out."""
    p = draw(st.sampled_from((2, 3, 7)))
    tw = _tower_to_level_2(p)
    nv = draw(st.integers(2, 4))
    i = draw(st.integers(0, nv - 1))

    def element():
        level = draw(st.sampled_from((1, 2)))
        coeffs = draw(st.lists(st.integers(0, p - 1), min_size=level,
                               max_size=level))
        if draw(st.booleans()):
            coeffs[1:] = [0] * (level - 1)
        if not any(coeffs):
            coeffs[0] = 1
        return tw.element(level, coeffs)

    def poly():
        top = 0 if draw(st.booleans()) else p + 2
        terms = {}
        for _ in range(draw(st.integers(1, 6))):
            exp = [draw(st.integers(0, 2)) for _ in range(nv)]
            exp[i] = draw(st.integers(0, top))
            terms[tuple(exp)] = element()
        return SparsePoly(nv, terms)

    return FunctionField(tw, nv), RatFunc(poly(), poly()), i, element()


@settings(max_examples=300, deadline=None)
@given(_recentring_cases(), st.integers(1, 3))
def test_hasse_read_off_matches_the_shift_by_products(case, e):
    ff, f, i, a = case
    v = ff.valuation(i, a)
    n, res = ff.order_and_residue(f, v)
    n_ref, res_ref = _order_and_residue_by_products(f, v)
    assert n == n_ref and res.key() == res_ref.key()
    # the Kummer cover substitution t_i - a -> s^e recentres the same way
    cover = _cover_substitute(ff, f, i, e, a)
    assert cover.key() == RatFunc(
        _shift_by_products(f.num, i, a).scale_exponent(i, e),
        _shift_by_products(f.den, i, a).scale_exponent(i, e)).key()


def test_hasse_read_off_drops_a_cancelled_running_sum():
    # 4 + t + t^2 at t = 3 over F_7, with 4 held at level 2: the running
    # sum 4 + 3 cancels before 9 = 2 is added, so the value is 2 at level
    # 1, as the shift by products gives it, not at the lcm level 2
    tw = _tower_to_level_2(7)
    ff = FunctionField(tw, 2)
    one = tw.one()
    f = RatFunc(SparsePoly(2, {(0, 0): tw.element(2, [4, 0]), (1, 0): one,
                               (2, 0): one}), SparsePoly.constant(2, one))
    v = ff.valuation(0, tw.from_int(3))
    n, res = ff.order_and_residue(f, v)
    assert n == 0 and res.num.terms[0, 0].level == 1
    assert res.key() == _order_and_residue_by_products(f, v)[1].key()


def test_sparsepoly_ring_axioms(tower7):
    rng = random.Random(5)

    def rand_poly():
        out = SparsePoly.zero(2)
        for _ in range(rng.randrange(1, 4)):
            e = (rng.randrange(3), rng.randrange(3))
            out = out + SparsePoly(2, {e: tower7.from_int(rng.randrange(7))})
        return out

    for _ in range(100):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_ratfunc_canonical_form_and_equality(ff2, tower7):
    t1, t2 = ff2.var(0), ff2.var(1)
    f = (t1 * t2) / t1
    assert f == t2
    # monomial content divided out, denominator lead coefficient one
    assert f.den.is_constant()
    g = (t1 * ff2.const(3)) / (t2 * ff2.const(3))
    assert g == t1 / t2
    assert not (t1 == t2)
    # cross-multiplication equality through unreduced fractions
    h = (t1 * t1 - ff2.const(1) * t1 * t1) + t1  # just t1
    assert h == t1


def _tower_record(p):
    """Tower choices, ell-th roots and polynomial roots of a p tower grown
    to levels 2, 3, 4 and 6 in turn, root finds in between."""
    tw = FieldTower(p, seed=0)
    ff = FunctionField(tw, 1)
    t = ff.var(0)

    def enc(x):
        return [x.level, list(x.coeffs)]

    def ell_th_roots(x, ell):
        return [[enc(y), k] for y, k in _ell_th_roots(tw, x, ell)]

    record = []
    for m in (2, 3, 4, 6):
        g = tw.element(m, [0, 1] + [0] * (m - 2))
        roots = [ell_th_roots(z ** ell, ell)
                 for ell in (2, 3)
                 for z in (g, g + tw.one(), tw.element_from_index(m, p ** m - 1))]
        if m == 2:
            roots.append(ell_th_roots(g, 3))
        c = ff.const(g)
        polys = [t * t + c * t + ff.one(),
                 t * t - c,
                 (t - c) ** 2 * (t + ff.one()),
                 t ** p - c]
        if m in (2, 4):
            polys.append(t ** 3 + c * t + ff.one())
        found = [[[enc(z), k] for z, k in ff.univariate_roots(f.num)]
                 for f in polys]
        record.append({"level": m, "roots": roots, "found": found,
                       "snapshot": tw.snapshot()})
    return record


def test_tower_snapshot_deterministic():
    a = FieldTower(5, seed=9)
    b = FieldTower(5, seed=9)
    a.ensure_level(4)
    b.ensure_level(4)
    a.ensure_level(3)
    b.ensure_level(3)
    assert a.snapshot() == b.snapshot()
    # the moduli drawn, the roots chosen and their order are pinned: any
    # change in one of them moves the digest
    text = json.dumps([_tower_record(p) for p in (2, 3, 5)],
                      sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2ae436df08bd5112e2f5426ba640f667ee63ac17e3d0da43845b95e29bd354ae")


@functools.lru_cache(maxsize=None)
def _grown(p, top):
    """A p tower whose spine goes 1 | top, with every level dividing top."""
    tw = FieldTower(p, seed=0)
    for m in sorted((d for d in range(2, top + 1) if top % d == 0), reverse=True):
        tw.ensure_level(m)
    return tw


def _modulus(tw, level):
    (f,) = [e["modulus"] for e in tw.snapshot()["levels"] if e["level"] == level]
    return f


def _oracle_mul(a, b, f, p):
    """a*b modulo the monic f, as plain ints: the product's x^k, k >= m,
    are replaced by x^k mod f, built by shifting x^(k-1) mod f."""
    m = len(f) - 1
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    out = prod[:m] + [0] * (m - len(prod[:m]))
    xk = [0] * (m - 1) + [1]  # x^(m-1)
    for k in range(m, 2 * m - 1):
        top = xk[-1]
        xk = [0] + xk[:-1]
        xk = [(v - top * c) % p for v, c in zip(xk, f)]
        out = [(v + prod[k] * w) for v, w in zip(out, xk)]
    return tuple(v % p for v in out)


TOWER_CASES = [(p, top, m) for p in (2, 3, 5, 7, 13) for top in (4, 6)
               for m in range(1, top + 1) if top % m == 0]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(TOWER_CASES), st.data())
def test_level_arithmetic_matches_plain_int_oracle(case, data):
    p, top, m = case
    tw = _grown(p, top)
    f = _modulus(tw, m)
    vec = st.lists(st.integers(0, p - 1), min_size=m, max_size=m)
    a, b = data.draw(vec), data.draw(vec)
    x, y = tw.element(m, a), tw.element(m, b)
    one = tuple([1] + [0] * (m - 1))
    assert (x * y).coeffs == _oracle_mul(a, b, f, p)
    e = data.draw(st.integers(0, 40))
    power = one
    for _ in range(e):
        power = _oracle_mul(power, a, f, p)
    assert (x ** e).coeffs == power
    if any(a):
        assert _oracle_mul(x.inverse().coeffs, a, f, p) == one
        assert _oracle_mul((x ** -e).coeffs, power, f, p) == one
    else:
        with pytest.raises(ZeroError):
            x.inverse()


def _monic_factor(f, p):
    """A monic factor of the monic f of degree 1 .. deg(f)/2, found by trial
    division by every such polynomial, or None."""
    m = len(f) - 1
    for d in range(1, m // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            g = list(low) + [1]
            r = list(f)
            for k in range(m - d, -1, -1):
                c = r[k + d]
                for i in range(d + 1):
                    r[k + i] = (r[k + i] - c * g[i]) % p
            if not any(r[:d]):
                return g
    return None


@pytest.mark.parametrize("p", (2, 3, 5, 7, 13))
def test_recorded_moduli_are_irreducible(p):
    # (x^2 + 1)(x^2 + x + 1), a planted reducible quartic
    assert _monic_factor([1, 1, 2, 1, 1], p) is not None
    for top in (4, 6):
        for entry in _grown(p, top).snapshot()["levels"]:
            f = entry["modulus"]
            assert len(f) - 1 == entry["level"] and f[-1] == 1
            assert _monic_factor(f, p) is None, entry


def test_univariate_roots_characteristic_two():
    # the splitting over F_{2^m} goes through additive trace maps
    tw = FieldTower(2, seed=0)
    ff = FunctionField(tw, 1)
    t = ff.var(0)
    # t^2 + t + 1 is irreducible over F_2 with conjugate roots in F_4
    f = (t * t + t + ff.const(1)).num
    roots = ff.univariate_roots(f)
    assert len(roots) == 2
    for r, m in roots:
        assert m == 1 and r.level == 2
        assert (r * r + r + tw.one()).is_zero()
    rng = random.Random(2)
    for _ in range(4):
        deg = rng.randrange(2, 6)
        f = t ** deg
        for k in range(deg):
            f = f + ff.const(rng.randrange(2)) * t ** k
        rts = ff.univariate_roots(f.num)
        assert sum(m for _, m in rts) == deg
        for r, _ in rts:
            val = tw.zero()
            for e, c in f.num.terms.items():
                val = val + c * r ** e[0]
            assert val.is_zero()


def test_univariate_roots_inseparable_polynomial():
    # a p-th power factors through the coefficient Frobenius
    tw = FieldTower(3, seed=0)
    ff = FunctionField(tw, 1)
    t = ff.var(0)
    g = next(x for x in _elements(tw, 2) if x and x.compress().level == 2)
    f = (t ** 3 - ff.const(g ** 3)).num   # equals (t - g)^3
    roots = ff.univariate_roots(f)
    assert len(roots) == 1
    r, m = roots[0]
    assert m == 3 and r == g


# -- closed-form quadratic roots ---------------------------------------------

@st.composite
def _prime_field_quadratics(draw):
    """a x^2 + b x + c over F_p, p = 3 or p = 1 or 3 mod 4, its
    discriminant drawn from 0, the nonzero squares or the non-squares; the
    tower seed, and the spine level built before the roots are asked."""
    p = draw(st.sampled_from((3, 5, 7, 11, 13)))
    squares = sorted({x * x % p for x in range(1, p)})
    disc = draw(st.sampled_from(
        ([0], squares, [d for d in range(1, p) if d not in squares])))
    a, b = draw(st.integers(1, p - 1)), draw(st.integers(0, p - 1))
    c = (b * b - draw(st.sampled_from(disc))) * pow(4 * a, -1, p) % p
    return p, (c, b, a), draw(st.integers(0, 3)), draw(st.sampled_from((1, 3, 4)))


@settings(max_examples=200, deadline=None)
@given(_prime_field_quadratics())
def test_quadratic_roots_match_the_splitting(case):
    # the closed form gives the roots that the generic path gives for the
    # same quadratic over level 2, in the same order and at the same
    # levels; and the tower's stream only draws the levels the roots need
    p, coeffs, seed, grown = case
    fast, generic, alone = (FieldTower(p, seed=seed) for _ in range(3))
    for tw in (fast, generic, alone):
        tw.ensure_level(grown)
    ff = FunctionField(fast, 1)
    poly = SparsePoly(1, {(k,): fast.from_int(c) for k, c in enumerate(coeffs)})
    got = ff.univariate_roots(poly)
    generic.ensure_level(2)
    want = generic._dense_roots([(c, 0) for c in coeffs], 2)
    assert ([(z.level, z.coeffs, m) for z, m in got]
            == [(z.level, z.coeffs, m) for z, m in want])
    for z, _ in got:
        alone.ensure_level(z.level)
    assert fast.snapshot() == alone.snapshot()
    assert fast._rng.getstate() == alone._rng.getstate()


@pytest.mark.parametrize("p, level, closed", [
    (7, 1, True), (3, 1, True), (2, 1, False), (7, 2, False), (3, 2, False)])
def test_only_odd_prime_field_quadratics_take_the_closed_form(
        monkeypatch, p, level, closed):
    tw = FieldTower(p, seed=0)
    tw.ensure_level(2)
    ff = FunctionField(tw, 1)
    t = ff.var(0)
    calls = []
    parts = tw._squarefree_parts

    def spy(dense, lv):
        calls.append(lv)
        return parts(dense, lv)

    monkeypatch.setattr(tw, "_squarefree_parts", spy)
    # 1 at the given level: the value is in F_p either way
    one = tw.element(level, [1] + [0] * (level - 1))
    roots = ff.univariate_roots((t * t + t + ff.const(one)).num)
    assert sum(m for _, m in roots) == 2
    assert (calls == []) == closed


# -- one root-finding path: the tower record, Yun against root counting ------

@st.composite
def _tower_walks(draw):
    """A p tower's requests of the levels dividing one top, 2 to 6, in a
    drawn order, each after one or two root finds of products of
    (t - a)^e, every a drawn from one level already built.  With coeffs,
    the coefficients are taken at their minimal levels first, so that
    factors of degree above 1 are split as well."""
    p, top = draw(st.sampled_from((2, 3, 5, 7))), draw(st.integers(2, 6))
    root_find = st.tuples(
        st.integers(0, 5),
        st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(1, 3)),
                 min_size=2, max_size=3),
        st.booleans())
    levels = draw(st.permutations([d for d in range(2, top + 1) if top % d == 0]))
    steps = [(m, draw(st.lists(root_find, min_size=1, max_size=2)))
             for m in levels]
    return p, draw(st.integers(0, 3)), steps


def _walk(p, seed, steps, find_roots):
    tw = FieldTower(p, seed=seed)
    ff = FunctionField(tw, 1)
    t = ff.var(0)
    for level, finds in steps:
        for which, factors, coeffs in finds:
            # both walks build the polynomial and compress its coefficients;
            # only the root find itself is skipped
            built = tw.levels()
            m = built[which % len(built)]
            f = ff.one()
            for k, e in factors:
                f = f * (t - ff.const(tw.element_from_index(m, k % p ** m))) ** e
            poly = f.num
            if coeffs:
                poly = SparsePoly(1, {e: c.compress() for e, c in poly.terms.items()})
            if find_roots:
                roots = ff.univariate_roots(poly)
                assert sum(k for _, k in roots) == sum(e for _, e in factors)
        tw.ensure_level(level)
    return tw


@settings(max_examples=40, deadline=None)
@given(_tower_walks())
# a root find that builds level 3, a root's minimal level, before the walk
# builds level 2
@example((3, 0, [(6, []), (2, [(1, [(0, 1), (255, 1)], False)]), (3, [])]))
def test_root_finds_leave_the_tower_record_alone(walk):
    p, seed, steps = walk
    with_roots = _walk(p, seed, steps, True)
    alone = _walk(p, seed, steps, False)
    assert with_roots.snapshot() == alone.snapshot()


def _counted_roots(tw, dense, level):
    """Roots with multiplicities by the route that Yun's decomposition
    replaced: the distinct roots, found by recursing into gcd(f, f') and
    through the p-th root of a polynomial with zero derivative, then each
    root's multiplicity counted by synthetic division."""
    p, rng = tw.p, random.Random(0)

    def distinct(dense):
        dense = tw._lp_trim(list(dense))
        if len(dense) - 1 <= 0:
            return []
        deriv = tw._lp_trim([tuple((k * x) % p for x in dense[k])
                             for k in range(1, len(dense))])
        if not deriv:
            return distinct([GroundElem(tw, level, dense[k]).pth_root().coeffs
                             for k in range(0, len(dense), p)])
        g = tw._lp_gcd(list(dense), deriv, level)
        roots = tw._squarefree_roots(tw._lp_divexact(list(dense), g, level),
                                     level, rng)
        seen = {z.compress_key() for z in roots}
        for z in distinct(g):
            if z.compress_key() not in seen:
                seen.add(z.compress_key())
                roots.append(z)
        return roots

    def multiplicity(z):
        lv = math.lcm(level, z.level)
        tw.ensure_level(lv)
        zl = tw._lift(z, lv).coeffs
        poly = [tw._lift(GroundElem(tw, level, c), lv).coeffs for c in dense]
        mult = 0
        while True:
            # synthetic division by (x - z)
            q = [tuple([0] * lv)] * (len(poly) - 1)
            carry = tuple([0] * lv)
            for k in range(len(poly) - 1, 0, -1):
                carry = tw._add(lv, poly[k], tw._mul(lv, carry, zl))
                q[k - 1] = carry
            if any(tw._add(lv, poly[0], tw._mul(lv, carry, zl))):
                return mult
            mult += 1
            poly = q
            if len(poly) == 1:
                return mult

    return {z.compress_key(): multiplicity(z) for z in distinct(dense)}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3, 5, 7)), st.sampled_from((1, 2)),
       st.lists(st.tuples(st.integers(0, 10 ** 6), st.booleans(),
                          st.integers(1, 9)), min_size=1, max_size=3))
def test_squarefree_parts_count_the_multiplicities_that_roots_do(p, level, factors):
    # products of linear and quadratic factors over F_{p^level}, each to a
    # power up to 9, so that powers divisible by p take the p-th-root step
    tw = FieldTower(p, seed=0)
    tw.ensure_level(level)
    ff = FunctionField(tw, 1)
    t = ff.var(0)
    f = ff.one()
    for k, quadratic, e in factors:
        a = ff.const(tw.element_from_index(level, k % p ** level))
        f = f * (t * t + a * t + ff.const(1) if quadratic else t - a) ** e
    dense, lv = ff._dense(f.num)
    parts = tw._squarefree_parts(dense, lv)
    # pairwise coprime, squarefree, and the product of their powers is f
    product = [tw.one().coeffs + (0,) * (lv - 1)]
    for g, m in parts:
        assert m >= 1 and len(g) > 1
        for _ in range(m):
            product = tw._lp_mul(product, g, lv)
    assert product == tw._lp_monic(dense, lv)
    assert all(len(tw._lp_gcd(g, h, lv)) == 1
               for (g, _), (h, _) in itertools.combinations(parts, 2))
    counted = _counted_roots(tw, dense, lv)
    assert sorted(m for g, m in parts for _ in range(len(g) - 1)) == sorted(
        counted.values())
    assert {z.compress_key(): m for z, m in ff.univariate_roots(f.num)} == counted
    assert sorted({m for _, m in parts}) == sorted(ff.root_multiplicities(f.num))


def test_not_equal_to_an_int_or_a_str(ff2, tower7):
    # != is derived from __eq__: an explicit __ne__ once negated
    # NotImplemented, so that x != 5 and x == 5 were both False
    x, three = ff2.var(0), tower7.from_int(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (x, x.num, three):
            assert a != "t0" and not a == "t0"
        for a in (x, x.num):
            assert a != 5 and not a == 5
        assert three != 4 and not three != 3


def test_value_type_operators_match_their_spelled_out_forms():
    # the reflected and derived operators of the exported value types, which
    # no path in the package takes, against the forms they abbreviate; a
    # level-2 element meets level-1 integers, so the mixed-level lift runs
    from milnork.kmilnor import Symbol

    tw = FieldTower(7, seed=0)
    a, b = tw.element_from_index(2, 10), tw.element_from_index(2, 33)
    three = tw.from_int(3)
    assert 3 + a == a + 3 == a + three
    assert a - b == a + (-b) and a - 3 == a + tw.from_int(-3)
    assert 3 - a == three + (-a)
    assert 2 * a == a * 2 == a + a
    ff = FunctionField(tw, 2)
    x, y = ff.var(0), ff.var(1)
    f = (x + ff.const(1)) / y
    assert -f == f * ff.const(-1) and (f + (-f)).is_zero()
    assert bool(f) is True and bool(f - f) is False
    # equal values built two ways hash alike, so either finds the other
    square = ((x + ff.const(1)) * (x + ff.const(1))).num
    expanded = (x * x + ff.const(2) * x + ff.const(1)).num
    assert square is not expanded and square == expanded
    assert hash(square) == hash(expanded) and {square: 1}[expanded] == 1
    s1, s2 = Symbol([x, f]), Symbol([ff.var(0), (x + ff.const(1)) / y])
    assert s1 == s2 and hash(s1) == hash(s2) and len({s1, s2}) == 1


def test_zero_and_out_of_range_arguments():
    # the trivial cases and the guards of the arithmetic, each with the
    # answer or the error its callers rely on
    tw = FieldTower(7, seed=0)
    ff = FunctionField(tw, 2)
    x, y, zero = ff.var(0), ff.var(1), ff.zero()
    assert tw.from_int(3) / 2 == tw.from_int(5)
    assert (x / tw.from_int(2)) * ff.const(2) == x
    assert zero.num.constant_value(tw) == tw.zero()
    assert zero.num.degree_in(0) == -1
    assert x.num.shift_var(0, tw.zero()) is x.num
    assert zero.compose([y, x]).is_zero()
    assert ff.univariate_roots(ff.const(3).num) == []
    for call, error in ((lambda: x.num.constant_value(tw), ValueError),
                        (lambda: zero.num.order_in(0), ZeroInputError),
                        (lambda: RatFunc(x.num, zero.num), ZeroDivisionError),
                        (lambda: x / zero, ZeroDivisionError),
                        (zero.inverse, ZeroDivisionError),
                        (lambda: ff.var(2), ValueError),
                        (lambda: ff.univariate_roots((x * y).num), ValueError)):
        with pytest.raises(error):
            call()
    # a valuation equals only a valuation of the same variable and centre
    assert ff.valuation(0, INF) == ff.valuation(0, INF)
    assert ff.valuation(0, INF) != ff.valuation(1, INF)
    assert ff.valuation(0, 1) != ff.valuation(0, INF)
    assert ff.valuation(0, INF) != "t0"
