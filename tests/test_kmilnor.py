"""Symbols, tame steps, chains, pullbacks, certificates, dimension bounds."""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milnork import kmilnor, linalg

from milnork.groundfield import (
    INF,
    CoordValuation,
    FieldTower,
    FunctionField,
    SparsePoly,
)
from milnork.jsonio import (
    decode_certificate,
    decode_chain,
    encode_certificate,
    encode_chain,
    encode_ratfunc,
    encode_symbol,
)
from milnork.kmilnor import (
    UNKNOWN,
    BadExponent,
    Certificate,
    ChainError,
    FormalSum,
    KContext,
    NotUniformizer,
    ParshinChain,
    Symbol,
    ZeroEntry,
    coordinate_chain,
    monomial_pullback,
    tame_chain,
    tame_step,
)
from milnork.lattice import milnor_dim_bounds


def test_tame_step_degree_one_is_the_valuation(ff2):
    v = ff2.valuation(0, 0)
    out = tame_step(ff2, Symbol([ff2.var(0)]), v, pi=ff2.uniformizer(v), ell=3)
    assert out.scalar() == 1
    out = tame_step(ff2, Symbol([ff2.var(0) ** 2]), v, ell=5)
    assert out.scalar() == 2


def test_tame_step_uniformizer_slot(ff2):
    # {t1, t2} at t1 = 0 residues to {t2}
    v = ff2.valuation(0, 0)
    out = tame_step(ff2, Symbol([ff2.var(0), ff2.var(1)]), v,
                    pi=ff2.uniformizer(v), ell=3)
    assert len(out.terms) == 1
    coeff, sym = out.terms[0]
    assert coeff == 1 and len(sym) == 1
    assert sym.entries[0] == ff2.var(1)


def test_tame_step_kills_unit_symbols(ff2):
    v = ff2.valuation(0, 0)
    s = Symbol([ff2.var(1) + ff2.const(1), ff2.var(1) + ff2.const(2)])
    assert tame_step(ff2, s, v, ell=3).is_zero()


def test_tame_step_rejects_bad_uniformizer(ff2):
    v = ff2.valuation(0, 0)
    with pytest.raises(NotUniformizer):
        tame_step(ff2, Symbol([ff2.var(0)]), v, pi=ff2.var(0) ** 2, ell=3)


def test_tame_step_independent_of_uniformizer_choice(ff2):
    # scaled and perturbed uniformizers give the same residues
    v = ff2.valuation(0, 0)
    t1, t2 = ff2.var(0), ff2.var(1)
    s = Symbol([t1 * (t2 + ff2.const(2)), t2 + ff2.const(1)])
    pis = [t1, t1 * ff2.const(3), t1 * (t2 + ff2.const(1))]
    outs = [tame_step(ff2, s, v, pi=pi, ell=5) for pi in pis]
    for other in outs[1:]:
        assert outs[0].terms == other.terms


def test_tame_chain_full_coordinate_symbol(ctx5, ff5):
    tw = ff5.tower
    ts = [ff5.var(i) for i in range(5)]
    ch = coordinate_chain(ff5, range(5), [tw.zero()] * 5)
    assert tame_chain(ff5, Symbol(ts), ch, 3).scalar() == 1
    # shifted coordinates at a shifted chain
    centers = [tw.from_int(c) for c in (1, 2, 0, 3, 5)]
    sym = Symbol([t - ff5.const(c) for t, c in zip(ts, centers)])
    ch2 = coordinate_chain(ff5, range(5), centers)
    assert tame_chain(ff5, sym, ch2, 3).scalar() == 1


def test_tame_chain_two_steps_and_antisymmetry(ff2):
    tw = ff2.tower
    ch = coordinate_chain(ff2, [0, 1], [tw.zero(), tw.zero()])
    assert tame_chain(ff2, Symbol([ff2.var(0), ff2.var(1)]), ch, 3).scalar() == 1
    assert tame_chain(ff2, Symbol([ff2.var(1), ff2.var(0)]), ch, 3).scalar() == 2


def test_tame_chain_requires_length(ff2):
    ch = coordinate_chain(ff2, [0, 1], [ff2.tower.zero()] * 2)
    with pytest.raises(ValueError):
        tame_chain(ff2, Symbol([ff2.var(0)]), ch, 3)


def test_chain_validation_rejects_bad_chains(ff2):
    with pytest.raises(ChainError):
        coordinate_chain(ff2, [0, 0], [ff2.tower.zero()] * 2)
    v0, v1 = ff2.valuation(0, 0), ff2.valuation(1, 0)
    with pytest.raises(ChainError):
        ParshinChain(ff2, [v0, v1], uniformizers=[ff2.var(0) ** 2, ff2.var(1)])
    with pytest.raises(ChainError):
        # second uniformizer is not a unit at the first step
        ParshinChain(ff2, [v0, v1], uniformizers=[ff2.var(0),
                                                  ff2.var(0) * ff2.var(1)])


def test_uniformizing_system_validation_accepts_units(ff2):
    v0, v1 = ff2.valuation(0, 0), ff2.valuation(1, 0)
    u2 = ff2.var(1) * (ff2.var(0) + ff2.const(1))
    ParshinChain(ff2, [v0, v1], uniformizers=[ff2.var(0), u2])


def test_steinberg_relation_survives_residues():
    # 200 random pairs (f, 1-f); every tame residue of {f, 1-f} vanishes
    count = 0
    for p, ell in [(7, 3), (7, 5), (11, 3), (11, 5)]:
        tw = FieldTower(p, seed=0)
        ff = FunctionField(tw, 2)
        rng = random.Random(p * 100 + ell)

        def rand_rf():
            from milnork.groundfield import RatFunc, SparsePoly

            while True:
                num = SparsePoly.zero(2)
                den = SparsePoly.zero(2)
                for _ in range(3):
                    e = (rng.randrange(3), rng.randrange(3))
                    num = num + SparsePoly(2, {e: tw.from_int(rng.randrange(p))})
                for _ in range(2):
                    e = (rng.randrange(2), rng.randrange(2))
                    den = den + SparsePoly(2, {e: tw.from_int(rng.randrange(p))})
                if not num.is_zero() and not den.is_zero():
                    return RatFunc(num, den)

        vals = [ff.valuation(0, 0), ff.valuation(0, 1), ff.valuation(1, 0),
                ff.valuation(1, 2), ff.valuation(0, INF), ff.valuation(1, INF)]
        pairs = 0
        while pairs < 50:
            f = rand_rf()
            g = ff.one() - f
            if f.is_zero() or g.is_zero():
                continue
            pairs += 1
            count += 1
            for v in vals:
                assert tame_step(ff, Symbol([f, g]), v, ell=ell).is_zero()
    assert count == 200


def test_multilinearity_in_the_residue_group(ctx2, ff2):
    rng = random.Random(21)
    tw = ff2.tower
    for k in range(200):
        c1, c2 = tw.from_int(rng.randrange(7)), tw.from_int(rng.randrange(7))
        ch = coordinate_chain(ff2, [0, 1], [c1, c2])
        x = ff2.var(0) - ff2.const(tw.from_int(rng.randrange(7)))
        y = (ff2.var(0) * ff2.var(1)) - ff2.const(tw.from_int(rng.randrange(1, 7)))
        z = ff2.var(1) - ff2.const(c2)
        if x.is_zero() or y.is_zero():
            continue
        sxy = tame_chain(ff2, Symbol([x * y, z]), ch, 3).scalar()
        sx = tame_chain(ff2, Symbol([x, z]), ch, 3).scalar()
        sy = tame_chain(ff2, Symbol([y, z]), ch, 3).scalar()
        assert sxy == (sx + sy) % 3


def test_chain_restriction_composes(ff5):
    # the chain t0 = 1, t1 = 0, t2 = 2 split after s steps: its head, and
    # its tail on the residue field, where each coordinate uniformizer is
    # its own residue
    tw = ff5.tower
    rng = random.Random(9)
    variables, centers = [0, 1, 2], [tw.from_int(1), tw.zero(), tw.from_int(2)]
    ch = coordinate_chain(ff5, variables, centers)
    for _ in range(40):
        entries = []
        for i in range(3):
            f = ff5.var(i) - ff5.const(tw.from_int(rng.randrange(7)))
            if rng.random() < 0.4:
                f = f * (ff5.var(rng.randrange(3)) + ff5.const(1))
            entries.append(f)
        sym = Symbol(entries)
        full = tame_chain(ff5, sym, ch, 3).scalar()
        for s in (1, 2):
            head = coordinate_chain(ff5, variables[:s], centers[:s])
            tail = coordinate_chain(ff5, variables[s:], centers[s:])
            mid = tame_chain(ff5, sym, head, 3)
            assert tame_chain(ff5, mid, tail, 3).scalar() == full


def test_monomial_pullback_multiplies_values(ff2):
    tw = ff2.tower
    ch = coordinate_chain(ff2, [0, 1], [tw.zero(), tw.zero()])
    pulled = monomial_pullback(ch, (2, 1))
    sym = Symbol([ff2.var(0), ff2.var(1)])
    assert tame_chain(ff2, sym, pulled, 3).scalar() == 2
    assert pulled.ram_indices == (2, 1)
    # trivial cover changes nothing
    trivial = monomial_pullback(ch, (1, 1))
    assert tame_chain(ff2, sym, trivial, 3).scalar() == 1


def test_monomial_pullback_ell_divisible_dies(ff2):
    ch = coordinate_chain(ff2, [0], [ff2.tower.zero()])
    pulled = monomial_pullback(ch, (3,))
    assert tame_chain(ff2, Symbol([ff2.var(0)]), pulled, 3).scalar() == 0
    assert pulled.ram_indices == (3,)


def test_monomial_pullback_unit_slots(ff2):
    # unit-augmented symbols scale by the product of the exponents
    tw = ff2.tower
    ch = coordinate_chain(ff2, [0], [tw.from_int(2)])
    base_sym = Symbol([ff2.var(0) - ff2.const(2), ff2.var(1) + ff2.const(1)])
    base = tame_chain(ff2, base_sym, ch, 5)
    pulled = monomial_pullback(ch, (4,))
    up = tame_chain(ff2, base_sym, pulled, 5)
    assert len(base.terms) == 1 and len(up.terms) == 1
    (cb, sb), (cu, su) = base.terms[0], up.terms[0]
    assert sb == su
    assert cu == (4 * cb) % 5


def test_monomial_pullback_at_infinity(ff2):
    chinf = ParshinChain(ff2, [ff2.valuation(0, INF), ff2.valuation(1, 0)])
    sym = Symbol([ff2.one() / ff2.var(0), ff2.var(1)])
    assert tame_chain(ff2, sym, chinf, 3).scalar() == 1
    pulled = monomial_pullback(chinf, (2, 1))
    assert tame_chain(ff2, sym, pulled, 3).scalar() == 2


def test_monomial_pullback_rejects_bad_exponents(ff2):
    ch = coordinate_chain(ff2, [0], [ff2.tower.zero()])
    with pytest.raises(BadExponent):
        monomial_pullback(ch, (0,))
    with pytest.raises(BadExponent):
        monomial_pullback(ch, (7,))
    with pytest.raises(BadExponent):
        monomial_pullback(ch, (2, 2))


def test_certificate_search_coordinates(ctx5, ff5):
    ts = [ff5.var(i) for i in range(5)]
    cert = ctx5.certificate_search(ts, budget=50, seed=0)
    assert cert is not UNKNOWN
    assert cert.value == 1
    assert cert.replay()
    # the deterministic first trial sits at the origin
    assert all(v.center.is_zero() for v in cert.chain.steps)


def test_certificate_search_degenerate_symbol(ctx5, ff5):
    # {x, x^2 * cube} is zero; the search must stay unknown
    x = ff5.var(0)
    cube = (ff5.var(1) + ff5.const(1)) ** 3
    out = ctx5.certificate_search([x, x * x * cube], budget=40, seed=0)
    assert out is UNKNOWN


def test_certificate_search_subfield_and_outside_element(ctx2, ff2):
    cert = ctx2.certificate_search([ff2.var(0), ff2.var(1)], budget=50, seed=0)
    assert cert is not UNKNOWN and cert.replay()
    x = (ff2.var(0) + ff2.const(1)) / ff2.var(0)  # inside k(t1)
    cert = ctx2.certificate_search([x, ff2.var(1)], budget=50, seed=0)
    assert cert is not UNKNOWN and cert.replay()


def test_certificate_search_zero_entry_raises(ctx2, ff2):
    with pytest.raises(ZeroEntry):
        ctx2.certificate_search([ff2.zero(), ff2.var(0)])


def test_certificates_replay(ctx5, ff5):
    rng = random.Random(8)
    ts = [ff5.var(i) for i in range(5)]
    for k in range(10):
        picks = rng.sample(range(5), rng.randrange(1, 4))
        gens = [ts[i] - ff5.const(ff5.tower.from_int(rng.randrange(7)))
                for i in picks]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        cert = ctx5.certificate_search(gens, budget=40, seed=k)
        if cert is not UNKNOWN:
            assert cert.replay()


def test_certificate_search_straightens_linear_entries(ctx5, ff5):
    mixed = [ff5.var(1), ff5.var(0) + ff5.var(2)]
    cert = ctx5.certificate_search(mixed, budget=40, seed=0)
    assert cert is not UNKNOWN
    assert cert.replay()
    assert cert.transform is not None


@pytest.mark.parametrize("shifts", [False, True])
@pytest.mark.parametrize("seed", [0, 5])
def test_linear_search_wins_with_its_first_trial(ff5, monkeypatch, shifts,
                                                 seed):
    # one trial stream: the straightened trial at the origin comes first,
    # and it certifies every independent linear tuple
    ctx = KContext(ff5, 3)
    t, c = [ff5.var(i) for i in range(5)], ff5.const
    elements = [t[1] + c(2), t[0] + c(3) * t[2], t[0] + t[3] + c(1)]
    trials = []
    try_trial = ctx._try_trial

    def spy(elements, trial):
        trials.append(trial)
        return try_trial(elements, trial)

    monkeypatch.setattr(ctx, "_try_trial", spy)
    cert = ctx.certificate_search(elements, budget=16, seed=seed,
                                  shifts=shifts)
    straight = ctx._straightening_transform(ctx._inner_forms(elements))
    assert straight is not None and cert.transform == straight
    assert trials == [((0, 1, 2), shifts, straight)]
    canonical = ctx.canonical_certificate(elements, budget=16, shifts=shifts)
    assert len(trials) == 2
    assert _outcome(canonical) == _outcome(cert)


def test_the_search_is_seed_free(ff5):
    # a nonlinear pair, neither entry a polynomial in one linear form: the
    # seed is accepted and ignored, and canonical_certificate is the same
    # search
    t = [ff5.var(i) for i in range(5)]
    elements = [t[2] * t[3], t[2] + t[3] + ff5.const(1)]
    ctx = KContext(ff5, 3)
    want = _outcome(ctx.canonical_certificate(elements, budget=32))
    assert want is not UNKNOWN
    for seed in (0, 1, 999):
        assert _outcome(KContext(ff5, 3).certificate_search(
            elements, budget=32, seed=seed)) == want


def test_hand_built_chains_with_steps_at_infinity(ff5):
    # independent of any search: a step at t_v = infinity sees the pole
    # there of an entry that has no zero or pole on a coordinate
    # hyperplane.  Each chain takes its pair to 2, and its certificate
    # survives the JSON encoding, where the centre is "inf"
    t, c, zero = [ff5.var(i) for i in range(5)], ff5.const, ff5.tower.zero()
    a, b = t[2] * t[3] + c(1), t[3] + t[4] ** 2
    q = t[0] / (t[1] + c(1))
    for entries, variables, centres in (
            ([t[0], a], (0, 2), (zero, INF)),
            ([t[0], b], (0, 3), (zero, INF)),
            ([b, a], (4, 2), (INF, INF)),
            ([t[0] + t[1], q], (1, 0), (INF, zero)),
            ([a, q], (2, 0), (INF, zero)),
            ([t[3], a], (2, 3), (INF, INF))):
        chain = coordinate_chain(ff5, variables, centres)
        cert = Certificate(Symbol(entries), chain, 2, 3)
        assert decode_certificate(ff5, encode_certificate(cert)).replay()
    # the order of the steps matters
    chain = coordinate_chain(ff5, (3, 2), (zero, INF))
    assert tame_chain(ff5, Symbol([t[3], a]), chain, 3).scalar() == 0


def test_entries_without_inner_forms_step_to_infinity(ff5):
    # t0*t1 and (t0+t1)^2 + 3 have no zero or pole on a coordinate
    # hyperplane, and only the second has an inner form, so there is no
    # straightened trial; their orders at t0 = infinity and t1 = infinity,
    # -1 and -2, are prime to 3, and the entries as given win there
    t, c = [ff5.var(i) for i in range(5)], ff5.const
    ctx = KContext(ff5, 3)
    trials = _spy_trials(ctx)
    cert = ctx.certificate_search([t[0] * t[1], (t[0] + t[1]) ** 2 + c(3)],
                                  budget=32)
    assert cert is not UNKNOWN and cert.replay()
    assert trials == [((0, 1), False, None)]
    assert all(v.at_infinity for v in cert.chain.steps)


def test_canonical_certificate_calls_no_certificate_search(ff5, monkeypatch):
    def no_search(*args, **kw):
        raise AssertionError("canonical_certificate called certificate_search")

    monkeypatch.setattr(KContext, "certificate_search", no_search)
    ctx = KContext(ff5, 3)
    cert = ctx.canonical_certificate([ff5.var(1), ff5.var(0) + ff5.var(2)])
    assert cert is not UNKNOWN and cert.replay()


def test_canonical_certificate_is_the_certificate_search():
    assert KContext.canonical_certificate is KContext.certificate_search


def _spy_trials(ctx):
    """Record every trial a context tries."""
    trials = []
    try_trial = ctx._try_trial

    def spy(elements, trial):
        trials.append(trial)
        return try_trial(elements, trial)

    ctx._try_trial = spy
    return trials


def test_unshifted_origin_trials_walk_the_pool(ff5):
    # t2 is no unit on the chain of range(2); the pool tuple (0, 2)
    # certifies the pair
    t = [ff5.var(i) for i in range(5)]
    ctx = KContext(ff5, 3)
    trials = _spy_trials(ctx)
    cert = ctx.certificate_search([t[2], t[0] * t[1]], budget=64, seed=0)
    assert cert is not UNKNOWN and cert.replay()
    assert trials == [((0, 1), False, None), ((0, 2), False, None)]
    assert cert.transform is None


def test_inner_form_needs_the_exact_check():
    # the y-derivative of x + y^3 vanishes at p = 3, so the gradient alone
    # takes it for a polynomial in x; the exact check refuses it
    ff = FunctionField(FieldTower(3, seed=0), 2)
    ctx = KContext(ff, 2)
    x, y = ff.var(0), ff.var(1)
    assert ctx._inner_form(x + y ** 3) is None
    assert ctx._inner_forms([x, x + y ** 3]) is None
    assert ctx.trdeg_upper([x, x + y ** 3]) == 2
    # p-th powers and polynomials in one form keep their form
    assert ctx._inner_form((x + y) ** 3) == (1, 1)
    assert ctx._inner_form((x - y) ** 2 + ff.const(1)) == (1, 2)
    assert ctx._inner_form(x * y) is None
    assert ctx._inner_form(x / (x + ff.const(1))) is None
    # the gradient of x^3 + 2 y^3 + x + y proposes x + y, and g(x + y) has
    # the same terms, but 1 y^3 where the numerator has 2 y^3
    lopsided = x ** 3 + y ** 3 * ff.const(2) + x + y
    assert ctx._inner_form(lopsided) is None
    for f in (x + y ** 3, (x + y) ** 3, (x - y) ** 2 + ff.const(1), x * y,
              x / (x + ff.const(1)), lopsided):
        assert ctx._inner_form(f) == _inner_form_by_products(ctx, f)


def _inner_form_by_products(ctx, x):
    """_inner_form with g(L) built by repeated SparsePoly products, the
    check that the multinomial expansion replaces."""
    if not x.den.is_constant() or x.is_constant():
        return None
    nv, tower = ctx.nvars, ctx.field.tower
    num = x.frobenius_strip(ctx.field.p)[0].num
    grads = [num.derivative(i) for i in range(nv)]
    j, pivot = next((i, g) for i, g in enumerate(grads) if not g.is_zero())
    e, lead = pivot.leading()
    row = []
    for g in grads:
        c = g.terms.get(e)
        if c is None:
            if not g.is_zero():
                return None
            row.append(0)
            continue
        c = (c / lead).compress()
        if c.level != 1 or g != pivot * c:
            return None
        row.append(c.coeffs[0])
    form = SparsePoly(nv, {tuple(int(k == i) for k in range(nv)):
                           tower.from_int(a) for i, a in enumerate(row) if a})
    power = SparsePoly.constant(nv, tower.one())
    image = SparsePoly.zero(nv)
    for m in range(num.degree_in(j) + 1):
        c = num.terms.get(tuple(m if i == j else 0 for i in range(nv)))
        if c is not None:
            image = image + power * c
        power = power * form
    return tuple(row) if image == num else None


@functools.lru_cache(maxsize=None)
def _inner_form_context(p, nv):
    tower = FieldTower(p, seed=0)
    tower.ensure_level(2)
    return KContext(FunctionField(tower, nv), 2 if p != 2 else 3)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_inner_form_matches_the_check_by_products(data):
    # g(L) for a random prime-field form L and a random g with coefficients
    # at levels 1 and 2 has the form L, scaled to a leading 1, unless g(L)
    # is affine with prime-field coefficients, whose form is its own
    # coefficient vector; with a mixed monomial of higher degree added it
    # is a polynomial in no linear form
    p = data.draw(st.sampled_from((2, 3, 5, 7)))
    nv = data.draw(st.integers(2, 4))
    ctx = _inner_form_context(p, nv)
    ff, tower = ctx.field, ctx.field.tower
    coeffs = st.lists(st.integers(0, p - 1), min_size=nv, max_size=nv)
    a = data.draw(coeffs.filter(any))
    L = ff.zero()
    for i, c in enumerate(a):
        L = L + ff.var(i) * tower.from_int(c)

    def element():
        level = data.draw(st.sampled_from((1, 2)))
        return tower.element(level, data.draw(st.lists(
            st.integers(0, p - 1), min_size=level, max_size=level)))

    deg = data.draw(st.integers(1, p + 2))
    g = ff.const(element())
    for m in range(1, deg + 1):
        g = g + L ** m * element()
    if g.is_constant():
        return
    got = ctx._inner_form(g)
    j = next(i for i, c in enumerate(a) if c)
    scaled = tuple(c * pow(a[j], -1, p) % p for c in a)
    assert _inner_form_by_products(ctx, g) == scaled
    degree_one = {e.index(1): c for e, c in g.num.terms.items()
                  if sum(e) == 1}
    if (all(sum(e) <= 1 for e in g.num.terms)
            and all(c.level == 1 for c in degree_one.values())):
        assert got == tuple(degree_one[i].coeffs[0] if i in degree_one
                            else 0 for i in range(nv))
        assert got == tuple(c * got[j] % p for c in scaled)
    else:
        assert got == scaled
    # t_u t_v^top, u != v: the one term of top degree of the sum is mixed,
    # while every power L'^n of a linear form has a term t_k^n, so the sum
    # is a polynomial in no linear form
    top = max(sum(e) for e in g.num.terms)
    u, v = data.draw(st.permutations(range(nv)))[:2]
    extra = ff.var(u) * ff.var(v) ** top * ff.const(
        data.draw(st.integers(1, p - 1)))
    assert _inner_form_by_products(ctx, g + extra) is None
    assert ctx._inner_form(g + extra) is None


def test_trdeg_upper_of_polynomials_in_one_form(ff2):
    ctx = KContext(ff2, 3)
    x, y, c = ff2.var(0), ff2.var(1), ff2.const
    u = x + y
    assert ctx.trdeg_upper([u, u * u + c(3)]) == 1
    assert ctx.trdeg_upper([u ** 3 - c(2), (x - y) ** 2]) == 2
    assert ctx.trdeg_upper([u * u, x * y]) == 2


def test_nonlinear_straightening_centres_at_roots(ff5):
    # (u + 1)^2 - 3 has its roots at level 2; straightened by u and v, the
    # pair wins with its first trial, centred at such a root
    t, c = [ff5.var(i) for i in range(5)], ff5.const
    u, v = t[0] + c(2) * t[1], t[1] + t[3]
    elements = [(u + c(1)) ** 2 - c(3), v ** 3 + v]
    for shifts in (False, True):
        ctx = KContext(ff5, 3)
        trials = _spy_trials(ctx)
        cert = ctx.certificate_search(elements, budget=16, seed=1,
                                      shifts=shifts)
        assert cert is not UNKNOWN and cert.replay()
        straight = ctx._straightening_transform(ctx._inner_forms(elements))
        assert len(trials) == 1 and trials[0][1:] == (False, straight)
        assert cert.transform == straight
        assert cert.chain.steps[0].center.compress().level == 2


def test_parallel_search_matches_sequential(ctx5, ff5):
    ts = [ff5.var(i) for i in range(4)]
    seq = ctx5.certificate_search(ts, budget=32, seed=5, workers=1)
    assert ctx5._trial_values
    # workers is accepted and ignored
    par = ctx5.certificate_search(ts, budget=32, seed=5, workers=4)
    assert seq.value == par.value
    assert seq.statement.key() == par.statement.key()
    assert seq.chain.steps == par.chain.steps


def test_milnor_dim_bounds_examples(ctx5, ff5):
    ts = [ff5.var(i) for i in range(5)]
    assert milnor_dim_bounds(ctx5, [ts[0], ts[1]]) == (2, 2)
    assert milnor_dim_bounds(ctx5, [ff5.const(4)]) == (0, 0)
    assert milnor_dim_bounds(ctx5, [ts[0], ts[0] + ff5.const(1)]) == (1, 1)
    assert milnor_dim_bounds(ctx5, ts) == (5, 5)


def test_milnor_dim_bounds_frobenius_powers(ctx5, ff5):
    # p-th powers carry the same class information up to prime-to-l scaling
    ts = [ff5.var(i) for i in range(5)]
    assert milnor_dim_bounds(ctx5, [ts[0] ** 7, ts[1]]) == (2, 2)
    assert milnor_dim_bounds(ctx5, [ts[0] ** 49]) == (1, 1)


def test_milnor_dim_bounds_p_power_mixture():
    ff = FunctionField(FieldTower(3, seed=0), 2)
    ctx = KContext(ff, 2)
    x, y = ff.var(0), ff.var(1)
    gens = [x, x + y ** 3]
    assert ctx.jacobian_rank(gens) == 1
    assert milnor_dim_bounds(ctx, gens) == (2, 2)
    cert = ctx.certificate_search(gens, shifts=True)
    assert cert is not UNKNOWN and len(cert.statement) == 2 and cert.replay()


def test_trdeg_upper_needs_a_witness(ff2):
    ctx = KContext(ff2, 3)
    x, y = ff2.var(0), ff2.var(1)
    # linear: the F_p rank, constants ignored
    assert ctx.trdeg_upper([x, x + ff2.const(1), ff2.const(2)]) == 1
    assert ctx.trdeg_upper([x + y, x - y]) == 2
    # otherwise the count of members or of variables used
    assert ctx.trdeg_upper([x ** 2, x * x * x]) == 1
    assert ctx.trdeg_upper([x * y, (x * y) ** 2]) == 2
    assert ctx.jacobian_rank([x * y, (x * y) ** 2]) == 1
    assert milnor_dim_bounds(ctx, [x * y, (x * y) ** 2], budget=16) == (1, 2)


def test_kclass_compare(ctx2, ff2):
    from milnork.kmilnor import DISTINCT, EQUAL

    t1, t2 = ff2.var(0), ff2.var(1)
    assert ctx2.kclass_compare(t1, t1) == EQUAL
    assert ctx2.kclass_compare(t1, t1 * (t2 ** 3)) == EQUAL
    assert ctx2.kclass_compare(t1, t1 * t2) == DISTINCT
    assert ctx2.kclass_compare(t1, t1 + ff2.const(1)) == DISTINCT
    cube = (t1 + ff2.const(1)) ** 3 / (t1 ** 3)
    assert ctx2.kclass_compare(t1 * cube, t1) == EQUAL
    assert ctx2.kclass_compare(t1, ff2.const(5) * t1) == EQUAL


def test_proportional_polynomials_have_equal_classes(ctx2, ff2):
    from milnork.cli import _quadratic_fragment
    from milnork.kmilnor import EQUAL
    from milnork.lattice import RationalSubgroup, Universe

    # RatFunc cancels only the monomial content, so the quotient of
    # t0 + t1 by 2 t0 + 2 t1 is kept as (4 t1 + 4 t0)/(t1 + t0); it is a
    # constant all the same, and the kring stage gives the pair equal
    # classes, not merely vanishing by dimension
    t0, t1 = ff2.var(0), ff2.var(1)
    two = ff2.const(2)
    x, y = t0 + t1, two * t0 + two * t1
    assert not (x / y).is_constant()
    assert ctx2.kclass_compare(x, y) == EQUAL
    assert ctx2.kclass_compare(x + ff2.const(3), y + ff2.const(6)) == EQUAL
    universe = Universe(ctx2, [RationalSubgroup(ctx2, g) for g in (x, y)])
    assert _quadratic_fragment(universe)["pairs"] == [
        {"pair": [0, 1], "relation": "equal-classes"}]
    assert ctx2.kclass_compare(x, y + ff2.const(1)) is UNKNOWN


def test_kclass_compare_runs_no_search(ctx2, ff2, monkeypatch):
    from milnork.kmilnor import DISTINCT, EQUAL

    def no_search(*args, **kw):
        raise AssertionError("kclass_compare searched")

    monkeypatch.setattr(ctx2, "certificate_search", no_search)
    t1, t2 = ff2.var(0), ff2.var(1)
    # a ratio in two variables that is no monomial has no closed form
    assert ctx2.kclass_compare(t1 + t2, t1) is UNKNOWN
    assert ctx2.kclass_compare(t1, t1 * t2) == DISTINCT
    assert ctx2.kclass_compare(t1, t1 * (t2 ** 3)) == EQUAL
    with pytest.raises(ZeroEntry):
        ctx2.kclass_compare(ff2.zero(), t1)


def test_certificate_value_error():
    tw = FieldTower(7, seed=0)
    ff = FunctionField(tw, 2)
    ch = coordinate_chain(ff, [0], [tw.zero()])
    with pytest.raises(ValueError):
        Certificate(Symbol([ff.var(0)]), ch, 0, 3)


def test_ell_two_symbols_over_odd_characteristic():
    tw = FieldTower(7, seed=0)
    ff = FunctionField(tw, 2)
    ctx = KContext(ff, 2)
    ch = coordinate_chain(ff, [0, 1], [tw.zero(), tw.zero()])
    sym = Symbol([ff.var(0), ff.var(1)])
    assert tame_chain(ff, sym, ch, 2).scalar() == 1
    # antisymmetry is invisible modulo two
    assert tame_chain(ff, Symbol([ff.var(1), ff.var(0)]), ch, 2).scalar() == 1
    # Steinberg still dies
    f = ff.var(0) / (ff.var(0) + ff.const(1))
    g = ff.one() - f
    for c in (0, 1, 3):
        v = ff.valuation(0, c)
        assert tame_step(ff, Symbol([f, g]), v, ell=2).is_zero()
    with pytest.raises(ValueError):
        KContext(FunctionField(FieldTower(2, seed=0), 2), 2)


def test_monomial_pullback_composes(ff2):
    tw = ff2.tower
    ch = coordinate_chain(ff2, [0, 1], [tw.zero(), tw.zero()])
    once = monomial_pullback(ch, (2, 1))
    twice = monomial_pullback(once, (2, 2))
    assert twice.ram_indices == (4, 2)
    sym = Symbol([ff2.var(0), ff2.var(1)])
    assert tame_chain(ff2, sym, twice, 3).scalar() == (4 * 2) % 3


def _spy_tame_chain(monkeypatch):
    """Record (statement key, chain steps) of every tame_chain call."""
    calls = []
    inner = kmilnor.tame_chain

    def spy(field, sym, chain, ell, pull=True):
        calls.append((sym.key(), chain.steps))
        return inner(field, sym, chain, ell, pull=pull)

    monkeypatch.setattr(kmilnor, "tame_chain", spy)
    return calls


def _outcome(cert):
    if cert is UNKNOWN:
        return UNKNOWN
    assert cert.replay()
    return (cert.statement.key(), cert.chain.steps, cert.value,
            cert.transform)


class _Forgetful(dict):
    """A trial cache that stores nothing: every trial is evaluated."""

    def __setitem__(self, key, value):
        pass


def test_straightened_searches_evaluate_each_pair_once(ff5, monkeypatch):
    ctx = KContext(ff5, 3)
    calls = _spy_tame_chain(monkeypatch)
    rng = random.Random(3)
    certs = []
    while len(certs) < 6:
        rows = [[rng.randrange(7) for _ in range(5)] for _ in range(5)]
        gens = []
        for row in rows:
            g = ff5.const(rng.randrange(7))
            for i, a in enumerate(row):
                g = g + ff5.const(a) * ff5.var(i)
            gens.append(g)
        if ctx.trdeg_upper(gens) < 5:
            continue
        cert = ctx.certificate_search(gens, budget=16, seed=len(certs),
                                      shifts=True)
        assert cert is not UNKNOWN
        certs.append(cert)
    assert len(calls) == len(set(calls))
    # straightened and shifted, every set became the coordinate symbol on
    # the zero chain, evaluated by the first search alone
    coordinate = (Symbol([ff5.var(i) for i in range(5)]).key(),
                  coordinate_chain(ff5, range(5), [ff5.tower.zero()] * 5).steps)
    statements = [(c.statement.key(), c.chain.steps) for c in certs]
    assert statements.count(coordinate) >= 3
    assert calls.count(coordinate) == 1
    assert all(c.replay() for c in certs)


def test_replay_recomputes_a_cached_pair(ff5, monkeypatch):
    ctx = KContext(ff5, 3)
    cert = ctx.certificate_search([ff5.var(1), ff5.var(0) + ff5.var(2)],
                                  budget=40, seed=0)
    steps = cert.chain.steps
    key = (cert.statement.key(), (tuple(v.var for v in steps), tuple(
        INF if v.at_infinity else (v.center.level, v.center.coeffs)
        for v in steps)))
    chain, value = ctx._trial_values[key]
    assert chain is cert.chain and value == cert.value
    calls = _spy_tame_chain(monkeypatch)
    assert cert.replay()
    assert kmilnor.tame_chain(ctx.field, cert.statement, cert.chain,
                              ctx.ell).scalar() == cert.value
    assert calls == [(cert.statement.key(), steps)] * 2


def test_full_trial_cache_is_emptied(ff5, monkeypatch):
    monkeypatch.setattr(kmilnor, "TRIAL_CACHE_LIMIT", 4)
    ctx, oracle = KContext(ff5, 3), KContext(ff5, 3)
    oracle._trial_values = _Forgetful()
    t = [ff5.var(i) for i in range(5)]
    cases = [[t[0] * t[1], t[1] * t[2] + ff5.const(1)], [t[1], t[0] + t[2]],
             [t[0] * t[1], t[1] * t[2] + ff5.const(1)]]
    for elements in cases:
        got = ctx.certificate_search(elements, budget=12, seed=2, shifts=True)
        assert 0 < len(ctx._trial_values) <= 4
        assert len(ctx._key_parts) <= 4 * 3
        assert _outcome(got) == _outcome(oracle.certificate_search(
            elements, budget=12, seed=2, shifts=True))


_DIFF_FIELD = FunctionField(FieldTower(5, seed=0), 3)
_WARM = KContext(_DIFF_FIELD, 3)


@st.composite
def _search_elements(draw):
    ff = _DIFF_FIELD
    const = st.integers(0, 4)

    def linear():
        g = ff.const(draw(const))
        for i in range(3):
            g = g + ff.const(draw(const)) * ff.var(i)
        return g

    def univariate():
        i = draw(st.integers(0, 2))
        g = ff.const(draw(const))
        for k in range(1, draw(st.integers(1, 3)) + 1):
            g = g + ff.const(draw(const)) * ff.var(i) ** k
        return g

    def mixed():
        i, j = draw(st.permutations(range(3)))[:2]
        g = ff.var(i) * ff.var(j) + ff.const(draw(const)) * ff.var(j)
        if draw(st.booleans()):
            g = g / (ff.var(i) + ff.const(draw(st.integers(1, 4))))
        return g + ff.const(draw(const))

    makers = draw(st.lists(st.sampled_from([linear, univariate, mixed]),
                           min_size=1, max_size=3))
    elements = [make() for make in makers]
    if any(g.is_zero() for g in elements):
        elements = [ff.var(0)]
    return elements, draw(st.booleans()), draw(st.integers(0, 3))


@settings(max_examples=40, deadline=None)
@given(_search_elements())
def test_warm_context_finds_the_fresh_certificate(case):
    # oracles: a context with an empty cache, and one that evaluates every
    # trial; the shared context keeps the entries of every earlier example
    elements, shifts, seed = case
    fresh, uncached = KContext(_DIFF_FIELD, 3), KContext(_DIFF_FIELD, 3)
    uncached._trial_values = _Forgetful()
    want = _outcome(uncached.certificate_search(elements, budget=12,
                                                seed=seed, shifts=shifts))
    for ctx in (fresh, _WARM, _WARM):
        got = _outcome(ctx.certificate_search(elements, budget=12, seed=seed,
                                              shifts=shifts))
        assert got == want


# -- inner forms: property tests against replay ------------------------------

_FORM_FIELDS = {}
_FORM_VARS = 4


def _form_field(p):
    if p not in _FORM_FIELDS:
        _FORM_FIELDS[p] = FunctionField(FieldTower(p, seed=0), _FORM_VARS)
    return _FORM_FIELDS[p]


@st.composite
def _squarefree(draw, p):
    """Coefficients of distinct linear factors u - a and, optionally, the
    irreducible (u + b)^2 - n for a non-square n: a squarefree polynomial."""
    roots = draw(st.lists(st.integers(0, p - 1), min_size=0, max_size=3,
                          unique=True))
    squares = {(a * a) % p for a in range(p)}
    n = draw(st.sampled_from([a for a in range(1, p) if a not in squares]))
    quad = draw(st.one_of(st.none(), st.integers(0, p - 1)))
    if not roots and quad is None:
        roots = [draw(st.integers(0, p - 1))]
    return roots, None if quad is None else (quad, n)


def _poly_of(ff, form, spec):
    roots, quad = spec
    u = ff.zero()
    for i, a in enumerate(form):
        u = u + ff.const(a) * ff.var(i)
    g = ff.one()
    for a in roots:
        g = g * (u - ff.const(a))
    if quad is not None:
        b, n = quad
        g = g * ((u + ff.const(b)) ** 2 - ff.const(n))
    return g


@st.composite
def _form_tuples(draw, independent):
    p = draw(st.sampled_from([7, 11, 13]))
    ell = draw(st.sampled_from([3, 5]))
    r = draw(st.sampled_from([2, 3]))
    form = st.tuples(*[st.integers(0, p - 1)] * _FORM_VARS).filter(any)
    if independent:
        forms = draw(st.lists(form, min_size=r, max_size=r).filter(
            lambda rows: linalg.rank(tuple(rows), p) == r))
    else:
        # every form in the span of r - 1 of them
        base = draw(st.lists(form, min_size=r - 1, max_size=r - 1))
        forms = [(draw(st.sampled_from(base)), draw(st.integers(1, p - 1)))
                 for _ in range(r)]
        forms = [tuple((c * a) % p for a in f) for f, c in forms]
    specs = [draw(_squarefree(p)) for _ in range(r)]
    ff = _form_field(p)
    elements = [_poly_of(ff, f, s) for f, s in zip(forms, specs)]
    return ff, ell, elements, draw(st.booleans()), draw(st.integers(0, 9))


@settings(max_examples=30, deadline=None)
@given(_form_tuples(independent=True))
def test_polynomials_of_independent_forms_are_certified(case):
    ff, ell, elements, shifts, seed = case
    ctx = KContext(ff, ell)
    trials = _spy_trials(ctx)
    cert = ctx.certificate_search(elements, budget=8, seed=seed,
                                  shifts=shifts)
    assert cert is not UNKNOWN
    assert len(cert.statement) == len(elements) and cert.replay()
    assert len(trials) == 1
    assert ctx.trdeg_upper(elements) == len(elements)


@settings(max_examples=30, deadline=None)
@given(_form_tuples(independent=False))
def test_tuples_inside_a_smaller_field_stop_without_a_trial(case):
    ff, ell, elements, shifts, seed = case
    ctx = KContext(ff, ell)
    trials = _spy_trials(ctx)
    assert ctx.certificate_search(elements, budget=8, seed=seed,
                                  shifts=shifts) is UNKNOWN
    assert trials == []
    assert ctx.trdeg_upper(elements) < len(elements)


def _spy_roots(monkeypatch, ff, name):
    """The polynomials passed to each call of ff.name."""
    calls, real = [], getattr(ff, name)

    def spy(poly):
        calls.append(poly.key())
        return real(poly)

    monkeypatch.setattr(ff, name, spy)
    return calls


def test_roots_of_an_entry_are_found_once_per_search(monkeypatch):
    # (t0^2 + 3)^3 is an l-th power, so the symbol vanishes.  The search
    # once spent its whole budget on it and found its roots 35 times at
    # seed 0, once per unshifted trial that put it on t0; it now reads its
    # multiplicities once, to stop before any trial, and finds no root
    ff = FunctionField(FieldTower(7, seed=0), 2)
    t0, t1 = ff.var(0), ff.var(1)
    calls = _spy_roots(monkeypatch, ff, "root_multiplicities")
    roots = _spy_roots(monkeypatch, ff, "univariate_roots")
    ctx = KContext(ff, 3)
    entries = [(t0 * t0 + ff.const(3)) ** 3, t1]
    assert ctx.certificate_search(entries, budget=64, seed=0) is UNKNOWN
    assert calls and len(calls) == len(set(calls))
    assert roots == []


def test_ell_th_power_entries_stop_before_any_trial():
    ff = FunctionField(FieldTower(7, seed=0), 2)
    t0, t1 = ff.var(0), ff.var(1)
    cube = (t0 * t0 + ff.const(3)) ** 3
    ctx = KContext(ff, 3)
    trials = _spy_trials(ctx)
    for entries in ([cube, t1], [t1, cube / (t0 + ff.const(1)) ** 3],
                    [t1, t0 ** 3]):
        assert ctx.certificate_search(entries, budget=64) is UNKNOWN
    assert trials == []
    # translates of a cube are no cubes: shifted searches run their trials
    assert ctx.certificate_search([cube, t1], budget=64,
                                  shifts=True) is not UNKNOWN
    assert trials


def test_a_degree_prime_to_l_needs_no_root_find(monkeypatch):
    ff = FunctionField(FieldTower(7, seed=0), 2)
    t0, t1 = ff.var(0), ff.var(1)
    calls = _spy_roots(monkeypatch, ff, "root_multiplicities")
    ctx = KContext(ff, 3)
    ctx._try_trial = lambda search, trial: None
    for entries in ([t0 + ff.const(2), t1], [(t0 * t0 + ff.const(3)) ** 2, t1],
                    [t0 ** 3 / (t0 + ff.const(1)), t1]):
        ctx.certificate_search(entries, budget=1)
    assert calls == []
    # degree 6, but t0 - 1 is a simple root: searched, not stopped
    entry = (t0 * t0 + ff.const(3)) ** 2 * (t0 * t0 - ff.const(1))
    trials = _spy_trials(ctx)
    assert ctx.certificate_search([entry, t1], budget=1) is UNKNOWN
    assert len(calls) == 1 and len(trials) == 1


# -- chain evaluation: one expansion against the term-by-term oracle ---------

def _reference_tame_step(field, sym, v, pi=None, ell=None):
    """The tame symbol term by term, each term's entries taken again at
    every step and the step's terms canonicalised on their own."""
    sym_terms = [(1, sym)] if isinstance(sym, Symbol) else sym.terms
    adjust = None
    if pi is not None:
        c_ord, c_res = field.order_and_residue(pi, v)
        assert c_ord == 1
        if not c_res.is_one():
            adjust = c_res
    out = []
    for coeff, s in sym_terms:
        datas = [field.order_and_residue(x, v) for x in s.entries]
        for j, (nj, _) in enumerate(datas):
            cj = (coeff * nj) % ell
            if cj == 0:
                continue
            if j % 2:
                cj = (-cj) % ell
            rest = [rm * adjust ** (-nm) if adjust is not None and nm else rm
                    for m, (nm, rm) in enumerate(datas) if m != j]
            out.append((cj, Symbol(rest)))
    return FormalSum(ell, out)


def _reference_tame_chain(field, sym, chain, ell):
    """tame_chain as a composition of tame steps, the terms gathered so far
    canonicalised again after every step."""
    if isinstance(sym, Symbol):
        current = FormalSum(ell, [(1, chain.pull_symbol(sym))])
    else:
        current = sym
    unis = list(chain.uniformizers)
    for idx, v in enumerate(chain.steps):
        out = FormalSum(ell)
        for coeff, s in current.terms:
            step = _reference_tame_step(field, s, v, pi=unis[idx], ell=ell)
            step = FormalSum(ell, [((coeff * c) % ell, t) for c, t in step.terms])
            out = FormalSum(ell, out.terms + step.terms)
        current = out
        unis[idx + 1:] = [field.order_and_residue(u, v)[1]
                          for u in unis[idx + 1:]]
        if current.is_zero():
            break
    return current


def _terms(out):
    return [(c, encode_symbol(s)) for c, s in out.terms]


_CHAIN_FIELDS = {}


def _chain_field(p):
    if p not in _CHAIN_FIELDS:
        _CHAIN_FIELDS[p] = FunctionField(FieldTower(p, seed=0), 4)
    return _CHAIN_FIELDS[p]


@st.composite
def _chain_cases(draw):
    """A symbol of 1 to 4 entries, a chain of coordinate steps at 0, 1 or
    infinity, perhaps a first uniformizer that is not a coordinate one and
    a monomial cover, and a step to take after a partial chain.  Entries
    are a constant times powers of the steps' coordinate uniformizers and
    up to two other factors; a few are constants, or copies of an earlier
    entry up to a constant and orientation, so that every canonical rule is
    met."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    ell = draw(st.sampled_from([2, 3, 5]))
    ff = _chain_field(p)
    t = [ff.var(i) for i in range(4)]
    const = st.integers(1, p - 1).map(ff.const)
    size = draw(st.integers(1, 4))
    order = draw(st.permutations(range(4)))
    centers = [draw(st.sampled_from([0, 1, INF]))
               for _ in range(draw(st.integers(1, size)))]
    steps = [ff.valuation(i, c) for i, c in zip(order, centers)]
    unis = [ff.uniformizer(v) for v in steps]

    def factor():
        i, j = draw(st.permutations(range(4)))[:2]
        a = ff.const(draw(st.integers(0, p - 1)))
        return draw(st.sampled_from([
            t[i], t[i] - ff.one(), t[i] + t[j], t[i] * t[j] + a, t[i] + a,
        ]))

    def entry(earlier):
        kind = draw(st.sampled_from(["product"] * 6 + ["constant", "copy"]))
        if kind == "constant":
            return draw(const)
        if kind == "copy" and earlier:
            x = draw(st.sampled_from(earlier)) * draw(const)
            return x.inverse() if draw(st.booleans()) else x
        x = draw(const)
        for u in unis:
            x = x * u ** draw(st.sampled_from([1, 0, -1, 2, 3, -2]))
        for _ in range(draw(st.integers(0, 2))):
            f = factor()
            if not (f * x).is_zero():
                x = x * f ** draw(st.sampled_from([1, -1, 2]))
        return x

    entries = []
    for _ in range(size):
        entries.append(entry(entries))
    unit = draw(st.sampled_from([None, "constant", "other variable"]))
    if unit == "constant":
        unis[0] = unis[0] * draw(const)
    elif unit == "other variable":
        unis[0] = unis[0] * (t[draw(st.sampled_from(order[1:]))] + ff.one())
    chain = ParshinChain(ff, steps, unis)
    if draw(st.booleans()):
        exps = st.sampled_from([e for e in (1, 2, 3, 4) if e % p])
        chain = monomial_pullback(chain, [draw(exps) for _ in steps])
    then = None
    if len(steps) < size:
        then = ff.valuation(order[len(steps)],
                            draw(st.sampled_from([0, 1, INF])))
    return ff, ell, Symbol(entries), chain, then


@settings(max_examples=150, deadline=None)
@given(_chain_cases())
def test_one_expansion_matches_the_term_by_term_chain(case):
    ff, ell, sym, chain, then = case
    want = _reference_tame_chain(ff, sym, chain, ell)
    got = tame_chain(ff, sym, chain, ell)
    assert _terms(got) == _terms(want)
    if then is not None:
        assert _terms(tame_step(ff, got, then, ell=ell)) == _terms(
            _reference_tame_step(ff, want, then, ell=ell))


def test_a_chain_builds_one_formal_sum(ff5, monkeypatch):
    built = []

    class Counted(FormalSum):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(kmilnor, "FormalSum", Counted)
    t = [ff5.var(i) for i in range(5)]
    one = ff5.one()
    sym = Symbol([t[0] * t[1], t[1] + t[2], t[2] * t[3] + one, t[3] - one])
    for variables, centers in (([0, 1, 2, 3], [0, 0, 0, 1]),
                               ([1, 0], [0, 0]), ([3, 2, 1], [1, INF, 0])):
        built.clear()
        out = tame_chain(ff5, sym, coordinate_chain(ff5, variables, centers), 3)
        assert len(built) == 1 and isinstance(out, Counted)
    built.clear()
    tame_step(ff5, out, ff5.valuation(0, 0), ell=3)
    assert len(built) == 1


def test_a_bad_later_uniformizer_raises_though_the_symbol_cancels(ff2):
    # {t0, t0} is zero on the chain t0 = 0, t1 = 0, its terms cancelling at
    # the first step; the uniformizer t1^2 of the second step is rejected
    # all the same, by the chain itself when it is decoded, so neither this
    # symbol nor one whose every term dies at the first step is evaluated
    # on it
    t0, t1 = ff2.var(0), ff2.var(1)
    good = coordinate_chain(ff2, [0, 1], [0, 0])
    assert tame_chain(ff2, Symbol([t0, t0]), good, 3).is_zero()
    data = encode_chain(good)
    data["uniformizers"][1] = encode_ratfunc(t1 ** 2)
    with pytest.raises(NotUniformizer):
        decode_chain(ff2, data)


def test_symbol_and_chain_guards(ff2, ctx2):
    x = ff2.var(0)
    with pytest.raises(ZeroEntry):
        Symbol([x, ff2.zero()])
    # a coefficient divisible by l is no term, and a sum of symbols of
    # positive degree has no scalar
    assert FormalSum(3, [(3, Symbol([x]))]).is_zero()
    with pytest.raises(ValueError, match="symbol entries"):
        FormalSum(3, [(1, Symbol([x]))]).scalar()
    chain = coordinate_chain(ff2, [0, 1], [ff2.tower.zero()] * 2)
    with pytest.raises(ValueError, match="shorter"):
        tame_chain(ff2, Symbol([x]), chain, 3)
    with pytest.raises(ValueError, match="scalar"):
        tame_chain(ff2, FormalSum(3, [(1, Symbol([x]))]), chain, 3)
    with pytest.raises(ChainError):
        ParshinChain(ff2, chain.steps, ram_indices=[1])
    # constants have zero Jacobian rows, which the rank drops
    assert ctx2.jacobian_rank([ff2.const(2), ff2.const(5)]) == 0
