"""Mod-l Milnor K-theory engine.

Symbols are tuples of nonzero rational functions read modulo l-th powers.
Tame symbols at coordinate valuations are computed by multilinear expansion:
each entry splits into a uniformizer power and a unit, terms with two or more
uniformizer slots die (every ground constant, -1 included, is an l-th power),
terms with exactly one contribute a signed residue symbol, and pure unit
terms are killed by the residue map.  A chain of such valuations is evaluated
in one expansion and canonicalised once, so full-length evaluations land in
Z/l.
"""

import itertools
import math

from . import linalg
from .groundfield import INF, RatFunc, SparsePoly, ZeroInputError, is_prime


class ZeroEntry(ValueError):
    """Symbols cannot contain the zero function."""


class BadExponent(ValueError):
    """Monomial cover exponents must be positive and prime to p."""


class ChainError(ValueError):
    """Malformed Parshin chain."""


class NotUniformizer(ChainError):
    """Supplied element does not have value one at the valuation."""


class _Unknown:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __bool__(self):
        return False


UNKNOWN = _Unknown()

# Entries a context keeps in its trial cache.  A pipeline's searches repeat
# a few keys stored early; a stream of unrelated searches on one context
# repeats almost none and would otherwise grow it by about 1.7 KB a trial.
TRIAL_CACHE_LIMIT = 1024

EQUAL = "equal"
DISTINCT = "distinct"


class Symbol:
    """An element {x_1, ..., x_n} of the degree-n part of the mod-l K-ring."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(entries)
        for e in entries:
            if e.is_zero():
                raise ZeroEntry("symbol entries must be nonzero")
        self.entries = entries

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def key(self):
        return tuple(e.key() for e in self.entries)

    def __eq__(self, other):
        return isinstance(other, Symbol) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def _scalar_free(entry):
    """Scale the numerator monic, as RatFunc keeps the denominator; drops a
    ground constant factor, which is harmless since ground constants are
    l-divisible."""
    num = entry.num
    _, ln = num.leading()
    if not ln.is_one():
        num = num * ln.inverse()
    return RatFunc(num, entry.den)


def _canonical_term(coeff, entries, ell):
    """Reduce (coeff, entries) to canonical form; returns None if the term
    is zero in the residue group."""
    coeff %= ell
    if coeff == 0:
        return None
    cleaned = []
    for e in entries:
        if e.is_constant():
            return None
        e = _scalar_free(e)
        if e.num == e.den:
            # the entry is a ground constant in unreduced form
            return None
        nk, dk = e.num.key(), e.den.key()
        if dk > nk:
            e = e.inverse()
            coeff = (-coeff) % ell
        cleaned.append(e)
    keys = [e.key() for e in cleaned]
    order = sorted(range(len(cleaned)), key=lambda i: keys[i])
    inversions = sum(
        1 for a, b in itertools.combinations(range(len(order)), 2)
        if order[a] > order[b]
    )
    if inversions % 2:
        coeff = (-coeff) % ell
    sorted_entries = [cleaned[i] for i in order]
    for a, b in zip(sorted_entries, sorted_entries[1:]):
        if a.key() == b.key():
            return None
    return coeff, Symbol(sorted_entries)


class FormalSum:
    """Z/l-combination of symbols over a common residue field."""

    __slots__ = ("ell", "terms")

    def __init__(self, ell, terms=()):
        self.ell = ell
        merged = {}
        for coeff, sym in terms:
            ct = _canonical_term(coeff, sym.entries, ell)
            if ct is None:
                continue
            c, s = ct
            k = s.key()
            if k in merged:
                prev_c, _ = merged[k]
                c = (c + prev_c) % ell
                if c:
                    merged[k] = (c, s)
                else:
                    del merged[k]
            else:
                merged[k] = (c, s)
        self.terms = tuple(sorted(merged.values(), key=lambda t: t[1].key()))

    def is_zero(self):
        return not self.terms

    def is_scalar(self):
        return all(len(s) == 0 for _, s in self.terms)

    def scalar(self):
        """Value in Z/l once all symbols have been fully evaluated."""
        total = 0
        for c, s in self.terms:
            if len(s):
                raise ValueError("formal sum still has symbol entries")
            total += c
        return total % self.ell


def tame_step(field, sym, v, pi=None, *, ell):
    """One tame symbol: degree n+1 over K to degree n over the residue field.

    This is tame_chain on the one-step chain v with uniformizer pi (the
    coordinate uniformizer by default), without the cover pull-back.  In
    degree one the result is the valuation itself mod l.
    """
    chain = ParshinChain(field, [v], None if pi is None else [pi])
    return tame_chain(field, sym, chain, ell, pull=False)


class ParshinChain:
    """Discrete chain of coordinate valuations with a uniformizing system.

    Step j acts on the residue field of step j-1.  Uniformizer j, reduced
    through the steps before it, is a unit at each of them and has order 1
    at step j, where it is t_j times a unit whose residue is units[j]
    (t_j the coordinate uniformizer).  The constructor checks this once;
    the default coordinate uniformizers satisfy it by construction, with
    every unit one.  Monomial covers are recorded on the chain and realized
    by substitution when a symbol is pulled back.
    """

    __slots__ = ("field", "steps", "uniformizers", "units", "ram_indices",
                 "covers")

    def __init__(self, field, steps, uniformizers=None, ram_indices=None,
                 covers=None):
        self.field = field
        self.steps = tuple(steps)
        if len({v.var for v in self.steps}) != len(self.steps):
            raise ChainError("chain steps must use distinct variables")
        if ram_indices is None:
            ram_indices = tuple(1 for _ in self.steps)
        self.ram_indices = tuple(ram_indices)
        if len(self.ram_indices) != len(self.steps):
            raise ChainError("one ramification index per step required")
        self.covers = tuple(covers) if covers else ()
        if uniformizers is None:
            self.uniformizers = tuple(field.uniformizer(v) for v in self.steps)
            self.units = (field.one(),) * len(self.steps)
            return
        self.uniformizers = tuple(uniformizers)
        if len(self.uniformizers) != len(self.steps):
            raise ChainError("a Parshin chain needs one uniformizer per step")
        units = []
        for j, (pi, v) in enumerate(zip(self.uniformizers, self.steps)):
            for i, w in enumerate(self.steps[:j]):
                n, pi = field.order_and_residue(pi, w)
                if n:
                    raise ChainError("uniformizer %d is not a unit at step %d"
                                     % (j, i))
            n, unit = field.order_and_residue(pi, v)
            if n != 1:
                raise NotUniformizer("pi has value %d, not 1" % n)
            units.append(unit)
        self.units = tuple(units)

    def __len__(self):
        return len(self.steps)

    def pull_symbol(self, sym):
        """Apply the recorded cover substitutions to a symbol over the base."""
        if not self.covers:
            return sym
        entries = list(sym.entries)
        for var, e, center in self.covers:
            entries = [_cover_substitute(self.field, x, var, e, center)
                       for x in entries]
        return Symbol(entries)


def coordinate_chain(field, variables, centers):
    """The chain of coordinate valuations t_{i_1} = a_1, t_{i_2} = a_2, ...
    with the coordinate uniformizers."""
    return ParshinChain(field, [field.valuation(i, c)
                                for i, c in zip(variables, centers)])


def _cover_substitute(field, f, var, e, center):
    """Substitute the Kummer cover coordinate: t - a -> s^e (or 1/t -> s^e)."""
    if center is INF:
        num = f.num.reverse_in(var).scale_exponent(var, e)
        den = f.den.reverse_in(var).scale_exponent(var, e)
        diff = f.num.degree_in(var) - f.den.degree_in(var)
        if diff > 0:
            den = den * _monomial(field, var, e * diff)
        elif diff < 0:
            num = num * _monomial(field, var, -e * diff)
        return RatFunc(num, den)
    num = f.num if center.is_zero() else f.num.shift_var(var, center)
    den = f.den if center.is_zero() else f.den.shift_var(var, center)
    return RatFunc(num.scale_exponent(var, e), den.scale_exponent(var, e))


def _monomial(field, var, k):
    exp = [0] * field.nvars
    exp[var] = k
    return SparsePoly(field.nvars, {tuple(exp): field.tower.one()})


def monomial_pullback(chain, exponents):
    """The chain upstairs in the cover where each chain coordinate t is
    replaced by s^e; ramification indices multiply."""
    field = chain.field
    p = field.p
    exps = tuple(exponents)
    if len(exps) != len(chain):
        raise BadExponent("one exponent per chain step required")
    for e in exps:
        if e <= 0 or e % p == 0:
            raise BadExponent("cover exponents must be positive and prime to p")
    steps = []
    covers = list(chain.covers)
    unis = []
    for v, e, old_u in zip(chain.steps, exps, chain.uniformizers):
        if e == 1:
            steps.append(v)
            unis.append(old_u)
            continue
        covers.append((v.var, e, v.center))
        steps.append(field.valuation(v.var, field.tower.zero()))
        unis.append(field.var(v.var))
    ram = tuple(r * e for r, e in zip(chain.ram_indices, exps))
    return ParshinChain(field, steps, unis, ram, covers=covers)


def tame_chain(field, sym, chain, ell, pull=True):
    """Iterate the tame symbol down the chain in one expansion.

    The tame symbol is multilinear and alternating, so a term is fixed by
    the set J of entries its steps take, with coefficient (-1)^k n mod l
    for each step that takes an entry of order n at position k among the
    entries outside J.  A step takes each entry's order and residue once.
    Returns one FormalSum over the residue field, built from the raw terms;
    when the symbol length equals the chain length it reduces to a scalar
    via .scalar().
    """
    if isinstance(sym, Symbol):
        if len(sym) < len(chain):
            raise ValueError("symbol shorter than the chain")
        if pull and chain.covers:
            sym = chain.pull_symbol(sym)
        sym_terms = [(1, sym)]
    else:
        sym_terms = sym.terms
    # the live terms, (input term k, J) -> coefficient; entries[k][m] is the
    # residue of entry m down to the last step that a term left it untaken
    entries = [list(s.entries) for _, s in sym_terms]
    terms = {(k, frozenset()): c % ell
             for k, (c, _) in enumerate(sym_terms) if c % ell}
    for idx, v in enumerate(chain.steps):
        if not terms:
            break
        adjust = chain.units[idx]
        coordinate = adjust.is_one()
        out, orders = {}, {}
        for (k, J), c in terms.items():
            untaken = [m for m in range(len(entries[k])) if m not in J]
            if not untaken:
                raise ValueError("cannot take a tame symbol of a scalar")
            for pos, m in enumerate(untaken):
                if (k, m) not in orders:
                    n, r = field.order_and_residue(entries[k][m], v)
                    if n and not coordinate:
                        r = r * adjust ** (-n)
                    orders[k, m], entries[k][m] = n, r
                cm = c * orders[k, m] * (-1) ** pos % ell
                if cm:
                    key = (k, J | {m})
                    out[key] = (out.get(key, 0) + cm) % ell
        terms = {key: c for key, c in out.items() if c}
    return FormalSum(ell, [
        (c, Symbol([x for m, x in enumerate(entries[k]) if m not in J]))
        for (k, J), c in terms.items()
    ])


class Certificate:
    """A replayable witness that a symbol is nonzero: a chain along which it
    evaluates to a nonzero scalar.

    When the search had to straighten the entries first, the recorded
    statement is the image of the original symbol under an invertible linear
    change of coordinates (an automorphism of the field, so non-vanishing
    transfers); the matrix is kept for provenance.
    """

    __slots__ = ("statement", "chain", "value", "ell", "transform")

    def __init__(self, statement, chain, value, ell, transform=None):
        if value % ell == 0:
            raise ValueError("certificates must certify a nonzero value")
        self.statement = statement
        self.chain = chain
        self.value = value % ell
        self.ell = ell
        self.transform = transform

    def replay(self):
        got = tame_chain(self.chain.field, self.statement, self.chain, self.ell)
        return got.is_scalar() and got.scalar() == self.value


class KContext:
    """Ambient data for mod-l K-theory computations: the function field and
    the prime l.

    One cache is kept, _trial_values.  It maps a search trial, by its
    entry keys, its variables and the (level, coefficients) of each centre
    (INF for a centre at infinity), to its coordinate chain and the scalar
    the entries take along it, 0 for no certificate.  A chain is serialized
    with its centres as given, so centres equal in value at different
    levels keep their own entries.  Searches evaluate only coordinate
    chains, without covers, and tame_chain depends on the field, the
    symbol, the chain and l alone, so one evaluation serves every repeat.
    Keys are plain tuples, since hashing a Symbol recomputes its entry
    keys; stored keys share their parts through _key_parts.  The cache is
    emptied when it reaches TRIAL_CACHE_LIMIT entries, and a lost entry is
    recomputed.  Only search trials read it: evaluate, tame_chain and
    Certificate.replay never do, so a replay recomputes independently."""

    def __init__(self, field, ell):
        if not is_prime(ell):
            raise ValueError("l must be prime")
        if field.p == ell:
            raise ValueError("l must differ from the field characteristic")
        self.field = field
        self.ell = ell
        self._trial_values = {}
        self._key_parts = {}

    @property
    def nvars(self):
        return self.field.nvars

    def _variable_pool(self, elements, r):
        pool = set()
        for x in elements:
            pool |= x.vars_used()
        pool = sorted(pool)
        if len(pool) < r:
            pool += [i for i in range(self.nvars) if i not in pool]
        return pool

    def _inner_form(self, x):
        """The prime-field linear form L of an entry that is a polynomial in
        L over a constant denominator, else None: the entry's F_p row.

        An affine entry (_affine) is its own form, unscaled.  Otherwise the
        gradient proposes L: every partial derivative of the numerator,
        Frobenius-stripped, must be a prime-field multiple of the first
        nonzero one, the derivative in t_j, and L is scaled so that its t_j
        coefficient is 1.  The proposal counts only after an exact check:
        the numerator must equal g(L), where g is its restriction to the t_j
        axis, on which L is the coordinate.  g(L) is written down term by
        term from the multinomial expansion of each L^m mod p
        (_power_terms).  So the transform that sends L to a coordinate
        leaves an entry that uses that coordinate alone.  The gradient
        cannot tell x + y^3 at p = 3 from a polynomial in x, since its
        y-derivative vanishes; the check can."""
        nv = self.nvars
        if _affine(x):
            row = [0] * nv
            for e, c in x.num.terms.items():
                if any(e):
                    row[e.index(1)] = c.coeffs[0]
            return tuple(row) if any(row) else None
        if not x.den.is_constant() or x.is_constant():
            return None
        num = x.frobenius_strip(self.field.p)[0].num
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
        # g(L) term by term; powers of L of distinct degrees share no term
        form = [(i, a) for i, a in enumerate(row) if a]
        image = {}
        for m in range(num.degree_in(j) + 1):
            c = num.terms.get(tuple(m if i == j else 0 for i in range(nv)))
            if c is not None:
                for e, k in _power_terms(form, m, self.field.p, nv):
                    image[e] = c if k == 1 else c * k
        exact = image.keys() == num.terms.keys() and all(
            num.terms[e] == c for e, c in image.items())
        return tuple(row) if exact else None

    def _inner_forms(self, elements):
        """The inner form of every entry (_inner_form), or None when some
        entry has none.  Entry k lies in the one-variable field of its
        form, so the forms span the field the entries cut out."""
        rows = [self._inner_form(x) for x in elements]
        return None if None in rows else rows

    def _straightening_transform(self, rows):
        """The substitution sending the k-th inner form to the k-th
        coordinate, as a matrix T with t_i -> sum_j T[i][j] t_j; None when
        the forms are dependent.

        The forms are completed to a basis A by the unit vectors e_i, in
        index order, that leave the span so far, and T = A^{-1}.  e_i is
        in the span of the forms and e_0, ..., e_{i-1} exactly when some
        combination of the forms has its last nonzero entry at i, a
        trailing pivot: a pivot of the forms with their columns reversed.

        So A^{-1} needs only the r x r minor M of the forms on the trailing
        pivots Q: column k < r of T is M^{-1} e_k on Q, and the column of a
        unit e_i is e_i - M^{-1} F_i, F_i the forms' entries at i.  Reduced
        beside an identity, the forms leave M^{-1} there and M^{-1} F_i at i."""
        n, p, r = self.nvars, self.field.p, len(rows)
        reduced, pivots = linalg.rref(tuple(
            tuple(row[::-1]) + e
            for row, e in zip(rows, linalg.identity(r))), p)
        if any(c >= n for c in pivots):
            return None
        free = [i for i in range(n) if n - 1 - i not in pivots]
        T = {i: _unit_exponent(n, k) for k, i in enumerate(free, r)}
        for row, c in zip(reduced, pivots):
            T[n - 1 - c] = row[n:] + tuple(-row[n - 1 - i] % p for i in free)
        return tuple(T[i] for i in range(n))

    def apply_transform(self, x, T):
        """Substitute t_i -> sum_j T[i][j] t_j in a rational function, by
        RatFunc.compose.  No search substitutes: a straightened entry is
        written down (_straightened), term for term what this gives."""
        images = []
        for i in range(self.nvars):
            poly = SparsePoly.zero(self.nvars)
            for j, c in enumerate(T[i]):
                if c % self.field.p:
                    exp = [0] * self.nvars
                    exp[j] = 1
                    poly = poly + SparsePoly(
                        self.nvars, {tuple(exp): self.field.tower.from_int(c)})
            images.append(RatFunc.from_poly(poly, self.field.tower))
        return x.compose(images)

    def certificate_search(self, elements, budget=64, seed=0, shifts=False,
                           workers=1):
        """Search coordinate chains certifying a nonzero symbol.  Returns a
        Certificate, or UNKNOWN when no trial within the budget certifies
        it; non-vanishing is only semi-decided.

        Every entry that is a polynomial in one prime-field linear form (its
        inner form, _inner_forms) lies in a one-variable subfield.  When
        every entry has one and the forms are dependent, the entries lie in
        a field of transcendence degree below the length of the symbol,
        where the symbol vanishes, so the search returns UNKNOWN without a
        trial.  When they are independent, the straightening transform
        sends entry k to a polynomial in t_k alone, which is written down
        (_straightened) rather than substituted.  With shifts off, an entry
        in one variable that is a constant times an l-th power also makes
        the symbol vanish and the search return UNKNOWN without a trial;
        with shifts on it does not, since its translates are no l-th powers.

        The trials form one finite stream (_trials), all at the origin: the
        straightened entries (shifted when shifts is on and every entry is
        affine), then the entries as given, then every tuple of distinct
        variables from those the entries use, shifted when shifts is on.
        The budget cuts the stream, and the search may end before it.  In
        every trial a chain step is centred at a zero or pole of its entry
        when it has one (_snap_center), at infinity included, so every
        straightened entry has a value prime to l at its step.

        With shifts off (the default) the certified statement is the direct
        symbol of the given elements, up to a recorded linear change of
        coordinates.  With shifts on, each element may also be translated by
        its value at the origin; the translates lie in the same one-variable
        subfields as the elements, so a shifted certificate witnesses a
        nonzero symbol from the subfield tuple, the form the subgroup
        recipes consume.

        seed and workers are accepted and ignored: the stream depends on
        neither, and the trials run one after another.  A negative budget
        raises ValueError.
        """
        _check_budget(budget)
        elements = list(elements)
        r = len(elements)
        if r == 0 or r > self.nvars:
            return UNKNOWN
        for x in elements:
            if x.is_zero():
                raise ZeroEntry("cannot certify a symbol with a zero entry")
        if not shifts and any(self._ell_th_power(x) for x in elements):
            # the symbol vanishes
            return UNKNOWN
        # the forms, the straightening and their rank once per search
        rows = self._inner_forms(elements)
        straight = None if rows is None else self._straightening_transform(rows)
        if rows is not None and straight is None:
            # witnessed dependence: the symbol vanishes
            return UNKNOWN
        search = elements, {}
        trials = self._trials(elements, straight, shifts)
        for trial in itertools.islice(trials, budget):
            cert = self._try_trial(search, trial)
            if cert is not None:
                return cert
        return UNKNOWN

    canonical_certificate = certificate_search  # perfbench traces it apart

    def pair_relation(self, x, y, budget):
        """(relation, certificate or None) of a generator pair:
        "equal-classes" (kclass_compare); "vanishes-by-dimension" when both
        lie in a field of transcendence degree below 2 (trdeg_upper);
        "independent" with a certificate of a nonzero {x, y}; or
        "unknown".

        Independent inner forms (_inner_form) give the straightened
        certificate, which no pair of equal classes has.  Proportional
        affine rows (_affine) vanish by dimension, with equal classes when
        the constant terms are in the same ratio; those of g(L) tell
        nothing, so other pairs ask kclass_compare."""
        _check_budget(budget)
        rows = (self._inner_form(x), self._inner_form(y))
        transform = (None if None in rows
                     else self._straightening_transform(rows))
        # the first trial of the pair's search; with no budget the search
        # has no trial at all
        if budget and transform is not None:
            cert = self.straightened_certificate([x, y], False, transform)
            if cert is not None:
                return "independent", cert
        if None in rows or not (_affine(x) and _affine(y)):
            if self.kclass_compare(x, y) == EQUAL:
                return "equal-classes", None
            if transform is None and self.trdeg_upper([x, y]) < 2:
                return "vanishes-by-dimension", None
        elif transform is None:
            j = next(i for i, a in enumerate(rows[0]) if a)
            origin = (0,) * self.nvars
            cx, cy = (f.num.terms.get(origin, 0) for f in (x, y))
            return ("equal-classes" if cx * rows[1][j] == cy * rows[0][j]
                    else "vanishes-by-dimension"), None
        cert = self.certificate_search([x, y], budget=budget)
        if cert is UNKNOWN:
            return "unknown", None
        return "independent", cert

    def _trials(self, elements, straight, shifts):
        """The trial stream of a search, all at the origin: (variables,
        shift, transform) tuples."""
        r = len(elements)
        first = tuple(range(r))
        if straight is not None:
            yield first, shifts and all(map(_affine, elements)), straight
        yield first, False, None
        for vars_ in itertools.permutations(self._variable_pool(elements, r),
                                            r):
            if shifts or vars_ != first:
                yield vars_, shifts, None

    def _value_at_origin(self, x):
        """The value at the origin, read off the constant terms; None at a
        zero or a pole."""
        origin = (0,) * self.nvars
        num, den = x.num.terms.get(origin), x.den.terms.get(origin)
        return None if num is None or den is None else num / den

    def _ell_th_power(self, x):
        """Whether an entry in one variable is a constant times an l-th
        power: every root of its numerator and denominator has multiplicity
        divisible by l.  A degree prime to l rules that out at once; else
        the multiplicities are read off a squarefree decomposition, with no
        root find."""
        used = x.vars_used()
        if len(used) != 1:
            return False
        (v,) = used
        polys = [f for f in (x.num, x.den) if not f.is_constant()]
        if any(f.degree_in(v) % self.ell for f in polys):
            return False
        return all(m % self.ell == 0 for f in polys
                   for m in self.field.root_multiplicities(f))

    def _snap_center(self, entry, var):
        """A chain centre in the vanishing or polar locus of the entry.  When
        its numerator or denominator uses the given variable alone: the root
        of an affine one, else its first root in compress_key order of
        multiplicity prime to l, at whatever tower level the root lives.
        Failing that, INF when the entry's order at t_var = infinity,
        deg den - deg num in t_var, is prime to l; None otherwise."""
        for poly in (entry.num, entry.den):
            if poly.vars_used() != {var}:
                continue
            if poly.degree_in(var) == 1:
                # a t_var + b, read off its two terms
                b = poly.terms.get((0,) * self.nvars)
                a = poly.terms[_unit_exponent(self.nvars, var)]
                if b is None:
                    return self.field.tower.zero()
                # b / 1 is b at its own level when 1 is at level 1
                return -b if a.level == 1 and a.is_one() else -(b / a)
            for z, m in self.field.univariate_roots(poly):
                if m % self.ell:
                    return z
        if (entry.den.degree_in(var) - entry.num.degree_in(var)) % self.ell:
            return INF
        return None

    def _straightened(self, x, T, k, shift=False):
        """The image of entry k under its tuple's straightening T, written
        down: x is a polynomial in its inner form L_k (in L_k with its
        variables raised to p^s, after a Frobenius strip) over a constant
        denominator, and L_k T = e_k, so the image uses t_k alone.  It has
        the terms, levels and term order of RatFunc.compose.

        compose adds up the images of the terms of x in their order, and
        the image of c t^e is homogeneous of degree |e|, with coefficient
        c prod_i T[i][k]^e_i (at the level of c) on t_k^|e|; every other
        monomial cancels in the sum.  So each t_k^m is placed where its
        running coefficient last turned nonzero, and its level is the lcm
        of the levels added since.  shift drops the constant term, as the
        shift by the value at the origin does."""
        nv, p = self.nvars, self.field.p
        from_int = self.field.tower.from_int
        column = [row[k] for row in T]
        coeffs = {}
        for exp, c in x.num.terms.items():
            a, m = 1, 0
            for t, e in zip(column, exp):
                if e:
                    a = a * t ** e % p
                    m += e
            if not a:
                continue
            v = c if a == 1 else c * from_int(a)
            if m in coeffs:
                s = coeffs[m] + v
                if s:
                    coeffs[m] = s
                else:
                    del coeffs[m]
            else:
                coeffs[m] = v
        if shift:
            coeffs.pop(0, None)
        terms = {}
        for m, c in coeffs.items():
            exp = [0] * nv
            exp[k] = m
            terms[tuple(exp)] = c
        return RatFunc(SparsePoly(nv, terms), x.den)

    def straightened_certificate(self, elements, shift, transform=None,
                                 snaps=None):
        """The certificate of the straightened trial at the origin, first in
        every search of entries with independent forms (_inner_forms), or
        None.  transform is the straightening, when the caller has it, and
        snaps a snap table (_try_trial) shared with other calls, if any.

        An affine entry k becomes (t_k + c_k)/d_k, which _snap_center
        centres at its root -c_k; shifted, it is t_k/d_k, centred at the
        origin.  So for affine entries the value is a unit of Z/l: the
        trial never misses."""
        if transform is None:
            rows = self._inner_forms(elements)
            transform = (None if rows is None
                         else self._straightening_transform(rows))
            if transform is None:
                return None
        return self._try_trial((elements, {} if snaps is None else snaps),
                               (tuple(range(len(elements))), shift, transform))

    def certifies(self, cert, elements, shift=False):
        """Whether a certificate replays and states the symbol of the
        elements, each mapped by its transform, invertible mod p
        (apply_transform), and with shift translated by a constant."""
        T = cert.transform
        if T is not None:
            if not linalg.is_invertible(T, self.field.p):
                return False
            elements = [self.apply_transform(x, T) for x in elements]
        diffs = [s - x for s, x in zip(cert.statement, elements)]
        return len(cert.statement) == len(elements) and all(
            d.is_zero() or shift and d.num == d.den * d.num.leading()[1]
            for d in diffs) and cert.replay()

    def _try_trial(self, search, trial):
        """The certificate of one trial of a search, or None when its value
        is 0.  search is (elements, snaps), what the trials of one search
        share; trial is (variables, shift, transform).

        With a transform, entry k is written down straightened
        (_straightened), its constant term dropped when the trial shifts;
        without one, a shifted entry is translated by its value at the
        origin.  Step k is centred at a zero or pole of entry k
        (_snap_center), kept in snaps by (entry key, variable) so that the
        roots of an entry are found once per search.  The chain and its
        value are read from and stored in the trial cache."""
        elements, snaps = search
        vars_, shift, transform = trial
        entries = []
        for k, x in enumerate(elements):
            if transform is not None:
                x = self._straightened(x, transform, k, shift)
            elif shift:
                c = self._value_at_origin(x)
                if c is not None:
                    x = x - self.field.const(c)
            if x.is_zero():
                return None
            entries.append(x)
        keys = tuple(x.key() for x in entries)
        zero, centers = self.field.tower.zero(), []
        for x, key, v in zip(entries, keys, vars_):
            if (key, v) not in snaps:
                snaps[key, v] = self._snap_center(x, v)
            c = snaps[key, v]
            centers.append(zero if c is None else c)
        key = (keys, (vars_, tuple(c if c is INF else (c.level, c.coeffs)
                                   for c in centers)))
        hit = self._trial_values.get(key)
        if hit is None:
            chain = coordinate_chain(self.field, vars_, centers)
            hit = chain, self._chain_value(Symbol(entries), chain)
            self._remember(key, hit)
        chain, value = hit
        if value == 0:
            return None
        return Certificate(Symbol(entries), chain, value, self.ell,
                           transform=transform)

    def _remember(self, key, hit):
        """Store a trial's chain and value under a key whose parts are
        shared with the keys already stored; a full cache is emptied
        first."""
        if len(self._trial_values) >= TRIAL_CACHE_LIMIT:
            self._trial_values.clear()
            self._key_parts.clear()
        parts = self._key_parts
        keys, chain_key = key
        key = (tuple(parts.setdefault(k, k) for k in keys),
               parts.setdefault(chain_key, chain_key))
        self._trial_values[key] = hit

    def _chain_value(self, sym, chain):
        """The scalar of a full-length evaluation, 0 when there is none."""
        try:
            value = tame_chain(self.field, sym, chain, self.ell)
        except (ZeroEntry, ZeroInputError, ZeroDivisionError):
            return 0
        return value.scalar() if value.is_scalar() else 0

    # -- dimension -----------------------------------------------------------

    def jacobian_rank(self, gens):
        """Transcendence degree lower bound via the rank of the Jacobian of
        the Frobenius-stripped generators; exact fraction-free elimination.
        Full rank proves independence; a rank below the number of
        generators proves nothing in characteristic p (see trdeg_upper)."""
        p = self.field.p
        rows = []
        for g in gens:
            g, _ = g.frobenius_strip(p)
            row = []
            for j in range(self.nvars):
                n = g.num.derivative(j) * g.den - g.num * g.den.derivative(j)
                row.append(n)
            rows.append(row)
        return _poly_matrix_rank(rows)

    def trdeg_upper(self, gens):
        """An upper bound on the transcendence degree of the field the
        nonconstant generators cut out, each one backed by a witness: the
        F_p rank of the inner forms when every generator has one
        (_inner_forms; exact, since each generator is algebraic over the
        one-variable field of its form and generates it up to an algebraic
        extension), else the number of generators or of variables they use,
        whichever is smaller.

        The Jacobian rank is no such bound: in characteristic p it can fall
        below the transcendence degree, as for x and x + y^p.  Nor is the
        gradient alone: an inner form counts only after its exact check."""
        gens = [g for g in gens if not g.is_constant()]
        rows = self._inner_forms(gens)
        if rows is not None:
            return linalg.rank(tuple(rows), self.field.p)
        used = set().union(*(g.vars_used() for g in gens))
        return min(len(gens), len(used))

    # -- degree-1 class comparison --------------------------------------------

    def kclass_compare(self, x, y):
        """Three-valued equality in degree one, in closed form: EQUAL or
        DISTINCT when the ratio is constant, a monomial, or a function of one
        variable, else UNKNOWN.  No search is run: one could only certify
        DISTINCT, and the callers act on EQUAL alone.  RatFunc cancels only
        monomial content: (t0 + t1)/(2t0 + 2t1) is constant, yet unreduced."""
        if x.is_zero() or y.is_zero():
            raise ZeroEntry("classes of zero are undefined")
        ratio = x / y
        if ratio.num == ratio.den * ratio.num.leading()[1]:
            return EQUAL
        if len(ratio.num.terms) == 1 and len(ratio.den.terms) == 1:
            (en, _), = ratio.num.terms.items()
            (ed, _), = ratio.den.terms.items()
            diff = [a - b for a, b in zip(en, ed)]
            if all(v % self.ell == 0 for v in diff):
                return EQUAL
            return DISTINCT
        used = ratio.vars_used()
        if len(used) == 1:
            (i,) = used
            div = _univariate_divisor(self.field, ratio, i)
            if all(v % self.ell == 0 for v in div.values()):
                return EQUAL
            return DISTINCT
        return UNKNOWN


def _check_budget(budget):
    if budget < 0:
        raise ValueError("budget must be at least 0, got %d" % budget)


def _affine(x):
    """Whether an entry is affine over F_p: degree one over a constant
    denominator, with level-1 coefficients (_inner_form's first case)."""
    return x.den.is_constant() and all(
        not any(e) or sum(e) == 1 and c.level == 1
        for e, c in x.num.terms.items())


def _unit_exponent(nvars, j):
    return tuple(1 if k == j else 0 for k in range(nvars))


def _power_terms(form, m, p, nvars):
    """The exponent and the coefficient mod p of every nonzero term of L^m,
    L the sum of a t_i over the (i, a) pairs of form: by the multinomial
    theorem m!/prod(e_i!) prod(a_i^e_i), taken as C(m, e_1) a_1^e_1 times
    C(m - e_1, e_2) a_2^e_2 and so on, so that a factor that vanishes mod p
    drops every term below it."""
    terms = [((0,) * nvars, m, 1)]
    for i, a in form:
        nxt = []
        for e, left, c in terms:
            for k in range(left + 1):
                b = c * math.comb(left, k) * pow(a, k, p) % p
                if b:
                    nxt.append((e[:i] + (k,) + e[i + 1:], left - k, b))
        terms = nxt
    return [(e, c) for e, left, c in terms if not left]


def _univariate_divisor(field, f, i):
    """Divisor of a rational function of the single variable i, as a map from
    compressed points (and INF) to integer multiplicities."""
    div = {}
    for poly, sign in ((f.num, 1), (f.den, -1)):
        if poly.is_constant():
            continue
        for root, mult in field.univariate_roots(poly):
            k = root.compress_key()
            div[k] = div.get(k, 0) + sign * mult
    deg = f.den.degree_in(i) - f.num.degree_in(i)
    if deg:
        div["inf"] = div.get("inf", 0) + deg
    return {k: v for k, v in div.items() if v}


def _poly_matrix_rank(rows):
    """Rank over the function field of a matrix of sparse polynomials, by
    fraction-free Gaussian elimination."""
    rows = [list(r) for r in rows if any(not e.is_zero() for e in r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    while rows and col < ncols:
        pivot = next((i for i, r in enumerate(rows) if not r[col].is_zero()), None)
        if pivot is None:
            col += 1
            continue
        rows[0], rows[pivot] = rows[pivot], rows[0]
        prow = rows[0]
        rest = []
        for r in rows[1:]:
            if r[col].is_zero():
                rest.append(r)
                continue
            new = [r[j] * prow[col] - prow[j] * r[col] for j in range(ncols)]
            if any(not e.is_zero() for e in new):
                rest.append(new)
        rows = rest
        rank += 1
        col += 1
    return rank
