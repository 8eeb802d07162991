"""Rational subgroups of the degree-one mod-l K-group, finite fragments of the
graded lattice of relatively algebraically closed subfields, the maximality
recipes recovering its graded pieces, divisor maps, delta sets and the
epsilon-rigidity test.

All recipes are evaluated relative to a declared finite universe of rational
subgroups; every output records the sources that generated it, and dimension
logic is three-valued (certified lower bound, axiom-backed upper bound,
unknown in between).
"""

import collections
import itertools
import random

from . import geometry, linalg
from .groundfield import INF, CoordValuation, FunctionField, RatFunc
from .kmilnor import UNKNOWN, _check_budget, _univariate_divisor


class ZeroInput(ValueError):
    pass


class NotMember(ValueError):
    pass


class DimUnknown(RuntimeError):
    """A recipe could not separate adjacent dimensions within its budget."""

    def __init__(self, candidates):
        self.candidates = candidates
        super().__init__("dimension unresolved for %d candidate(s)" % len(candidates))


class NotPreserving(ValueError):
    """The map does not stabilize a declared fragment; carries a witness."""

    def __init__(self, fragment, member_index):
        self.fragment = fragment
        self.member_index = member_index
        super().__init__(
            "map does not preserve fragment %r at member %d" % (fragment, member_index))


class RationalSubgroup:
    """The image of k(t)^x in the degree-one K-group, for a declared general
    element t.  Members are carried as univariate rational functions in the
    parameter and realized in the ambient field by substitution."""

    def __init__(self, ctx, gen, label=None):
        if gen.is_zero() or gen.is_constant():
            raise ZeroInput("a general element must be nonconstant")
        self.ctx = ctx
        self.gen = gen
        self.label = label if label is not None else "k(%r)" % (gen,)
        self.param = FunctionField(ctx.field.tower, 1)

    @property
    def coordinate_index(self):
        """Variable index when the generator is a plain coordinate, else None."""
        g = self.gen
        if len(g.num.terms) == 1 and g.den.is_constant():
            (exp, c), = g.num.terms.items()
            if sum(exp) == 1 and c.is_one():
                return exp.index(1)
        return None

    def member(self, g):
        """Realize a univariate function of the parameter inside the field."""
        if g.is_zero():
            raise ZeroInput("members are nonzero")
        return g.compose([self.gen])

    def pullback(self, f):
        """Express an ambient function in the parameter; NotMember if the
        generator is a coordinate and f involves other variables."""
        i = self.coordinate_index
        if i is None:
            raise NotMember("membership is only decidable for coordinate generators")
        if not f.vars_used() <= {i}:
            raise NotMember("function involves variables outside the subfield")
        def rename(poly):
            from .groundfield import SparsePoly
            return SparsePoly(1, {(e[i],): c for e, c in poly.terms.items()})
        return RatFunc(rename(f.num), rename(f.den))

    def __repr__(self):
        return "RationalSubgroup(%s)" % self.label


def div_ell(g, A):
    """Reduced divisor of a member, as a map point -> Z/l with zero sum.

    Points are compressed ground elements of the closure plus "inf"; the map
    is exact because the parameter line is genus zero.
    """
    ell = A.ctx.ell
    if isinstance(g, RatFunc) and g.num.nvars != 1:
        g = A.pullback(g)
    if g.is_zero():
        raise ZeroInput("divisor of zero")
    raw = _univariate_divisor(A.param, g, 0)
    out = {k: v % ell for k, v in raw.items() if v % ell}
    return out


class SubgroupFragment:
    """A finitely generated fragment of the subgroup attached to a subfield."""

    def __init__(self, label, generators, rank, sources=None, provenance=None):
        self.label = label
        self.generators = tuple(generators)
        self.rank = rank
        self.sources = frozenset(sources) if sources is not None else None
        self.provenance = dict(provenance or {})
        # points are hashed in every axiom scan; sources and generators are
        # never reassigned, so the hash is taken once
        self._hash = hash(self.sources if self.sources is not None
                          else self.key())

    def __repr__(self):
        return "SubgroupFragment(%s, rank=%r)" % (self.label, self.rank)

    def __eq__(self, other):
        if not isinstance(other, SubgroupFragment):
            return NotImplemented
        if self.sources is not None and other.sources is not None:
            return self.sources == other.sources
        return self.key() == other.key()

    def __hash__(self):
        return self._hash

    def key(self):
        return tuple(sorted(g.key() for g in self.generators))


def omega(ctx, generators, label=None, budget=64):
    """The fragment generated by the classes of the given field elements.

    Ground constants die modulo l-th powers and are dropped; the rank is the
    certified dimension when the bounds agree, else None.
    """
    lo, hi = milnor_dim_bounds(ctx, generators, budget=budget)
    rank = lo if lo == hi else None
    return SubgroupFragment(label or "omega",
                            [g for g in generators if not g.is_constant()],
                            rank)


def milnor_dim_bounds(ctx, gens, budget=64):
    """(certified lower, witnessed upper) for the span of the classes of
    the nonconstant generators, read off a Universe on them.

    The generators are walked in order, each kept when independent of
    those kept before.  The kept ones are certified independent, so their
    number is the lower bound.  A member with a witnessed dependence on
    those kept before it raises no rank, and each member left unknown
    raises it by at most one, so the upper bound is the basis plus the
    unknown members; when there are any, it is capped by
    KContext.trdeg_upper of the generators.  A negative budget raises
    ValueError, as linear members never reach a search that would, and a
    zero generator, whose class is undefined, raises ZeroInput."""
    _check_budget(budget)
    if any(g.is_zero() for g in gens):
        raise ZeroInput("the class of zero is undefined")
    universe = Universe(ctx, [RationalSubgroup(ctx, g) for g in gens
                              if not g.is_constant()], budget=budget)
    basis, unknown = [], 0
    for i in range(len(universe)):
        try:
            if universe.independent(basis + [i]):
                basis.append(i)
        except DimUnknown:
            unknown += 1
    upper = len(basis) + unknown
    if unknown:
        upper = min(upper, ctx.trdeg_upper(gens))
    return len(basis), upper


class Record(collections.namedtuple("Record", "answer how witness")):
    """What Universe.independent answered for one set, and why: answer is
    True, False or None (unresolved), how names the reason, and witness is
    what Universe.replay checks it by.

    Independent:
      RANK       linear members whose rows have full F_p rank; no witness
                 is kept, as the straightened certificate at the origin
                 (KContext.straightened_certificate) is built on replay
      CERTIFIED  the Certificate a search won for the set
      SUPERSET   the key of a certified set containing it
    Dependent:
      RELATION   F_p coefficients of a vanishing combination of the inner
                 forms (KContext._inner_forms; the rows of linear members)
      CONTAINS   the key of a dependent set it contains
      VARIABLES  the variables the members use, fewer than the members
    Unresolved:
      SEARCHED   the budget of the search that certified nothing; its
                 finite trial stream may have ended before the budget"""

    __slots__ = ()


RANK, CERTIFIED, SUPERSET = "rank", "certified", "superset"
RELATION, CONTAINS, VARIABLES = "relation", "contains", "variables"
SEARCHED = "searched"
_ANSWER = {RANK: True, CERTIFIED: True, SUPERSET: True, RELATION: False,
           CONTAINS: False, VARIABLES: False, SEARCHED: None}


def _relation(rows, p):
    """A nonzero vector c with sum c_k rows[k] = 0 mod p, else None."""
    kernel = linalg.nullspace(linalg.transpose(tuple(rows)), p)
    return kernel[0] if kernel else None


class Universe:
    """A declared finite family of rational subgroups with a memoized rank
    function; the recipes are evaluated relative to it.

    Ranks are computed greedily through a certified independence oracle:
    algebraic independence obeys exchange, so a maximal independent subset
    collected in sorted order has the full rank, and the oracle answers are
    shared across the sets the recipes probe.  The flats of each rank are
    found as covers of the flats one rank down (Universe.flats).

    Every answer is kept as one Record per set in _records, with the
    witness that Universe.replay checks.  A set of linear members is
    decided by the F_p rank of their rows, with no search: linear forms
    over F_p are algebraically independent exactly when their rows are
    linearly independent.  Each independent linear set keeps its F_p
    echelon, so a set that adds one member to such a set is decided by
    reducing that member's row against it alone, and a dependent one gets
    its relation from the same reduction.  Universe.closure asks one set per
    member, a basis of the set plus that member.

    For sets with a nonlinear member, one certificate answers many queries.
    A nonzero symbol has nonzero sub-symbols, {a,b,c} = {a,b}.{c}, so every
    subset of a certified set is independent.  A set that needs a search is
    therefore first extended towards a basis of the universe and the
    extension is certified in its place; its subsets are then answered
    without a further search."""

    def __init__(self, ctx, subgroups, budget=64):
        self.ctx = ctx
        self.subgroups = list(subgroups)
        self.budget = budget
        self._basis_cache = {}
        self._records = {}
        # the F_p echelon of each set recorded RANK, as (pivot column,
        # reduced row, that row as a {member: coefficient} combination)
        self._echelons = {frozenset(): ()}
        self._closure_cache = {}
        self._flats_by_rank = {}
        self._layers = {}
        # each member's linear row (KContext._linear_part), None if it has
        # none
        self._rows = [ctx._linear_part(s.gen) for s in self.subgroups]

    def __len__(self):
        return len(self.subgroups)

    def independent(self, indices):
        """Certified algebraic independence of the generators, kept with
        its witness as the set's Record.

        A set of linear members is independent exactly when its rows have
        full F_p rank; a dependent one keeps the F_p relation among them.

        Any other set is decided in this order.  A set that contains a
        dependent set minus one member is dependent too, as every superset
        of a dependent set is (Oxley, Matroid Theory, ch. 1).  So is a set
        whose members use fewer variables than it has members, say more
        members than the field has variables.  A subset of a certified set
        is independent without a search.  A relation among the inner forms
        proves dependence (the witnesses are those of
        KContext.trdeg_upper), and one certified symbol of full length
        built from subfield translates proves independence.  A set with
        neither is unresolved and raises DimUnknown.

        A set that needs a search is first extended: universe members are
        scanned in index order and kept while the Jacobian of the enlarged
        set has full rank, up to nvars members.  Full Jacobian rank proves
        independence in every characteristic, but here it only chooses the
        candidate; the extension is certified with the search the set
        itself would get, and only when that search runs out of budget is
        the set searched on its own.  So the extension changes no answer,
        except that a set whose own search would run out of budget can be
        certified through it."""
        key = frozenset(indices)
        rec = self._records.get(key)
        if rec is None:
            rec = self._records[key] = self._decide(key)
        if rec.answer is None:
            raise DimUnknown([key])
        return rec.answer

    def _decide(self, key):
        """The Record of a set without one, by the rules of independent."""
        p = self.ctx.field.p
        if all(self._rows[i] is not None for i in key):
            return self._decide_linear(key)
        for i in key:
            sub = self._records.get(key - {i})
            if sub is not None and sub.answer is False:
                return Record(False, CONTAINS, key - {i})
        gens = self._gens(key)
        used = set().union(*(g.vars_used() for g in gens))
        if len(used) < len(key):
            return Record(False, VARIABLES, tuple(sorted(used)))
        for other, rec in self._records.items():
            if rec.how == CERTIFIED and key <= other:
                return Record(True, SUPERSET, other)
        rows = self.ctx._inner_forms(gens)
        relation = None if rows is None else _relation(rows, p)
        if relation is not None:
            return Record(False, RELATION, relation)
        extended = self._extend(key)
        if extended != key and self._certify(extended):
            return Record(True, SUPERSET, extended)
        self._certify(key)
        return self._records[key]

    def _decide_linear(self, key):
        """The Record of a set of linear members.  Where the set less one
        member i, the largest such, has a kept echelon, only row i is
        reduced against it; otherwise the rows are reduced in index order
        from the empty echelon.  A nonzero remainder for every row records
        RANK and keeps the set's echelon.  The first row with a zero
        remainder depends on the independent rows before it, and their one
        relation, scaled to 1 at the largest member it uses, is the first
        vector of _relation's nullspace basis."""
        p = self.ctx.field.p
        echelon, rest = (), sorted(key)
        for i in reversed(rest):
            if key - {i} in self._echelons:
                echelon, rest = self._echelons[key - {i}], [i]
                break
        for i in rest:
            row, comb = self._rows[i], {i: 1}
            for pivot, erow, ecomb in echelon:
                f = row[pivot]
                if f:
                    row = [(a - f * b) % p for a, b in zip(row, erow)]
                    for j, b in ecomb.items():
                        comb[j] = (comb.get(j, 0) - f * b) % p
            lead = next((j for j, a in enumerate(row) if a), None)
            if lead is None:
                members = sorted(key)
                inv = pow(comb[max(j for j in comb if comb[j])], -1, p)
                return Record(False, RELATION, tuple(
                    comb.get(j, 0) * inv % p for j in members))
            inv = pow(row[lead], -1, p)
            echelon += ((lead, [a * inv % p for a in row],
                         {j: a * inv % p for j, a in comb.items()}),)
        self._echelons[key] = echelon
        return Record(True, RANK, None)

    def _gens(self, key):
        return [self.subgroups[i].gen for i in sorted(key)]

    def _extend(self, key):
        """The set enlarged, in index order, by the members that keep the
        Jacobian at full rank, until it has nvars members.  A set whose own
        Jacobian is rank-deficient is returned as it is: no enlargement of
        it can have full rank.  Only a set with a nonlinear member is
        extended."""
        jacobian_rank = self.ctx.jacobian_rank
        if jacobian_rank(self._gens(key)) < len(key):
            return key
        out = set(key)
        for i in range(len(self.subgroups)):
            if len(out) >= self.ctx.nvars:
                break
            if i not in out and jacobian_rank(
                    self._gens(out | {i})) == len(out) + 1:
                out.add(i)
        return frozenset(out)

    def _certify(self, key):
        """One certificate search for the set, kept as its Record: the
        Certificate it won, or the budget it was given.  The search is
        deterministic, so one that certified nothing would do so again and
        is not rerun."""
        rec = self._records.get(key)
        if rec is None:
            cert = self.ctx.certificate_search(
                self._gens(key), budget=self.budget, shifts=True)
            rec = self._records[key] = (
                Record(None, SEARCHED, self.budget) if cert is UNKNOWN
                else Record(True, CERTIFIED, cert))
        return rec.answer is True

    def replay(self):
        """The keys of the records that do not replay, in sorted order; an
        empty list when every answer is backed by its witness.

        A record replays when its answer is the one its reason gives and
        its witness holds: a certificate, the one kept or the straightened
        one built for a linear set, evaluates to its nonzero value; a
        relation is nonzero and vanishes mod p on the inner forms,
        recomputed from the generators; a superset is certified and a
        contained set dependent by their own records; the members use only
        the recorded variables, fewer than the members."""
        return sorted((key for key, rec in self._records.items()
                       if not self._replays(key, rec)), key=sorted)

    def _replays(self, key, rec):
        how, witness = rec.how, rec.witness
        if how not in _ANSWER or _ANSWER[how] is not rec.answer:
            return False
        nvars, p = self.ctx.nvars, self.ctx.field.p
        if how == RANK:
            cert = self.ctx.straightened_certificate(self._gens(key), True)
            return cert is not None and cert.replay()
        if how == CERTIFIED:
            return witness.replay()
        if how in (SUPERSET, CONTAINS):
            other = self._records.get(witness)
            inside = key < witness if how == SUPERSET else witness < key
            return (inside and other is not None
                    and other.answer is _ANSWER[how])
        if how == RELATION:
            rows = self.ctx._inner_forms(self._gens(key))
            return (rows is not None and len(witness) == len(rows)
                    and any(c % p for c in witness)
                    and not any(sum(c * row[j] for c, row in
                                    zip(witness, rows)) % p
                                for j in range(nvars)))
        if how == VARIABLES:
            used = set().union(*(g.vars_used() for g in self._gens(key)))
            return used <= set(witness) and len(witness) < len(key)
        return True

    def rank(self, indices):
        """Certified dimension of the join of the indexed subgroups: the
        size of the greedy basis.

        Raises DimUnknown when the certificate budget cannot close the gap.
        """
        return len(self.basis(indices))

    def basis(self, indices):
        """The greedy basis of the set: its members in index order, each
        kept when independent of those kept before.  By Gale's theorem it is
        the lexicographically least basis of the set."""
        key = frozenset(indices)
        basis = self._basis_cache.get(key)
        if basis is None:
            basis = []
            for i in sorted(key):
                if self.independent(frozenset(basis + [i])):
                    basis.append(i)
            basis = self._basis_cache[key] = tuple(basis)
        return basis

    def closure(self, indices):
        """All universe subgroups that do not raise the rank of the set.

        A member i outside the set lies in its closure exactly when a basis
        B of the set plus i is dependent: by exchange (Oxley, Matroid
        Theory, ch. 1) the set plus i has the rank of B plus i, so each
        member costs one independence answer rather than a greedy basis.

        A computed flat of the same rank containing the set already is its
        closure, so the covers that Universe.flats and the pipeline geometry
        ask for collapse onto the finitely many flats."""
        base = frozenset(indices)
        cached = self._closure_cache.get(base)
        if cached is not None:
            return cached
        b = self.basis(base)
        r = len(b)
        for flat in self._flats_by_rank.get(r, ()):
            if base <= flat:
                self._closure_cache[base] = flat
                return flat
        out = frozenset(i for i in range(len(self.subgroups))
                        if i in base or not self.independent(b + (i,)))
        self._closure_cache[base] = out
        self._closure_cache[out] = out
        self._flats_by_rank.setdefault(r, []).append(out)
        return out

    def flats(self, r):
        """The rank-r flats, in order of discovery: the closure of the
        empty set for r = 0, else the covers of the rank-(r - 1) flats.
        Memoized per rank."""
        layer = self._layers.get(r)
        if layer is None:
            if r == 0:
                layer = [self.closure(())]
            else:
                layer = geometry.covers(self.flats(r - 1),
                                        range(len(self.subgroups)),
                                        self.closure)
            self._layers[r] = layer
        return layer

    def fragment(self, sources, rank, provenance=None):
        sources = frozenset(sources)
        gens = [self.subgroups[i].gen for i in sorted(sources)]
        label = "<" + ",".join(self.subgroups[i].label for i in sorted(sources)) + ">"
        prov = dict(provenance or {})
        # maximality here always means maximality inside the declared universe
        prov.setdefault("universe_relative", True)
        return SubgroupFragment(label, gens, rank, sources=sources,
                                provenance=prov)


def recover_rank_r(universe, r):
    """Fragments of the rank-r lattice layer: joins of universe subsets that
    are maximal, within the universe, among sets of dimension exactly r.

    These are the rank-r flats of the universe, found as covers of the
    rank-(r - 1) flats (Universe.flats).  Each records as its seed its greedy
    basis, the lexicographically least set of r members that spans it."""
    if r < 2:
        raise ValueError("the recipe applies to rank two and above")
    return [universe.fragment(f, r,
                              provenance={"seed": list(universe.basis(f))})
            for f in sorted(universe.flats(r), key=sorted)]


def recover_rank_1(universe, rank2_sets, rank3_sets):
    """Rank-one fragments recovered through the witness conditions: distinct
    rank-two subgroups inside a common rank-three one, linked through an
    outside rational direction, intersecting in the fragment."""
    out = {}
    by2 = list(rank2_sets)
    by3 = list(rank3_sets)
    n = len(universe)
    for i1, i2 in itertools.combinations(range(len(by2)), 2):
        B1, B2 = by2[i1], by2[i2]
        if B1.sources == B2.sources:
            continue
        inter = B1.sources & B2.sources
        if not inter:
            continue
        if universe.rank(inter) != 1:
            continue
        A_sources = universe.closure(inter)
        if A_sources in out:
            continue
        witness = _rank1_witness(universe, B1, B2, by3, n)
        if witness is None:
            continue
        prov = {"B1": sorted(B1.sources), "B2": sorted(B2.sources)}
        prov.update(witness)
        out[A_sources] = universe.fragment(A_sources, 1, provenance=prov)
    return [out[k] for k in sorted(out, key=lambda s: sorted(s))]


def _rank1_witness(universe, B1, B2, rank3_sets, n):
    """Search D rational, C, B1', B2' rank three, E rank two satisfying the
    recipe's side conditions; returns provenance or None."""
    for C in rank3_sets:
        if not (B1.sources | B2.sources) <= C.sources:
            continue
        for d in range(n):
            if d in C.sources:
                continue
            B1p = next((X for X in rank3_sets
                        if (B1.sources | {d}) <= X.sources), None)
            B2p = next((X for X in rank3_sets
                        if (B2.sources | {d}) <= X.sources), None)
            if B1p is None or B2p is None:
                continue
            shared = B1p.sources & B2p.sources
            base = (B1.sources & B2.sources) | {d}
            try:
                if universe.rank(base) != 2:
                    continue
            except DimUnknown:
                continue
            e_sources = universe.closure(base)
            if not e_sources <= shared:
                continue
            return {"D": d, "C": sorted(C.sources),
                    "B1p": sorted(B1p.sources), "B2p": sorted(B2p.sources),
                    "E": sorted(e_sources)}
    return None


class DeltaEntry:
    __slots__ = ("valuation", "point", "ram", "w")

    def __init__(self, valuation, point, ram, w):
        self.valuation = valuation
        self.point = point      # compressed ground element or INF
        self.ram = ram          # value of v on the local parameter at the point
        self.w = w              # the induced divisorial valuation of k(t)

    def member_value(self, A, g):
        """Image of a member in A/A_v, i.e. its divisor coefficient at the
        point scaled by the ramification."""
        div = div_ell(g, A)
        key = "inf" if self.point is INF else self.point.compress_key()
        return (self.ram * div.get(key, 0)) % A.ctx.ell

    def __repr__(self):
        return "DeltaEntry(point=%r, ram=%d)" % (self.point, self.ram)


class DeltaSet:
    """The index-l subgroups of a rational subgroup cut out by the unit
    groups of the declared ambient valuations."""

    def __init__(self, base, entries):
        self.base = base
        self.entries = list(entries)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def delta_set(A, ambient_vals):
    """Restrict each ambient coordinate valuation to the subfield k(t).

    Valuations on which the subgroup consists of units are skipped, as are
    those whose ramification on the parameter is divisible by l (there the
    subgroup again lands in the units modulo l-th powers).
    """
    ctx = A.ctx
    field = ctx.field
    entries = []
    for v in ambient_vals:
        n, res = field.order_and_residue(A.gen, v)
        if n > 0:
            point = field.tower.zero().compress()
            ram = n
        elif n < 0:
            point = INF
            ram = -n
        else:
            if not res.is_constant():
                continue  # v is trivial on the subfield
            c = res.constant_value(field.tower)
            point = c.compress()
            ram, _ = field.order_and_residue(A.gen - field.const(c), v)
        if ram % ctx.ell == 0:
            continue
        w = CoordValuation(0, point if point is not INF else INF, 1)
        entries.append(DeltaEntry(v, point, ram, w))
    ds = DeltaSet(A, entries)
    _check_delta_index(A, ds)
    return ds


def _check_delta_index(A, ds):
    """Each entry must cut out an index-l subgroup: some member has nonzero
    image in A/A_v."""
    for entry in ds.entries:
        if entry.point is INF:
            g = A.param.var(0)
        else:
            g = A.param.var(0) - A.param.const(entry.point)
        if entry.member_value(A, g) % A.ctx.ell == 0:
            raise AssertionError("delta entry fails the index-l condition")


def _center_stream(field, rng, levels=(1, 1, 2)):
    """Ground elements drawn from small tower levels, cycling."""
    i = 0
    while True:
        lv = levels[i % len(levels)]
        field.tower.ensure_level(lv)
        yield field.tower.element_from_index(lv, rng.randrange(field.p ** lv))
        i += 1


def very_general_search(ctx, x, y, budget, ambient_vals=(), seed=0):
    """Sample b then a and return the first pair making (x+a)/(y+b) pass the
    declared checks: the candidate is nonconstant (Bertini-style general
    declaration) and every declared ambient valuation restricting
    nontrivially to its subfield is prime-to-l ramified."""
    if budget <= 0:
        return UNKNOWN
    rng = random.Random(repr(("very-general", seed)))
    field = ctx.field
    stream = _center_stream(field, rng)
    trials = [(field.tower.zero(), field.tower.zero())]
    while len(trials) < budget:
        b = next(stream)
        a = next(stream)
        trials.append((a, b))
    for a, b in trials[:budget]:
        den = y + field.const(b)
        if den.is_zero():
            continue
        z = (x + field.const(a)) / den
        if z.is_zero() or z.is_constant():
            continue
        if _fibers_ell_unramified(ctx, z, ambient_vals):
            return a, b
    return UNKNOWN


def _fibers_ell_unramified(ctx, z, ambient_vals):
    field = ctx.field
    for v in ambient_vals:
        ram = getattr(v, "ram", 1)
        val = getattr(v, "valuation", v)
        try:
            n, res = field.order_and_residue(z, val)
        except ZeroInput:
            return False
        if n != 0:
            e = abs(n) * ram
        else:
            if not res.is_constant():
                continue
            c = res.constant_value(field.tower)
            e, _ = field.order_and_residue(z - field.const(c), val)
            e = abs(e) * ram
        if e % ctx.ell == 0:
            return False
    return True


class AmbientValuation:
    """A declared ambient coordinate valuation together with the ramification
    it acquired through recorded covers."""

    __slots__ = ("valuation", "ram")

    def __init__(self, valuation, ram=1):
        self.valuation = valuation
        self.ram = ram

    def __repr__(self):
        return "AmbientValuation(%r, ram=%d)" % (self.valuation, self.ram)


class LatticeFragment:
    """Finite fragment of the graded lattice: nodes with ranks and the
    containment order, which must respect the grading."""

    def __init__(self, nodes):
        self.nodes = list(nodes)
        for a, b in itertools.permutations(self.nodes, 2):
            if a.sources is None or b.sources is None:
                continue
            if a.sources < b.sources and not (a.rank < b.rank):
                raise ValueError("containment order violates the grading")

    def edges(self):
        out = []
        for i, a in enumerate(self.nodes):
            for j, b in enumerate(self.nodes):
                if i != j and a.sources < b.sources:
                    out.append((i, j))
        return out

    def to_json(self):
        from . import jsonio

        # nodes share the universe's generator objects: encode each once
        encoded = {}

        def encode(g):
            if id(g) not in encoded:
                encoded[id(g)] = jsonio.encode_ratfunc(g)
            return encoded[id(g)]

        return {
            "nodes": [
                {
                    "label": n.label,
                    "rank": n.rank,
                    "generators": [encode(g) for g in n.generators],
                    "sources": sorted(n.sources) if n.sources is not None else None,
                    "provenance": jsonio.plain(n.provenance),
                }
                for n in self.nodes
            ],
            "edges": self.edges(),
        }

    def to_dot(self):
        lines = ["digraph lattice {"]
        for i, n in enumerate(self.nodes):
            lines.append('  n%d [label="%s (r=%s)"];' % (i, n.label, n.rank))
        covers = set(self.edges())
        # keep only covering edges for readability
        for (i, j) in sorted(covers):
            if any((i, k) in covers and (k, j) in covers
                   for k in range(len(self.nodes)) if k not in (i, j)):
                continue
            lines.append("  n%d -> n%d;" % (i, j))
        lines.append("}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Epsilon rigidity.
# ---------------------------------------------------------------------------

class CounterexampleReport:
    """Why an automorphism candidate is not a single scalar on the declared
    rational fragments."""

    def __init__(self, kind, details):
        self.kind = kind
        self.details = details

    def __repr__(self):
        return "CounterexampleReport(%s: %s)" % (self.kind, self.details)


class RationalFragmentData:
    """A rational subgroup fragment in ambient coordinates.

    members: rows, the ambient coordinates of the point classes (t - c_j);
    the divisor of row j is [c_j] - [inf], so the delta-set data of the
    fragment is carried implicitly by the row order.
    """

    def __init__(self, name, members):
        self.name = name
        self.members = tuple(tuple(m) for m in members)

    def __repr__(self):
        return "RationalFragmentData(%s)" % self.name


class RigidityInstance:
    def __init__(self, ell, ambient_dim, fragments):
        self.ell = ell
        self.n = ambient_dim
        self.fragments = list(fragments)

    def triangles(self):
        """Witness triples connecting fragments pairwise: members u in A,
        v in B and w in C with w = u - v in ambient coordinates, u and v
        independent."""
        out = []
        for (ia, A), (ib, B), (ic, C) in itertools.permutations(
                enumerate(self.fragments), 3):
            for ju, u in enumerate(A.members):
                for jv, v in enumerate(B.members):
                    if linalg.rank((u, v), self.ell) < 2:
                        continue
                    w = linalg.sub_vec(u, v, self.ell)
                    for jw, wc in enumerate(C.members):
                        if wc == w:
                            out.append((ia, ib, ic, ju, jv, jw))
        return out


def epsilon_rigidity_check(phi, instance):
    """Solve for the scalar by which an invertible map acts on every declared
    good rational fragment, through the divisor intertwining constraint.

    Returns the common unit when all fragments agree and the agreement graph
    is connected; otherwise a CounterexampleReport naming the first violated
    constraint or the missing connecting triangle.  Raises NotPreserving when
    a fragment is not stabilized.
    """
    l = instance.ell
    epsilons = []
    for frag in instance.fragments:
        M = frag.members
        k = len(M)
        images = [linalg.mat_vec(phi, m, l) for m in M]
        # coordinates of each image in the member basis
        A = linalg.transpose(M)
        P = []
        for j, img in enumerate(images):
            sol = linalg.solve(A, img, l)
            if sol is None:
                raise NotPreserving(frag.name, j)
            P.append(sol)
        # divisor intertwining forces P diagonal with a single unit
        for j, row in enumerate(P):
            for i in range(k):
                if i != j and row[i]:
                    return CounterexampleReport(
                        "divisor-mixing",
                        {"fragment": frag.name, "member": j,
                         "hits": i})
        diag = [P[j][j] for j in range(k)]
        if any(d == 0 for d in diag):
            raise NotPreserving(frag.name, diag.index(0))
        if len(set(diag)) != 1:
            j = next(j for j in range(k) if diag[j] != diag[0])
            return CounterexampleReport(
                "unequal-on-fragment",
                {"fragment": frag.name, "members": (0, j),
                 "epsilons": (diag[0], diag[j])})
        epsilons.append(diag[0])
    if not epsilons:
        return CounterexampleReport("no-fragments", {})
    if len(set(epsilons)) == 1:
        return epsilons[0]
    # need the very-general triangles to glue the fragments together
    parent = list(range(len(instance.fragments)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for ia, ib, ic, ju, jv, jw in instance.triangles():
        ea, eb, ec = epsilons[ia], epsilons[ib], epsilons[ic]
        if not (ea == eb == ec):
            return CounterexampleReport(
                "triangle-violated",
                {"fragments": (instance.fragments[ia].name,
                               instance.fragments[ib].name,
                               instance.fragments[ic].name),
                 "epsilons": (ea, eb, ec)})
        for x, y in ((ia, ib), (ib, ic)):
            parent[find(x)] = find(y)
    comps = {find(i) for i in range(len(instance.fragments))}
    if len(comps) > 1:
        groups = {}
        for i in range(len(instance.fragments)):
            groups.setdefault(find(i), []).append(instance.fragments[i].name)
        return CounterexampleReport(
            "missing-triangle", {"components": sorted(groups.values())})
    return epsilons[0]
