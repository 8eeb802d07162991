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

from . import geometry, linalg
from .groundfield import INF, FunctionField, RatFunc
from .kmilnor import UNKNOWN, _affine, _check_budget, _univariate_divisor


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
    ValueError, as members with rows never reach a search that would, and
    a zero generator, whose class is undefined, raises ZeroInput."""
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
      RANK       members whose rows have full F_p rank; no witness is
                 kept, as the straightened certificate at the origin
                 (Universe.straightened) is built on replay
      CERTIFIED  the Certificate a search won for the set
      SUPERSET   the key of a certified set containing it
    Dependent:
      RELATION   F_p coefficients of a vanishing combination of the inner
                 forms (KContext._inner_forms, the rows)
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


def _row(ctx, gen):
    """A member's inner form, kept above degree one only when its own
    straightened trial certifies it, unshifted and shifted, so that RANK
    replays: not for c h^l, nor for t^3 + 1 at l = 3 (shifted, t^3)."""
    row = ctx._inner_form(gen)
    trials = (ctx.straightened_certificate([gen], s) for s in (False, True))
    return row if row is None or _affine(gen) or all(trials) else None


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
    shared across the sets the recipes probe.  Every closure is a chain of
    covers (Universe.cover) of flats kept with their bases, and the flats
    of each rank are the covers of those one rank down (Universe.flats).

    Every answer is kept as one Record per set in _records, with the
    witness that Universe.replay checks.  A member g(L), a polynomial in
    a prime-field linear form L, lies in the one-variable subfield k(L),
    algebraic over k(g(L)); L is its row (_row).  A set of members with
    rows is decided by the F_p rank of their rows, with no search: they
    are algebraically independent exactly when their forms are linearly
    independent.  Each independent set of them keeps its F_p echelon, so
    a set that adds one member to such a set is decided by reducing that
    member's row against it alone, and a dependent one gets its relation
    from the same reduction.  A new flat asks one set per
    member, its basis plus that member.

    For sets with a rowless member, one certificate answers many queries.
    A nonzero symbol has nonzero sub-symbols, {a,b,c} = {a,b}.{c}, so every
    subset of a certified set is independent.  A set that needs a search is
    therefore first extended towards a basis of the universe and the
    extension is certified in its place; its subsets are then answered
    without a further search."""

    def __init__(self, ctx, subgroups, budget=64):
        self.ctx = ctx
        self.subgroups = list(subgroups)
        self.budget = budget
        self._records = {}
        # the F_p echelon of each set recorded RANK, as (pivot column,
        # reduced row, that row as a {member: coefficient} combination)
        self._echelons = {frozenset(): ()}
        # each kept flat's basis; the covers, keyed by flat plus member
        self._bases = {}
        self._covers = {}
        self._flats_by_rank = {}
        self._rows = [_row(ctx, s.gen) for s in self.subgroups]

    def __len__(self):
        return len(self.subgroups)

    def independent(self, indices):
        """Certified algebraic independence of the generators, kept with
        its witness as the set's Record.

        A set of members with rows is independent exactly when its rows
        have full F_p rank; a dependent one keeps their F_p relation.

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
        rec = self.record(indices)
        if rec.answer is None:
            raise DimUnknown([frozenset(indices)])
        return rec.answer

    def record(self, indices):
        """The set's Record, decided first (by the rules of independent)
        when it has none; an unresolved one is returned, not raised."""
        key = frozenset(indices)
        if key not in self._records:
            self._records[key] = self._decide(key)
        return self._records[key]

    def _decide(self, key):
        """The Record of a set without one, by the rules of independent."""
        if all(self._rows[i] is not None for i in key):
            return self._decide_by_rows(key)
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
        relation = None if rows is None else _relation(rows, self.ctx.field.p)
        if relation is not None:
            return Record(False, RELATION, relation)
        extended = self._extend(key)
        if extended != key and self._certify(extended):
            return Record(True, SUPERSET, extended)
        self._certify(key)
        return self._records[key]

    def _decide_by_rows(self, key):
        """The Record of a set of members with rows.  A set with a kept
        echelon is independent.  Otherwise the set less its largest member i is
        decided first, and row i is reduced against its echelon (_reduce);
        so the rows are reduced in index order from the empty echelon, and
        the relation of the first dependent rows, 0 after them, is kept."""
        if key in self._echelons:
            return Record(True, RANK, None)
        i = max(key)
        rec = self._decide_by_rows(key - {i})
        if rec.answer:
            return self._reduce(key, self._echelons[key - {i}], i)
        return rec._replace(witness=rec.witness + (0,))

    def _reduce(self, key, echelon, i):
        """The Record of a set of members with rows whose members other than
        i have the kept echelon: row i reduced against it.  A nonzero
        remainder records RANK and keeps the set's echelon.  A zero one
        gives row i's relation to those rows, scaled to 1 at the largest
        member it uses: the first vector of _relation's nullspace basis."""
        p = self.ctx.field.p
        row, comb = self._rows[i], {i: 1}
        for pivot, erow, ecomb in echelon:
            f = row[pivot]
            if f:
                row = [(a - f * b) % p for a, b in zip(row, erow)]
                for j, b in ecomb.items():
                    comb[j] = (comb.get(j, 0) - f * b) % p
        lead = next((j for j, a in enumerate(row) if a), None)
        if lead is None:
            inv = pow(comb[max(j for j in comb if comb[j])], -1, p)
            return Record(False, RELATION, tuple(
                comb.get(j, 0) * inv % p for j in sorted(key)))
        inv = pow(row[lead], -1, p)
        self._echelons[key] = echelon + (
            (lead, [a * inv % p for a in row],
             {j: a * inv % p for j, a in comb.items()}),)
        return Record(True, RANK, None)

    def _gens(self, key):
        return [self.subgroups[i].gen for i in sorted(key)]

    def _extend(self, key):
        """The set enlarged, in index order, by the members that keep the
        Jacobian at full rank, until it has nvars members.  A set whose own
        Jacobian is rank-deficient is returned as it is: no enlargement of
        it can have full rank.  Only a set with a rowless member is
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
        one built for a set of members with rows, evaluates to its nonzero
        value, and a kept one states the symbol of translates of the
        members (KContext.certifies); a relation is nonzero and vanishes
        mod p on the inner forms, recomputed from the generators; a
        superset is certified and a contained set dependent by their own
        records; the members use only the recorded variables, fewer than
        the members.  The straightened certificates share one snap table,
        as a centre depends on the entry and the variable alone."""
        snaps = {}
        return sorted((key for key, rec in self._records.items()
                       if not self._replays(key, rec, snaps)), key=sorted)

    def _replays(self, key, rec, snaps):
        how, witness = rec.how, rec.witness
        if how not in _ANSWER or _ANSWER[how] is not rec.answer:
            return False
        nvars, p = self.ctx.nvars, self.ctx.field.p
        if how == RANK:
            cert = self.straightened(key, True, snaps)
            return cert is not None and cert.replay()
        if how == CERTIFIED:
            return self.ctx.certifies(witness, self._gens(key), shift=True)
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

    def straightened(self, indices, shift, snaps=None):
        """The witness of a set recorded RANK: the straightened certificate
        at the origin (KContext.straightened_certificate), its
        straightening taken from the kept rows, or None when the rows are
        dependent or the trial misses."""
        key = sorted(indices)
        transform = self.ctx._straightening_transform(
            [self._rows[i] for i in key])
        return None if transform is None else (
            self.ctx.straightened_certificate(self._gens(key), shift,
                                              transform, snaps))

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
        return self.span(indices)[1]

    def closure(self, indices):
        """All universe subgroups that do not raise the rank of the set."""
        return self.span(indices)[0]

    def span(self, indices):
        """The closure of the set and its greedy basis, read off one chain
        of covers from the closure of the empty set: the members in index
        order, each moving the chain exactly when it lies outside the
        chain's flat, that is when the greedy basis keeps it."""
        flat, basis = self._flat((), frozenset()), ()
        for i in sorted(indices):
            if i not in flat:
                flat, basis = self.cover(flat, i), basis + (i,)
        return flat, basis

    def cover(self, flat, i):
        """The closure of a kept flat plus member i, memoized by the union,
        from the basis B the flat was built with: when B plus i is
        independent, an answer kept with the flat, it spans the cover of
        rank r + 1 (_flat); else i lies in the flat."""
        key = flat | {i}
        if key not in self._covers:
            basis = self._bases[flat] + (i,)
            self._covers[key] = (self._flat(basis, key)
                                 if self.independent(basis) else flat)
        return self._covers[key]

    def _flat(self, basis, key):
        """The flat of an independent basis, holding key: a kept flat of
        its rank containing key, else a new one, kept with the basis, of
        the members whose answer with the basis is dependent.  A member
        with a row has its row reduced against the basis's kept echelon
        (_reduce); any other gets Universe.independent's answer."""
        r = len(basis)
        flat = next((f for f in self._flats_by_rank.get(r, ()) if key <= f),
                    None)
        if flat is None:
            members = frozenset(basis)
            echelon = self._echelons.get(members)

            def dependent(j):
                # one reduction against the basis's echelon, not
                # _decide_by_rows's walk in index order: without it
                # linear-universe ran 5 % slower, in 4 of 4 pairs
                more = members | {j}
                if (echelon is not None and self._rows[j] is not None
                        and more not in self._records):
                    self._records[more] = self._reduce(more, echelon, j)
                return not self.independent(more)

            flat = frozenset(j for j in range(len(self.subgroups))
                             if j in key or dependent(j))
            self._bases[flat], self._covers[flat] = basis, flat
            self._flats_by_rank.setdefault(r, []).append(flat)
        return flat

    def flats(self, r):
        """The rank-r flats, in order of discovery: the closure of the
        empty set for r = 0, else the covers of the rank-(r - 1) flats.
        Each layer is rebuilt from the memoized covers."""
        if r == 0:
            return [self.closure(())]
        return geometry.covers(self.flats(r - 1), range(len(self.subgroups)),
                               self.cover)

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
        inter = B1.sources & B2.sources
        if not inter:
            continue
        A_sources, basis = universe.span(inter)
        if len(basis) != 1 or A_sources in out:
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
                e_sources, basis = universe.span(base)
            except DimUnknown:
                continue
            if len(basis) != 2 or not e_sources <= shared:
                continue
            return {"D": d, "C": sorted(C.sources),
                    "B1p": sorted(B1p.sources), "B2p": sorted(B2p.sources),
                    "E": sorted(e_sources)}
    return None


class DeltaEntry:
    __slots__ = ("valuation", "point", "ram")

    def __init__(self, valuation, point, ram):
        self.valuation = valuation
        self.point = point      # compressed ground element or INF
        self.ram = ram          # value of v on the local parameter at the point

    def member_value(self, A, g):
        """Image of a member in A/A_v, i.e. its divisor coefficient at the
        point scaled by the ramification."""
        div = div_ell(g, A)
        key = "inf" if self.point is INF else self.point.compress_key()
        return (self.ram * div.get(key, 0)) % A.ctx.ell


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
        entries.append(DeltaEntry(v, point, ram))
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


class LatticeFragment:
    """Finite fragment of the graded lattice: nodes with ranks and the
    containment order, which must respect the grading."""

    def __init__(self, nodes):
        self.nodes = list(nodes)
        # the containment order, as the pairs (i, j) of node indices with
        # the sources of node i strictly inside those of node j
        self.edges = [(i, j) for i, a in enumerate(self.nodes)
                      for j, b in enumerate(self.nodes)
                      if a.sources < b.sources]
        if any(not self.nodes[i].rank < self.nodes[j].rank
               for i, j in self.edges):
            raise ValueError("containment order violates the grading")

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
            "edges": self.edges,
        }

    def to_dot(self):
        lines = ["digraph lattice {"]
        for i, n in enumerate(self.nodes):
            lines.append('  n%d [label="%s (r=%s)"];' % (i, n.label, n.rank))
        above = collections.defaultdict(list)
        for i, j in self.edges:
            above[i].append(j)
        # keep only covering edges for readability: (i, j) when no node
        # above i lies below j
        contains = set(self.edges)
        for i, j in self.edges:
            if not any((k, j) in contains for k in above[i]):
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


class RationalFragmentData:
    """A rational subgroup fragment in ambient coordinates.

    members: rows, the ambient coordinates of the point classes (t - c_j);
    the divisor of row j is [c_j] - [inf], so the delta-set data of the
    fragment is carried implicitly by the row order.
    """

    def __init__(self, name, members):
        self.name = name
        self.members = tuple(tuple(m) for m in members)


class RigidityInstance:
    def __init__(self, ell, ambient_dim, fragments):
        self.ell = ell
        self.n = ambient_dim
        self.fragments = list(fragments)

    def triangles(self):
        """The fragment triples (A, B, C) that a witness triangle connects,
        each listed once: members u in A, v in B and w in C with w = u - v
        in ambient coordinates, u and v independent."""
        l = self.ell
        return [(ia, ib, ic) for (ia, A), (ib, B), (ic, C)
                in itertools.permutations(enumerate(self.fragments), 3)
                if any(linalg.sub_vec(u, v, l) in C.members
                       for u in A.members for v in B.members
                       if linalg.rank((u, v), l) == 2)]


def epsilon_rigidity_check(phi, instance):
    """Solve for the scalar by which an invertible map acts on every declared
    good rational fragment, through the divisor intertwining constraint.

    Returns the common unit when all fragments agree; otherwise a
    CounterexampleReport naming the first violated constraint, or the
    components that the connecting triangles leave.  Raises NotPreserving when
    a fragment is not stabilized, and ValueError when the members of a
    fragment are dependent.
    """
    l = instance.ell
    epsilons = []
    for frag in instance.fragments:
        M = frag.members
        k = len(M)
        # coordinates of each image in the member basis
        coordinates = linalg.presolve(linalg.transpose(M), l)
        P = []
        for j, m in enumerate(M):
            sol = coordinates(linalg.mat_vec(phi, m, l))
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
    # a triangle u - v = w glues its three fragments: phi(w) = e_C u - e_C v
    # = e_A u - e_B v, with u and v independent, so they share one epsilon;
    # as not all the epsilons agree, the triangles leave more than one
    # component
    parent = list(range(len(instance.fragments)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for ia, ib, ic in instance.triangles():
        for x, y in ((ia, ib), (ib, ic)):
            parent[find(x)] = find(y)
    groups = {}
    for i, frag in enumerate(instance.fragments):
        groups.setdefault(find(i), []).append(frag.name)
    return CounterexampleReport(
        "missing-triangle", {"components": sorted(groups.values())})
