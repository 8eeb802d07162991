"""Closure geometries carried by their lattices of flats, axiom checking, a
small first-order evaluator over the closure language, and isomorphism
transfer.

Everything here is finite model theory: universes are finite point sets, a
geometry is its points plus its flats, and the quantifiers range over the
universe.
"""

import itertools
import json

from .jsonio import InputError, field


class JoinUndefined(RuntimeError):
    """No flat, or more than one minimal flat, contains a set."""


class ArityMismatch(ValueError):
    pass


class NotIsomorphism(ValueError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__("not an isomorphism: %r" % (witness,))


class ClosureGeometry:
    """A finite set of points carried by its flats.

    The closure of a set is the least flat containing it.  A set that no
    flat contains, or that several minimal flats contain, has no closure
    and cl raises JoinUndefined.  A geometry read from a closure table, or
    found by covers, keeps the table of the closure's answers, whose entries
    check_axioms checks against the flats."""

    def __init__(self, points, flats, table=()):
        self.points = tuple(points)
        self._universe = frozenset(self.points)
        # a point set is a bitmask over the distinct points, in the order in
        # which check_axioms tries them, kept once per set; a set of flats
        # is a bitset over the flats' indices
        self._bit = {p: 1 << i
                     for i, p in enumerate(dict.fromkeys(self.points))}
        self._masks = {}
        index = {p: i for i, p in enumerate(self.points)}
        self.flats = tuple(sorted(
            {self._inside(f) for f in flats},
            key=lambda f: (len(f), sorted(index[p] for p in f))))
        # the flats through each point, and the flats holding each flat
        masks = [self._masks[f] for f in self.flats]
        self._through = {b: sum(1 << j for j, f in enumerate(masks) if f & b)
                         for b in self._bit.values()}
        self._above = [self._held(f) for f in masks]
        self.table = [(self._inside(k), self._inside(v)) for k, v in table]
        self._memo = {}

    def _inside(self, subset):
        out = frozenset(subset)
        if out not in self._masks:
            if not out <= self._universe:
                raise ValueError("%r lies outside the universe"
                                 % (set(out - self._universe),))
            self._masks[out] = sum(map(self._bit.__getitem__, out))
        return out

    def _held(self, s):
        """The flats holding the mask s: the AND of its points' flats."""
        held = (1 << len(self.flats)) - 1
        for b in _bits(s):
            held &= self._through[b]
        return held

    def _minimal(self, s):
        """The minimal flats holding the mask s, memoized.  The flats are
        sorted by size, so the least flat holding s is minimal, and the
        only one when every flat holding s holds it; otherwise the next is
        the least flat holding s that holds no flat found before."""
        minimal = self._memo.get(s)
        if minimal is None:
            minimal, held = [], self._held(s)
            while held:
                j = (held & -held).bit_length() - 1
                minimal.append(self.flats[j])
                held &= ~self._above[j]
            minimal = self._memo[s] = tuple(minimal)
        return minimal

    def cl(self, subset):
        s = self._inside(subset)
        minimal = self._minimal(self._masks[s])
        if len(minimal) != 1:
            raise JoinUndefined("%s flat contains %r" % (
                "more than one minimal" if minimal else "no", s))
        return minimal[0]

    def table_witness(self):
        """The first table entry (A, C) where C is not the closure of A,
        with a witness: A is not inside C, or C is not a flat, or a flat B
        holds A but not C.  None when every entry agrees with the flats.
        The flats of a table read from JSON are its fixed points, so there
        the witness replays against the table alone."""
        fixed = set(self.flats)
        for a, c in self.table:
            if not a <= c:
                return {"A": a, "reason": "A not in cl(A)"}
            if c not in fixed:
                return {"A": a, "reason": "cl not idempotent"}
            minimal = self._minimal(self._masks[a])
            if minimal != (c,):
                return {"A": a, "B": next(f for f in minimal if f != c),
                        "reason": "cl not monotone"}
        return None

    @classmethod
    def from_json(cls, data):
        """A geometry from its points and either its closed sets, to which
        the full universe is added, or a closure table, whose fixed points
        are taken as the flats and whose entries are kept for checking."""
        what = "a geometry"
        points = _point_list(field(data, "points", what, list), "the points")
        if len(set(points)) != len(points):
            raise InputError("the points of a geometry must be distinct")
        if "closure" in data:
            table = []
            for entry in field(data, "closure", what, list):
                if not (isinstance(entry, list) and len(entry) == 2):
                    raise InputError("a closure entry must be a pair of "
                                     "point lists")
                table.append(tuple(_point_list(s, "a closure entry")
                                   for s in entry))
            return cls(points, [k for k, v in table if set(k) == set(v)],
                       table)
        closed = [_point_list(s, "a closed set")
                  for s in field(data, "closed_sets", what, list)]
        return cls(points, closed + [points])


def _point_list(value, what):
    if not isinstance(value, list) or any(isinstance(p, (list, dict))
                                          for p in value):
        raise InputError("%s must be a list of points" % what)
    return value


def covers(layer, points, cover):
    """The flats covering the flats of a layer, in order of discovery:
    cover(F, x), the closure of F | {x}, for F in the layer and x outside F.

    A point inside a cover of F already found spans that cover again and is
    skipped.  This is valid only where exchange holds (Oxley, Matroid
    Theory, ch. 1), so flats_by_covers, whose geometry check_axioms checks,
    does not skip."""
    out = {}
    for f in layer:
        found = []
        for x in points:
            if x not in f and not any(x in c for c in found):
                found.append(cover(f, x))
        out.update(dict.fromkeys(found))
    return list(out)


def flats_by_covers(points, empty, cover):
    """The geometry of a closure on the points, found by covers: empty, the
    closed empty set (a frozenset), then cover(F, x), the closure of
    F | {x}, for every flat F found and every point x outside F.  Every
    flat of a matroid is reached, as every rank-r flat covers some
    rank-(r - 1) flat.

    No point is skipped, and every answer is kept as a table entry, so
    check_axioms checks exchange at every flat the closure yields and
    checks each answer against the least flat holding its set."""
    table = [(frozenset(), empty)]
    flats = {empty: None}
    layer = [empty]
    while layer:
        found = {}
        for f in layer:
            for x in points:
                if x not in f:
                    c = frozenset(cover(f, x))
                    table.append((f | {x}, c))
                    if c not in flats:
                        found[c] = None
        flats.update(found)
        layer = list(found)
    return ClosureGeometry(points, flats, table)


class AxiomReport:
    def __init__(self):
        self.closure = (True, None)
        self.geometry = (True, None)
        self.exchange = (True, None)
        self.finite_character = (True, "vacuous on a finite universe")

    def all_pass(self):
        return all(flag for flag, _ in
                   (self.closure, self.geometry, self.exchange,
                    self.finite_character))

    def to_json(self):
        def enc(pair):
            flag, witness = pair
            return {"pass": flag, "witness": encode_witness(witness)}

        return {
            "closure": enc(self.closure),
            "geometry": enc(self.geometry),
            "exchange": enc(self.exchange),
            "finite_character": enc(self.finite_character),
        }


def encode_witness(w):
    """A witness as plain JSON values, point sets as sorted lists; points of
    different JSON types sort by type name first."""
    if w is None or isinstance(w, str):
        return w

    def plain(o):
        if isinstance(o, (set, frozenset)):
            return sorted(o, key=lambda p: (type(p).__name__, p))
        return str(o)

    return json.loads(json.dumps(w, default=plain))


def _bits(mask):
    """The set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def check_axioms(geom):
    """Verify the closure, geometry and exchange axioms on the flats of the
    geometry, exhaustively at every size.

    cl is the least flat containing a set, so it is extensive, monotone and
    idempotent wherever it is defined.  It is defined everywhere exactly
    when it is defined at the empty set and at every F | {x}, F a flat and
    x a point: a chain of such closures climbs from cl(empty) to the least
    flat holding any set.
    So the closure axiom asks that those closures exist and that every
    entry of the geometry's table agree with the flats.  The
    geometry axiom asks that the empty set and every point be flats.
    Exchange at a set A is exchange at the flat cl(A), and at a flat F it
    says that the covers cl(F | {x}), x outside F, partition the complement
    of F; every x is tried, none skipped.  Finite character is vacuous here
    and recorded as such."""
    report = AxiomReport()
    witness = geom.table_witness()
    if witness is not None:
        report.closure = (False, witness)
    masks, name = geom._masks, {b: p for p, b in geom._bit.items()}

    def closure(s, subset):
        # the least flat holding the mask s; subset() builds s for a witness
        minimal = geom._minimal(s)
        if len(minimal) == 1:
            return minimal[0]
        if report.closure[0]:
            report.closure = (False, {"A": subset(), "reason":
                                      "no least flat contains A"})
        return None

    empty = closure(0, frozenset)
    if empty != frozenset():
        report.geometry = (False, {"reason": "cl(empty) not empty",
                                   "got": empty})
    else:
        for a in geom.points:
            got = closure(geom._bit[a], lambda: frozenset([a]))
            if got != frozenset([a]):
                report.geometry = (False, {"a": a,
                                           "reason": "cl(a) exceeds {a}",
                                           "got": got})
                break
    for f in geom.flats:
        m = masks[f]
        cover = {b: masks.get(closure(m | b, lambda: f | {name[b]}))
                 for b in name if not m & b}
        if not report.exchange[0]:
            continue
        for b, c in cover.items():
            if c is None:
                continue
            a = next((a for a in _bits(c & ~m) if cover[a] is not None
                      and not cover[a] & b), None)
            if a is not None:
                # a entered through b, but b does not enter through a
                report.exchange = (False, {"A": f, "a": name[a], "b": name[b]})
                break
    return report


# ---------------------------------------------------------------------------
# The closure language: (cl x a1 .. an), (= x y), boolean connectives and
# quantifiers over the universe, parsed from s-expressions.
# ---------------------------------------------------------------------------

def parse_formula(text):
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def read():
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unbalanced formula")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            items = []
            while pos < len(tokens) and tokens[pos] != ")":
                items.append(read())
            if pos >= len(tokens) or not items:
                raise ValueError("unbalanced or empty formula")
            pos += 1
            return tuple(items)
        if tok == ")":
            raise ValueError("unexpected )")
        return tok

    ast = read()
    if pos != len(tokens):
        raise ValueError("trailing tokens in formula")
    return ast


def _free_vars(ast, bound):
    if isinstance(ast, str):
        return {ast}
    head = ast[0]
    if head in ("and", "or"):
        out = set()
        for sub in ast[1:]:
            out |= _free_vars(sub, bound)
        return out
    if head == "not":
        if len(ast) != 2:
            raise ArityMismatch("not takes one argument")
        return _free_vars(ast[1], bound)
    if head in ("exists", "forall"):
        if len(ast) != 3 or not isinstance(ast[1], str):
            raise ArityMismatch("%s takes a variable and a body" % head)
        return _free_vars(ast[2], bound | {ast[1]}) - {ast[1]}
    if head == "=":
        if len(ast) != 3:
            raise ArityMismatch("= takes two arguments")
        return {a for a in ast[1:] if isinstance(a, str)}
    if head == "cl":
        if len(ast) < 2:
            raise ArityMismatch("cl takes a point and closure arguments")
        return {a for a in ast[1:] if isinstance(a, str)}
    raise ValueError("unknown connective %r" % head)


def _eval(ast, geom, env):
    if isinstance(ast, str):
        raise ValueError("bare variable is not a formula")
    head = ast[0]
    if head == "and":
        return all(_eval(s, geom, env) for s in ast[1:])
    if head == "or":
        return any(_eval(s, geom, env) for s in ast[1:])
    if head == "not":
        return not _eval(ast[1], geom, env)
    if head == "exists":
        return any(_eval(ast[2], geom, {**env, ast[1]: p}) for p in geom.points)
    if head == "forall":
        return all(_eval(ast[2], geom, {**env, ast[1]: p}) for p in geom.points)
    if head == "=":
        return _lookup(ast[1], env) == _lookup(ast[2], env)
    # "cl": _free_vars has rejected every other connective
    x = _lookup(ast[1], env)
    args = frozenset(_lookup(a, env) for a in ast[2:])
    return x in geom.cl(args)


def _lookup(term, env):
    if isinstance(term, str) and term in env:
        return env[term]
    return term


def eval_lcl(geom, formula, params=None):
    """Evaluate a formula of the closure language by finite model checking.

    Returns (free variable names, set of satisfying tuples); parameters bind
    some free variables to universe points beforehand.
    """
    ast = parse_formula(formula) if isinstance(formula, str) else formula
    env = dict(params or {})
    point_set = set(geom.points)
    for v in _point_list(list(env.values()), "the parameter values"):
        if v not in point_set:
            raise ValueError("parameter %r outside the universe" % (v,))
    free = sorted(v for v in _free_vars(ast, set(env))
                  if v not in env and v not in point_set)
    out = set()
    for combo in itertools.product(geom.points, repeat=len(free)):
        local = dict(env)
        local.update(zip(free, combo))
        if _eval(ast, geom, local):
            out.add(combo)
    return free, out


def transfer_isomorphism(lat1, lat2, node_map, geom1=None, geom2=None):
    """Push a graded order bijection of lattice fragments down to the point
    level and verify that it carries the flats onto the flats.

    node_map sends nodes of lat1 to nodes of lat2.  The geometries default
    to lattice_geometry on the recorded nodes; callers with a total join
    oracle can pass their own.  Returns the induced point bijection; raises
    NotIsomorphism with a witness otherwise, for a broken flat a point set
    A of the first geometry that is a flat on one side only.
    """
    nodes1 = list(lat1.nodes)
    nodes2 = list(lat2.nodes)
    if len(nodes1) != len(nodes2) or len(set(node_map.values())) != len(nodes1):
        raise NotIsomorphism({"reason": "not a bijection"})
    for n in nodes1:
        m = node_map[n]
        if n.rank != m.rank:
            raise NotIsomorphism({"reason": "grading broken", "node": n.label})
    for a, b in itertools.permutations(nodes1, 2):
        fa, fb = node_map[a], node_map[b]
        if (a.sources < b.sources) != (fa.sources < fb.sources):
            raise NotIsomorphism({"reason": "order broken",
                                  "pair": (a.label, b.label)})
    g1 = lattice_geometry(lat1) if geom1 is None else geom1
    g2 = lattice_geometry(lat2) if geom2 is None else geom2
    ptmap = {n: node_map[n] for n in g1.points}
    inverse = {b: a for a, b in ptmap.items()}
    if set(inverse) != set(g2.points):
        raise NotIsomorphism({"reason": "not a bijection"})
    flats1, flats2 = set(g1.flats), set(g2.flats)
    broken = [f for f in g1.flats
              if frozenset(ptmap[x] for x in f) not in flats2]
    broken += [a for a in (frozenset(inverse[y] for y in g) for g in g2.flats)
               if a not in flats1]
    if broken:
        raise NotIsomorphism({"reason": "closure broken",
                              "A": sorted(x.label for x in broken[0])})
    return ptmap


def lattice_geometry(lat):
    """The closure geometry of a lattice fragment: its points are the
    rank-one nodes, and its flats the empty set and, for every node, the
    points below it.  A set whose join the fragment does not record has no
    closure, and cl raises JoinUndefined."""
    points = [n for n in lat.nodes if n.rank == 1]
    return ClosureGeometry(points, [()] + [
        [p for p in points if p.sources <= n.sources] for n in lat.nodes])
