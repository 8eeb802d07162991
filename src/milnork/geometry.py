"""Closure geometries out of graded lattices, axiom checking, a small
first-order evaluator over the closure language, and isomorphism transfer.

Everything here is finite model theory: universes are finite point sets,
closures are memoized set maps, and the quantifiers range over the universe.
"""

import itertools
import json
import random

from .jsonio import field


class JoinUndefined(RuntimeError):
    """The lattice fragment lacks a join required by the construction."""


class ArityMismatch(ValueError):
    pass


class NotIsomorphism(ValueError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__("not an isomorphism: %r" % (witness,))


class GradedLatticeView:
    """What the closure construction needs from a graded lattice fragment:
    the rank-one points, a join oracle on point subsets, and the order test
    between points and joins."""

    def __init__(self, points, join, point_leq):
        self.points = tuple(points)
        self.join = join
        self.point_leq = point_leq


class ClosureGeometry:
    """A finite set with a memoized closure operation."""

    def __init__(self, points, cl):
        self.points = tuple(points)
        self._cl = cl
        self._memo = {}

    def cl(self, subset):
        key = frozenset(subset)
        if not key <= set(self.points):
            raise ValueError("closure argument outside the universe")
        got = self._memo.get(key)
        if got is None:
            got = frozenset(self._cl(key))
            self._memo[key] = got
        return got

    def __len__(self):
        return len(self.points)

    @classmethod
    def from_table(cls, points, table):
        data = {frozenset(k): frozenset(v) for k, v in table}

        def lookup(s):
            try:
                return data[frozenset(s)]
            except KeyError:
                raise JoinUndefined("closure table has no entry for %r" % (sorted(s),))

        return cls(points, lookup)

    def to_json(self, max_size=None):
        pts = list(self.points)
        if max_size is None:
            max_size = len(pts)
        table = []
        for r in range(max_size + 1):
            for sub in itertools.combinations(pts, r):
                table.append([sorted(sub), sorted(self.cl(sub))])
        return {"points": sorted(pts), "closure": table}

    @classmethod
    def from_closed_sets(cls, points, closed_sets):
        """Closure through the flats: cl(S) is the meet of the closed sets
        containing S.  The full universe is always closed."""
        flats = [frozenset(c) for c in closed_sets]
        universe = frozenset(points)

        def lookup(s):
            out = universe
            for f in flats:
                if s <= f and f < out:
                    out = f
            return out

        return cls(points, lookup)

    @classmethod
    def from_json(cls, data):
        what = "a geometry"
        points = field(data, "points", what, list)
        if "closure" in data:
            return cls.from_table(
                points, [(tuple(k), tuple(v))
                         for k, v in field(data, "closure", what, list)])
        return cls.from_closed_sets(points,
                                    field(data, "closed_sets", what, list))


def c_construction(view):
    """The set-with-closure attached to a graded lattice: the closure of a
    point set is everything below its join.  Idempotence and monotonicity
    hold by construction and are re-verified on small samples."""

    def cl(subset):
        if not subset:
            top = None
        else:
            top = view.join(frozenset(subset))
        out = set()
        for a in view.points:
            if a in subset:
                out.add(a)
            elif top is not None and view.point_leq(a, top):
                out.add(a)
        return out

    geom = ClosureGeometry(view.points, cl)
    _reverify_construction(geom)
    return geom


def _reverify_construction(geom, samples=12, seed=7):
    """Spot-check idempotence and monotonicity; subsets whose join the
    fragment does not carry are skipped and fail only when queried."""
    rng = random.Random(seed)
    pts = list(geom.points)
    subsets = [frozenset()]
    for _ in range(samples):
        k = rng.randrange(0, min(3, len(pts)) + 1)
        subsets.append(frozenset(rng.sample(pts, k)))
    usable = []
    for s in subsets:
        try:
            c = geom.cl(s)
        except JoinUndefined:
            continue
        usable.append(s)
        if not (s <= c and geom.cl(c) == c):
            raise AssertionError("construction lost idempotence on %r" % sorted(s))
    for s, t in itertools.combinations(usable, 2):
        if s <= t and not geom.cl(s) <= geom.cl(t):
            raise AssertionError("construction lost monotonicity")


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
            return {"pass": flag, "witness": _enc_witness(witness)}

        return {
            "closure": enc(self.closure),
            "geometry": enc(self.geometry),
            "exchange": enc(self.exchange),
            "finite_character": enc(self.finite_character),
        }

    def __repr__(self):
        return "AxiomReport(%s)" % self.to_json()


def _enc_witness(w):
    if w is None or isinstance(w, str):
        return w
    return json.loads(json.dumps(w, default=lambda o: sorted(o) if isinstance(o, (set, frozenset)) else str(o)))


def check_axioms(geom, exhaustive_limit=12, samples=400, seed=0):
    """Verify the closure, geometry and exchange axioms, exhaustively when
    the universe has at most exhaustive_limit points and on sampled subsets
    otherwise.  Finite character is vacuous here and recorded as such."""
    report = AxiomReport()
    pts = list(geom.points)
    if len(pts) <= exhaustive_limit:
        subsets = [frozenset(c) for r in range(len(pts) + 1)
                   for c in itertools.combinations(pts, r)]
    else:
        rng = random.Random(seed)
        subsets = [frozenset()]
        for _ in range(samples):
            k = rng.randrange(0, exhaustive_limit + 1)
            subsets.append(frozenset(rng.sample(pts, k)))
    for s in subsets:
        c = geom.cl(s)
        if not s <= c:
            report.closure = (False, {"A": s, "reason": "A not in cl(A)"})
            break
        if geom.cl(c) != c:
            report.closure = (False, {"A": s, "reason": "cl not idempotent"})
            break
        for a in pts:
            cc = geom.cl(s | {a})
            if not c <= cc:
                report.closure = (False, {"A": s, "b": a,
                                          "reason": "cl not monotone"})
                break
        else:
            continue
        break
    if geom.cl(frozenset()) != frozenset():
        report.geometry = (False, {"reason": "cl(empty) not empty",
                                   "got": geom.cl(frozenset())})
    else:
        for a in pts:
            if geom.cl(frozenset([a])) != frozenset([a]):
                report.geometry = (False, {"a": a,
                                           "reason": "cl(a) exceeds {a}",
                                           "got": geom.cl(frozenset([a]))})
                break
    done = False
    for s in subsets:
        base = geom.cl(s)
        for b in pts:
            withb = geom.cl(s | {b})
            gained = withb - base
            for a in gained:
                if b not in geom.cl(s | {a}):
                    report.exchange = (False, {"A": s, "a": a, "b": b})
                    done = True
                    break
            if done:
                break
        if done:
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
            while tokens[pos] != ")":
                items.append(read())
                if pos >= len(tokens):
                    raise ValueError("unbalanced formula")
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
    if head == "cl":
        x = _lookup(ast[1], env)
        args = frozenset(_lookup(a, env) for a in ast[2:])
        return x in geom.cl(args)
    raise ValueError("unknown connective %r" % head)


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
    for v in env.values():
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


def transfer_isomorphism(lat1, lat2, node_map, geom1=None, geom2=None,
                         exhaustive_limit=10):
    """Push a graded order bijection of lattice fragments down to the point
    level and verify it commutes with the closures.

    node_map sends nodes of lat1 to nodes of lat2.  The geometries default
    to the closure construction on the recorded nodes; callers with a total
    join oracle can pass their own.  Returns the induced point bijection;
    raises NotIsomorphism with a witness otherwise.
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
    pts = list(g1.points)
    if len(pts) <= exhaustive_limit:
        subsets = [frozenset(c) for r in range(len(pts) + 1)
                   for c in itertools.combinations(pts, r)]
    else:
        rng = random.Random(11)
        subsets = [frozenset(rng.sample(pts, rng.randrange(exhaustive_limit)))
                   for _ in range(200)]
    for s in subsets:
        image = frozenset(ptmap[x] for x in s)
        lhs = frozenset(ptmap[x] for x in g1.cl(s))
        rhs = g2.cl(image)
        if lhs != rhs:
            raise NotIsomorphism({"reason": "closure broken",
                                  "A": sorted(x.label for x in s)})
    return ptmap


def lattice_geometry(lat):
    """The closure geometry of a lattice fragment, with joins looked up among
    the recorded nodes; JoinUndefined reports a missing one."""
    points = [n for n in lat.nodes if n.rank == 1]

    def join(subset):
        tot = frozenset().union(*(n.sources for n in subset))
        cands = [n for n in lat.nodes if tot <= n.sources]
        if not cands:
            raise JoinUndefined("no node above %r" % sorted(tot))
        minimal = [n for n in cands
                   if not any(m.sources < n.sources for m in cands)]
        if len(minimal) != 1:
            raise JoinUndefined("join of %r is ambiguous in the fragment"
                                % sorted(tot))
        return minimal[0]

    def point_leq(pt, node):
        return pt.sources <= node.sources

    return c_construction(GradedLatticeView(points, join, point_leq))
