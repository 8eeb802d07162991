"""Answer checks built from how the inputs were made, not from milnork.

The linear-universe truth is prime-field linear algebra on the declared
directions, the h2 truth is the closed formula C(n, 2) + n, and the certify
truth is how each request was built.  Certificates are checked by replaying
their chain, which is what a consumer of a certificate does.

Each check returns a list of problems; an empty list means the answer is
right.  Misses (UNKNOWN where a certificate exists) are counted, not
reported as problems: the engine is allowed to give up, never to be wrong.
"""

def _reduce(rows, p):
    """Row-reduced basis of the span of rows over F_p, as (pivot, row)."""
    basis = []
    for row in rows:
        row = [x % p for x in row]
        for piv, b in basis:
            if row[piv]:
                f = row[piv]
                row = [(x - f * y) % p for x, y in zip(row, b)]
        piv = next((i for i, x in enumerate(row) if x), None)
        if piv is None:
            continue
        inv = pow(row[piv], -1, p)
        row = [(x * inv) % p for x in row]
        basis = [(q, [(x - b[piv] * y) % p for x, y in zip(b, row)])
                 for q, b in basis]
        basis.append((piv, row))
    return basis


def rank_mod_p(rows, p):
    return len(_reduce(rows, p))


def in_span(basis, row, p):
    row = [x % p for x in row]
    for piv, b in basis:
        if row[piv]:
            f = row[piv]
            row = [(x - f * y) % p for x, y in zip(row, b)]
    return not any(row)


def affine_form(decl, nvars):
    """(coefficient vector, constant) of a declared linear generator."""
    vec = [0] * nvars
    if "var" in decl:
        vec[decl["var"]] = 1
        return vec, 0
    for v, c in decl["linear"].items():
        vec[int(v)] = c
    return vec, decl.get("const", 0)


def direction(decl, p, nvars):
    """Projective class of the linear part, first nonzero entry one."""
    vec, _ = affine_form(decl, nvars)
    vec = [c % p for c in vec]
    lead = next(i for i, c in enumerate(vec) if c)
    inv = pow(vec[lead], -1, p)
    return tuple((c * inv) % p for c in vec)


class LinearTruth:
    """The matroid of the declared directions over F_p: its points (the
    declarations grouped by direction) and all its flats."""

    def __init__(self, decls, p, nvars):
        self.p = p
        self.dirs = [direction(d, p, nvars) for d in decls]
        self.points = sorted(set(self.dirs))
        self.sources = {d: frozenset(i for i, x in enumerate(self.dirs)
                                     if x == d) for d in self.points}
        self.flats = self._flats()

    def closure(self, dirs):
        basis = _reduce(list(dirs), self.p)
        return frozenset(d for d in self.points if in_span(basis, d, self.p))

    def rank(self, dirs):
        return rank_mod_p(list(dirs), self.p)

    def _flats(self):
        seen = {frozenset()}
        todo = [frozenset()]
        while todo:
            f = todo.pop()
            for d in self.points:
                if d not in f:
                    g = self.closure(f | {d})
                    if g not in seen:
                        seen.add(g)
                        todo.append(g)
        return seen

    def decl_flat(self, flat):
        """The declaration indices whose direction lies in a point flat."""
        return frozenset().union(*(self.sources[d] for d in flat))


def check_pipeline(decls, artifacts, p, nvars, replay):
    """Check a run_pipeline artifact set against the linear truth.

    replay(cert_json) -> bool replays one serialized certificate.  Returns
    (problems, certifiable_pairs, missed_pairs)."""
    truth = LinearTruth(decls, p, nvars)
    problems = []

    # every recovered point is one direction class
    geo = artifacts["geometry"]
    by_id = {pt["id"]: frozenset(pt["sources"]) for pt in geo["points"]}
    if set(by_id.values()) != set(truth.sources.values()):
        problems.append("recovered points differ from the direction classes")
        return problems, 0, 0
    dir_of = {src: d for d, src in truth.sources.items()}
    # every flat is a flat of the linear matroid, and every flat is there
    got = set()
    for closed in geo["closed_sets"]:
        got.add(frozenset(dir_of[by_id[i]] for i in closed))
    if got != truth.flats:
        problems.append("geometry flats differ: %d wrong, %d missing"
                        % (len(got - truth.flats), len(truth.flats - got)))

    # the lattice fragment: rank-r nodes are exactly the rank-r flats of the
    # declarations (rank one: the points), each with its true rank
    nodes = artifacts["lattice_fragment"]["nodes"]
    for r in (1, 2, 3):
        want = {truth.decl_flat(f) for f in truth.flats
                if truth.rank(f) == r}
        have = {frozenset(n["sources"]) for n in nodes if n["rank"] == r}
        if have != want:
            problems.append("rank-%d lattice nodes differ" % r)

    report = artifacts["axiom_report"]
    if not all(v["pass"] for v in report.values()):
        problems.append("axiom report fails on a linear geometry")

    # the degree-two fragment: two generators of one direction span a
    # one-variable subfield, so their symbol vanishes, and their classes are
    # equal exactly when the affine forms are proportional; different
    # directions give a nonzero symbol, so the pair is certified or a miss
    certifiable = missed = 0
    for entry in artifacts["kring_fragment"]["pairs"]:
        a, b = entry["pair"]
        rel = entry["relation"]
        if truth.dirs[a] == truth.dirs[b]:
            va, ca = affine_form(decls[a], nvars)
            vb, cb = affine_form(decls[b], nvars)
            allowed = {"vanishes-by-dimension"}
            if rank_mod_p([va + [ca], vb + [cb]], p) == 1:
                allowed.add("equal-classes")
            if rel not in allowed:
                problems.append("pair %d,%d: %s on one direction"
                                % (a, b, rel))
            continue
        certifiable += 1
        if rel == "unknown":
            missed += 1
        elif rel != "independent":
            problems.append("pair %d,%d: %s on independent directions"
                            % (a, b, rel))
        elif not _replays(replay, entry["certificate"]):
            problems.append("pair %d,%d: certificate does not replay"
                            % (a, b))
    return problems, certifiable, missed


def _replays(replay, cert):
    try:
        return replay(cert)
    except (KeyError, ValueError):  # malformed, e.g. a value of 0 mod l
        return False


def check_roundtrip(decls, result, p, nvars):
    truth = LinearTruth(decls, p, nvars)
    problems = []
    if result.get("lattices_isomorphic") is not True:
        problems.append("roundtrip lattices not isomorphic")
    if result.get("artifacts_equal") is not True:
        problems.append("roundtrip geometries differ")
    if result.get("points_transferred") != len(truth.points):
        problems.append("roundtrip moved %r points, expected %d"
                        % (result.get("points_transferred"),
                           len(truth.points)))
    return problems


def check_certificate(request, cert, unknown):
    """Returns (problems, missed) for one certificate_search answer."""
    if cert is unknown:
        return [], request.certifiable
    if not request.certifiable:
        # both entries of the pair live in a one-variable subfield over an
        # algebraically closed field, where every degree-two symbol dies
        return ["request %d: certificate for a vanishing symbol"
                % request.index], False
    problems = []
    if cert.ell != request.ell or len(cert.statement) != len(request.entries):
        problems.append("request %d: certificate of the wrong shape"
                        % request.index)
    elif cert.value % cert.ell == 0 or not cert.replay():
        problems.append("request %d: certificate does not replay"
                        % request.index)
    return problems, False


def h2_expected(n):
    """dim H^2((Z/l)^n, Z/l) for odd l: n(n-1)/2 + n."""
    return n * (n - 1) // 2 + n


def check_h2(n, ell, dim):
    if dim != h2_expected(n):
        return ["h2(%d, %d) = %r, expected %d" % (n, ell, dim, h2_expected(n))]
    return []
