"""Seeded workload inputs.  Everything here is a pure function of the
workload seed; the program under test only ever sees what these build.
The h2 sweep has fixed cases and takes nothing from the seed."""

import random

from oracles import rank_mod_p

# The 20-subgroup acceptance universe at p = 7 in five variables, as in
# acceptance criterion 5 (tests/test_acceptance.py): coordinate subgroups,
# their translates, and linear pencils, several of them repeated up to
# scaling or translation so that points carry more than one source.
ACCEPTANCE_UNIVERSE = (
    [{"var": i} for i in range(5)]
    + [{"linear": {"0": 1}, "const": 1},
       {"linear": {"1": 1}, "const": 2},
       {"linear": {"2": 1}, "const": 3}]
    + [{"linear": {"0": 1, "1": 1}}, {"linear": {"0": 1, "2": 1}},
       {"linear": {"1": 1, "2": 1}}, {"linear": {"3": 1, "4": 1}},
       {"linear": {"0": 1, "3": 1}}, {"linear": {"2": 1, "4": 2}}]
    + [{"linear": {"0": 2, "1": 2}}, {"linear": {"3": 3, "4": 3}},
       {"linear": {"0": 1, "1": 1}, "const": 5},
       {"linear": {"1": 4, "2": 4}}, {"linear": {"0": 1, "4": 1}},
       {"linear": {"0": 3, "3": 3}}]
)
ROUNDTRIP_SIZE = 13
LINEAR_P, LINEAR_ELL, LINEAR_VARS, BUDGET = 7, 3, 5, 64


def linear_universe(seed):
    """The pipeline configurations: the seed picks the tower model and the
    variable permutation the roundtrip transports the universe along.  The
    search seed reaches no search call in the pipeline, so it stays 0."""
    rng = random.Random(repr(("linear-universe", seed)))
    tower_seed = rng.randrange(2 ** 31)
    perm = list(range(LINEAR_VARS))
    while perm == sorted(perm):
        rng.shuffle(perm)
    base = {"p": LINEAR_P, "ell": LINEAR_ELL, "vars": LINEAR_VARS,
            "budget": BUDGET, "workers": 1, "tower_seed": tower_seed}
    return {
        "pipeline": dict(base, universe=list(ACCEPTANCE_UNIVERSE)),
        "roundtrip": dict(base,
                          universe=list(ACCEPTANCE_UNIVERSE[:ROUNDTRIP_SIZE])),
        "permutation": perm,
    }


# -- certify-stream ----------------------------------------------------------

CERTIFY_FIELDS = ((7, 3), (7, 5), (11, 3), (11, 5), (13, 3))
CERTIFY_VARS = 4
# (kind, shifts) of every block of twenty requests, half of each kind with
# shifts on.  The fast kinds are the majority so that the median latency sits
# inside one cluster instead of on the gap between the millisecond answers
# and the ones that spend the whole budget.
CERTIFY_BLOCK = tuple(
    (kind, shifts)
    for kind, n in (("linear", 8), ("univariate", 6), ("mixed", 4),
                    ("dependent", 2))
    for shifts in (False, True) for _ in range(n // 2))
# Kinds whose tuple carries a nonzero symbol by construction, so that an
# UNKNOWN answer is a miss.
CERTIFIABLE = ("linear", "univariate", "mixed")


class Request:
    """One certificate_search call: the field it lives in, its entries and
    whether construction says they carry a nonzero symbol."""

    __slots__ = ("index", "kind", "p", "ell", "entries", "shifts",
                 "certifiable")

    def __init__(self, index, kind, p, ell, entries, shifts):
        self.index = index
        self.kind = kind
        self.p = p
        self.ell = ell
        self.entries = entries
        self.shifts = shifts
        self.certifiable = kind in CERTIFIABLE

    def key(self):
        return (self.index, self.kind, self.p, self.ell, self.shifts,
                tuple(e.key() for e in self.entries))


def _non_square(p, rng):
    squares = {(x * x) % p for x in range(1, p)}
    return rng.choice([a for a in range(1, p) if a not in squares])


def _independent_forms(rng, p, r, min_support):
    """r prime-field vectors in CERTIFY_VARS coordinates, linearly
    independent, each with at least min_support nonzero coordinates."""
    while True:
        rows = []
        for _ in range(r):
            support = rng.sample(range(CERTIFY_VARS),
                                 rng.randint(min_support, min_support + 1))
            rows.append(tuple(rng.randrange(1, p) if i in support else 0
                              for i in range(CERTIFY_VARS)))
        if rank_mod_p(rows, p) == r:
            return rows


class _Entries:
    def __init__(self, field):
        self.field = field

    def form(self, row, const=0):
        f = self.field
        out = f.const(const)
        for i, c in enumerate(row):
            if c:
                out = out + f.const(c) * f.var(i)
        return out

    def quadratic(self, u, a, n):
        """(u + a)^2 - n with n a non-square: two simple zeros at level 2."""
        f = self.field
        v = u + f.const(a)
        return v * v - f.const(n)


# (p, l, tuple length) shapes; every class of CERTIFY_BLOCK cycles through
# all of them, so the latency mix of a run hardly depends on the seed.
CERTIFY_SHAPES = tuple((p, ell, r) for p, ell in CERTIFY_FIELDS
                       for r in (2, 3))


def certify_stream(seed, contexts, count, start=0):
    """Requests start .. start+count-1 of the seeded stream.  Each block
    takes the (kind, shifts) pairs of CERTIFY_BLOCK in a seeded order, so
    any prefix of whole blocks has the same mix.  The j-th request of a
    (kind, shifts) class takes its shape from a seeded permutation of
    CERTIFY_SHAPES for round j // len(CERTIFY_SHAPES); the entries are
    drawn per request."""
    per_block = {c: CERTIFY_BLOCK.count(c) for c in CERTIFY_BLOCK}
    out = []
    for index in range(start, start + count):
        block, slot = divmod(index, len(CERTIFY_BLOCK))
        order = list(CERTIFY_BLOCK)
        random.Random(repr(("certify-block", seed, block))).shuffle(order)
        cls = order[slot]
        j = block * per_block[cls] + order[:slot].count(cls)
        rnd, pos = divmod(j, len(CERTIFY_SHAPES))
        shapes = list(CERTIFY_SHAPES)
        random.Random(repr(("certify-shapes", seed, cls, rnd))).shuffle(shapes)
        rng = random.Random(repr(("certify", seed, index)))
        out.append(_request(rng, index, cls, shapes[pos], contexts))
    return out


def _request(rng, index, cls, shape, contexts):
    kind, shifts = cls
    p, ell, r = shape
    b = _Entries(contexts[(p, ell)].field)
    n = _non_square(p, rng)
    if kind == "linear":
        rows = _independent_forms(rng, p, r, 1)
        entries = [b.form(row, rng.randrange(p)) for row in rows]
    elif kind in ("univariate", "mixed"):
        rows = (_independent_forms(rng, p, r, 2) if kind == "mixed" else
                [tuple(int(i == j) for j in range(CERTIFY_VARS))
                 for i in rng.sample(range(CERTIFY_VARS), r)])
        entries = [b.quadratic(b.form(row), rng.randrange(p), n)
                   for row in rows]
    else:
        # two entries from the one-variable subfield of a single linear
        # form, and for length three an independent linear form
        rows = _independent_forms(rng, p, r - 1, rng.choice((1, 2)))
        u = b.form(rows[0])
        entries = [u + b.field.const(rng.randrange(1, p)),
                   b.quadratic(u, rng.randrange(p), n)]
        entries += [b.form(row, rng.randrange(p)) for row in rows[1:]]
        rng.shuffle(entries)
    return Request(index, kind, p, ell, entries, shifts)


# -- h2-sweep ----------------------------------------------------------------

# (n, l) cases, in a fixed order: the sweep has nothing to draw, and the
# order moves the peak memory of the process.  (1, 131) lies inside the
# documented int8 overflow of the cocycle solver and stays in the sweep so
# that the defect stays visible.
H2_CASES = ((3, 5), (4, 3), (1, 131))
