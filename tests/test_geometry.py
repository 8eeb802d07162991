"""Geometries of flats, axiom checking, the closure language, transfer."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milnork import linalg
from milnork.geometry import (
    ArityMismatch,
    ClosureGeometry,
    JoinUndefined,
    NotIsomorphism,
    check_axioms,
    encode_witness,
    eval_lcl,
    flats_by_covers,
    lattice_geometry,
    parse_formula,
    transfer_isomorphism,
)
from milnork.lattice import LatticeFragment, SubgroupFragment


def subsets(points):
    return [frozenset(c) for r in range(len(points) + 1)
            for c in itertools.combinations(points, r)]


def closure_table(geom):
    """Every flat F and every F | {x}, x outside F, with its closure, as a
    JSON closure table."""
    keys = set(geom.flats) | {f | {x} for f in geom.flats
                              for x in geom.points if x not in f}
    return sorted([sorted(k), sorted(geom.cl(k))] for k in keys)


def boolean_geometry(atoms=("a", "b", "c")):
    # the closure construction on a Boolean lattice: every set is a flat
    return ClosureGeometry(atoms, subsets(atoms))


def test_c_construction_boolean_lattice():
    g = boolean_geometry()
    assert g.cl({"a", "b"}) == frozenset({"a", "b"})
    assert g.cl(set()) == frozenset()
    assert g.cl({"a"}) == frozenset({"a"})
    assert check_axioms(g).all_pass()


def test_c_construction_single_point():
    g = boolean_geometry(("a",))
    assert g.cl({"a"}) == frozenset({"a"})
    assert g.cl(set()) == frozenset()


def test_c_construction_matroid_closure():
    # rank-two matroid on four directions through the plane: the closure of
    # two independent points is everything
    pts = ("e1", "e2", "d12", "d13")
    g = ClosureGeometry(pts, [(), *[(p,) for p in pts], pts])
    assert g.cl({"e1", "e2"}) == frozenset(pts)
    assert g.cl({"e1"}) == frozenset({"e1"})
    assert check_axioms(g).all_pass()


def test_check_axioms_trapdoor_exchange_failure():
    pts = ("a", "b", "c", "d")

    def stable(s):
        out = set(s)
        while True:
            prev = set(out)
            if "a" in out and "b" in out:
                out.add("c")
            if "c" in out:
                out.add("d")
            if out == prev:
                return out

    bad = ClosureGeometry.from_json({"points": list(pts), "closure": [
        [sorted(s), sorted(stable(s))] for s in subsets(pts)]})
    rep = check_axioms(bad)
    assert rep.closure == (True, None)
    assert not rep.exchange[0]
    A, a, b = rep.exchange[1]["A"], rep.exchange[1]["a"], rep.exchange[1]["b"]
    # replay the witness: a entered through b but b does not enter through a
    assert a in bad.cl(set(A) | {b}) - bad.cl(A)
    assert b not in bad.cl(set(A) | {a})


def test_flats_by_covers_exchange_failure():
    # a closure operator that breaks exchange at {b}: c enters through a,
    # a does not enter through c.  Skipping c, which lies in cl(ab), would
    # never find the flat {b, c}
    def closure(s):
        s = frozenset(s)
        return s if len(s) < 2 or s == {"b", "c"} else frozenset("abc")

    rep = check_axioms(flats_by_covers(("a", "b", "c"), closure(()),
                                       lambda f, x: closure(f | {x})))
    assert rep.closure == (True, None)
    assert not rep.exchange[0]
    A, a, b = rep.exchange[1]["A"], rep.exchange[1]["a"], rep.exchange[1]["b"]
    assert A == {"b"}
    assert a in closure(set(A) | {b}) - closure(A)
    assert b not in closure(set(A) | {a})


def test_flats_by_covers_checks_each_answer():
    # cl(ab) is the full set, but the flat cl(ac) = abc holds {a, b}
    def closure(s):
        s = frozenset(s)
        if len(s) < 2 or s <= set("abc") and s != {"a", "b"}:
            return s if len(s) < 2 else frozenset("abc")
        return frozenset("abcd")

    rep = check_axioms(flats_by_covers(("a", "b", "c", "d"), closure(()),
                                       lambda f, x: closure(f | {x})))
    assert rep.closure == (False, {"A": frozenset("ab"), "B": frozenset("abc"),
                                   "reason": "cl not monotone"})
    assert closure(rep.closure[1]["B"]) == rep.closure[1]["B"]


def test_check_axioms_identity_closure():
    pts = ("a", "b", "c", "d")
    g = ClosureGeometry(pts, subsets(pts))
    rep = check_axioms(g)
    assert rep.all_pass()
    assert rep.finite_character == (True, "vacuous on a finite universe")


def test_geometry_axiom_failure_reported():
    pts = ("a", "b")
    g = ClosureGeometry(pts, [(), pts])
    rep = check_axioms(g)
    assert not rep.geometry[0]


def test_closure_needs_a_least_flat():
    # {a, b} lies in two minimal flats, and no flat holds {c, d}
    pts = ("a", "b", "c", "d")
    g = ClosureGeometry(pts, [(), *[(p,) for p in pts], ("a", "b", "c"),
                             ("a", "b", "d")])
    with pytest.raises(JoinUndefined):
        g.cl({"a", "b"})
    with pytest.raises(JoinUndefined):
        g.cl({"c", "d"})
    rep = check_axioms(g)
    assert not rep.closure[0]
    assert rep.closure[1]["reason"] == "no least flat contains A"
    with pytest.raises(JoinUndefined):
        g.cl(rep.closure[1]["A"])


def test_eval_lcl_closure_relation():
    g = boolean_geometry()
    free, out = eval_lcl(g, "(cl x a b)")
    assert free == ["x"]
    assert out == {("a",), ("b",)}
    free, out = eval_lcl(g, "(= x x)")
    assert out == {(p,) for p in g.points}
    free, out = eval_lcl(g, "(exists y (and (cl x y) (not (= x y))))")
    assert out == set()


def test_eval_lcl_with_params():
    g = boolean_geometry()
    free, out = eval_lcl(g, "(cl x y)", params={"y": "a"})
    assert free == ["x"]
    assert out == {("a",)}


def test_eval_lcl_arity_errors():
    g = boolean_geometry()
    with pytest.raises(ArityMismatch):
        eval_lcl(g, "(= x)")
    with pytest.raises(ArityMismatch):
        eval_lcl(g, "(cl)")
    with pytest.raises(ArityMismatch):
        eval_lcl(g, "(not x y)")


def test_parse_formula_rejects_garbage():
    with pytest.raises(ValueError):
        parse_formula("(and (cl x a)")
    with pytest.raises(ValueError):
        parse_formula("(cl x a)) extra")


def _lattice_from_sets(sets):
    nodes = []
    for label, sources, rank in sets:
        nodes.append(SubgroupFragment(label, (), rank,
                                      sources=frozenset(sources)))
    return LatticeFragment(nodes)


def test_lattice_geometry_and_join_errors():
    lat = _lattice_from_sets([
        ("p0", [0], 1), ("p1", [1], 1), ("p2", [2], 1),
        ("q01", [0, 1], 2), ("q02", [0, 2], 2), ("q12", [1, 2], 2),
        ("top", [0, 1, 2], 3),
    ])
    g = lattice_geometry(lat)
    names = {n.label: n for n in g.points}
    assert g.cl({names["p0"], names["p1"]}) == frozenset({names["p0"], names["p1"]})
    assert check_axioms(g).all_pass()
    # removing the top breaks three-point joins
    lat2 = _lattice_from_sets([
        ("p0", [0], 1), ("p1", [1], 1), ("p2", [2], 1),
        ("q01", [0, 1], 2),
    ])
    g2 = lattice_geometry(lat2)
    names2 = {n.label: n for n in g2.points}
    with pytest.raises(JoinUndefined) as exc:
        g2.cl({names2["p0"], names2["p2"]})
    # the message names the points by their fragments' labels and ranks
    assert str(exc.value).startswith("no flat contains frozenset({")
    for label in ("p0", "p2"):
        assert "SubgroupFragment(%s, rank=1)" % label in str(exc.value)
    # a witness value that is no JSON value is encoded as that text
    assert encode_witness({"point": names2["p0"]}) == {
        "point": "SubgroupFragment(p0, rank=1)"}


def test_transfer_isomorphism_identity_and_swap():
    spec = [
        ("p0", [0], 1), ("p1", [1], 1), ("p2", [2], 1),
        ("q01", [0, 1], 2), ("q02", [0, 2], 2), ("q12", [1, 2], 2),
        ("top", [0, 1, 2], 3),
    ]
    lat1 = _lattice_from_sets(spec)
    lat2 = _lattice_from_sets(spec)
    ident = {a: b for a, b in zip(lat1.nodes, lat2.nodes)}
    ptmap = transfer_isomorphism(lat1, lat2, ident)
    assert all(a.label == b.label for a, b in ptmap.items())
    # swapping the roles of sources 0 and 1 is still an isomorphism
    swapped_spec = []
    swap = {0: 1, 1: 0, 2: 2}
    for label, sources, rank in spec:
        swapped_spec.append((label, [swap[s] for s in sources], rank))
    lat3 = _lattice_from_sets(swapped_spec)
    by_sources = {n.sources: n for n in lat3.nodes}
    node_map = {n: by_sources[frozenset(swap[s] for s in n.sources)]
                for n in lat1.nodes}
    ptmap = transfer_isomorphism(lat1, lat3, node_map)
    for a, b in ptmap.items():
        assert b.sources == frozenset(swap[s] for s in a.sources)


def test_transfer_composition_law():
    spec = [
        ("p0", [0], 1), ("p1", [1], 1),
        ("q", [0, 1], 2),
    ]
    lat = _lattice_from_sets(spec)
    by_sources = {n.sources: n for n in lat.nodes}
    swap = {0: 1, 1: 0}

    def swap_map(l1):
        return {n: by_sources[frozenset(swap[s] for s in n.sources)]
                for n in l1.nodes}

    f = swap_map(lat)
    pt_f = transfer_isomorphism(lat, lat, f)
    # composing the swap with itself is the identity on points
    comp = {n: f[f[n]] for n in lat.nodes}
    pt_comp = transfer_isomorphism(lat, lat, comp)
    for n, image in pt_comp.items():
        assert image is n
    twice = {n: pt_f[pt_f[n]] for n in pt_f}
    assert twice == {n: image for n, image in pt_comp.items()}


def test_transfer_rejects_broken_containment():
    lat1 = _lattice_from_sets([
        ("p0", [0], 1), ("p1", [1], 1), ("q", [0, 1], 2), ("r", [2], 1),
        ("s", [2, 3], 2),
    ])
    lat2 = _lattice_from_sets([
        ("p0", [0], 1), ("p1", [1], 1), ("q", [0, 1], 2), ("r", [2], 1),
        ("s", [2, 3], 2),
    ])
    # exchange the two rank-2 nodes: p0 < q fails to map to a containment
    n1 = {n.label: n for n in lat1.nodes}
    n2 = {n.label: n for n in lat2.nodes}
    bad = {n1["p0"]: n2["p0"], n1["p1"]: n2["p1"], n1["q"]: n2["s"],
           n1["r"]: n2["r"], n1["s"]: n2["q"]}
    with pytest.raises(NotIsomorphism):
        transfer_isomorphism(lat1, lat2, bad)


def test_transfer_rejects_a_map_that_is_no_graded_bijection():
    spec = [("p0", [0], 1), ("p1", [1], 1), ("q", [0, 1], 2)]
    lat1, lat2 = _lattice_from_sets(spec), _lattice_from_sets(spec)
    n1 = {n.label: n for n in lat1.nodes}
    n2 = {n.label: n for n in lat2.nodes}
    ident = {n1[k]: n2[k] for k in n1}
    cases = [
        # lattices of different sizes, and two nodes sent to one
        (lat1, _lattice_from_sets(spec[:2]), ident, None, "not a bijection"),
        (lat1, lat2, {n1["p0"]: n2["p0"], n1["p1"]: n2["p0"],
                      n1["q"]: n2["q"]}, None, "not a bijection"),
        # a point sent to the line, and the line to a point
        (lat1, lat2, {n1["p0"]: n2["q"], n1["p1"]: n2["p1"],
                      n1["q"]: n2["p0"]}, None, "grading broken"),
        # a second geometry whose points are not the images of the first's
        (lat1, lat2, ident,
         ClosureGeometry([n2["p0"]], [frozenset(), frozenset([n2["p0"]])]),
         "not a bijection"),
    ]
    for a, b, node_map, geom2, reason in cases:
        with pytest.raises(NotIsomorphism) as exc:
            transfer_isomorphism(a, b, node_map, geom2=geom2)
        assert exc.value.witness["reason"] == reason


def test_geometry_json_roundtrip():
    g = boolean_geometry(("a", "b"))
    g2 = ClosureGeometry.from_json({"points": list(g.points),
                                    "closure": closure_table(g)})
    for r in range(3):
        for sub in itertools.combinations(g.points, r):
            assert g.cl(sub) == g2.cl(sub)
    assert g2.table_witness() is None


def test_transfer_preserves_formula_sets():
    # 50 random closure-language formulas of depth at most three evaluate
    # compatibly across a transferred isomorphism
    import random as _random

    spec = [
        ("p0", [0], 1), ("p1", [1], 1), ("p2", [2], 1),
        ("q01", [0, 1], 2), ("q02", [0, 2], 2), ("q12", [1, 2], 2),
        ("top", [0, 1, 2], 3),
    ]
    lat1 = _lattice_from_sets(spec)
    swap = {0: 1, 1: 0, 2: 2}
    lat2 = _lattice_from_sets([(l, [swap[s] for s in src], r)
                               for l, src, r in spec])
    by_sources = {n.sources: n for n in lat2.nodes}
    node_map = {n: by_sources[frozenset(swap[s] for s in n.sources)]
                for n in lat1.nodes}
    ptmap = transfer_isomorphism(lat1, lat2, node_map)
    g1 = lattice_geometry(lat1)
    g2 = lattice_geometry(lat2)
    names1 = sorted(n.label for n in g1.points)
    rng = _random.Random(50)

    def rand_formula(depth, free):
        if depth == 0:
            kind = rng.randrange(3)
            if kind == 0:
                return "(= %s %s)" % (rng.choice(free), rng.choice(free))
            args = rng.sample(free, rng.randrange(1, min(3, len(free)) + 1))
            return "(cl %s %s)" % (rng.choice(free), " ".join(args))
        kind = rng.randrange(4)
        if kind == 0:
            return "(not %s)" % rand_formula(depth - 1, free)
        if kind == 1:
            return "(and %s %s)" % (rand_formula(depth - 1, free),
                                    rand_formula(depth - 1, free))
        if kind == 2:
            return "(or %s %s)" % (rand_formula(depth - 1, free),
                                   rand_formula(depth - 1, free))
        v = "q%d" % depth
        return "(exists %s %s)" % (v, rand_formula(depth - 1, free + [v]))

    by_label1 = {n.label: n for n in g1.points}
    for _ in range(50):
        formula = rand_formula(rng.randrange(1, 4), ["x", "y"])
        free1, rows1 = eval_lcl(g1, formula)
        free2, rows2 = eval_lcl(g2, formula)
        assert free1 == free2
        mapped = {tuple(ptmap[by_label1[p.label]] for p in row)
                  for row in rows1}
        assert mapped == rows2


# ---------------------------------------------------------------------------
# Vector configurations past the old exhaustive limit of 12 points.
# ---------------------------------------------------------------------------

def _projective_points(p, d):
    """The nonzero vectors of F_p^d whose first nonzero entry is 1."""
    return [v for v in itertools.product(range(p), repeat=d)
            if any(v) and next(x for x in v if x) == 1]


@st.composite
def vector_configurations(draw):
    # the fields and dimensions with at least 13 projective points
    p, d = draw(st.sampled_from([(2, 4), (3, 3), (3, 4)]))
    pool = _projective_points(p, d)
    k = draw(st.integers(13, min(16, len(pool))))
    return p, draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k,
                            unique=True))


def _spanned_sets(p, points):
    """The point sets spanned by subsets of at most d points, each span
    listed as every linear combination of the subset: no rank is computed."""
    d = len(points[0])
    out = set()
    for r in range(d + 1):
        for sub in itertools.combinations(points, r):
            span = {tuple(sum(c * v[i] for c, v in zip(coeffs, sub)) % p
                          for i in range(d))
                    for coeffs in itertools.product(range(p), repeat=r)}
            out.add(frozenset(v for v in points if v in span))
    return out


def _replays(table, witness):
    value = {frozenset(k): frozenset(v) for k, v in table}
    A = frozenset(witness["A"])
    clA = value[A]
    if witness["reason"] == "A not in cl(A)":
        return not A <= clA
    if witness["reason"] == "cl not idempotent":
        return value.get(clA) != clA
    B = frozenset(witness["B"])
    return witness["reason"] == "cl not monotone" and (
        A <= B and value.get(B) == B and not clA <= B)


@settings(max_examples=8, deadline=None)
@given(vector_configurations(), st.data())
def test_vector_geometry_flats_and_checks(config, data):
    p, points = config
    memo = {}

    def closure(subset):
        if subset not in memo:
            rows = tuple(sorted(subset))
            r = linalg.rank(rows, p)
            memo[subset] = frozenset(
                v for v in points if linalg.rank(rows + (v,), p) == r)
        return memo[subset]

    geom = flats_by_covers(points, closure(frozenset()),
                           lambda f, x: closure(f | {x}))
    assert set(geom.flats) == _spanned_sets(p, points)
    assert check_axioms(geom).all_pass()

    # enlarge one entry of the derived table to a set that is not a flat
    table = closure_table(geom)
    j = data.draw(st.integers(0, len(table) - 1))
    key, value = table[j]
    extra = [x for x in points if x not in value
             and frozenset(value + [x]) not in geom.flats]
    if extra:
        x = data.draw(st.sampled_from(extra))
        table[j] = [key, sorted(value + [x])]
        rep = check_axioms(ClosureGeometry.from_json(
            {"points": list(points), "closure": table}))
        assert not rep.closure[0]
        assert _replays(table, rep.closure[1])

    # a point bijection that carries every flat but one onto a flat
    nodes1 = [SubgroupFragment("p%d" % i, (), 1, sources=[i])
              for i in range(len(points))]
    nodes2 = [SubgroupFragment("p%d" % i, (), 1, sources=[i])
              for i in range(len(points))]
    perm = data.draw(st.permutations(range(len(points))))
    node_map = {nodes1[i]: nodes2[perm[i]] for i in range(len(points))}
    index = {v: i for i, v in enumerate(points)}
    flats1 = [{nodes1[index[v]] for v in f} for f in geom.flats]
    g1 = ClosureGeometry(nodes1, flats1)
    images = [{node_map[n] for n in f} for f in flats1]
    lat1, lat2 = LatticeFragment(nodes1), LatticeFragment(nodes2)
    g2 = ClosureGeometry(nodes2, images)
    assert transfer_isomorphism(lat1, lat2, node_map, g1, g2) == node_map
    k = data.draw(st.integers(0, len(images) - 1))
    g2 = ClosureGeometry(nodes2, images[:k] + images[k + 1:])
    with pytest.raises(NotIsomorphism) as exc:
        transfer_isomorphism(lat1, lat2, node_map, g1, g2)
    assert exc.value.witness == {
        "reason": "closure broken",
        "A": sorted(n.label for n in flats1[k])}
    # or one flat more on the far side: its preimage is no flat
    extra = data.draw(st.sampled_from([f | {n} for f in flats1 for n in nodes1
                                       if f | {n} not in flats1]))
    g2 = ClosureGeometry(nodes2, images + [{node_map[n] for n in extra}])
    with pytest.raises(NotIsomorphism) as exc:
        transfer_isomorphism(lat1, lat2, node_map, g1, g2)
    assert exc.value.witness == {
        "reason": "closure broken", "A": sorted(n.label for n in extra)}


def test_check_axioms_finds_the_minimal_flats_of_a_set_once():
    # table_witness and check_axioms ask for the same sets; the flats
    # holding each set asked are found once, by one AND per point, and its
    # minimal flats kept
    points = _projective_points(2, 3)

    def closure(subset):
        rows = tuple(sorted(subset))
        r = linalg.rank(rows, 2)
        return frozenset(v for v in points if linalg.rank(rows + (v,), 2) == r)

    geom = flats_by_covers(points, closure(frozenset()),
                           lambda f, x: closure(f | {x}))
    held, found = geom._held, []

    def counting_held(s):
        found.append(s)
        return held(s)

    geom._held = counting_held
    assert check_axioms(geom).all_pass()
    assert found and sorted(found) == sorted(geom._memo)


def _brute_minimal(flats, s):
    """The minimal flats holding s, in the order of flats, found by
    comparing every pair of flats holding s."""
    holding = [f for f in flats if s <= f]
    return [f for f in holding if not any(g < f for g in holding)]


def _brute_table_witness(flats, table):
    for a, c in table:
        if not a <= c:
            return {"A": a, "reason": "A not in cl(A)"}
        if c not in flats:
            return {"A": a, "reason": "cl not idempotent"}
        minimal = _brute_minimal(flats, a)
        if minimal != [c]:
            return {"A": a, "B": next(f for f in minimal if f != c),
                    "reason": "cl not monotone"}
    return None


def _brute_report(points, flats, table):
    """check_axioms written out over frozensets: the closure witness is the
    table's, else the first set without a least flat among those asked
    (the empty set, the points while they are flats, then F | {b} for each
    flat F and point b outside it, in order); exchange fails at the first
    F and b such that some a in cl(F | {b}) - F has cl(F | {a}) without b."""
    def cl(s):
        minimal = _brute_minimal(flats, s)
        return minimal[0] if len(minimal) == 1 else None

    asked = [frozenset()]
    geometry = None
    if cl(frozenset()) != frozenset():
        geometry = {"reason": "cl(empty) not empty", "got": cl(frozenset())}
    else:
        for a in points:
            asked.append(frozenset([a]))
            if cl(asked[-1]) != asked[-1]:
                geometry = {"a": a, "reason": "cl(a) exceeds {a}",
                            "got": cl(asked[-1])}
                break
    exchange = None
    for f in flats:
        cover = {b: cl(f | {b}) for b in points if b not in f}
        asked += [f | {b} for b in cover]
        exchange = exchange or next((
            {"A": f, "a": a, "b": b} for b in cover if cover[b] is not None
            for a in cover if a in cover[b] and cover[a] is not None
            and b not in cover[a]), None)
    closure = _brute_table_witness(flats, table) or next((
        {"A": s, "reason": "no least flat contains A"}
        for s in asked if cl(s) is None), None)
    return {"closure": closure, "geometry": geometry, "exchange": exchange}


@st.composite
def flat_families(draw):
    """Points, flats and a closure table on up to 8 points, most of them
    no matroid: sets with no flat holding them or several minimal flats,
    and broken exchange.  A point may be listed twice."""
    points = ["p%d" % i for i in range(draw(st.integers(0, 8)))]
    subset = st.frozensets(st.sampled_from(points)) if points else st.just(
        frozenset())
    if points:
        points += draw(st.lists(st.sampled_from(points), max_size=2))
    flats = draw(st.lists(subset, max_size=12))
    if draw(st.booleans()):
        flats += [frozenset(), frozenset(points)]
        flats += [frozenset([p]) for p in points if draw(st.booleans())]
    table = draw(st.lists(st.tuples(subset, subset | st.sampled_from(
        flats or [frozenset()])), max_size=6))
    return points, flats, table


@settings(max_examples=300, deadline=None)
@given(flat_families())
def test_minimal_flats_match_brute_force(family):
    points, flats, table = family
    geom = ClosureGeometry(points, flats, table)
    # the flats sorted by size, then by the last places of their points
    last = {p: i for i, p in enumerate(points)}
    order = sorted(set(flats), key=lambda f: (len(f), sorted(
        last[p] for p in f)))
    assert list(geom.flats) == order
    distinct = list(dict.fromkeys(points))
    for r in range(len(distinct) + 1):
        for s in map(frozenset, itertools.combinations(distinct, r)):
            minimal = _brute_minimal(order, s)
            if len(minimal) == 1:
                assert geom.cl(s) == minimal[0]
            else:
                with pytest.raises(JoinUndefined):
                    geom.cl(s)
    assert geom.table_witness() == _brute_table_witness(order, table)
    want = _brute_report(points, order, table)
    got = check_axioms(geom)
    assert {k: getattr(got, k) for k in want} == {
        k: (w is None, w) for k, w in want.items()}
