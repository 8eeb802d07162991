"""Command-line front end and the end-to-end reconstruction pipeline.

The pipeline assembles the quadratic-algebra fragment from certified symbol
values, recovers the graded lattice fragment relative to the declared
universe, finds the flats of the closure geometry on its points, and emits
the geometry with its axiom report.  All output JSON is canonical and
byte-stable.  Certificate searches are finite and deterministic: the search
seed (--seed, the configuration's "seed") is accepted and ignored, as the
worker count is.
"""

import argparse
import itertools
import json
import sys

from . import geometry as geom_mod
from . import jsonio, linalg
from .abelcentral import (
    MultFragment,
    duality_check,
    h2_brute_force,
    kummer_bridge,
    upsilon,
    word_normal_form,
)
from .groundfield import FieldTower, FunctionField
from .kmilnor import UNKNOWN, KContext, tame_chain
from .lattice import (
    DimUnknown,
    LatticeFragment,
    RationalSubgroup,
    Universe,
    delta_set,
    epsilon_rigidity_check,
    milnor_dim_bounds,
    recover_rank_1,
    recover_rank_r,
)

EXIT_OK = 0
EXIT_UNKNOWN = 2
EXIT_FAILURE = 3


class InsufficientUniverse(RuntimeError):
    pass


class TransferMismatch(RuntimeError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__("transfer mismatch: %r" % (witness,))


class PipelineConfig:
    """Validated run configuration; the full pipeline needs five variables,
    rank-one recovery four, plain K-theory two.  The universe declarations
    are checked as build_universe decodes them."""

    def __init__(self, data):
        what = "the pipeline configuration"

        def integer(name, default=None):
            if default is not None and name not in data:
                return default
            return jsonio.field(data, name, what, int)

        self.p = integer("p")
        self.ell = jsonio.modulus(data, what)
        self.vars = integer("vars")
        self.seed = integer("seed", 0)
        self.tower_seed = integer("tower_seed", 0)
        self.budget = integer("budget", 64)
        self.workers = integer("workers", 1)
        self.max_rank = integer("max_rank", 3)
        self.universe_decl = (jsonio.field(data, "universe", what, list)
                              if "universe" in data else [])
        self.auto_universe = (jsonio.field(data, "auto_universe", what, dict)
                              if "auto_universe" in data else None)
        auto = self.auto_universe or {}
        if "coordinates" in auto:
            jsonio.field(auto, "coordinates", "auto_universe", bool)
        if "bertini_samples" in auto:
            jsonio.field(auto, "bertini_samples", "auto_universe", int)
        if self.p == self.ell:
            raise ValueError("p and ell must differ")
        if not 2 <= self.vars <= jsonio.MAX_INPUT_VARS:
            raise ValueError("vars must run from 2 to %d"
                             % jsonio.MAX_INPUT_VARS)
        if self.budget < 0:
            raise ValueError("budget must be at least 0")
        samples = auto.get("bertini_samples", 0)
        if samples < 0:
            raise ValueError("bertini_samples must be at least 0")
        if auto.get("coordinates", True):
            samples += self.vars
        if samples > jsonio.MAX_AUTO_UNIVERSE:
            raise ValueError("auto_universe may ask for at most %d subgroups, "
                             "its coordinates and bertini_samples together"
                             % jsonio.MAX_AUTO_UNIVERSE)
        if not 3 <= self.max_rank < self.vars:
            raise ValueError("max_rank must lie between 3 and vars - 1")

    def require_vars(self, k, what):
        if self.vars < k:
            raise ValueError("%s needs at least %d variables" % (what, k))

    def context(self):
        tower = FieldTower(self.p, seed=self.tower_seed)
        field = FunctionField(tower, self.vars)
        return KContext(field, self.ell)


def build_universe(ctx, config):
    """Construct the declared rational subgroups, appending deterministic
    pencil samples when an automatic universe is requested."""
    field = ctx.field
    gens = []
    for decl in config.universe_decl:
        gens.append(_decode_generator(field, decl))
    if config.auto_universe is not None:
        if config.auto_universe.get("coordinates", True):
            for i in range(field.nvars):
                gens.append(field.var(i))
        count = config.auto_universe.get("bertini_samples", 0)
        pairs = list(itertools.combinations(range(field.nvars), 2))
        c = 1
        for k in range(count):
            i, j = pairs[k % len(pairs)]
            gens.append(field.var(i) + field.const(c) * field.var(j))
            if (k + 1) % len(pairs) == 0:
                c += 1
    subs = []
    seen = set()
    for n, g in enumerate(gens):
        key = g.key()
        if key in seen:
            continue
        seen.add(key)
        subs.append(RationalSubgroup(ctx, g, label="u%d" % len(subs)))
    if not subs:
        raise InsufficientUniverse("no universe declared")
    return subs


def _decode_generator(field, decl):
    """The generator a universe declaration names: {"var": i},
    {"linear": {"i": c, ...}} with an optional "const" c, all integers and
    every i in 0..nvars-1, or {"ratfunc": f}, which jsonio checks as it
    decodes f.  InputError for any other declaration."""
    what = "a universe declaration"

    def var(i):
        if not 0 <= i < field.nvars:
            raise jsonio.InputError("%s names a variable outside 0..%d"
                                    % (what, field.nvars - 1))
        return field.var(i)

    if isinstance(decl, dict) and "var" in decl:
        return var(jsonio.field(decl, "var", what, int))
    if isinstance(decl, dict) and "linear" in decl:
        linear = jsonio.field(decl, "linear", what, dict)
        g = field.const(jsonio.field(decl, "const", what, int)
                        if "const" in decl else 0)
        for v in sorted(linear):
            t = var(int(v) if v.isdecimal() else -1)
            coef = jsonio.field(linear, v, "a linear declaration", int)
            g = g + field.const(coef) * t
        return g
    if isinstance(decl, dict) and "ratfunc" in decl:
        return jsonio.decode_ratfunc(field, decl["ratfunc"])
    raise jsonio.InputError("unknown generator declaration %r" % (decl,))


def run_pipeline(config, permutation=None):
    """The four reconstruction steps on the declared universe; with a
    permutation sigma of 0..vars-1, on its image under the automorphism
    t_i -> t_sigma(i): each member's generator composed with it, under the
    member's own label.

    Returns canonical artifacts: the degree-one and degree-two fragment with
    certified relations, the recovered lattice fragment, the geometry as a
    flat list, and the axiom report, each edge backed by a replayable
    certificate or a containment proof.  A set of members that the budget
    leaves unresolved raises DimUnknown.
    """
    config.require_vars(5, "the full pipeline")
    ctx = config.context()
    subs = build_universe(ctx, config)
    if permutation is not None:
        images = [ctx.field.var(i) for i in permutation]
        subs = [RationalSubgroup(ctx, s.gen.compose(images), label=s.label)
                for s in subs]
    if len(subs) < 5:
        raise InsufficientUniverse(
            "the pipeline needs several rational subgroups, got %d" % len(subs))
    universe = Universe(ctx, subs, budget=config.budget)

    # step 1: the quadratic algebra fragment on the universe generators
    gens = [s.gen for s in subs]
    kring = _quadratic_fragment(ctx, gens, config.budget)

    # step 2: the graded lattice fragment
    lat = _lattice_stage(universe, config.max_rank)

    # step 3: the geometry of flats over the universe closure
    geometry = _universe_geometry(
        universe, [n for n in lat.nodes if n.rank == 1])

    # step 4: axiom report
    report = geom_mod.check_axioms(geometry)

    artifacts = {
        "version": jsonio.SCHEMA_VERSION,
        "config": {
            "p": config.p, "ell": config.ell, "vars": config.vars,
            "budget": config.budget,
            "universe_size": len(subs),
        },
        "tower": ctx.field.tower.snapshot(),
        "kring_fragment": kring,
        "lattice_fragment": lat.to_json(),
        "geometry": _geometry_json(geometry),
        "axiom_report": report.to_json(),
    }
    return artifacts, (ctx, universe, lat, geometry)


def _lattice_stage(universe, max_rank):
    """The graded lattice fragment of the universe, recovered in this
    order: ranks two and three, the rank-one fragments witnessed by them,
    then ranks 4 to max_rank.  The nodes are listed by rank."""
    r2 = recover_rank_r(universe, 2)
    r3 = recover_rank_r(universe, 3)
    nodes = recover_rank_1(universe, r2, r3) + r2 + r3
    for r in range(4, max_rank + 1):
        nodes += recover_rank_r(universe, r)
    return LatticeFragment(nodes)


def _quadratic_fragment(ctx, gens, budget):
    """Degree-one generators with the relation of every generator pair
    (KContext.pair_relation), and its certificate when it has one."""

    def entry_for(a, b):
        relation, cert = ctx.pair_relation(gens[a], gens[b], budget)
        entry = {"pair": [a, b], "relation": relation}
        if cert is not None:
            entry["certificate"] = jsonio.encode_certificate(cert)
        return entry

    return {
        "generators": [jsonio.encode_ratfunc(g) for g in gens],
        "pairs": [entry_for(a, b)
                  for a, b in itertools.combinations(range(len(gens)), 2)],
    }


def _universe_geometry(universe, rank1_nodes):
    """The geometry on the recovered points, found by covers: the closure
    of a point set is every point below the universe closure of its
    sources.  Each universe flat is mapped once to the points below it.
    As cl(A | X) = cl(cl(A) | {b_x}), b_x the basis member of the sources X
    of x, the cover of f by x is the points g below U = Universe.cover(U_f,
    b_x), U_f the closure of the sources of f; and U is U_g, as the sources
    of g lie in U and hold those of f and b_x.  So each g is kept with the
    U it was first found from."""
    points = sorted(rank1_nodes, key=lambda n: sorted(n.sources))
    member = {x: universe.basis(x.sources)[0] for x in points}
    below, above = {}, {}

    def points_below(flat):
        if flat not in below:
            below[flat] = frozenset(x for x in points if x.sources <= flat)
            above.setdefault(below[flat], flat)
        return below[flat]

    def cover(f, x):
        return points_below(universe.cover(above[f], member[x]))

    return geom_mod.flats_by_covers(
        points, points_below(universe.closure(())), cover)


def _geometry_json(geometry):
    pts = {n: "p%d" % i for i, n in enumerate(geometry.points)}
    return {
        "points": [
            {"id": pts[n], "sources": sorted(n.sources)} for n in pts
        ],
        "closed_sets": sorted(sorted(pts[n] for n in f)
                              for f in geometry.flats),
    }


def run_roundtrip(config, permutation):
    """Run the pipeline on the declared universe and on its image under the
    permutation of the variables (run_pipeline), whatever kind each
    declaration is, and check that the induced lattice isomorphism
    transfers to exactly the permutation-induced map of geometry points.
    Either run may raise DimUnknown."""
    if (not all(type(i) is int for i in permutation)
            or sorted(permutation) != list(range(config.vars))):
        raise ValueError("the permutation must rearrange 0..%d"
                         % (config.vars - 1))
    if config.auto_universe is not None:
        raise ValueError("roundtrip needs an explicit universe")
    artifacts1, (ctx1, uni1, lat1, g1) = run_pipeline(config)
    artifacts2, (ctx2, uni2, lat2, g2) = run_pipeline(config, permutation)
    # member i maps to member i, so sources correspond by index
    node_map = {}
    nodes2 = {n.sources: n for n in lat2.nodes}
    for n in lat1.nodes:
        m = nodes2.get(n.sources)
        if m is None:
            raise TransferMismatch({"missing": sorted(n.sources)})
        node_map[n] = m
    try:
        ptmap = geom_mod.transfer_isomorphism(lat1, lat2, node_map,
                                              geom1=g1, geom2=g2)
    except geom_mod.NotIsomorphism as e:
        raise TransferMismatch(e.witness)
    expected = {n.sources: n for n in g2.points}
    for a, b in ptmap.items():
        if expected[a.sources] is not b:
            raise TransferMismatch({"point": sorted(a.sources)})
    return {
        "version": jsonio.SCHEMA_VERSION,
        "permutation": list(permutation),
        "points_transferred": len(ptmap),
        "lattices_isomorphic": True,
        "artifacts_equal": artifacts1["geometry"]["closed_sets"]
        == artifacts2["geometry"]["closed_sets"],
    }


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def _load_input(args):
    if args.input and args.input != "-":
        try:
            with open(args.input) as fh:
                return json.load(fh)
        except OSError as e:
            raise jsonio.InputError("cannot read %s: %s"
                                    % (args.input, e.strerror)) from None
    return json.load(sys.stdin)


def _pipeline_config(args, data):
    """The pipeline configuration of an input object, with the
    command-line values filling the fields it leaves out."""
    if not isinstance(data, dict):
        raise jsonio.InputError("the pipeline configuration must be an object")
    for key in "p ell vars seed tower_seed budget workers".split():
        data.setdefault(key, getattr(args, key))
    return PipelineConfig(data)


def _emit(args, obj):
    text = jsonio.canonical_json(obj)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _context(args):
    if args.vars > jsonio.MAX_INPUT_VARS:
        raise jsonio.InputError("--vars may not exceed %d"
                                % jsonio.MAX_INPUT_VARS)
    tower = FieldTower(args.p, seed=args.tower_seed)
    field = FunctionField(tower, args.vars)
    return KContext(field, args.ell)


def cmd_symbol_eval(args):
    ctx = _context(args)
    data = _load_input(args)
    what = "symbol-eval input"
    sym = jsonio.decode_symbol(ctx.field,
                               jsonio.field(data, "symbol", what, list))
    chain = jsonio.decode_chain(ctx.field,
                                jsonio.field(data, "chain", what, dict))
    out = tame_chain(ctx.field, sym, chain, ctx.ell)
    if out.is_scalar():
        _emit(args, {"scalar": out.scalar()})
    else:
        _emit(args, {"terms": [
            {"coeff": c, "symbol": jsonio.encode_symbol(s)}
            for c, s in out.terms
        ]})
    return EXIT_OK


def cmd_certify(args):
    ctx = _context(args)
    data = _load_input(args)
    elements = [jsonio.decode_ratfunc(ctx.field, e)
                for e in jsonio.field(data, "elements", "certify input", list)]
    cert = ctx.certificate_search(elements, budget=args.budget, seed=args.seed,
                                  workers=args.workers)
    if cert is UNKNOWN:
        _emit(args, {"result": "unknown"})
        return EXIT_UNKNOWN
    if args.verify and not cert.replay():
        _emit(args, {"result": "replay-failed"})
        return EXIT_FAILURE
    _emit(args, {"result": "certified",
                 "certificate": jsonio.encode_certificate(cert)})
    return EXIT_OK


def cmd_dim(args):
    ctx = _context(args)
    data = _load_input(args)
    gens = [jsonio.decode_ratfunc(ctx.field, e)
            for e in jsonio.field(data, "generators", "dim input", list)]
    lo, hi = milnor_dim_bounds(ctx, gens, budget=args.budget)
    _emit(args, {"lower": lo, "upper": hi})
    return EXIT_OK if lo == hi else EXIT_UNKNOWN


def cmd_lattice_build(args):
    ctx = _context(args)
    data = _load_input(args)
    from .lattice import omega

    nodes = []
    subfields = jsonio.field(data, "subfields", "lattice-build input", list)
    for i, gens_json in enumerate(subfields):
        if not isinstance(gens_json, list):
            raise jsonio.InputError("each subfield must be a list")
        gens = [jsonio.decode_ratfunc(ctx.field, g) for g in gens_json]
        frag = omega(ctx, gens, label="L%d" % i, budget=args.budget)
        nodes.append({"label": frag.label, "rank": frag.rank,
                      "generators": [jsonio.encode_ratfunc(g)
                                     for g in frag.generators]})
    _emit(args, {"version": jsonio.SCHEMA_VERSION, "nodes": nodes})
    return EXIT_OK if all(n["rank"] is not None for n in nodes) else EXIT_UNKNOWN


def cmd_lattice_reconstruct(args):
    config = _pipeline_config(args, _load_input(args))
    ctx = config.context()
    subs = build_universe(ctx, config)
    universe = Universe(ctx, subs, budget=config.budget)
    lat = _lattice_stage(universe, config.max_rank)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(lat.to_dot() + "\n")
    _emit(args, {"version": jsonio.SCHEMA_VERSION,
                 "lattice": lat.to_json()})
    return EXIT_OK


def cmd_delta(args):
    ctx = _context(args)
    data = _load_input(args)
    what = "delta input"
    gen = jsonio.decode_ratfunc(ctx.field,
                                jsonio.field(data, "generator", what, dict))
    A = RationalSubgroup(ctx, gen)
    vals = [jsonio.decode_valuation(ctx.field, v, "a valuation")
            for v in jsonio.field(data, "valuations", what, list)]
    ds = delta_set(A, vals)
    _emit(args, {
        "entries": [
            {"var": e.valuation.var,
             "center": jsonio.encode_center(e.valuation.center),
             "point": jsonio.encode_center(e.point),
             "ram": e.ram}
            for e in ds
        ]
    })
    return EXIT_OK


def cmd_rigidity(args):
    data = _load_input(args)
    from .lattice import CounterexampleReport, RationalFragmentData, RigidityInstance

    what = "rigidity input"
    dim = jsonio.field(data, "ambient_dim", what, int)
    ell = jsonio.modulus(data, what)

    def fragment(f):
        name = jsonio.field(f, "name", "a fragment", str)
        members = jsonio.int_matrix(jsonio.field(f, "members", "a fragment"),
                                    "the members of a fragment", cols=dim)
        if not members:
            raise jsonio.InputError("a fragment needs at least one member")
        # the check solves for coordinates in the member basis, which a
        # dependent basis leaves ambiguous
        if linalg.rank(members, ell) < len(members):
            raise jsonio.InputError("the members of a fragment must be "
                                    "independent mod %d" % ell)
        return RationalFragmentData(name, members)

    inst = RigidityInstance(
        ell, dim,
        [fragment(f) for f in jsonio.field(data, "fragments", what, list)])
    phi = jsonio.int_matrix(jsonio.field(data, "phi", what), "phi",
                            rows=dim, cols=dim)
    out = epsilon_rigidity_check(phi, inst)
    if isinstance(out, CounterexampleReport):
        _emit(args, {"result": "rejected", "kind": out.kind,
                     "details": jsonio.plain(out.details)})
        return EXIT_FAILURE
    _emit(args, {"result": "epsilon", "epsilon": out})
    return EXIT_OK


def cmd_geometry_check(args):
    data = _load_input(args)
    geometry = geom_mod.ClosureGeometry.from_json(
        jsonio.field(data, "geometry", "geometry-check input", dict))
    report = geom_mod.check_axioms(geometry)
    _emit(args, {"report": report.to_json()})
    return EXIT_OK if report.all_pass() else EXIT_FAILURE


def cmd_lcl_eval(args):
    data = _load_input(args)
    what = "lcl-eval input"
    geometry = geom_mod.ClosureGeometry.from_json(
        jsonio.field(data, "geometry", what, dict))
    witness = geometry.table_witness()
    if witness is not None:
        raise jsonio.InputError(
            "the closure table is not a closure operator: %s"
            % json.dumps(geom_mod.encode_witness(witness)))
    params = (jsonio.field(data, "params", what, dict) if "params" in data
              else None)
    free, rows = geom_mod.eval_lcl(
        geometry, jsonio.field(data, "formula", what, str), params=params)
    # points of different JSON types sort by type name first, as in witnesses
    _emit(args, {"free": free, "tuples": sorted(
        map(list, rows), key=lambda row: [(type(p).__name__, p) for p in row])})
    return EXIT_OK


def cmd_abc_verify(args):
    data = _load_input(args)
    what = "abc-verify input"
    G = jsonio.decode_abc_group(jsonio.field(data, "group", what, dict))
    out = {"rank": G.rank, "ell": G.ell,
           "kernel_dim": G.relations.dim,
           "upsilon_pairing": upsilon(G).pairing_identity_holds()}
    if "words" in data:
        out["normal_forms"] = []
        for w in jsonio.field(data, "words", what, list):
            # a word is a string or a list of [index, sign] letters
            letters = w if isinstance(w, str) else jsonio.int_matrix(
                w, "a word that is no string", cols=2)
            abelian, central = word_normal_form(letters, G)
            out["normal_forms"].append(
                {"word": w, "abelian": list(abelian), "central": list(central)})
    if "h2" in data:
        h2 = jsonio.field(data, "h2", what, dict)
        res = h2_brute_force(jsonio.field(h2, "n", "the h2 field", int),
                             jsonio.field(h2, "ell", "the h2 field", int))
        out["h2_dim"] = res.dim
    _emit(args, out)
    return EXIT_OK if out["upsilon_pairing"] else EXIT_FAILURE


def cmd_duality_check(args):
    data = _load_input(args)
    from .abelcentral import Mismatch

    what = "duality-check input"
    G = jsonio.decode_abc_group(jsonio.field(data, "group", what, dict))
    mult = _decode_mult(jsonio.field(data, "mult", what, dict))
    try:
        rep = duality_check(mult, G)
    except Mismatch as e:
        _emit(args, {"passed": False, "witness": jsonio.plain(e.witness)})
        return EXIT_FAILURE
    _emit(args, {"passed": True, "kernel_dim": rep["kernel_dim"]})
    return EXIT_OK


def _decode_mult(data):
    what = "a multiplication fragment"
    n = jsonio.field(data, "n", what, int)
    if n < 0:
        raise jsonio.InputError("%s needs n of at least 0" % what)
    return MultFragment(
        n, jsonio.modulus(data, what),
        jsonio.int_matrix(data.get("kernel", []), "the kernel of %s" % what,
                          cols=linalg.wedge_dim(n)))


def cmd_kummer(args):
    data = _load_input(args)
    what = "kummer input"
    mult_K = _decode_mult(jsonio.field(data, "mult_k", what, dict))
    mult_L = _decode_mult(jsonio.field(data, "mult_l", what, dict))
    n = mult_K.n
    phi = jsonio.int_matrix(jsonio.field(data, "phi", what), "phi", n, n)
    pairings = [None if data.get(name) is None
                else jsonio.int_matrix(data[name], name, n, n)
                for name in ("pairing_k", "pairing_l")]
    psi = kummer_bridge(phi, mult_K, mult_L, *pairings)
    _emit(args, {"psi": [list(r) for r in psi]})
    return EXIT_OK


def cmd_pipeline(args):
    config = _pipeline_config(args, _load_input(args))
    try:
        artifacts, extras = run_pipeline(config)
    except InsufficientUniverse as e:
        _emit(args, {"error": "insufficient-universe", "detail": str(e)})
        return EXIT_FAILURE
    if args.verify:
        ctx = extras[0]
        gens = [s.gen for s in extras[1].subgroups]
        for entry in artifacts["kring_fragment"]["pairs"]:
            cert = entry.get("certificate")
            if cert is not None and not ctx.certifies(
                    jsonio.decode_certificate(ctx.field, cert),
                    [gens[i] for i in entry["pair"]]):
                _emit(args, {"error": "certificate-replay-failed",
                             "pair": entry["pair"]})
                return EXIT_FAILURE
        failed = extras[1].replay()
        if failed:
            _emit(args, {"error": "record-replay-failed",
                         "key": sorted(failed[0])})
            return EXIT_FAILURE
    if args.dot:
        lat = extras[2]
        with open(args.dot, "w") as fh:
            fh.write(lat.to_dot() + "\n")
    ok = artifacts["axiom_report"]
    _emit(args, artifacts)
    passed = all(v["pass"] for v in ok.values())
    return EXIT_OK if passed else EXIT_FAILURE


def cmd_roundtrip(args):
    data = _load_input(args)
    perm = jsonio.field(data, "permutation", "roundtrip input", list)
    config = _pipeline_config(args, data)
    try:
        out = run_roundtrip(config, perm)
    except TransferMismatch as e:
        _emit(args, {"error": "transfer-mismatch",
                     "witness": jsonio.plain(e.witness)})
        return EXIT_FAILURE
    _emit(args, out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A malformed command line is malformed input, exit 3 with one
    error: line, where argparse would exit 2, the code of an unknown
    answer; --help still exits 0."""

    def error(self, message):
        raise jsonio.InputError(message)


def build_parser():
    ap = _Parser(
        prog="milnork",
        description="Exact mod-l Milnor K-theory and reconstruction recipes "
                    "over rational function fields on a closure of F_p.")
    ap.add_argument("--p", type=int, default=7)
    ap.add_argument("--ell", type=int, default=3)
    ap.add_argument("--vars", type=int, default=5)
    ap.add_argument("--budget", type=int, default=64)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--tower-seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out", default=None)
    ap.add_argument("--dot", default=None,
                    help="also write the lattice fragment as DOT")
    ap.add_argument("--verify", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)
    commands = {
        "symbol-eval": cmd_symbol_eval,
        "certify": cmd_certify,
        "dim": cmd_dim,
        "lattice-build": cmd_lattice_build,
        "lattice-reconstruct": cmd_lattice_reconstruct,
        "delta": cmd_delta,
        "rigidity": cmd_rigidity,
        "geometry-check": cmd_geometry_check,
        "lcl-eval": cmd_lcl_eval,
        "abc-verify": cmd_abc_verify,
        "duality-check": cmd_duality_check,
        "kummer": cmd_kummer,
        "pipeline": cmd_pipeline,
        "roundtrip": cmd_roundtrip,
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        p.add_argument("input", nargs="?", default="-",
                       help="JSON input file, or - for stdin")
        p.set_defaults(func=fn)
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except DimUnknown as e:
        _emit(args, {"error": "dim-unknown",
                     "candidates": [sorted(c) for c in e.candidates]})
        return EXIT_UNKNOWN
    except (ValueError, RuntimeError) as e:
        sys.stderr.write("error: %s\n" % e)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
