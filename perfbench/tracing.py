"""Spans and counters around the calls into each layer, installed from the
benchmark's side by replacing the attribute each caller looks up.

A span is (name, start, end, parent, operation id).  Spans stay in memory
and are written out when the run ends.  A span's self time is its duration
minus the durations of its child spans; a span with no child span is a hit
of whatever cache the callee keeps.  Counters on the hottest arithmetic
entry points (ground-field multiplication by operand level, polynomial
products, rational-function constructions) cost more than spans, so they
exist only in the traced run.
"""

import gzip
import json
import time
from collections import Counter

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op = -1
        self.spans = []
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.leaves = Counter()
        self.counts = Counter()
        self.outcomes = Counter()
        self.towers = set()
        self._stack = []
        self._patched = []

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr, wrapper, fn):
        wrapper.__name__ = getattr(fn, "__name__", attr)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr, name, label=None, outcome=None):
        """Time every call of owner.attr as a span called name (plus
        '.' + label(args, kwargs) when given); outcome(result) names a
        counter to bump per result."""
        fn = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            full = name if label is None else name + "." + label(args, kwargs)
            stack = tracer._stack
            rec = [full, 0.0, 0.0, stack[-1][0] if stack else -1, tracer.op]
            frame = [len(tracer.spans), 0.0, False]
            tracer.spans.append(rec)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                rec[1], rec[2] = start, end
                tracer.calls[full] += 1
                tracer.total[full] += dur
                tracer.self_time[full] += dur - frame[1]
                if not frame[2]:
                    tracer.leaves[full] += 1
                if stack:
                    stack[-1][1] += dur
                    stack[-1][2] = True
            if outcome is not None:
                tracer.outcomes[full + "." + outcome(result)] += 1
            return result

        self._patch(owner, attr, wrapper, fn)

    def count(self, owner, attr, key):
        """Count calls of owner.attr under key(args)."""
        fn = getattr(owner, attr)
        tracer = self
        counts = self.counts

        def wrapper(*args, **kwargs):
            if tracer.enabled:
                counts[key(args)] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper, fn)

    def touch(self, owner, attr):
        """Keep every object whose owner.attr is called while tracing."""
        fn = getattr(owner, attr)
        tracer = self

        def wrapper(obj, *args, **kwargs):
            if tracer.enabled:
                tracer.towers.add(obj)
            return fn(obj, *args, **kwargs)

        self._patch(owner, attr, wrapper, fn)

    def uninstall(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched = []

    # -- running ---------------------------------------------------------

    def run(self, op, fn):
        """Call fn() as operation op with tracing on."""
        self.op = op
        self.enabled = True
        try:
            return fn()
        finally:
            self.enabled = False

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        data = {
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "names": names,
            "spans": [[index[n], round(a - t0, 7), round(b - t0, 7), par, op]
                      for n, a, b, par, op in self.spans],
            "counts": dict(self.counts),
            "outcomes": dict(self.outcomes),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(data, fh, separators=(",", ":"))


def install(tracer, milnork):
    """Wrap the public entry points of every layer at the attribute their
    callers look up."""
    gf, km, lat = milnork.groundfield, milnork.kmilnor, milnork.lattice
    geo, abc, cli = milnork.geometry, milnork.abelcentral, milnork.cli
    unknown = km.UNKNOWN

    def found(result):
        return "unknown" if result is unknown else "certified"

    def level(args):
        lv = args[1]
        return "ground_mul.l%s" % (lv if lv < 3 else "3plus")

    for owner, attr, name in (
            (gf.FunctionField, "order_and_residue",
             "groundfield.order_and_residue"),
            (gf.FunctionField, "univariate_roots",
             "groundfield.univariate_roots"),
            (gf.RatFunc, "compose", "groundfield.ratfunc_compose"),
            (km, "tame_chain", "kmilnor.tame_chain"),
            (km.KContext, "apply_transform", "kmilnor.apply_transform"),
            (km.KContext, "jacobian_rank", "kmilnor.jacobian_rank"),
            (km.KContext, "kclass_compare", "kmilnor.kclass_compare"),
            (lat.Universe, "independent", "lattice.independent"),
            (lat.Universe, "rank", "lattice.rank"),
            (lat.Universe, "closure", "lattice.closure"),
            (cli, "recover_rank_1", "lattice.recover_rank_1"),
            (cli, "run_pipeline", "cli.run_pipeline"),
            (geo, "check_axioms", "geometry.check_axioms"),
            (geo, "transfer_isomorphism", "geometry.transfer_isomorphism")):
        tracer.span(owner, attr, name)
    for attr in ("certificate_search", "canonical_certificate"):
        tracer.span(km.KContext, attr, "kmilnor." + attr, outcome=found)
    tracer.span(cli, "recover_rank_r", "lattice.recover_rank_r",
                label=lambda a, kw: "r%d" % (a[1] if len(a) > 1 else kw["r"]))
    tracer.span(abc, "h2_brute_force", "abelcentral.h2_brute_force",
                label=lambda a, kw: "n%d_l%d" % tuple(a[:2]))
    tracer.count(gf.RatFunc, "__init__", lambda a: "ratfunc_new")
    tracer.count(gf.SparsePoly, "__mul__", lambda a: "sparsepoly_mul")
    tracer.count(gf.FieldTower, "_mul", level)
    tracer.count(gf.FieldTower, "_inv", lambda a: "ground_inv")
    tracer.count(geo.ClosureGeometry, "cl", lambda a: "cl")
    tracer.touch(gf.FieldTower, "ensure_level")


SEARCHES = ("kmilnor.certificate_search", "kmilnor.canonical_certificate")


def _under(spans, i, names):
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(tracer):
    """The per-layer metrics, by name: (value, unit)."""
    calls, self_time, total = tracer.calls, tracer.self_time, tracer.total
    counts, spans = tracer.counts, tracer.spans

    def hit_ratio(name):
        return tracer.leaves[name] / calls[name] if calls[name] else 0.0

    searched = sum(1 for i, s in enumerate(spans)
                   if s[0] == "kmilnor.tame_chain" and _under(spans, i,
                                                              SEARCHES))
    certified = sum(tracer.outcomes[n + ".certified"] for n in SEARCHES)
    # the kring stage: each pipeline's time before its first rank recovery
    first_recovery = {}
    for s in spans:
        if s[0].startswith("lattice.recover_rank_r.") and s[3] >= 0:
            first_recovery.setdefault(s[3], s[1])
    kring = sum(first_recovery[i] - spans[i][1] for i in first_recovery
                if spans[i][0] == "cli.run_pipeline")
    levels = max((len(t.levels()) for t in tracer.towers), default=0)

    out = {}
    for name in ("groundfield.order_and_residue",
                 "groundfield.univariate_roots",
                 "groundfield.ratfunc_compose"):
        out[name + ".calls"] = (calls[name], "count")
        out[name + ".self_s"] = (self_time[name], "s")
    out["groundfield.ratfunc_new.calls"] = (counts["ratfunc_new"], "count")
    out["groundfield.sparsepoly_mul.calls"] = (counts["sparsepoly_mul"],
                                               "count")
    for lv in ("l1", "l2", "l3plus"):
        out["groundfield.ground_mul.%s.calls" % lv] = (
            counts["ground_mul." + lv], "count")
    out["groundfield.ground_inv.calls"] = (counts["ground_inv"], "count")
    out["groundfield.tower_levels"] = (levels, "count")
    name = "kmilnor.certificate_search"
    out[name + ".calls"] = (calls[name], "count")
    out[name + ".self_s"] = (self_time[name], "s")
    out[name + ".unknown"] = (tracer.outcomes[name + ".unknown"], "count")
    out["kmilnor.tame_chain.calls"] = (calls["kmilnor.tame_chain"], "count")
    out["kmilnor.tame_chain.self_s"] = (self_time["kmilnor.tame_chain"], "s")
    out["kmilnor.trial_yield"] = (certified / searched if searched else 0.0,
                                  "ratio")
    for name in ("kmilnor.apply_transform", "kmilnor.jacobian_rank"):
        out[name + ".calls"] = (calls[name], "count")
        out[name + ".self_s"] = (self_time[name], "s")
    for name in ("kmilnor.kclass_compare", "kmilnor.canonical_certificate"):
        out[name + ".calls"] = (calls[name], "count")
    for name in ("lattice.independent", "lattice.rank", "lattice.closure"):
        out[name + ".calls"] = (calls[name], "count")
        out[name + ".hit_ratio"] = (hit_ratio(name), "ratio")
    out["lattice.recover_rank_r.r2_s"] = (total["lattice.recover_rank_r.r2"],
                                          "s")
    out["lattice.recover_rank_r.r3_s"] = (total["lattice.recover_rank_r.r3"],
                                          "s")
    out["lattice.recover_rank_1.s"] = (total["lattice.recover_rank_1"], "s")
    out["geometry.check_axioms.s"] = (total["geometry.check_axioms"], "s")
    out["geometry.check_axioms.self_s"] = (self_time["geometry.check_axioms"],
                                           "s")
    out["geometry.cl.calls"] = (counts["cl"], "count")
    out["geometry.transfer_isomorphism.s"] = (
        total["geometry.transfer_isomorphism"], "s")
    for case in ("n3_l5", "n4_l3", "n1_l131"):
        out["abelcentral.h2_brute_force.%s.s" % case] = (
            total["abelcentral.h2_brute_force." + case], "s")
    out["cli.stage.kring_s"] = (kring, "s")
    out["trace.spans"] = (len(spans), "count")
    return {k: (float(v) if unit == "s" else v, unit)
            for k, (v, unit) in out.items()}
