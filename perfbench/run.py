"""milnork benchmark: one workload per process, one operation at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each one exists):
  linear-universe  run_pipeline on the 20-subgroup acceptance universe, then
                   run_roundtrip on its first 13 declarations
  h2-sweep         h2_brute_force at (n, l) = (3, 5), (4, 3), (1, 131)
  certify-stream   independent KContext.certificate_search requests, a
                   block of 20 with a fixed mix of kinds at a time

The inputs are a function of --seed alone, and every answer is checked
against the truth known from how the inputs were built (oracles.py).  The
loop is closed with concurrency 1 and workers=1: whole units of work run
while the next one, taking as long as the last, still ends within --seconds.
Timings are in seconds at the host's reference speed (hostspeed.py); the
wall times are in the details.

With --trace 0 the last output line carries the end-to-end metrics.  With
--trace 1 each operation of a fixed amount of work runs untraced and then
with spans and counters around every layer (tracing.py), and the last line
carries the per-layer metrics and the tracing overhead.  The line before
the last holds the details: per-kind counts, misses, failures and the
workload's own named figures.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import hostspeed
import inputs
import oracles
import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 11
# Tail percentiles tried from the top; the first with at least ten samples
# beyond it is reported.  The ladder stops at p95 so that the percentile
# does not change with the run's length: p98 needs 500 samples, and a 30 s
# certify-stream run holds about 500 to 600 requests.
TAIL_LADDER = (95, 90, 75, 50)
TRACE_REQUESTS = 200
BLOCK = len(inputs.CERTIFY_BLOCK)
CERTIFY_CHUNK = 3 * BLOCK

clock = time.perf_counter


class Record:
    """Outcome of every operation of one run."""

    def __init__(self, sampler):
        self.sampler = sampler
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.busy = 0.0
        self.wall = 0.0
        self.latencies = []
        self.units = []
        self.units_wall = []
        self.first_unit_rss_kib = 0
        self.named = defaultdict(list)
        self.errors = Counter()
        self.problems = []
        self.kinds = defaultdict(Counter)

    def run(self, name, call, check, tracer=None, op_id=0):
        """Time one operation, then check its answer untimed; returns the
        seconds it took at the reference speed.  An exception fails the
        operation, and the run goes on."""
        self.attempted += 1
        start = clock()
        try:
            value = call() if tracer is None else tracer.run(op_id, call)
            ok = True
        except Exception as exc:
            value, ok = exc, False
        end = clock()
        elapsed = self.sampler.seconds(start, end)
        self.busy += elapsed
        self.wall += end - start
        if ok:
            self.latencies.append(elapsed)
            self.named[name].append(elapsed)
        else:
            self.failed += 1
            key = "%s: %s" % (name, type(value).__name__)
            if not self.errors[key]:
                traceback.print_exception(value, file=sys.stderr)
            self.errors[key] += 1
        check(self, ok, value)
        return elapsed

    def reject(self, problems):
        if problems:
            self.failed += 1
            self.wrong += 1
            self.problems.extend(problems)

    def miss_share(self):
        asked = sum(c["certifiable"] for c in self.kinds.values())
        missed = sum(c["missed"] for c in self.kinds.values())
        return missed / asked if asked else 0.0


# A workload builds its contexts and inputs in __init__ (the set-up), and
# ops() returns one unit of work as (name, call, check) triples: call() is
# the timed operation and check(record, returned, value) its oracle.
# trace_pair() returns two equal, independent lists of such triples for
# the traced run.

class LinearUniverse:
    """The paper's recipe end to end: fragment, lattice, geometry, axioms,
    then the permutation roundtrip."""

    def __init__(self, milnork, seed):
        self.cli = milnork.cli
        self.jsonio = milnork.jsonio
        self.DimUnknown = milnork.lattice.DimUnknown
        self.cfg = inputs.linear_universe(seed)

    def ops(self):
        cli, cfg = self.cli, self.cfg
        return [
            ("pipeline", lambda: cli.run_pipeline(
                cli.PipelineConfig(cfg["pipeline"])), self._check_pipeline),
            ("roundtrip", lambda: cli.run_roundtrip(
                cli.PipelineConfig(cfg["roundtrip"]), cfg["permutation"]),
             self._check_roundtrip),
        ]

    def _check_pipeline(self, rec, ok, out):
        if not ok:
            if isinstance(out, self.DimUnknown):
                rec.kinds["pipeline"].update(certifiable=1, missed=1)
            return
        artifacts, (ctx, _, _, _) = out

        def replay(cert):
            return self.jsonio.decode_certificate(ctx.field, cert).replay()

        problems, certifiable, missed = oracles.check_pipeline(
            self.cfg["pipeline"]["universe"], artifacts, inputs.LINEAR_P,
            inputs.LINEAR_VARS, replay)
        rec.reject(problems)
        rec.kinds["kring-pair"].update(certifiable=certifiable, missed=missed)

    def _check_roundtrip(self, rec, ok, out):
        if ok:
            rec.reject(oracles.check_roundtrip(
                self.cfg["roundtrip"]["universe"], out, inputs.LINEAR_P,
                inputs.LINEAR_VARS))

    def trace_pair(self):
        return self.ops(), self.ops()

    def details(self, rec):
        return {"tower_seed": self.cfg["pipeline"]["tower_seed"],
                "permutation": self.cfg["permutation"],
                "pipeline_s": _median(rec.named["pipeline"]),
                "roundtrip_s": _median(rec.named["roundtrip"])}


class CertifyStream:
    """Independent certificate searches over several small fields; one
    block of the stream, every kind in its fixed share, is one unit of
    work."""

    def __init__(self, milnork, seed, count=CERTIFY_CHUNK):
        self.m = milnork
        self.seed = seed
        self.contexts = {}
        for p, ell in inputs.CERTIFY_FIELDS:
            tower = milnork.FieldTower(p, seed=0)
            tower.ensure_level(2)
            self.contexts[(p, ell)] = milnork.KContext(
                milnork.FunctionField(tower, inputs.CERTIFY_VARS), ell)
        self.pending = inputs.certify_stream(seed, self.contexts, count)
        self.generated = count

    def ops(self):
        if not self.pending:
            self.pending = inputs.certify_stream(
                self.seed, self.contexts, CERTIFY_CHUNK, self.generated)
            self.generated += CERTIFY_CHUNK
        block, self.pending = self.pending[:BLOCK], self.pending[BLOCK:]
        return [self._op(q) for q in block]

    def _op(self, q):
        ctx = self.contexts[(q.p, q.ell)]
        return ("certify", lambda: ctx.certificate_search(
            q.entries, budget=inputs.BUDGET, seed=q.index, shifts=q.shifts,
            workers=1), lambda rec, ok, cert: self._check(rec, q, ok, cert))

    def _check(self, rec, q, ok, cert):
        kind = rec.kinds[q.kind]
        kind["requests"] += 1
        if not ok:
            return
        problems, missed = oracles.check_certificate(q, cert,
                                                     self.m.UNKNOWN)
        rec.reject(problems)
        kind["certified"] += cert is not self.m.UNKNOWN
        kind["certifiable"] += q.certifiable
        kind["missed"] += missed

    def trace_pair(self):
        # a fixed prefix of the stream, so that traced counts repeat, on two
        # sets of fresh contexts so that neither side warms the other
        return tuple(
            [op for _ in range(TRACE_REQUESTS // BLOCK)
             for op in stream.ops()]
            for stream in (CertifyStream(self.m, self.seed, TRACE_REQUESTS)
                           for _ in range(2)))

    def details(self, rec):
        lat = sorted(rec.latencies)
        pct, tail = _tail(lat)
        return {"certify_per_s": len(lat) / rec.busy if rec.busy else 0.0,
                "certify_p50_ms": _median(lat) * 1000,
                "certify_tail_ms": tail * 1000,
                "tail_percentile": pct,
                "samples": len(lat)}


class H2Sweep:
    """The group-side cocycle solver, which shares no code with the
    K-theory layers."""

    def __init__(self, milnork, seed):
        import numpy  # noqa: F401  (imported by the solver on first use)

        self.abc = milnork.abelcentral

    def ops(self):
        return [("h2 n%d l%d" % case,
                 lambda case=case: self.abc.h2_brute_force(*case),
                 lambda rec, ok, res, case=case: self._check(rec, ok, res,
                                                             case))
                for case in inputs.H2_CASES]

    @staticmethod
    def _check(rec, ok, res, case):
        if ok:
            rec.reject(oracles.check_h2(*case, res.dim))

    def trace_pair(self):
        return self.ops(), self.ops()

    def details(self, rec):
        return {"cases": inputs.H2_CASES, "h2_s": _median(rec.units)}


WORKLOADS = {
    "linear-universe": LinearUniverse,
    "certify-stream": CertifyStream,
    "h2-sweep": H2Sweep,
}


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _tail(sorted_lat):
    """(percentile, value): the highest percentile of TAIL_LADDER with at
    least ten samples beyond it, or the maximum (p100) below eleven."""
    n = len(sorted_lat)
    for pct in TAIL_LADDER:
        k = int(n * pct / 100)
        if n - k - 1 >= 10:
            return pct, sorted_lat[k]
    return 100, sorted_lat[-1] if sorted_lat else 0.0


def set_up(workload, seed, sampler):
    """Import the package from the checkout and build the workload's
    contexts and inputs; returns (package, workload state, seconds at the
    reference speed)."""
    start = clock()
    sys.path.insert(0, str(SRC))
    import milnork
    import milnork.cli
    import milnork.jsonio

    if Path(milnork.__file__).resolve().parent != SRC / "milnork":
        raise SystemExit("error: milnork imported from %s, not %s"
                         % (milnork.__file__, SRC))
    state = WORKLOADS[workload](milnork, seed)
    return milnork, state, sampler.seconds(start, clock())


def setup_samples(args, own):
    """The run's own set-up time plus fresh-process set-ups of the same
    workload and seed."""
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def measure(state, seconds, sampler):
    """Closed loop over whole units until the next would overrun; a unit's
    time in rec.units is the time of its operations."""
    rec = Record(sampler)
    start = clock()
    while True:
        t0 = clock()
        n = len(rec.units)
        wall = rec.wall
        rec.units.append(sum(rec.run(*op, op_id=n) for op in state.ops()))
        rec.units_wall.append(rec.wall - wall)
        if n == 0:
            # later units can only add fragmentation, and how many run
            # depends on the host's speed
            rec.first_unit_rss_kib = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss
        if clock() - start + (clock() - t0) > seconds:
            return rec


def traced(milnork, state, workload, seed, sampler):
    """Each operation of a fixed amount of work runs untraced and traced in
    turn, the order alternating, so that a drift in the host's speed hits
    both sides alike.  Returns (record, tracer, overhead share)."""
    rec = Record(sampler)
    tracer = tracing.Tracer()
    plain_s = traced_s = 0.0
    for i, (plain, timed) in enumerate(zip(*state.trace_pair())):
        if i % 2:
            plain_s += rec.run(*plain)
        tracing.install(tracer, milnork)
        try:
            traced_s += rec.run(*timed, tracer=tracer, op_id=i)
        finally:
            tracer.uninstall()
        if not i % 2:
            plain_s += rec.run(*plain)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / ("trace-%s-seed%d.json.gz" % (workload, seed)))
    return rec, tracer, traced_s / plain_s - 1


def end_to_end_metrics(rec, setups):
    """The end-to-end metrics, by name: (value, unit).  unit_s is the median
    time of the run's units of work, failed operations included;
    peak_rss_mb is the peak of the process up to the end of its first
    unit."""
    return {
        "setup_s": (statistics.median(setups), "s"),
        "unit_s": (statistics.median(rec.units), "s"),
        "peak_rss_mb": (rec.first_unit_rss_kib / 1024, "MiB"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "milnork" / "__init__.py").is_file():
        sys.stderr.write("error: no milnork sources under %s\n" % SRC)
        return 2
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        milnork, state, own_setup = set_up(args.workload, args.seed, sampler)
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        if args.trace:
            rec, tracer, overhead = traced(milnork, state, args.workload,
                                           args.seed, sampler)
        else:
            rec = measure(state, args.seconds, sampler)
    finally:
        sampler.stop()

    details = {"wall_s": rec.wall,
               "reference_median_s": statistics.median(sampler.refs)}
    if args.trace:
        metrics = tracing.layer_metrics(tracer)
        metrics["trace.overhead_share"] = (overhead, "ratio")
    else:
        setups = setup_samples(args, own_setup)
        metrics = end_to_end_metrics(rec, setups)
        details.update({"units_s": rec.units, "units_wall_s": rec.units_wall,
                        "setup_samples_s": setups})
        details.update(state.details(rec))

    details.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "miss_share": rec.miss_share(),
        "failed_share": rec.failed / rec.attempted,
        "kinds": {k: dict(v) for k, v in sorted(rec.kinds.items())},
        "errors": dict(rec.errors),
        "problems": rec.problems[:20],
    })
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": rec.wrong == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
