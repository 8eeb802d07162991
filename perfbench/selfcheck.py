"""Self-checks of the benchmark itself (not of milnork):

  * the same seed gives identical inputs, and other seeds give other ones;
  * every oracle accepts a right answer and rejects a planted wrong one:
    a wrong h2 dimension, a certificate on a `dependent` tuple, a wrong flat,
    a wrong lattice node, a wrong degree-two relation, a short roundtrip;
  * two traced runs give identical counts, also under two hash seeds;
  * a stretch of work is charged at the host speed sampled at its end;
  * the metric names match BENCHMARK.json.

    python3 perfbench/selfcheck.py

Takes under a minute: it runs the 13-subgroup pipeline a few times.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import hostspeed
import inputs
import oracles
import run
import tracing

ROOT = Path(__file__).resolve().parent.parent
ROUNDTRIP = inputs.ACCEPTANCE_UNIVERSE[:inputs.ROUNDTRIP_SIZE]


def check(cond, what):
    if not cond:
        raise SystemExit("selfcheck FAILED: " + what)
    print("ok  " + what)


def small_config(seed):
    cfg = inputs.linear_universe(seed)
    return dict(cfg["roundtrip"])


def check_inputs(milnork):
    for seed in (0, 5):
        check(inputs.linear_universe(seed) == inputs.linear_universe(seed),
              "linear-universe inputs repeat for seed %d" % seed)
        keys = [[q.key() for q in inputs.certify_stream(
            seed, run.CertifyStream(milnork, seed).contexts, 60)]
            for _ in range(2)]
        check(keys[0] == keys[1],
              "certify-stream inputs repeat for seed %d" % seed)
    check(inputs.linear_universe(0) != inputs.linear_universe(1),
          "linear-universe inputs differ between seeds")
    ctx = run.CertifyStream(milnork, 0).contexts
    a = [q.key() for q in inputs.certify_stream(0, ctx, 20)]
    b = [q.key() for q in inputs.certify_stream(1, ctx, 20)]
    check(a != b, "certify-stream inputs differ between seeds")
    block = [q.kind for q in inputs.certify_stream(3, ctx, 20)]
    check(sorted(block) == sorted(k for k, _ in inputs.CERTIFY_BLOCK),
          "each block of 20 requests has the fixed kind mix")
    later = inputs.certify_stream(3, ctx, 5, start=15)
    check([q.key() for q in later]
          == [q.key() for q in inputs.certify_stream(3, ctx, 20)[15:]],
          "a stream chunk equals the same slice of the whole stream")


def check_h2_oracle():
    check(not oracles.check_h2(3, 5, 6), "h2 oracle accepts dim 6 at n=3")
    check(oracles.check_h2(3, 5, 7), "h2 oracle rejects a wrong dimension")


def check_certify_oracle(milnork):
    state = run.CertifyStream(milnork, 2, 40)
    by_kind = {}
    for q in state.pending:
        by_kind.setdefault(q.kind, q)
    lin, dep = by_kind["linear"], by_kind["dependent"]
    cert = state.contexts[(lin.p, lin.ell)].certificate_search(
        lin.entries, budget=inputs.BUDGET, seed=0, workers=1)
    check(cert is not milnork.UNKNOWN, "a linear request is certified")
    check(oracles.check_certificate(lin, cert, milnork.UNKNOWN) == ([], False),
          "certify oracle accepts a replaying certificate")
    check(oracles.check_certificate(dep, milnork.UNKNOWN, milnork.UNKNOWN)
          == ([], False), "certify oracle accepts UNKNOWN on a dependent tuple")
    check(oracles.check_certificate(dep, cert, milnork.UNKNOWN)[0],
          "certify oracle rejects a certificate on a dependent tuple")
    check(oracles.check_certificate(lin, milnork.UNKNOWN,
                                    milnork.UNKNOWN) == ([], True),
          "certify oracle counts UNKNOWN on a certifiable tuple as a miss")
    value = cert.value % cert.ell + 1
    bad = milnork.Certificate(cert.statement, cert.chain,
                              1 if value == cert.ell else value, cert.ell)
    check(oracles.check_certificate(lin, bad, milnork.UNKNOWN)[0],
          "certify oracle rejects a certificate with a wrong value")


def check_pipeline_oracle(milnork):
    cli, jsonio = milnork.cli, milnork.jsonio
    cfg = small_config(0)
    artifacts, (ctx, _, _, _) = cli.run_pipeline(cli.PipelineConfig(cfg))
    p, nvars = inputs.LINEAR_P, inputs.LINEAR_VARS

    def replay(cert):
        return jsonio.decode_certificate(ctx.field, cert).replay()

    def verdict(arts):
        return oracles.check_pipeline(ROUNDTRIP, arts, p, nvars, replay)[0]

    check(not verdict(artifacts), "pipeline oracle accepts the real output")

    wrong = copy.deepcopy(artifacts)
    flats = wrong["geometry"]["closed_sets"]
    line = next(i for i, f in enumerate(flats) if len(f) >= 3)
    flats[line] = flats[line][:-1]
    check(verdict(wrong), "pipeline oracle rejects a wrong flat")

    wrong = copy.deepcopy(artifacts)
    node = next(n for n in wrong["lattice_fragment"]["nodes"]
                if n["rank"] == 2)
    node["sources"] = node["sources"][:-1]
    check(verdict(wrong), "pipeline oracle rejects a wrong lattice node")

    wrong = copy.deepcopy(artifacts)
    pair = next(e for e in wrong["kring_fragment"]["pairs"]
                if e["relation"] == "independent")
    pair["relation"] = "vanishes-by-dimension"
    check(verdict(wrong),
          "pipeline oracle rejects a vanishing claim on independent directions")

    wrong = copy.deepcopy(artifacts)
    pair = next(e for e in wrong["kring_fragment"]["pairs"]
                if e["relation"] == "independent")
    pair["certificate"]["value"] = 3 - pair["certificate"]["value"]
    check(verdict(wrong), "pipeline oracle rejects a certificate that fails "
          "to replay")

    right = {"lattices_isomorphic": True, "artifacts_equal": True,
             "points_transferred": len(oracles.LinearTruth(
                 ROUNDTRIP, p, nvars).points)}
    check(not oracles.check_roundtrip(ROUNDTRIP, right, p, nvars),
          "roundtrip oracle accepts the right summary")
    short = dict(right, points_transferred=right["points_transferred"] - 1)
    check(oracles.check_roundtrip(ROUNDTRIP, short, p, nvars),
          "roundtrip oracle rejects a wrong point count")


def traced_counts(milnork):
    """Counts of one traced 13-subgroup pipeline and one traced prefix of
    the certify stream."""
    cli = milnork.cli
    tracer = tracing.Tracer()
    tracing.install(tracer, milnork)
    try:
        tracer.run(0, lambda: cli.run_pipeline(
            cli.PipelineConfig(small_config(0))))
        stream = run.CertifyStream(milnork, 0, 20)
        rec = run.Record(hostspeed.Sampler())
        for i, op in enumerate(stream.ops()):
            rec.run(*op, tracer=tracer, op_id=i)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer)
    counts = {k: v for k, (v, unit) in metrics.items() if unit != "s"}
    counts.update(tracer.counts)
    counts.update(tracer.outcomes)
    counts.update({"leaves." + k: v for k, v in tracer.leaves.items()})
    return counts


def check_hostspeed():
    ref = hostspeed.REF_S
    sampler = hostspeed.Sampler()
    sampler.starts, sampler.refs = [0.0, 1.0], [ref, 2 * ref]
    check(abs(sampler.seconds(0.5, 0.9) - 0.4) < 1e-12,
          "hostspeed charges work at the latest sample's speed")
    check(abs(sampler.seconds(0.5, 1.5) - (0.25 + (0.5 - 2 * ref) / 2))
          < 1e-12, "hostspeed charges work before a sample at its speed, "
          "and nothing for the sample itself")


def check_metric_names(milnork):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = tracing.Tracer()
    layer = set(tracing.layer_metrics(tracer)) | {"trace.overhead_share"}
    check(layer == {m["name"] for m in bench["per_layer"]},
          "traced metric names match BENCHMARK.json per_layer")
    rec = run.Record(hostspeed.Sampler())
    rec.units, rec.first_unit_rss_kib = [0.5, 1.0], 1024
    e2e = run.end_to_end_metrics(rec, [0.1, 0.2])
    check(set(e2e) == {m["name"] for m in bench["end_to_end"]},
          "end-to-end metric names match BENCHMARK.json end_to_end")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    units.update({m["name"]: m["unit"] for m in bench["per_layer"]})
    check(all(units[k] == u for k, (_, u) in e2e.items()),
          "end-to-end units match BENCHMARK.json")
    metrics = tracing.layer_metrics(tracer)
    check(all(units[k] == u for k, (_, u) in metrics.items()),
          "per-layer units match BENCHMARK.json")


def main():
    if sys.argv[1:] == ["--counts"]:
        milnork = run.set_up("h2-sweep", 0, hostspeed.Sampler())[0]
        print(json.dumps(traced_counts(milnork), sort_keys=True))
        return
    milnork = run.set_up("h2-sweep", 0, hostspeed.Sampler())[0]
    check_metric_names(milnork)
    check_hostspeed()
    check_inputs(milnork)
    check_h2_oracle()
    check_certify_oracle(milnork)
    check_pipeline_oracle(milnork)
    first = traced_counts(milnork)
    check(first == traced_counts(milnork),
          "two traced runs in one process give identical counts")
    check(first["kmilnor.tame_chain.calls"] > 0
          and first["lattice.independent.calls"] > 0,
          "the traced runs reached kmilnor and lattice")
    outs = []
    for hash_seed in ("0", "7"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run([sys.executable, __file__, "--counts"],
                              capture_output=True, text=True, env=env,
                              timeout=600, check=True)
        outs.append(json.loads(done.stdout.splitlines()[-1]))
    check(outs[0] == outs[1] == json.loads(json.dumps(first)),
          "traced counts repeat under PYTHONHASHSEED 0 and 7")
    print("selfcheck passed")


if __name__ == "__main__":
    main()
