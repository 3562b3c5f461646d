"""Per-layer numbers from a traced run.

One-shot children report spans (one per call into a library module,
with the counters the call moved, from Obs.delta_snapshot); the parent
adds the process start-up before main and the exit after the answer.
Serve requests get a client-side request span and a child job span
whose length is the server's own elapsed_ms; their counters are the
per-request `stats` the server returns when asked.

A span's self time is its duration minus the part of it covered by its
child spans.  Every per-layer value is a mean per verdict task or request
(the cold workloads' interactive parse probes are left out, as they are
from the verdict metrics), except the percentiles, medians and end-of-run
counts named as such.
"""

import math
import statistics

from workloads import BATCH, INTERACTIVE, MIN_P99_SAMPLES, PROBE, BenchError

# span name -> layer, for the self-time table
LAYER = {
    "process.start": "runtime (exec, init)",
    "process.exit": "runtime (output, exit)",
    "task": "harness",
    "io.read": "syntax",
    "syntax.parse": "syntax",
    "engine.create": "semantics.Engine",
    "compiled.compile": "semantics.Compiled",
    "lts.explore": "semantics.Lts",
    "lts.verdict": "semantics.Lts",
    "equiv.refine": "semantics.Equiv",
    "sat.check": "assertion.Sat",
    "proof.prove": "proof.Tactic",
    "proof.check": "proof.Check",
    "family.check": "abstraction.Family",
    "server.request": "server (wait, transport)",
    "server.job.parse": "syntax (in serve)",
    "server.job.graph": "semantics.Lts (in serve)",
    "server.job.refine": "semantics.Equiv (in serve)",
    "server.job.prove": "proof.Check (in serve)",
    "server.job.fuzz": "testkit.Fuzz (in serve)",
}

# per-layer count metric -> the Obs snapshot counter it sums
COUNTERS = {
    "lang.intern_misses": "intern.misses",
    "lang.intern_hits": "intern.hits",
    "lang.intern_lock_waits": "intern.lock_waits",
    "step.trans_misses": "step.trans_misses",
    "step.unfold_misses": "step.unfold_misses",
    "step.unfold_hits": "step.unfold_hits",
    "compiled.states": "compiled.states",
    "compiled.fallbacks": "compiled.fallbacks",
    "engine.compile_hits": "engine.compile_hits",
    "engine.compile_misses": "engine.compile_misses",
    "closure.memo_hits": "closure.memo_hits",
    "closure.memo_misses": "closure.memo_misses",
    "closure.nodes": "closure.nodes",
    "sat.trace_evals": "sat.trace_evals",
    "tactic.rules_attempted": "tactic.rules_attempted",
    "check.rules_applied": "check.rules_applied",
    "abstraction.quotient_states": "abstraction.quotient_states",
    "abstraction.classes": "abstraction.classes",
    "abstraction.collapses": "abstraction.collapses",
    "pool.tasks": "pool.tasks",
    "pool.steals": "pool.steals",
    "pool.lock_waits": "pool.lock_waits",
}

# per-layer time metric -> span names whose self time it sums
TIMES = {
    "syntax.parse_ms": ["syntax.parse", "server.job.parse"],
    "compiled.compile_ms": ["compiled.compile"],
    "lts.explore_ms": ["lts.explore", "lts.verdict", "server.job.graph"],
    "equiv.refine_ms": ["equiv.refine", "server.job.refine"],
    "sat.check_ms": ["sat.check"],
    # the prove call's self time: all of it but its Check.check spans
    "proof.search_ms": ["proof.prove"],
    "proof.check_ms": ["proof.check", "server.job.prove"],
    "family.check_ms": ["family.check"],
    "runtime.process_ms": ["process.start", "process.exit"],
}


def _kind_metric(kind):
    return "server.job_ms." + kind


def per_layer_spec():
    """Every per-layer metric: name -> (unit, better)."""
    spec = {}
    spec["syntax.parse_ms"] = ("ms", "lower")
    spec["syntax.source_bytes"] = ("bytes", "lower")
    for name in COUNTERS:
        spec[name] = ("count", "higher" if name.endswith("_hits") else "lower")
    for name in TIMES:
        spec[name] = ("ms", "lower")
    spec["lts.states"] = ("count", "lower")
    spec["lts.transitions"] = ("count", "lower")
    spec["lts.first_query_us_per_transition"] = ("us", "lower")
    spec["proof.tested_obligations"] = ("count", "lower")
    for kind in INTERACTIVE + BATCH:
        spec[_kind_metric(kind)] = ("ms", "lower")
    spec["server.wait_ms_p50"] = ("ms", "lower")
    spec["server.wait_ms_p99"] = ("ms", "lower")
    spec["server.sources"] = ("count", "lower")
    spec["server.compiled"] = ("count", "lower")
    spec["server.proofs"] = ("count", "lower")
    spec["persist.warm_start_ms"] = ("ms", "lower")
    spec["persist.rebuild_compiles"] = ("count", "lower")
    spec["gc.minor_words"] = ("count", "lower")
    spec["gc.major_collections"] = ("count", "lower")
    spec["gc.top_heap_mb"] = ("MB", "lower")
    spec["interactive_ms_p99"] = ("ms", "lower")
    spec["trace.coverage_min"] = ("ratio", "higher")
    return spec


def self_times(spans):
    """Self time in seconds of each span: (name, self) pairs."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = []
    for s in spans:
        covered = 0.0
        end = s["t0"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["t0"]):
            lo, hi = max(c["t0"], end, s["t0"]), min(c["t1"], s["t1"])
            if hi > lo:
                covered += hi - lo
                end = hi
        out.append((s["name"], max(0.0, (s["t1"] - s["t0"]) - covered)))
    return out


def child_spans(sample):
    """The spans of one traced one-shot task, with the parent-side
    process start-up and exit spans added."""
    a = sample.detail["answer"]
    spans = [dict(s, t0=s["t0_us"] / 1e6, t1=s["t1_us"] / 1e6) for s in a["spans"]]
    reaped = sample.detail["wall1"] - sample.detail["spawn_s"]
    spans.append({"id": -2, "parent": -1, "name": "process.start", "t0": 0.0, "t1": a["main_us"] / 1e6, "deltas": {}})
    spans.append({"id": -3, "parent": -1, "name": "process.exit", "t0": a["end_us"] / 1e6, "t1": reaped, "deltas": {}})
    return spans


def request_spans(sample, rid):
    """A serve request as a request span holding its job span."""
    t0 = sample.t_start
    t1 = t0 + sample.ms / 1000.0
    job = min(sample.detail["elapsed_ms"] / 1000.0, t1 - t0)
    op = sample.kind.split(".", 1)[1].split("-", 1)[0]
    return [
        {"id": rid, "parent": -1, "name": "server.request", "t0": t0, "t1": t1, "kind": sample.kind, "deltas": {}},
        {"id": rid + 1, "parent": rid, "name": "server.job." + op, "t0": t1 - job, "t1": t1, "kind": sample.kind, "deltas": sample.detail["stats"]},
    ]


def spans_wall(sample):
    """The wall time the spans of a sample should cover: spawn to reaped
    for a one-shot task, the round trip for a request."""
    if "spawn_s" in sample.detail:
        return sample.detail["wall1"] - sample.detail["spawn_s"]
    return sample.ms / 1000.0


def interactive_ms(samples):
    """Kind -> the latencies of that interactive kind, from the untraced
    answers that did not fail: the client's round trip in serve-mixed,
    the one-shot probe's spawn-to-reaped time in the cold workloads.
    Percentiles are taken per kind, never over a mix of kinds."""
    out = {}
    for s in samples:
        if s.interactive and not s.traced and s.outcome != "failed":
            out.setdefault(s.kind, []).append(s.ms)
    for kind, xs in out.items():
        if len(xs) < MIN_P99_SAMPLES:
            raise BenchError(f"only {len(xs)} samples of {kind}; a percentile needs {MIN_P99_SAMPLES}")
    return out


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def percentile(values, q):
    """Nearest-rank percentile."""
    xs = sorted(values)
    k = max(0, min(len(xs) - 1, int(-(-q * len(xs) // 100)) - 1))
    return xs[k]


def analyse(workload, run, setup):
    """(per-layer metrics, self-time table, span log, coverage list).

    Cold workloads: everything comes from the traced passes.  serve-mixed:
    the spans are client-side and exist for every request, so times come
    from the untraced requests; asking for stats serialises the two jobs
    on the Obs.delta_snapshot mutex, which would inflate them.  Only the
    counters come from the traced requests."""
    serve = workload == "serve-mixed"
    # a child that crashed left no spans; the run already reports it failed
    samples = [s for s in run["samples"] if serve or "answer" in s.detail]
    timed = [s for s in samples if s.traced != serve]
    counted = [s for s in samples if s.traced and not (not serve and s.kind == PROBE)]
    spec = per_layer_spec()
    m = {name: 0.0 for name in spec}
    table, log, coverage = {}, [], []
    n_timed = 0
    graph_ms, graph_trans = 0.0, 0
    for i, s in enumerate(timed):
        spans = request_spans(s, 2 * i) if serve else child_spans(s)
        selfs = self_times(spans)
        wall = spans_wall(s)
        coverage.append(sum(t for _, t in selfs) / wall if wall > 0 else 1.0)
        for name, t in selfs:
            table[name] = table.get(name, 0.0) + t
        log.append({"task": s.kind, "id": i, "wall_ms": s.ms, "spans": spans})
        if not serve and s.kind == PROBE:
            continue
        n_timed += 1
        for name, t in selfs:
            for metric, names in TIMES.items():
                if name in names:
                    m[metric] += t * 1000.0
        if workload == "cold-explore":
            graph_ms += sum(t for name, t in selfs if name in ("compiled.compile", "lts.explore")) * 1000.0
            graph_trans += s.detail["answer"]["facts"]["transitions"]
    for metric in TIMES:
        m[metric] /= max(1, n_timed)
    if graph_trans:
        m["lts.first_query_us_per_transition"] = graph_ms * 1000.0 / graph_trans
    m["trace.coverage_min"] = min(coverage) if coverage else 0.0
    m["interactive_ms_p99"] = geomean([percentile(xs, 99) for xs in interactive_ms(run["samples"]).values()])

    counts = {}
    for s in counted:
        deltas = s.detail["stats"] if serve else {}
        if not serve:
            for sp in s.detail["answer"]["spans"]:
                for k, v in sp["deltas"].items():
                    deltas[k] = deltas.get(k, 0) + v
        for k, v in deltas.items():
            counts[k] = counts.get(k, 0) + v
        facts = s.detail["facts"] if serve else s.detail["answer"]["facts"]
        counts["@source_bytes"] = counts.get("@source_bytes", 0) + facts.get("source_bytes", s.detail.get("source_bytes", 0))
        for key in ("states", "transitions", "tested_obligations"):
            counts["@" + key] = counts.get("@" + key, 0) + facts.get(key, 0)
        if not serve:
            for key, value in s.detail["answer"]["gc"].items():
                counts["@gc." + key] = counts.get("@gc." + key, 0) + value
    n = max(1, len(counted))
    for metric, key in COUNTERS.items():
        m[metric] = counts.get(key, 0) / n
    for metric, key in [
        ("syntax.source_bytes", "@source_bytes"),
        ("lts.states", "@states"),
        ("lts.transitions", "@transitions"),
        ("proof.tested_obligations", "@tested_obligations"),
        ("gc.minor_words", "@gc.minor_words"),
        ("gc.major_collections", "@gc.major_collections"),
        ("gc.top_heap_mb", "@gc.top_heap_mb"),
    ]:
        m[metric] = counts.get(key, 0) / n

    if serve:
        for kind in INTERACTIVE + BATCH:
            xs = [s.detail["elapsed_ms"] for s in timed if s.kind == kind]
            m[_kind_metric(kind)] = statistics.median(xs) if xs else 0.0
        # round trip minus the server's own elapsed time, per
        # interactive kind, combined by geometric mean
        p50s, p99s = [], []
        for kind in INTERACTIVE:
            waits = [max(1e-6, s.ms - s.detail["elapsed_ms"]) for s in timed if s.kind == kind]
            if len(waits) >= MIN_P99_SAMPLES:
                p50s.append(percentile(waits, 50))
                p99s.append(percentile(waits, 99))
        if p50s:
            m["server.wait_ms_p50"] = geomean(p50s)
            m["server.wait_ms_p99"] = geomean(p99s)
        final = run["server_stats"]
        m["server.sources"] = final.get("sources", 0)
        m["server.compiled"] = final.get("compiled", 0)
        m["server.proofs"] = final.get("proofs", 0)
        m["persist.warm_start_ms"] = setup["warm_start_ms"]
        m["persist.rebuild_compiles"] = setup["rebuild_compiles"]
    return m, table, log, coverage
