#!/usr/bin/env python3
"""CI gate over BENCH_tier2.json/v1 and BENCH_analysis.json/v1 files.

Subcommands:
  validate FILE...   check each file against the BENCH_tier2.json/v1 schema
  gate ON OFF --benches A,B [--min-geomean X]
                     compare the Safe Sulong ns_per_op of two runs of the
                     same benchmarks (optimizations ON vs ablated OFF) and
                     fail unless geomean(OFF/ON) >= the threshold; also
                     fail if the retired-step counts differ, since the
                     optimizing tier must do the same guest work.
  tier3 FILE [--benches A,B] [--min-geomean X]
                     validate a BENCH_tier3.json/v1 report (bench_tier3
                     --json) and fail unless, over the named benchmarks
                     (default: the perf-gate set), tier-3 retired exactly
                     the same guest steps as tier-2, actually translated
                     code, and the geomean same-process speedup meets the
                     threshold.
  analysis FILE [--min-recall X] [--min-definite-recall Y]
                [--require-scaling] [--max-scaling-blowup X]
                [--fewer-maybes-than OTHER]
                     validate a BENCH_analysis.json/v1 cross-validation
                     report and fail on any false `definite` static
                     finding (the analyzer's soundness contract) or on
                     recall below the floors; optionally check the
                     program-size scaling curve for superlinear blowup
                     and compare maybe-finding counts against an
                     ablation run.
  obs [METRICS] [--trace FILE] [--expo FILE] [--require NAME...]
                     validate an obs/v1 metrics document (and optionally
                     a Chrome trace-event file) emitted by --metrics-json
                     / --trace-out; each --require'd counter must be
                     present and nonzero ("a|b" accepts either).
                     --expo validates a Prometheus text exposition
                     (--metrics-expo / msulong_client --stats --expo):
                     TYPE lines, sample syntax, cumulative histogram
                     buckets ending at +Inf == _count.
  overhead --base B... --with W... --benches A,B [--max-ratio X]
                     compare Safe Sulong ns_per_op of a telemetry-enabled
                     build (--with) against the MS_OBS=OFF baseline
                     (--base) over paired measurement rounds, and fail
                     if the geomean of per-bench median ratios exceeds
                     the ceiling — disabled hooks must be (near) free.
  fuzz FILE [--min-programs N] [--min-rate X]
                     validate a BENCH_fuzz.json/v1 campaign report
                     (fuzz_runner --json) and fail on any unexplained
                     disagreement, any compile error, any injected bug
                     the managed engine missed, a malformed shrink
                     ratio, or a campaign smaller/slower than the floors.
  service FILE [--min-jobs N] [--min-rate X] [--min-postmortems N]
                     validate a BENCH_service.json/v1 chaos-load report
                     (bench_service --json) and fail on any daemon
                     death, any job not answered with exactly one
                     structured frame, an unhealthy daemon after load,
                     a dirty drain, a failed mid-load stats scrape, or
                     a load smaller/slower than the floors.
"""

import argparse
import json
import math
import re
import sys

SCHEMA = "BENCH_tier2.json/v1"
ENGINE = "Safe Sulong"


def fail(msg):
    print(f"bench_gate: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        fail(f"{path}: top level is not an object")
    if doc.get("schema") != SCHEMA:
        fail(f"{path}: schema is {doc.get('schema')!r}, want {SCHEMA!r}")
    records = doc.get("records")
    if not isinstance(records, list) or not records:
        fail(f"{path}: records missing or empty")
    for i, r in enumerate(records):
        where = f"{path}: records[{i}]"
        if not isinstance(r, dict):
            fail(f"{where}: not an object")
        for key in ("bench", "engine", "config"):
            if not isinstance(r.get(key), str):
                fail(f"{where}: {key} missing or not a string")
        if not r["bench"] or not r["engine"]:
            fail(f"{where}: bench/engine must be non-empty")
        ns = r.get("ns_per_op")
        if not isinstance(ns, (int, float)) or ns <= 0:
            fail(f"{where}: ns_per_op must be a positive number, got {ns!r}")
        steps = r.get("steps_per_op")
        if not isinstance(steps, int) or steps < 0:
            fail(f"{where}: steps_per_op must be a non-negative int,"
                 f" got {steps!r}")
    return records


def sulong_records(path):
    out = {}
    for r in load(path):
        if r["engine"] == ENGINE:
            if r["bench"] in out:
                fail(f"{path}: duplicate {ENGINE} record for {r['bench']}")
            out[r["bench"]] = r
    return out


def cmd_validate(args):
    for path in args.files:
        records = load(path)
        print(f"{path}: ok ({len(records)} records)")
    return 0


def cmd_gate(args):
    on = sulong_records(args.on)
    off = sulong_records(args.off)
    benches = [b for b in args.benches.split(",") if b]
    if not benches:
        fail("--benches is empty")
    ratios = []
    for bench in benches:
        if bench not in on:
            fail(f"{args.on}: no {ENGINE} record for {bench}")
        if bench not in off:
            fail(f"{args.off}: no {ENGINE} record for {bench}")
        if on[bench]["steps_per_op"] != off[bench]["steps_per_op"]:
            fail(f"{bench}: steps_per_op differs "
                 f"({on[bench]['steps_per_op']} vs "
                 f"{off[bench]['steps_per_op']}) — the optimizing tier "
                 "must retire the same guest work")
        ratio = off[bench]["ns_per_op"] / on[bench]["ns_per_op"]
        ratios.append(ratio)
        print(f"{bench}: on={on[bench]['ns_per_op'] / 1e6:.1f}ms "
              f"off={off[bench]['ns_per_op'] / 1e6:.1f}ms "
              f"speedup={ratio:.2f}x")
    geomean = math.exp(sum(map(math.log, ratios)) / len(ratios))
    print(f"geomean speedup: {geomean:.3f}x (threshold {args.min_geomean}x)")
    if geomean < args.min_geomean:
        fail(f"geomean {geomean:.3f}x below threshold {args.min_geomean}x")
    return 0


TIER3_SCHEMA = "BENCH_tier3.json/v1"

# The benches the tier-3 PR is gated on: the call- and pointer-bound
# workloads threaded dispatch targets. The full suite's geomean includes
# float-heavy kernels tier-3 helps less, so gating on it would only
# measure host noise.
TIER3_DEFAULT_BENCHES = "fig16.calltower,fig16.pointerchase"


def load_tier3(path):
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        fail(f"{path}: top level is not an object")
    if doc.get("schema") != TIER3_SCHEMA:
        fail(f"{path}: schema is {doc.get('schema')!r},"
             f" want {TIER3_SCHEMA!r}")
    records = doc.get("records")
    if not isinstance(records, list) or not records:
        fail(f"{path}: records missing or empty")
    out = {}
    for i, r in enumerate(records):
        where = f"{path}: records[{i}]"
        if not isinstance(r, dict):
            fail(f"{where}: not an object")
        for key in ("bench", "config"):
            if not isinstance(r.get(key), str) or not r[key]:
                fail(f"{where}: {key} missing or empty")
        for key in ("tier2_ns_per_op", "tier3_ns_per_op", "speedup"):
            v = r.get(key)
            if not isinstance(v, (int, float)) or v <= 0:
                fail(f"{where}: {key} must be a positive number,"
                     f" got {v!r}")
        for key in ("tier2_steps", "tier3_steps", "t3_compiles",
                    "t3_superblocks", "t3_osr_entries", "t3_deopt_mega",
                    "t3_deopt_shape", "t3_deopt_steps", "t3_deopt_bug"):
            v = r.get(key)
            if not isinstance(v, int) or v < 0:
                fail(f"{where}: {key} must be a non-negative int,"
                     f" got {v!r}")
        if r["bench"] in out:
            fail(f"{path}: duplicate record for {r['bench']}")
        out[r["bench"]] = r
    return out


def cmd_tier3(args):
    records = load_tier3(args.file)
    benches = [b for b in args.benches.split(",") if b]
    if not benches:
        fail("--benches is empty")
    ratios = []
    for bench in benches:
        r = records.get(bench)
        if r is None:
            fail(f"{args.file}: no record for {bench}")
        if r["tier2_steps"] != r["tier3_steps"]:
            fail(f"{bench}: retired steps differ (tier2"
                 f" {r['tier2_steps']}, tier3 {r['tier3_steps']}) —"
                 " tier-3 must do exactly the same guest work")
        if r["t3_compiles"] == 0:
            fail(f"{bench}: t3_compiles is 0 — the tier-3 arm never"
                 " translated anything, so the comparison is vacuous")
        ratio = r["tier2_ns_per_op"] / r["tier3_ns_per_op"]
        ratios.append(ratio)
        deopts = (r["t3_deopt_mega"] + r["t3_deopt_shape"] +
                  r["t3_deopt_steps"] + r["t3_deopt_bug"])
        print(f"{bench}: tier2={r['tier2_ns_per_op'] / 1e6:.1f}ms "
              f"tier3={r['tier3_ns_per_op'] / 1e6:.1f}ms "
              f"speedup={ratio:.2f}x sblocks={r['t3_superblocks']} "
              f"osr={r['t3_osr_entries']} deopts={deopts}")
    geomean = math.exp(sum(map(math.log, ratios)) / len(ratios))
    print(f"geomean tier-3 speedup: {geomean:.3f}x"
          f" (threshold {args.min_geomean}x)")
    if geomean < args.min_geomean:
        fail(f"geomean {geomean:.3f}x below threshold"
             f" {args.min_geomean}x")
    return 0


ANALYSIS_SCHEMA = "BENCH_analysis.json/v1"


def load_analysis(path):
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        fail(f"{path}: top level is not an object")
    if doc.get("schema") != ANALYSIS_SCHEMA:
        fail(f"{path}: schema is {doc.get('schema')!r},"
             f" want {ANALYSIS_SCHEMA!r}")
    for key in ("corpus_size", "definite_findings", "maybe_findings",
                "false_definites", "static_hits", "definite_hits"):
        v = doc.get(key)
        if not isinstance(v, int) or v < 0:
            fail(f"{path}: {key} must be a non-negative int, got {v!r}")
    for key in ("recall", "definite_recall"):
        v = doc.get(key)
        if not isinstance(v, (int, float)) or not 0 <= v <= 1:
            fail(f"{path}: {key} must be in [0, 1], got {v!r}")
    wall = doc.get("wall_ms")
    if not isinstance(wall, (int, float)) or wall < 0:
        fail(f"{path}: wall_ms must be a non-negative number, got {wall!r}")
    if doc["corpus_size"] == 0:
        fail(f"{path}: corpus_size is 0 — nothing was cross-validated")
    if not isinstance(doc.get("refuted"), bool):
        fail(f"{path}: refuted must be a bool")
    # Interprocedural fields (absent in pre-interprocedural reports).
    if "summaries" in doc and not isinstance(doc["summaries"], bool):
        fail(f"{path}: summaries must be a bool")
    for key in ("summaries_applied", "interproc_definite",
                "interproc_maybe", "cache_hits", "cache_misses"):
        if key in doc:
            v = doc[key]
            if not isinstance(v, int) or v < 0:
                fail(f"{path}: {key} must be a non-negative int, got {v!r}")
    if "scaling" in doc:
        scaling = doc["scaling"]
        if not isinstance(scaling, list):
            fail(f"{path}: scaling must be a list")
        for i, p in enumerate(scaling):
            where = f"{path}: scaling[{i}]"
            if not isinstance(p, dict):
                fail(f"{where}: not an object")
            for key in ("n", "functions", "sccs"):
                v = p.get(key)
                if not isinstance(v, int) or v <= 0:
                    fail(f"{where}: {key} must be a positive int, got {v!r}")
            wall = p.get("wall_ms")
            if not isinstance(wall, (int, float)) or wall < 0:
                fail(f"{where}: wall_ms must be a non-negative number,"
                     f" got {wall!r}")
    return doc


def check_scaling(path, doc, max_blowup):
    """The bench analyzes call chains of N helpers for growing N; the
    analysis must stay roughly linear in program size. Wall clock on CI
    is noisy at sub-millisecond scale, so the gate checks structure
    strictly (monotone N, function counts tracking N, SCC condensation
    actually happening) and per-function time only against a generous
    blowup ceiling."""
    scaling = doc.get("scaling")
    if not scaling:
        fail(f"{path}: scaling curve missing or empty — the bench did"
             " not measure the program-size curve")
    prev_n = 0
    for p in scaling:
        if p["n"] <= prev_n:
            fail(f"{path}: scaling curve Ns are not strictly increasing")
        prev_n = p["n"]
        if p["functions"] < p["n"]:
            fail(f"{path}: scaling point N={p['n']} analyzed only"
                 f" {p['functions']} functions — the chain was not"
                 " analyzed whole-program")
        if p["sccs"] < p["functions"]:
            fail(f"{path}: scaling point N={p['n']} has fewer SCCs"
                 f" ({p['sccs']}) than functions ({p['functions']}) —"
                 " a non-recursive chain must condense to singleton SCCs")
    first, last = scaling[0], scaling[-1]
    per_fn_first = max(first["wall_ms"], 1e-3) / first["functions"]
    per_fn_last = max(last["wall_ms"], 1e-3) / last["functions"]
    blowup = per_fn_last / per_fn_first
    print(f"{path}: scaling N={first['n']}..{last['n']},"
          f" per-function time blowup {blowup:.2f}x"
          f" (ceiling {max_blowup}x)")
    if blowup > max_blowup:
        fail(f"{path}: per-function analysis time grew {blowup:.2f}x"
             f" from N={first['n']} to N={last['n']} (ceiling"
             f" {max_blowup}x) — superlinear blowup in the"
             " interprocedural analysis")


def cmd_analysis(args):
    doc = load_analysis(args.file)
    print(f"{args.file}: ok (corpus {doc['corpus_size']},"
          f" recall {doc['recall']:.3f},"
          f" definite recall {doc['definite_recall']:.3f},"
          f" false definites {doc['false_definites']},"
          f" {doc['wall_ms']:.0f} ms)")
    if not doc["refuted"]:
        fail(f"{args.file}: report was produced with refutation off —"
             " the soundness contract was not checked")
    if doc["false_definites"] != 0:
        fail(f"{args.file}: {doc['false_definites']} false definite"
             " finding(s) — the analyzer reported a definite bug the"
             " dynamic detector does not reproduce")
    if doc["recall"] < args.min_recall:
        fail(f"{args.file}: recall {doc['recall']:.3f} below floor"
             f" {args.min_recall}")
    if doc["definite_recall"] < args.min_definite_recall:
        fail(f"{args.file}: definite recall {doc['definite_recall']:.3f}"
             f" below floor {args.min_definite_recall}")
    if args.require_scaling or "scaling" in doc:
        check_scaling(args.file, doc, args.max_scaling_blowup)
    if args.fewer_maybes_than:
        other = load_analysis(args.fewer_maybes_than)
        print(f"{args.file}: maybe findings {doc['maybe_findings']} vs"
              f" {args.fewer_maybes_than}: {other['maybe_findings']}")
        if doc["maybe_findings"] >= other["maybe_findings"]:
            fail(f"{args.file}: {doc['maybe_findings']} maybe findings"
                 f" is not strictly fewer than"
                 f" {args.fewer_maybes_than}'s"
                 f" {other['maybe_findings']} — the ablated arm should"
                 " lose precision")
    return 0


OBS_SCHEMA = "obs/v1"


def load_obs_metrics(path):
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        fail(f"{path}: top level is not an object")
    if doc.get("schema") != OBS_SCHEMA:
        fail(f"{path}: schema is {doc.get('schema')!r}, want {OBS_SCHEMA!r}")
    counters = doc.get("counters")
    if not isinstance(counters, dict):
        fail(f"{path}: counters missing or not an object")
    for name, value in counters.items():
        if not isinstance(value, int) or value < 0:
            fail(f"{path}: counter {name!r} must be a non-negative int,"
                 f" got {value!r}")
    gauges = doc.get("gauges")
    if not isinstance(gauges, dict):
        fail(f"{path}: gauges missing or not an object")
    for name, value in gauges.items():
        if not isinstance(value, int):
            fail(f"{path}: gauge {name!r} must be an int, got {value!r}")
    histograms = doc.get("histograms")
    if not isinstance(histograms, dict):
        fail(f"{path}: histograms missing or not an object")
    for name, hist in histograms.items():
        where = f"{path}: histogram {name!r}"
        if not isinstance(hist, dict):
            fail(f"{where}: not an object")
        for key in ("count", "sum"):
            v = hist.get(key)
            if not isinstance(v, int) or v < 0:
                fail(f"{where}: {key} must be a non-negative int, got {v!r}")
        buckets = hist.get("buckets")
        if not isinstance(buckets, list):
            fail(f"{where}: buckets missing or not a list")
        total = 0
        for b in buckets:
            if (not isinstance(b, list) or len(b) != 3 or
                    not all(isinstance(x, int) and x >= 0 for x in b)):
                fail(f"{where}: bucket {b!r} is not a [lo, hi, count]"
                     " triple of non-negative ints")
            lo, hi, count = b
            if lo > hi:
                fail(f"{where}: bucket [{lo}, {hi}] has lo > hi")
            total += count
        if total != hist["count"]:
            fail(f"{where}: bucket counts sum to {total},"
                 f" count says {hist['count']}")
        for key in ("p50", "p90", "p99"):
            v = hist.get(key)
            if not isinstance(v, int) or v < 0:
                fail(f"{where}: {key} must be a non-negative int,"
                     f" got {v!r}")
        if not hist["p50"] <= hist["p90"] <= hist["p99"]:
            fail(f"{where}: percentiles are not monotonic:"
                 f" p50={hist['p50']} p90={hist['p90']} p99={hist['p99']}")
        if buckets and hist["p99"] > buckets[-1][1]:
            fail(f"{where}: p99 {hist['p99']} above the last bucket's"
                 f" upper bound {buckets[-1][1]}")
    return doc


def check_prometheus_expo(path):
    """Validate a Prometheus text-format (0.0.4) exposition: every
    sample belongs to a typed family, histogram buckets are cumulative
    and end at +Inf == _count, and values parse."""
    with open(path) as f:
        text = f.read()
    if not text.strip():
        fail(f"{path}: exposition is empty")
    typed = {}
    # family -> list of (labels, value) for its _bucket samples, plus
    # its _count samples keyed by the non-le labels.
    hist_buckets = {}
    hist_counts = {}
    samples = 0
    sample_re = re.compile(
        r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})?\s+(\S+)$')
    for lineno, line in enumerate(text.splitlines(), 1):
        where = f"{path}:{lineno}"
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) == 4 and parts[1] == "TYPE":
                name, kind = parts[2], parts[3]
                if name in typed:
                    fail(f"{where}: duplicate TYPE for {name}")
                if kind not in ("counter", "gauge", "histogram"):
                    fail(f"{where}: unknown metric type {kind!r}")
                typed[name] = kind
            elif parts[:2] == ["#", "HELP"]:
                pass
            else:
                fail(f"{where}: unrecognized comment {line!r}")
            continue
        m = sample_re.match(line)
        if m is None:
            fail(f"{where}: unparseable sample {line!r}")
        name, labels, value = m.group(1), m.group(2) or "", m.group(3)
        try:
            number = float(value)
        except ValueError:
            fail(f"{where}: value {value!r} is not a number")
        samples += 1
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[:-len(suffix)] if name.endswith(suffix) else None
            if base and typed.get(base) == "histogram":
                family = base
                break
        if family not in typed:
            fail(f"{where}: sample {name!r} has no preceding TYPE line")
        if typed[family] == "histogram" and name.endswith("_bucket"):
            le = re.search(r'le="([^"]*)"', labels)
            if le is None:
                fail(f"{where}: histogram bucket without an le label")
            # The emitter puts le last; strip it (and its comma) to
            # recover the labels the _count sample carries.
            rest = re.sub(r',?le="[^"]*"', "", labels)
            if rest == "{}":
                rest = ""
            hist_buckets.setdefault((family, rest), []).append(
                (le.group(1), number, lineno))
        if typed[family] == "histogram" and name.endswith("_count"):
            hist_counts[(family, labels)] = number
    for (family, rest), buckets in hist_buckets.items():
        prev = -1.0
        for le, number, lineno in buckets:
            if number < prev:
                fail(f"{path}:{lineno}: histogram {family} buckets are"
                     f" not cumulative ({number} after {prev})")
            prev = number
        last_le, last_value, lineno = buckets[-1]
        if last_le != "+Inf":
            fail(f"{path}:{lineno}: histogram {family} does not end at"
                 " le=\"+Inf\"")
        count = hist_counts.get((family, rest))
        if count is None:
            fail(f"{path}: histogram {family} has buckets but no _count")
        if last_value != count:
            fail(f"{path}: histogram {family}: +Inf bucket {last_value}"
                 f" != _count {count}")
    if samples == 0:
        fail(f"{path}: exposition has no samples")
    return samples, len(typed)


def check_obs_trace(path):
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        fail(f"{path}: top level is not an object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail(f"{path}: traceEvents missing or not a list")
    if not events:
        fail(f"{path}: traceEvents is empty — tracing produced nothing")
    for i, e in enumerate(events):
        where = f"{path}: traceEvents[{i}]"
        if not isinstance(e, dict):
            fail(f"{where}: not an object")
        if not isinstance(e.get("name"), str) or not e["name"]:
            fail(f"{where}: name missing or empty")
        if e.get("ph") not in ("X", "i"):
            fail(f"{where}: ph is {e.get('ph')!r}, want 'X' or 'i'")
        for key in ("ts", "pid", "tid"):
            if not isinstance(e.get(key), (int, float)):
                fail(f"{where}: {key} missing or not a number")
        if e["ph"] == "X" and not isinstance(e.get("dur"), (int, float)):
            fail(f"{where}: complete span without a dur")
    return events


def cmd_obs(args):
    if args.metrics is None and not args.expo:
        fail("obs: need a METRICS file and/or --expo FILE")
    if args.metrics is not None:
        doc = load_obs_metrics(args.metrics)
        counters = doc["counters"]
        for requirement in args.require:
            # "a|b" means any one of the alternatives satisfies it.
            alternatives = [n for n in requirement.split("|") if n]
            if not any(counters.get(n, 0) > 0 for n in alternatives):
                fail(f"{args.metrics}: required counter {requirement!r}"
                     " is missing or zero")
        print(f"{args.metrics}: ok ({len(counters)} counters,"
              f" {len(doc['histograms'])} histograms,"
              f" {len(args.require)} requirement(s) met)")
    if args.trace:
        events = check_obs_trace(args.trace)
        spans = sum(1 for e in events if e["ph"] == "X")
        print(f"{args.trace}: ok ({len(events)} events, {spans} spans)")
    if args.expo:
        samples, families = check_prometheus_expo(args.expo)
        print(f"{args.expo}: ok ({samples} samples,"
              f" {families} typed families)")
    return 0


def cmd_overhead(args):
    """Wall-clock comparisons on shared CI hosts are noisy (frequency
    scaling, co-tenancy) at a scale far above the overhead ceiling, so
    the gate takes several PAIRED rounds — each round runs both builds
    back to back, ideally alternating which goes first — and judges the
    per-bench MEDIAN of the per-round ratios. Pairing cancels slow
    drift; the median discards rounds where a scheduler hiccup landed on
    one side; alternation cancels within-round warm-up bias."""
    if len(args.base) != len(args.with_obs):
        fail(f"--base has {len(args.base)} file(s) but --with has"
             f" {len(args.with_obs)} — rounds must be paired")
    base_rounds = [sulong_records(p) for p in args.base]
    with_rounds = [sulong_records(p) for p in args.with_obs]
    benches = [b for b in args.benches.split(",") if b]
    if not benches:
        fail("--benches is empty")
    medians = []
    for bench in benches:
        ratios = []
        for base, with_obs, bp, wp in zip(base_rounds, with_rounds,
                                          args.base, args.with_obs):
            if bench not in base:
                fail(f"{bp}: no {ENGINE} record for {bench}")
            if bench not in with_obs:
                fail(f"{wp}: no {ENGINE} record for {bench}")
            if base[bench]["steps_per_op"] != with_obs[bench]["steps_per_op"]:
                fail(f"{bench}: steps_per_op differs "
                     f"({base[bench]['steps_per_op']} vs "
                     f"{with_obs[bench]['steps_per_op']}) — telemetry hooks "
                     "must not change the guest work retired")
            ratios.append(with_obs[bench]["ns_per_op"] /
                          base[bench]["ns_per_op"])
        ratios.sort()
        mid = len(ratios) // 2
        if len(ratios) % 2:
            median = ratios[mid]
        else:
            median = math.sqrt(ratios[mid - 1] * ratios[mid])
        medians.append(median)
        rounds = ", ".join(f"{r:.3f}" for r in ratios)
        print(f"{bench}: per-round ratios [{rounds}] median={median:.3f}x")
    geomean = math.exp(sum(map(math.log, medians)) / len(medians))
    print(f"geomean overhead: {geomean:.3f}x (ceiling {args.max_ratio}x)")
    if geomean > args.max_ratio:
        fail(f"disabled-telemetry overhead {geomean:.3f}x exceeds"
             f" ceiling {args.max_ratio}x")
    return 0


FUZZ_SCHEMA = "BENCH_fuzz.json/v1"


def load_fuzz(path):
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        fail(f"{path}: top level is not an object")
    if doc.get("schema") != FUZZ_SCHEMA:
        fail(f"{path}: schema is {doc.get('schema')!r}, want {FUZZ_SCHEMA!r}")
    for key in ("seed_begin", "seed_count", "bug_ratio_pct", "jobs",
                "programs", "clean", "injected", "compile_errors",
                "injected_detected_managed", "unexplained", "survivors",
                "duplicates_collapsed"):
        v = doc.get(key)
        if not isinstance(v, int) or v < 0:
            fail(f"{path}: {key} must be a non-negative int, got {v!r}")
    for key in ("wall_ms", "programs_per_sec"):
        v = doc.get(key)
        if not isinstance(v, (int, float)) or v < 0:
            fail(f"{path}: {key} must be a non-negative number, got {v!r}")
    static = doc.get("static")
    if not isinstance(static, dict):
        fail(f"{path}: static missing or not an object")
    for key in ("hits", "definite", "maybe"):
        v = static.get(key)
        if not isinstance(v, int) or v < 0:
            fail(f"{path}: static.{key} must be a non-negative int,"
                 f" got {v!r}")
    disagreements = doc.get("disagreements")
    if not isinstance(disagreements, dict):
        fail(f"{path}: disagreements missing or not an object")
    for key in ("missed-bug", "false-positive", "output-divergence",
                "termination-divergence"):
        v = disagreements.get(key)
        if not isinstance(v, int) or v < 0:
            fail(f"{path}: disagreements[{key!r}] must be a non-negative"
                 f" int, got {v!r}")
    minimizer = doc.get("minimizer")
    if not isinstance(minimizer, dict):
        fail(f"{path}: minimizer missing or not an object")
    runs = minimizer.get("predicate_runs")
    if not isinstance(runs, int) or runs < 0:
        fail(f"{path}: minimizer.predicate_runs must be a non-negative"
             f" int, got {runs!r}")
    shrink = minimizer.get("shrink_ratio")
    if not isinstance(shrink, (int, float)) or not 0 <= shrink <= 1:
        fail(f"{path}: minimizer.shrink_ratio must be in [0, 1],"
             f" got {shrink!r}")
    if doc["clean"] + doc["injected"] != doc["programs"]:
        fail(f"{path}: clean ({doc['clean']}) + injected"
             f" ({doc['injected']}) != programs ({doc['programs']})")
    return doc


def cmd_fuzz(args):
    doc = load_fuzz(args.file)
    print(f"{args.file}: ok ({doc['programs']} programs from seed"
          f" {doc['seed_begin']}, {doc['injected']} injected,"
          f" {doc['unexplained']} unexplained,"
          f" {doc['survivors']} survivor(s),"
          f" {doc['programs_per_sec']:.1f} programs/s)")
    if doc["programs"] <= 0:
        fail(f"{args.file}: campaign ran zero programs")
    if doc["programs"] < args.min_programs:
        fail(f"{args.file}: only {doc['programs']} programs, floor is"
             f" {args.min_programs}")
    if doc["unexplained"] != 0:
        fail(f"{args.file}: {doc['unexplained']} unexplained"
             " disagreement(s) — an engine, the oracle, or the ground"
             " truth is wrong; triage the survivors")
    if doc["compile_errors"] != 0:
        fail(f"{args.file}: {doc['compile_errors']} generated program(s)"
             " failed to compile — the generator emitted invalid C")
    if doc["injected_detected_managed"] != doc["injected"]:
        fail(f"{args.file}: managed engine detected"
             f" {doc['injected_detected_managed']} of {doc['injected']}"
             " injected bugs — the managed model must catch every class")
    if doc["programs_per_sec"] < args.min_rate:
        fail(f"{args.file}: throughput {doc['programs_per_sec']:.1f}"
             f" programs/s below floor {args.min_rate}")
    return 0


SERVICE_SCHEMA = "BENCH_service.json/v1"


def load_service(path):
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        fail(f"{path}: top level is not an object")
    if doc.get("schema") != SERVICE_SCHEMA:
        fail(f"{path}: schema is {doc.get('schema')!r},"
             f" want {SERVICE_SCHEMA!r}")
    for key in ("clients", "workers", "jobs_total", "ok", "bug",
                "error_frames", "structured_replies",
                "transport_failures", "daemon_deaths"):
        v = doc.get(key)
        if not isinstance(v, int) or v < 0:
            fail(f"{path}: {key} must be a non-negative int, got {v!r}")
    for key in ("wall_ms", "jobs_per_sec"):
        v = doc.get(key)
        if not isinstance(v, (int, float)) or v < 0:
            fail(f"{path}: {key} must be a non-negative number, got {v!r}")
    for key in ("healthy_after_load", "drained_clean", "stats_ok"):
        if not isinstance(doc.get(key), bool):
            fail(f"{path}: {key} must be a bool")
    v = doc.get("postmortems")
    if not isinstance(v, int) or v < 0:
        fail(f"{path}: postmortems must be a non-negative int, got {v!r}")
    latency = doc.get("latency_ms")
    if not isinstance(latency, dict):
        fail(f"{path}: latency_ms missing or not an object")
    for key in ("p50", "p90", "p99"):
        v = latency.get(key)
        if not isinstance(v, (int, float)) or v < 0:
            fail(f"{path}: latency_ms.{key} must be a non-negative"
                 f" number, got {v!r}")
    if latency["p50"] > latency["p90"] or latency["p90"] > latency["p99"]:
        fail(f"{path}: latency percentiles are not monotonic")
    if doc["ok"] + doc["bug"] + doc["error_frames"] != \
            doc["structured_replies"]:
        fail(f"{path}: ok + bug + error_frames !="
             f" structured_replies ({doc['structured_replies']})")
    return doc


def cmd_service(args):
    doc = load_service(args.file)
    print(f"{args.file}: ok ({doc['jobs_total']} jobs,"
          f" {doc['clients']} clients, {doc['structured_replies']}"
          f" structured, {doc['error_frames']} error frames,"
          f" {doc['jobs_per_sec']:.1f} jobs/s,"
          f" p99 {doc['latency_ms']['p99']:.1f} ms)")
    if doc["daemon_deaths"] != 0:
        fail(f"{args.file}: {doc['daemon_deaths']} daemon death(s) —"
             " an injected fault escaped its job isolation")
    if doc["structured_replies"] + doc["transport_failures"] != \
            doc["jobs_total"]:
        fail(f"{args.file}: accounting hole —"
             f" {doc['structured_replies']} structured +"
             f" {doc['transport_failures']} transport !="
             f" {doc['jobs_total']} jobs")
    if doc["transport_failures"] != 0:
        fail(f"{args.file}: {doc['transport_failures']} job(s) never"
             " received a structured reply — every failure must degrade"
             " into an answered error, not silence")
    if not doc["healthy_after_load"]:
        fail(f"{args.file}: daemon did not answer a health probe after"
             " the load")
    if not doc["drained_clean"]:
        fail(f"{args.file}: drain did not complete cleanly")
    if not doc["stats_ok"]:
        fail(f"{args.file}: the mid-load stats scrape failed — the"
             " daemon must answer statsRequest frames under load")
    if doc["postmortems"] < args.min_postmortems:
        fail(f"{args.file}: only {doc['postmortems']} postmortem(s),"
             f" floor is {args.min_postmortems}")
    if doc["jobs_total"] < args.min_jobs:
        fail(f"{args.file}: only {doc['jobs_total']} jobs, floor is"
             f" {args.min_jobs}")
    if doc["jobs_per_sec"] < args.min_rate:
        fail(f"{args.file}: throughput {doc['jobs_per_sec']:.1f} jobs/s"
             f" below floor {args.min_rate}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_validate = sub.add_parser("validate")
    p_validate.add_argument("files", nargs="+")
    p_validate.set_defaults(func=cmd_validate)
    p_gate = sub.add_parser("gate")
    p_gate.add_argument("on")
    p_gate.add_argument("off")
    p_gate.add_argument("--benches", required=True,
                        help="comma-separated bench names to compare")
    p_gate.add_argument("--min-geomean", type=float, default=1.2)
    p_gate.set_defaults(func=cmd_gate)
    p_tier3 = sub.add_parser("tier3")
    p_tier3.add_argument("file")
    p_tier3.add_argument("--benches", default=TIER3_DEFAULT_BENCHES,
                         help="comma-separated bench names to gate on")
    p_tier3.add_argument("--min-geomean", type=float, default=1.4)
    p_tier3.set_defaults(func=cmd_tier3)
    p_analysis = sub.add_parser("analysis")
    p_analysis.add_argument("file")
    p_analysis.add_argument("--min-recall", type=float, default=0.95)
    p_analysis.add_argument("--min-definite-recall", type=float,
                            default=0.90)
    p_analysis.add_argument("--require-scaling", action="store_true",
                            help="fail if the report has no program-size"
                                 " scaling curve")
    p_analysis.add_argument("--max-scaling-blowup", type=float,
                            default=25.0,
                            help="ceiling on per-function analysis-time"
                                 " growth across the scaling curve")
    p_analysis.add_argument("--fewer-maybes-than", metavar="OTHER",
                            help="fail unless this report has strictly"
                                 " fewer maybe findings than OTHER"
                                 " (ablation comparison)")
    p_analysis.set_defaults(func=cmd_analysis)
    p_obs = sub.add_parser("obs")
    p_obs.add_argument("metrics", nargs="?")
    p_obs.add_argument("--trace", help="Chrome trace-event file to check")
    p_obs.add_argument("--expo",
                       help="Prometheus text exposition to check")
    p_obs.add_argument("--require", nargs="*", default=[],
                       help="counters that must be nonzero;"
                            " 'a|b' accepts either")
    p_obs.set_defaults(func=cmd_obs)
    p_overhead = sub.add_parser("overhead")
    p_overhead.add_argument("--base", nargs="+", required=True,
                            help="MS_OBS=OFF baseline bench JSON,"
                                 " one file per round")
    p_overhead.add_argument("--with", dest="with_obs", nargs="+",
                            required=True,
                            help="default-build (hooks compiled in,"
                                 " disabled) bench JSON, paired by round")
    p_overhead.add_argument("--benches", required=True,
                            help="comma-separated bench names to compare")
    p_overhead.add_argument("--max-ratio", type=float, default=1.02)
    p_overhead.set_defaults(func=cmd_overhead)
    p_fuzz = sub.add_parser("fuzz")
    p_fuzz.add_argument("file")
    p_fuzz.add_argument("--min-programs", type=int, default=1,
                        help="fail if the campaign ran fewer programs")
    p_fuzz.add_argument("--min-rate", type=float, default=0.0,
                        help="fail below this programs/s throughput")
    p_fuzz.set_defaults(func=cmd_fuzz)
    p_service = sub.add_parser("service")
    p_service.add_argument("file")
    p_service.add_argument("--min-jobs", type=int, default=1,
                           help="fail if the load ran fewer jobs")
    p_service.add_argument("--min-rate", type=float, default=0.0,
                           help="fail below this jobs/s throughput")
    p_service.add_argument("--min-postmortems", type=int, default=0,
                           help="fail if fewer postmortem documents"
                                " were produced")
    p_service.set_defaults(func=cmd_service)
    args = parser.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()
