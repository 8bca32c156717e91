#!/usr/bin/env python3
"""Self-tests of the perfbench benchmark (run from the checkout root).

    python3 perfbench/selftest.py

Builds the benchmark like run.py, then checks:
  1. the same seed gives an identical item list, and another seed a
     different one, for every workload;
  2. two traced runs of each workload with the same seed give identical
     counts (frontend.calls, frontend.ir_insts, analysis.findings,
     interp.steps.*, service.rejected, cache hit ratio);
  3. every row of interpose.def is called at least once over the three
     traced workloads;
  4. every run is correct.
It also prints the tracing overhead: traced vs untraced item_ms for
the same seed. Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build helper)

# Small runs: fuzz passes and service jobs scale with --seconds (service
# needs 1000 jobs, 4 s, for ten samples beyond its p99); peak has a fixed
# round count whatever --seconds says.
SECONDS = {"fuzz": 4, "peak": 1, "service": 5}
SEED = 11
COUNTS = ("frontend.calls", "frontend.ir_insts", "analysis.findings",
          "service.rejected", "tools.cache_hit_ratio")


def invoke(binary, workload, seed, *extra):
    socket = os.path.relpath(
        os.path.join(os.path.dirname(binary), f"selftest-{os.getpid()}.sock"),
        run.ROOT)
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(SECONDS[workload]), "--socket", socket,
               *extra]
    proc = subprocess.run(command, cwd=run.ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=run.RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.rstrip("\n").split("\n")


def check(condition, message):
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        sys.exit(1)


def traced(binary, workload):
    code, lines = invoke(binary, workload, SEED, "--trace", "1")
    result = json.loads(lines[-1])
    check(code == 0 and result["correct"] and result["failed"] == 0,
          f"{workload}: traced run correct ({result['attempted']} items)")
    calls = {}
    for line in lines:
        if line.startswith("interposed "):
            fields = line.split()
            calls[fields[1]] = int(fields[3].split("=")[1])
    counts = {name: m["value"] for name, m in result["metrics"].items()
              if name in COUNTS or name.startswith("interp.steps.")}
    return result["metrics"], counts, calls


def main():
    binary = run.build(run.build_dir())
    check(binary is not None, "benchmark builds")

    for workload in SECONDS:
        _, first = invoke(binary, workload, SEED, "--list-items")
        _, again = invoke(binary, workload, SEED, "--list-items")
        _, other = invoke(binary, workload, SEED + 1, "--list-items")
        check(first == again and len(first) > 1,
              f"{workload}: seed {SEED} repeats its {len(first)} items")
        check(first != other, f"{workload}: seed {SEED + 1} differs")

    hit = {}
    for workload in SECONDS:
        metrics, counts, calls = traced(binary, workload)
        _, counts_again, _ = traced(binary, workload)
        check(counts == counts_again,
              f"{workload}: counts repeat across two traced runs")
        for row, n in calls.items():
            hit[row] = hit.get(row, 0) + n
        code, lines = invoke(binary, workload, SEED, "--trace", "0")
        plain = json.loads(lines[-1])["metrics"]["item_ms"]["value"]
        traced_ms = metrics["traced.item_ms"]["value"]
        print(f"     {workload}: item_ms {plain:.3f} untraced, "
              f"{traced_ms:.3f} traced "
              f"({100 * (traced_ms / plain - 1):+.1f}% tracing overhead); "
              f"unattributed_frac {metrics['unattributed_frac']['value']:.4f}")
    missed = sorted(row for row, n in hit.items() if n == 0)
    check(hit and not missed,
          f"every interpose.def row is called ({len(hit)} rows)"
          + (f"; never called: {missed}" if missed else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
