"""One workload run in a fresh process: a closed loop, one client, one thread.

Usage: python3 perfbench/worker.py --workload W --seed N --seconds S
           --trace 0|1 [--spans PATH]

Each op calls `unicusp.cli.run(argv)` in-process with stdout and stderr
captured to memory buffers, and is timed from the call to its return.
The host's speed swings by up to 2x within a minute on a shared machine,
so a fixed pure-Python calibration burst runs before the first op and
after every op and set-up probe.  run.py turns the burst times around each
op into the op's speed factor.

After each op, outside the timed region, the worker writes one JSON line
to its real stdout with the op's class, argv, seconds, the index of the
burst that followed it, exit code, output bytes, whether it was traced,
and the summary of its payload that the reference check reads.  The last
line holds the burst times, the set-up samples and the peak RSS.

Untraced runs also time a fresh interpreter that imports `unicusp.cli` and
runs the workload's warm-up commands, SETUP_PROBES times, spread evenly
through the run.  Traced runs trace the ops of trace parity 1 only (see
workloads.stratified), so traced and untraced ops share the machine's
conditions and the mix of op costs, and write their spans to --spans at
the end.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import subprocess
import sys
import time
from bisect import bisect_left
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 21

PROBE_CODE = """
import io, json, sys
import unicusp.cli
out, err = sys.stdout, sys.stderr
for argv in json.loads(sys.argv[1]):
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    unicusp.cli.run(argv)
sys.stdout, sys.stderr = out, err
"""


def summarize(workload: str, text: str) -> dict | None:
    """The fields of a command's JSON output that the reference check reads."""
    try:
        record = json.loads(text)
    except ValueError:
        return None
    payload = record.get("payload", {})
    head = {"command": record.get("command"), "schema_version": record.get("schema_version")}
    if workload == "sweep":
        payload = {
            **{k: payload.get(k) for k in ("genus", "d_max", "allow_smooth", "admissible_count",
                                           "on_3d_line_count", "largest_exceptional_degree")},
            "candidates": [[c["a"], c["b"], c["d"], c["g"], c["admissible"], c["on_3d_line"]]
                           for c in payload.get("candidates", [])],
            "exceptions": [[c["a"], c["b"], c["d"]] for c in payload.get("exceptions", [])],
            "untagged": [[c["a"], c["b"], c["d"]] for c in payload.get("untagged", [])],
        }
    elif workload == "germ" and payload.get("model") == "node":
        payload = {**payload, "steps": [[s["n"], s["valuation"], s["c"]]
                                        for s in payload.get("steps", [])]}
    return {**head, "payload": payload}


def calibrate() -> float:
    """Seconds for a fixed burst of interpreter work: loops, integer
    arithmetic, bisect and dict stores, about 3 ms."""
    t0 = time.perf_counter()
    xs = list(range(0, 3000, 3))
    table = {}
    acc = 0
    for i in range(5000):
        acc += bisect_left(xs, i) + (i * i) % 7
        table[i % 97] = (acc, i)
    return time.perf_counter() - t0


def setup_probe(workload: str) -> float:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", PROBE_CODE, json.dumps(workloads.WARMUP[workload])],
                   env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import unicusp.cli as cli

    ops = workloads.make_ops(args.workload, args.seed)
    real_out, real_err = sys.stdout, sys.stderr

    def call(fn, argv):
        out, err = io.StringIO(), io.StringIO()
        sys.stdout, sys.stderr = out, err
        try:
            t0 = time.perf_counter()
            rc = fn(argv)
            seconds = time.perf_counter() - t0
        finally:
            sys.stdout, sys.stderr = real_out, real_err
        return rc, seconds, out.getvalue()

    for argv in workloads.WARMUP[args.workload]:
        call(cli.run, argv)
    for _ in range(3):
        calibrate()

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    probes_due = [] if args.trace else [
        (i + 0.5) * args.seconds / SETUP_PROBES for i in range(SETUP_PROBES)]
    setup = []
    cals = [calibrate()]

    def probe():
        wall = setup_probe(args.workload)
        cals.append(calibrate())
        setup.append([wall, len(cals) - 1])

    start = time.perf_counter()
    i = 0
    while i < len(ops) and time.perf_counter() - start < args.seconds:
        if probes_due and time.perf_counter() - start >= probes_due[0]:
            probes_due.pop(0)
            probe()
            continue
        cls, argv, parity = ops[i]
        traced = tracer is not None and parity == 1
        if traced:
            tracer.install()
            try:
                rc, seconds, text = call(lambda a: tracer.run_op(i, cli.run, a), argv)
            finally:
                tracer.uninstall()
        else:
            rc, seconds, text = call(cli.run, argv)
        cals.append(calibrate())
        real_out.write(json.dumps({
            "i": i, "cls": cls, "argv": argv, "s": seconds, "cal": len(cals) - 1, "rc": rc,
            "bytes": len(text.encode()), "traced": traced,
            "summary": summarize(args.workload, text),
        }) + "\n")
        i += 1
    elapsed = time.perf_counter() - start
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for _ in probes_due:
        probe()
    if tracer is not None:
        tracer.dump(args.spans)
    real_out.write(json.dumps({"end": True, "cals": cals, "setup": setup, "maxrss_kb": maxrss_kb,
                               "elapsed_s": elapsed, "pool": len(ops),
                               "exhausted": i == len(ops)}) + "\n")
    real_out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
