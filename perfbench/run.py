"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep|certify|germ --seed N
                             --seconds S --trace 0|1

Run from the root of a source checkout.  The workload runs in a fresh
worker process (worker.py); this process then checks every op against
reference.py, outside the timed region, and prints a run record line and,
last, one JSON line {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones from spans.py plus trace.overhead_frac.  Span files and run
records go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from math import ceil, exp, lgamma, log
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
TAIL_PERCENTILE = 90  # every run at this commit has at least 17 samples beyond it
TAIL_METRIC = f"latency_p{TAIL_PERCENTILE}_s"
WORKER_TIMEOUT_S = 150
# Median calibration burst on a 2-vCPU x86-64 VM at 2.0 GHz, Python 3.11.7.
C_REF = 0.0030
# An op's speed factor uses the SPEED_WINDOW bursts on each side of it.
SPEED_WINDOW = 4

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from reference import Reference, options  # noqa: E402


def run_worker(workload: str, seed: int, seconds: float, trace: bool,
               spans_path: Path | None = None) -> tuple[list[dict], dict]:
    """Run the worker process; return its op lines and its end line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    end = lines.pop()
    if not isinstance(end, dict) or not end.get("end"):
        raise RuntimeError("worker output ended without its end line")
    return lines, end


def hd_quantile(samples: list[float], q: float, steps: int = 32) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics; the i-th (of n) is weighted by
    the Beta(q(n+1), (1-q)(n+1)) density integrated over [(i-1)/n, i/n].
    Where op times are sparse around the quantile, its run-to-run spread
    is about two thirds that of a single order statistic.
    """
    xs = sorted(samples)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = lgamma(a + b) - lgamma(a) - lgamma(b)
    h = 1 / (n * steps)
    weights = [sum(exp(log_norm + (a - 1) * log(x) + (b - 1) * log(1 - x))
                   for x in ((i * steps + k + 0.5) * h for k in range(steps)))
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def repeat_frac(ref, ops: list[dict]) -> float | None:
    """Share of semigroup builds, implied by the inputs, that repeat an earlier pair."""
    seen: set[tuple[int, int]] = set()
    builds = repeats = 0
    for op in ops:
        argv = op["argv"]
        opt = options(argv)
        if argv[0] == "enumerate":
            pairs = [(a, b) for a, b, _ in ref.enumerate(int(opt["--genus"]), int(opt["--dmax"]))]
        elif argv[0] == "check" and "--pairs" in opt:
            pairs = [tuple(map(int, p.split(","))) for p in opt["--pairs"].split(";")]
        elif argv[0] == "check":
            pairs = [(int(opt["-a"]), int(opt["-b"]))]
        else:
            continue
        for pair in pairs:
            builds += 1
            repeats += pair in seen
            seen.add(pair)
    return repeats / builds if builds else None


def source_identity() -> tuple[str | None, str]:
    """(git commit or None, sha256 over the package sources)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return commit, digest.hexdigest()


def speed_factor(cals: list[float], after: int) -> float:
    """C_REF over the median burst near the op whose next burst is `after`.

    A time multiplied by this factor is the time at the reference speed.
    """
    return C_REF / statistics.median(cals[max(0, after - SPEED_WINDOW):after + SPEED_WINDOW])


def timings(samples: list[float], setup: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(samples) / sum(samples),
        "latency_p50_s": hd_quantile(samples, 0.5),
        TAIL_METRIC: hd_quantile(samples, TAIL_PERCENTILE / 100),
    }


def end_to_end(ops: list[dict], ok: list[bool], end: dict) -> tuple[dict, dict]:
    """Metrics at the reference speed, plus the raw wall-clock figures."""
    cals = end["cals"]
    scaled = timings([op["s"] * op["speed"] for op in ops],
                     [wall * speed_factor(cals, c) for wall, c in end["setup"]])
    raw = timings([op["s"] for op in ops], [wall for wall, _ in end["setup"]])
    metrics = {name: (value, "1/s" if name == "ops_per_s" else "s")
               for name, value in scaled.items()}
    metrics["peak_rss_mb"] = (end["maxrss_kb"] / 1024, "MB")
    metrics["ok_frac"] = (sum(ok) / len(ok), "frac")
    return metrics, {
        "tail_samples_beyond": len(ops) - ceil(TAIL_PERCENTILE / 100 * len(ops)),
        "calibration_median_s": statistics.median(cals),
        "raw": raw,
        "setup_samples": end["setup"],
    }


def per_layer(ops: list[dict], spans_path: Path) -> tuple[dict, dict]:
    from spans import layer_metrics

    traced = [op for op in ops if op["traced"]]
    plain = [op for op in ops if not op["traced"]]
    metrics = layer_metrics(spans_path, traced)
    traced_rate = len(traced) / sum(op["s"] * op["speed"] for op in traced)
    plain_rate = len(plain) / sum(op["s"] * op["speed"] for op in plain)
    metrics["trace.overhead_frac"] = (1 - traced_rate / plain_rate, "frac")
    return metrics, {"traced_ops": len(traced), "untraced_ops": len(plain)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    needed = [ROOT / "src" / "unicusp" / "cli.py", ROOT / "tests" / "oracles.py",
              workloads.PAIRS_TABLE]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        sys.stderr.write(f"perfbench: not a unicusp source checkout, missing {missing}\n")
        return 2

    OUT.mkdir(exist_ok=True)
    trace = bool(args.trace)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = OUT / f"spans-{tag}.jsonl" if trace else None
    ops, end = run_worker(args.workload, args.seed, args.seconds, trace, spans_path)
    if not ops:
        sys.stderr.write("perfbench: the worker completed no op\n")
        return 1
    for op in ops:
        op["speed"] = speed_factor(end["cals"], op["cal"])
    ref = Reference()
    ok = [ref.check(op["argv"], op["rc"], op["summary"]) for op in ops]
    if trace:
        metrics, extra = per_layer(ops, spans_path)
    else:
        metrics, extra = end_to_end(ops, ok, end)
    commit, source_sha256 = source_identity()
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "commit": commit, "source_sha256": source_sha256,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "ops": len(ops), "pool": end["pool"], "pool_exhausted": end["exhausted"],
        "elapsed_s": end["elapsed_s"], "tail_percentile": TAIL_PERCENTILE,
        "op_classes": dict(Counter(op["cls"] for op in ops)),
        "semigroup_repeat_frac": repeat_frac(ref, ops), **extra,
    }
    with open(OUT / f"record-{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"record": record}))
    failed = len(ok) - sum(ok)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
