"""holring benchmark: seeded workloads, checked outputs, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; holring is imported from its src/.  Load
is a closed loop: one client, one operation at a time, each workload in a
fresh interpreter (perfbench/worker.py), at most two processes at once.

--trace 0 prints the end-to-end metrics: setup_s (median of several
fresh set-ups), wall_s (sum of the timed operations of the fixed batch),
op_p50_ms, op_p90_ms and peak_rss_mb.  --trace 1 runs a half-length
batch untraced and then traced, and prints per-layer metrics from the
traced run, the tracing overhead, and the time of each verify-paper check
in its own fresh interpreter.  The last stdout line is
{"correct", "attempted", "failed", "metrics"}; lines before it are a
readable summary that includes fail_ratio and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checkout import OUT_DIR, ROOT, SRC, has_sources
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_PROBES = 4  # set-up-only interpreters, half before and half after the batch
DEADLINE_S = 170
NAMED_CHECKS = (
    "adjoint-ast-identity",
    "norm-ideal-probes",
    "denominator-certificates",
    "table-closed-forms",
    "table-orthogonality",
)


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 1])."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark run exceeded its time limit")
        return left


def spawn(cmd, deadline):
    """Run a child to completion; returns (spawn time, parsed last stdout line).

    The child leads its own process group, so a timeout also stops the
    CLI stubs a cli-matrix worker may have running.
    """
    start = time.monotonic()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, err = proc.communicate(timeout=deadline.left())
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}: {err[-500:]}")
    return start, json.loads(out.splitlines()[-1])


def worker_cmd(args, *extra):
    return [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), *extra,
    ]


def setup_samples(args, deadline, count):
    """Set-up times of fresh interpreters that stop before the first operation."""
    if args.workload == "cli-matrix":
        cmd = [sys.executable, str(HERE / "cli_stub.py"), "--import-only"]
    else:
        cmd = worker_cmd(args, "--setup-only")
    out = []
    for _ in range(count):
        start, res = spawn(cmd, deadline)
        out.append(res["ready"] - start)
    return out


def run_batch(args, deadline, trace_file=None):
    extra = ["--trace-file", str(trace_file)] if trace_file else []
    start, res = spawn(worker_cmd(args, *extra), deadline)
    res["setup_s"] = res["ready"] - start
    return res


def end_to_end(res, setups):
    op_s = res["op_s"]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(op_s),
        "op_p50_ms": percentile(op_s, 0.5) * 1e3,
        "op_p90_ms": percentile(op_s, 0.9) * 1e3,
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
    }


def verify_reference(deadline):
    """Each verify-paper check once, in its own fresh interpreter, untraced."""
    base = [sys.executable, str(HERE / "worker.py")]
    _, names = spawn(base + ["--list-checks"], deadline)
    metrics = {f"verify.{n}_s": 0.0 for n in NAMED_CHECKS}
    metrics["verify.other_checks_s"] = 0.0
    failed = []
    for name in names:
        _, res = spawn(base + ["--verify-check", name], deadline)
        if not res["passed"]:
            failed.append(f"verify {name}: {res['detail']}")
        key = f"verify.{name}_s" if name in NAMED_CHECKS else "verify.other_checks_s"
        metrics[key] += res["seconds"]
    return metrics, len(names), failed


def result_line(metrics, kind, attempted, failures):
    """The final JSON line; metric names and units come from BENCHMARK.json."""
    units = {m["name"]: m["unit"] for m in DECLARED[kind]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    return json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="holring benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not has_sources():
        print(f"perfbench: no holring sources under {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    deadline = Deadline(DEADLINE_S)
    if args.trace:
        # the traced run times its batch twice and runs the verify suite:
        # a half-length batch keeps it within the time limit
        args.seconds = max(1, args.seconds // 2)

    # the first set-up byte-compiles the sources of a fresh checkout: not counted
    setups = setup_samples(args, deadline, 1 + SETUP_PROBES // 2)[1:]
    res = run_batch(args, deadline)
    setups += setup_samples(args, deadline, SETUP_PROBES - SETUP_PROBES // 2)
    if args.workload != "cli-matrix":
        setups.append(res["setup_s"])
    failures = list(res["failures"])
    attempted = len(res["op_s"])
    e2e = end_to_end(res, setups)

    if args.trace:
        traced = run_batch(args, deadline, OUT_DIR / f"trace-{args.workload}.jsonl")
        failures += traced["failures"]
        attempted += len(traced["op_s"])
        traced_wall = sum(traced["op_s"])
        metrics = dict(traced["layers"])
        metrics["trace.untraced_wall_s"] = e2e["wall_s"]
        metrics["trace.overhead_s"] = traced_wall - e2e["wall_s"]
        verify_metrics, checks_run, verify_failed = verify_reference(deadline)
        metrics.update(verify_metrics)
        attempted += checks_run
        failures += verify_failed
    else:
        metrics = e2e

    n = len(res["op_s"])
    print(f"workload {args.workload}, seed {args.seed}, {n} operations per batch, "
          f"input digest {res['input_digest'][:16]}")
    units = {m["name"]: m["unit"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}
    for name, value in e2e.items():
        samples = len(setups) if name == "setup_s" else (1 if name == "peak_rss_mb" else n)
        print(f"  {name:<12} {value:12.4f} {units[name]:<3} (n={samples})")
    print(f"  {'fail_ratio':<12} {len(res['failures']) / n:12.4f}     "
          f"({len(res['failures'])}/{n} failed)")
    if args.trace:
        for name, value in sorted(metrics.items()):
            print(f"  {name:<36} {value:14.4f} {units[name]}")
    for problem in failures[:20]:
        print(f"  FAILED: {problem}")
    kind = "per_layer" if args.trace else "end_to_end"
    print(result_line(metrics, kind, attempted, failures))
    return 0


if __name__ == "__main__":
    sys.exit(main())
