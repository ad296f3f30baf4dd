"""One workload in a fresh interpreter; prints one JSON result line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--setup-only] [--trace-file FILE]
    python3 perfbench/worker.py --list-checks
    python3 perfbench/worker.py --verify-check NAME

Setup (holring import, input generation, groups and tables the workload
reuses) ends at the "ready" monotonic timestamp; the parent measures
set-up time from just before it started this process.  Each operation is
timed alone; its output check runs untimed, with tracing paused.
"""

import argparse
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

from checkout import use_checkout_sources
from workloads import WORKLOADS, CliMatrix, input_digest


def _run_ops(workload, ops, tracer):
    op_s, failures = [], []
    totals, import_times = Counter(), []
    clock = time.perf_counter
    for run, check in ops:
        start = clock()
        try:
            result = run()
        except Exception as exc:  # a failed operation is counted, never fatal
            op_s.append(clock() - start)
            failures.append(f"{type(exc).__name__}: {exc}")
            continue
        op_s.append(clock() - start)
        if tracer is not None:
            tracer.paused = True
        try:
            problem = check(result)
        except Exception as exc:  # a crashing check is a failed check
            problem = f"check raised {type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.paused = False
        if problem:
            failures.append(problem)
        if isinstance(workload, CliMatrix) and result[1] is not None:
            child_totals, import_s = read_trace(result[1])
            totals += child_totals
            import_times.append(import_s)
    return op_s, failures, totals, import_times


def read_trace(path):
    """Span totals and import time from one traced CLI stub's file."""
    from tracer import span_totals

    with open(path) as fh:
        header = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh]
    return span_totals(spans, header["counts"]), header["import_s"]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-file")
    ap.add_argument("--list-checks", action="store_true")
    ap.add_argument("--verify-check")
    args = ap.parse_args(argv)

    if args.list_checks or args.verify_check:
        use_checkout_sources()
        from holring.verify import check_names, run_checks

        if args.list_checks:
            print(json.dumps(check_names()))
            return 0
        start = time.perf_counter()
        (result,) = run_checks(names=[args.verify_check])
        print(json.dumps({"seconds": time.perf_counter() - start, "passed": result.passed,
                          "detail": result.detail}))
        return 0

    workload = WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed, args.seconds)
    tracer = None
    if isinstance(workload, CliMatrix):
        trace_dir = None
        if args.trace_file:
            trace_dir = Path(args.trace_file).with_suffix(".spans")
            trace_dir.mkdir(exist_ok=True)
        ops = workload.operations(inputs, trace_dir)
    else:
        use_checkout_sources()
        ops = workload.operations(inputs)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    if args.trace_file and not isinstance(workload, CliMatrix):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    op_s, failures, totals, import_times = _run_ops(workload, ops, tracer)

    if tracer is not None:
        tracer.restore()
        tracer.write(args.trace_file)
        totals = tracer.totals()
    who = resource.RUSAGE_CHILDREN if isinstance(workload, CliMatrix) else resource.RUSAGE_SELF
    out = {
        "ready": ready,
        "op_s": op_s,
        "failures": failures,
        "peak_rss_kb": resource.getrusage(who).ru_maxrss,
        "input_digest": input_digest(inputs),
    }
    if args.trace_file:
        from tracer import layer_metrics

        out["layers"] = layer_metrics(totals, import_times)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
