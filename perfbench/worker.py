"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1

Imports twistforms from the checkout, runs the workload's jobs once in a
private working directory under ``perfbench/_work`` (removed afterwards),
and prints one JSON object: the pass's wall time, the process's peak
resident memory, every job's verdict and, when traced, the per-layer
metrics.  A fresh process per pass is what makes the peak memory belong to
that pass alone.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

import harness

OUT = Path(__file__).resolve().parent / "_out"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = harness.import_program()
    jobs = harness.WORKLOADS[args.workload](args.seed)
    golden = harness.load_golden()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()

    with harness.work_directory():
        wall, results, refs = harness.run_pass(cli, jobs, golden, tracer)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    doc = {
        "wall_s": wall,
        "ref_s": statistics.mean(refs),
        "peak_rss_mb": peak_kb / 1024,
        "jobs": [
            {
                "argv": r.job.key,
                "seconds": r.seconds,
                "rc": r.rc,
                "digest": r.digest,
                "digest_checked": r.job.key in golden,
                "problems": r.problems,
            }
            for r in results
        ],
    }
    if tracer is not None:
        tracer.uninstall()
        doc["layers"] = tracer.metrics(wall)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / ("spans-%s.jsonl" % args.workload))
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
