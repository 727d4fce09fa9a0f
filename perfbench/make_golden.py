"""Record ``golden.json``: the output digests of every job of every workload
at the default workload seed.

    python3 perfbench/make_golden.py

Run it only when a change to the CLI's output bytes is intended; otherwise
the recorded digests are what turn a byte change into failed operations.
Refuses to record a job whose verdict check fails.
"""

from __future__ import annotations

import json
import sys

import harness


def main() -> int:
    cli = harness.import_program()
    digests = {}
    with harness.work_directory():
        for name, make_jobs in harness.WORKLOADS.items():
            _, results, _ = harness.run_pass(cli, make_jobs(harness.DEFAULT_SEED), {})
            for r in results:
                if not r.ok:
                    sys.stderr.write("%s: %s: %s\n" % (name, r.job.key, "; ".join(r.problems)))
                    return 1
                digests[r.job.key] = r.digest
    doc = {"seed": harness.DEFAULT_SEED, "digests": dict(sorted(digests.items()))}
    with open(harness.GOLDEN, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
