"""The twistforms benchmark: seeded CLI verification workloads, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  Each run

1. runs passes over the workload's jobs, each pass in a fresh worker process
   (``worker.py``), for about ``S`` seconds: no pass starts that would end
   later, but at least one runs; with ``--trace 1`` passes alternate
   untraced and traced, two pairs at least when the budget allows;
2. after each untraced pass, times ``setup_s``: a fresh interpreter
   importing ``twistforms.cli`` (and numpy) and building the parser, a few
   spawns averaged per pass and scaled by interleaved numpy-only spawns;
3. checks every job's verdict, and the output digests recorded in
   ``golden.json``;
4. prints a report line (every metric with its samples and quartiles,
   ``failed_frac``, the raw times, provenance) and, as the last line, the
   result object ``{"correct", "attempted", "failed", "metrics"}``: the
   end-to-end metrics with ``--trace 0``, the per-layer metrics with
   ``--trace 1``.  Pass times are scaled to reference speed (see
   ``harness.reference_loop``).

Exits non-zero without a result when the program sources are missing or a
worker cannot run.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
from tracer import unit_of

HERE = Path(__file__).resolve().parent
# Set-up spawns are timed after each untraced pass, so they spread over the
# run, each right after a spawn of the same interpreter importing numpy
# alone.  On the defining VM a spawn's time drifted by up to 2x between
# minutes, nearly all of it in the numpy import; the ratio of the two spawns
# stayed within about 6%.  So a set-up sample is the mean set-up spawn
# scaled by NUMPY_IMPORT_S / (the mean numpy-only spawn) after that pass.
SETUP_SPAWNS_PER_PASS = 3
NUMPY_IMPORT_S = 0.15  # a typical numpy-only spawn on the defining VM
# A run must end within 180 s; no pass starts that could push it past this.
BUDGET_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CODE = "import numpy, twistforms.cli as c; c.build_parser()"
NUMPY_CODE = "import numpy"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """Environment for spawned interpreters: the checkout's sources first,
    byte-code caching on (as for an installed CLI), BLAS threads capped at
    the number of usable cores."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(harness.SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cores = nproc()
    for var in THREAD_VARS:
        if var in env:
            try:
                if int(env[var]) > cores:
                    env[var] = str(cores)
            except ValueError:
                env[var] = str(cores)
    return env


def provenance(env: dict, seed: int) -> dict:
    import numpy

    commit = None
    if (harness.ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=harness.ROOT, capture_output=True, text=True
            )
            commit = proc.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    src = hashlib.sha256()
    for path in sorted((harness.SRC / harness.PACKAGE).glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "nproc": nproc(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {var: env.get(var) for var in THREAD_VARS},
        "workload_seed": seed,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def time_spawn(code: str, env: dict, deadline: float) -> float:
    """Wall seconds for a fresh interpreter to run ``code`` and exit."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, timeout=max(1.0, deadline - t0)
    )
    return time.perf_counter() - t0


def time_setup(env: dict, deadline: float) -> tuple:
    """(mean set-up spawn seconds, mean numpy-only spawn seconds) over a few
    pairs, each numpy-only spawn right before its set-up spawn."""
    numpy_only, setup = [], []
    for _ in range(SETUP_SPAWNS_PER_PASS):
        numpy_only.append(time_spawn(NUMPY_CODE, env, deadline))
        setup.append(time_spawn(SETUP_CODE, env, deadline))
    return statistics.mean(setup), statistics.mean(numpy_only)


def run_worker(env: dict, workload: str, seed: int, trace: int, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(trace),
    ]
    proc = subprocess.run(
        cmd,
        env=env,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.perf_counter()),
    )
    if proc.returncode != 0:
        raise harness.BenchError(
            "worker exited with %d: %s" % (proc.returncode, proc.stderr.strip()[-2000:])
        )
    return json.loads(proc.stdout.splitlines()[-1])


def at_reference_speed(seconds: float, ref: float) -> float:
    """Scale a time measured in a process whose reference loop took ``ref``."""
    return seconds * harness.REFERENCE_S / ref


def summary(values: list, unit: str) -> dict:
    out = {"value": statistics.median(values), "unit": unit, "samples": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, min=min(values), max=max(values))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    ap.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.perf_counter()
    deadline = start + BUDGET_S
    if not (harness.SRC / harness.PACKAGE / "cli.py").is_file():
        sys.stderr.write("error: no %s sources under %s\n" % (harness.PACKAGE, harness.SRC))
        return 2
    env = child_env()
    prov = provenance(env, args.seed)
    time_spawn(SETUP_CODE, env, deadline)  # warms the file and byte-code caches

    passes, setup = [], []
    end = min(time.perf_counter() + args.seconds, deadline)
    # Trace mode alternates untraced and traced passes, so each pair gives the
    # overhead; two pairs at least, so the counts of two traced passes compare.
    schedule, least = ((0, 1), 2) if args.trace else ((0,), 1)
    for rounds in itertools.count(1):
        t0 = time.perf_counter()
        for traced in schedule:
            doc = run_worker(env, args.workload, args.seed, traced, deadline)
            doc["traced"] = bool(traced)
            passes.append(doc)
            if not traced:
                setup.append(time_setup(env, deadline))
        now = time.perf_counter()
        # Start no round that would end after the measuring time, nor any
        # that would end after the budget.
        later = now + (now - t0)
        if (rounds >= least and later > end) or later > deadline:
            break

    for p in passes:
        p["wall_ref_s"] = at_reference_speed(p["wall_s"], p["ref_s"])
    jobs = [job for p in passes for job in p["jobs"]]
    failures = [
        "%s: %s" % (job["argv"], "; ".join(job["problems"])) for job in jobs if job["problems"]
    ]
    plain = [p for p in passes if not p["traced"]]
    e2e = {
        "wall_s": summary([p["wall_ref_s"] for p in plain], "s"),
        "setup_s": summary([s * NUMPY_IMPORT_S / r for s, r in setup], "s"),
        "peak_rss_mb": summary([p["peak_rss_mb"] for p in plain], "MB"),
    }
    as_measured = {
        "wall_s": summary([p["wall_s"] for p in plain], "s"),
        "reference_loop_s": summary([p["ref_s"] for p in plain], "s"),
        "setup_s": summary([s for s, _ in setup], "s"),
        "numpy_import_s": summary([r for _, r in setup], "s"),
    }

    layers = {}
    traced = [p for p in passes if p["traced"]]
    if traced:
        first = traced[0]["layers"]
        for name, value in first.items():
            values = [p["layers"][name] for p in traced]
            unit = unit_of(name)
            if unit == "s":
                values = [at_reference_speed(v, p["ref_s"]) for v, p in zip(values, traced)]
            if unit == "count":
                # Counts are exact: any difference between passes is a defect.
                if len(set(values)) != 1:
                    failures.append("count %s differs between traced passes: %r" % (name, values))
                layers[name] = {"value": value, "unit": unit}
            else:
                layers[name] = summary(values, unit)
        overhead = statistics.median(p["wall_ref_s"] for p in traced) / e2e["wall_s"]["value"] - 1
        layers["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}

    attempted = len(jobs)
    failed = sum(1 for job in jobs if job["problems"])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs_per_pass": len(passes[0]["jobs"]),
        "job_seconds": [[job["seconds"] for job in p["jobs"]] for p in passes],
        "passes": [
            {k: p[k] for k in ("traced", "wall_s", "ref_s", "wall_ref_s", "peak_rss_mb")}
            for p in passes
        ],
        "digest_checked_jobs": sum(1 for job in jobs if job["digest_checked"]),
        "failed_frac": {"value": failed / attempted, "unit": "ratio", "samples": attempted},
        "failures": failures[:20],
        "end_to_end": e2e,
        "as_measured": as_measured,
        "per_layer": layers,
        "provenance": prov,
        "run_s": time.perf_counter() - start,
    }
    metrics = layers if args.trace else e2e
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (harness.BenchError, subprocess.SubprocessError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        sys.exit(2)
