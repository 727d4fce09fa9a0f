"""Workloads, verdict checks and the pass runner of the twistforms benchmark.

A pass runs one workload's CLI jobs in-process through
``twistforms.cli.main(argv)``, one after another, each starting with cold
``lru_cache`` section caches as a fresh ``twistforms`` command would.  Every
job's exit code and stdout are checked; for jobs whose command line appears
in ``golden.json`` the stdout (and certificate) bytes must also hash to the
digest the seed code produced.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import re
import shutil
import signal
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
WORK = Path(__file__).resolve().parent / "_work"

#: The workload seed whose jobs the golden digests were recorded for.
DEFAULT_SEED = 0

PACKAGE = "twistforms"
MODULES = ("cli", "bott", "exactalg", "forms", "display", "maxrank", "horace")


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program sources, bad arguments)."""


def import_program():
    """Import ``twistforms`` from this checkout's ``src`` and return ``cli``.

    Refuses an installed copy elsewhere, so the benchmark measures the
    sources next to it or nothing.
    """
    if not (SRC / PACKAGE / "cli.py").is_file():
        raise BenchError("no %s sources under %s" % (PACKAGE, SRC))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module(PACKAGE)
    where = Path(pkg.__file__).resolve().parent
    if where != SRC / PACKAGE:
        raise BenchError("imported %s from %s, not from %s" % (PACKAGE, where, SRC))
    for name in MODULES:
        importlib.import_module("%s.%s" % (PACKAGE, name))
    return sys.modules[PACKAGE + ".cli"]


def program_modules():
    """The imported package and its modules, each once."""
    return [sys.modules[PACKAGE]] + [sys.modules["%s.%s" % (PACKAGE, m)] for m in MODULES]


def lru_caches():
    """Every ``lru_cache`` object bound in the package, each once."""
    seen = {}
    for mod in program_modules():
        for val in vars(mod).values():
            # A traced binding forwards both methods to its cache.
            if hasattr(val, "cache_info") and hasattr(val, "cache_clear"):
                seen[id(val)] = val
    return list(seen.values())


# -- reference speed -----------------------------------------------------------

# The host's CPU speed drifts by up to 1.6x for a minute at a time and by
# 10-15% from one second to the next, which raw pass times cannot hide.  So
# while a pass runs, a SpeedProbe times this fixed reference loop every
# PROBE_INTERVAL_S seconds, and run.py scales the pass's times by
# REFERENCE_S / (the loop's mean time in that pass): times "at reference
# speed".  The mean, not the median: the host takes the CPU away in slices
# longer than one loop, and the mean charges those to the loop in the same
# proportion as to the jobs.  The loop mixes the two kinds of work the
# workloads do: interpreter work on small objects, and an int64 numpy
# product whose operands and result (200 KB each) leave the first-level
# caches.


def reference_loop() -> float:
    t0 = time.perf_counter()
    s, d = 0, {}
    for i in range(30_000):
        s += i * i % 7
        d[i & 1023] = s
    a = numpy.arange(160 * 160, dtype=numpy.int64).reshape(160, 160) % 101
    (a @ a) % 101
    return time.perf_counter() - t0


#: Typical time of the reference loop on the 2-core x86_64 VM (Python 3.11,
#: numpy 2.4) where the benchmark was defined; a constant, so scaled times
#: compare across runs.
REFERENCE_S = 0.01
PROBE_INTERVAL_S = 0.15


class SpeedProbe:
    """Times the reference loop from a SIGALRM handler every
    PROBE_INTERVAL_S seconds while active.

    The handler runs in the main thread between bytecodes, so samples are
    spread evenly over the jobs' own time.  ``spent`` totals the seconds the
    probes took, for the caller to subtract from the jobs' wall time; with a
    tracer, each probe's interval goes to ``tracer.probes``, so no layer's
    self time includes it.
    """

    def __init__(self, tracer=None):
        self.samples = []
        self.spent = 0.0
        self._tracer = tracer
        self._previous = None

    def _probe(self, signum, frame):
        t0 = time.perf_counter_ns()
        self.samples.append(reference_loop())
        t1 = time.perf_counter_ns()
        self.spent += (t1 - t0) / 1e9
        if self._tracer is not None:
            self._tracer.probes.append((t0, t1))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a pass shorter than one interval
            self._probe(signal.SIGALRM, None)


# -- workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what its output must show.

    ``kind`` selects the verdict check; ``cert`` names the certificate file
    the job writes (relative to the pass's working directory); ``lines`` is
    the number of verdict lines the output must carry, when known.
    """

    argv: tuple
    kind: str
    cert: str | None = None
    lines: int | None = None

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _display(n: int, t: str, q: str | None = None) -> Job:
    lo, hi = (int(x) for x in t.split(".."))
    argv = ("verify-display", "--n", str(n), "--t", t)
    if q is not None:
        argv += ("--q", q)
    # One line per form degree p in 0..n-1 and twist in lo..hi.
    return Job(argv, "display", lines=n * (hi - lo + 1))


def _certify(n: int, p: int, d: int, s: int, seed: int, q: str | None = None) -> list:
    """A maxrank certificate written to a file, then its replay."""
    name = "cert-n%dp%dd%ds%d-%s-k%d.json" % (n, p, d, s, q or "101", seed)
    argv = ("maxrank",) + tuple(
        str(x) for x in ("--n", n, "--p", p, "--d", d, "--s", s, "--seed", seed)
    )
    if q is not None:
        argv += ("--q", q)
    return [
        Job(argv + ("--out", name), "maxrank", cert=name, lines=1),
        Job(("maxrank", "--verify", name), "replay", lines=1),
    ]


def _horace(n: int, p: int, d: int, s: int, seed: int) -> Job:
    argv = ("horace",) + tuple(
        str(x) for x in ("--n", n, "--p", p, "--d", d, "--s", s, "--seed", seed)
    )
    return Job(argv, "horace")


def _draw(rng: random.Random) -> int:
    return rng.randrange(1_000_000)


# Job order is fixed: permuting it by seed moves peak memory between two
# levels (93.5 and 101.1 MB on display-gf), which would read as noise.


def display_gf(seed: int) -> list:
    # The display has no randomness, so this workload ignores the seed.
    return [_display(4, "0..3"), _display(5, "0..2")]


def maxrank_gf(seed: int) -> list:
    rng = random.Random(seed)
    jobs = []
    for _ in range(3):
        jobs += _certify(3, 0, 7, 105, _draw(rng))
    jobs += _certify(4, 1, 3, 21, _draw(rng))
    return jobs


def exact_wide(seed: int) -> list:
    return [
        # A header and one row.
        Job(("h0", "--n", "4", "--p", "2", "--d", "6", "--q", "rational"), "h0", lines=2),
        _display(3, "0..2", "rational"),
        *_certify(3, 0, 4, 30, _draw(random.Random(seed)), "rational"),
        _display(4, "0..2", "2147483647"),
    ]


def horace_gf(seed: int) -> list:
    rng = random.Random(seed)
    return [
        _horace(4, 0, 5, 60, _draw(rng)),
        _horace(3, 0, 7, 105, _draw(rng)),
        _horace(3, 1, 6, 50, _draw(rng)),
    ]


WORKLOADS = {
    "display-gf": display_gf,
    "maxrank-gf": maxrank_gf,
    "exact-wide": exact_wide,
    "horace-gf": horace_gf,
}


# -- verdict checks ------------------------------------------------------------

_MAXRANK_LINE = re.compile(r"^n=\d+ p=\d+ d=\d+ s=\d+  shape \d+x\d+  rank \d+  maximal  ker \d+ coker \d+$")
_REPLAY_LINE = re.compile(r"^replay \S+: shape \d+x\d+ rank \d+ verified$")
_HORACE_LINE = re.compile(r"^\s*\[(.)\] ")


def check_output(job: Job, rc: int, stdout: str) -> list:
    """Reasons the job's verdict is not the expected success; empty if none."""
    problems = []
    if rc != 0:
        problems.append("exit code %d" % rc)
    lines = stdout.splitlines()
    if job.lines is not None and len(lines) != job.lines:
        problems.append("%d output lines, expected %d" % (len(lines), job.lines))
    if job.kind == "display":
        bad = [ln for ln in lines if not ln.endswith("  ok")]
        problems += ["display line not ok: %s" % ln for ln in bad]
    elif job.kind == "maxrank":
        problems += ["not maximal: %s" % ln for ln in lines if not _MAXRANK_LINE.match(ln)]
    elif job.kind == "replay":
        problems += ["replay not verified: %s" % ln for ln in lines if not _REPLAY_LINE.match(ln)]
    elif job.kind == "h0":
        if lines and lines[0].split() != ["p", "d", "h0_formula", "h0_koszul"]:
            problems.append("unexpected h0 header: %s" % lines[0])
        rows = [ln.split() for ln in lines[1:]]
        problems += ["h0 mismatch: %s" % " ".join(r) for r in rows if len(r) != 4 or r[2] != r[3]]
    elif job.kind == "horace":
        nodes = [_HORACE_LINE.match(ln) for ln in lines]
        if not any(nodes):
            problems.append("no horace nodes in output")
        problems += [
            "horace line not witnessed: %s" % ln
            for ln, m in zip(lines, nodes)
            if m is None or m.group(1) != "+"
        ]
    else:
        raise ValueError("unknown job kind %r" % job.kind)
    return problems


def digest(stdout: str, cert: bytes | None) -> str:
    """SHA-256 over the job's stdout bytes and, if it wrote one, its certificate."""
    h = hashlib.sha256(stdout.encode())
    if cert is not None:
        h.update(b"\0")
        h.update(cert)
    return h.hexdigest()


def load_golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)["digests"]


# -- running -----------------------------------------------------------------


@dataclass
class JobResult:
    job: Job
    rc: int
    stdout: str
    seconds: float
    digest: str
    problems: list

    @property
    def ok(self) -> bool:
        return not self.problems


def run_job(cli, job: Job, golden: dict, tracer=None, job_id: int = 0, probe=None) -> JobResult:
    """Run one job from cold caches in the current working directory.

    The job's seconds exclude the time ``probe`` spent inside it."""
    for cache in lru_caches():
        cache.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.job = job_id
    probed = probe.spent if probe is not None else 0.0
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(job.argv))
    except Exception:
        # A crash is a failed operation, not the end of the run.
        rc = -1
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - t0
    if probe is not None:
        seconds -= probe.spent - probed
    if tracer is not None:
        tracer.end_job()
    stdout = out.getvalue()
    problems = check_output(job, rc, stdout)
    cert = None
    if job.cert is not None:
        try:
            cert = Path(job.cert).read_bytes()
        except OSError as exc:
            problems.append("certificate not readable: %s" % exc)
    if rc != 0 and err.getvalue():
        problems.append("stderr: " + err.getvalue().strip().splitlines()[-1])
    dig = digest(stdout, cert)
    want = golden.get(job.key)
    if want is not None and want != dig:
        problems.append("output bytes differ from the seed code's (digest %s)" % dig[:12])
    return JobResult(job, rc, stdout, seconds, dig, problems)


def run_pass(cli, jobs: list, golden: dict, tracer=None) -> tuple:
    """Run every job in order under a SpeedProbe.  Returns (wall seconds of
    the jobs, [JobResult], [reference loop seconds])."""
    with SpeedProbe(tracer) as probe:
        results = [run_job(cli, job, golden, tracer, i, probe) for i, job in enumerate(jobs)]
    return sum(r.seconds for r in results), results, probe.samples


@contextlib.contextmanager
def work_directory():
    """Run the body in a fresh directory under perfbench/_work, removed after."""
    WORK.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(dir=WORK)
    home = os.getcwd()
    os.chdir(path)
    try:
        yield Path(path)
    finally:
        os.chdir(home)
        shutil.rmtree(path)
