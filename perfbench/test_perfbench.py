"""Self-tests of the benchmark harness: python3 -m pytest -q perfbench

They check that the verdict checker counts bad output as failed, that a
changed output byte fails the digest check, and that the tracer's counts
repeat exactly between two runs of the same jobs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
from tracer import SPANS, Tracer, unit_of  # noqa: E402

CLI = harness.import_program()

# Small jobs that between them reach every traced layer.
CERT, REPLAY = harness._certify(2, 0, 2, 4, 1)
MINI = [
    harness._display(3, "0..1"),
    CERT,
    REPLAY,
    harness._certify(2, 0, 2, 4, 2, "rational")[0],
    harness.Job(("h0", "--n", "3", "--p", "1", "--d", "2..3", "--q", "rational"), "h0", lines=3),
    harness._horace(3, 0, 4, 12, 5),
]


@pytest.fixture
def workdir():
    with harness.work_directory() as path:
        yield path


def test_workloads_are_functions_of_the_seed():
    for make in harness.WORKLOADS.values():
        assert make(3) == make(3)
        assert make(3)
    assert harness.maxrank_gf(3) != harness.maxrank_gf(4)


def test_mini_jobs_pass(workdir):
    _, results, _ = harness.run_pass(CLI, MINI, {})
    assert [r.problems for r in results] == [[]] * len(MINI)


@pytest.mark.parametrize(
    "job, good, bad",
    [
        (MINI[0], "  ok\n", "  FAILED: row 2\n"),
        (CERT, "  maximal  ", "  not witnessed  "),
        (REPLAY, " verified\n", " MISMATCH\n"),
        (MINI[4], "20\n", "21\n"),
        (MINI[5], "[+] root", "[x] root"),
    ],
)
def test_flipped_verdict_line_is_a_failure(workdir, job, good, bad):
    jobs = [CERT, job] if job is REPLAY else [job]
    _, results, _ = harness.run_pass(CLI, jobs, {})
    result = results[-1]
    assert result.ok and good in result.stdout
    flipped = result.stdout.replace(good, bad, 1)
    assert harness.check_output(job, 0, flipped)
    assert harness.check_output(job, 0, result.stdout) == []


@pytest.mark.parametrize("tamper", ["rank", "field"])
def test_tampered_certificate_is_a_failure(workdir, tamper):
    first = harness.run_job(CLI, CERT, {})
    assert first.ok
    doc = json.loads(Path(CERT.cert).read_text())
    if tamper == "rank":
        doc["rank"] -= 1
    else:
        del doc["field"]
    Path(CERT.cert).write_text(json.dumps(doc))
    replay = harness.run_job(CLI, REPLAY, {})
    assert not replay.ok
    assert replay.rc != 0


def test_changed_output_bytes_fail_the_digest_check(workdir):
    clean = harness.run_job(CLI, CERT, {})
    assert clean.ok
    assert harness.run_job(CLI, CERT, {CERT.key: clean.digest}).ok
    stale = harness.run_job(CLI, CERT, {CERT.key: "0" * 64})
    assert not stale.ok
    assert any("digest" in p for p in stale.problems)


def test_golden_covers_every_job_at_the_default_seed():
    golden = harness.load_golden()
    for make in harness.WORKLOADS.values():
        for job in make(harness.DEFAULT_SEED):
            assert job.key in golden


def _traced_counts():
    tracer = Tracer().install()
    try:
        assert harness.lru_caches(), "traced bindings must keep their caches reachable"
        wall, results, _ = harness.run_pass(CLI, MINI, {}, tracer)
    finally:
        tracer.uninstall()
    assert all(r.ok for r in results)
    metrics = tracer.metrics(wall)
    return {k: v for k, v in metrics.items() if unit_of(k) == "count"}, metrics


def test_counts_repeat_exactly(workdir):
    counts, metrics = _traced_counts()
    again, _ = _traced_counts()
    assert counts == again
    # Every span is reached by the mini jobs, so every count is exercised.
    assert all(counts[name + ".calls"] > 0 for name in SPANS if name != "cli.main")
    assert 0 < metrics["trace.coverage_frac"] <= 1
    assert 0 < metrics["forms.sections.hit_ratio"] < 1


def test_uninstall_restores_every_binding():
    before = {
        (mod.__name__, k): v for mod in harness.program_modules() for k, v in vars(mod).items()
    }
    methods = dict(vars(sys.modules["twistforms.exactalg"].ExactMatrix))
    Tracer().install().uninstall()
    after = {
        (mod.__name__, k): v for mod in harness.program_modules() for k, v in vars(mod).items()
    }
    assert after == before
    assert dict(vars(sys.modules["twistforms.exactalg"].ExactMatrix)) == methods
