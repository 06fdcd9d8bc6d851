"""The benchmark's seed-0 jobs give the answers recorded for them.

Each job runs through the CLI with --check, then meets the job's own
check and its comparison with benchmark/reference/ (zero sets and
Bohr-Sommerfeld roots to 1e-12, exact flow averages and scans).  The
job sets and the references are the benchmark's own, read from
benchmark/ and never written, so the two share one file of answers.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from branchspec import cli

JOBS = Path(__file__).resolve().parent.parent / "benchmark" / "jobs.py"


def _load_jobs():
    spec = importlib.util.spec_from_file_location("bench_jobs", JOBS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


jobs = _load_jobs()


@pytest.mark.parametrize("workload",
                         ["model-h1e-3", "curves-h3e-4", "flowavg-exact"])
def test_benchmark_jobs_give_the_reference_answers(tmp_path, workload):
    want = json.loads((jobs.REFERENCE_DIR / f"{workload}.json").read_text())
    job_set = jobs.make_jobs(workload, 0)
    assert {job.label for job in job_set if job.reference} == set(want)
    for job in job_set:
        out = tmp_path / job.label
        out.mkdir()
        cfg = out / "config.json"
        cfg.write_text(json.dumps(job.config))
        assert cli.main([job.command, "--config", str(cfg), "--check",
                         "--out", str(out)]) == 0, job.label
        assert job.check(out) == [], job.label
        assert job.compare(job.reference(out), want[job.label]) == [], \
            job.label
