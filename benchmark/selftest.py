"""Self-test of the benchmark's correctness checks: outputs perturbed
after a passing job must be counted as failed.

    python3 benchmark/selftest.py

Exits 0 when every perturbation is caught, 1 otherwise.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import jobs  # noqa: E402
from run import WORK, JobResult, run_job  # noqa: E402


def _perturb_zero(out):
    path = out / "zeros.csv"
    lines = path.read_text().splitlines()
    re, rest = lines[1].split(",", 1)
    lines[1] = f"{float(re) + 1e-6!r},{rest}"
    path.write_text("\n".join(lines) + "\n")


def _perturb_rational(out):
    path = out / "average.json"
    doc = json.loads(path.read_text())
    key = sorted(doc["C"])[0]
    doc["C"][key][0][0] += 1
    path.write_text(json.dumps(doc))


def main():
    from branchspec import cli
    work = WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    model_cfg = {"h": 0.01, "epsilon": 0.03,
                 "S12": [[0.01, 0.012], [0.3, 0.0]],
                 "S34": [[0.02, 0.02], [-0.2, 0.0]],
                 "rectangle": [0.06, 0.2, -0.04, 0.04], "C_body": 10.0}
    avg_cfg = {"x_poly": {"4,0": 1, "2,2": -2, "1,3": 3},
               "correlate_with": {"3,1": 2, "0,4": -1, "2,2": 1}}
    cases = [
        (jobs.Job("model", "model", model_cfg, jobs._model_check(model_cfg),
                  jobs._zero_reference, jobs._compare_zeros), _perturb_zero),
        (jobs.Job("average", "average", avg_cfg, jobs._average_check(avg_cfg),
                  jobs._average_reference), _perturb_rational),
    ]
    ok = True
    try:
        for job, perturb in cases:
            out = work / job.label
            clean = run_job(job, out, cli)
            reference = job.reference(out)
            perturb(out)
            bad = JobResult(job, clean.rc, clean.wall, clean.cpu, clean.log,
                            job.check(out))
            bad.problems += job.compare(job.reference(out), reference)
            caught = not clean.failed and bad.failed
            ok &= caught
            print(f"{job.label}: clean run failed={clean.failed}, perturbed "
                  f"output failed={bad.failed} ({'; '.join(bad.problems)})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
