"""branchspec benchmark: one workload, one seed, one run.

    python3 benchmark/run.py --workload model-h1e-3 --seed 0 --seconds 20 --trace 0

Runs the workload's seeded job set of `branchspec <command> --check`
calls in this process through branchspec.cli.main, back to back (closed
loop, one client), and repeats the set while another pass fits in
--seconds.  With --trace 0 it reports the end-to-end metrics, with
--trace 1 the per-layer metrics of one traced pass.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  See benchmark/README.md.
"""

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 0
SETUP_RUNS = 3

# the counts the traced wrappers must reproduce on criterion 7's first
# model (jobs.C7)
C7_COUNTS = {"zerocount.winding_count.calls": 6493,
             "quantization.eval_G.calls": 82306,
             "quantization.eval_G.points": 1743964,
             "zerocount.zeros": 209}
C7_JOB = -2   # tracer job id of the cross-check

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="write reference/<workload>.json from this run's "
                         "outputs (default seed only)")
    return ap.parse_args(argv)


# --- provenance ---------------------------------------------------------------

def _blas_threads():
    """Thread count of every OpenBLAS loaded into this process."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                out[Path(path).name] = fn()
                break
    return out


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    path = ROOT / ".git" / name
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "branchspec").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args, branchspec_threads):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "BRANCHSPEC_THREADS": branchspec_threads,
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
    }


# --- running jobs ---------------------------------------------------------------

@dataclass
class JobResult:
    job: object
    rc: int
    wall: float
    cpu: float
    log: str
    problems: list

    @property
    def failed(self):
        return self.rc != 0 or bool(self.problems)


def _check(job, out, rc):
    """Invariant violations of one job's outputs; a job that exited
    nonzero before writing them is failed but not wrong."""
    try:
        return job.check(out)
    except OSError as exc:
        return [] if rc != 0 else [f"output missing: {exc}"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed output: {exc!r}"]


def run_job(job, out, cli, tracer=None):
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(job.config))
    argv = [job.command, "--config", str(cfg_path), "--check",
            "--out", str(out)]
    log = io.StringIO()
    if tracer is not None:
        tracer.enabled = True
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            rc = cli.main(argv)
    except Exception:  # an unmapped error is a failed job, not a crash
        rc = -1
        log.write(traceback.format_exc(limit=3))
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    if tracer is not None:
        tracer.enabled = False
    return JobResult(job, rc, wall, cpu, log.getvalue().strip(),
                     _check(job, out, rc))


def run_pass(jobs, workdir, cli, tracer=None):
    results = []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        results.append(run_job(job, workdir / job.label, cli, tracer))
    return results


def run_passes(jobs, workdir, cli, seconds):
    """Whole passes over the job set: at least one, and another while
    it is expected to end within `seconds`."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(jobs, workdir, cli))
        spent = time.perf_counter() - t0
        per_pass = spent / len(passes)
        if spent + per_pass > seconds:
            return passes


def check_reference(workload, jobs, workdir, record):
    """At the default seed, compare each job's outputs with the reference
    recorded when the benchmark was defined (or record it)."""
    from jobs import REFERENCE_DIR
    jobs = [job for job in jobs if job.reference is not None]
    if not jobs:
        return {}
    path = REFERENCE_DIR / f"{workload}.json"
    got = {job.label: job.reference(workdir / job.label) for job in jobs}
    if record:   # one line per job
        path.write_text("{\n" + ",\n".join(
            f"{json.dumps(label)}: {json.dumps(got[label], sort_keys=True)}"
            for label in sorted(got)) + "\n}\n")
        return {}
    want = json.loads(path.read_text())
    return {job.label: job.compare(got[job.label], want[job.label])
            if job.label in want else ["no reference recorded"]
            for job in jobs}


# --- set-up ---------------------------------------------------------------------

def measure_setup(workdir):
    """Wall time of fresh processes that import branchspec and run one
    tiny job per command; the median of SETUP_RUNS."""
    times = []
    for i in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"),
             str(workdir / f"setup{i}")],
            capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return statistics.median(times), times


# --- per-layer metrics ------------------------------------------------------------

# per-layer metric -> (span name, field of Tracer.summary)
LAYER = {
    "zerocount.locate_zeros.self_s": ("zerocount.locate_zeros", "self_s"),
    "zerocount.winding_count.calls": ("zerocount.winding_count", "calls"),
    "zerocount.winding_count.self_s": ("zerocount.winding_count", "self_s"),
    "zerocount.zeros": ("zerocount.locate_zeros", "points"),
    "zerocount.match_bijection.s": ("zerocount.match_bijection", "s"),
    "quantization.eval_G.calls": ("quantization.eval_G", "calls"),
    "quantization.eval_G.points": ("quantization.eval_G", "points"),
    "quantization.eval_G.self_s": ("quantization.eval_G", "self_s"),
    "quantization.bohr_sommerfeld_solve.calls":
        ("quantization.bohr_sommerfeld_solve", "calls"),
    "quantization.bohr_sommerfeld_solve.self_s":
        ("quantization.bohr_sommerfeld_solve", "self_s"),
    "quantization.bohr_sommerfeld_solve.failed":
        ("quantization.bohr_sommerfeld_solve", "errors"),
    "specfun.log_gamma.calls": ("specfun.log_gamma", "calls"),
    "specfun.log_gamma.points": ("specfun.log_gamma", "points"),
    "specfun.log_gamma.self_s": ("specfun.log_gamma", "self_s"),
    "skeleton.assemble.s": ("skeleton.assemble", "s"),
    "skeleton.trace_gamma.calls": ("skeleton.trace_gamma", "calls"),
    "skeleton.trace_gamma.samples": ("skeleton.trace_gamma", "points"),
    "skeleton.trace_gamma.dropped": ("skeleton.trace_gamma", "extra"),
    "skeleton.find_crossings.s": ("skeleton.find_crossings", "s"),
    "skeleton.curve_residual.calls": ("skeleton.curve_residual", "calls"),
    "skeleton.curve_residual.points": ("skeleton.curve_residual", "points"),
    "skeleton.curve_residual.self_s": ("skeleton.curve_residual", "self_s"),
    "skeleton.Body.contains.calls": ("skeleton.Body.contains", "calls"),
    "skeleton.Body.contains.s": ("skeleton.Body.contains", "s"),
    "schrodinger.discretize.s": ("schrodinger.discretize", "s"),
    "schrodinger.eigensolve.calls": ("schrodinger.eigensolve", "calls"),
    "schrodinger.eigensolve.s": ("schrodinger.eigensolve", "s"),
    "schrodinger.eigensolve.n3_sum": ("schrodinger.eigensolve", "points"),
    "schrodinger.spurious_filter.s": ("schrodinger.spurious_filter", "s"),
    "flowavg.classify_critical_points.calls":
        ("flowavg.classify_critical_points", "calls"),
    "flowavg.classify_critical_points.s":
        ("flowavg.classify_critical_points", "s"),
    "flowavg.classify_critical_points.boundary":
        ("flowavg.classify_critical_points", "errors"),
    "flowavg.correlation_C.calls": ("flowavg.correlation_C", "calls"),
    "flowavg.correlation_C.s": ("flowavg.correlation_C", "s"),
    "flowavg.grid_verify.s": ("flowavg.grid_verify", "s"),
    **{f"cli.{cmd}.s": (f"cli.{cmd}", "s") for cmd in
       ("model", "skeleton", "bs", "spectrum", "average", "classify")},
}


def layer_metrics(summary):
    """The per-layer metrics of a tracer summary, with the two ratios."""
    m = {name: summary[span][field] for name, (span, field) in LAYER.items()}
    zeros, windings = m["zerocount.zeros"], m["zerocount.winding_count.calls"]
    m["zerocount.windings_per_zero"] = windings / zeros if zeros else 0.0
    calls, points = m["quantization.eval_G.calls"], m["quantization.eval_G.points"]
    m["quantization.eval_G.points_per_call"] = points / calls if calls else 0.0
    return m


def crosscheck_c7(tracer):
    """Traced locate_zeros on criterion 7's first model; returns
    (counts, ok)."""
    import numpy as np
    from branchspec import quantization as q
    from branchspec import zerocount as zc
    from jobs import C7, action_model, physical_model
    p = q.SemiclassicalParams(h=C7["h"], epsilon=C7["eps"])
    s12, s34 = physical_model(np.random.default_rng(C7["seed"]), C7["eps"])
    prov = zc.GProvider(p, action_model(s12, s34))
    tracer.job = C7_JOB
    tracer.enabled = True
    try:
        zc.locate_zeros(prov.normalized_G, C7["rect"], p,
                        cell_budget=C7["cell_budget"])
    finally:
        tracer.enabled = False
    s = layer_metrics(tracer.summary([C7_JOB]))
    counts = {name: s[name] for name in C7_COUNTS}
    return counts, counts == C7_COUNTS


# --- main -----------------------------------------------------------------------

def _emit(line):
    print(line, flush=True)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "branchspec" / "__init__.py").is_file():
        print(f"benchmark: no branchspec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import jobs
    if args.workload not in jobs.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload}; choose from "
              f"{', '.join(jobs.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.record_reference and args.seed != DEFAULT_SEED:
        print("benchmark: references are recorded at the default seed",
              file=sys.stderr)
        return 2
    # the program's default: one locate_zeros worker
    branchspec_threads = os.environ.pop("BRANCHSPEC_THREADS", None)
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = run(args, workdir, branchspec_threads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _emit(json.dumps(result))
    return 0


def run(args, workdir, branchspec_threads):
    """One benchmark run; returns the result object."""
    import jobs as jobdefs
    from branchspec import cli
    from setup_child import warm_up

    setup_s, setup_samples = measure_setup(workdir)
    warm_up(workdir / "warmup")
    _emit("# provenance " + json.dumps(provenance(args, branchspec_threads)))
    _emit(f"# setup_s samples: {', '.join(f'{t:.4f}' for t in setup_samples)}")

    jobs = jobdefs.make_jobs(args.workload, args.seed)
    run_job(jobdefs.warmup_job(jobs), workdir / "warmup-job", cli)
    if args.trace:
        passes = [run_pass(jobs, workdir, cli)]
        tracer = install_tracer()
        passes.append(run_pass(jobs, workdir, cli, tracer))
    else:
        passes = run_passes(jobs, workdir, cli, args.seconds)

    results = [r for p in passes for r in p]
    if args.seed == DEFAULT_SEED or args.record_reference:
        diffs = check_reference(args.workload, jobs, workdir,
                                args.record_reference)
        for r in passes[0]:
            r.problems.extend(diffs.get(r.job.label, []))
    failed = sum(r.failed for r in results)
    correct = not any(r.problems for r in results)
    for r in passes[0]:
        note = "; ".join(r.problems) or (r.log.splitlines()[-1] if r.log else "")
        _emit(f"# job {r.job.label}: rc={r.rc} wall={r.wall:.4f}s "
              f"cpu={r.cpu:.4f}s {note}")
    _emit(f"# passes: {len(passes)}, jobs attempted: {len(results)}, "
          f"failed: {failed}, failed_frac: {failed / len(results):.4f}, "
          f"pass wall times: "
          f"{', '.join(f'{sum(r.wall for r in p):.4f}' for p in passes)}")

    if args.trace:
        metrics, crosscheck_ok = traced_metrics(args, jobs, passes, tracer)
        correct = correct and crosscheck_ok
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (statistics.median(sum(r.wall for r in p)
                                        for p in passes), "s"),
            "cpu_s": (statistics.median(sum(r.cpu for r in p)
                                        for p in passes), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }
    for name, (value, unit) in metrics.items():
        _emit(f"# {name} = {value:.6g} {unit}")
    return {"correct": correct, "attempted": len(results), "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def install_tracer():
    from branchspec import (cli, flowavg, quantization, schrodinger, skeleton,
                            specfun, zerocount)
    from branchspec.errors import BranchspecError
    from tracing import Tracer
    tracer = Tracer()
    tracer.install({"cli": cli, "zerocount": zerocount,
                    "quantization": quantization, "specfun": specfun,
                    "skeleton": skeleton, "schrodinger": schrodinger,
                    "flowavg": flowavg},
                   cli.COMMANDS, (BranchspecError,))
    return tracer


def traced_metrics(args, jobs, passes, tracer):
    """Per-layer metrics of the traced pass (passes[1]) and the batch
    probe, and whether the criterion-7 count cross-check (model-h1e-3
    only) passed; writes the span file."""
    from probe import batch_probe
    untraced, traced = passes
    layer = layer_metrics(tracer.summary(range(len(jobs))))
    layer["cli.exit_nonzero"] = sum(1 for r in traced if r.rc != 0)
    layer["trace.overhead_s"] = sum(r.wall for r in traced) \
        - sum(r.wall for r in untraced)
    labels = {i: job.label for i, job in enumerate(jobs)}
    ok = True
    if args.workload == "model-h1e-3":
        counts, ok = crosscheck_c7(tracer)
        labels[C7_JOB] = "crosscheck-c7"
        _emit(f"# criterion-7 count cross-check: {json.dumps(counts)} "
              f"{'matches' if ok else 'DIFFERS from'} "
              f"{json.dumps(C7_COUNTS)}")
    tracer.uninstall()
    path = WORK / f"trace-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write(path, labels)
    _emit(f"# {len(tracer)} spans written to {path.relative_to(ROOT)}")
    layer.update(batch_probe(args.seed))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if set(units) != set(layer):
        raise RuntimeError("per-layer metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(layer))}")
    return {name: (layer[name], unit) for name, unit in units.items()}, ok


if __name__ == "__main__":
    sys.exit(main())
