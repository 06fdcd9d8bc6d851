"""Workloads: seeded job sets of branchspec CLI calls and the checks the
benchmark makes on their outputs, outside the timed region.

A job is one `branchspec <command> --check` call on a generated config.
`check(out)` returns the invariant violations found in the job's output
directory; `reference(out)` returns the values that `compare` checks
against the reference file recorded for the default seed.
"""

import csv
import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from branchspec import calibration, flowavg, schrodinger, zerocount
from branchspec.quantization import ActionModel, SemiclassicalParams

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
ZERO_TOL = 1e-12      # zero sets and BS roots against the reference
G_TOL = 1e-9          # |G| at a reported zero (locate_zeros residual_tol)


def _exact(got, want):
    return [] if got == want else ["output differs from reference"]


@dataclass
class Job:
    label: str
    command: str
    config: dict
    check: Callable
    reference: Optional[Callable]   # None: no reference is recorded
    compare: Callable = _exact


def _num(text):
    """A float written by the CLI; numpy 2 scalars are written as
    'np.float64(x)' by repr()."""
    text = text.strip()
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _coeffs(raw):
    return np.array([complex(re, im) for re, im in raw])


def physical_model(rng, eps):
    """S12, S34 coefficient lists, drawn as in the acceptance tests'
    physical_model (tests/test_acceptance.py)."""
    im = eps * rng.uniform(0.2, 1.0, 2)
    re = rng.uniform(-0.05, 0.05, 2)
    sl = rng.uniform(-0.3, 0.3, 2)
    return ([[float(re[0]), float(im[0])], [float(sl[0]), 0.0]],
            [[float(re[1]), float(im[1])], [float(sl[1]), 0.0]])


def action_model(s12, s34):
    """The ActionModel the CLI builds from config coefficient lists."""
    return ActionModel(_coeffs(s12), _coeffs(s34))


# criterion 7 of the acceptance tests: its first model is the first draw
# of default_rng(11), on this rectangle
C7 = {"seed": 11, "h": 1e-3, "eps": 3e-2, "rect": (-0.1, 0.1, -0.03, 0.02),
      "cell_budget": 400000}


def _params_model(cfg):
    p = SemiclassicalParams(h=cfg["h"], epsilon=cfg["epsilon"])
    return p, action_model(cfg["S12"], cfg["S34"])


def _match(got, want):
    """Largest distance from a reference point to its nearest output
    point; inf when the counts differ."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        return np.inf
    if got.size == 0:
        return 0.0
    d = np.abs(want[:, None] - got[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def _pairs(points):
    return [[z.real, z.imag] for z in points]


# --- model-h1e-3 ----------------------------------------------------------

MODEL_H = 1e-3
MODEL_EPS = 3e-2
MODEL_RECT = [-0.01, 0.05, -0.01, 0.02]
MODEL_JOBS = 2


def _zeros(out):
    return np.array([complex(_num(r["re"]), _num(r["im"]))
                     for r in _read_csv(out / "zeros.csv")])


def _model_check(cfg):
    def check(out):
        zs = _zeros(out)
        p, am = _params_model(cfg)
        prov = zerocount.GProvider(p, am)
        n = zerocount.winding_count(
            prov.normalized_G, zerocount.Contour.rectangle(*cfg["rectangle"]),
            h=p.h)
        problems = []
        if n != len(zs):
            problems.append(f"{len(zs)} zeros, argument principle gives {n}")
        if len(zs):
            worst = float(np.max(np.abs(prov.normalized_G(zs))))
            if worst > G_TOL:
                problems.append(f"|G| = {worst:.2e} at a reported zero")
        return problems
    return check


def _zero_reference(out):
    return {"zeros": _pairs(_zeros(out))}


def _compare_zeros(got, want):
    d = _match([complex(*z) for z in got["zeros"]],
               [complex(*z) for z in want["zeros"]])
    return [] if d <= ZERO_TOL else [f"zero set differs from reference by {d:.2e}"]


def model_jobs(rng):
    jobs = []
    for i in range(MODEL_JOBS):
        s12, s34 = physical_model(rng, MODEL_EPS)
        cfg = {"h": MODEL_H, "epsilon": MODEL_EPS, "S12": s12, "S34": s34,
               "rectangle": MODEL_RECT, "C_body": 10.0}
        jobs.append(Job(f"model{i}", "model", cfg, _model_check(cfg),
                        _zero_reference, _compare_zeros))
    return jobs


# --- curves-h3e-4 -----------------------------------------------------------

CURVES_H = 3e-4
CURVES_MODELS = 7
CURVES_STRIP = (0.01, 0.025)   # |Re mu| range of the BS roots per branch


def bs_phase(branch, s12, s34, h, x):
    """Real-axis phase whose crossings of 2 pi h (k + 1/2) seed the BS
    Newton, as in cli._bs_roots_in_strip (and its Ext analogue)."""
    am = action_model(s12, s34)
    x = complex(x)
    S12, S34 = am.S12(x), am.S34(x)
    if branch == "ext":
        v = S12 + S34 + 2 * x * (np.log(-x) - 1) + np.pi * h / 2
    else:
        v = x * np.log(x) - x + np.pi * h / 4 + (S12 if branch == "rightint"
                                                 else S34)
    return v.real


def bs_k_range(branch, s12, s34, h, x_lo, x_hi):
    """The k whose real-axis seed lies inside [x_lo, x_hi]: the strip
    derivation of cli._bs_roots_in_strip, rounded inward instead of
    widened by one index, so every k has a root."""
    ends = [bs_phase(branch, s12, s34, h, x) for x in (x_lo, x_hi)]
    k_lo = int(np.ceil(min(ends) / (2 * np.pi * h) - 0.5))
    k_hi = int(np.floor(max(ends) / (2 * np.pi * h) - 0.5))
    return k_lo, k_hi


def _bs_rows(out):
    return [(int(r["k"]), complex(_num(r["re"]), _num(r["im"])),
             _num(r["residual"]), r["converged"] == "1")
            for r in _read_csv(out / "bs_roots.csv")]


def _bs_check(cfg, x_lo, x_hi):
    def check(out):
        rows = _bs_rows(out)
        problems = []
        if len(rows) != cfg["k_max"] - cfg["k_min"] + 1:
            problems.append(f"{len(rows)} BS rows for k-range "
                            f"{cfg['k_min']}..{cfg['k_max']}")
        tol = calibration.CALIBRATION["bs_residual_tol"]
        if not all(ok and res <= tol for _, _, res, ok in rows):
            problems.append("a BS root did not converge to tolerance")
        mus = np.array([mu for _, mu, _, _ in rows])
        slack = 2 * np.pi * cfg["h"]
        if mus.size and (np.abs(mus.real).min() < x_lo - slack
                         or np.abs(mus.real).max() > x_hi + slack):
            problems.append("a BS root lies outside its strip")
        if mus.size > 1 and np.min(np.abs(np.diff(mus))) == 0.0:
            problems.append("two k gave the same BS root")
        return problems
    return check


def _bs_reference(out):
    return {"zeros": _pairs([mu for _, mu, _, _ in _bs_rows(out)])}


def _skeleton_check(out):
    doc = json.loads((out / "skeleton.json").read_text())
    return [f"empty skeleton piece {pc['label']}"
            for pc in doc["pieces"] if pc["n_samples"] == 0]


def _skeleton_reference(out):
    doc = json.loads((out / "skeleton.json").read_text())
    return {"zeros": [z for z in (doc["mu_A"], doc["mu_B"]) if z is not None],
            "n_samples": [pc["n_samples"] for pc in doc["pieces"]]}


def _compare_skeleton(got, want):
    problems = _compare_zeros(got, want)
    if got["n_samples"] != want["n_samples"]:
        problems.append("skeleton sample counts differ from reference")
    return problems


def curves_jobs(rng):
    jobs = []
    x_lo, x_hi = CURVES_STRIP
    for i in range(CURVES_MODELS):
        s12, s34 = physical_model(rng, MODEL_EPS)
        base = {"h": CURVES_H, "epsilon": MODEL_EPS, "S12": s12, "S34": s34,
                "C_body": 10.0}
        jobs.append(Job(f"skeleton{i}", "skeleton", base, _skeleton_check,
                        _skeleton_reference, _compare_skeleton))
        for branch, lo, hi in (("ext", -x_hi, -x_lo),
                               ("leftint", x_lo, x_hi),
                               ("rightint", x_lo, x_hi)):
            k_min, k_max = bs_k_range(branch, s12, s34, CURVES_H, lo, hi)
            cfg = dict(base, branch=branch, k_min=k_min, k_max=k_max)
            jobs.append(Job(f"bs-{branch}{i}", "bs", cfg,
                            _bs_check(cfg, x_lo, x_hi), _bs_reference,
                            _compare_zeros))
    return jobs


# --- spectrum-h1e-2 -----------------------------------------------------------

SPECTRUM_SHAPES = ([0, 0, 1], [0, 0, 0, 1], [0, 0.12, 1])  # examples_cli/fig*
SPECTRUM_JOBS = 12


def _spectrum_check(cfg):
    def check(out):
        lam = np.array([complex(_num(r["re"]), _num(r["im"]))
                        for r in _read_csv(out / "spectrum.csv")])
        spec = schrodinger.OperatorSpec(
            V=cfg["V"], W=cfg["W"], h=cfg["h"], epsilon=cfg["epsilon"],
            L=cfg["L"], N=cfg["N"])
        A, _ = schrodinger.discretize(spec)
        problems = []
        if len(lam) != A.shape[0]:
            problems.append(f"{len(lam)} eigenvalues for a {A.shape[0]}-matrix")
        # the eigenvalues of A sum to its trace
        err = abs(lam.sum() - np.trace(A))
        scale = A.shape[0] * np.linalg.norm(A, 1)
        if not err <= 1e-12 * scale:
            problems.append(f"eigenvalue sum misses the trace by {err:.2e}")
        return problems
    return check


def spectrum_jobs(rng):
    jobs = []
    for i in range(SPECTRUM_JOBS):
        shape = np.array(SPECTRUM_SHAPES[i % len(SPECTRUM_SHAPES)], float)
        W = shape * rng.uniform(0.9, 1.1, shape.size)
        cfg = {"h": 0.01, "epsilon": 0.8, "V": [0, 0, -1, 0, 1],
               "W": [float(w) for w in W], "L": 1.2, "N": 400, "dN": 40,
               "window": [-0.2, 0.2]}
        # no reference: the resolved set depends on the BLAS thread count
        jobs.append(Job(f"spectrum{i}", "spectrum", cfg, _spectrum_check(cfg),
                        None))
    return jobs


# --- flowavg-exact --------------------------------------------------------------

FLOW_SCANS = 10
FLOW_SCAN_N = 60
FLOW_AVERAGES = 60
FLOW_CLASSIFY = 60
QUARTIC = ["4,0", "0,4", "3,1", "1,3", "2,2"]
COEFFS = [-3, -2, -1, 1, 2, 3]   # nonzero, so every pair has all five monomials
REGIONS = {r.value: r for r in flowavg.Region}


def _scan_check(cfg):
    def check(out):
        rows = _read_csv(out / "region_scan.csv")
        n = cfg["scan"]["b_range"][2] * cfg["scan"]["c_range"][2]
        problems = []
        if len(rows) != n:
            problems.append(f"{len(rows)} scan rows, expected {n}")
        bad = {r["region"] for r in rows} - set(REGIONS) - {"boundary"}
        if bad:
            problems.append(f"unknown regions {sorted(bad)}")
        if any(r["region"] in REGIONS and int(r["saddles"])
               != flowavg.REGION_SADDLES[REGIONS[r["region"]]] for r in rows):
            problems.append("a saddle count disagrees with its region")
        return problems
    return check


def _scan_reference(out):
    rows = "".join(f"{r['region']},{r['saddles']}\n"
                   for r in _read_csv(out / "region_scan.csv"))
    return {"rows_sha256": hashlib.sha256(rows.encode()).hexdigest()}


def _xpoly(raw):
    return flowavg.zpoly_from_x(
        {tuple(int(s) for s in k.split(",")): Fraction(v)
         for k, v in raw.items()})


def _average_check(cfg):
    def check(out):
        doc = json.loads((out / "average.json").read_text())
        got = flowavg.BalancedLaurent.from_json_dict(doc["C"])
        # C(q1, q2) = C(q2, q1), computed the other way round
        want = flowavg.correlation_C(_xpoly(cfg["correlate_with"]),
                                     _xpoly(cfg["x_poly"]))
        return [] if got == want else ["C(q1, q2) != C(q2, q1)"]
    return check


def _average_reference(out):
    doc = json.loads((out / "average.json").read_text())
    return {k: doc[k] for k in ("average", "G0", "C")}


def _classify_check(out):
    doc = json.loads((out / "classify.json").read_text())
    region = flowavg.Region(doc["region"])
    table = flowavg.REGION_TABLE[region]
    problems = []
    if doc["saddle_count"] != flowavg.REGION_SADDLES[region]:
        problems.append(f"saddle count disagrees with region {region.value}")
    sig = {pt["kind"]: tuple(pt["signature"]) for pt in doc["points"]}
    for key, kind in (("Cf", flowavg.PointKind.CrossingCf),
                      ("Cb", flowavg.PointKind.CrossingCb),
                      ("horizontal", flowavg.PointKind.HorizontalCircle),
                      ("vertical", flowavg.PointKind.VerticalCircle)):
        if sig.get(kind.value) != table[key]:
            problems.append(f"{key} signature disagrees with the region table")
    return problems


def _classify_reference(out):
    doc = json.loads((out / "classify.json").read_text())
    return {k: doc[k] for k in ("region", "saddle_count", "points")}


def _rational(rng, lo, hi, den=16):
    return Fraction(int(rng.integers(lo * den, hi * den + 1)), den)


def _classify_params(rng):
    """(a, b, c) with d = b/2 - 2a > 0, where the region table gives the
    signatures, c != 0 (else the poles replace the vertical circle), at
    least 1/8 away from every separating line c = +-b,
    c = +-(b + d), and off the degenerate cases b = 0, b + d = 0."""
    while True:
        a = _rational(rng, -2, -1)
        b = _rational(rng, -3, 3)
        c = _rational(rng, -4, 4)
        d = b / 2 - 2 * a
        if b != 0 and c != 0 and b + d != 0 and \
                min(abs(c - b), abs(c + b), abs(c - b - d), abs(c + b + d)) \
                >= Fraction(1, 8):
            return a, b, c


def flowavg_jobs(rng):
    jobs = []
    for i in range(FLOW_SCANS):
        b0 = float(rng.uniform(-4, 0))
        c0 = float(rng.uniform(-4, 0))
        d = float(rng.choice([1.5, 2.0, 2.5, 3.0]))
        cfg = {"scan": {"b_range": [b0, b0 + 4, FLOW_SCAN_N],
                        "c_range": [c0, c0 + 4, FLOW_SCAN_N], "d": d}}
        jobs.append(Job(f"scan{i}", "classify", cfg, _scan_check(cfg),
                        _scan_reference))
    for i in range(FLOW_AVERAGES):
        cfg = {"x_poly": {m: int(rng.choice(COEFFS)) for m in QUARTIC},
               "correlate_with": {m: int(rng.choice(COEFFS))
                                  for m in QUARTIC}}
        jobs.append(Job(f"average{i}", "average", cfg, _average_check(cfg),
                        _average_reference))
    for i in range(FLOW_CLASSIFY):
        a, b, c = _classify_params(rng)
        cfg = {"a": [a.numerator, a.denominator],
               "b": [b.numerator, b.denominator],
               "c": [c.numerator, c.denominator]}
        jobs.append(Job(f"classify{i}", "classify", cfg, _classify_check,
                        _classify_reference))
    return jobs


# --- registry ----------------------------------------------------------------

WORKLOADS = {
    "model-h1e-3": model_jobs,
    "curves-h3e-4": curves_jobs,
    "spectrum-h1e-2": spectrum_jobs,
    "flowavg-exact": flowavg_jobs,
}

def make_jobs(workload, seed):
    return WORKLOADS[workload](np.random.default_rng(seed))


def warmup_job(jobs):
    """The untimed job run before timing: the first job of the set, which
    fills the caches and buffers a job of its size needs; for model jobs
    the same model on a small rectangle, as any size warms that path."""
    job = jobs[0]
    if job.command == "model":
        cfg = dict(job.config, rectangle=[0.002, 0.012, -0.005, 0.012])
        return Job("warmup", "model", cfg, _model_check(cfg), None)
    return job
