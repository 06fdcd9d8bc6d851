"""Zero location and counting by the argument principle.

Winding numbers come from adaptive phase tracking (accumulated arg
increments kept below pi/2 per step), which yields exact integers
without numerical quadrature of f'/f.  Functions handed in here must map
a complex array to a complex array of its shape; for the quantization
function use the normalized G (value of eval_G), whose modulus is the
ratio of |G| to the largest term.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .calibration import CALIBRATION
from .errors import (
    CellBudgetExceeded,
    CountNotConserved,
    NotAdmissible,
    OnContourZero,
)
from .quantization import term_set

PHASE_CAP = CALIBRATION["winding_phase_cap_rad"]   # pi/2
NEWTON_TOL = CALIBRATION["newton_residual_tol"]
# the model's seeds, as cli._model_zeros gathers them (see calibration.py)
SEED_SPLIT_C = CALIBRATION["seed_split_C"]
STRIP_GRID_C = CALIBRATION["strip_grid_C"]
# length cap C h / ln(1/<mu>_h) of an admissible curve's I intervals
ADMISSIBLE_C = 10.0


@dataclass
class Contour:
    """Closed positively oriented rectangle: its four vertices,
    counter-clockwise.  rectangle and expanded are its constructors."""

    vertices: np.ndarray

    @classmethod
    def rectangle(cls, re0, re1, im0, im1):
        """[re0, re1] x [im0, im1]; raises ValueError unless re0 < re1 and
        im0 < im1 (written so that NaN fails too)."""
        if not (re0 < re1 and im0 < im1):
            raise ValueError("rectangle must have re0 < re1 and im0 < im1")
        return cls(np.array([re0 + 1j * im0, re1 + 1j * im0,
                             re1 + 1j * im1, re0 + 1j * im1]))

    def edges(self):
        v = list(self.vertices)
        return list(zip(v, v[1:] + v[:1]))

    def expanded(self, delta):
        """Vertices pushed radially outward from the centroid by delta."""
        c = np.mean(self.vertices)
        d = self.vertices - c
        return Contour(c + d * (1.0 + delta / np.abs(d)))


def _wrapped_increments(vals):
    d = np.diff(np.angle(vals))
    return (d + np.pi) % (2 * np.pi) - np.pi


# an edge starts as 32 equal steps, and is refined at most 26 times
_EDGE_T = np.linspace(0.0, 1.0, 33)
_MAX_DEPTH = 26
# times winding_count pushes a contour outward before giving up
_RETRIES = 3


def _phase_increments(f, za, zb):
    """Sum of arg increments of f along [za, zb].

    Refines until every wrapped step is below pi/2 AND the total is
    stable under one full extra bisection level; wrapped increments
    alone can alias a fast 2 pi k + small rotation into a small step.
    Returns (total, min |f| seen).
    """
    pts = za + (zb - za) * _EDGE_T
    vals = f(pts)
    for _ in range(_MAX_DEPTH):
        d = _wrapped_increments(vals)
        bad = np.abs(d) >= PHASE_CAP
        if bad.any():
            mids = 0.5 * (pts[:-1][bad] + pts[1:][bad])
            fm = f(mids)
            at = np.flatnonzero(bad) + 1
            pts = np.insert(pts, at, mids)
            vals = np.insert(vals, at, fm)
            continue
        # anti-aliasing verification: bisect everything once
        mids = 0.5 * (pts[:-1] + pts[1:])
        fm = f(mids)
        pts2 = np.empty(len(pts) + len(mids), dtype=complex)
        vals2 = np.empty_like(pts2)
        pts2[0::2], pts2[1::2] = pts, mids
        vals2[0::2], vals2[1::2] = vals, fm
        d2 = _wrapped_increments(vals2)
        total_after = float(d2.sum())
        pts, vals = pts2, vals2
        if abs(total_after - float(d.sum())) < 1e-9 \
                and not (np.abs(d2) >= PHASE_CAP).any():
            return total_after, float(np.abs(vals).min())
    raise OnContourZero("phase tracking did not stabilize (zero on path?)")


def _winding_once(f, contour):
    total = 0.0
    min_abs = np.inf
    max_abs = 0.0
    for za, zb in contour.edges():
        t, m = _phase_increments(f, za, zb)
        total += t
        min_abs = min(min_abs, m)
        v = np.abs(f(np.array([za])))[0]
        max_abs = max(max_abs, v)
    return total / (2 * np.pi), min_abs, max_abs


def winding_count(f, contour, h):
    """Exact number of zeros inside the contour by phase tracking.

    The count must be stable under one extra refinement level; contours
    running through a zero are pushed outward by h/100 up to _RETRIES
    times before OnContourZero is raised.
    """
    c = contour
    for attempt in range(_RETRIES + 1):
        try:
            w, min_abs, max_abs = _winding_once(f, c)
            if min_abs <= 1e-12 * max(max_abs, 1.0):
                raise OnContourZero("contour passes through a zero")
            n = int(np.round(w))
            if abs(w - n) > 0.25:
                raise OnContourZero(f"unstable winding {w}")
            return n
        except OnContourZero:
            if attempt == _RETRIES:
                raise
            c = c.expanded(h / 100.0)


@dataclass
class Zero:
    location: complex
    residual: float


@dataclass
class ZeroSet:
    zeros: list
    counts: int = 0          # of locate_zeros: the winding counts made
    deficit_cells: int = 0   # and the cells it quadrisected or polished

    def locations(self):
        return np.array([z.location for z in self.zeros])

    def __len__(self):
        return len(self.zeros)


def _newton_polish(f, seeds, h):
    """Newton with central-difference derivative, step h*1e-3, from every
    seed at once.  The seeds are lanes: each round makes three calls of f,
    at z + delta, at z - delta and at the new iterates, each over the open
    lanes, and each lane steps as a polish of its seed alone would.  A
    single seed makes one-point calls only.  Returns one (z, residual)
    per seed."""
    delta = h * 1e-3
    z = [complex(s) for s in seeds]
    if not z:
        return []
    fz = [complex(v) for v in f(np.array(z))]
    lanes = list(range(len(z)))
    for _ in range(50):
        # the stop tests are written so that a NaN lane steps on
        lanes = [i for i in lanes if not abs(fz[i]) <= 0.0]
        if not lanes:
            break
        zs = np.array([z[i] for i in lanes])
        diff = f(zs + delta) - f(zs - delta)
        going, z_new = [], []
        for i, dv in zip(lanes, diff):
            d = complex(dv) / (2 * delta)
            if d == 0:
                continue
            step = fz[i] / d
            if abs(step) > h:
                step *= h / abs(step)
            going.append((i, step))
            z_new.append(z[i] - step)
        if not going:
            break
        lanes = []
        for (i, step), zn, fn in zip(going, z_new, f(np.array(z_new))):
            f_new = complex(fn)
            if abs(f_new) >= abs(fz[i]) and abs(fz[i]) <= NEWTON_TOL:
                continue
            z[i], fz[i] = zn, f_new
            if not abs(step) < 1e-17 * max(1.0, abs(zn)):
                lanes.append(i)
    return [(zi, abs(fi)) for zi, fi in zip(z, fz)]


def locate_zeros(f, region, p, seeds=(),
                 cell_budget=CALIBRATION["cell_budget"]):
    """All zeros of f in the rectangle region = (re0, re1, im0, im1):
    count first, then locate (Kravanja and Van Barel).

    f must be normalized so that |f| = 1 is the local term scale (eval_G
    values qualify); located zeros satisfy |f| <= NEWTON_TOL.  The
    distinct zeros that one _newton_polish of the seeds reaches are
    known.  A cell is done when it holds as many known zeros as its
    winding count, which without seeds means none.  Any other cell is
    quadrisected: child counts must add up to the parent count, or the
    split is jittered once and then CountNotConserved raised.  A cell no
    wider than h/50 is polished from its centre instead.  The region is
    closed and its subcells half-open, [a0, a1) x [b0, b1), so that a
    known zero on a shared edge is inside one only.  cell_budget bounds
    the counts.  The ZeroSet also holds the counts made and the deficit
    cells: those with zeros that their known zeros do not account for.
    """
    h = p.h
    re0, re1, im0, im1 = region
    min_cell = h / 50.0
    known = _distinct([Zero(z, r) for z, r in _newton_polish(f, seeds, h)
                       if r <= NEWTON_TOL and re0 <= z.real <= re1
                       and im0 <= z.imag <= im1], h)
    zeros = []
    state = {"counts": 0, "deficit": 0}

    def count(cell):
        state["counts"] += 1
        if state["counts"] > cell_budget:
            raise CellBudgetExceeded("cell budget exceeded",
                                     partial=ZeroSet(zeros))
        a0, a1, b0, b1 = cell
        return winding_count(f, Contour.rectangle(a0, a1, b0, b1), h=h)

    def recurse(cell, n, inside):
        a0, a1, b0, b1 = cell
        if n == 0:
            return
        if len(inside) == n:
            zeros.extend(inside)
            return
        state["deficit"] += 1
        if max(a1 - a0, b1 - b0) <= min_cell:
            z0 = complex(0.5 * (a0 + a1), 0.5 * (b0 + b1))
            (z, res), = _newton_polish(f, [z0], h)
            zeros.append(Zero(location=z, residual=res))
            return
        am, bm = 0.5 * (a0 + a1), 0.5 * (b0 + b1)
        # a zero on a shared edge breaks the sum: jitter the split once
        for am, bm in ((am, bm), (am + 0.013 * (a1 - a0),
                                  bm + 0.017 * (b1 - b0))):
            kids = [(a0, am, b0, bm), (am, a1, b0, bm),
                    (a0, am, bm, b1), (am, a1, bm, b1)]
            kid_counts = [count(k) for k in kids]
            if sum(kid_counts) == n:
                break
        else:
            raise CountNotConserved(
                f"count {n} not conserved: children {kid_counts} in {cell}",
                cell=cell, count=n, children=kid_counts)
        for (c0, c1, d0, d1), kn in zip(kids, kid_counts):
            recurse((c0, c1, d0, d1), kn,
                    [z for z in inside if c0 <= z.location.real < c1
                     and d0 <= z.location.imag < d1])

    root = (re0, re1, im0, im1)
    recurse(root, count(root), known)
    uniq = [z for z in _distinct(zeros, h) if z.residual <= NEWTON_TOL]
    return ZeroSet(zeros=uniq, counts=state["counts"],
                   deficit_cells=state["deficit"])


def _distinct(zeros, h):
    """The zeros by residual, dropping any within the polish scale 1e-3 h
    of one with a smaller residual: those are one zero."""
    uniq = []
    for z in sorted(zeros, key=lambda w: w.residual):
        if all(abs(z.location - u.location) > 1e-3 * h for u in uniq):
            uniq.append(z)
    return uniq


def _grid_seeds(f, region, nx, ny):
    """The local minima of |f| below 0.5 on an nx x ny grid, in row-major
    order.  The grid spans region padded by two steps each way, so that
    zeros hugging the boundary still give interior minima.  f is
    evaluated 2048 points at a time, which bounds the memory of a fine
    grid."""
    re0, re1, im0, im1 = region
    padx = 2 * (re1 - re0) / nx
    pady = 2 * (im1 - im0) / ny
    xs = np.linspace(re0 - padx, re1 + padx, nx)
    ys = np.linspace(im0 - pady, im1 + pady, ny)
    Z = xs + 1j * ys[:, None]
    z = Z.ravel()
    A = np.empty(z.shape)
    for i in range(0, z.size, 2048):
        A[i:i + 2048] = np.abs(f(z[i:i + 2048]))
    A = A.reshape(Z.shape)
    interior = A[1:-1, 1:-1]
    mask = interior < 0.5
    for neighbour in (A[:-2, 1:-1], A[2:, 1:-1], A[1:-1, :-2], A[1:-1, 2:]):
        mask &= interior <= neighbour
    return Z[1:-1, 1:-1][mask]


def grid_newton_count(f, region, p):
    """Independent zero counter: dense |f| grid minima + Newton polish.

    Used as the oracle against winding_count; shares no code path with
    the phase tracking.
    """
    re0, re1, im0, im1 = region
    h = p.h
    nx = max(40, int((re1 - re0) / (h / 6)))
    ny = max(40, int((im1 - im0) / (h / 6)))
    nx, ny = min(nx, 1200), min(ny, 1200)
    roots = []
    outside = []

    def keep(seeds):
        # deduplicated in seed order against every root kept so far
        for z, res in _newton_polish(f, seeds, h):
            if res > NEWTON_TOL:
                continue
            inside = re0 <= z.real <= re1 and im0 <= z.imag <= im1
            if all(abs(z - r) > 1e-3 * h for r in roots + outside):
                (roots if inside else outside).append(z)

    keep(_grid_seeds(f, region, nx, ny))
    # near-twin zeros share one grid basin, and a basin minimum can drain
    # to a zero just outside the rectangle; reseed on circles around every
    # converged root (inside or out) to split/recover the partners
    cell = max((re1 - re0) / nx, (im1 - im0) / ny)
    keep([r + rad * np.exp(2j * np.pi * k / 8) for r in roots + outside
          for rad in (cell, 3 * cell) for k in range(8)])
    return len(roots), np.array(roots)


@dataclass
class AdmissibleCurve:
    """Piecewise-C1 path split into dominance segments J and short
    crossing intervals I, for the dominance phase-sum count.

    path: (n,) complex samples, ordered;
    segments: list of (kind, i0, i1, label) with kind "J" or "I",
    label the dominant term on J segments (None on I), indices into path;
    touches_Be: per-I flags aligned with the I segments in order.
    """

    path: np.ndarray
    segments: list
    touches_Be: list = field(default_factory=list)

    def arc(self, i0, i1):
        seg = self.path[i0:i1 + 1]
        return float(np.sum(np.abs(np.diff(seg))))


def _check_admissible(curve, p):
    from .skeleton import mu_h_norm
    kinds = [s[0] for s in curve.segments]
    if kinds and (kinds[0] == "I" or kinds[-1] == "I"):
        raise NotAdmissible("endpoints must lie outside the I intervals")
    it = 0
    for kind, i0, i1, label in curve.segments:
        if kind != "I":
            continue
        length = curve.arc(i0, i1)
        mid = curve.path[(i0 + i1) // 2]
        n = mu_h_norm(mid, p.h)
        ln = np.log(1.0 / n)
        touches = curve.touches_Be[it] if it < len(curve.touches_Be) else False
        it += 1
        cap = ADMISSIBLE_C * p.h * (np.log(max(ln, np.e)) / ln if touches else 1.0 / ln)
        if length > cap:
            raise NotAdmissible(
                f"I segment of length {length:.3g} exceeds cap {cap:.3g}")


class GProvider:
    """Bundles (params, actions) for the normalized G values."""

    def __init__(self, p, am):
        self.p = p
        self.am = am

    def normalized_G(self, z):
        from .quantization import eval_G
        vals, _ = eval_G(np.asarray(z, dtype=complex), self.p, self.am)
        return vals


def _combined_log(ts, l1, l2):
    a, b = ts[l1], ts[l2]
    m = max(a.real, b.real)
    return m + np.log(np.exp(a - m) + np.exp(b - m))


def phase_sum_count(curve, provider):
    """Dominant-phase sum along an admissible curve vs the direct
    winding integral.

    provider: GProvider.  The estimate sums the real parts of the
    dominant-term phase differences phi = -i h log a_j over the J
    segments, substituting the combined log a4 (or a1 in case 2) when the
    dominant label is a 4+-/1+- pair; the direct count tracks arg G along
    the whole open curve.  Returns (estimate, direct, discrepancy).
    """
    p = provider.p
    _check_admissible(curve, p)
    dominance_slack = p.h * np.log(np.log(1.0 / p.h))

    def log_term(mu, label):
        ts = term_set(mu, p, provider.am)
        if label in ("4+", "4-") and "4+" in ts:
            return _combined_log(ts, "4+", "4-")
        if label in ("1+", "1-") and "1+" in ts:
            return _combined_log(ts, "1+", "1-")
        return ts[label]

    estimate = 0.0
    for kind, i0, i1, label in curve.segments:
        if kind != "J":
            continue
        idx = np.unique(np.linspace(i0, i1, 20).astype(int))
        for i in idx:
            ts = term_set(curve.path[i], p, provider.am)
            if label not in ts:
                raise NotAdmissible(f"label {label} absent at {curve.path[i]}")
            r_dom = p.h * ts[label].real
            others = [p.h * v.real for lab, v in ts.items() if lab != label]
            if r_dom < max(others) - dominance_slack:
                raise NotAdmissible(f"{label} not dominant at {curve.path[i]}")
        # phase difference via a continuity-tracked log along the segment
        seg = curve.path[i0:i1 + 1]
        logs = np.array([log_term(m, label) for m in seg])
        im = np.unwrap(logs.imag)
        # Re(phi(e) - phi(s))/(2 pi h) with phi = -i h log a: the real
        # part picks up h * (unwrapped arg change)
        estimate += (im[-1] - im[0]) / (2 * np.pi)

    total = 0.0
    for i in range(len(curve.path) - 1):
        t, _ = _phase_increments(provider.normalized_G, curve.path[i],
                                 curve.path[i + 1])
        total += t
    direct = total / (2 * np.pi)
    return float(estimate), float(direct), float(abs(estimate - direct))


def match_bijection(zeros, predicted, rate):
    """Greedy nearest-neighbor bijection between two zero sets.

    rate(mu) bounds the allowed pair distance at mu.  Returns a report
    dict; it is ok when no point is unmatched and no pair is farther
    apart than its rate.
    """
    za = list(np.asarray(zeros, dtype=complex))
    zb = list(np.asarray(predicted, dtype=complex))
    # taking the closest remaining pair, ties to the smallest (i, j), is
    # one scan of all pairs in ascending (d, i, j) order
    by_distance = sorted((abs(a - b), i, j) for i, a in enumerate(za)
                         for j, b in enumerate(zb))
    pairs = []
    ia, ib = set(), set()
    for d, i, j in by_distance:
        if i not in ia and j not in ib:
            pairs.append((za[i], zb[j], d))
            ia.add(i)
            ib.add(j)
    unmatched_a = [a for i, a in enumerate(za) if i not in ia]
    unmatched_b = [b for j, b in enumerate(zb) if j not in ib]
    bad = [(a, b, d) for a, b, d in pairs
           if d > rate(0.5 * (a + b))]
    return {
        "pairs": pairs,
        "unmatched_zeros": unmatched_a,
        "unmatched_predicted": unmatched_b,
        "violations": bad,
        "max_distance": max((d for _, _, d in pairs), default=0.0),
        "ok": not unmatched_a and not unmatched_b and not bad,
    }


def export_zeros_csv(path, zeroset):
    """zeros.csv: re, im, residual and a method column, which is
    "Winding" for every zero (the locators all count by winding)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["re", "im", "residual", "method"])
        for z in zeroset.zeros:
            w.writerow([repr(z.location.real), repr(z.location.imag),
                        repr(z.residual), "Winding"])
