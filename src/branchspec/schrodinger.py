"""Chebyshev-collocation spectra of (hD)^2 + V(x) + i eps W(x).

Dirichlet truncation on [-L, L]; the differentiation matrix uses the
standard Chebyshev-Gauss-Lobatto construction with the negative-sum
trick on the diagonal, and D^2 = D @ D.  Eigenvalues from LAPACK's
dense nonsymmetric solver; resolution is certified by matching two
collocation sizes.  The dense linear algebra runs on one BLAS thread,
so the eigenvalue bits do not depend on the number of cores.
"""

import contextlib
import ctypes
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy import linalg as sla

from .calibration import CALIBRATION
from .errors import NoConvergence


@dataclass
class OperatorSpec:
    """V, W as real polynomial coefficients (ascending), on [-L, L]."""

    V: np.ndarray
    W: np.ndarray
    h: float
    epsilon: float
    L: float
    N: int

    def __post_init__(self):
        self.V = np.atleast_1d(np.asarray(self.V, dtype=float))
        self.W = np.atleast_1d(np.asarray(self.W, dtype=float))
        if self.N < 16:
            raise ValueError("N must be at least 16")
        # written so that NaN fails too
        if not (0 < self.L < np.inf and 0 < self.h < np.inf
                and 0 <= self.epsilon < np.inf):
            raise ValueError("L, h must be positive and finite; epsilon "
                             "nonnegative and finite")

    def v_at(self, x):
        return npoly.polyval(x, self.V)

    def w_at(self, x):
        return npoly.polyval(x, self.W)

    def meta(self):
        return {"N": self.N, "L": self.L, "h": self.h, "epsilon": self.epsilon,
                "V": list(self.V), "W": list(self.W)}


# (get, set) thread-count symbols of the OpenBLAS builds numpy and scipy ship
_OPENBLAS_THREAD_SYMBOLS = tuple(
    (f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
    for prefix in ("scipy_openblas_", "openblas_") for suffix in ("64_", ""))


def _openblas_thread_controls():
    """(get, set) thread-count functions of each OpenBLAS in this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line})
    except OSError:
        return []
    controls = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return controls


@contextlib.contextmanager
def _one_blas_thread():
    """Run OpenBLAS on one thread inside the block, then restore the old
    counts.  At N ~ 400 a second thread doubles the wall time of the
    spectrum leg and changes the bits of D @ D and of zgeev.  The counts
    are process-wide, so concurrent callers would share them."""
    controls = _openblas_thread_controls()
    saved = [(set_, get()) for get, set_ in controls]
    for set_, _ in saved:
        set_(1)
    try:
        yield
    finally:
        for set_, count in saved:
            set_(count)


def cheb_nodes_and_D(N, L):
    """Chebyshev-Gauss-Lobatto nodes on [-L, L] and the collocation
    first-derivative matrix (negative-sum diagonal)."""
    j = np.arange(N + 1)
    x = np.cos(np.pi * j / N)
    c = np.ones(N + 1)
    c[0] = c[N] = 2.0
    c *= (-1.0) ** j
    X = np.tile(x, (N + 1, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(N + 1))
    D -= np.diag(D.sum(axis=1))
    return L * x, D / L


@_one_blas_thread()
def discretize(spec):
    """(N-1)x(N-1) interior matrix -h^2 D^2 + diag(V + i eps W)."""
    x, D = cheb_nodes_and_D(spec.N, spec.L)
    D2 = D @ D
    xi = x[1:-1]
    A = -spec.h ** 2 * D2[1:-1, 1:-1] \
        + np.diag(spec.v_at(xi) + 1j * spec.epsilon * spec.w_at(xi))
    return A.astype(complex), xi


@dataclass
class Spectrum:
    eigenvalues: np.ndarray
    resolved: np.ndarray
    meta: dict

    def resolved_values(self):
        return self.eigenvalues[self.resolved]

    def __len__(self):
        return len(self.eigenvalues)


def _backward_errors(matrix, vals, count):
    """Inverse-iteration backward errors ||A v - rho v||_2 of `count`
    eigenvalues of `vals` drawn at random (seed 0); returns (indices,
    errors).

    An error is inf when no iterate's Rayleigh quotient rho lands within
    1e-6 (1 + |lambda|) of its eigenvalue."""
    n = matrix.shape[0]
    rng = np.random.default_rng(0)
    idx = rng.choice(n, size=min(count, n), replace=False)
    errors = np.empty(len(idx))
    for k, i in enumerate(idx):
        lam = vals[i]
        shift = lam + 1e-8 * max(abs(lam), 1.0) * (1 + 1j)
        # a Fortran-order copy is factored in place; eigvals already
        # checked that the matrix is finite
        shifted = np.array(matrix, order="F")
        shifted.flat[::n + 1] -= shift
        lu = sla.lu_factor(shifted, overwrite_a=True, check_finite=False)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        # keep the best iterate: one solve already certifies strongly
        # non-normal eigenvalues (further steps wander inside the fat
        # pseudospectrum), while well-conditioned ones need 2-3 steps
        best = np.inf
        for _ in range(3):
            v = sla.lu_solve(lu, v, check_finite=False)
            v /= sla.norm(v)
            Av = matrix @ v
            rho = np.vdot(v, Av)
            if abs(rho - lam) <= 1e-6 * (1 + abs(lam)):
                best = min(best, sla.norm(Av - rho * v))
        errors[k] = best
    return idx, errors


@_one_blas_thread()
def eigensolve(matrix, meta=None):
    """All eigenvalues via LAPACK zgeev (balancing + Hessenberg +
    implicitly shifted QR); backward error spot-checked by inverse
    iteration on 10 random eigenvalues."""
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("matrix must be square")
    if n > 2000:
        raise ValueError("dense path capped at N = 2000")
    try:
        vals = sla.eigvals(matrix)
    except sla.LinAlgError as exc:  # pragma: no cover - QR failure path
        raise NoConvergence(f"QR iteration failed: {exc}")
    order = np.argsort(vals.real)
    vals = vals[order]
    norm = sla.norm(matrix, 1)
    idx, errors = _backward_errors(matrix, vals, 10)
    for i, err in zip(idx, errors):
        if err > 1e-8 * norm:
            raise NoConvergence(
                f"backward error {err / norm:.2e} at eigenvalue {vals[i]}")
    return Spectrum(eigenvalues=vals,
                    resolved=np.zeros(len(vals), dtype=bool),
                    meta=dict(meta or {}))


def solve_operator(spec):
    A, _ = discretize(spec)
    return eigensolve(A, meta=spec.meta())


def spurious_filter(s1, s2, tol_scale=CALIBRATION["spurious_match_tol"]):
    """Mark eigenvalues of s1 that match one of s2 within
    tol_scale (1 + |lambda|) as resolved; report retained/dropped counts."""
    v1 = s1.eigenvalues
    resolved = (np.abs(v1[:, None] - s2.eigenvalues).min(axis=1)
                <= tol_scale * (1 + np.abs(v1)))
    out = Spectrum(eigenvalues=s1.eigenvalues.copy(), resolved=resolved,
                   meta=dict(s1.meta))
    out.meta["filter"] = {"retained": int(resolved.sum()),
                          "dropped": int((~resolved).sum()),
                          "against_N": s2.meta.get("N")}
    return out


def resolved_spectrum(spec, dN):
    """Run at N and N + dN and keep the matching eigenvalues."""
    s1 = solve_operator(spec)
    spec2 = OperatorSpec(V=spec.V, W=spec.W, h=spec.h, epsilon=spec.epsilon,
                         L=spec.L, N=spec.N + dN)
    s2 = solve_operator(spec2)
    return spurious_filter(s1, s2)


def phase_space_count(spec, e_lo, e_hi, n_quad=20000):
    """Heuristic eigenvalue count in Re-window [e_lo, e_hi]:
    (Area{xi^2 + V <= e_hi} - Area{... <= e_lo}) / (2 pi h)."""
    x = np.linspace(-spec.L, spec.L, n_quad)
    v = spec.v_at(x)

    def area(e):
        val = np.maximum(e - v, 0.0)
        return 2.0 * np.trapezoid(np.sqrt(val), x)

    return (area(e_hi) - area(e_lo)) / (2 * np.pi * spec.h)


def _cluster_1d(values, gap):
    """Single-linkage clusters of sorted 1-d values with the given gap."""
    if len(values) == 0:
        return []
    vals = np.sort(values)
    clusters = [[vals[0]]]
    for v in vals[1:]:
        if v - clusters[-1][-1] <= gap:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    return clusters


def branch_structure_report(s, spec):
    """Below/above-barrier structure of a resolved double-well spectrum.

    Below barrier (Re < 0): nearest-neighbor pairing distances and the
    Im-sign family counts; above barrier: Im-cluster count with a
    single-linkage gap of eps/20.
    """
    lam = s.resolved_values()
    below = lam[lam.real < 0]
    above = lam[lam.real > 0]
    below = below[np.argsort(below.real)]
    pair_gaps = []
    for i in range(0, len(below) - 1, 2):
        pair_gaps.append(float(abs(below[i + 1] - below[i])))
    im_pos = int(np.sum(below.imag > 0))
    im_neg = int(np.sum(below.imag < 0))
    gap = spec.epsilon / 20 if spec.epsilon > 0 else 1e-6
    above_clusters = _cluster_1d(above.imag, gap)
    below_clusters = _cluster_1d(below.imag, gap)
    return {
        "below_count": int(len(below)),
        "above_count": int(len(above)),
        "pair_gaps": pair_gaps,
        "max_pair_gap": max(pair_gaps) if pair_gaps else 0.0,
        "im_family_counts": (im_neg, im_pos),
        "above_branch_count": len(above_clusters),
        "below_cluster_means": [float(np.mean(c)) for c in below_clusters],
        "below_cluster_sizes": [len(c) for c in below_clusters],
    }


def export_spectrum_csv(path, s):
    import csv
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["re", "im", "resolved"])
        for lam, ok in zip(s.eigenvalues, s.resolved):
            w.writerow([repr(float(lam.real)), repr(float(lam.imag)),
                        int(ok)])
