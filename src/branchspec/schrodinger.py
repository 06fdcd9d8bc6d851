"""Chebyshev-collocation spectra of (hD)^2 + V(x) + i eps W(x).

Dirichlet truncation on [-L, L]; the differentiation matrix uses the
standard Chebyshev-Gauss-Lobatto construction with the negative-sum
trick on the diagonal, and D^2 = D @ D.  Eigenvalues from LAPACK's
dense nonsymmetric solver; resolution is certified by matching two
collocation sizes.  The nodes are symmetric about 0, so an operator
whose V and W have a parity (read from the coefficient lists) is
solved in its parity blocks: two half-size complex blocks when V and W
are even, one real matrix when V is even and W odd.  The dense linear
algebra runs on one BLAS thread, so the eigenvalue bits do not depend
on the number of cores.
"""

import contextlib
import ctypes
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy import linalg as sla

from .calibration import CALIBRATION
from .errors import NoConvergence

DENSE_MAX = 2000   # rows of the largest matrix eigensolve takes


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
        # Horner's rule for |c| at max(1, L) bounds each step of Horner's
        # rule for c on [-L, L]; eps W is a matrix entry too
        for key, c, scale in (("V", self.V, 1.0),
                              ("W", self.W, max(1.0, self.epsilon))):
            with np.errstate(over="ignore"):
                bound = scale * npoly.polyval(max(1.0, self.L), np.abs(c))
            if not np.isfinite(bound):
                raise ValueError(f"{key} is not finite on [-L, L]")

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


def _symmetry(spec):
    """"even" when V and W are even polynomials, "odd" when V is even and
    W odd, "none" otherwise, read exactly from the coefficient lists (a
    zero W is even)."""
    def parities(c):
        return {k % 2 for k in np.flatnonzero(c)}

    v, w = parities(spec.V), parities(spec.W)
    if 1 in v or w == {0, 1}:
        return "none"
    return "odd" if w == {1} else "even"


def _fold(x):
    """Q^T x, with Q = [P_even, P_odd] the orthogonal change from the n
    nodes to their even and odd combinations under node i <-> n-1-i:
    the ceil(n/2) even coordinates (the centre node last when n is odd),
    then the floor(n/2) odd ones.  Written into one new array, with no
    n x n temporaries."""
    n, m = len(x), len(x) // 2
    out = np.empty_like(x)
    np.add(x[:m], x[::-1][:m], out=out[:m])
    np.subtract(x[:m], x[::-1][:m], out=out[n - m:])
    out[:m] *= np.sqrt(0.5)
    out[n - m:] *= np.sqrt(0.5)
    out[m:n - m] = x[m:n - m]
    return out


def _unfold(even, odd):
    """Q @ [even; odd], back from the parity coordinates to the nodes."""
    m = len(odd)
    top = (even[:m] + odd) * np.sqrt(0.5)
    bottom = (even[:m] - odd) * np.sqrt(0.5)
    return np.concatenate([top, even[m:], bottom[::-1]])


def _blocks(matrix, symmetry):
    """The matrices whose eigenvalues make up those of `matrix`, each with
    the map that lifts its vectors to the nodes (None: the identity).

    With G = Q^T A Q, an even operator (J A J = A) has G = diag(G_ee,
    G_oo); an odd one (J conj(A) J = A) has U^H A U real for U = Q diag(I,
    iI).  The couplings the symmetry makes zero are rounding, and are
    dropped."""
    if symmetry == "none":
        return [(matrix, None)]
    m = len(matrix) // 2
    ne = len(matrix) - m
    G = _fold(_fold(matrix).T).T
    if symmetry == "even":
        return [(G[:ne, :ne], lambda w: _unfold(w, np.zeros(m))),
                (G[ne:, ne:], lambda w: _unfold(np.zeros(ne), w))]
    real = G.real.copy()
    np.negative(G[:ne, ne:].imag, out=real[:ne, ne:])
    real[ne:, :ne] = G[ne:, :ne].imag
    return [(real, lambda y: _unfold(y[:ne], 1j * y[ne:]))]


def _backward_errors(matrix, vals, blocks, owner, count):
    """Inverse-iteration backward errors ||A v - rho v||_2 of `count`
    eigenvalues of `vals` drawn at random (seed 0); returns (indices,
    errors).

    Eigenvalue i is iterated on blocks[owner[i]], the matrix that produced
    it; each iterate is lifted to the nodes, and rho and the error are
    those of the full `matrix`.  An error is inf when no iterate's
    Rayleigh quotient rho lands within 1e-6 (1 + |lambda|) of its
    eigenvalue."""
    rng = np.random.default_rng(0)
    idx = rng.choice(len(vals), size=min(count, len(vals)), replace=False)
    errors = np.empty(len(idx))
    for k, i in enumerate(idx):
        block, lift = blocks[owner[i]]
        n = block.shape[0]
        lam = vals[i]
        shift = lam + 1e-8 * max(abs(lam), 1.0) * (1 + 1j)
        # a complex Fortran-order copy is factored in place; eigvals
        # already checked that the block is finite
        shifted = np.array(block, dtype=complex, order="F")
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
            full = v if lift is None else lift(v)
            Av = matrix @ full
            rho = np.vdot(full, Av)
            if abs(rho - lam) <= 1e-6 * (1 + abs(lam)):
                best = min(best, sla.norm(Av - rho * full))
        errors[k] = best
        # free this factorization before the next copy is made
        del shifted, lu
    return idx, errors


@_one_blas_thread()
def eigensolve(matrix, meta=None, symmetry="none"):
    """All eigenvalues via LAPACK (balancing + Hessenberg + implicitly
    shifted QR): zgeev on `matrix`, or on its parity blocks when
    `symmetry` (see `_symmetry`) is "even", dgeev on its real form when it
    is "odd".  Backward errors against `matrix` are spot-checked by
    inverse iteration on 10 random eigenvalues, each on its own block,
    and the n eigenvalues must sum to the trace."""
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("matrix must be square")
    if n > DENSE_MAX:
        raise ValueError(f"dense path capped at N = {DENSE_MAX}")
    blocks = _blocks(matrix, symmetry)
    try:
        parts = [sla.eigvals(block) for block, _ in blocks]
    except sla.LinAlgError as exc:  # pragma: no cover - QR failure path
        raise NoConvergence(f"QR iteration failed: {exc}")
    vals = np.concatenate(parts)
    owner = np.repeat(np.arange(len(parts)), [len(p) for p in parts])
    order = np.argsort(vals.real)
    vals, owner = vals[order], owner[order]
    norm = sla.norm(matrix, 1)
    idx, errors = _backward_errors(matrix, vals, blocks, owner, 10)
    for i, err in zip(idx, errors):
        if err > 1e-8 * norm:
            raise NoConvergence(
                f"backward error {err / norm:.2e} at eigenvalue {vals[i]}")
    # a block that lost or doubled an eigenvalue shows here, not above
    if len(vals) != n:
        raise NoConvergence(f"{len(vals)} eigenvalues for a {n}-matrix")
    miss = abs(vals.sum() - np.trace(matrix))
    if not miss <= 1e-12 * n * norm:
        raise NoConvergence(f"eigenvalue sum misses the trace by {miss:.2e}")
    return Spectrum(eigenvalues=vals,
                    resolved=np.zeros(len(vals), dtype=bool),
                    meta=dict(meta or {}, symmetry=symmetry))


def solve_operator(spec):
    A, _ = discretize(spec)
    return eigensolve(A, meta=spec.meta(), symmetry=_symmetry(spec))


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
    return np.split(vals, np.flatnonzero(np.diff(vals) > gap) + 1)


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
