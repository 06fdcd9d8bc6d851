"""Chebyshev discretization, dense eigensolver, filtering, branch structure."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import linalg as sla

from branchspec import schrodinger
from branchspec.errors import NoConvergence
from branchspec.schrodinger import (
    OperatorSpec,
    Spectrum,
    _backward_errors,
    _blocks,
    _one_blas_thread,
    _openblas_thread_controls,
    _symmetry,
    branch_structure_report,
    cheb_nodes_and_D,
    discretize,
    eigensolve,
    phase_space_count,
    resolved_spectrum,
    solve_operator,
    spurious_filter,
)

QUARTIC = [0.0, 0.0, -1.0, 0.0, 1.0]  # -x^2 + x^4


def test_particle_in_a_box():
    spec = OperatorSpec(V=[0.0], W=[0.0], h=0.01, epsilon=0.0, L=2.0, N=200)
    A, _ = discretize(spec)
    lam = np.sort(sla.eigvals(A).real)
    want = spec.h ** 2 * (np.pi / (2 * spec.L)) ** 2
    assert abs(lam[0] - want) <= 1e-6 * want


def test_parity_commutation():
    spec = OperatorSpec(V=QUARTIC, W=[0, 0, 1], h=0.01, epsilon=0.3,
                        L=1.5, N=64)
    A, xi = discretize(spec)
    P = np.eye(len(xi))[::-1]
    comm = P @ A - A @ P
    assert np.max(np.abs(comm)) <= 1e-12 * np.max(np.abs(A))


def test_D2_annihilates_constants():
    x, D = cheb_nodes_and_D(120, 2.5)
    D2 = D @ D
    ones = np.ones(len(x))
    assert np.max(np.abs(D2 @ ones)) <= 1e-9 * np.max(np.abs(D2))


def test_harmonic_oscillator_levels():
    spec = OperatorSpec(V=[0, 0, 1], W=[0.0], h=0.01, epsilon=0.0, L=3.0, N=300)
    s = solve_operator(spec)
    lam = np.sort(s.eigenvalues.real)
    for k in range(11):
        want = spec.h * (2 * k + 1)
        assert abs(lam[k] - want) <= 1e-8 * want


def test_companion_matrix_roots():
    # companion of z^3 - 1
    C = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
    s = eigensolve(C)
    got = np.sort_complex(s.eigenvalues)
    want = np.sort_complex(np.exp(2j * np.pi * np.arange(3) / 3))
    assert np.max(np.abs(got - want)) <= 1e-12


def test_spurious_filter_harmonic():
    spec = OperatorSpec(V=[0, 0, 1], W=[0.0], h=0.01, epsilon=0.0, L=3.0, N=300)
    s = resolved_spectrum(spec, dN=40)
    lam = np.sort(s.resolved_values().real)
    # the lowest 30 levels are all retained
    assert len(lam) >= 30
    for k in range(30):
        assert abs(lam[k] - spec.h * (2 * k + 1)) <= 1e-6
    assert s.meta["filter"]["dropped"] > 0


def test_spurious_filter_identity_when_same_N():
    spec = OperatorSpec(V=[0, 0, 1], W=[0.0], h=0.01, epsilon=0.0, L=3.0, N=100)
    s = solve_operator(spec)
    out = spurious_filter(s, s)
    assert out.resolved.all()


def test_epsilon_zero_continuity():
    base = OperatorSpec(V=QUARTIC, W=[0, 0, 1], h=0.01, epsilon=0.0,
                        L=1.5, N=300)
    pert = OperatorSpec(V=QUARTIC, W=[0, 0, 1], h=0.01, epsilon=1e-6,
                        L=1.5, N=300)
    l0 = solve_operator(base).eigenvalues
    l1 = solve_operator(pert).eigenvalues
    sel = l0[(l0.real > -0.24) & (l0.real < 0.3)]
    for lam in sel:
        assert np.min(np.abs(l1 - lam)) <= 1e-4


def test_numerical_range_containment_eigenvalue_level():
    spec = OperatorSpec(V=QUARTIC, W=[0, 0, 1], h=0.01, epsilon=0.8,
                        L=1.2, N=300)
    lam = solve_operator(spec).eigenvalues
    assert lam.imag.min() >= -1e-6
    assert lam.imag.max() <= spec.epsilon * spec.w_at(spec.L) + 1e-6


def _run_filtered(V, W, h=0.01, N=400, dN=40, tol=1e-4):
    # tol 1e-4 retains states whose N-to-N wobble reflects the operator's
    # non-normal conditioning rather than discretization garbage
    s1 = solve_operator(OperatorSpec(V=V, W=W, h=h, epsilon=0.8, L=1.2, N=N))
    s2 = solve_operator(OperatorSpec(V=V, W=W, h=h, epsilon=0.8, L=1.2,
                                     N=N + dN))
    return spurious_filter(s1, s2, tol_scale=tol)


def test_fig1_structure_at_tractable_h():
    # even perturbation at h = 0.01: parity quasi-doublets below the
    # barrier pair up to machine scale; count matches phase space
    spec = OperatorSpec(V=QUARTIC, W=[0, 0, 1], h=0.01, epsilon=0.8,
                        L=1.2, N=400)
    s = _run_filtered(QUARTIC, [0, 0, 1])
    lam = s.resolved_values()
    below = lam[(lam.real >= -0.2) & (lam.real <= -0.02)]
    below = below[np.argsort(below.real)]
    assert len(below) >= 4 and len(below) % 2 == 0
    gaps = [abs(below[i + 1] - below[i]) for i in range(0, len(below) - 1, 2)]
    assert max(gaps) <= 1e-3
    win = lam[(lam.real >= -0.2) & (lam.real <= 0.2)]
    heur = phase_space_count(spec, -0.2, 0.2)
    assert abs(len(win) - heur) <= 0.15 * heur


def test_fig2_two_sign_split_at_tractable_h():
    # odd perturbation: below-barrier families split by the sign of Im
    spec = OperatorSpec(V=QUARTIC, W=[0, 0, 0, 1], h=0.01, epsilon=0.8,
                        L=1.2, N=400)
    s = resolved_spectrum(spec, dN=40)
    rep = branch_structure_report(s, spec)
    neg, pos = rep["im_family_counts"]
    assert neg + pos >= 6
    assert abs(neg - pos) <= 2


def test_fig3_two_positive_clusters_at_tractable_h():
    # W = x^2 + 0.12 x: same sign in both wells, different magnitudes
    s = _run_filtered(QUARTIC, [0, 0.12, 1])
    lam = s.resolved_values()
    below = lam[(lam.real >= -0.24) & (lam.real <= -0.02)]
    assert len(below) >= 4
    assert np.all(below.imag > 0)
    ims = np.sort(below.imag)
    # two clusters of different magnitude: a visible gap splits them
    gaps = np.diff(ims)
    k = np.argmax(gaps)
    lo, hi = ims[: k + 1], ims[k + 1:]
    assert len(lo) >= 2 and len(hi) >= 1
    assert np.mean(hi) > 1.2 * np.mean(lo)
    spread = max(np.ptp(lo), np.ptp(hi), 1e-6)
    assert np.mean(hi) - np.mean(lo) > 3 * spread


def test_phase_space_count_harmonic_exact():
    # Area(E) = pi E for V = x^2 (ellipse), so the count is E/(2h)
    spec = OperatorSpec(V=[0, 0, 1], W=[0.0], h=0.01, epsilon=0.0, L=3.0, N=64)
    got = phase_space_count(spec, 0.0, 0.4)
    assert got == pytest.approx(0.4 * np.pi / (2 * np.pi * spec.h), rel=1e-3)


def test_export_csv(tmp_path):
    from branchspec.schrodinger import export_spectrum_csv
    spec = OperatorSpec(V=[0, 0, 1], W=[0.0], h=0.05, epsilon=0.0, L=3.0, N=64)
    s = solve_operator(spec)
    path = tmp_path / "spec.csv"
    export_spectrum_csv(path, s)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "re,im,resolved"
    assert len(lines) == len(s) + 1


@pytest.mark.parametrize("key,value", [
    ("h", float("nan")), ("h", float("inf")), ("h", 0.0),
    ("epsilon", float("nan")), ("epsilon", float("inf")), ("epsilon", -0.1),
    ("L", float("nan")), ("L", float("inf")), ("L", -1.0),
])
def test_operator_spec_rejects_nonpositive_and_nonfinite(key, value):
    kwargs = dict(V=[0, 0, 1], W=[0.0], h=0.01, epsilon=0.0, L=2.0, N=100)
    kwargs[key] = value
    with pytest.raises(ValueError):
        OperatorSpec(**kwargs)


def _reference_backward_errors(matrix, vals, count, blocks=None, owner=None):
    # the spot check as first written: a C-order shifted copy per
    # eigenvalue, a checked LU, and A @ v twice per step; a drawn
    # eigenvalue is iterated on its block and lifted to the nodes
    n = matrix.shape[0]
    blocks = blocks or [(matrix, None)]
    owner = np.zeros(n, int) if owner is None else owner
    rng = np.random.default_rng(0)
    idx = rng.choice(n, size=min(count, n), replace=False)
    errors = []
    for i in idx:
        block, lift = blocks[owner[i]]
        nb = block.shape[0]
        lam = vals[i]
        shift = lam + 1e-8 * max(abs(lam), 1.0) * (1 + 1j)
        lu, piv = sla.lu_factor(block - shift * np.eye(nb))
        v = rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
        best = np.inf
        for _ in range(3):
            v = sla.lu_solve((lu, piv), v)
            v /= sla.norm(v)
            full = v if lift is None else lift(v)
            rho = np.vdot(full, matrix @ full)
            if abs(rho - lam) <= 1e-6 * (1 + abs(lam)):
                best = min(best, sla.norm(matrix @ full - rho * full))
        errors.append(best)
    return idx, np.array(errors)


def _double_well(W, N):
    return discretize(OperatorSpec(V=QUARTIC, W=W, h=0.01, epsilon=0.8,
                                   L=1.2, N=N))[0]


def _generic(A):
    return [(A, None)], np.zeros(A.shape[0], int)


@pytest.mark.parametrize("W", [[0, 0, 1], [0, 0, 0, 1], [0, 0.12, 1]])
@pytest.mark.parametrize("N", [400, 440])
def test_backward_errors_bitwise_equal_reference(W, N):
    # the full matrix, whatever its symmetry: the generic path
    A = _double_well(W, N)
    vals = eigensolve(A).eigenvalues
    with _one_blas_thread():
        idx, got = _backward_errors(A, vals, *_generic(A), 10)
        ref_idx, want = _reference_backward_errors(A, vals, 10)
    assert np.array_equal(idx, ref_idx)
    assert np.isfinite(got).all()
    assert got.tobytes() == want.tobytes()


def _block_solve(A, symmetry):
    """eigensolve's eigenvalues, blocks and owners on one symmetry path."""
    blocks = _blocks(A, symmetry)
    parts = [sla.eigvals(block) for block, _ in blocks]
    vals = np.concatenate(parts)
    owner = np.repeat(np.arange(len(parts)), [len(p) for p in parts])
    order = np.argsort(vals.real)
    return vals[order], blocks, owner[order]


@pytest.mark.parametrize("W,symmetry", [([0, 0, 1], "even"),
                                        ([0, 0, 0, 1], "odd")])
@pytest.mark.parametrize("N", [400, 41])
def test_backward_errors_bitwise_equal_reference_lifted(W, symmetry, N):
    A = _double_well(W, N)
    with _one_blas_thread():
        vals, blocks, owner = _block_solve(A, symmetry)
        idx, got = _backward_errors(A, vals, blocks, owner, 10)
        ref_idx, want = _reference_backward_errors(A, vals, 10, blocks,
                                                   owner)
    assert np.array_equal(idx, ref_idx)
    assert np.array_equal(eigensolve(A, symmetry=symmetry).eigenvalues, vals)
    # an even operator's drawn eigenvalues come from both half blocks
    assert len(set(owner[idx])) == len(blocks)
    assert np.isfinite(got).all()
    assert got.max() <= 1e-12 * sla.norm(A, 1)
    assert got.tobytes() == want.tobytes()


def test_backward_errors_bitwise_equal_reference_companion():
    C = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
    vals = eigensolve(C).eigenvalues
    with _one_blas_thread():
        got = _backward_errors(C, vals, *_generic(C), 3)[1]
        want = _reference_backward_errors(C, vals, 3)[1]
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("V,W,want", [
    (QUARTIC, [0, 0, 1], "even"),
    (QUARTIC, [0, 0, 0, 1], "odd"),
    (QUARTIC, [0, 0.12, 1], "none"),
    (QUARTIC, [1, 0, 1], "even"),
    (QUARTIC, [0, 1, 0, 1], "odd"),
    (QUARTIC, [1, 1], "none"),
    (QUARTIC, [0.0], "even"),
    ([0, 0, 1], [0], "even"),
    (QUARTIC, [0, 0, 1, 0, 0.0], "even"),
    (QUARTIC + [0.0], [0, 0, 0, 1, 0], "odd"),
    ([0, 1e-300, 1], [0, 0, 1], "none"),
    ([0, 0, 0, 1], [0, 0, 0, 1], "none"),
    ([0, 1], [0.0], "none"),
])
def test_symmetry_read_from_the_coefficients(V, W, want):
    spec = OperatorSpec(V=V, W=W, h=0.01, epsilon=0.8, L=1.2, N=40)
    assert _symmetry(spec) == want


def _parity_basis(n):
    """Q = [P_even, P_odd] column by column, the centre node with the
    even columns."""
    m = n // 2
    even, odd = [], []
    for i in range(m):
        e = np.zeros(n)
        e[i] = e[n - 1 - i] = np.sqrt(0.5)
        even.append(e)
        o = np.zeros(n)
        o[i], o[n - 1 - i] = np.sqrt(0.5), -np.sqrt(0.5)
        odd.append(o)
    if n % 2:
        even.append(np.eye(n)[m])
    return np.array(even).T, np.array(odd).T


@pytest.mark.parametrize("N", [40, 41])   # n = N - 1: a centre node, none
@pytest.mark.parametrize("W,symmetry", [([0, 0, 1], "even"),
                                        ([0, 0, 0, 1], "odd")])
def test_blocks_are_the_parity_similarity(N, W, symmetry):
    A = _double_well(W, N)
    n = A.shape[0]
    Pe, Po = _parity_basis(n)
    scale = np.max(np.abs(A))
    Q = np.hstack([Pe, Po])
    assert np.allclose(Q.T @ Q, np.eye(n), rtol=0, atol=1e-15)
    rng = np.random.default_rng(5)
    if symmetry == "even":
        (Be, lift_e), (Bo, lift_o) = _blocks(A, "even")
        assert Be.shape == (n - n // 2,) * 2 and Bo.shape == (n // 2,) * 2
        assert np.max(np.abs(Be - Pe.T @ A @ Pe)) <= 1e-14 * scale
        assert np.max(np.abs(Bo - Po.T @ A @ Po)) <= 1e-14 * scale
        # the dropped coupling is rounding
        assert np.max(np.abs(Pe.T @ A @ Po)) <= 1e-13 * scale
        for B, lift, P in ((Be, lift_e, Pe), (Bo, lift_o, Po)):
            w = rng.standard_normal(len(B)) + 1j * rng.standard_normal(len(B))
            assert np.max(np.abs(lift(w) - P @ w)) <= 1e-15 * np.max(abs(w))
    else:
        [(R, lift)] = _blocks(A, "odd")
        U = np.hstack([Pe, 1j * Po])
        assert R.dtype == float and R.shape == (n, n)
        full = U.conj().T @ A @ U
        assert np.max(np.abs(R - full.real)) <= 1e-14 * scale
        assert np.max(np.abs(full.imag)) <= 1e-13 * scale
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.max(np.abs(lift(y) - U @ y)) <= 1e-15 * np.max(abs(y))


@pytest.mark.parametrize("N", [40, 41, 400])
@pytest.mark.parametrize("W", [[0, 0, 1], [0, 0, 0, 1]])
def test_block_solve_matches_the_full_solve(N, W):
    spec = OperatorSpec(V=QUARTIC, W=W, h=0.01, epsilon=0.8, L=1.2, N=N)
    A, _ = discretize(spec)
    s = solve_operator(spec)
    assert s.meta["symmetry"] == _symmetry(spec) != "none"
    full = eigensolve(A).eigenvalues
    assert s.meta == dict(spec.meta(), symmetry=_symmetry(spec))
    assert len(s) == len(full) == A.shape[0]
    assert np.all(np.diff(s.eigenvalues.real) >= 0)
    moves = [np.min(np.abs(full - lam)) for lam in s.eigenvalues]
    # the strongly non-normal eigenvalues of the double well move most
    assert np.median(moves) <= 1e-8 * np.max(np.abs(full))


def test_odd_w_spectrum_is_closed_under_exact_conjugation():
    for N in (40, 41, 400):
        spec = OperatorSpec(V=QUARTIC, W=[0, 0, 0, 1], h=0.01, epsilon=0.8,
                            L=1.2, N=N)
        lam = solve_operator(spec).eigenvalues
        assert np.any(lam.imag != 0)
        assert np.array_equal(np.sort_complex(lam),
                              np.sort_complex(lam.conj()))


def test_generic_operator_keeps_the_full_solve():
    spec = OperatorSpec(V=QUARTIC, W=[0, 0.12, 1], h=0.01, epsilon=0.8,
                        L=1.2, N=400)
    A, _ = discretize(spec)
    s = solve_operator(spec)
    assert s.meta["symmetry"] == "none"
    with _one_blas_thread():
        want = sla.eigvals(A)
    want = want[np.argsort(want.real)]
    assert s.eigenvalues.tobytes() == want.tobytes()


def test_eigensolve_names_a_wrong_eigenvalue(monkeypatch):
    # one eigenvalue moved by 1e-3 must fail the spot check, not be
    # skipped; W = 0 is even, so it is moved in the half-size block
    # that holds it
    spec = OperatorSpec(V=[0, 0, 1], W=[0.0], h=0.01, epsilon=0.0, L=3.0,
                        N=100)
    assert _symmetry(spec) == "even"
    A, _ = discretize(spec)
    true_eigvals = sla.eigvals
    vals = true_eigvals(A)
    # the spot check draws 10 of the eigenvalues, sorted by real part,
    # with seed 0; the first one drawn is moved
    i = np.random.default_rng(0).choice(len(vals), size=10, replace=False)[0]
    target = vals[np.argsort(vals.real)][i]
    moved = target + 1e-3j

    def eigvals(matrix):
        out = true_eigvals(matrix)
        near = np.argmin(np.abs(out - target))
        if abs(out[near] - target) <= 1e-9:
            out[near] = moved
        return out

    monkeypatch.setattr(schrodinger.sla, "eigvals", eigvals)
    with pytest.raises(NoConvergence) as err:
        solve_operator(spec)
    assert str(err.value).endswith(f"at eigenvalue {moved}")


@pytest.mark.parametrize("fault", ["drop", "double"])
@pytest.mark.parametrize("W", [[0, 0, 1], [0, 0, 0, 1], [0, 0.12, 1]])
def test_eigensolve_counts_and_sums_the_block_eigenvalues(monkeypatch, W,
                                                          fault):
    # a lost or doubled eigenvalue passes the spot check of the others
    # and containment; the count and the trace catch it
    spec = OperatorSpec(V=QUARTIC, W=W, h=0.01, epsilon=0.8, L=1.2, N=41)
    true_eigvals = sla.eigvals
    calls = []

    def faulty(matrix):
        out = true_eigvals(matrix)
        calls.append(len(matrix))
        if len(calls) > 1:
            return out
        if fault == "drop":
            return out[1:]
        out[np.argmax(np.abs(out - out[0]))] = out[0]
        return out

    monkeypatch.setattr(schrodinger.sla, "eigvals", faulty)
    want = ("39 eigenvalues for a 40-matrix" if fault == "drop"
            else "eigenvalue sum misses the trace by")
    with pytest.raises(NoConvergence, match=want):
        solve_operator(spec)
    # an even operator's fault is in its 20-row half block
    assert calls[0] == {"even": 20}.get(_symmetry(spec), 40)


def _reference_resolved(v1, v2, tol):
    return np.array([np.min(np.abs(v2 - lam)) <= tol * (1 + abs(lam))
                     for lam in v1], dtype=bool)


def test_spurious_filter_matches_per_eigenvalue_loop():
    spec = OperatorSpec(V=QUARTIC, W=[0, 0, 1], h=0.01, epsilon=0.8,
                        L=1.2, N=120)
    s1 = solve_operator(spec)
    s2 = solve_operator(OperatorSpec(V=QUARTIC, W=[0, 0, 1], h=0.01,
                                     epsilon=0.8, L=1.2, N=140))
    rng = np.random.default_rng(3)
    cases = [(s1.eigenvalues, s2.eigenvalues, 1e-4)]
    for _ in range(20):
        v1 = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        v2 = v1[rng.permutation(30)[:20]] + 1e-3 * rng.standard_normal(20)
        cases.append((v1, v2, 10.0 ** rng.uniform(-4, -2)))
    for v1, v2, tol in cases:
        out = spurious_filter(Spectrum(v1, np.zeros(len(v1), bool), {"N": 1}),
                              Spectrum(v2, np.zeros(len(v2), bool), {"N": 2}),
                              tol_scale=tol)
        assert np.array_equal(out.resolved, _reference_resolved(v1, v2, tol))
    # the double well both retains and drops
    assert 0 < _reference_resolved(*cases[0]).sum() < len(s1)


def _spectrum_csv(tmp_path, name, threads):
    fig = Path(__file__).resolve().parents[1] / "examples_cli" / f"{name}.json"
    cfg = dict(json.loads(fig.read_text()), h=0.01, N=400, dN=40)
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / f"{name}-threads{threads}"
    src = str(Path(schrodinger.__file__).resolve().parents[1])
    path = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([src] + path))
    subprocess.run([sys.executable, "-m", "branchspec.cli", "spectrum",
                    "--config", str(config), "--out", str(out)],
                   env=env, check=True)
    return (out / "spectrum.csv").read_bytes()


def test_spectrum_csv_does_not_depend_on_blas_threads(tmp_path):
    # fig1, fig2 and fig3 take the even, odd (dgeev) and generic paths
    for name in ("fig1", "fig2", "fig3"):
        assert _spectrum_csv(tmp_path, name, 1) == \
            _spectrum_csv(tmp_path, name, 2), name


def _thread_counts():
    return [get() for get, _ in _openblas_thread_controls()]


def test_one_blas_thread_restores_counts():
    controls = _openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded")
    before = _thread_counts()
    try:
        for _, set_ in controls:
            set_(2)
        start = _thread_counts()
        solve_operator(OperatorSpec(V=[0, 0, 1], W=[0.0], h=0.01,
                                    epsilon=0.0, L=3.0, N=64))
        assert _thread_counts() == start
        with pytest.raises(RuntimeError):
            with _one_blas_thread():
                assert _thread_counts() == [1] * len(controls)
                raise RuntimeError("inside")
        assert _thread_counts() == start
    finally:
        for (_, set_), count in zip(controls, before):
            set_(count)
