"""Chebyshev discretization, dense eigensolver, filtering, branch structure."""

import numpy as np
import pytest
from scipy import linalg as sla

from branchspec.schrodinger import (
    OperatorSpec,
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
    s = eigensolve(C, backward_check=3)
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
