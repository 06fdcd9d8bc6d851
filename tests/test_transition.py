"""Transition matrix: exact entries, determinant, tableau, renormalization."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from branchspec.errors import SectorError
from branchspec.transition import (
    Entry,
    Sector,
    asymptotic_entry,
    exact_matrix,
    renormalize,
)


def test_entries_at_origin():
    tm = exact_matrix(0.0, 1.0)
    assert np.exp(tm.log_a23) == pytest.approx(
        np.sqrt(2) * np.exp(1j * np.pi / 4), rel=1e-14)
    assert np.exp(tm.log_a14) == pytest.approx(
        np.sqrt(2) * np.exp(-1j * np.pi / 4), rel=1e-14)
    assert tm.det_residual() <= 1e-12


@pytest.mark.parametrize("mu", [0.05, -0.05 + 0.002j, 0.3j, -0.2 - 0.1j])
def test_det_small(mu):
    tm = exact_matrix(mu, 0.01)
    assert tm.det_residual() <= 1e-10


@settings(derandomize=True, max_examples=300, deadline=None)
@given(x=st.floats(-0.5, 0.5), y=st.floats(-0.5, 0.5),
       h=st.sampled_from([1.0, 0.1, 0.01]))
def test_det_is_one_at_random_mu(x, y, h):
    # criterion 1's property and threshold off its 40 x 40 grid
    mu = complex(x, y)
    assume(abs(mu) <= 0.5)
    assert exact_matrix(mu, h).det_residual() <= 1e-10


def test_det_grid_log_space():
    # includes |mu/h| up to 300 where the linear entries overflow
    rng = np.random.default_rng(11)
    for h in [1.0, 0.1, 0.01, 1e-3]:
        for _ in range(40):
            mu = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            if abs(mu) / h > 300:
                mu *= 300 * h / abs(mu)
            assert exact_matrix(mu, h).det_residual() <= 1e-10


@pytest.mark.parametrize("sector,entry,mu_dir", [
    (Sector.RightReal, Entry.A23, 1.0),
    (Sector.RightReal, Entry.A14, 1.0),
    (Sector.LeftReal, Entry.A23, -1.0),
    (Sector.LeftReal, Entry.A14, -1.0),
    (Sector.UpperHalf, Entry.A23, 1j),
    (Sector.UpperHalf, Entry.A14, 1j),
    (Sector.LowerHalf, Entry.A23, -1j),
    (Sector.LowerHalf, Entry.A14, -1j),
])
def test_tableau_against_exact(sector, entry, mu_dir):
    h = 1e-3
    for ratio in [5, 10, 20, 50, 100]:
        mu = mu_dir * ratio * h
        log_asym = asymptotic_entry(entry, mu, h, sector)
        tm = exact_matrix(mu, h)
        log_exact = tm.log_a23 if entry is Entry.A23 else tm.log_a14
        rel = abs(np.expm1(log_asym - log_exact))
        assert rel <= 1.0 * h / abs(mu), (sector, entry, ratio, rel)


def test_tableau_overlap_consistency():
    # where RightReal meets UpperHalf the two blocks agree up to
    # exp(-2 pi Re mu/h) relative differences
    h = 1e-3
    for ratio in [8, 15, 40]:
        mu = ratio * h * np.exp(1j * 0.3)
        a = asymptotic_entry(Entry.A23, mu, h, Sector.RightReal)
        b = asymptotic_entry(Entry.A23, mu, h, Sector.UpperHalf)
        rel = abs(np.expm1(a - b))
        bound = 50 * np.exp(-2 * np.pi * mu.real / h)
        assert rel <= max(bound, 1e-12)


def test_sector_preconditions():
    h = 0.01
    with pytest.raises(SectorError):
        asymptotic_entry(Entry.A23, 4 * h, h, Sector.RightReal)  # |mu|/h < 5
    with pytest.raises(SectorError):
        asymptotic_entry(Entry.A23, 0.3j, h, Sector.RightReal)
    with pytest.raises(SectorError):
        asymptotic_entry(Entry.A23, -0.3j, h, Sector.UpperHalf)


def test_renormalize_identity_and_common_phase():
    tm = exact_matrix(0.07 - 0.01j, 0.02)
    base = renormalize(tm, (0, 0, 0, 0))
    a13 = np.exp(np.pi * tm.mu / tm.h + 1j * np.pi / 2)
    assert np.exp(base.log_c23) == pytest.approx(np.exp(tm.log_a23), rel=1e-13)
    assert np.exp(base.log_c24) == pytest.approx(-a13, rel=1e-13)
    s = 0.3 + 0.001j
    shifted = renormalize(tm, (s, s, s, s))
    assert np.exp(shifted.log_c23) == pytest.approx(np.exp(tm.log_a23),
                                                    rel=1e-12)
    assert np.exp(shifted.log_c13) == pytest.approx(a13, rel=1e-12)


def test_theta_identity():
    rng = np.random.default_rng(5)
    h = 0.01
    tm = exact_matrix(0.1, h)
    for _ in range(20):
        d = rng.uniform(-1, 1, 4) + 1j * h * rng.uniform(-1, 1, 4)
        rc = renormalize(tm, d)
        lhs = rc.theta(2, 3) + rc.theta(1, 4)
        rhs = rc.theta(1, 3) + rc.theta(2, 4)
        assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(lhs))


def test_renormalized_det_factor():
    # keep pi*mu/h modest so the linear products are O(1); for large mu/h
    # the same identity is covered in log space by test_det_grid_log_space
    h = 0.05
    tm = exact_matrix(0.02 + 0.01j, h)
    d = (0.2, -0.1, 0.05 + 0.001j, 0.3)
    rc = renormalize(tm, d)
    factor = np.exp(-1j * (d[0] + d[1] - d[2] - d[3]) / h)
    c23, c24, c13, c14 = np.exp([rc.log_c23, rc.log_c24, rc.log_c13,
                                 rc.log_c14])
    det_c = c23 * c14 - c24 * c13
    assert det_c == pytest.approx(factor, rel=1e-10)
