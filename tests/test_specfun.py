"""Tests for log_gamma, the Stirling forms, and the reflection identity."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import loggamma as scipy_loggamma

from branchspec.errors import PoleError, RegimeError
from branchspec.specfun import (
    LOG_SQRT_2PI,
    StirlingRegime,
    _stirling_approx,
    log_gamma,
    reflection_residual,
    stirling_remainder,
)

# 50-digit mpmath oracle values, computed once and frozen.
MPMATH_GOLDEN = {
    0.5 - 10j: -14.78902473474429345053289 - 13.03002003491108985080755j,
    0.5 + 10j: -14.78902473474429345053289 + 13.03002003491108985080755j,
    -3.25 + 2.5j: -7.353407944836542098352616 - 8.306815019055662955942141j,
    120.5 - 40.25j: 448.7885724068342822345262 - 193.4271724927162010892012j,
}


def test_half_integer_values():
    assert log_gamma(0.5) == pytest.approx(0.5 * np.log(np.pi), rel=1e-14)
    assert log_gamma(5.0) == pytest.approx(np.log(24.0), rel=1e-14)


def test_against_frozen_mpmath_oracle():
    for z, ref in MPMATH_GOLDEN.items():
        got = log_gamma(z)
        assert abs(got - ref) <= 1e-13 * abs(ref)


def test_accuracy_grid_vs_scipy():
    # |z| up to 1e4, all quadrants, avoiding poles and the two real zeros.
    pts = []
    for r in [0.7, 1.6, 4.0, 25.0, 400.0, 1e4]:
        for th in np.linspace(-np.pi + 0.03, np.pi, 41):
            pts.append(r * np.exp(1j * th))
    z = np.array(pts)
    z = z[np.abs(z - np.round(z.real)) > 1e-2]
    rel = np.abs(log_gamma(z) - scipy_loggamma(z)) \
        / np.maximum(1.0, np.abs(scipy_loggamma(z)))
    assert rel.max() <= 1e-13


def test_conjugation_symmetry():
    rng = np.random.default_rng(7)
    z = rng.uniform(-8, 8, 60) + 1j * rng.uniform(0.05, 9, 60)
    z = z[np.abs(z - np.round(z.real)) > 1e-2]
    a = log_gamma(np.conj(z))
    b = np.conj(log_gamma(z))
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(1 + np.abs(b))


def test_pole_error():
    with pytest.raises(PoleError):
        log_gamma(0.0)
    with pytest.raises(PoleError):
        log_gamma(-3.0 + 1e-15j)
    # just outside the tolerance: fine
    log_gamma(-3.0 + 1e-12j)


@pytest.mark.parametrize("sign,regime", [
    (1.0, StirlingRegime.MinusBranch),
    (-1.0, StirlingRegime.MinusBranch),
])
def test_stirling_error_bound_real_axis(sign, regime):
    h = 0.01
    mu = sign * 10 * h
    approx = _stirling_approx(mu, h, regime)
    exact = log_gamma(0.5 - 1j * mu / h) - LOG_SQRT_2PI
    # remainder is O(h/mu) with constant ~1/12
    assert abs(exact - approx) <= 1.0 * h / abs(mu)


def test_stirling_conjugation_between_branches():
    h = 0.05
    for mu in [0.3 + 0.1j, -0.4 + 0.2j, 0.5 - 0.1j]:
        plus = _stirling_approx(mu, h, StirlingRegime.PlusBranch)
        minus = _stirling_approx(np.conj(mu), h, StirlingRegime.MinusBranch)
        assert plus == pytest.approx(np.conj(minus), rel=1e-13)


def test_stirling_regime_errors():
    h = 0.01
    with pytest.raises(RegimeError):
        stirling_remainder(1.5 * h, h, StirlingRegime.MinusBranch)  # |mu|/h < 2
    with pytest.raises(RegimeError):
        stirling_remainder(-0.2j, h, StirlingRegime.MinusBranch)
    with pytest.raises(RegimeError):
        stirling_remainder(0.2j, h, StirlingRegime.PlusBranch)
    # the opposite axis is fine for each branch
    stirling_remainder(0.2j, h, StirlingRegime.MinusBranch)
    stirling_remainder(-0.2j, h, StirlingRegime.PlusBranch)


def test_remainder_magnitude_sweep():
    # |remainder| <= C h/|mu| with one C over the whole sweep; record C <= 1.
    h = 1e-3
    worst = 0.0
    for ratio in np.geomspace(2, 100, 25):
        for th in [0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi]:
            mu = ratio * h * np.exp(1j * th)
            if abs(np.angle(mu) + np.pi / 2) < 0.25:
                continue
            r = stirling_remainder(mu, h, StirlingRegime.MinusBranch)
            worst = max(worst, abs(r) * abs(mu) / h)
    assert worst <= 1.0


def test_remainder_real_axis_exponential_decay():
    # On real mu the real part of the remainder is O(exp(-2 pi mu/h)):
    # fitted slope of ln|Re remainder| vs mu/h within 10% of -2 pi.
    h = 1.0
    ratios = np.linspace(3, 8, 11)
    vals = []
    for r in ratios:
        rem = stirling_remainder(r * h, h, StirlingRegime.MinusBranch)
        vals.append(abs(rem.real))
    slope = np.polyfit(ratios, np.log(vals), 1)[0]
    assert abs(slope + 2 * np.pi) <= 0.1 * 2 * np.pi


def test_remainder_sum_identity():
    # O+ + O- = O(exp(-2 pi |Re mu|/h)) for |Re mu| >= |Im mu|.  Off the
    # real axis the sum is formed from O(1e-3) logs, so it carries a
    # ~5e-14 double-precision floor.
    h = 0.01
    for mu in [0.05, -0.05, 0.08 + 0.03j, -0.06 - 0.02j]:
        s = stirling_remainder(mu, h, StirlingRegime.MinusBranch) \
            + stirling_remainder(mu, h, StirlingRegime.PlusBranch)
        bound = 100 * np.exp(-2 * np.pi * abs(np.real(mu)) / h)
        assert abs(s) <= max(bound, 5e-14)


def test_reflection_residual():
    assert reflection_residual(0.0, 1.0) <= 1e-13
    assert reflection_residual(7.3 * 0.01, 0.01) <= 1e-12
    # large mu/h where only log-space evaluation survives
    h = 1.0
    mu = 40 * h + 40 * h * 0.3j
    assert reflection_residual(mu, h) <= 1e-11


def test_reflection_residual_grid():
    h = 0.01
    rng = np.random.default_rng(3)
    mu = rng.uniform(-0.5, 0.5, 80) + 1j * rng.uniform(-0.5, 0.5, 80)
    # stay away from Gamma poles at mu = -+ i h (k + 1/2)
    mu = mu[np.abs(np.abs(mu.imag / h) - np.round(np.abs(mu.imag / h) + 0.5) + 0.5) > 0.05]
    res = reflection_residual(mu, h)
    assert np.max(res) <= 1e-11


@settings(derandomize=True, max_examples=300, deadline=None)
@given(x=st.floats(-0.5, 0.5), y=st.floats(-0.5, 0.5),
       h=st.sampled_from([1.0, 0.1, 0.01]))
def test_reflection_identity_at_random_mu(x, y, h):
    # criterion 3's property, threshold and pole exclusion off its grid:
    # the Gamma poles sit at mu = -+ i h (k + 1/2)
    mu = complex(x, y)
    assume(abs(mu) <= 0.5)
    assume(abs(abs(mu.imag / h) % 1.0 - 0.5) > 0.02)
    assert reflection_residual(mu, h) <= 1e-11


def _bits(a):
    return np.asarray(a, dtype=complex).view(np.uint64).tolist()


@pytest.mark.parametrize("kind", ["right", "left", "mixed"])
def test_log_gamma_batch_matches_one_point_calls(kind):
    rng = np.random.default_rng(17)
    re = {"right": rng.uniform(0.5, 40.0, 203),
          "left": rng.uniform(-40.0, 0.49, 203),
          "mixed": rng.uniform(-40.0, 40.0, 203)}[kind]
    z = re + 1j * rng.uniform(-30.0, 30.0, 203)
    z[:3] = [0.5, 0.5 - 2j, 0.25 + 0j]
    z = z[np.abs(z - np.round(z.real)) > 1e-3][:180]
    if kind == "right":
        z = z[z.real >= 0.5]
    batch = log_gamma(z)
    assert _bits(batch) == _bits([log_gamma(z[i:i + 1])[0]
                                  for i in range(len(z))])
    assert _bits(batch) == _bits([log_gamma(v) for v in z])
    assert _bits(log_gamma(z[:170].reshape(17, 10)).ravel()) \
        == _bits(batch[:170])
