"""Complex special functions for the transition-matrix algebra.

log_gamma is a Lanczos approximation (g = 7, 9 coefficients) with the
reflection formula for Re z < 1/2, giving the principal branch of
log Gamma (the analytic continuation that is real on the positive real
axis, cut along (-inf, 0]).  Everything downstream works in log space:
exp(pi*mu/h) overflows doubles for mu/h beyond a few hundred.
"""

import enum

import numpy as np

from .calibration import CALIBRATION
from .errors import PoleError, RegimeError

LOG_SQRT_2PI = 0.9189385332046727417803297364056176  # ln sqrt(2 pi)
_LN_PI = np.log(np.pi)

# Lanczos g = 7, n = 9 coefficient set.
_LANCZOS_C0 = 0.99999999999980993
_LANCZOS_C = np.array([
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
])
_LANCZOS_K = np.arange(1.0, 9.0)
# _LANCZOS_C as complex numerators, one per row of the series' terms
_LANCZOS_C_ROWS = _LANCZOS_C.astype(complex)

POLE_TOL = 1e-14


class StirlingRegime(enum.Enum):
    """Which Gamma factor the Stirling form approximates.

    MinusBranch: Gamma(1/2 - i mu/h), valid away from a conic
    neighborhood of the negative imaginary mu-axis.
    PlusBranch: Gamma(1/2 + i mu/h), valid away from the positive
    imaginary mu-axis.
    """

    MinusBranch = -1
    PlusBranch = +1


# Margin (radians) kept from the forbidden axis of each regime.
CONIC_MARGIN = CALIBRATION["stirling_conic_margin"]


def _lanczos_right(z):
    """log Gamma on Re z >= 1/2 (vectorized, principal branch)."""
    w = z - 1.0
    q = np.add.outer(_LANCZOS_K, w)
    np.divide(_LANCZOS_C_ROWS.reshape((8,) + (1,) * w.ndim), q, out=q)
    # the rows summed in place in numpy's pairwise order for 8 terms,
    # ((q0 + q4) + (q1 + q5)) + ((q2 + q6) + (q3 + q7)), so the bits are
    # those of .sum(-1) over the terms as an (n, 8) array
    q[:4] += q[4:]
    q[0:4:2] += q[1:4:2]
    series = _LANCZOS_C0 + (q[0] + q[2])
    t = w + 7.5
    return LOG_SQRT_2PI + (w + 0.5) * np.log(t) - t + np.log(series)


def _log_sin_pi_upper(z):
    """Analytic branch of log sin(pi z) on Im z >= 0."""
    return -1j * np.pi * z + 1j * np.pi / 2 - np.log(2.0) \
        + np.log1p(-np.exp(2j * np.pi * z))


def log_gamma(z):
    """Principal branch of log Gamma(z); scalar or ndarray.

    Raises PoleError when any entry is within 1e-14 of a nonpositive
    integer.  Relative accuracy <= 1e-13 for |z| <= 1e4.
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)

    right = z.real >= 0.5
    if right.all():   # no poles and no reflection on Re z >= 1/2
        out = _lanczos_right(z)
    else:
        n = np.round(z.real)
        on_pole = (n <= 0) & (np.abs(z - n) < POLE_TOL)
        if on_pole.any():
            raise PoleError(
                f"log_gamma at nonpositive integer, z={z[on_pole][0]}")
        out = np.empty_like(z)
        if right.any():
            out[right] = _lanczos_right(z[right])
        left = ~right
        zl = z[left]
        conj = zl.imag < 0
        zu = np.where(conj, np.conj(zl), zl)
        val = _LN_PI - _log_sin_pi_upper(zu) - _lanczos_right(1.0 - zu)
        out[left] = np.where(conj, np.conj(val), val)

    return complex(out[0]) if scalar else out


def _angdist(a, b):
    """Angular distance between directions a, b (radians, mod 2 pi)."""
    d = np.mod(a - b, 2.0 * np.pi)
    return np.minimum(d, 2.0 * np.pi - d)


def _check_regime(mu, h, regime):
    mu = np.asarray(mu, dtype=complex)
    if np.any(np.abs(mu) / h < 2.0):
        raise RegimeError(f"|mu|/h < 2 (mu={mu.flat[0]}, h={h})")
    axis = -np.pi / 2 if regime is StirlingRegime.MinusBranch else np.pi / 2
    if np.any(_angdist(np.angle(mu), axis) < CONIC_MARGIN):
        raise RegimeError(f"mu within {CONIC_MARGIN} rad of the forbidden "
                          f"axis for {regime.name}")


def _stirling_approx(mu, h, regime):
    """Stirling exponent without the remainder (no admissibility checks)."""
    mu = np.asarray(mu, dtype=complex)
    i_muh = 1j * (mu / h)
    if regime is StirlingRegime.MinusBranch:
        return 1j * mu / h - i_muh * np.log(-1j * mu) + i_muh * np.log(h)
    return -1j * mu / h + i_muh * np.log(1j * mu) - i_muh * np.log(h)


def _remainder(mu, h, regime):
    """Exact Stirling remainder, no conic-margin check (internal use)."""
    mu = np.asarray(mu, dtype=complex)
    shape = mu.shape
    mu = np.atleast_1d(mu)
    sign = -1.0 if regime is StirlingRegime.MinusBranch else 1.0
    exact = log_gamma(0.5 + sign * 1j * mu / h) - LOG_SQRT_2PI
    rem = exact - _stirling_approx(mu, h, regime)
    # On the real axis Re(remainder) = -log1p(exp(-2 pi |mu|/h))/2 exactly
    # (reflection identity); the generic difference loses it to cancellation
    # once it drops below ~1e-15.
    real_axis = mu.imag == 0
    if real_axis.any():
        x = np.abs(mu.real[real_axis]) / h
        rem[real_axis] = -0.5 * np.log1p(np.exp(-2 * np.pi * x)) \
            + 1j * rem[real_axis].imag
    return rem.reshape(shape)


def stirling_remainder(mu, h, regime):
    """O(h/mu) remainder: exact log Gamma minus the Stirling exponent."""
    _check_regime(mu, h, regime)
    out = _remainder(mu, h, regime)
    return complex(out) if np.ndim(mu) == 0 else out


def reflection_residual(mu, h):
    """|Gamma(1/2+i mu/h) Gamma(1/2-i mu/h) cosh(pi mu/h)/pi - 1|.

    Evaluated in log space; the exact product is 1, so the summed logs
    are reduced mod 2 pi i before exponentiating.
    """
    z = 1j * np.asarray(mu, dtype=complex) / h
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    lg = log_gamma(0.5 + z) + log_gamma(0.5 - z)
    w = np.pi * z / 1j  # pi mu / h
    s = np.where(w.real >= 0, w, -w)
    log_cosh = s + np.log1p(np.exp(-2.0 * s)) - np.log(2.0)
    e = lg + log_cosh - _LN_PI
    e = e - 2j * np.pi * np.round(e.imag / (2.0 * np.pi))
    res = np.abs(np.expm1(e))
    return float(res[0]) if scalar else res
