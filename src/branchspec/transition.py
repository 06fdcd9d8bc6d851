"""Exact transition matrix across the branch point and its asymptotics.

The 2x2 matrix maps the coefficients (u3, u4) of microlocal solutions on
the incoming branches to (u2, u1) on the outgoing ones.  Entries mix
Gamma factors with exp(pi mu/h), which overflow double range, so the
entries are kept in log form only and every identity is checked on logs.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .calibration import CALIBRATION
from .errors import SectorError
from .scaled import log1p_exp, log_2cosh
from .specfun import LOG_SQRT_2PI, _angdist, log_gamma


class Sector(enum.Enum):
    """Sectors of the asymptotic tableau (0.1 rad admissibility margin)."""

    RightReal = "right"   # Re mu > |Im mu|/C
    UpperHalf = "upper"   # Im mu > -C |Re mu|  (away from -i R+)
    LeftReal = "left"     # Re mu < -|Im mu|/C
    LowerHalf = "lower"   # Im mu < C |Re mu|   (away from +i R+)


SECTOR_MARGIN = CALIBRATION["tableau_sector_margin"]


@dataclass
class TransitionMatrix:
    """Log-form entries of the exact transition matrix at (mu, h).

    a23 and a14 carry Gamma factors; a24 = -a13 = -exp(pi mu/h + i pi/2)
    are exact exponentials that renormalize and det_residual rebuild from
    mu and h.
    """

    mu: complex
    h: float
    log_a23: complex
    log_a14: complex

    def det_residual(self):
        """|det - 1| / max(|a23*a14|, 1), evaluated in log space.

        The determinant equals 1 exactly; with L1 = log(a23*a14) and
        L2 = 2 pi mu/h = log(a24*a13) the identity reads
        L1 = log(1 + exp(L2)), so the residual is |exp(L1 - L1_true) - 1|.
        """
        l1 = self.log_a23 + self.log_a14
        l2 = 2.0 * np.pi * self.mu / self.h
        return abs(np.expm1(l1 - log1p_exp(l2)))


def exact_matrix(mu, h):
    """Transition matrix entries from the exact Gamma formulas."""
    if h <= 0:
        raise ValueError("h must be positive")
    mu = complex(mu)
    z = 1j * mu / h
    common = (np.pi / 2) * (mu / h)
    log_a23 = LOG_SQRT_2PI + z * np.log(h) - log_gamma(0.5 - z) \
        + common + 1j * np.pi / 4
    log_a14 = LOG_SQRT_2PI - z * np.log(h) - log_gamma(0.5 + z) \
        + common - 1j * np.pi / 4
    return TransitionMatrix(mu=mu, h=h, log_a23=log_a23, log_a14=log_a14)


class Entry(enum.Enum):
    A23 = "a23"
    A14 = "a14"


def _sector_ok(mu, sector):
    th = np.angle(mu)
    if sector is Sector.RightReal:
        return _angdist(th, 0.0) <= np.pi / 2 - SECTOR_MARGIN
    if sector is Sector.LeftReal:
        return _angdist(th, np.pi) <= np.pi / 2 - SECTOR_MARGIN
    if sector is Sector.UpperHalf:
        return _angdist(th, -np.pi / 2) >= SECTOR_MARGIN
    return _angdist(th, np.pi / 2) >= SECTOR_MARGIN


def asymptotic_entry(entry, mu, h, sector):
    """Log of the tableau expression for a23 or a14, remainders dropped.

    Each sector block uses the principal log whose cut coincides with the
    sector's excluded axis.  In the half-plane blocks the subdominant
    reflection partner shows up as a 2cosh factor.
    """
    mu = complex(mu)
    if abs(mu) / h < 5.0:
        raise SectorError(f"|mu|/h < 5 (mu={mu}, h={h})")
    if not _sector_ok(mu, sector):
        raise SectorError(f"mu={mu} outside sector {sector.name} with margin")

    i_h = 1j / h
    quarter = np.pi * h / 4
    if sector is Sector.RightReal:
        if entry is Entry.A23:
            return i_h * (mu * np.log(mu) - 1j * np.pi * mu - mu + quarter)
        return i_h * (-mu * np.log(mu) - 1j * np.pi * mu + mu - quarter)
    if sector is Sector.UpperHalf:
        if entry is Entry.A23:
            return i_h * (mu * np.log(-1j * mu) - 1j * np.pi * mu / 2
                          - mu + quarter)
        return i_h * (-mu * np.log(-1j * mu) - 1j * np.pi * mu / 2
                      + mu - quarter) + log_2cosh(np.pi * mu / h)
    if sector is Sector.LeftReal:
        if entry is Entry.A23:
            return i_h * (mu * np.log(-mu) - mu + quarter)
        return i_h * (-mu * np.log(-mu) + mu - quarter)
    # LowerHalf
    if entry is Entry.A23:
        return i_h * (mu * np.log(1j * mu) - 1j * np.pi * mu / 2
                      - mu + quarter) + log_2cosh(np.pi * mu / h)
    return i_h * (-mu * np.log(1j * mu) - 1j * np.pi * mu / 2 + mu - quarter)


@dataclass
class RenormalizedCoeffs:
    """Coefficients c_jk = exp(-i (d_j - d_k)/h) a_jk for phases d_j."""

    d: tuple
    log_c23: complex
    log_c14: complex
    log_c24: complex
    log_c13: complex

    def theta(self, j, k):
        """theta_{j,k} = d_j - d_k (1-based indices)."""
        return self.d[j - 1] - self.d[k - 1]


def renormalize(tm, d):
    """Renormalized coefficients for the four phases d = (d1, d2, d3, d4).

    det of the c-matrix picks up the factor exp(-i (d1+d2-d3-d4)/h); the
    theta identity theta23 + theta14 = theta13 + theta24 is exact.
    """
    d = tuple(complex(x) for x in d)
    d1, d2, d3, d4 = d
    ih = 1j / tm.h
    log_a_pure = np.pi * tm.mu / tm.h + 1j * np.pi / 2
    return RenormalizedCoeffs(
        d=d,
        log_c23=tm.log_a23 - ih * (d2 - d3),
        log_c14=tm.log_a14 - ih * (d1 - d4),
        log_c24=log_a_pure + 1j * np.pi - ih * (d2 - d4),  # a24 = -e^{..}
        log_c13=log_a_pure - ih * (d1 - d3),
    )
