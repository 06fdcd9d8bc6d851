"""Multi-regime evaluation of the quantization function G and its roots.

G(mu; h) is a sum of labeled exponential terms a_j whose zeros are the
reduced quasi-eigenvalues.  Four algebraically equivalent representations
cover the sectors around the positive/negative imaginary axis and the
|mu| = O(h) disk; all of them are exact rewritings (the Stirling
remainders are kept exactly), so regime overlaps agree to rounding.
_regime_key and _REGIMES are the one rule that picks a representation.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .calibration import CALIBRATION
from .errors import DegenerateError, NoConvergence, RegimeError, SectorEscape
from .scaled import ScaledComplex, sum_exp_many
from .specfun import (
    LOG_SQRT_2PI,
    StirlingRegime,
    _angdist,
    _remainder,
    log_gamma,
)

# 1/C sector margin in the Case 1 / Case 2 split
SECTOR_C = CALIBRATION["sector_C"]
# |mu| <= C1 h switches to the small-mu representations
SMALL_C1 = CALIBRATION["small_C1"]
# Bohr-Sommerfeld Newton stops at this residual
BS_RESIDUAL_TOL = CALIBRATION["bs_residual_tol"]


@dataclass(frozen=True)
class SemiclassicalParams:
    """Semiclassical parameters h, epsilon and the derived h^2/epsilon."""

    h: float
    epsilon: float

    def __post_init__(self):
        # written so that NaN fails too
        if not 0 < self.h < np.inf:
            raise ValueError("h must be positive and finite")
        if not 0 <= self.epsilon < np.inf:
            raise ValueError("epsilon must be nonnegative and finite")

    @property
    def alpha2(self):
        """h^2/epsilon, with the epsilon = 0 convention alpha2 = 0."""
        if self.epsilon == 0:
            return 0.0
        return self.h ** 2 / self.epsilon

    @property
    def width(self):
        """epsilon + h^2/epsilon, the band-width scale."""
        return self.epsilon + self.alpha2


def _horner(c, x):
    """npoly.polyval(x, c) for a 1-d c and a scalar or array x, without
    its argument checks: the same operations, so the same bits."""
    c0 = c[-1] + x * 0
    for ci in c[-2::-1]:
        c0 = ci + c0 * x
    return c0


@dataclass
class ActionModel:
    """Analytic actions as complex-coefficient polynomials in mu.

    The stored polynomials are the tilded actions of the quantization
    condition: the h pi/2 shift and all Floquet/Maslov contributions are
    folded in by the caller.
    """

    s12: np.ndarray
    s34: np.ndarray

    def __post_init__(self):
        self.s12 = np.atleast_1d(np.asarray(self.s12, dtype=complex))
        self.s34 = np.atleast_1d(np.asarray(self.s34, dtype=complex))

    def S12(self, mu):
        return _horner(self.s12, mu)

    def S34(self, mu):
        return _horner(self.s34, mu)


class Regime(enum.Enum):
    Case1Large = "case1large"
    Case2Large = "case2large"
    Case1Small = "case1small"
    Case2Small = "case2small"


# (case 1 admissible, |mu| < SMALL_C1 h) -> the regime eval_G picks
_REGIMES = {(True, False): Regime.Case1Large, (True, True): Regime.Case1Small,
            (False, False): Regime.Case2Large,
            (False, True): Regime.Case2Small}

CASE1_LABELS = ("1", "2", "3", "4+", "4-")
CASE2_LABELS = ("1+", "1-", "2", "3", "4")


def case1_admissible(mu):
    """|arg mu - pi/2| <= pi - 1/C, i.e. away from the -i axis."""
    return _angdist(np.angle(mu), np.pi / 2) <= np.pi - 1.0 / SECTOR_C


def case2_admissible(mu):
    return _angdist(np.angle(mu), -np.pi / 2) <= np.pi - 1.0 / SECTOR_C


def _regime_key(mu, p):
    """The _REGIMES key of mu, elementwise.  np.abs, not abs: Python's
    abs of a complex can round |mu| one ulp lower."""
    return case1_admissible(mu), np.abs(mu) < SMALL_C1 * p.h


def choose_regime(mu, p):
    """The regime eval_G picks at a single mu; RegimeError where neither
    case is admissible (a NaN mu)."""
    mu = complex(mu)
    case1, small = _regime_key(mu, p)
    if not case1 and not case2_admissible(mu):
        raise RegimeError(f"mu={mu} admissible for neither case")
    return _REGIMES[bool(case1), bool(small)]


def _log_terms(mu, p, am, regime):
    """(5, n) array of term logs for a 1-d mu array, plus the labels."""
    mu = np.atleast_1d(np.asarray(mu, dtype=complex))
    h = p.h
    i_h = 1j / h
    s12 = am.S12(mu)
    s34 = am.S34(mu)
    half = np.pi * mu / (2 * h)
    l2 = i_h * s12 + half
    l3 = i_h * s34 + half
    pmh = np.pi * mu / h
    out = np.empty((5, len(mu)), dtype=complex)
    if regime is Regime.Case1Large:
        rem = _remainder(mu, h, StirlingRegime.MinusBranch)
        core = i_h * (mu * np.log(-1j * mu) - mu + np.pi * h / 4)
        l4 = -core + rem
        out[0] = i_h * (s12 + s34) + core - rem
        out[1], out[2] = l2, l3
        out[3], out[4] = l4 + pmh, l4 - pmh
        return out, CASE1_LABELS
    if regime is Regime.Case2Large:
        rem = _remainder(mu, h, StirlingRegime.PlusBranch)
        core = i_h * (mu * np.log(1j * mu) - mu + np.pi * h / 4)
        l1 = i_h * (s12 + s34) + core + rem
        out[0], out[1] = l1 + pmh, l1 - pmh
        out[2], out[3] = l2, l3
        out[4] = -core - rem
        return out, CASE2_LABELS
    if regime is Regime.Case1Small:
        lg = log_gamma(0.5 - 1j * mu / h) - LOG_SQRT_2PI
        base = 1j * (mu / h) * np.log(h) - lg + 1j * np.pi / 4
        out[0] = i_h * (s12 + s34) + base
        out[1], out[2] = l2, l3
        out[3], out[4] = -base + pmh, -base - pmh
        return out, CASE1_LABELS
    if regime is Regime.Case2Small:
        lg = log_gamma(0.5 + 1j * mu / h) - LOG_SQRT_2PI
        base = lg + 1j * (mu / h) * np.log(h) + 1j * np.pi / 4
        l1 = i_h * (s12 + s34) + base
        out[0], out[1] = l1 + pmh, l1 - pmh
        out[2], out[3] = l2, l3
        out[4] = -base
        return out, CASE2_LABELS
    raise RegimeError(f"unknown regime {regime}")


def term_set(mu, p, am):
    """{label: log a_j} at one mu in its choose_regime regime."""
    mu = complex(mu)
    logs, labels = _log_terms(np.array([mu]), p, am, choose_regime(mu, p))
    return {lab: complex(logs[i, 0]) for i, lab in enumerate(labels)}


def eval_G(mu, p, am):
    """G = sum_j a_j as (values, offsets): G = value * exp(offset/h).

    The offset is the modulus of the largest term in action units, so
    |value| is G normalized by max_j |a_j|.  Both arrays have mu's shape,
    with per-point regime selection; a batch in one regime is evaluated
    without masks.  A point's bits depend only on the point and on
    whether it is alone in its regime group (see the README).
    """
    mu = np.asarray(mu, dtype=complex)
    flat = mu.ravel()
    c1, small = _regime_key(flat, p)
    if flat.size and (small == small[0]).all() and (c1 == c1[0]).all():
        regime = _REGIMES[bool(c1[0]), bool(small[0])]
        vals, offs = sum_exp_many(_log_terms(flat, p, am, regime)[0], p.h)
        return vals.reshape(mu.shape), offs.reshape(mu.shape)

    vals = np.empty(flat.shape, dtype=complex)
    offs = np.empty(flat.shape, dtype=float)
    for (case1, is_small), r in _REGIMES.items():
        mask = (c1 == case1) & (small == is_small)
        if mask.any():
            logs, _ = _log_terms(flat[mask], p, am, r)
            vals[mask], offs[mask] = sum_exp_many(logs, p.h)
    return vals.reshape(mu.shape), offs.reshape(mu.shape)


def _raw_actions(mu, p, am, coeffs, theta):
    """Un-fold the tilded actions into the raw ones of the global
    quantization condition."""
    th1, th2 = theta
    h = p.h
    s12 = am.S12(mu) - coeffs.theta(1, 2) - 2 * np.pi * h * th2 - h * np.pi / 2
    s34 = am.S34(mu) - coeffs.theta(3, 4) - 2 * np.pi * h * th1 - h * np.pi / 2
    return s12, s34


def quantization_residual(mu, p, am, coeffs, theta):
    """The quantization parenthesis c23 e^{2pi i(th1+th2)+i(S34+S12)/h}
    + c24 e^{2pi i th2 + iS12/h} - c13 e^{2pi i th1 + iS34/h} - c14, as a
    ScaledComplex."""
    th1, th2 = theta
    mu = complex(mu)
    s12, s34 = _raw_actions(mu, p, am, coeffs, theta)
    i_h = 1j / p.h
    logs = [
        coeffs.log_c23 + 2j * np.pi * (th1 + th2) + i_h * (s34 + s12),
        coeffs.log_c24 + 2j * np.pi * th2 + i_h * s12,
        coeffs.log_c13 + 2j * np.pi * th1 + i_h * s34 + 1j * np.pi,
        coeffs.log_c14 + 1j * np.pi,
    ]
    vals, offs = sum_exp_many(np.array(logs)[:, None], p.h)
    return ScaledComplex(complex(vals[0]), float(offs[0]))


class GrushinVariant(enum.Enum):
    UpperGrushin = "upper"
    LowerGrushin = "lower"


def det_E_minus_plus(variant, mu, p, coeffs, theta, am):
    """det E_-+ of the upper/lower Grushin reduction (ScaledComplex).

    Both variants equal the quantization parenthesis divided by c23
    (upper) or by c14 with an extra e^{-2 pi i(th~1+th~2)} (lower), so
    they vanish exactly at the quasi-eigenvalues.
    """
    th1, th2 = theta
    par = quantization_residual(mu, p, am, coeffs, theta)
    s12, s34 = _raw_actions(complex(mu), p, am, coeffs, theta)
    if variant is GrushinVariant.UpperGrushin:
        div = coeffs.log_c23
        extra = 0.0 + 0.0j
    else:
        div = coeffs.log_c14
        # e^{-2 pi i (th~1 + th~2)} with th~ the action-shifted Floquet pair
        extra = -(2j * np.pi * (th1 + th2) + 1j * (s34 + s12) / p.h)
    if not np.isfinite(div):
        raise DegenerateError(f"dividing coefficient log is {div}")
    scale = max(v.real for v in term_set(mu, p, am).values())
    if np.real(div) - scale < -650.0:
        raise DegenerateError("dividing coefficient underflows in log space")
    shift = extra - div
    value = par.value * np.exp(1j * np.imag(shift))
    return ScaledComplex(value, par.offset + p.h * float(np.real(shift)))


class BSBranch(enum.Enum):
    Ext = "ext"
    LeftInt = "leftint"
    RightInt = "rightint"


@dataclass
class BSRoot:
    mu: complex
    residual: float
    iterations: int


def _cmul(a, b):
    """a * b for complex arrays, rounded as the scalar product rounds it:
    four products and two sums.  numpy's array multiply may fuse
    multiply-adds, which round differently."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _horner_unfused(c, x):
    """_horner with each step's product by _cmul, so that an array x gives
    every point the bits of a scalar x."""
    c0 = c[-1] + x * 0
    for ci in c[-2::-1]:
        c0 = ci + _cmul(c0, x)
    return c0


def _bs_phase(branch, mu, p, am):
    """The branch's Bohr-Sommerfeld phase: _bs_target without its rhs.
    An array mu gives each point the bits of a scalar mu, so one call
    serves a family's lanes."""
    mu = np.asarray(mu, dtype=complex)
    h = p.h
    rem = _remainder(mu, h, StirlingRegime.MinusBranch)
    if branch is BSBranch.Ext:
        return (_horner_unfused(am.s12, mu)
                + _horner_unfused(am.s34, mu)
                + _cmul(2 * mu, np.log(-mu) - 1)
                + np.pi * h / 2 + 2j * h * rem)
    s = _horner_unfused(
        am.s34 if branch is BSBranch.LeftInt else am.s12, mu)
    return _cmul(mu, np.log(mu)) - mu + np.pi * h / 4 + s + 1j * h * rem


def _bs_rhs(p, k):
    return 2 * np.pi * p.h * (k + 0.5)


def _bs_target(branch, mu, p, am, k):
    # the rhs is the last operation, so the phase serves every k bit for bit
    return _bs_phase(branch, mu, p, am) - _bs_rhs(p, k)


def _in_sector(branch, mu, p):
    if branch is BSBranch.Ext:
        return mu.real <= -1.5 * p.h and abs(mu.imag) <= abs(mu.real)
    return mu.real >= 1.5 * p.h and abs(mu.imag) <= abs(mu.real)


def bs_seeds(branch, ks, p, am):
    """Real-axis Newton seeds of the leading equation for every k in ks.

    One 400-point grid of the phase on 1.8 h <= |x| <= 0.45 serves all
    k: each k bisects the first sign change of phase - rhs_k, all k in
    lockstep as one array, until its bracket is two adjacent doubles (or
    after 60 steps).  A k with no sign change gets NaN.
    """
    rhs = _bs_rhs(p, np.asarray(ks))
    sgn = -1.0 if branch is BSBranch.Ext else 1.0
    xs = sgn * np.geomspace(1.8 * p.h, 0.45, 400)
    phase = np.real(_bs_phase(branch, xs + 0j, p, am))
    signs = np.sign(phase - rhs[:, None])
    change = np.diff(signs, axis=1) != 0
    found = change.any(axis=1)
    i = change.argmax(axis=1)
    lo, hi = xs[i], xs[i + 1]
    # lo only moves to a mid of its own sign, so sign f(lo) is fixed; once
    # mid hits an end the bracket is two adjacent doubles and no later
    # step can change it
    sign_lo = signs[np.arange(len(rhs)), i]
    active = np.flatnonzero(found)
    for _ in range(60):
        mid = 0.5 * (lo[active] + hi[active])
        at_end = (mid == lo[active]) | (mid == hi[active])
        active, mid = active[~at_end], mid[~at_end]
        if len(active) == 0:
            break
        f = np.real(_bs_phase(branch, mid + 0j, p, am)) - rhs[active]
        same = np.sign(f) == sign_lo[active]
        lo[active[same]] = mid[same]
        hi[active[~same]] = mid[~same]
    return np.where(found, 0.5 * (lo + hi), np.nan)


def bohr_sommerfeld_solve(branch, ks, p, am, seeds):
    """Newton solutions of the branch quantization condition for every k
    in ks, each from its bs_seeds real seed (NaN for none).

    The k are lanes: each round evaluates the phase of the open lanes in
    one call, and at their central-difference points (only for the lanes
    not yet converged) in two more; each lane then steps exactly as a
    solve of its k alone would, bit for bit.  Returns, per k, its BSRoot
    or the error its solve ends in: SectorEscape if the iterate leaves
    the branch's truncated sector, NoConvergence (carrying the last
    iterate) after 60 steps or without a seed.
    """
    h = p.h
    delta = h * 1e-3
    ks = list(ks)
    out = [NoConvergence(f"no real seed for {branch.name} k={k}", last=None)
           if np.isnan(s) else None for k, s in zip(ks, seeds)]
    mu = [complex(s) for s in seeds]
    lanes = [i for i, r in enumerate(out) if r is None]
    for it in range(61):
        if not lanes:
            break
        k = np.array([ks[i] for i in lanes])
        z = np.array([mu[i] for i in lanes])
        f = _bs_target(branch, z, p, am, k)
        # the per-lane arithmetic is on scalars: numpy's array abs and
        # division round differently
        going = []
        for n, (i, fi) in enumerate(zip(lanes, f)):
            if it == 60:
                out[i] = NoConvergence(
                    f"{branch.name} k={ks[i]} did not converge",
                    last=mu[i], residual=abs(fi))
            elif abs(fi) <= BS_RESIDUAL_TOL:
                out[i] = BSRoot(mu=mu[i], residual=abs(fi), iterations=it)
            else:
                going.append(n)
        if not going:
            break
        z, k = z[going], k[going]
        diff = (_bs_target(branch, z + delta, p, am, k)
                - _bs_target(branch, z - delta, p, am, k))
        lanes = [lanes[n] for n in going]
        for i, fi, d in zip(lanes, f[going], diff):
            step = fi / (d / (2 * delta))
            # damp overly large steps
            max_step = 0.2 * max(abs(mu[i]), h)
            if abs(step) > max_step:
                step *= max_step / abs(step)
            mu[i] = mu[i] - step
            if not _in_sector(branch, mu[i], p):
                out[i] = SectorEscape(
                    f"{branch.name} k={ks[i]} left its sector at {mu[i]}",
                    last=mu[i])
        lanes = [i for i in lanes if out[i] is None]
    return out
