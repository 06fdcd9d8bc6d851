"""Log-scaled complex arithmetic.

Quantities like exp(pi*mu/h) overflow double precision once mu/h is a few
hundred, so sums of exponential terms are carried as (value, offset) pairs
meaning value * exp(offset / h) with a real offset in action units.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ScaledComplex:
    """value * exp(offset / h) for the h of the computation; offset is
    real, in action units."""

    value: complex
    offset: float


def sum_exp_many(log_values, h):
    """Stable sums of exp(log_values) over the first axis: returns
    (values, offsets), meaning values * exp(offsets / h).

    log_values: (k, ...) complex array of term logs, k terms per point.
    The common offset of a point is h * max(Re log), i.e. the largest
    term modulus expressed in action units, so |value| <= k.
    """
    logs = np.asarray(log_values, dtype=complex)
    m = logs.real.max(axis=0, keepdims=True)
    vals = np.exp(logs - m).sum(axis=0)
    return vals, m.squeeze(axis=0) * h


def log1p_exp(z):
    """log(1 + exp(z)) for complex z, stable for large |Re z|."""
    z = complex(z)
    if z.real > 0:
        return z + np.log1p(np.exp(-z))
    return np.log1p(np.exp(z))


def log_2cosh(z):
    """log(2 cosh z), stable for large |Re z| (complex z)."""
    z = complex(z)
    s = z if z.real >= 0 else -z
    return s + np.log1p(np.exp(-2.0 * s))
