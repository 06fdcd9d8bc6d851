"""Layer batch-size probe: cost per point of eval_G and log_gamma at
fixed batch sizes, and one dense eigensolve at N = 1000.

The points are drawn from the criterion-7 rectangle with the criterion-7
model (the first draw of default_rng(11)); log_gamma gets the small-mu
argument 1/2 - i mu / h that eval_G and the skeleton pass it.
"""

import statistics
import time

import numpy as np

from branchspec import quantization, schrodinger, specfun
from branchspec.quantization import SemiclassicalParams

from jobs import C7, action_model, physical_model

BATCHES = (1, 21, 1000, 100000)
MIN_SECONDS = 0.25   # per batch size: repeat calls at least this long
MIN_REPEATS = 3


def _us_per_point(fn, arg, b):
    times = []
    t_end = time.perf_counter() + MIN_SECONDS
    while len(times) < MIN_REPEATS or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / b * 1e6


def batch_probe(seed):
    """{metric name: value} for the probe metrics."""
    p = SemiclassicalParams(h=C7["h"], epsilon=C7["eps"])
    am = action_model(*physical_model(np.random.default_rng(C7["seed"]),
                                      C7["eps"]))
    rng = np.random.default_rng(seed)
    re0, re1, im0, im1 = C7["rect"]
    n = max(BATCHES)
    mu = rng.uniform(re0, re1, n) + 1j * rng.uniform(im0, im1, n)
    z = 0.5 - 1j * mu / p.h
    out = {}
    for b in BATCHES:
        out[f"quantization.eval_G.us_per_point.b{b}"] = _us_per_point(
            lambda m: quantization.eval_G(m, p, am), mu[:b], b)
        out[f"specfun.log_gamma.us_per_point.b{b}"] = _us_per_point(
            specfun.log_gamma, z[:b], b)
    spec = schrodinger.OperatorSpec(V=[0, 0, -1, 0, 1], W=[0, 0, 1], h=1e-3,
                                    epsilon=0.8, L=1.2, N=1000)
    A, _ = schrodinger.discretize(spec)
    t0 = time.perf_counter()
    schrodinger.eigensolve(A)
    out["schrodinger.eigensolve.s.N1000"] = time.perf_counter() - t0
    return out
