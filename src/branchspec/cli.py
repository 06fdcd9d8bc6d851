"""branchspec command line: spectrum | model | skeleton | count | bs |
average | classify, with JSON configs, CSV/JSON/SVG outputs, and a
--check mode that runs each pipeline's acceptance assertions.

Exit codes: 0 ok, 2 config error, 3 numerical failure, 4 failed check.
The config keys of each command, with their defaults, are in SCHEMAS.
"""

import argparse
import csv
import ctypes
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import calibration
from .errors import BranchspecError, Mismatch
from .quantization import (
    ActionModel,
    BSBranch,
    SemiclassicalParams,
    _bs_phase,
    bohr_sommerfeld_solve,
    bs_seeds,
)
from .skeleton import assemble, curve_residual, export_csv, export_json
from .zerocount import (
    SEED_SPLIT_C,
    STRIP_GRID_C,
    Contour,
    GProvider,
    _grid_seeds,
    export_zeros_csv,
    locate_zeros,
    match_bijection,
    winding_count,
)


class ConfigError(Exception):
    pass


# --- config schema --------------------------------------------------------
# SCHEMAS maps each command to one table, key -> (parser, default).  A
# parser returns a JSON value normalized; its ValueError or TypeError on a
# bad value becomes a ConfigError naming the key.  A default is parsed like
# a given value unless it is None (the key stays None) or REQUIRED; one
# that is callable is called, with the keys before it, at load time.

REQUIRED = object()


def _unless(other):
    """Default of a key that is required unless `other` is set."""
    return lambda cfg: None if cfg[other] else REQUIRED


def _fill(raw, table, where="config"):
    """`raw` checked against `table`, with every key parsed or defaulted."""
    if type(raw) is not dict:
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(raw) - set(table))
    if unknown:
        raise ConfigError(f"unknown {where} keys {unknown}")
    cfg = {}
    for key, (parse, default) in table.items():
        name = key if where == "config" else f"{where}.{key}"
        val = raw[key] if key in raw else (
            default(cfg) if callable(default) else default)
        if val is REQUIRED:
            raise ConfigError(f"missing config key '{name}'")
        try:
            cfg[key] = parse(val) if key in raw or val is not None else None
        except (ValueError, TypeError, ZeroDivisionError,
                OverflowError) as exc:
            raise ConfigError(f"bad '{name}' {val!r}: {exc}")
    return cfg


def _typed(types, what, convert=None):
    """Parser of a JSON value of one of `types` (true is not a number)."""
    def parse(raw):
        if type(raw) not in types:
            raise TypeError(f"must be {what}")
        return convert(raw) if convert else raw
    return parse


def _finite(x):
    """float(x); a number that overflows a double (JSON 1e400) is not."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("must be finite")
    return x


_real = _typed((int, float), "a number", _finite)
_integer = _typed((int,), "an integer")
_flag = _typed((bool,), "true or false")
_text = _typed((str,), "a string")
_branch = _typed((str,), "ext|leftint|rightint", lambda s: BSBranch(s.lower()))


def _positive(raw):
    """An integer of at least 1."""
    if _integer(raw) < 1:
        raise ValueError("must be at least 1")
    return raw


def _above_zero(raw):
    """A finite number above 0, as a float."""
    x = _real(raw)
    if not x > 0:
        raise ValueError("must be above 0")
    return x


def _reals(n=None):
    """Parser of a nonempty list of finite numbers (n if given), kept as
    written."""
    def parse(raw):
        if (type(raw) is not list or not raw or n not in (None, len(raw))
                or any(type(v) not in (int, float) for v in raw)):
            raise TypeError(f"must be a list of {n or 'one or more'} numbers")
        for v in raw:
            _finite(v)
        return raw
    return parse


def _window(raw):
    """[lo, hi] as written, with lo < hi."""
    lo, hi = _reals(2)(raw)
    if lo >= hi:
        raise ValueError("must have lo < hi")
    return raw


def _rectangle(raw):
    """[re0, re1, im0, im1] as written, with re0 < re1 and im0 < im1."""
    Contour.rectangle(*_reals(4)(raw))
    return raw


def _version(raw):
    if raw != calibration.SCHEMA_VERSION:
        raise ValueError(f"only {calibration.SCHEMA_VERSION} is supported")
    return raw


def _complex_coeffs(raw):
    """Numbers or [re, im] pairs, as complex coefficients."""
    if type(raw) is not list or not raw:
        raise TypeError("must be a list of numbers or [re, im] pairs")
    pairs = [v if type(v) is list and len(v) == 2 else [v, 0] for v in raw]
    return [complex(_real(re), _real(im)) for re, im in pairs]


def _rational(raw):
    """A number, a string such as "1/3", or integers [num, den]: a Fraction."""
    if type(raw) is list and len(raw) == 2:
        return Fraction(*map(_integer, raw))
    return Fraction(str(raw))


def _xpoly(raw):
    """{"i,j": coefficient} (or "i,j,k,l"), as {exponents: Fraction}."""
    if type(raw) is not dict:
        raise TypeError("must be an object of monomials")
    out = {}
    for mono, val in raw.items():
        parts = mono.split(",")
        if len(parts) not in (2, 4) or not all(
                s.isascii() and s.isdigit() for s in parts):
            raise ValueError(f"bad monomial key '{mono}'")
        if type(val) is bool:
            raise TypeError(f"coefficient of '{mono}' must be a number")
        out[tuple(map(int, parts))] = _rational(val)
    return out


def _grid(raw):
    """A scan range [lo, hi, n] with n >= 1, as n (float, Fraction) points."""
    if type(raw) is not list or len(raw) != 3:
        raise TypeError("must be [lo, hi, n]")
    if _integer(raw[2]) < 1:
        raise ValueError("n must be at least 1")
    return [(float(x), Fraction(str(round(float(x), 9))))
            for x in np.linspace(_real(raw[0]), _real(raw[1]), raw[2])]


_VERSION = {"schema_version": (_version, calibration.SCHEMA_VERSION)}
# h, epsilon, the actions and the body: shared by the four model commands
_MODEL = {**_VERSION, "h": (_real, REQUIRED), "epsilon": (_real, 0.0),
          "S12": (_complex_coeffs, REQUIRED),
          "S34": (_complex_coeffs, REQUIRED), "description": (_text, ""),
          "C_body": (_above_zero,
                     lambda cfg: calibration.CALIBRATION["body_C"])}
_SCAN = {"b_range": (_grid, [-4, 4, 200]), "c_range": (_grid, [-4, 4, 200]),
         "d": (_rational, 2.5)}
SCHEMAS = {
    "spectrum": {**_VERSION, "h": (_real, REQUIRED), "epsilon": (_real, 0.0),
                 "V": (_reals(), REQUIRED), "W": (_reals(), REQUIRED),
                 "L": (_real, 2.5), "N": (_integer, 800),
                 "dN": (_positive, lambda cfg: max(8, cfg["N"] // 10)),
                 "window": (_window, [-0.2, 0.2])},
    "model": {**_MODEL, "rectangle": (_rectangle, [-0.2, 0.2, -0.05, 0.05]),
              "cell_budget": (_positive, lambda cfg:
                              calibration.CALIBRATION["cell_budget"])},
    "skeleton": _MODEL,
    "count": {**_MODEL, "rectangle": (_rectangle, REQUIRED)},
    "bs": {**_MODEL, "branch": (_branch, "leftint"),
           "k_min": (_integer, REQUIRED), "k_max": (_integer, REQUIRED)},
    "average": {**_VERSION, "golden_check": (_flag, False),
                "x_poly": (_xpoly, _unless("golden_check")),
                "correlate_with": (_xpoly, None)},
    "classify": {**_VERSION,
                 "scan": (lambda raw: _fill(raw, _SCAN, "scan"), None),
                 **{k: (_rational, _unless("scan")) for k in "abc"}},
}


def _load_config(path, command):
    """The config file at `path`, filled in by the command's table."""
    if path is None:
        raise ConfigError("--config FILE is required")
    try:
        with open(path) as fh:
            # NaN and Infinity are not JSON; as strings no parser takes them
            raw = json.load(fh, parse_constant=str)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}")
    cfg = _fill(raw, SCHEMAS[command])
    if command == "spectrum":
        from .schrodinger import DENSE_MAX
        # the N + dN run's matrix has N + dN - 1 rows
        if cfg["N"] + cfg["dN"] - 1 > DENSE_MAX:
            raise ConfigError(f"'N' + 'dN' = {cfg['N'] + cfg['dN']} must be "
                              f"at most {DENSE_MAX + 1}")
    return cfg


def _checked(cls, **kwargs):
    """cls(**kwargs); the range checks of cls are config errors."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _model(cfg):
    """The semiclassical parameters and action model of a model block."""
    p = _checked(SemiclassicalParams, h=cfg["h"], epsilon=cfg["epsilon"])
    return p, ActionModel(cfg["S12"], cfg["S34"])


def _write_json(path, doc, **ran):
    with open(path, "w") as fh:
        json.dump(calibration.embed(doc, **ran), fh, indent=1,
                  sort_keys=True)


def cmd_spectrum(cfg, out, svg, check):
    from .schrodinger import (
        OperatorSpec,
        branch_structure_report,
        export_spectrum_csv,
        phase_space_count,
        resolved_spectrum,
    )
    spec = _checked(OperatorSpec, V=cfg["V"], W=cfg["W"], h=cfg["h"],
                    epsilon=cfg["epsilon"], L=cfg["L"], N=cfg["N"])
    s = resolved_spectrum(spec, dN=cfg["dN"])
    rep = branch_structure_report(s, spec)
    export_spectrum_csv(out / "spectrum.csv", s)
    rep["phase_space_heuristic"] = phase_space_count(spec, *cfg["window"])
    rep["window"] = cfg["window"]
    rep["meta"] = s.meta
    _write_json(out / "report.json", rep)
    if svg:
        from .svg import scatter_svg
        lam = s.eigenvalues
        ok = s.resolved
        scatter_svg(out / "spectrum.svg",
                    [("resolved", lam[ok].real, lam[ok].imag),
                     ("dropped", lam[~ok].real, lam[~ok].imag)],
                    title="spectrum", xlabel="Re", ylabel="Im")
    if check:
        lam = s.eigenvalues
        w = spec.w_at(np.linspace(-spec.L, spec.L, 400))
        w_lo, w_hi = spec.epsilon * min(w), spec.epsilon * max(w)
        if lam.imag.min() < w_lo - 1e-6 or lam.imag.max() > w_hi + 1e-6:
            raise CheckFailure("numerical-range containment violated")
    return 0


class CheckFailure(Exception):
    pass


def _bs_roots_in_strip(p, am, branch, x_lo, x_hi):
    """The branch's roots with x_lo <= Re mu <= x_hi, and how many of the
    k tried failed to solve."""
    ends = np.real(_bs_phase(branch, np.array([x_lo, x_hi]) + 0j, p, am))
    k_lo = int(np.floor(ends.min() / (2 * np.pi * p.h) - 0.5))
    k_hi = int(np.ceil(ends.max() / (2 * np.pi * p.h) - 0.5))
    ks = range(k_lo - 1, k_hi + 2)
    roots = []
    failed = 0
    for r in bohr_sommerfeld_solve(branch, ks, p, am,
                                   bs_seeds(branch, ks, p, am)):
        if isinstance(r, BranchspecError):
            failed += 1
        elif x_lo <= r.mu.real <= x_hi:
            roots.append(r)
    return roots, failed


def _bijection_strip(p, rect):
    """(x_lo, x_hi) of the bijection's strip max(5h, re0) <= Re mu <= re1."""
    return max(5 * p.h, rect[0]), rect[1]


def _model_zeros(p, am, rect, cell_budget):
    """The zeros of G in rect by locate_zeros, seeded from the
    Bohr-Sommerfeld families outside the branching strip |Re mu| <
    SEED_SPLIT_C h (Ext on the left, LeftInt and RightInt on the right)
    and from the grid minima of |G| at spacing h/STRIP_GRID_C inside it.
    Returns the ZeroSet, the LeftInt and RightInt roots with
    max(5h, re0) <= Re mu <= re1 (the bijection's), and the locator block
    of the report.  Each family is solved once."""
    x_lo, x_hi = _bijection_strip(p, rect)
    cut = SEED_SPLIT_C * p.h
    right, left, failed = [], [], 0
    if x_hi > x_lo:
        for branch in (BSBranch.LeftInt, BSBranch.RightInt):
            roots, n = _bs_roots_in_strip(p, am, branch, x_lo, x_hi)
            right += roots
            failed += n
    if rect[0] < -cut:
        left, n = _bs_roots_in_strip(p, am, BSBranch.Ext, rect[0],
                                     min(rect[1], -cut))
        failed += n
    f = GProvider(p, am).normalized_G
    seeds = [r.mu for r in left] + [r.mu for r in right if r.mu.real >= cut]
    strip = (max(rect[0], -cut), min(rect[1], cut), rect[2], rect[3])
    if strip[0] < strip[1]:
        dims = [max(3, int(w * STRIP_GRID_C / p.h))
                for w in (strip[1] - strip[0], strip[3] - strip[2])]
        seeds += list(_grid_seeds(f, strip, *dims))
    zs = locate_zeros(f, rect, p, seeds=seeds, cell_budget=cell_budget)
    return zs, right, {"counts": zs.counts, "deficit_cells": zs.deficit_cells,
                       "seeds": len(seeds), "bs_failed": failed}


def cmd_model(cfg, out, svg, check):
    p, am = _model(cfg)
    rect = cfg["rectangle"]
    sk, body = assemble(p, am, C_body=cfg["C_body"])
    export_csv(out / "skeleton.csv", sk.s_prime)
    zs, right, locator = _model_zeros(p, am, rect, cfg["cell_budget"])
    export_zeros_csv(out / "zeros.csv", zs)
    # the bijection report on the right strip
    x_lo, x_hi = _bijection_strip(p, rect)
    predicted = [r.mu for r in right if not body.in_exceptional_box(r.mu)]
    in_strip = [z.location for z in zs.zeros
                if x_lo <= z.location.real <= x_hi
                and not body.in_exceptional_box(z.location)]
    floor = calibration.CALIBRATION["bs_position_floor"]

    def rate(mu):
        v = 10 * (p.h / np.log(1.0 / abs(mu))) \
            * np.exp(-np.pi * max(mu.real, 0.0) / p.h)
        return max(v, floor)

    rep = match_bijection(in_strip, predicted, rate)
    census = sum(1 for z in zs.zeros if body.in_exceptional_box(z.location))
    doc = {
        "n_zeros": len(zs),
        "n_predicted_in_strip": len(predicted),
        "n_zeros_in_strip": len(in_strip),
        "bijection_ok": rep["ok"],
        "max_match_distance": rep["max_distance"],
        "unmatched": len(rep["unmatched_zeros"]) + len(rep["unmatched_predicted"]),
        "exceptional_box_census": census,
        "in_body": [bool(body.contains(z.location)) for z in zs.zeros],
        "locator": locator,
    }
    export_json(out / "skeleton.json", sk, body)
    _write_json(out / "model_report.json", doc, body_C=cfg["C_body"],
                cell_budget=cfg["cell_budget"])
    if svg:
        from .svg import scatter_svg
        xs, ys = sk.all_samples()
        zl = zs.locations()
        scatter_svg(out / "model.svg",
                    [("skeleton", xs, ys),
                     ("zeros", zl.real, zl.imag)],
                    title="skeleton and zeros", xlabel="Re mu", ylabel="Im mu")
    if check:
        if not all(doc["in_body"]):
            raise CheckFailure("a zero escaped the body")
        if x_hi <= x_lo:
            raise CheckFailure(
                f"empty Bohr-Sommerfeld strip max(5h, re0) <= Re mu <= re1: "
                f"{x_lo!r} > {x_hi!r}")
        if not rep["ok"]:
            raise CheckFailure("bijection violated in the strip")
        w = p.width
        if w > 0:
            bound = 10 * (p.epsilon / p.h + p.h / p.epsilon) * abs(np.log(w))
            if census > bound:
                raise CheckFailure("exceptional box census exceeds bound")
    return 0


def cmd_skeleton(cfg, out, svg, check):
    p, am = _model(cfg)
    sk, body = assemble(p, am, C_body=cfg["C_body"])
    export_csv(out / "skeleton.csv", sk.s_prime)
    export_json(out / "skeleton.json", sk, body)
    if svg:
        from .svg import scatter_svg
        xs, ys = sk.all_samples()
        scatter_svg(out / "skeleton.svg", [("S'", xs, ys)],
                    title="skeleton", xlabel="Re mu", ylabel="Im mu")
    if check:
        for pc in sk.s_prime:
            if pc.label.startswith(("right_upper", "right_lower")):
                continue  # envelopes of two curves, checked via sources
            pair = pc.label.split("_")[-1]
            res = curve_residual(pair, pc.xs + 1j * pc.ys, p, am)
            if np.max(np.abs(res)) > 1e-10:
                raise CheckFailure(f"curve residual exceeded on {pc.label}")
    return 0


def cmd_count(cfg, out, svg, check):
    p, am = _model(cfg)
    prov = GProvider(p, am)
    contour = Contour.rectangle(*cfg["rectangle"])
    n = winding_count(prov.normalized_G, contour, h=p.h)
    doc = {"rectangle": cfg["rectangle"], "count": n,
           "contour_vertices": [[v.real, v.imag] for v in contour.vertices]}
    _write_json(out / "count.json", doc)
    print(n)
    if check:
        n2 = winding_count(prov.normalized_G, contour.expanded(p.h / 200), h=p.h)
        if n2 != n:
            raise CheckFailure("winding count unstable under perturbation")
    return 0


def cmd_bs(cfg, out, svg, check):
    p, am = _model(cfg)
    branch = cfg["branch"]
    if cfg["k_min"] > cfg["k_max"]:
        raise ConfigError(f"empty k-range: k_min {cfg['k_min']} > "
                          f"k_max {cfg['k_max']}")
    ks = range(cfg["k_min"], cfg["k_max"] + 1)
    rows = []
    failures = []
    results = bohr_sommerfeld_solve(branch, ks, p, am,
                                    bs_seeds(branch, ks, p, am))
    for k, r in zip(ks, results):
        if isinstance(r, BranchspecError):
            rows.append((k, float("nan"), float("nan"), float("nan"), 0))
            failures.append(f"k={k}: {type(r).__name__}: {r}")
        else:
            rows.append((k, r.mu.real, r.mu.imag, r.residual, 1))
    with open(out / "bs_roots.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "re", "im", "residual", "converged"])
        for row in rows:
            w.writerow([row[0], repr(float(row[1])), repr(float(row[2])),
                        repr(float(row[3])), row[4]])
    if check:
        if failures:
            raise CheckFailure(f"{len(failures)} Bohr-Sommerfeld roots did "
                               f"not converge, first {failures[0]}")
    return 0


def _golden_check():
    from fractions import Fraction as F

    from .flowavg import BalancedLaurent as BL
    from .flowavg import correlation_C, zpoly_from_x

    def mono(*key, c=1):
        return BL({tuple(key): F(c)})

    z1sq, z2sq = mono(1, 0, 1, 0), mono(0, 1, 0, 1)
    zsq = z1sq + z2sq
    cross1 = mono(1, 0, 0, 1) + mono(0, 1, 1, 0)
    cross2 = mono(2, 0, 0, 2) + mono(0, 2, 2, 0)
    cross3 = mono(3, 0, 0, 3) + mono(0, 3, 3, 0)
    q44 = zpoly_from_x({(4, 0): 1, (0, 4): 1})
    q22 = zpoly_from_x({(2, 2): 1})
    q31 = zpoly_from_x({(3, 1): 1, (1, 3): 1})
    golden = {
        "C(q44,q44)": (correlation_C(q44, q44),
                       F(-17, 16) * (mono(3, 0, 3, 0) + mono(0, 3, 0, 3))),
        "C(q44,q22)": (correlation_C(q44, q22),
                       F(-1, 64) * (zsq * (5 * cross2 + 24 * (z1sq * z2sq)))),
        "C(q44,q31)": (correlation_C(q44, q31),
                       F(1, 128) * (2 * cross3
                                    - (51 * (z1sq * z1sq + z2sq * z2sq)
                                       + 36 * (z1sq * z2sq)) * cross1)),
        "C(q22,q22)": (correlation_C(q22, q22),
                       F(-1, 64) * (zsq * (9 * (z1sq * z2sq) + 4 * cross2))),
        "C(q22,q31)": (correlation_C(q22, q31),
                       F(-1, 256) * ((17 * (z1sq * z1sq + z2sq * z2sq)
                                      + 90 * (z1sq * z2sq)) * cross1
                                     + 12 * cross3)),
        "C(q31,q31)": (correlation_C(q31, q31),
                       F(-1, 256) * (17 * (mono(3, 0, 3, 0) + mono(0, 3, 0, 3))
                                     + 153 * (z1sq * z2sq * zsq)
                                     + 51 * (zsq * cross2))),
    }
    bad = [name for name, (got, want) in golden.items() if got != want]
    return bad


def cmd_average(cfg, out, svg, check):
    from .flowavg import (
        correlation_C,
        flow_average,
        weighted_average_G0,
        zpoly_from_x,
    )
    if cfg["golden_check"]:
        bad = _golden_check()
        _write_json(out / "golden_check.json", {"failures": bad})
        if bad:
            raise CheckFailure(f"golden identities failed: {bad}")
        return 0
    q = zpoly_from_x(cfg["x_poly"])
    doc = {
        "average": flow_average(q).to_json_dict(),
        "G0": weighted_average_G0(q).to_json_dict(),
    }
    if cfg["correlate_with"] is not None:
        q2 = zpoly_from_x(cfg["correlate_with"])
        doc["C"] = correlation_C(q, q2).to_json_dict()
    _write_json(out / "average.json", doc)
    if check:
        bad = _golden_check()
        if bad:
            raise CheckFailure(f"golden identities failed: {bad}")
    return 0


def cmd_classify(cfg, out, svg, check):
    from .flowavg import (
        REGION_SADDLES,
        ReducedFunction,
        classify_critical_points,
        grid_verify,
        scan_regions,
    )

    scan = cfg["scan"]
    if scan is not None:
        regions = scan_regions([bq for _, bq in scan["b_range"]],
                               [cq for _, cq in scan["c_range"]], scan["d"])
        # the bytes of csv.writer rows: no field needs quoting
        cols = [f",{c!r}," for c, _ in scan["c_range"]]
        tails = {r: f"{r.value},{REGION_SADDLES.get(r, -1)}\r\n"
                 for r in set(regions.flat)}
        with open(out / "region_scan.csv", "w", newline="") as fh:
            fh.write("b,c,region,saddles\r\n")
            for (b, _), row in zip(scan["b_range"], regions):
                b = repr(b)
                fh.writelines(b + col + tails[r] for col, r in zip(cols, row))
        return 0

    rf = ReducedFunction(cfg["a"], cfg["b"], cfg["c"])
    rep = classify_critical_points(rf)
    doc = {
        "region": rep.region.value,
        "saddle_count": rep.saddle_count,
        "points": [{
            "kind": pt.kind.value,
            "signature": list(pt.signature),
            "value": [pt.value.numerator, pt.value.denominator],
            "locations": [[float(r), float(t)] for r, t in pt.locations],
        } for pt in rep.points],
    }
    _write_json(out / "classify.json", doc)
    if check:
        try:
            grid_verify(rf, rep)
        except Mismatch as exc:
            raise CheckFailure(f"grid verification failed: {exc}")
    return 0


COMMANDS = {
    "spectrum": cmd_spectrum,
    "model": cmd_model,
    "skeleton": cmd_skeleton,
    "count": cmd_count,
    "bs": cmd_bs,
    "average": cmd_average,
    "classify": cmd_classify,
}


def _reuse_freed_arrays():
    """Have glibc keep freed blocks of up to 8 MiB for reuse.  By default
    it maps blocks above its mmap threshold afresh and gives freed memory
    back past its trim threshold (both 128 KiB at start, raised only by
    the largest mapped block freed so far), so mid-size numpy temporaries
    (a 400 x 400 grid is 1.25 MiB) keep paying a page fault per 4 KiB."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int] * 2, ctypes.c_int
        mallopt(-3, 8 << 20)    # M_MMAP_THRESHOLD
        mallopt(-1, 16 << 20)   # M_TRIM_THRESHOLD: free top memory kept


def main(argv=None):
    parser = argparse.ArgumentParser(prog="branchspec")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--out", default=".")
    parser.add_argument("--svg", action="store_true")
    args = parser.parse_args(argv)
    _reuse_freed_arrays()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        cfg = _load_config(args.config, args.command)
        return COMMANDS[args.command](cfg, out, args.svg, args.check)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 4
    except (BranchspecError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
