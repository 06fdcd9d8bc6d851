"""branchspec command line: spectrum | model | skeleton | count | bs |
average | classify, with JSON configs, CSV/JSON/SVG outputs, and a
--check mode that runs each pipeline's acceptance assertions.

Exit codes: 0 ok, 2 config error, 3 numerical failure, 4 failed check.
"""

import argparse
import csv
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import calibration
from .errors import BranchspecError
from .quantization import (
    ActionModel,
    BSBranch,
    SemiclassicalParams,
    bohr_sommerfeld_solve,
    bs_seeds,
)
from .skeleton import assemble, curve_residual, export_csv, export_json
from .zerocount import (
    Contour,
    GProvider,
    export_zeros_csv,
    locate_zeros,
    match_bijection,
    winding_count,
)


class ConfigError(Exception):
    pass


def _load_config(path):
    if path is None:
        raise ConfigError("--config FILE is required")
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if cfg.get("schema_version", 1) != 1:
        raise ConfigError("unsupported schema_version")
    return cfg


def _require(cfg, key, typ=None):
    if key not in cfg:
        raise ConfigError(f"missing config key '{key}'")
    val = cfg[key]
    if typ is not None and not isinstance(val, typ):
        raise ConfigError(f"config key '{key}' has wrong type")
    return val


def _check_keys(cfg, allowed, where="config"):
    """Reject keys outside `allowed`, so that a misspelt key fails instead
    of silently taking its default."""
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ConfigError(f"unknown {where} keys {unknown}")


def _complex_coeffs(raw, key):
    if not isinstance(raw, list):
        raise ConfigError(f"'{key}' must be a list of [re, im] pairs")
    out = []
    for item in raw:
        if isinstance(item, (int, float)):
            out.append(complex(item))
        elif isinstance(item, list) and len(item) == 2:
            out.append(complex(item[0], item[1]))
        else:
            raise ConfigError(f"bad coefficient in '{key}': {item}")
    return np.array(out, dtype=complex)


def _params(cfg):
    h = _require(cfg, "h", (int, float))
    eps = cfg.get("epsilon", 0.0)
    try:
        return SemiclassicalParams(h=float(h), epsilon=float(eps))
    except ValueError as exc:
        raise ConfigError(str(exc))


def _action_model(cfg):
    am = ActionModel(_complex_coeffs(_require(cfg, "S12"), "S12"),
                     _complex_coeffs(_require(cfg, "S34"), "S34"),
                     description=cfg.get("description", ""))
    return am


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(calibration.embed(doc), fh, indent=1, sort_keys=True)


def cmd_spectrum(cfg, out, svg, check):
    from .schrodinger import (
        OperatorSpec,
        branch_structure_report,
        export_spectrum_csv,
        phase_space_count,
        resolved_spectrum,
    )
    spec = OperatorSpec(
        V=_require(cfg, "V", list), W=_require(cfg, "W", list),
        h=float(_require(cfg, "h", (int, float))),
        epsilon=float(cfg.get("epsilon", 0.0)),
        L=float(cfg.get("L", 2.5)), N=int(cfg.get("N", 800)))
    dN = int(cfg.get("dN", max(8, spec.N // 10)))
    s = resolved_spectrum(spec, dN=dN)
    rep = branch_structure_report(s, spec)
    export_spectrum_csv(out / "spectrum.csv", s)
    window = cfg.get("window", [-0.2, 0.2])
    rep["phase_space_heuristic"] = phase_space_count(spec, *window)
    rep["window"] = window
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
        w_lo = spec.epsilon * min(spec.w_at(np.linspace(-spec.L, spec.L, 400)))
        w_hi = spec.epsilon * max(spec.w_at(np.linspace(-spec.L, spec.L, 400)))
        if lam.imag.min() < w_lo - 1e-6 or lam.imag.max() > w_hi + 1e-6:
            raise CheckFailure("numerical-range containment violated")
        if spec.epsilon == 0 and np.max(np.abs(lam.imag)) > 1e-6:
            raise CheckFailure("selfadjoint limit has complex eigenvalues")
    return 0


class CheckFailure(Exception):
    pass


def _bs_roots_in_strip(p, am, branch, x_lo, x_hi):
    def phase(x):
        if branch is BSBranch.RightInt:
            s = am.S12(x + 0j)
        else:
            s = am.S34(x + 0j)
        return np.real(x * np.log(x) - x + np.pi * p.h / 4 + s)

    k_lo = int(np.floor(min(phase(x_lo), phase(x_hi)) / (2 * np.pi * p.h) - 0.5))
    k_hi = int(np.ceil(max(phase(x_lo), phase(x_hi)) / (2 * np.pi * p.h) - 0.5))
    ks = range(k_lo - 1, k_hi + 2)
    roots = []
    for k, seed in zip(ks, bs_seeds(branch, ks, p, am)):
        try:
            r = bohr_sommerfeld_solve(branch, k, p, am, seed=seed)
        except BranchspecError:
            continue
        if x_lo <= r.mu.real <= x_hi:
            roots.append(r)
    return roots


def cmd_model(cfg, out, svg, check):
    p = _params(cfg)
    am = _action_model(cfg)
    rect = cfg.get("rectangle", [-0.2, 0.2, -0.05, 0.05])
    C_body = float(cfg.get("C_body", calibration.CALIBRATION["body_C"]))
    sk, body = assemble(p, am, C_body=C_body)
    export_csv(out / "skeleton.csv", sk.s_prime)
    prov = GProvider(p, am)
    budget = int(cfg.get("cell_budget", calibration.CALIBRATION["cell_budget"]))
    zs = locate_zeros(prov.normalized_G, tuple(rect), p, cell_budget=budget)
    export_zeros_csv(out / "zeros.csv", zs)
    # BS families in the right strip and the bijection report
    x_lo = max(5 * p.h, rect[0])
    x_hi = rect[1]
    predicted = []
    if x_hi > x_lo:
        for branch in (BSBranch.LeftInt, BSBranch.RightInt):
            predicted.extend(r.mu for r in
                             _bs_roots_in_strip(p, am, branch, x_lo, x_hi))
    predicted = [mu for mu in predicted if not body.in_exceptional_box(mu)]
    in_strip = [z.location for z in zs.zeros
                if x_lo <= z.location.real <= x_hi
                and not body.in_exceptional_box(z.location)]
    floor = calibration.CALIBRATION["bs_position_floor"]

    def rate(mu):
        v = 10 * (p.h / np.log(1.0 / abs(mu))) \
            * np.exp(-np.pi * max(mu.real, 0.0) / p.h)
        return max(v, floor)

    rep = match_bijection(in_strip, predicted, rate, strict=False)
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
    }
    export_json(out / "skeleton.json", sk, body, extra=calibration.embed({}))
    _write_json(out / "model_report.json", doc)
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
        if not rep["ok"]:
            raise CheckFailure("bijection violated in the strip")
        w = p.width
        if w > 0:
            bound = 10 * (p.epsilon / p.h + p.h / p.epsilon) * abs(np.log(w))
            if census > bound:
                raise CheckFailure("exceptional box census exceeds bound")
    return 0


def cmd_skeleton(cfg, out, svg, check):
    p = _params(cfg)
    am = _action_model(cfg)
    C_body = float(cfg.get("C_body", calibration.CALIBRATION["body_C"]))
    sk, body = assemble(p, am, C_body=C_body)
    export_csv(out / "skeleton.csv", sk.s_prime)
    export_json(out / "skeleton.json", sk, body, extra=calibration.embed({}))
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
    p = _params(cfg)
    am = _action_model(cfg)
    rect = _require(cfg, "rectangle", list)
    prov = GProvider(p, am)
    contour = Contour.rectangle(*rect)
    n = winding_count(prov.normalized_G, contour, h=p.h)
    doc = {"rectangle": rect, "count": n,
           "contour_vertices": [[v.real, v.imag] for v in contour.vertices]}
    _write_json(out / "count.json", doc)
    print(n)
    if check:
        n2 = winding_count(prov.normalized_G, contour.expanded(p.h / 200), h=p.h)
        if n2 != n:
            raise CheckFailure("winding count unstable under perturbation")
    return 0


def cmd_bs(cfg, out, svg, check):
    p = _params(cfg)
    am = _action_model(cfg)
    branch = {"ext": BSBranch.Ext, "leftint": BSBranch.LeftInt,
              "rightint": BSBranch.RightInt}.get(
                  str(cfg.get("branch", "leftint")).lower())
    if branch is None:
        raise ConfigError("branch must be ext|leftint|rightint")
    k_min = int(_require(cfg, "k_min", int))
    k_max = int(_require(cfg, "k_max", int))
    ks = range(k_min, k_max + 1)
    rows = []
    failures = []
    for k, seed in zip(ks, bs_seeds(branch, ks, p, am)):
        try:
            r = bohr_sommerfeld_solve(branch, k, p, am, seed=seed)
            rows.append((k, r.mu.real, r.mu.imag, r.residual, r.converged))
        except BranchspecError as exc:
            rows.append((k, float("nan"), float("nan"), float("nan"), False))
            failures.append(f"k={k}: {type(exc).__name__}: {exc}")
    with open(out / "bs_roots.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "re", "im", "residual", "converged"])
        for row in rows:
            w.writerow([row[0], repr(float(row[1])), repr(float(row[2])),
                        repr(float(row[3])), int(row[4])])
    if check:
        if failures:
            raise CheckFailure(f"{len(failures)} Bohr-Sommerfeld roots did "
                               f"not converge, first {failures[0]}")
        if any(r[3] > calibration.CALIBRATION["bs_residual_tol"]
               for r in rows if r[4]):
            raise CheckFailure("Bohr-Sommerfeld residual above tolerance")
    return 0


def _parse_xpoly(raw, where):
    if not isinstance(raw, dict):
        raise ConfigError(f"'{where}' must be an object of monomials")
    out = {}
    for key, val in raw.items():
        try:
            parts = tuple(int(s) for s in key.split(","))
            if isinstance(val, list) and len(val) == 2:
                coeff = Fraction(int(val[0]), int(val[1]))
            else:
                coeff = Fraction(val)
        except (ValueError, TypeError, ZeroDivisionError):
            raise ConfigError(f"bad term '{key}': {val!r} in '{where}'")
        if len(parts) not in (2, 4):
            raise ConfigError(f"bad monomial key '{key}'")
        out[parts] = coeff
    return out


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
    _check_keys(cfg, {"schema_version", "x_poly", "correlate_with",
                      "golden_check"})
    if cfg.get("golden_check"):
        bad = _golden_check()
        _write_json(out / "golden_check.json", {"failures": bad})
        if bad:
            raise CheckFailure(f"golden identities failed: {bad}")
        return 0
    q = zpoly_from_x(_parse_xpoly(_require(cfg, "x_poly"), "x_poly"))
    doc = {
        "average": flow_average(q).to_json_dict(),
        "G0": weighted_average_G0(q).to_json_dict(),
    }
    if "correlate_with" in cfg:
        q2 = zpoly_from_x(_parse_xpoly(cfg["correlate_with"],
                                       "correlate_with"))
        doc["C"] = correlation_C(q, q2).to_json_dict()
    _write_json(out / "average.json", doc)
    if check:
        bad = _golden_check()
        if bad:
            raise CheckFailure(f"golden identities failed: {bad}")
    return 0


def cmd_classify(cfg, out, svg, check):
    from .flowavg import (
        ReducedFunction,
        classify_critical_points,
        grid_verify,
    )

    def frac(v):
        try:
            if isinstance(v, list) and len(v) == 2:
                return Fraction(int(v[0]), int(v[1]))
            return Fraction(str(v))
        except (ValueError, TypeError, ZeroDivisionError):
            raise ConfigError(f"not a rational: {v!r}")

    def grid(scan, key, default):
        r = scan.get(key, default)
        if not (isinstance(r, list) and len(r) == 3):
            raise ConfigError(f"scan '{key}' must be [lo, hi, n]")
        try:
            xs = np.linspace(r[0], r[1], int(r[2]))
        except (ValueError, TypeError):
            raise ConfigError(f"bad scan '{key}': {r!r}")
        return [(float(x), Fraction(str(round(float(x), 9)))) for x in xs]

    _check_keys(cfg, {"schema_version", "a", "b", "c", "scan"})
    if "scan" in cfg:
        scan = _require(cfg, "scan", dict)
        _check_keys(scan, {"b_range", "c_range", "d"}, "scan")
        cols = grid(scan, "c_range", [-4, 4, 200])
        d = frac(scan.get("d", 2.5))
        rows = []
        for b, bq in grid(scan, "b_range", [-4, 4, 200]):
            aq = (bq / 2 - d) / 2
            for c, cq in cols:
                try:
                    rep = classify_critical_points(ReducedFunction(aq, bq, cq))
                    rows.append((b, c, rep.region.value, rep.saddle_count))
                except BranchspecError:
                    rows.append((b, c, "boundary", -1))
        with open(out / "region_scan.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["b", "c", "region", "saddles"])
            for row in rows:
                w.writerow([repr(row[0]), repr(row[1]), row[2], row[3]])
        return 0

    rf = ReducedFunction(frac(_require(cfg, "a")), frac(_require(cfg, "b")),
                         frac(_require(cfg, "c")))
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
        grid_verify(rf, rep)
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


def main(argv=None):
    parser = argparse.ArgumentParser(prog="branchspec")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--out", default=".")
    parser.add_argument("--svg", action="store_true")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        cfg = _load_config(args.config)
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
