"""CLI: configs, exit codes, output files, determinism."""

import ctypes
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from branchspec import (
    calibration,
    cli,
    flowavg,
    schrodinger,
    skeleton,
    zerocount,
)
from branchspec.cli import main
from branchspec.errors import Mismatch

ROOT = Path(__file__).resolve().parent.parent

MODEL_CFG = {
    "schema_version": 1,
    "h": 0.01,
    "epsilon": 0.03,
    "S12": [[0.01, 0.012], [0.3, 0.0]],
    "S34": [[0.02, 0.02], [-0.2, 0.0]],
    "rectangle": [0.06, 0.14, -0.04, 0.04],
}


def _write(tmp_path, name, cfg):
    p = tmp_path / name
    # JSON has no infinity; a number that overflows a double reads as one
    p.write_text(json.dumps(cfg).replace("Infinity", "1e400"))
    return str(p)


def test_malformed_config_exit_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["count", "--config", str(p), "--out", str(tmp_path)]) == 2
    # no partial files
    assert not (tmp_path / "count.json").exists()


def test_missing_key_exit_2(tmp_path):
    cfg = _write(tmp_path, "c.json", {"h": 0.01})
    assert main(["count", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_count_command(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", MODEL_CFG)
    rc = main(["count", "--config", cfg, "--out", str(tmp_path), "--check"])
    assert rc == 0
    n = int(capsys.readouterr().out.strip())
    doc = json.loads((tmp_path / "count.json").read_text())
    assert doc["count"] == n
    assert n > 0
    assert doc["calibration"]["body_C"] == 10.0
    assert doc["schema_version"] == 1


def test_skeleton_command_and_svg(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "schema_version": 1, "h": 0.005, "epsilon": 0.03,
        "S12": [[0.01, 0.01]], "S34": [[0.02, 0.015]]})
    rc = main(["skeleton", "--config", cfg, "--out", str(tmp_path),
               "--svg", "--check"])
    assert rc == 0
    assert (tmp_path / "skeleton.csv").exists()
    assert (tmp_path / "skeleton.json").exists()
    svg = (tmp_path / "skeleton.svg").read_text()
    assert svg.startswith("<svg") and svg.endswith("</svg>")


def test_bs_command(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "schema_version": 1, "h": 0.01,
        "S12": [0.0], "S34": [0.0],
        "branch": "leftint", "k_min": -12, "k_max": -10})
    rc = main(["bs", "--config", cfg, "--out", str(tmp_path), "--check"])
    assert rc == 0
    lines = (tmp_path / "bs_roots.csv").read_text().strip().splitlines()
    assert lines[0] == "k,re,im,residual,converged"
    assert len(lines) == 4


def test_model_command(tmp_path):
    cfg = _write(tmp_path, "c.json", MODEL_CFG)
    rc = main(["model", "--config", cfg, "--out", str(tmp_path), "--check"])
    assert rc == 0
    rep = json.loads((tmp_path / "model_report.json").read_text())
    assert rep["n_zeros"] > 0
    assert rep["bijection_ok"]
    assert all(rep["in_body"])
    assert (tmp_path / "zeros.csv").exists()
    assert (tmp_path / "skeleton.csv").exists()


def test_model_determinism(tmp_path):
    cfg = _write(tmp_path, "c.json", MODEL_CFG)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["model", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["model", "--config", cfg, "--out", str(out2)]) == 0
    for name in ["zeros.csv", "skeleton.csv"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_model_check_fails_on_an_empty_strip(tmp_path, capsys):
    # re1 = 0.045 <= 5h = 0.05: no Bohr-Sommerfeld root can be predicted
    # in the strip, so 0 roots matching 0 zeros proves nothing
    cfg = _write(tmp_path, "c.json",
                 dict(MODEL_CFG, rectangle=[-0.04, 0.045, -0.04, 0.04]))
    assert main(["model", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert main(["model", "--config", cfg, "--out", str(tmp_path),
                 "--check"]) == 4
    assert "max(5h, re0) <= Re mu <= re1" in capsys.readouterr().err


def test_average_golden_check(tmp_path):
    cfg = _write(tmp_path, "c.json", {"schema_version": 1, "golden_check": True})
    assert main(["average", "--config", cfg, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "golden_check.json").read_text())
    assert doc["failures"] == []


def test_average_command(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "schema_version": 1,
        "x_poly": {"4,0": 1, "0,4": 1},
        "correlate_with": {"4,0": 1, "0,4": 1}})
    assert main(["average", "--config", cfg, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "average.json").read_text())
    assert doc["average"] == {"0,2,0,2": [[3, 8], [0, 1]],
                              "2,0,2,0": [[3, 8], [0, 1]]}
    assert doc["C"] == {"0,3,0,3": [[-17, 16], [0, 1]],
                        "3,0,3,0": [[-17, 16], [0, 1]]}


def test_classify_command(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "schema_version": 1, "a": -1, "b": 1, "c": [1, 2]})
    assert main(["classify", "--config", cfg, "--out", str(tmp_path),
                 "--check"]) == 0
    doc = json.loads((tmp_path / "classify.json").read_text())
    assert doc["region"] == "A"
    assert doc["saddle_count"] == 2


def test_classify_scan(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "schema_version": 1,
        "scan": {"b_range": [-4, 4, 9], "c_range": [-4, 4, 9], "d": 2.5}})
    assert main(["classify", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "region_scan.csv").read_text().strip().splitlines()
    assert lines[0] == "b,c,region,saddles"
    assert len(lines) == 82
    regions = {ln.split(",")[2] for ln in lines[1:]}
    assert {"A", "B+", "C+"} <= regions


def test_average_rejects_misspelt_key(tmp_path, capsys):
    # "corelate_with" used to drop C silently and exit 0
    cfg = _write(tmp_path, "c.json", {
        "schema_version": 1, "x_poly": {"4,0": 1},
        "corelate_with": {"0,4": 1}})
    assert main(["average", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "corelate_with" in capsys.readouterr().err
    assert not (tmp_path / "average.json").exists()


def test_classify_scan_rejects_misspelt_key(tmp_path, capsys):
    # "brange" used to scan the default [-4, 4, 200] b range silently
    cfg = _write(tmp_path, "c.json", {
        "schema_version": 1,
        "scan": {"brange": [-1, 1, 3], "c_range": [-1, 1, 3], "d": 2.5}})
    assert main(["classify", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "brange" in capsys.readouterr().err
    assert not (tmp_path / "region_scan.csv").exists()


def test_spectrum_command_small(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "schema_version": 1, "h": 0.05, "epsilon": 0.0,
        "V": [0, 0, 1], "W": [0], "L": 3.0, "N": 80, "dN": 16})
    rc = main(["spectrum", "--config", cfg, "--out", str(tmp_path),
               "--svg", "--check"])
    assert rc == 0
    lines = (tmp_path / "spectrum.csv").read_text().strip().splitlines()
    assert lines[0] == "re,im,resolved"
    rep = json.loads((tmp_path / "report.json").read_text())
    assert "phase_space_heuristic" in rep
    assert rep["meta"]["symmetry"] == "even"
    assert (tmp_path / "spectrum.svg").exists()


def test_key_error_in_a_command_is_not_a_config_error(tmp_path, monkeypatch):
    # config keys are checked by _load_config (ConfigError, exit 2); a
    # KeyError raised inside a command is a bug and must not be reported
    # as one
    def broken(cfg, out, svg, check):
        raise KeyError("4+")

    monkeypatch.setitem(cli.COMMANDS, "count", broken)
    cfg = _write(tmp_path, "c.json", MODEL_CFG)
    with pytest.raises(KeyError):
        main(["count", "--config", cfg, "--out", str(tmp_path)])


def test_csv_cells_are_plain_floats(tmp_path):
    # repr of a numpy scalar is 'np.float64(x)' under numpy 2
    bs = _write(tmp_path, "bs.json", {
        "schema_version": 1, "h": 0.01, "epsilon": 0.03,
        "S12": [[0.01, 0.012], [0.3, 0.0]], "S34": [[0.02, 0.02], [-0.2, 0.0]],
        "branch": "rightint", "k_min": -9, "k_max": -7})
    spec = _write(tmp_path, "spec.json", {
        "schema_version": 1, "h": 0.05, "epsilon": 0.0,
        "V": [0, 0, 1], "W": [0], "L": 3.0, "N": 80, "dN": 16})
    assert main(["bs", "--config", bs, "--out", str(tmp_path)]) == 0
    assert main(["spectrum", "--config", spec, "--out", str(tmp_path)]) == 0
    for name in ("bs_roots.csv", "spectrum.csv"):
        rows = (tmp_path / name).read_text().strip().splitlines()[1:]
        assert rows
        for row in rows:
            [float(cell) for cell in row.split(",")]


@pytest.mark.parametrize("field,value", [
    ("b", "x"),
    ("scan", {"b_range": [-1, 1], "c_range": [-1, 1, 3], "d": 2.5}),
    ("scan", {"b_range": [-1, 1, 3], "c_range": [-1, 1, 3], "d": [1, 0]}),
])
def test_classify_rejects_malformed_values(tmp_path, capsys, field, value):
    # each used to escape as a TypeError/ValueError traceback (exit 1)
    cfg = {"schema_version": 1, "a": -1, "b": 1, "c": [1, 2]}
    if field == "scan":
        cfg = {"schema_version": 1}
    cfg[field] = value
    path = _write(tmp_path, "c.json", cfg)
    assert main(["classify", "--config", path, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error")


@pytest.mark.parametrize("x_poly", [{"a,b": 1}, {"4,0": "x"}, {"4,0": [1, 0]}])
def test_average_rejects_malformed_terms(tmp_path, capsys, x_poly):
    path = _write(tmp_path, "c.json", {"schema_version": 1, "x_poly": x_poly})
    assert main(["average", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "x_poly" in err
    assert not (tmp_path / "average.json").exists()


SPECTRUM_CFG = {"schema_version": 1, "h": 0.05, "epsilon": 0.0,
                "V": [0, 0, 1], "W": [0], "L": 3.0, "N": 80, "dN": 16}
MODEL_BLOCK = {k: v for k, v in MODEL_CFG.items() if k != "rectangle"}
BS_CFG = dict(MODEL_BLOCK, branch="leftint", k_min=-5, k_max=-4)
CLASSIFY_CFG = {"schema_version": 1, "a": -1, "b": 1, "c": [1, 2]}


@pytest.mark.parametrize("command,base,field,value", [
    # each ran at its default and exited 0
    ("bs", BS_CFG, "eps", 0.03),
    ("spectrum", SPECTRUM_CFG, "epslion", 0.5),
    ("bs", BS_CFG, "k_min", True),
    ("average", {"x_poly": {"4,0": 1}}, "golden_check", "no"),
    # each escaped as a TypeError or ValueError traceback (exit 1)
    ("count", MODEL_CFG, "rectangle", [0.06, 0.14, -0.04]),
    ("skeleton", MODEL_BLOCK, "C_body", "x"),
    ("model", MODEL_CFG, "cell_budget", "many"),
    ("spectrum", SPECTRUM_CFG, "window", 5),
    ("spectrum", SPECTRUM_CFG, "V", [0, 0, "a"]),
    ("spectrum", SPECTRUM_CFG, "dN", "x"),
    # out of range: OperatorSpec's own checks
    ("spectrum", SPECTRUM_CFG, "N", 8),
    ("spectrum", SPECTRUM_CFG, "h", -0.05),
    # more wrong values
    ("bs", BS_CFG, "branch", "middle"),
    ("bs", BS_CFG, "epsilon", -0.03),
    ("model", MODEL_CFG, "S12", [[0.01, "x"]]),
    ("skeleton", MODEL_BLOCK, "description", 3),
    ("spectrum", SPECTRUM_CFG, "W", []),
    ("spectrum", SPECTRUM_CFG, "schema_version", 2),
    ("spectrum", SPECTRUM_CFG, "L", float("nan")),   # a ValueError traceback
    # null is a wrong value, not an absent key
    ("average", {"x_poly": {"4,0": 1}}, "correlate_with", None),
    # 1e400 read as inf: an OverflowError traceback and a scipy error
    ("average", {"x_poly": {"4,0": 1}}, "x_poly", {"4,0": float("inf")}),
    ("spectrum", SPECTRUM_CFG, "L", float("inf")),
    # an empty k-range wrote a header-only CSV and exited 0
    ("bs", BS_CFG, "k_min", -3),
    # read as 1/2: int() of each entry of a [num, den] pair
    ("classify", CLASSIFY_CFG, "a", [1.5, 2]),
    ("classify", CLASSIFY_CFG, "a", [True, 2]),
    # exited 0: the -1,0 term was dropped, true read as coefficient 1
    ("average", {"x_poly": {"4,0": 1}}, "x_poly", {"-1,0": 3, "2,0": 1}),
    ("average", {"x_poly": {"4,0": 1}}, "x_poly", {"2,0": True}),
    # exited 0: a header-only region_scan.csv, and 2.7 truncated to 2 points
    ("classify", {}, "scan", {"b_range": [0, 1, 0]}),
    ("classify", {}, "scan", {"b_range": [0, 1, 2.7]}),
    ("classify", {}, "scan", {"c_range": [0, 1, True]}),
    # exited 0: int() read "1_0" as 10 and took a sign or blanks
    ("average", {"x_poly": {"4,0": 1}}, "x_poly", {"1_0,0": 1}),
    ("average", {"x_poly": {"4,0": 1}}, "x_poly", {" 1,0": 1}),
    ("average", {"x_poly": {"4,0": 1}}, "x_poly", {"+1,0": 1}),
    ("average", {"x_poly": {"4,0": 1}}, "x_poly", {"1,0 ": 1}),
    # exited 0: an empty rectangle counted 0 zeros, and an inverted one
    # left the Bohr-Sommerfeld strip empty, so the bijection passed
    ("count", MODEL_CFG, "rectangle", [0.06, 0.06, -0.04, 0.04]),
    ("model", MODEL_CFG, "rectangle", [0.14, 0.06, -0.04, 0.04]),
    # a ValueError traceback (exit 1), and with dN = 0 the filter matched
    # the spectrum against itself, so every eigenvalue read resolved
    ("spectrum", SPECTRUM_CFG, "dN", -70),
    ("spectrum", SPECTRUM_CFG, "dN", 0),
    # "dense path capped at N = 2000" as a traceback (exit 1)
    ("spectrum", SPECTRUM_CFG, "N", 2100),
    ("spectrum", SPECTRUM_CFG, "dN", 1922),
    # finite coefficients whose polynomial overflows on [-L, L]: eigvals'
    # "array must not contain infs or NaNs" as a traceback (exit 1)
    ("spectrum", SPECTRUM_CFG, "W", [1e308, 1e308]),
    ("spectrum", dict(SPECTRUM_CFG, epsilon=0.8), "W", [1e308, 1e308]),
    ("spectrum", SPECTRUM_CFG, "V", [0, 0, 1e308]),
    # exited 0 with a negative phase-space heuristic
    ("spectrum", SPECTRUM_CFG, "window", [0.2, -0.2]),
    # model --check exited 0 (Body.contains squares the radius), and at 0
    # failed its check as "a zero escaped the body" (exit 4)
    ("model", MODEL_CFG, "C_body", -5.0),
    ("model", MODEL_CFG, "C_body", 0),
    # exited 3, "numerical failure: cell budget exceeded"
    ("model", MODEL_CFG, "cell_budget", 0),
    ("model", MODEL_CFG, "cell_budget", -3),
])
def test_malformed_config_names_its_key(tmp_path, capsys, command, base,
                                        field, value):
    path = _write(tmp_path, "c.json", dict(base, **{field: value}))
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and field in err
    assert not any(out.iterdir())


def test_xpoly_reads_coefficients_as_written():
    # Fraction(0.1) is the double nearest 1/10, not 1/10
    assert cli._xpoly({"2,0": 0.1}) == {(2, 0): Fraction(1, 10)}
    assert cli._xpoly({"2,0": 0.1})[2, 0] == cli._rational(0.1)
    assert cli._xpoly({"1,2,0,3": "1/3", "0,0": [2, 6], "4,0": -5}) == {
        (1, 2, 0, 3): Fraction(1, 3), (0, 0): Fraction(1, 3),
        (4, 0): Fraction(-5)}


def test_config_defaults_are_filled_in_at_load(tmp_path, monkeypatch):
    monkeypatch.setitem(calibration.CALIBRATION, "body_C", 7.0)
    path = _write(tmp_path, "c.json", {
        "h": 0.01, "S12": [0.1, [0, 1]], "S34": [1]})
    cfg = cli._load_config(path, "model")
    assert set(cfg) == set(cli.SCHEMAS["model"])
    assert cfg["epsilon"] == 0.0 and cfg["description"] == ""
    assert cfg["C_body"] == 7.0
    assert cfg["rectangle"] == [-0.2, 0.2, -0.05, 0.05]
    assert cfg["S12"] == [0.1, 1j] and cfg["S34"] == [1]

    path = _write(tmp_path, "s.json", {"h": 0.1, "V": [0, 0, 1], "W": [0],
                                       "N": 300})
    cfg = cli._load_config(path, "spectrum")
    assert (cfg["L"], cfg["dN"], cfg["window"]) == (2.5, 30, [-0.2, 0.2])

    path = _write(tmp_path, "a.json", {"golden_check": True})
    assert cli._load_config(path, "average")["x_poly"] is None
    path = _write(tmp_path, "k.json", {"scan": {}})
    scan = cli._load_config(path, "classify")["scan"]
    assert scan["d"] == Fraction(5, 2) and len(scan["b_range"]) == 200


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", ROOT / "benchmark" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _shipped_configs():
    examples = {"fig": "spectrum", "model": "model",
                "average_golden": "average",
                "classify_region_scan": "classify"}
    for path in sorted((ROOT / "examples_cli").glob("*.json")):
        command = examples["fig" if path.stem.startswith("fig") else path.stem]
        yield command, json.loads(path.read_text())
    yield from _bench_module("setup_child").TINY_JOBS
    jobs = _bench_module("jobs")
    for workload in jobs.WORKLOADS:
        for seed in (0, 1):
            for job in jobs.make_jobs(workload, seed):
                yield job.command, job.config


def test_shipped_configs_validate(tmp_path):
    # the examples, the benchmark's set-up jobs (its set-up fails if one
    # exits nonzero) and the jobs of every workload at two seeds
    commands = []
    for command, cfg in _shipped_configs():
        path = _write(tmp_path, "c.json", cfg)
        assert set(cli._load_config(path, command)) == \
            set(cli.SCHEMAS[command])
        commands.append(command)
    assert set(commands) == set(cli.COMMANDS) and len(commands) > 300


BS_ZERO = {"schema_version": 1, "h": 0.01, "S12": [0.0], "S34": [0.0],
           "branch": "leftint"}


def test_bs_check_names_the_first_failed_k(tmp_path, capsys):
    # the zero-action LeftInt phase stays below 2 pi h (k + 1/2) for
    # k >= -1 on the seed grid, so k = -1 has no real seed
    cfg = _write(tmp_path, "c.json", dict(BS_ZERO, k_min=-3, k_max=-1))
    assert main(["bs", "--config", cfg, "--out", str(tmp_path),
                 "--check"]) == 4
    err = capsys.readouterr().err
    assert "k=-1" in err and "no real seed" in err
    rows = (tmp_path / "bs_roots.csv").read_text().strip().splitlines()
    assert rows[-1] == "-1,nan,nan,nan,0"
    assert len(rows) == 4


def _shift_eigenvalues(monkeypatch):
    """Move every eigenvalue up by i."""
    solve = schrodinger.resolved_spectrum

    def shifted(spec, dN):
        s = solve(spec, dN)
        s.eigenvalues = s.eigenvalues + 1j
        return s

    monkeypatch.setattr(schrodinger, "resolved_spectrum", shifted)


def _no_bijection(monkeypatch):
    match = cli.match_bijection
    monkeypatch.setattr(cli, "match_bijection",
                        lambda *args: dict(match(*args), ok=False))


def _many_zeros_in_the_box(monkeypatch):
    """Every zero, repeated 100 times, counts in the exceptional box."""
    locate = cli.locate_zeros

    def repeated(*args, **kwargs):
        return zerocount.ZeroSet(locate(*args, **kwargs).zeros * 100)

    monkeypatch.setattr(cli, "locate_zeros", repeated)
    monkeypatch.setattr(skeleton.Body, "in_exceptional_box",
                        lambda self, mu: True)


def _unstable_count(monkeypatch):
    counts = iter([3, 4])
    monkeypatch.setattr(cli, "winding_count", lambda *args, **kw: next(counts))


def _grid_mismatch(monkeypatch):
    def mismatch(rf, report):
        raise Mismatch("unreported critical point")

    monkeypatch.setattr(flowavg, "grid_verify", mismatch)


MODEL_SMALL = dict(MODEL_CFG, rectangle=[0.06, 0.1, -0.04, 0.04])
# command, config, what forces the failure, the failure's message
CHECK_FAILURES = {
    "containment": ("spectrum", SPECTRUM_CFG, _shift_eigenvalues,
                    "numerical-range containment violated"),
    "body": ("model", MODEL_SMALL,
             lambda mp: mp.setattr(skeleton.Body, "contains",
                                   lambda self, mu: False),
             "a zero escaped the body"),
    "bijection": ("model", MODEL_SMALL, _no_bijection,
                  "bijection violated in the strip"),
    "box_census": ("model", MODEL_SMALL, _many_zeros_in_the_box,
                   "exceptional box census exceeds bound"),
    "curve_residual": ("skeleton", MODEL_BLOCK,
                       lambda mp: mp.setattr(cli, "curve_residual",
                                             lambda pair, mu, p, am:
                                             np.ones(mu.shape)),
                       "curve residual exceeded on left_1,4-"),
    "count": ("count", MODEL_CFG, _unstable_count,
              "winding count unstable under perturbation"),
    "goldens": ("average", {"golden_check": True},
                lambda mp: mp.setattr(cli, "_golden_check",
                                      lambda: ["C(q44,q44)"]),
                "golden identities failed: ['C(q44,q44)']"),
    "classify": ("classify", CLASSIFY_CFG, _grid_mismatch,
                 "grid verification failed: unreported critical point"),
}


@pytest.mark.parametrize("name", sorted(CHECK_FAILURES))
def test_every_check_failure_exits_4(tmp_path, capsys, monkeypatch, name):
    command, cfg, force, message = CHECK_FAILURES[name]
    path = _write(tmp_path, "c.json", cfg)
    force(monkeypatch)
    assert main([command, "--config", path, "--out", str(tmp_path),
                 "--check"]) == 4
    assert capsys.readouterr().err == f"check failed: {message}\n"


def _counting(monkeypatch, module, name):
    fn = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_bs_solves_go_through_the_cli_name_once_per_family(tmp_path,
                                                          monkeypatch):
    # the benchmark tracer counts BS solves at cli.bohr_sommerfeld_solve
    from branchspec.quantization import BSBranch, bs_seeds

    solves = _counting(monkeypatch, cli, "bohr_sommerfeld_solve")
    seeds = _counting(monkeypatch, cli, "bs_seeds")

    def solved_with_their_seeds():
        # one family call: every k of the range in order, with its seed
        (s_args, _), = seeds
        (args, kwargs), = solves
        assert not kwargs
        assert list(args[1]) == list(s_args[1])
        assert args[4].tobytes() == bs_seeds(*s_args).tobytes()
        return list(args[1])

    cfg = _write(tmp_path, "c.json", dict(BS_ZERO, k_min=-14, k_max=-1))
    assert main(["bs", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert solved_with_their_seeds() == list(range(-14, 0))

    solves.clear()
    seeds.clear()
    p, am = cli._model(cli._load_config(_write(tmp_path, "m.json", MODEL_CFG),
                                        "model"))
    roots, _ = cli._bs_roots_in_strip(p, am, BSBranch.RightInt, 0.05, 0.2)
    tried = solved_with_their_seeds()
    assert tried == list(range(tried[0], tried[-1] + 1))
    assert 0 < len(roots) <= len(tried)


def test_bs_job_phase_call_budget(tmp_path, monkeypatch):
    # a curves-benchmark-sized job: h = 3e-4, 31 k on 0.01 <= Re mu <= 0.025;
    # one seed grid and one lockstep bisection, then three evaluations per
    # Newton round of the family's lanes: 65 calls (the per-k seed
    # bisections made about 2,000, and per-k Newton after them 458)
    from branchspec import quantization

    calls = _counting(monkeypatch, quantization, "_bs_phase")
    cfg = dict(BS_ZERO, h=3e-4, epsilon=0.03, branch="rightint",
               S12=[[0.01, 0.02], [0.1, 0.0]], S34=[[-0.02, 0.015]],
               k_min=-55, k_max=-25)
    path = _write(tmp_path, "c.json", cfg)
    assert main(["bs", "--config", path, "--out", str(tmp_path),
                 "--check"]) == 0
    assert len(calls) < 100


# 20 rounds of four live 400 x 400 grids (313 pages each), as a grid
# search makes them; prints the minor page faults of the rounds
_GRID_ROUNDS = """
import resource, sys
import numpy as np
from branchspec import cli
if sys.argv[1] == "on":
    cli._reuse_freed_arrays()
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    grids = [np.ones((400, 400)) for _ in range(4)]
    del grids
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"),
                    reason="this libc has no mallopt")
def test_freed_grids_are_reused():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    faults = {mode: int(subprocess.run(
        [sys.executable, "-c", _GRID_ROUNDS, mode], env=env, check=True,
        capture_output=True, text=True).stdout) for mode in ("off", "on")}
    # glibc's defaults return the freed grids to the system, so most
    # rounds fault their pages in again; with the setting only the first
    assert faults["off"] > 10 * 4 * 313
    assert faults["on"] < 2 * 4 * 313
