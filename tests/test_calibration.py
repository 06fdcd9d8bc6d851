"""Every module constant and default that has a calibrated value reads it
from calibration.CALIBRATION, and every key of CALIBRATION is read by the
code, so the block embedded in each output is what actually ran."""

import ast
import inspect
import json
from pathlib import Path

import pytest

from branchspec import (
    calibration,
    cli,
    flowavg,
    quantization,
    schrodinger,
    skeleton,
    specfun,
    transition,
    zerocount,
)
from branchspec.calibration import CALIBRATION


def _default(fn, name):
    return inspect.signature(fn).parameters[name].default


def _names(code):
    """Names read by a code object and the comprehensions nested in it."""
    names = set(code.co_names)
    for const in code.co_consts:
        if inspect.iscode(const):
            names |= _names(const)
    return names


def _global_read(fn, name):
    """The module global `name` that fn reads (fails if fn does not)."""
    assert name in _names(fn.__code__)
    return fn.__globals__[name]


SOURCES = {
    "flowavg.REGION_LINE_TOL":
        (lambda: flowavg.REGION_LINE_TOL, "region_line_tol"),
    "quantization.SECTOR_C": (lambda: quantization.SECTOR_C, "sector_C"),
    "quantization.SMALL_C1": (lambda: quantization.SMALL_C1, "small_C1"),
    "quantization.BS_RESIDUAL_TOL":
        (lambda: quantization.BS_RESIDUAL_TOL, "bs_residual_tol"),
    "specfun.CONIC_MARGIN":
        (lambda: specfun.CONIC_MARGIN, "stirling_conic_margin"),
    "transition.SECTOR_MARGIN":
        (lambda: transition.SECTOR_MARGIN, "tableau_sector_margin"),
    "zerocount.PHASE_CAP":
        (lambda: zerocount.PHASE_CAP, "winding_phase_cap_rad"),
    "zerocount.NEWTON_TOL":
        (lambda: zerocount.NEWTON_TOL, "newton_residual_tol"),
    "zerocount.SEED_SPLIT_C":
        (lambda: zerocount.SEED_SPLIT_C, "seed_split_C"),
    "zerocount.STRIP_GRID_C":
        (lambda: zerocount.STRIP_GRID_C, "strip_grid_C"),
    "case1_admissible(sector)":
        (lambda: _global_read(quantization.case1_admissible, "SECTOR_C"),
         "sector_C"),
    "_model_zeros(split)":
        (lambda: _global_read(cli._model_zeros, "SEED_SPLIT_C"),
         "seed_split_C"),
    "_model_zeros(strip grid)":
        (lambda: _global_read(cli._model_zeros, "STRIP_GRID_C"),
         "strip_grid_C"),
    "locate_zeros(cell_budget)":
        (lambda: _default(zerocount.locate_zeros, "cell_budget"),
         "cell_budget"),
    "locate_zeros(residual_tol)":
        (lambda: _global_read(zerocount.locate_zeros, "NEWTON_TOL"),
         "newton_residual_tol"),
    "_newton_polish(tol)":
        (lambda: _global_read(zerocount._newton_polish, "NEWTON_TOL"),
         "newton_residual_tol"),
    "assemble(C_body)":
        (lambda: _default(skeleton.assemble, "C_body"), "body_C"),
    "Body.box_constant":
        (lambda: _global_read(skeleton.Body.exceptional_box, "BOX_C"),
         "box_C"),
    "spurious_filter(tol_scale)":
        (lambda: _default(schrodinger.spurious_filter, "tol_scale"),
         "spurious_match_tol"),
}


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_constant_is_read_from_calibration(name):
    get, key = SOURCES[name]
    # the same object, not an equal copy: a literal would be a shadow
    assert get() is CALIBRATION[key]


def _keys_read(path):
    """The keys k of every CALIBRATION["k"] or x.CALIBRATION["k"] read."""
    keys = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Subscript) \
                and isinstance(node.slice, ast.Constant) \
                and getattr(node.value, "id",
                            getattr(node.value, "attr", None)) == "CALIBRATION":
            keys.add(node.slice.value)
    return keys


def test_every_calibration_key_is_read():
    package = Path(cli.__file__).parent
    read = set()
    for path in package.glob("*.py"):
        if path.name != "calibration.py":
            read |= _keys_read(path)
    assert sorted(set(CALIBRATION) - read) == []


def test_model_cell_budget_default(tmp_path, monkeypatch):
    seen = []

    def fake_locate(f, rect, p, seeds, cell_budget):
        seen.append(cell_budget)
        return zerocount.ZeroSet(zeros=[])

    monkeypatch.setattr(cli, "locate_zeros", fake_locate)
    monkeypatch.setitem(CALIBRATION, "cell_budget", 1234)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "h": 0.01, "epsilon": 0.03, "S12": [[0.01, 0.012], [0.3, 0.0]],
        "S34": [[0.02, 0.02], [-0.2, 0.0]],
        "rectangle": [0.06, 0.07, -0.02, 0.02]}))
    assert cli.main(["model", "--config", str(cfg), "--out",
                     str(tmp_path)]) == 0
    assert seen == [1234]


def test_calibration_block_holds_the_overrides_that_ran(tmp_path,
                                                       monkeypatch):
    monkeypatch.setattr(cli, "locate_zeros",
                        lambda f, rect, p, seeds, cell_budget:
                        zerocount.ZeroSet(zeros=[]))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "h": 0.01, "epsilon": 0.03, "S12": [[0.01, 0.012], [0.3, 0.0]],
        "S34": [[0.02, 0.02], [-0.2, 0.0]],
        "rectangle": [0.06, 0.07, -0.02, 0.02],
        "C_body": 5.0, "cell_budget": 1234}))
    assert cli.main(["model", "--config", str(cfg), "--out",
                     str(tmp_path)]) == 0
    sk = json.loads((tmp_path / "skeleton.json").read_text())
    report = json.loads((tmp_path / "model_report.json").read_text())
    assert sk["body_constant"] == sk["calibration"]["body_C"] == 5.0
    assert report["calibration"] == dict(CALIBRATION, body_C=5.0,
                                         cell_budget=1234)


def test_skeleton_json_reads_schema_version(tmp_path, monkeypatch):
    monkeypatch.setattr(calibration, "SCHEMA_VERSION", 7)
    p = quantization.SemiclassicalParams(h=0.01, epsilon=0.03)
    am = quantization.ActionModel([0.01 + 0.012j], [0.02 + 0.02j])
    sk, body = skeleton.assemble(p, am)
    doc = skeleton.export_json(tmp_path / "sk.json", sk, body)
    assert doc["schema_version"] == 7
