"""CLI: configs, exit codes, output files, determinism."""

import json

import pytest

from branchspec.cli import main

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
    p.write_text(json.dumps(cfg))
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
    assert (tmp_path / "spectrum.svg").exists()


def test_key_error_in_a_command_is_not_a_config_error(tmp_path, monkeypatch):
    # config keys go through _require (ConfigError, exit 2); a KeyError
    # raised inside a command is a bug and must not be reported as one
    from branchspec import cli

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
