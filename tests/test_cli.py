"""CLI contract: config handling, formats, exit codes, determinism."""

import csv
import io
import json
import math
import os

import pytest

from zeemanzones.cli import ConfigError, build_params, load_config, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def test_default_config_valid():
    cfg = load_config(None)
    assert build_params(cfg).k == 2


def test_unknown_field_rejected(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{"wibble": 1}')
    with pytest.raises(ConfigError, match="wibble"):
        load_config(str(p))


def test_malformed_json_reports_line(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{"params": [,]}')
    with pytest.raises(ConfigError, match="line 1"):
        load_config(str(p))


def test_bad_block_shape(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{"params": [{"lambda": 1.0}]}')
    cfg = load_config(str(p))
    with pytest.raises(ConfigError, match="params"):
        build_params(cfg)


def test_usage_error_exit_code_2(capsys, tmp_path):
    p = tmp_path / "c.json"
    p.write_text("not json")
    code = main(["spectrum", "--config", str(p)])
    assert code == 2


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_spectrum_csv_golden(capsys):
    code, out = run_cli(capsys, "spectrum", "--max-p", "2", "--max-zone", "0")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "zone"
    assert [r[5] for r in rows[1:]] == ["1.0", "3.0", "5.0"]


def test_spectrum_json_format(capsys):
    code, out = run_cli(capsys, "spectrum", "--format", "json", "--max-p", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["eigenvalue"] == 1.0


def test_kernel_csv_round_trips(capsys):
    code, out = run_cli(capsys, "kernel", "--times", "0.5")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][-1] == "longterm_im"
    # repr() floats must parse back to the identical binary64
    v = float(rows[1][5])
    assert repr(v) == rows[1][5]


def test_kernel_df_singular_rows_exit_3(capsys):
    code, out = run_cli(capsys, "kernel", "--sigma", "df",
                        "--times", repr(math.pi))
    assert code == 3
    assert "ERROR" in out


def test_partition_closed_vs_trace(capsys):
    code, out = run_cli(capsys, "partition", "--times", "0.5,1.0")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    # [DERIVED] e^{-t} / (1 - e^{-2t}) column on the k=2 default
    for r in rows[1:]:
        t = float(r[0])
        assert float(r[1]) == pytest.approx(
            math.exp(-t) / (1 - math.exp(-2 * t)), abs=1e-12)
        assert float(r[5]) < 1e-9  # closed vs trace residual


def test_partition_quad_delta_column(capsys):
    code, out = run_cli(capsys, "partition", "--sigma", "df", "--zone", "2",
                        "--times", "0.05,0.5")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][5:] == ["residual", "quad_delta"]
    for r in rows[1:]:
        assert float(r[5]) < 1e-12 and 0.0 <= float(r[6]) < 1e-12


def test_partition_quadrature_error_row_exit_3(capsys):
    # 1e-8 past the caustic the exact rule and its check disagree
    code, out = run_cli(capsys, "partition", "--sigma", "df", "--zone", "2",
                        "--times", f"{math.pi + 1e-8!r},0.5")
    assert code == 3
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][1:] == ["ERROR"] * 6
    assert float(rows[2][5]) < 1e-12


def test_zeta_riemann_residuals(capsys):
    code, out = run_cli(capsys, "zeta")
    assert code == 0
    doc = json.loads(out)
    assert all(v["riemann_residual"] < 1e-10 for v in doc["values"])


def test_zeta_no_riemann_reference_for_k4(capsys, tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{"params": [{"lambda": 1.0, "k": 4}]}')
    code, out = run_cli(capsys, "zeta", "--config", str(p),
                        "--s-values", "2.5,3")
    assert code == 0
    for v in json.loads(out)["values"]:
        assert v["riemann_reference"] is None
        assert v["riemann_residual"] is None
        assert math.isfinite(v["zeta_zonal_re"])


def test_pathint_convergence_report(capsys):
    code, out = run_cli(capsys, "pathint", "--quad-degree", "16",
                        "--n-slices", "1,2")
    assert code == 0
    doc = json.loads(out)
    assert all(row["residual"] < 1e-6 for row in doc["convergence"])


def test_pathint_caustic_exit_3(capsys):
    code = main(["pathint", "--sigma", "df", "--total-time", repr(math.pi),
                 "--n-slices", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "singular time" in captured.err


def test_pathint_matrix_ceiling_exit_3(tmp_path, capsys, monkeypatch):
    from zeemanzones import pathint

    def no_grid(*args, **kwargs):
        raise AssertionError("grid built above the ceiling")

    monkeypatch.setattr(pathint, "slicing_grid", no_grid)
    cfg = tmp_path / "k4.json"
    cfg.write_text(json.dumps({
        "params": [{"lambda": 1.0, "k": 2}, {"lambda": 2.0, "k": 2}],
        "points": [[[0.3, -0.2, 0.1, 0.2], [0.1, 0.4, -0.3, 0.05]]],
        "quad_degree": 24}))
    code = main(["pathint", "--config", str(cfg), "--n-slices", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "ceiling" in captured.err


def test_verify_suite_pass_exit_0(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "laguerre")
    assert code == 0
    assert json.loads(out)["summary"]["FAIL"] == 0


# ---------------------------------------------------------------------------
# output files and determinism
# ---------------------------------------------------------------------------

def test_atomic_out_file(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    code = main(["spectrum", "--max-p", "1", "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert not [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]


def test_config_flag_override(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text('{"max_p": 9, "max_zone": 0}')
    _, out_cfg = run_cli(capsys, "spectrum", "--config", str(p))
    _, out_flag = run_cli(capsys, "spectrum", "--config", str(p),
                          "--max-p", "1")
    assert len(out_cfg.splitlines()) > len(out_flag.splitlines())


def test_verify_byte_identical_across_threads(tmp_path):
    outs = []
    for th in ("1", "4"):
        f = tmp_path / f"v{th}.json"
        code = main(["verify", "--suite", "spectrum", "--threads", th,
                     "--out", str(f)])
        assert code == 0
        outs.append(f.read_bytes())
    assert outs[0] == outs[1]
