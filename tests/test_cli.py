"""CLI contract: config handling, formats, exit codes, determinism."""

import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zeemanzones
from zeemanzones import kernels, pathint, spectrum, thermo, verify, zeta
from zeemanzones.cli import (COMMANDS, DEFAULTS, ConfigError, _check_field,
                             build_params, build_parser, load_config, main)
from zeemanzones.kernels import SingularTimeError, zonal_kernel_closed
from zeemanzones.params import H_Z
from zeemanzones.quadrature import MAX_DEGREE, QuadratureNonConvergence
from zeemanzones.verify import report_json, run_suite

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def test_default_config_valid():
    # every default passes its own field's check, so no run is refused
    # for a field it left at its default
    for name, default in DEFAULTS.items():
        _check_field(name, default, default)
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


def test_unread_flag_is_usage_error(capsys):
    # each subcommand accepts only the flags it reads: partition runs no
    # thread pool, so --threads is an argparse usage error
    with pytest.raises(SystemExit) as exc:
        main(["partition", "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--quad-degree", "0"],
    ["verify", "--quad-degree", str(MAX_DEGREE + 1)],
    ["verify", "--quad-degree", "8"],
], ids=["verify-deg0", "verify-deg-max", "verify-deg8"])
def test_verify_quad_degree_usage_error(capsys, monkeypatch, argv):
    # quad_degree is the pathint grid degree only: verify's checks declare
    # their own degrees, so verify takes no --quad-degree at all
    monkeypatch.setattr(verify, "run_suite", _refuse)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --quad-degree" in capsys.readouterr().err


@pytest.mark.parametrize("threads, preset, expected", [
    (1, None, None),
    (2, None, str(max(1, len(os.sched_getaffinity(0)) // 2))),
    (2, "3", "3"),
], ids=["one-worker", "two-workers", "user-set"])
def test_verify_workers_share_blas_threads(capsys, monkeypatch, threads,
                                           preset, expected):
    # each verify worker's OpenBLAS pool gets its share of the cores
    # (numpy, and so OpenBLAS, loads after this in a fresh process); one
    # worker keeps the library's default, and a value the user set wins
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    monkeypatch.setattr(os, "environ", env)
    monkeypatch.setattr(verify, "run_suite", lambda suite, threads: [])
    code, _ = run_cli(capsys, "verify", "--threads", str(threads))
    assert code == 0
    assert env.get("OPENBLAS_NUM_THREADS") == expected


_FLAGS = {
    "spectrum": {"--format", "--max-p", "--max-zone"},
    "kernel": {"--sigma", "--zone", "--times"},
    "partition": {"--sigma", "--zone", "--times"},
    "zeta": {"--zone", "--s-values"},
    "pathint": {"--sigma", "--zone", "--total-time", "--n-slices",
                "--quad-degree"},
    "verify": {"--suite", "--threads", "--timings"},
}


@pytest.mark.parametrize("command", sorted(_FLAGS))
def test_flags_are_the_commands_table(command):
    # a subcommand accepts exactly the fields of its COMMANDS entry, as
    # flags, plus --config and --out
    sub = build_parser()._subparsers._group_actions[0].choices[command]
    flags = {o for a in sub._actions for o in a.option_strings}
    table = {"--" + name.replace("_", "-") for name in COMMANDS[command][2]}
    assert table == _FLAGS[command]
    assert flags == table | {"--config", "--out", "-h", "--help"}


@pytest.mark.parametrize("doc, command, field", [
    ({"zone": [1]}, "kernel", "zone"),
    ({"zone": [1]}, "pathint", "zone"),
    ({"times": 5}, "kernel", "times"),
    ({"points": [[1, 2]]}, "kernel", "points"),
    ({"points": [[1, 2]]}, "pathint", "points"),
    ({"n_slices": 3}, "pathint", "n_slices"),
    ({"format": "xml"}, "spectrum", "format"),
    ({"points": []}, "pathint", "points"),
    ({"zone": -1}, "spectrum", "zone"),
    ({"times": []}, "spectrum", "times"),
    ({"params": []}, "kernel", "params"),
    ({"variant": "Hx"}, "partition", "variant"),
    ({"params": [{"lambda": 1.0, "k": 2.5}]}, "kernel", "params[0].k"),
    ({"c_f": math.inf}, "spectrum", "c_f"),
    ({"points": [[[0.3, math.nan], [0.1, 0.4]]]}, "kernel",
     "points[0][0][1]"),
], ids=["zone-kernel", "zone-pathint", "times-kernel", "points-kernel",
        "points-pathint", "n_slices-pathint", "format-choice",
        "points-empty", "zone-unread", "times-unread-empty", "params-empty",
        "variant-choice", "params-k-type", "c_f-infinity", "points-nan"])
def test_wrong_json_type_exit_2(capsys, tmp_path, doc, command, field):
    # a config value of the wrong JSON type, or one its field does not
    # allow, is a config error, not a verification FAIL (exit 1), a
    # traceback or output in another format
    p = tmp_path / "c.json"
    p.write_text(json.dumps(doc))
    code = main([command, "--config", str(p)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"error: config field '{field}" in captured.err


def _refuse(*args, **kwargs):
    raise AssertionError("computation started on an out-of-range config")


@pytest.mark.parametrize("argv, field", [
    (["pathint", "--quad-degree", "0"], "quad_degree"),
    (["pathint", "--quad-degree", str(MAX_DEGREE + 1)], "quad_degree"),
    (["verify", "--threads", "0"], "threads"),
    (["verify", "--threads", "-2"], "threads"),
    (["spectrum", "--max-p", "-1"], "max_p"),
    (["spectrum", "--max-zone", "-1"], "max_zone"),
    (["kernel", "--zone", "-1"], "zone"),
    (["partition", "--zone", "-1"], "zone"),
    (["zeta", "--zone", "-1"], "zone"),
    (["pathint", "--zone", "-1"], "zone"),
    (["kernel", "--times", ","], "times"),
    (["partition", "--times", ","], "times"),
    (["zeta", "--s-values", ","], "s_values"),
    (["pathint", "--n-slices", ","], "n_slices"),
    (["kernel", "--sigma", "df", "--times", "inf"], "times[0]"),
    (["partition", "--sigma", "df", "--times", "inf"], "times[0]"),
    (["pathint", "--sigma", "df", "--total-time", "inf"], "total_time"),
    (["kernel", "--sigma", "wk", "--times", "0.2,inf"], "times[1]"),
    (["pathint", "--sigma", "wk", "--total-time", "inf"], "total_time"),
    (["zeta", "--s-values", "inf"], "s_values[0]"),
    (["partition", "--sigma", "wk", "--times", "inf"], "times[0]"),
], ids=["pathint-deg0", "pathint-deg-max", "verify-threads0",
        "verify-threads-neg", "spectrum-max-p", "spectrum-max-zone",
        "kernel-zone", "partition-zone", "zeta-zone", "pathint-zone",
        "kernel-times-empty", "partition-times-empty", "zeta-s-empty",
        "pathint-n-empty", "kernel-df-inf", "partition-df-inf",
        "pathint-df-inf", "kernel-wk-inf", "pathint-wk-inf", "zeta-s-inf",
        "partition-wk-inf"])
def test_out_of_range_exit_2(capsys, monkeypatch, argv, field):
    # a value outside its range is a config error, caught before any
    # computation (not a numeric ERROR, and not silently replaced); so is
    # a non-finite number, which gave NaN rows, ERROR rows or a traceback
    monkeypatch.setattr(pathint, "cylinder_value", _refuse)
    monkeypatch.setattr(verify, "run_suite", _refuse)
    monkeypatch.setattr(spectrum, "spectrum_table", _refuse)
    monkeypatch.setattr(kernels, "zonal_kernel_closed", _refuse)
    monkeypatch.setattr(thermo, "partition", _refuse)
    monkeypatch.setattr(zeta, "zeta_zonal", _refuse)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"error: config field '{field}'" in captured.err


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


@pytest.mark.parametrize("module, name, exc, argv", [
    (zeta, "zeta_zonal", QuadratureNonConvergence("no"), ["zeta"]),
    (spectrum, "spectrum_table", QuadratureNonConvergence("no"),
     ["spectrum"]),
    (zeta, "zeta_zonal", SingularTimeError("no"), ["zeta"]),
], ids=["zeta-quadrature", "spectrum-quadrature", "zeta-singular"])
def test_numeric_error_exit_3(capsys, monkeypatch, module, name, exc, argv):
    # one policy in main(): a numeric error from any subcommand exits 3,
    # even one that is also a ValueError
    monkeypatch.setattr(module, name, _raise(exc))
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: no\n"


# ---------------------------------------------------------------------------
# start-up: each subcommand loads only the layers it runs
# ---------------------------------------------------------------------------

_LOADED = """
import contextlib, io, json, sys
from zeemanzones import cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[1:])
else:
    cli.build_parser()
    code = 0
print(json.dumps({"code": code,
                  "modules": sorted(m for m in sys.modules
                                    if m.split(".")[0] == "zeemanzones"),
                  "futures": "concurrent.futures" in sys.modules,
                  "numpy": "numpy" in sys.modules,
                  "numpy_random": "numpy.random" in sys.modules}))
"""
_BASE = {"cli", "params"}
_TRACE = {"thermo", "zeta", "kernels", "quadrature", "special"}
_ALL = {p.stem for p in (SRC / "zeemanzones").glob("*.py")} - {"__init__"}


@pytest.mark.parametrize("argv, code, adds, numpy, numpy_random", [
    ([], 0, set(), False, False),
    (["spectrum", "--max-p", "1"], 0, {"spectrum", "exact"}, False, False),
    (["zeta", "--s-values", "3"], 0, {"zeta"}, False, False),
    (["spectrum", "--max-p", "-1"], 2, set(), False, False),
    (["kernel", "--times", "0.5"], 0, {"kernels", "quadrature", "special"},
     True, False),
    (["pathint", "--quad-degree", "8", "--n-slices", "1"], 0,
     {"pathint", "kernels", "quadrature", "special"}, True, False),
    (["partition", "--times", "0.5"], 0, _TRACE, True, False),
    (["verify", "--suite", "laguerre"], 0, _ALL, True, False),
    (["verify", "--suite", "pathint"], 0, _ALL, True, False),
    (["verify", "--suite", "global_kernels"], 0, _ALL, True, True),
], ids=["parser", "spectrum", "zeta", "config-error", "kernel", "pathint",
        "partition", "verify", "verify-pathint", "verify-global_kernels"])
def test_subcommand_imports(argv, code, adds, numpy, numpy_random):
    # a fresh interpreter, as every CLI job starts; the parser, `spectrum`
    # and `zeta` make no arrays, so they load no numpy.  `numpy.random`
    # costs about 6 MB resident; only `_chk_pde` (global_kernels) loads it
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv], env=env,
                          capture_output=True, text=True, check=True)
    doc = json.loads(proc.stdout)
    assert doc["code"] == code
    assert doc["modules"] == sorted(
        {"zeemanzones"} | {f"zeemanzones.{m}" for m in _BASE | adds})
    # only verify's thread pool needs concurrent.futures
    assert doc["futures"] == (argv[:1] == ["verify"])
    assert doc["numpy"] == numpy
    assert doc["numpy_random"] == numpy_random


def test_package_names_resolve():
    for name in zeemanzones.__all__:
        assert getattr(zeemanzones, name) is not None, name
    assert zeemanzones.zonal_kernel_closed is kernels.zonal_kernel_closed
    with pytest.raises(AttributeError):
        zeemanzones.no_such_name


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
    assert doc["rows"][0]["eigenvalue"] == 1.0
    assert doc["ran"]["max_p"] == 1 and doc["ran"]["format"] == "json"


def test_spectrum_table_csv_golden(capsys):
    code, out = run_cli(capsys, "spectrum", "--max-p", "2", "--max-zone", "1")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["zone", "p", "upsilon", "l", "m", "eigenvalue",
                       "multiplicity"]
    # [DERIVED] zone 0 ladder 1, 3, 5, each simple
    assert rows[1] == ["0", "0", "0", "0", "0", "1.0", "1"]
    assert rows[2] == ["0", "1", "0", "1", "1", "3.0", "1"]
    assert rows[3] == ["0", "2", "0", "2", "2", "5.0", "1"]


def test_spectrum_table_json_round_trip(capsys, tmp_path, p4):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"params": [{"lambda": 1.0, "k": 2}, '
                   '{"lambda": 2.0, "k": 2}]}')
    code, out = run_cli(capsys, "spectrum", "--config", str(cfg),
                        "--format", "json", "--max-p", "3", "--max-zone", "2")
    assert code == 0
    entries = spectrum.spectrum_table(p4, H_Z,
                                      max_p=3, max_zone=2)
    doc = json.loads(out)
    assert doc["rows"] == [vars(e) for e in entries]
    assert doc["rows"][0]["zone"] == 0


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


def _kernel_config(tmp_path, blocks, points):
    p = tmp_path / "kernel.json"
    p.write_text(json.dumps({
        "params": [{"lambda": lam, "k": k} for lam, k in blocks],
        "points": [[list(x), list(y)] for x, y in points]}))
    return str(p)


def _random_pairs(n, k, seed=5):
    pts = np.random.default_rng(seed).normal(0.0, 0.4, size=(n, 2, k))
    return [(p[0].tolist(), p[1].tolist()) for p in pts]


def test_kernel_grid_matches_per_pair_calls(capsys, tmp_path):
    blocks = [(1.0, 2), (2.0, 2)]
    params = build_params({"params": [{"lambda": lam, "k": k}
                                      for lam, k in blocks]})
    pairs = _random_pairs(17, 4)
    cfg = _kernel_config(tmp_path, blocks, pairs)
    times = (0.05, 0.5, 2.0)
    for sigma in ("wk", "df"):
        for zone in (0, 1):
            code, out = run_cli(capsys, "kernel", "--config", cfg,
                                "--sigma", sigma, "--zone", str(zone),
                                "--times", ",".join(map(repr, times)))
            assert code == 0
            rows = list(csv.reader(io.StringIO(out)))
            assert rows[0] == (["t", "x1", "x2", "x3", "x4",
                                "y1", "y2", "y3", "y4", "re", "im",
                                "dominant_re", "dominant_im",
                                "longterm_re", "longterm_im"])
            assert len(rows) == 1 + len(times) * len(pairs)
            body = iter(rows[1:])
            # times outer, pairs inner
            for t in times:
                for x, y in pairs:
                    r = next(body)
                    assert r[:9] == [repr(t)] + [repr(v) for v in x + y]
                    kv = zonal_kernel_closed(sigma, zone, t, np.array(x),
                                             np.array(y), params)
                    got = [complex(float(r[i]), float(r[i + 1]))
                           for i in (9, 11, 13)]
                    for g, v in zip(got, (kv.value, kv.dominant,
                                          kv.long_term)):
                        assert abs(g - v) <= 1e-12 * (1 + abs(v))


def test_kernel_df_caustic_rows_only(capsys, tmp_path):
    pairs = _random_pairs(3, 2)
    cfg = _kernel_config(tmp_path, [(1.0, 2)], pairs)
    code, out = run_cli(capsys, "kernel", "--config", cfg, "--sigma", "df",
                        "--times", f"0.5,{math.pi!r},1")
    assert code == 3
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 9
    for i, r in enumerate(rows):
        if i // 3 == 1:
            assert r[0] == repr(math.pi) and r[5:] == ["ERROR"] * 6
        else:
            assert all(math.isfinite(float(v)) for v in r[5:])


def test_kernel_zone2_rows(capsys, tmp_path):
    # zone 2 has a closed form too: rows are zonal_kernel_closed and split
    # into dominant + long-term
    params = build_params(load_config(None))
    pairs = _random_pairs(5, 2)
    cfg = _kernel_config(tmp_path, [(1.0, 2)], pairs)
    for sigma in ("wk", "df"):
        code, out = run_cli(capsys, "kernel", "--config", cfg, "--zone", "2",
                            "--sigma", sigma, "--times", "0.2,1.3")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 2 * len(pairs)
        for r, (x, y) in zip(rows, pairs * 2):
            kv = zonal_kernel_closed(sigma, 2, float(r[0]), np.array(x),
                                     np.array(y), params)
            got = [complex(float(r[i]), float(r[i + 1])) for i in (5, 7, 9)]
            for g, v in zip(got, (kv.value, kv.dominant, kv.long_term)):
                assert abs(g - v) <= 1e-12 * (1 + abs(v))
            assert abs(got[0] - got[1] - got[2]) <= 1e-12 * (1 + abs(got[0]))


def test_kernel_one_pair_config(capsys, tmp_path):
    cfg = _kernel_config(tmp_path, [(1.0, 2)], [([0.3, -0.2], [0.1, 0.4])])
    code, out = run_cli(capsys, "kernel", "--config", cfg, "--zone", "1",
                        "--times", "0.5")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 2
    kv = zonal_kernel_closed("wk", 1, 0.5, np.array([0.3, -0.2]),
                             np.array([0.1, 0.4]), build_params(load_config(None)))
    assert complex(float(rows[1][5]), float(rows[1][6])) == pytest.approx(
        complex(kv.value), rel=1e-12)


def test_kernel_one_call_per_time(capsys, tmp_path, monkeypatch):
    calls = []
    evaluate = kernels.zonal_kernel_closed

    def counted(*args, **kwargs):
        calls.append(args[2])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(kernels, "zonal_kernel_closed", counted)
    cfg = _kernel_config(tmp_path, [(1.0, 2)], _random_pairs(16, 2))
    code, out = run_cli(capsys, "kernel", "--config", cfg,
                        "--times", "0.1,0.5,1")
    assert code == 0
    assert len(out.splitlines()) == 1 + 3 * 16
    assert calls == [0.1, 0.5, 1.0]


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
    # 2e-9 past the caustic cos 2t rounds to 1: the plane rule's decay has
    # no positive real part and the rule refuses
    code, out = run_cli(capsys, "partition", "--sigma", "df", "--zone", "2",
                        "--times", f"{math.pi + 2e-9!r},0.5")
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


def _zeta_config(tmp_path, **fields):
    p = tmp_path / "zeta.json"
    p.write_text(json.dumps(fields))
    return str(p)


def test_zeta_riemann_reference_scales_with_lambda(capsys, tmp_path):
    # mu_p = 2 (2p + 1): the sum is 2^{-s} (1 - 2^{-s}) zeta_R(s)
    cfg = _zeta_config(tmp_path, params=[{"lambda": 2.0, "k": 2}])
    code, out = run_cli(capsys, "zeta", "--config", cfg, "--s-values", "3")
    assert code == 0
    (row,) = json.loads(out)["values"]
    assert row["riemann_residual"] < 1e-12


def test_zeta_no_riemann_reference_for_h_zf(capsys, tmp_path):
    # the field constant shifts every level: no Riemann relation
    cfg = _zeta_config(tmp_path, variant="H_Zf")
    code, out = run_cli(capsys, "zeta", "--config", cfg, "--s-values", "3")
    assert code == 0
    (row,) = json.loads(out)["values"]
    assert row["riemann_reference"] is None
    assert row["riemann_residual"] is None
    assert math.isfinite(row["zeta_zonal_re"])


def test_zeta_domain_refusal_names_value_and_bound(capsys, tmp_path):
    # one k=4 block with the default s values: s = 2.0 is not above k/2
    cfg = _zeta_config(tmp_path, params=[{"lambda": 1.0, "k": 4}])
    code = main(["zeta", "--config", cfg])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "k/2 = 2" in captured.err and "s = 2.0" in captured.err


def test_pathint_convergence_report(capsys):
    code, out = run_cli(capsys, "pathint", "--quad-degree", "16",
                        "--n-slices", "1,2")
    assert code == 0
    doc = json.loads(out)
    assert all(row["residual"] < 1e-6 for row in doc["convergence"])


def test_pathint_zone2(capsys):
    code, out = run_cli(capsys, "pathint", "--zone", "2", "--quad-degree",
                        "16")
    assert code == 0
    rows = json.loads(out)["convergence"]
    assert [row["n"] for row in rows] == [1, 2, 3, 4]
    assert all(row["zone"] == 2 and row["residual"] <= 1e-6 for row in rows)


def test_pathint_caustic_exit_3(capsys):
    code = main(["pathint", "--sigma", "df", "--total-time", repr(math.pi),
                 "--n-slices", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "singular time" in captured.err


@pytest.mark.parametrize("sigma", ["wk", "df"])
def test_pathint_k4_chain(tmp_path, capsys, sigma):
    # two-block k=4 chains run at the default degree
    cfg = tmp_path / "k4.json"
    cfg.write_text(json.dumps({
        "params": [{"lambda": 1.0, "k": 2}, {"lambda": 2.0, "k": 2}],
        "points": [[[0.3, -0.2, 0.1, 0.2], [0.1, 0.4, -0.3, 0.05]]]}))
    code, out = run_cli(capsys, "pathint", "--config", str(cfg), "--sigma",
                        sigma, "--n-slices", "1,2,3")
    assert code == 0
    rows = json.loads(out)["convergence"]
    assert [row["n"] for row in rows] == [1, 2, 3]
    assert all(row["zone"] == 0 and row["residual"] <= 1e-13 for row in rows)


def test_pathint_matrix_ceiling_exit_3(tmp_path, capsys, monkeypatch):
    assert 162 ** 3 > pathint.STEP_ENTRY_CEILING

    def no_grid(*args, **kwargs):
        raise AssertionError("grid built above the ceiling")

    monkeypatch.setattr(pathint, "QuadRule", no_grid)
    cfg = tmp_path / "k4.json"
    cfg.write_text(json.dumps({
        "params": [{"lambda": 1.0, "k": 2}, {"lambda": 2.0, "k": 2}],
        "points": [[[0.3, -0.2, 0.1, 0.2], [0.1, 0.4, -0.3, 0.05]]],
        "quad_degree": 162}))
    code = main(["pathint", "--config", str(cfg), "--n-slices", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "ceiling" in captured.err


def test_verify_suite_pass_exit_0(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "laguerre")
    assert code == 0
    assert json.loads(out)["summary"]["FAIL"] == 0


def test_verify_report_is_the_library_report(tmp_path):
    # the CLI adds nothing to what the checks declare: its report is the
    # library's, byte for byte
    path = tmp_path / "pathint.json"
    assert main(["verify", "--suite", "pathint", "--out", str(path)]) == 0
    assert path.read_text() == report_json(run_suite("pathint")) + "\n"


def test_verify_timings_side_file(capsys, tmp_path):
    # the report on stdout is the same with and without --timings; the
    # wall seconds go to the side file only
    _, plain = run_cli(capsys, "verify", "--suite", "laguerre")
    path = tmp_path / "timings.json"
    code, timed = run_cli(capsys, "verify", "--suite", "laguerre",
                          "--timings", str(path))
    assert code == 0
    assert timed == plain
    timings = json.loads(path.read_text())
    ids = [c["check_id"] for c in json.loads(plain)["checks"]]
    assert list(timings) == ids
    assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())


# ---------------------------------------------------------------------------
# one table writer: every table subcommand in both formats
# ---------------------------------------------------------------------------

# a small job per table subcommand: config fields (a non-default one each,
# so `ran` carries more than the defaults) and flags
_TABLE_JOBS = {
    "spectrum": ({"variant": "H_Zf", "c_f": 0.5}, ["--max-p", "2"]),
    "kernel": ({"points": [[[0.3, -0.2], [0.1, 0.4]],
                           [[-0.5, 0.2], [0.25, 0.1]]]},
               ["--sigma", "df", "--zone", "1", "--times", "0.3,0.7"]),
    "partition": ({"params": [{"lambda": 2.0, "k": 2}]},
                  ["--zone", "1", "--times", "0.5"]),
    "zeta": ({"variant": "H_Zf"}, ["--zone", "1", "--s-values", "2.5,3"]),
    "pathint": ({"points": [[[0.2, 0.1], [-0.1, 0.3]]]},
                ["--n-slices", "1,2", "--quad-degree", "16"]),
}


# the JSON form's keys before `ran`, the rows' key last
_JSON_KEYS = {"spectrum": ["rows"], "kernel": ["rows"], "partition": ["rows"],
              "zeta": ["zone", "values"], "pathint": ["convergence"]}


def _run_table(capsys, tmp_path, command, fmt, *more_flags):
    doc, flags = _TABLE_JOBS[command]
    cfg = tmp_path / f"{command}-{fmt}.json"
    cfg.write_text(json.dumps({**doc, "format": fmt}))
    return run_cli(capsys, command, "--config", str(cfg), *flags, *more_flags)


@pytest.mark.parametrize("command", sorted(_TABLE_JOBS))
def test_table_ran_reproduces_output(capsys, tmp_path, command):
    # `ran` is the effective config: fed back as the only input, it gives
    # the same bytes
    code, out = _run_table(capsys, tmp_path, command, "json")
    assert code == 0
    ran = json.loads(out)["ran"]
    assert "out" not in ran and ran["format"] == "json"
    assert set(COMMANDS[command][2]) <= set(ran)
    cfg = tmp_path / "ran.json"
    cfg.write_text(json.dumps(ran))
    assert run_cli(capsys, command, "--config", str(cfg)) == (code, out)


def _csv_matches_json(csv_text, json_rows):
    head, *rows = list(csv.reader(io.StringIO(csv_text)))
    assert len(rows) == len(json_rows)
    for row, obj in zip(rows, json_rows):
        assert list(obj) == head
        for cell, value in zip(row, obj.values()):
            if isinstance(value, float):
                assert float(cell) == value
            else:
                assert cell == ("" if value is None else str(value))


@pytest.mark.parametrize("command", sorted(_TABLE_JOBS))
def test_table_csv_and_json_carry_the_same_rows(capsys, tmp_path, command):
    code_csv, out_csv = _run_table(capsys, tmp_path, command, "csv")
    code_json, out_json = _run_table(capsys, tmp_path, command, "json")
    assert code_csv == code_json == 0
    doc = json.loads(out_json)
    assert list(doc) == [*_JSON_KEYS[command], "ran"]
    _csv_matches_json(out_csv, doc[_JSON_KEYS[command][-1]])


@pytest.mark.parametrize("command", ["kernel", "partition"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_caustic_error_rows_exit_3(capsys, tmp_path, command, fmt):
    # a DF caustic time gives six ERROR cells on each of its rows, in both
    # forms; the other time's rows are numbers
    code, out = _run_table(capsys, tmp_path, command, fmt, "--sigma", "df",
                           "--times", f"0.5,{math.pi!r}")
    assert code == 3
    if fmt == "csv":
        head, *rows = list(csv.reader(io.StringIO(out)))
        rows = [dict(zip(head, row)) for row in rows]
    else:
        rows = json.loads(out)["rows"]
    values = [list(row.values())[-6:] for row in rows]
    n = len(rows) // 2
    assert [float(row["t"]) for row in rows] == [0.5] * n + [math.pi] * n
    assert values[n:] == [["ERROR"] * 6] * n
    assert all(math.isfinite(float(v)) for row in values[:n] for v in row)


@pytest.fixture(scope="module")
def workloads():
    # the benchmark's row checks, loaded from its file as it stands
    spec = importlib.util.spec_from_file_location(
        "workloads", SRC.parent / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # registered as an import would be: its dataclass looks itself up there
    sys.modules.setdefault(spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv, expected, info", [
    (["spectrum", "--max-p", "2", "--max-zone", "1"], None, {}),
    (["kernel", "--zone", "1", "--times", "0.5,1"], 2, {}),
    (["partition", "--sigma", "df", "--times", "0.5,1.0"], 2, {}),
    (["zeta", "--zone", "1", "--s-values", "2.5,3"], 2,
     {"geometry": "k2", "zone": 1}),
    (["pathint", "--n-slices", "1,2"], 2, {}),
], ids=["spectrum", "kernel", "partition", "zeta", "pathint"])
def test_bench_parsers_accept_default_format(capsys, workloads, argv,
                                            expected, info):
    # the benchmark parses each table subcommand's default format: a writer
    # change it would score as failed rows fails here first
    job = workloads.Job(argv[0], argv, argv[0], expected, info)
    code, out = run_cli(capsys, *argv)
    verdicts = workloads.check_job(job, code, out)
    assert verdicts and set(verdicts) == {"ok"}


# ---------------------------------------------------------------------------
# output files and determinism
# ---------------------------------------------------------------------------

def test_atomic_out_file(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    code = main(["spectrum", "--max-p", "1", "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert not [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]


@pytest.mark.parametrize("argv", [
    ["spectrum", "--max-p", "1", "--out"],
    ["verify", "--suite", "laguerre", "--timings"],
])
@pytest.mark.parametrize("target", ["missing/x.out", "."])
def test_unwritable_out_exit_2(tmp_path, capsys, argv, target):
    # a missing directory or a directory target is a usage error, not a
    # FAIL (exit 1) with a traceback; no temp file is left behind
    code = main(argv + [str(tmp_path / target)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: cannot write {tmp_path / target}: ")
    assert os.listdir(tmp_path) == []


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
