"""Batch front end: tables, kernel grids, traces, zeta values, verification.

One command per process.  Configuration comes from a single JSON file
(--config); command-line flags override config fields; no environment
variables are consulted.  Output files are written atomically (temp file
+ rename) so a crashed run never leaves a truncated artifact.  CSV floats
use repr(), i.e. the shortest decimal that round-trips binary64, so golden
files are stable across platforms.

Exit codes: 0 success / all checks pass, 1 verification FAIL present,
2 usage or config error (including out-of-range values), 3 numeric ERROR
present (a `params.NumericError` from any subcommand).

Start-up is part of every job, so this module loads only the standard
library, numpy and `params` at import; each subcommand imports the
layers it runs (`spectrum` loads `spectrum` and `exact`, `kernel` loads
`kernels`, `quadrature` and `special`, and only `verify` loads them all).
"""

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from .params import HamiltonianVariant, MagneticParams, NumericError


class ConfigError(Exception):
    pass


DEFAULTS = {
    "params": [{"lambda": 1.0, "k": 2}],
    "variant": "H_Z",
    "c_f": None,
    "c_f_mode": "block",
    "quad_degree": 40,
    "threads": 1,
    "sigma": "wk",
    "zone": 0,
    "times": [0.2, 0.5, 1.0],
    "points": [[[0.3, -0.2], [0.1, 0.4]]],
    "s_values": [2.0, 2.5, 3.0, 4.0],
    "total_time": 0.5,
    "n_slices": [1, 2, 3, 4],
    "max_p": 6,
    "max_zone": 2,
    "suite": "all",
    "format": "csv",
    "out": None,
    "timings": None,
}
# a value of the JSON type of each field whose default is null
_NULLABLE = {"c_f": 0.0, "out": "", "timings": ""}
# JSON type (name, accepted Python types) by the Python type of a default
_JSON_TYPES = {float: ("a number", (int, float)), int: ("an integer", int),
               str: ("a string", str), list: ("a list", list),
               dict: ("an object", dict)}


def _check_json_type(name, value, default):
    """Raise ConfigError unless value has the JSON type of its default,
    checking list elements against the default's first element and object
    members against the default's members of the same name."""
    kind, types = _JSON_TYPES[type(default)]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"config field {name!r}: expected {kind}, "
                          f"got {json.dumps(value)}")
    if isinstance(value, list):
        for i, v in enumerate(value):
            _check_json_type(f"{name}[{i}]", v, default[0])
    elif isinstance(value, dict):
        for key in value.keys() & default.keys():
            _check_json_type(f"{name}.{key}", value[key], default[key])


def load_config(path):
    """Read and validate a JSON config; report the offending field."""
    cfg = dict(DEFAULTS)
    if path is None:
        return cfg
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path} at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    for key, value in raw.items():
        if key not in DEFAULTS:
            raise ConfigError(f"config {path}: unknown field {key!r}")
        # null is a value only where the default is null
        if value is not None or DEFAULTS[key] is not None:
            _check_json_type(key, value, _NULLABLE.get(key, DEFAULTS[key]))
        cfg[key] = value
    return cfg


def build_params(cfg) -> MagneticParams:
    blocks = cfg["params"]
    if not isinstance(blocks, list) or not blocks:
        raise ConfigError("config field 'params': need a non-empty list "
                          "of {lambda, k} blocks")
    pairs = []
    for i, b in enumerate(blocks):
        if not isinstance(b, dict) or set(b) != {"lambda", "k"}:
            raise ConfigError(f"config field 'params[{i}]': expected keys "
                              "'lambda' and 'k'")
        pairs.append((float(b["lambda"]), int(b["k"])))
    try:
        return MagneticParams.make(pairs)
    except ValueError as exc:
        raise ConfigError(f"config field 'params': {exc}") from exc


def build_variant(cfg) -> HamiltonianVariant:
    try:
        return HamiltonianVariant(
            cfg["variant"],
            None if cfg["c_f"] is None else float(cfg["c_f"]),
            cfg["c_f_mode"])
    except ValueError as exc:
        raise ConfigError(f"config field 'variant'/'c_f_mode': {exc}") from exc


def _check_sigma(cfg):
    if cfg["sigma"] not in ("wk", "df"):
        raise ConfigError("config field 'sigma': must be 'wk' or 'df'")
    return cfg["sigma"]


def _check_range(cfg, name, lo, hi=None):
    """cfg[name] as an int, or ConfigError unless lo <= it (<= hi)."""
    value = int(cfg[name])
    if value < lo or (hi is not None and value > hi):
        bound = f"in [{lo}, {hi}]" if hi is not None else f">= {lo}"
        raise ConfigError(f"config field {name!r}: must be {bound}, "
                          f"got {value}")
    return value


def _check_quad_degree(cfg):
    from .quadrature import MAX_DEGREE
    return _check_range(cfg, "quad_degree", 1, MAX_DEGREE)


def write_out(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    import tempfile
    d = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_spectrum(cfg):
    from .spectrum import (spectrum_table, spectrum_table_csv,
                           spectrum_table_json)
    max_p = _check_range(cfg, "max_p", 0)
    max_zone = _check_range(cfg, "max_zone", 0)
    entries = spectrum_table(build_params(cfg), build_variant(cfg),
                             max_p, max_zone)
    if cfg["format"] == "json":
        write_out(spectrum_table_json(entries) + "\n", cfg["out"])
    else:
        write_out(spectrum_table_csv(entries), cfg["out"])
    return 0


def _point_pairs(cfg, k):
    """The config's point pairs stacked as X (P, k) and Y (P, k)."""
    pts = cfg["points"]
    for i, pair in enumerate(pts):
        if len(pair) != 2 or any(len(v) != k for v in pair):
            raise ConfigError(f"config field 'points[{i}]': expected a pair "
                              f"of length-{k} coordinate lists")
    X = np.array([pair[0] for pair in pts], dtype=float).reshape(-1, k)
    Y = np.array([pair[1] for pair in pts], dtype=float).reshape(-1, k)
    return X, Y


def cmd_kernel(cfg):
    from .kernels import check_df_time, zonal_kernel_closed
    params = build_params(cfg)
    sigma = _check_sigma(cfg)
    a = _check_range(cfg, "zone", 0)
    X, Y = _point_pairs(cfg, params.k)
    coords = [[repr(v) for v in row] for row in np.hstack([X, Y]).tolist()]
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    head = (["t"] + [f"x{i+1}" for i in range(params.k)]
            + [f"y{i+1}" for i in range(params.k)]
            + ["re", "im", "dominant_re", "dominant_im",
               "longterm_re", "longterm_im"])
    w.writerow(head)
    had_error = False
    for t in cfg["times"]:
        t = float(t)
        try:
            # the zonal closed forms are entire in t, but the caustic
            # times of the underlying evolution are flagged anyway so
            # grids never silently straddle them
            if sigma == "df":
                check_df_time(t, params)
            # one broadcast evaluation over all pairs of this time
            kv = zonal_kernel_closed(sigma, a, t, X, Y, params)
        except NumericError:
            had_error = True
            w.writerows([repr(t)] + c + ["ERROR"] * 6 for c in coords)
            continue
        vals = np.stack([f(v) for v in (kv.value, kv.dominant, kv.long_term)
                         for f in (np.real, np.imag)], axis=-1).tolist()
        w.writerows([repr(t)] + c + [repr(v) for v in row]
                    for c, row in zip(coords, vals))
    write_out(buf.getvalue(), cfg["out"])
    return 3 if had_error else 0


def cmd_partition(cfg):
    from . import thermo
    params = build_params(cfg)
    variant = build_variant(cfg)
    sigma = _check_sigma(cfg)
    a = _check_range(cfg, "zone", 0)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["t", "closed_re", "closed_im", "trace_re", "trace_im",
                "residual", "quad_delta"])
    had_error = False
    for t in cfg["times"]:
        try:
            z = thermo.partition(sigma, a, float(t), params, variant)
            ztr, delta = thermo.partition_trace(sigma, a, float(t), params,
                                                variant)
        except NumericError:
            had_error = True
            w.writerow([repr(float(t))] + ["ERROR"] * 6)
            continue
        w.writerow([repr(float(t))]
                   + [repr(float(v)) for v in (z.real, z.imag, ztr.real,
                                               ztr.imag, abs(z - ztr), delta)])
    write_out(buf.getvalue(), cfg["out"])
    return 3 if had_error else 0


def cmd_zeta(cfg):
    from . import thermo
    params = build_params(cfg)
    variant = build_variant(cfg)
    a = _check_range(cfg, "zone", 0)
    rows = []
    # the Riemann relation holds for a single block with k=2 only
    riemann = len(params.blocks) == 1 and params.k == 2
    for s in cfg["s_values"]:
        zz = thermo.zeta_zonal(a, float(s), params, variant=variant)
        ref = (1 - 2.0 ** (-float(s))) * thermo.riemann_zeta(float(s))
        rows.append({"s": float(s),
                     "zeta_zonal_re": zz.real, "zeta_zonal_im": zz.imag,
                     "riemann_reference": ref.real if riemann else None,
                     "riemann_residual": abs(zz - ref) if riemann else None})
    write_out(json.dumps({"zone": a, "values": rows}, indent=2) + "\n",
              cfg["out"])
    return 0


def cmd_pathint(cfg):
    from . import pathint
    from .kernels import zonal_kernel_closed
    params = build_params(cfg)
    sigma = _check_sigma(cfg)
    a = _check_range(cfg, "zone", 0)
    deg = _check_quad_degree(cfg)
    T = float(cfg["total_time"])
    X, Y = (Z[0] for Z in _point_pairs(cfg, params.k))
    ref = zonal_kernel_closed(sigma, a, T, X, Y, params).value
    rows = []
    for n in cfg["n_slices"]:
        val = pathint.cylinder_value(sigma, a, pathint.TimeSlicing(T, int(n)),
                                     None, X, Y, params, quad_degree=deg)
        rows.append({"sigma": sigma, "zone": a, "T": T, "n": int(n),
                     "value_re": val.real, "value_im": val.imag,
                     "reference_re": ref.real, "reference_im": ref.imag,
                     "residual": abs(val - ref)})
    write_out(json.dumps({"convergence": rows}, indent=2) + "\n", cfg["out"])
    return 0


def cmd_verify(cfg):
    from . import verify
    results = verify.run_suite(cfg["suite"],
                               {"quad_degree": _check_quad_degree(cfg),
                                "threads": _check_range(cfg, "threads", 1)})
    write_out(verify.report_json(results) + "\n", cfg["out"])
    if cfg["timings"] is not None:
        write_out(verify.timings_json(results) + "\n", cfg["timings"])
    statuses = {r.status for r in results}
    if "ERROR" in statuses:
        return 3
    return 1 if "FAIL" in statuses else 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _float_list(text):
    return [float(v) for v in text.split(",") if v]


def _int_list(text):
    return [int(v) for v in text.split(",") if v]


def build_parser():
    p = argparse.ArgumentParser(
        prog="zeemanzones",
        description="zonal Zeeman spectra, kernels, traces and verification")
    sub = p.add_subparsers(dest="command", required=True)

    # each subcommand takes only the flags it reads
    def common(sp):
        sp.add_argument("--config", metavar="PATH")
        sp.add_argument("--out", metavar="PATH")
        return sp

    sp = common(sub.add_parser("spectrum", help="eigenvalue table by zone"))
    sp.add_argument("--format", choices=("csv", "json"))
    sp.add_argument("--max-p", type=int, dest="max_p")
    sp.add_argument("--max-zone", type=int, dest="max_zone")

    for name, text in (("kernel", "zonal kernel values on a grid"),
                       ("partition", "partition function, closed vs trace")):
        sp = common(sub.add_parser(name, help=text))
        sp.add_argument("--sigma", choices=("wk", "df"))
        sp.add_argument("--zone", type=int)
        sp.add_argument("--times", type=_float_list)

    sp = common(sub.add_parser("zeta", help="zonal zeta values"))
    sp.add_argument("--zone", type=int)
    sp.add_argument("--s-values", type=_float_list, dest="s_values")

    sp = common(sub.add_parser("pathint",
                               help="cylinder-value convergence report"))
    sp.add_argument("--sigma", choices=("wk", "df"))
    sp.add_argument("--zone", type=int)
    sp.add_argument("--total-time", type=float, dest="total_time")
    sp.add_argument("--n-slices", type=_int_list, dest="n_slices")
    sp.add_argument("--quad-degree", type=int, dest="quad_degree")

    sp = common(sub.add_parser("verify", help="run the verification harness"))
    sp.add_argument("--suite")
    sp.add_argument("--quad-degree", type=int, dest="quad_degree")
    sp.add_argument("--threads", type=int)
    sp.add_argument("--timings", metavar="PATH",
                    help="also write {check_id: seconds} to PATH")
    return p


COMMANDS = {
    "spectrum": cmd_spectrum,
    "kernel": cmd_kernel,
    "partition": cmd_partition,
    "zeta": cmd_zeta,
    "pathint": cmd_pathint,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        for key, value in vars(args).items():
            if key in DEFAULTS and value is not None:
                cfg[key] = value
        return COMMANDS[args.command](cfg)
    except NumericError as exc:
        # before ValueError: SingularTimeError is both
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
