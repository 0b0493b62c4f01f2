"""Batch front end: tables, kernel grids, traces, zeta values, verification.

One command per process.  Configuration comes from a single JSON file
(--config); command-line flags, named and typed after their config fields,
override it; no environment variable configures a command.  The one
variable touched is OpenBLAS's: `verify` with threads > 1 gives each
worker its share of the cores, OPENBLAS_NUM_THREADS = cores // threads
(at least 1), unless it is already set.  `COMMANDS` declares each
subcommand's flags, the other fields it reads and its table form.  Every
field passes `_check_field` (JSON type, finite, no empty list, `CHOICES`,
`RANGES`) before anything runs.  Every table subcommand prints through
`write_table`, as CSV or JSON, as `format` asks.  Output files are
written atomically (temp file + rename): a crash leaves no truncated file.

Exit codes: 0 success / all checks pass, 1 verification FAIL present,
2 usage or config error (including out-of-range and non-finite values),
3 numeric ERROR present (a `params.NumericError` from any subcommand).

Start-up is part of every job, so this module loads only the standard
library and `params` at import; each subcommand imports the layers it
runs, and numpy only where arrays are made (`spectrum` and `zeta` load
none; `kernel` loads numpy, `kernels`, `quadrature` and `special`).
"""

import argparse
import csv
import io
import json
import math
import os
import sys

from .params import (CHAIN_DEGREE, MAX_DEGREE, SIGMA, VARIANTS,
                     HamiltonianVariant, MagneticParams, NumericError)


class ConfigError(Exception):
    pass


DEFAULTS = {
    "params": [{"lambda": 1.0, "k": 2}],
    "variant": "H_Z",
    "c_f": None,
    "quad_degree": CHAIN_DEGREE,
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
# the allowed values of a field: one of its CHOICES, or within its RANGES
# (low, high), both inclusive, high None for no upper bound
CHOICES = {"sigma": tuple(SIGMA), "format": ("csv", "json"),
           "variant": VARIANTS}
RANGES = {"zone": (0, None), "max_p": (0, None), "max_zone": (0, None),
          "quad_degree": (1, MAX_DEGREE), "threads": (1, None)}
# a value of the JSON type of each field whose default is null
_NULLABLE = {"c_f": 0.0, "out": "", "timings": ""}
# JSON type (name, accepted Python types) by the Python type of a default
_JSON_TYPES = {float: ("a number", (int, float)), int: ("an integer", int),
               str: ("a string", str), list: ("a list", list),
               dict: ("an object", dict)}


def _check_field(name, value, default):
    """Raise ConfigError unless value has its default's JSON type (null only
    for a null default), is finite, no empty list and allowed by CHOICES and
    RANGES; it checks list elements and object members by the default's."""
    if default is None:
        if value is None:
            return
        default = _NULLABLE[name]
    kind, types = _JSON_TYPES[type(default)]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"config field {name!r}: expected {kind}, "
                          f"got {json.dumps(value)}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"config field {name!r}: must be finite, got {value}")
    if "[" in name and not isinstance(value, (list, dict)):
        return      # a scalar list element: CHOICES and RANGES name none
    if value == []:
        raise ConfigError(f"config field {name!r}: need at least one value")
    if name in CHOICES and value not in CHOICES[name]:
        raise ConfigError(f"config field {name!r}: must be "
                          + " or ".join(map(repr, CHOICES[name])))
    lo, hi = RANGES.get(name, (None, None))
    if lo is not None and (value < lo or (hi is not None and value > hi)):
        bound = f"in [{lo}, {hi}]" if hi is not None else f">= {lo}"
        raise ConfigError(f"config field {name!r}: must be {bound}, "
                          f"got {value}")
    if isinstance(value, list):
        for i, v in enumerate(value):
            _check_field(f"{name}[{i}]", v, default[0])
    elif isinstance(value, dict):
        for key in value.keys() & default.keys():
            _check_field(f"{name}.{key}", value[key], default[key])


def load_config(path, defaults=DEFAULTS):
    """Read a JSON config over the defaults; refuse an unknown field (the
    first in file order).  `_check_field` checks the values."""
    if path is None:
        return dict(defaults)
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
    for key in raw:
        if key not in DEFAULTS:
            raise ConfigError(f"config {path}: unknown field {key!r}")
    return {**defaults, **raw}


def build_params(cfg) -> MagneticParams:
    pairs = []
    for i, b in enumerate(cfg["params"]):
        if set(b) != {"lambda", "k"}:
            raise ConfigError(f"config field 'params[{i}]': expected keys "
                              "'lambda' and 'k'")
        pairs.append((float(b["lambda"]), int(b["k"])))
    try:
        return MagneticParams.make(pairs)
    except ValueError as exc:
        raise ConfigError(f"config field 'params': {exc}") from exc


def build_variant(cfg) -> HamiltonianVariant:
    return HamiltonianVariant(
        cfg["variant"], None if cfg["c_f"] is None else float(cfg["c_f"]))


def write_out(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    import tempfile
    d = os.path.dirname(os.path.abspath(out_path))
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, out_path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {out_path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def write_table(cfg, fields, form, head, rows, code):
    """Write a table in the config's format; return its exit code.  CSV:
    the header and the rows, floats as repr() (shortest round-trip decimal).
    JSON: the config fields form[:-1], the rows under form[-1] as objects
    keyed by the header, and `ran`, the values of fields, all those read."""
    if cfg["format"] == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([head, *rows])
        text = buf.getvalue()
    else:
        *top, key = form
        text = json.dumps({**{f: cfg[f] for f in top},
                           key: [dict(zip(head, row)) for row in rows],
                           "ran": {f: cfg[f] for f in DEFAULTS if f in fields}},
                          indent=2) + "\n"
    write_out(text, cfg["out"])
    return code


def cmd_spectrum(cfg):
    from .spectrum import spectrum_table
    entries = spectrum_table(build_params(cfg), build_variant(cfg),
                             cfg["max_p"], cfg["max_zone"])
    return [*vars(entries[0])], [[*vars(e).values()] for e in entries], 0


def _point_pairs(cfg, k):
    """The config's point pairs stacked as X (P, k) and Y (P, k)."""
    pts = cfg["points"]
    for i, pair in enumerate(pts):
        if len(pair) != 2 or any(len(v) != k for v in pair):
            raise ConfigError(f"config field 'points[{i}]': expected a pair "
                              f"of length-{k} coordinate lists")
    import numpy as np
    return [np.array([pair[j] for pair in pts], dtype=float) for j in (0, 1)]


def _rows_by_time(cfg, keys, values_at):
    """The rows and exit code of each time t, one row per key: t, the key's
    cells and the six floats values_at(t) gives for it, or six ERROR cells
    if it raises NumericError (exit 3).  CSV formats t and keys once."""
    cell = repr if cfg["format"] == "csv" else float
    keys = [[cell(v) for v in key] for key in keys]
    rows, code = [], 0
    for t in map(float, cfg["times"]):
        try:
            cells = values_at(t)
        except NumericError:
            code, cells = 3, [["ERROR"] * 6] * len(keys)
        t = cell(t)
        rows += ([t, *key, *row] for key, row in zip(keys, cells))
    return rows, code


def cmd_kernel(cfg):
    import numpy as np
    from .kernels import check_df_time, zonal_kernel_closed
    params = build_params(cfg)
    sigma, a = cfg["sigma"], cfg["zone"]
    X, Y = _point_pairs(cfg, params.k)

    def values_at(t):
        # the zonal closed forms are entire in t, but the caustic times of
        # the underlying evolution are flagged anyway so grids never
        # silently straddle them
        check_df_time(sigma, t, params)
        # one broadcast evaluation over all pairs of this time
        kv = zonal_kernel_closed(sigma, a, t, X, Y, params)
        return np.stack([f(v) for v in (kv.value, kv.dominant, kv.long_term)
                         for f in (np.real, np.imag)], axis=-1).tolist()

    head = (["t"] + [f"{c}{i + 1}" for c in "xy" for i in range(params.k)]
            + ["re", "im", "dominant_re", "dominant_im", "longterm_re",
               "longterm_im"])
    return head, *_rows_by_time(cfg, np.hstack([X, Y]).tolist(), values_at)


def cmd_partition(cfg):
    from . import thermo
    params, variant = build_params(cfg), build_variant(cfg)
    sigma, a = cfg["sigma"], cfg["zone"]

    def values_at(t):
        z = thermo.partition(sigma, a, t, params, variant)
        ztr, delta = thermo.partition_trace(sigma, a, t, params, variant)
        return [[float(v) for v in (z.real, z.imag, ztr.real, ztr.imag,
                                    abs(z - ztr), delta)]]

    return (["t", "closed_re", "closed_im", "trace_re", "trace_im",
             "residual", "quad_delta"], *_rows_by_time(cfg, [[]], values_at))


def cmd_zeta(cfg):
    from . import zeta
    params, variant, a = build_params(cfg), build_variant(cfg), cfg["zone"]
    # mu_p = lam (2p + 1) relates the sum to the Riemann zeta for one k=2
    # block under H_Z only
    riemann = (len(params.blocks) == 1 and params.k == 2
               and variant.kind == "H_Z")
    rows = []
    for s in map(float, cfg["s_values"]):
        zz = zeta.zeta_zonal(a, s, params, variant=variant)
        row = [s, float(zz.real), float(zz.imag), None, None]
        if riemann:
            ref = (params.blocks[0].lam ** -s * (1 - 2.0 ** -s)
                   * zeta.riemann_zeta(s))
            row[3:] = float(ref.real), float(abs(zz - ref))
        rows.append(row)
    return (["s", "zeta_zonal_re", "zeta_zonal_im", "riemann_reference",
             "riemann_residual"], rows, 0)


def cmd_pathint(cfg):
    from . import pathint
    from .kernels import zonal_kernel_closed
    params = build_params(cfg)
    sigma, a, T = cfg["sigma"], cfg["zone"], float(cfg["total_time"])
    # the chain runs between the first point pair only
    X, Y = (Z[0] for Z in _point_pairs(cfg, params.k))
    ref = complex(zonal_kernel_closed(sigma, a, T, X, Y, params).value)
    rows = []
    for n in map(int, cfg["n_slices"]):
        val = complex(pathint.cylinder_value(
            sigma, a, pathint.TimeSlicing(T, n), None, X, Y, params,
            quad_degree=cfg["quad_degree"]))
        rows.append([sigma, a, T, n, val.real, val.imag, ref.real, ref.imag,
                     abs(val - ref)])
    return (["sigma", "zone", "T", "n", "value_re", "value_im",
             "reference_re", "reference_im", "residual"], rows, 0)


def cmd_verify(cfg):
    if cfg["threads"] > 1:
        # before numpy loads: the workers share the cores, so each one's
        # OpenBLAS pool gets its share of them unless the user set one
        cores = len(os.sched_getaffinity(0)) if hasattr(
            os, "sched_getaffinity") else os.cpu_count() or 1
        os.environ.setdefault("OPENBLAS_NUM_THREADS",
                              str(max(1, cores // cfg["threads"])))
    from . import verify
    results = verify.run_suite(cfg["suite"], cfg["threads"])
    write_out(verify.report_json(results) + "\n", cfg["out"])
    if cfg["timings"] is not None:
        write_out(verify.timings_json(results) + "\n", cfg["timings"])
    statuses = {r.status for r in results}
    return 3 if "ERROR" in statuses else 1 if "FAIL" in statuses else 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# subcommand: (function, help, fields taken as flags, other fields read,
# table form: default format, then the JSON keys of `write_table`, or None
# for verify's own report); each also takes --config and --out, no more
COMMANDS = {
    "spectrum": (cmd_spectrum, "eigenvalue table by zone",
                 ("format", "max_p", "max_zone"),
                 ("params", "variant", "c_f"), ("csv", "rows")),
    "kernel": (cmd_kernel, "zonal kernel values on a grid",
               ("sigma", "zone", "times"), ("params", "points", "format"),
               ("csv", "rows")),
    "partition": (cmd_partition, "partition function, closed vs trace",
                  ("sigma", "zone", "times"),
                  ("params", "variant", "c_f", "format"), ("csv", "rows")),
    "zeta": (cmd_zeta, "zonal zeta values", ("zone", "s_values"),
             ("params", "variant", "c_f", "format"),
             ("json", "zone", "values")),
    "pathint": (cmd_pathint, "cylinder-value convergence report",
                ("sigma", "zone", "total_time", "n_slices", "quad_degree"),
                ("params", "points", "format"), ("json", "convergence")),
    "verify": (cmd_verify, "run the verification harness",
               ("suite", "threads", "timings"), (), None),
}


def _flag_type(default):
    """A flag's argparse type from its field's default: a comma list of the
    elements' type for a list, a path for null."""
    if not isinstance(default, list):
        return str if default is None else type(default)

    def comma_list(text):
        return [type(default[0])(v) for v in text.split(",") if v]
    return comma_list


def build_parser():
    p = argparse.ArgumentParser(
        prog="zeemanzones",
        description="zonal Zeeman spectra, kernels, traces and verification")
    sub = p.add_subparsers(dest="command", required=True)
    for command, (_, text, fields, *_) in COMMANDS.items():
        sp = sub.add_parser(command, help=text)
        sp.add_argument("--config", metavar="PATH")
        sp.add_argument("--out", metavar="PATH")
        for name in fields:
            default = DEFAULTS[name]
            sp.add_argument("--" + name.replace("_", "-"),
                            type=_flag_type(default),
                            choices=CHOICES.get(name),
                            metavar="PATH" if default is None else None)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run, _, flags, reads, form = COMMANDS[args.command]
    try:
        cfg = load_config(args.config,
                          {**DEFAULTS, "format": form[0]} if form else DEFAULTS)
        for key, value in vars(args).items():
            if key in DEFAULTS and value is not None:
                cfg[key] = value
        for name, value in cfg.items():
            _check_field(name, value, DEFAULTS[name])
        if form is None:
            return run(cfg)
        return write_table(cfg, flags + reads, form[1:], *run(cfg))
    except NumericError as exc:
        # before ValueError: SingularTimeError is both
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
