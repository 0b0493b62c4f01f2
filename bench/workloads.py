"""Workload definitions and output checks for the zeemanzones benchmark.

A workload is a fixed batch of `zeemanzones` CLI jobs.  The seed only
draws the point pairs and path endpoints; they reach the CLI through the
generated config files and nothing else.

Every output row is checked.  A row *fails* (an operation failed) when its
job exits non-zero, its output does not parse, it is an ERROR row, a
`verify` check is not PASS, a number is not finite, a kernel row breaks
value = dominant + long_term, or a zeta value misses its closed form.  A
row that completes but whose self-reported residual exceeds the
acceptance tolerance (partition 1e-7, pathint 1e-6) is a *tolerance miss*.
Both count against `ok_frac`; only failures make a run incorrect.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

GEOMETRIES = {
    "k2": [{"lambda": 1.0, "k": 2}],
    "k4": [{"lambda": 1.0, "k": 2}, {"lambda": 2.0, "k": 2}],
}
SIGMAS = ("wk", "df")
POINT_SCALE = 0.4            # coordinates ~ N(0, 0.4^2), as acceptance test 8
KERNEL_PAIRS = 256
KERNEL_TIMES = "0.05,0.1,0.2,0.5,1,2,3,5"
PARTITION_TIMES = "0.5,1.0"
ZETA_S = {"k2": "2,2.5,3,4", "k4": "2.5,3,4"}
ZETA_BLOCK = {"k2": [{"lambda": 1.0, "k": 2}], "k4": [{"lambda": 1.0, "k": 4}]}
TABLE_SUITES = ("laguerre", "spectrum", "projections", "global_kernels",
                "zonal_wk", "zonal_df")

PARTITION_TOL = 1e-7         # acceptance 6
PATHINT_TOL = 1e-6           # acceptance 9
ZETA_TOL = 1e-8              # acceptance 7
SPLIT_TOL = 1e-12

WORKLOADS = ("trace", "chain", "tables")
# Fewest timed batches per run.  Start-up time on a shared host swings by
# half for seconds at a time, so the start-up bound medians of `trace` and
# `tables` need two batches; one `chain` batch already runs for ~30 s.
MIN_BATCHES = {"trace": 2, "chain": 1, "tables": 2}


@dataclass
class Job:
    name: str
    argv: list[str]
    kind: str                       # CLI subcommand, selects the row check
    expected_rows: int | None       # None when the program decides the count
    info: dict = field(default_factory=dict)


def _write_config(workdir, name, doc):
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
    return path


def _points(rng, n, k):
    pts = rng.normal(0.0, POINT_SCALE, size=(n, 2, k))
    return [[[float(v) for v in p[0]], [float(v) for v in p[1]]] for p in pts]


def build_jobs(workload: str, seed: int, workdir: str) -> tuple[list[Job], str]:
    """Write the workload's config files into workdir; return the jobs and
    a sha256 over the generated inputs (config bytes and argv)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng(seed)
    jobs: list[Job] = []

    def add(name, argv, kind, expected, doc=None, **info):
        if doc is not None:
            argv = ["--config", _write_config(workdir, name, doc)] + argv
        jobs.append(Job(name, [kind] + argv, kind, expected, info))

    if workload == "trace":
        for sigma in SIGMAS:
            for zone in (0, 1, 2):
                for geo, blocks in GEOMETRIES.items():
                    add(f"partition-{sigma}-{zone}-{geo}",
                        ["--sigma", sigma, "--zone", str(zone),
                         "--times", PARTITION_TIMES],
                        "partition", len(PARTITION_TIMES.split(",")),
                        {"params": blocks})
    elif workload == "chain":
        for sigma in SIGMAS:
            for zone in (0, 1):
                add(f"pathint-{sigma}-{zone}",
                    ["--sigma", sigma, "--zone", str(zone)], "pathint", 4,
                    {"params": GEOMETRIES["k2"], "points": _points(rng, 1, 2)})
        add("verify-pathint", ["--suite", "pathint", "--threads", "2"],
            "verify", None)
    else:
        for geo, blocks in GEOMETRIES.items():
            add(f"spectrum-{geo}", ["--max-p", "30", "--max-zone", "4"],
                "spectrum", None, {"params": blocks})
        for sigma in SIGMAS:
            for zone in (0, 1):
                for geo, blocks in GEOMETRIES.items():
                    k = sum(b["k"] for b in blocks)
                    add(f"kernel-{sigma}-{zone}-{geo}",
                        ["--sigma", sigma, "--zone", str(zone),
                         "--times", KERNEL_TIMES],
                        "kernel", KERNEL_PAIRS * len(KERNEL_TIMES.split(",")),
                        {"params": blocks,
                         "points": _points(rng, KERNEL_PAIRS, k)})
        for geo, s_values in ZETA_S.items():
            for zone in (0, 1, 2):
                add(f"zeta-{geo}-{zone}",
                    ["--zone", str(zone), "--s-values", s_values], "zeta",
                    len(s_values.split(",")), {"params": ZETA_BLOCK[geo]},
                    geometry=geo, zone=zone)
        for suite in TABLE_SUITES:
            add(f"verify-{suite}", ["--suite", suite, "--threads", "2"],
                "verify", None)

    h = hashlib.sha256()
    for job in jobs:
        h.update(json.dumps(job.argv[:1] + [a for a in job.argv[1:]
                                            if not a.endswith(".json")])
                 .encode())
        if "--config" in job.argv:
            with open(job.argv[job.argv.index("--config") + 1], "rb") as fh:
                h.update(fh.read())
    return jobs, h.hexdigest()


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def riemann_zeta(s: float) -> float:
    """zeta_R(s) for real s > 1 from the alternating (eta) series with
    Borwein's acceleration; independent of the program's Euler-Maclaurin."""
    n = 40
    j = np.arange(n + 1)
    terms = np.array([math.factorial(n + i - 1) * 4.0 ** i
                      / (math.factorial(n - i) * math.factorial(2 * i))
                      for i in j]) * n
    d = np.cumsum(terms)
    k = np.arange(n)
    eta = -np.sum((-1.0) ** k * (d[k] - d[n]) / (k + 1.0) ** s) / d[n]
    return float(eta / (1.0 - 2.0 ** (1.0 - s)))


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _floats(cells):
    """The cells as floats, or None when one is not a number (an ERROR row)."""
    try:
        return [float(v) for v in cells]
    except ValueError:
        return None


def _csv_rows(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _check_partition(text, job):
    _, rows = _csv_rows(text)
    out = []
    for r in rows:
        vals = _floats(r)
        if not vals or not _finite(vals):
            out.append("fail")
        else:
            out.append("ok" if vals[5] <= PARTITION_TOL else "tol")
    return out


def _check_kernel(text, job):
    _, rows = _csv_rows(text)
    out = []
    for r in rows:
        vals = _floats(r[-6:])
        ok = bool(vals) and _finite(vals)
        if ok:
            value, dom, lt = (complex(vals[i], vals[i + 1]) for i in (0, 2, 4))
            ok = abs(value - (dom + lt)) <= SPLIT_TOL * (1 + abs(value))
        out.append("ok" if ok else "fail")
    return out


def _check_spectrum(text, job):
    _, rows = _csv_rows(text)
    out = []
    for r in rows:
        vals = _floats(r[5:7])
        ok = bool(vals) and math.isfinite(vals[0]) and vals[1] >= 1
        out.append("ok" if ok else "fail")
    return out


def _check_zeta(text, job):
    doc = json.loads(text)
    geo, zone = job.info["geometry"], job.info["zone"]
    out = []
    for row in doc["values"]:
        s = row["s"]
        got = complex(row["zeta_zonal_re"], row["zeta_zonal_im"])
        if geo == "k2":
            ok = abs(got - (1 - 2.0 ** -s) * riemann_zeta(s)) <= ZETA_TOL
        else:
            ref = (zone + 1) * 2.0 ** -s * riemann_zeta(s - 1)
            ok = abs(got - ref) <= ZETA_TOL * abs(ref)
        out.append("ok" if ok else "fail")
    return out


def _check_pathint(text, job):
    out = []
    for row in json.loads(text)["convergence"]:
        vals = [row["value_re"], row["value_im"], row["residual"]]
        if not _finite(vals):
            out.append("fail")
        else:
            out.append("ok" if row["residual"] <= PATHINT_TOL else "tol")
    return out


def _check_verify(text, job):
    return ["ok" if c["status"] == "PASS" else "fail"
            for c in json.loads(text)["checks"]]


CHECKS = {"partition": _check_partition, "kernel": _check_kernel,
          "spectrum": _check_spectrum, "zeta": _check_zeta,
          "pathint": _check_pathint, "verify": _check_verify}


def check_job(job: Job, code: int, stdout: str) -> list[str]:
    """One verdict per output row: "ok", "tol" (tolerance miss) or "fail".

    A job that exits non-zero or prints output that does not parse fails
    all of its expected rows (at least one); missing rows fail too.
    """
    expected = job.expected_rows or 1
    if code != 0:
        return ["fail"] * expected
    try:
        verdicts = CHECKS[job.kind](stdout, job)
    except (ValueError, KeyError, IndexError, TypeError):
        return ["fail"] * expected
    if job.expected_rows is not None and len(verdicts) < job.expected_rows:
        verdicts += ["fail"] * (job.expected_rows - len(verdicts))
    return verdicts or ["fail"]
