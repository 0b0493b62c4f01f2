"""Benchmark for the zeemanzones batch CLI.

    python3 bench/run.py --workload trace|chain|tables|all --seed N \
        [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; the program is taken from
`src/` next to this directory (no install needed).  Scratch files go to
`.bench_work/` at the checkout root and are removed at the end, except
the raw spans of the last traced run of each workload.

Timed run (--trace 0): a closed loop with one client.  The workload's jobs
are launched one at a time as `zeemanzones` subprocesses, so interpreter
start-up is counted.  Whole batches repeat until the workload's minimum
batch count has run and --seconds have passed.  Metrics:

  setup_s      median of 11 fresh interpreters importing zeemanzones.cli
               and building its parser, spread over the first batch
               (after one untimed warm-up)
  wall_s       median batch wall time, first launch to last exit, less
               the set-up samples taken inside the batch
  job_p50_s    median job latency, launch to exit
  ok_frac      output rows passing every check / rows attempted; the
               detail line gives fail_frac = 1 - ok_frac, which is 0 on a
               clean workload and so cannot serve as a ratio metric
  peak_rss_mb  largest max-RSS of any job

Traced run (--trace 1): the same jobs in one process through
`zeemanzones.cli.main`, once untraced and once with the layer boundaries
spanned (see tracer.py), each in a fresh interpreter.  Their outputs must
be byte-identical; the per-layer metrics come from the traced pass and
`trace.overhead_frac` is traced wall / untraced wall - 1.

Output: human-readable lines on stderr; on stdout one JSON detail line
(seed, input hash, environment, samples) and, last, the result line
{"correct", "attempted", "failed", "metrics"}, where `failed` counts rows
whose operation failed and `attempted` counts rows.  Exit code 2, with no
result line, when the program cannot be found or started.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_RUNS = 11
SETUP_CODE = "import zeemanzones.cli as c; c.build_parser()"
JOB_CODE = "import sys; from zeemanzones.cli import main; sys.exit(main())"


def metric_units(trace):
    """{name: unit} of the metrics BENCHMARK.json lists for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class ProgramMissing(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def environment(job_counts):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.startswith(("OMP_", "OPENBLAS_", "MKL_"))
                        and k.endswith("NUM_THREADS")},
        **job_counts,
    }


def launch(argv, out_path, err_path):
    """Run one child to completion; return (exit code, seconds, rusage)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage


def probe(workdir):
    """One set-up sample: a fresh interpreter importing the CLI."""
    err = os.path.join(workdir, "setup.err")
    code, seconds, _ = launch([sys.executable, "-c", SETUP_CODE],
                              os.path.join(workdir, "setup.out"), err)
    if code != 0:
        raise ProgramMissing("cannot import zeemanzones.cli:\n" + read(err))
    return seconds


def read(path):
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


def tally(jobs, outcomes):
    """Row verdicts per job; outcomes is a list of (code, stdout)."""
    counts = {"ok": 0, "tol": 0, "fail": 0}
    problems = []
    for job, (code, stdout) in zip(jobs, outcomes):
        verdicts = workloads.check_job(job, code, stdout)
        for v in verdicts:
            counts[v] += 1
        bad = [v for v in verdicts if v != "ok"]
        if bad:
            problems.append(f"{job.name}: exit {code}, "
                            f"{bad.count('fail')} failed, "
                            f"{bad.count('tol')} over tolerance "
                            f"of {len(verdicts)} rows")
    return counts, list(dict.fromkeys(problems))     # once, not once per batch


def timed_run(jobs, workdir, seconds, min_batches):
    """Closed loop, one client: whole batches until at least `min_batches`
    have run and `seconds` have passed.

    The set-up probes are spread over the first batch, after the jobs, so
    setup_s samples the same stretch of time as the jobs; their time is
    taken out of that batch's wall time.  Returns the end-to-end metrics,
    each job's (exit code, stdout) for every batch in order, and the raw
    samples."""
    probe(workdir)                  # untimed: warms the bytecode cache
    probes_after = [0] * len(jobs)
    for p in range(SETUP_RUNS):
        probes_after[(p * len(jobs)) // SETUP_RUNS] += 1
    setup, walls, latencies, usages, outcomes = [], [], [], [], []
    start = time.perf_counter()
    while len(walls) < min_batches or time.perf_counter() - start < seconds:
        batch_t0, probing = time.perf_counter(), 0.0
        for i, job in enumerate(jobs):
            out = os.path.join(workdir, f"job{i}.out")
            err = os.path.join(workdir, f"job{i}.err")
            code, secs, usage = launch([sys.executable, "-c", JOB_CODE]
                                       + job.argv, out, err)
            latencies.append(secs)
            usages.append(usage)
            outcomes.append((code, read(out)))
            if not walls and probes_after[i]:
                probe_t0 = time.perf_counter()
                setup += [probe(workdir) for _ in range(probes_after[i])]
                probing += time.perf_counter() - probe_t0
        walls.append(time.perf_counter() - batch_t0 - probing)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "job_p50_s": statistics.median(latencies),
        "peak_rss_mb": max(u.ru_maxrss for u in usages) / 1024.0,
    }

    def per_job(values):
        return {job.name: values[i::len(jobs)] for i, job in enumerate(jobs)}
    samples = {"setup_s": setup, "wall_s": walls, "job_s": per_job(latencies),
               "job_cpu_s": per_job([u.ru_utime + u.ru_stime for u in usages]),
               "job_rss_mb": per_job([u.ru_maxrss / 1024.0 for u in usages])}
    return metrics, outcomes, samples


def in_process(jobs, workdir, spans_path=None):
    """One pass of the jobs through cli.main in a fresh interpreter.  Given
    spans_path, the pass is traced: the spans are written there and the
    per-layer totals, import time included, are returned."""
    traced = spans_path is not None
    tag = "traced" if traced else "plain"
    jobs_path = os.path.join(workdir, "jobs.json")
    with open(jobs_path, "w") as fh:
        json.dump([{"name": j.name, "argv": j.argv} for j in jobs], fh)
    out_path = os.path.join(workdir, f"{tag}.json")
    err_path = os.path.join(workdir, f"{tag}.err")
    argv = [sys.executable] + (["-X", "importtime"] if traced else []) + [
        os.path.join(HERE, "tracer.py"), jobs_path, out_path] + (
        ["--trace", spans_path] if traced else [])
    code, _, _ = launch(argv, os.path.join(workdir, f"{tag}.out"), err_path)
    if code != 0:
        raise ProgramMissing("in-process runner failed:\n" + read(err_path))
    with open(out_path) as fh:
        doc = json.load(fh)
    if traced:
        doc["import_self_s"] = tracer.parse_importtime(read(err_path))
        for layer, secs in doc["import_self_s"].items():
            doc["layers"][layer]["self_s"] += secs
    return doc


def layer_metrics(plain, traced, names):
    layers = traced["layers"]
    metrics = {}
    for name in names:
        layer, key = name.split(".")
        if name == "kernels.evals_per_s":
            k = layers["kernels"]
            metrics[name] = k.get("evals", 0) / k["outer_s"] if k.get("outer_s") else 0.0
        elif name == "trace.overhead_frac":
            metrics[name] = traced["wall_s"] / plain["wall_s"] - 1.0
        else:
            metrics[name] = layers[layer].get(key, 0)
    return metrics


def spans_path(workload):
    """Where the last traced run of a workload leaves its raw spans."""
    return os.path.join(WORK, f"spans-{workload}.json")


@contextlib.contextmanager
def scratch_dir(tag):
    path = os.path.join(WORK, f"{tag}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_workload(name, seed, seconds, trace):
    units = metric_units(trace)
    with scratch_dir(f"{name}-{seed}") as workdir:
        jobs, digest = workloads.build_jobs(name, seed, workdir)
        if trace:
            plain = in_process(jobs, workdir)
            traced = in_process(jobs, workdir, spans_path(name))
            outcomes = [(r["code"], r["stdout"]) for r in traced["jobs"]]
            mismatched = [j.name for j, a, b in zip(jobs, plain["jobs"], outcomes)
                          if (a["code"], a["stdout"]) != b]
            metrics = layer_metrics(plain, traced, units)
            detail = {"plain_wall_s": plain["wall_s"],
                      "traced_wall_s": traced["wall_s"], "spans": traced["spans"],
                      "import_self_s": traced["import_self_s"],
                      "layers": traced["layers"]}
            batches = 1
        else:
            metrics, outcomes, detail = timed_run(
                jobs, workdir, seconds, workloads.MIN_BATCHES[name])
            mismatched = []
            batches = len(detail["wall_s"])
    counts, problems = tally(jobs * batches, outcomes)
    attempted = sum(counts.values())
    if not trace:
        metrics["ok_frac"] = counts["ok"] / attempted
    if mismatched:
        problems.append("traced output differs from untraced: " + ", ".join(mismatched))
    result = {
        "correct": counts["fail"] == 0 and not mismatched,
        "attempted": attempted,
        "failed": counts["fail"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = {
        "workload": name, "seed": seed, "trace": trace, "seconds": seconds,
        "inputs_sha256": digest,
        "env": environment({"jobs": len(jobs), "rows": attempted // batches,
                            "batches": batches}),
        "rows": counts, "fail_frac": (counts["fail"] + counts["tol"]) / attempted,
        "problems": problems, "detail": detail,
    }
    report(name, result, record)
    return record, result


def report(name, result, record):
    err = sys.stderr
    print(f"[{name}] seed {record['seed']}: {record['env']['jobs']} jobs, "
          f"{result['attempted']} rows, {record['rows']['fail']} failed, "
          f"{record['rows']['tol']} over tolerance, "
          f"fail_frac {record['fail_frac']:.4g}, correct={result['correct']}",
          file=err)
    for k, m in result["metrics"].items():
        print(f"[{name}]   {k:26s} {m['value']:.6g} {m['unit']}", file=err)
    if not record["trace"]:
        print(f"[{name}]   {'fail_frac':26s} {record['fail_frac']:.6g} 1", file=err)
    for p in record["problems"]:
        print(f"[{name}]   ! {p}", file=err)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "zeemanzones", "cli.py")):
        print(f"error: no zeemanzones sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            record, result = run_workload(name, args.seed, args.seconds,
                                          bool(args.trace))
            print(json.dumps(record))
            print(json.dumps(result), flush=True)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
