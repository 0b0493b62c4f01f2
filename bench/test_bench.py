"""The benchmark's own checks: traced counts repeat exactly and tracing
cannot change a result.

    python3 -m pytest bench/test_bench.py [-k trace|chain|tables]

Each workload takes one timed batch and two traced passes (about a
minute for `chain`).
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run          # noqa: E402
import workloads    # noqa: E402

SEED = 7


def counts(doc):
    """Every count the traced pass records: work counters and calls."""
    return {(layer, key): value
            for layer, agg in doc["layers"].items()
            for key, value in agg.items() if not key.endswith("_s")}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_and_outputs_match(workload):
    with run.scratch_dir(f"test-{workload}") as workdir:
        jobs, _ = workloads.build_jobs(workload, SEED, workdir)
        spans = os.path.join(workdir, "spans.json")
        first = run.in_process(jobs, workdir, spans)
        second = run.in_process(jobs, workdir, spans)
        _, timed, _ = run.timed_run(jobs, workdir, seconds=0, min_batches=1)

    assert counts(first)[("kernels", "evals")] > 0
    assert counts(first) == counts(second)
    traced = [(r["code"], r["stdout"]) for r in first["jobs"]]
    assert traced == timed
