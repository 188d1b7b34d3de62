#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

    python3 e2ebench/selftest.py

Runs every workload in smoke mode, untraced and traced, from the
repository root and asserts that:
  * the result line has exactly correct/attempted/failed/metrics, with
    correct true, at least one attempted exact check and none failed;
  * every end-to-end metric of BENCHMARK.json is emitted for every
    workload with its unit and a finite non-zero value;
  * every workload's report line carries the host stamp and a non-zero
    check count, and each pc-* workload graded some verdicts;
  * the traced run emits every per-layer metric of BENCHMARK.json with
    its unit.
Exits non-zero on the first failed assertion.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pc-mpi1", "pc-mpi2", "substrate-256")
HOST_KEYS = {"nproc", "hardware_concurrency", "rank_engine", "flavors", "seed", "commit",
             "steal_share"}


def run(trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all", "--smoke",
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert out.returncode == 0, f"trace {trace}: exit {out.returncode}\n{out.stderr}"
    lines = out.stdout.strip().splitlines()
    reports = [json.loads(l)["report"] for l in lines if l.startswith('{"report"')]
    return reports, json.loads(lines[-1])


def check_result(result, wanted, trace, nonzero):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, f"trace {trace}: exact checks failed"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0, f"trace {trace}: {result['failed']} failed"
    metrics = result["metrics"]
    for w in WORKLOADS:
        for m in wanted:
            key = f"{w}.{m['name']}"
            assert key in metrics, f"trace {trace}: missing {key}"
            value = metrics[key]["value"]
            assert metrics[key]["unit"] == m["unit"], f"{key}: unit {metrics[key]['unit']}"
            assert isinstance(value, (int, float)) and math.isfinite(value), key
            if nonzero:
                assert value != 0, f"{key} reads 0"
    assert len(metrics) == len(WORKLOADS) * len(wanted), "unexpected extra metrics"


def check_reports(reports, trace):
    assert [r["workload"] for r in reports] == list(WORKLOADS), reports
    for r in reports:
        assert HOST_KEYS <= set(r["host"]), f"{r['workload']}: host stamp {r['host']}"
        assert r["attempted"] > 0 and r["checks"], f"{r['workload']}: no checks"
        assert r["host"]["trace"] == trace
        if r["workload"].startswith("pc-"):
            assert r["verdict_checks"] > 0, f"{r['workload']}: no verdicts graded"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for trace, wanted, nonzero in ((0, spec["end_to_end"], True),
                                   (1, spec["per_layer"], False)):
        reports, result = run(trace)
        check_reports(reports, trace)
        check_result(result, wanted, trace, nonzero)
        print(f"trace {trace}: {len(result['metrics'])} metrics, "
              f"{result['attempted']} exact checks, "
              f"{sum(r['verdict_mismatches'] for r in reports)} of "
              f"{sum(r['verdict_checks'] for r in reports)} verdicts mismatched -- ok")
    print("e2ebench selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
