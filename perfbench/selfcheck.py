#!/usr/bin/env python3
"""Self-check of the benchmark. Run from the repository root:

    python3 perfbench/selfcheck.py

For every workload in BENCHMARK.json it runs two short untraced invocations
with the same seed and one traced invocation, and checks that

  - the last stdout line is the result object with exactly the keys
    correct, attempted, failed and metrics, and the run was correct;
  - the untraced run emits every end_to_end metric with its unit, and the
    traced run every per_layer metric with its unit;
  - every end-to-end metric is non-zero, and the simulated ones are
    identical between the two untraced invocations.

Last, it runs the command in a directory holding only BENCHMARK.json and the
benchmark's own files, where it must fail without printing a result.
Exits 0 when every check passes. Takes about two minutes.
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Simulated-clock end-to-end metrics: a function of the seed alone.
DETERMINISTIC = ("sim_cycles_per_request", "served_share", "sim_goodput_per_s")


def invoke(bench, cwd, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc, what):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{what}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    res = json.loads(lines[-1])
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"], f"{what}: keys {sorted(res)}"
    assert res["correct"] is True and res["failed"] == 0, f"{what}: not correct"
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1, f"{what}: attempted"
    return res


def check_metrics(res, defs, what):
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    want = {d["name"]: d["unit"] for d in defs}
    assert got == want, f"{what}: metrics/units differ from BENCHMARK.json: {got} vs {want}"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for wl in bench["workloads"]:
        name = wl["name"]
        a = result_of(invoke(bench, ROOT, name, 7, 0), f"{name} untraced #1")
        b = result_of(invoke(bench, ROOT, name, 7, 0), f"{name} untraced #2")
        for res in (a, b):
            check_metrics(res, bench["end_to_end"], name)
            zero = [k for k, v in res["metrics"].items() if v["value"] == 0]
            assert not zero, f"{name}: zero end-to-end metrics {zero}"
        for k in DETERMINISTIC:
            va, vb = a["metrics"][k]["value"], b["metrics"][k]["value"]
            assert va == vb, f"{name}: {k} differs between invocations: {va} vs {vb}"
        t = result_of(invoke(bench, ROOT, name, 7, 1), f"{name} traced")
        check_metrics(t, bench["per_layer"], f"{name} traced")
        print(f"ok {name}", flush=True)

    bare = os.path.join(ROOT, ".bench_build", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
    proc = invoke(bench, bare, bench["workloads"][0]["name"], 7, 0)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "bare directory: the command succeeded without sources"
    assert '"metrics"' not in proc.stdout, "bare directory: a result was printed"
    print("ok bare directory fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
