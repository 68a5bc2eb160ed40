"""Smoke test of the benchmark itself, at toy size (about a minute).

    python3 perfbench/smoke.py

Checks that every workload runs, passes its output checks and reports every
metric of ``BENCHMARK.json`` with its unit; that two traced runs with the
same seed report identical ``.calls`` counts; that a traced function the
package no longer has is reported absent; and that the benchmark fails
without printing a result when the program's sources are absent.  Exits 1 on
the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def result_of(args):
    code, lines, err = run(args)
    check(code == 0, f"{args}: exit {code}\n{err[-2000:]}")
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{args}: keys {set(result)}")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{args}: {result['attempted']} attempted, {result['failed']} failed: "
          f"{detail['failures']}")
    return result, detail


def check(ok: bool, msg: str):
    if not ok:
        print(f"FAIL: {msg}")
        sys.exit(1)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in (w["name"] for w in bench["workloads"]):
        base = ["--workload", w, "--seed", "3", "--seconds", "1", "--size", "toy"]
        result, _ = result_of(base + ["--trace", "0"])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        check(got == e2e, f"{w}: end-to-end metrics {got} != {e2e}")
        check(all(v["value"] > 0 for v in result["metrics"].values()),
              f"{w}: a metric is not positive: {result['metrics']}")
        calls = []
        for _ in range(2):
            result, detail = result_of(base + ["--trace", "1"])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == layer, f"{w}: per-layer metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(layer))}")
            check(not detail["absent_spans"], f"{w}: absent spans {detail['absent_spans']}")
            calls.append({k: v["value"] for k, v in result["metrics"].items()
                          if k.endswith(".calls")})
        check(calls[0] == calls[1], f"{w}: traced .calls differ between identical runs")
        print(f"ok {w}")

    # a span whose function a later refactor removes is reported absent
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    from mtfact import rmtf
    from tracing import Tracer
    removed = rmtf._update_v
    del rmtf._update_v
    tracer = Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
        rmtf._update_v = removed
    check(tracer.absent == ["rmtf._update_v"], f"absent spans {tracer.absent}")
    print("ok absent span")

    bare = tempfile.mkdtemp(prefix=".perfbench-bare-", dir=ROOT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = run(["--workload", "cp_dense", "--seed", "1", "--seconds", "1"],
                             cwd=bare)
        check(code != 0 and not any(line.startswith("{") for line in lines),
              f"without sources: exit {code}, output {lines}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
