"""Fast check of the benchmark harness itself, at toy op sizes.

    python3 perfbench/smoke_check.py

For every workload it runs ``run.py --toy`` with tracing off and on, and
asserts that the last stdout line is the result object, that every answer
passed its oracle, that exactly the metrics named in BENCHMARK.json are
emitted with their units, and that every span the workload declares fired.
It also runs the benchmark in a directory that holds only BENCHMARK.json and
this directory, where it must fail without printing a result.  Takes about a
minute; exits non-zero on the first failed assertion.
"""

import json
import math
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_runs" / "smoke-bare-checkout"


def run(root: pathlib.Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def check_result(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, f"{workload}: an answer failed its oracle"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{workload} trace={trace}: metrics differ from BENCHMARK.json: " \
        f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (name, m)
    if trace:
        assert result["metrics"]["trace.spans_missing"]["value"] == 0, proc.stdout
    print(f"ok  {workload} trace={trace}: {len(got)} metrics, "
          f"{result['failed']}/{result['attempted']} ops failed")


def check_bare_checkout() -> None:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
        shutil.copytree(HERE, SCRATCH / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(SCRATCH, "js-typical-biased", 0)
        assert proc.returncode != 0, "benchmark ran without the program's sources"
        assert '"metrics"' not in proc.stdout, "benchmark printed a result without sources"
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("ok  without src/ the benchmark fails and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_result(spec, workload, trace)
    check_bare_checkout()
    return 0


if __name__ == "__main__":
    sys.exit(main())
