"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks, for every workload: a tiny pass matches the goldens (fail_frac 0);
a pass against a deliberately tampered golden reports a nonzero fail_frac;
a traced pass reports every per-layer metric and leaves eiscong unpatched.
Finally, run.py must refuse to run, without printing a result, in a
directory that holds only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import copy
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracer  # noqa: E402
import workloads as w  # noqa: E402
from eiscong import siegelseries  # noqa: E402


def tamper(name: str, golden: dict) -> dict:
    """A copy of the golden with one value the tiny pass checks made wrong."""
    bad = copy.deepcopy(golden)
    if name == "certify_sweep":
        task = next(t for t in bad["tasks"] if t["argv"][:1] == ["certify"] and t["pair"] == [14, 2])
        task["stdout"] = task["stdout"].replace('"alpha": 1', '"alpha": 2')
    elif name == "eps_series":
        bad["forms"]["1"][0] = "1/1"
    else:
        bad["values"]["10|1,0,1"] = "1/1"
    return bad


def main() -> int:
    problems = []
    for name in w.OP_LISTS:
        golden = w.load_golden(name)
        clean = w.run_pass(name, seed=7, tiny=True, golden=golden)
        if clean["attempted"] < 1 or clean["failed"]:
            problems.append(f"{name}: clean tiny pass failed: {clean['failures']}")
        tampered = w.run_pass(name, seed=7, tiny=True, golden=tamper(name, golden))
        if not tampered["failed"]:
            problems.append(f"{name}: tampered golden went unnoticed")
        local_f = siegelseries.local_F
        traced = w.run_pass(name, seed=7, tiny=True, golden=golden, tracer=tracer.Tracer())
        if set(traced["layers"]) != set(tracer.metric_names()):
            problems.append(f"{name}: traced pass reports the wrong metric set")
        if siegelseries.local_F is not local_f:
            problems.append(f"{name}: tracer left eiscong patched")
        print(
            f"{name}: {clean['attempted']} ops clean, "
            f"tampered fail_frac {tampered['failed'] / tampered['attempted']:.3f}"
        )

    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "eis_table", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append("run.py ran without the eiscong sources")

    for problem in problems:
        print(f"SELFTEST FAILED: {problem}", file=sys.stderr)
    print("selftest ok" if not problems else "selftest failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
