"""Benchmark harness for eiscong.

    python3 perfbench/run.py --workload eps_series --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every cache in eiscong is process-global,
so each pass of the workload runs in a fresh single-threaded interpreter
(perfbench/workloads.py); passes repeat, one after another, while the next
one is expected to finish within --seconds (at least one pass always runs).

--trace 0 reports the end-to-end metrics: wall_rel (median over passes of
the time of the workload's fixed work, wall_s, divided by the mean time of a
fixed reference computation sampled through the same pass), setup_s (median
time from a fresh interpreter to `import eiscong.cli` done, over several
spawns), peak_rss_mib (median peak
resident set of a pass) and eps_reach_n (the largest n <= 16 for which
epsilon(14,2,n,I) fits the enumeration budget, probed once per run).
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of perfbench/tracer.py plus trace.overhead_s.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it name each metric with
its unit, and fail_frac = failed / attempted.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SPAWNS = 11
HARD_LIMIT_S = 170  # a run must end well within 180 s
PLAN_LIMIT_S = 150  # no pass is started that should end after this

WORKLOADS = ("certify_sweep", "eps_series", "eis_table")
END_TO_END_UNITS = {"wall_rel": "ref", "setup_s": "s", "peak_rss_mib": "MiB", "eps_reach_n": "count"}


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    suffix = name.rsplit(".", 1)[-1]
    return {"self_s": "s", "overhead_s": "s", "hit_ratio": "ratio"}.get(suffix, "count")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("EISCONG_PRECISION", None)  # would change the q-expansion precision
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def spawn(cmd: list[str], env: dict[str, str], t_start: float) -> tuple[str, float]:
    """Run cmd to completion; returns (its stdout, seconds from spawn to exit).

    The child is killed once the run's hard limit passes.  A timer does the
    killing so that waiting is a plain blocking wait: subprocess's own
    timeout polls in sleeps of up to 50 ms, which would quantize the time.
    """
    start = time.perf_counter()
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True) as proc:
        timer = threading.Timer(HARD_LIMIT_S - (time.monotonic() - t_start), proc.kill)
        timer.start()
        try:
            out, _ = proc.communicate()
        finally:
            timer.cancel()
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(cmd[1:])} exited with {proc.returncode}")
    return out, elapsed


class ChildFailed(Exception):
    pass


def measure_setup(env: dict[str, str], t_start: float) -> float:
    """Median seconds from spawning an interpreter to `import eiscong.cli` done."""
    cmd = [sys.executable, "-c", "import eiscong.cli"]
    spawn(cmd, env, t_start)  # writes the bytecode caches, which users pay once
    return statistics.median(spawn(cmd, env, t_start)[1] for _ in range(SETUP_SPAWNS))


def run_pass(env, t_start, workload, seed, probe=False, spans=None) -> tuple[dict, float]:
    """One fresh-process pass, traced into `spans` if given; returns (result, elapsed seconds)."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload, "--seed", str(seed)]
    if probe:
        cmd.append("--probe")
    if spans is not None:
        cmd += ["--trace", "--spans", str(spans)]
    out, elapsed = spawn(cmd, env, t_start)
    try:
        return json.loads(out.strip().splitlines()[-1]), elapsed
    except (IndexError, json.JSONDecodeError):
        raise ChildFailed(f"{' '.join(cmd[1:])} printed no result") from None


def run_passes(env, t_start, deadline, make_pass) -> list:
    """Call make_pass(i) while the next call should end by the deadline; at least once."""
    out = []
    while True:
        result, elapsed = make_pass(len(out))
        out.append(result)
        next_end = time.monotonic() + elapsed
        if next_end > deadline or next_end - t_start > PLAN_LIMIT_S:
            return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "eiscong" / "__init__.py").is_file():
        sys.exit(f"perfbench: no eiscong sources under {ROOT / 'src'}; run from a checkout")
    sys.path.insert(0, str(HERE))
    from tracer import metric_names

    t_start = time.monotonic()
    env = child_env()
    try:
        if args.trace == 0:
            setup_s = measure_setup(env, t_start)
            deadline = time.monotonic() + args.seconds
            passes = run_passes(
                env, t_start, deadline,
                lambda i: run_pass(env, t_start, args.workload, args.seed, probe=i == 0),
            )
            metrics = {
                "wall_rel": statistics.median(
                    p["wall_s"] / statistics.fmean(p["reference_s"]) for p in passes
                ),
                "setup_s": setup_s,
                "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
                "eps_reach_n": passes[0]["eps_reach_n"],
            }
        else:
            spans = ROOT / ".bench_build" / "perfbench" / f"spans-{args.workload}.jsonl"
            spans.parent.mkdir(parents=True, exist_ok=True)
            deadline = time.monotonic() + args.seconds

            def pair(_):
                plain, t_plain = run_pass(env, t_start, args.workload, args.seed)
                traced, t_traced = run_pass(env, t_start, args.workload, args.seed, spans=spans)
                return (plain, traced), t_plain + t_traced

            pairs = run_passes(env, t_start, deadline, pair)
            passes = [p for two in pairs for p in two]
            traced = [two[1] for two in pairs]
            metrics = {
                name: statistics.median(p["layers"][name] for p in traced) for name in metric_names()
            }
            metrics["trace.overhead_s"] = statistics.median(
                p["wall_s"] for p in traced
            ) - statistics.median(two[0]["wall_s"] for two in pairs)
    except ChildFailed as exc:
        sys.exit(f"perfbench: a pass of {args.workload} did not complete: {exc}")

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for failure in sorted({f for p in passes for f in p["failures"]})[:20]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)

    print(f"{args.workload} seed={args.seed}")
    print(f"  wall_s {statistics.median(p['wall_s'] for p in passes)} s, passes: {[p['wall_s'] for p in passes]}")
    print(f"  mean reference_s per pass: {[statistics.fmean(p['reference_s']) for p in passes]}")
    for name, value in metrics.items():
        print(f"  {name} {value} {unit(name)}")
    print(f"  fail_frac {failed / attempted} ({failed}/{attempted}) share")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": v, "unit": unit(name)} for name, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
