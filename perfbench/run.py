"""Benchmark of the sumset_ramsey package, run from the root of a checkout.

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0

A single closed-loop client issues each query of the workload's list only
after the previous one returned.  The workload list comes from the seed; see
README.md beside this file for the workloads and why each was chosen.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
declared in BENCHMARK.json; set-up is measured several times (fresh worker
processes) and reported as the median.  With ``--trace 1`` one worker runs
the list untraced, then again with every layer wrapped in spans, and the last
line carries the per-layer metrics; spans are written to ``.bench_out/``.
The line before the last is a report: environment, digests, failures, the
tail percentile and its sample count, and ``failed_frac``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUPS = 3
DEADLINE_S = 170.0


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    env = {"nproc": os.cpu_count(), "cpu": cpu or platform.machine(), "python": platform.python_version()}
    for pkg in ("numpy", "mpmath", "sympy"):
        try:
            env[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            env[pkg] = None
    return env


def start_worker(args, mode: str, started: float) -> tuple[float, dict]:
    """Run one worker to completion; (set-up seconds, its last JSON message)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--mode", mode]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, DEADLINE_S - (t0 - started)))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: {args.workload} worker passed the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        sys.stderr.write(err[-4000:])
        raise SystemExit(f"perfbench: {mode} worker exited with code {proc.returncode}")
    lines = [json.loads(ln) for ln in out.splitlines() if ln.startswith("{")]
    return lines[0]["ready"] - t0, lines[-1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("search", "audit", "highprec", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()

    pkg = ROOT / "src" / "sumset_ramsey" / "__init__.py"
    if not pkg.is_file() or not (ROOT / "docs" / "schema.json").is_file():
        print(f"perfbench: {ROOT} holds no sumset_ramsey sources (src/, docs/schema.json)", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]

    setups, inputs = [], set()
    for _ in range(0 if args.trace else SETUPS - 1):
        setup_s, msg = start_worker(args, "setup", started)
        setups.append(setup_s)
        inputs.add(msg["inputs"])
    setup_s, msg = start_worker(args, "run", started)
    res = msg["result"]
    setups.append(setup_s)
    inputs.add(res["inputs"])

    attempted = res["queries"]
    failed = len(res["failures"])
    values = res["layers"] if args.trace else {
        "wall_s": res["wall_s"],
        "latency_p50_ms": res["latency_p50_ms"],
        "latency_tail_ms": res["latency_tail_ms"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 1
    consistent = len(inputs) == 1 and res["inputs_differ_by_seed"] and res.get("traced_answers_match", True)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "queries": attempted,
        "tail_percentile": res["tail_percentile"],
        "tail_samples": attempted,
        "failed_frac": {"value": failed / attempted, "unit": "ratio"},
        "setup_samples_s": setups,
        "input_digest": res["inputs"],
        "answer_digest": res["answers"],
        "inputs_same_across_setups": len(inputs) == 1,
        "inputs_differ_by_seed": res["inputs_differ_by_seed"],
        "failures": res["failures"],
    }
    if args.trace:
        report["traced_answers_match"] = res["traced_answers_match"]
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
