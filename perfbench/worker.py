"""One benchmark process: set up a workload, then (mode ``run``) answer it.

``run.py`` starts this script several times per run.  Each start prints a
``ready`` line with the CLOCK_MONOTONIC time at which the first query could
be issued, so the parent measures set-up from process start.  In ``run``
mode the script then times every query of the workload's list, checks each
answer after the timed pass, and prints one JSON result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()[:16]


def timed_pass(wl, tracer=None) -> list[tuple[float, object, str | None]]:
    """(latency, answer, error) per query, issued one after another."""
    out = []
    for q in wl.queries:
        if tracer is not None:
            tracer.query, tracer.r = q["id"], q.get("r", 0)
        t0 = time.perf_counter()
        try:
            answer, err = wl.run(q), None
        except Exception as exc:  # an unexpected raise counts as a failed query
            answer, err = None, f"{type(exc).__name__}: {exc}"
        out.append((time.perf_counter() - t0, answer, err))
    return out


def check_pass(wl, recs) -> tuple[dict[int, str], str]:
    """Failures by query id, and the digest of all answers."""
    from workloads import Failed

    results = [(q, answer, err) for q, (_, answer, err) in zip(wl.queries, recs)]
    failures: dict[int, str] = {}
    for q, answer, err in results:
        if err is not None:
            failures[q["id"]] = err
            continue
        try:
            wl.check(q, answer)
        except Failed as exc:
            failures[q["id"]] = str(exc)
        except Exception as exc:
            failures[q["id"]] = f"check raised {type(exc).__name__}: {exc}"
    for qid, msg in wl.check_all(results):
        failures.setdefault(qid, msg)
    canon = [wl.canon(q, answer) if err is None else {"error": err} for q, answer, err in results]
    return failures, digest(canon)


def latency_metrics(lat: list[float]) -> dict:
    """Median and the highest percentile with at least ten queries beyond it."""
    s = sorted(lat)
    n = len(s)
    at = n - 11 if n > 10 else n - 1  # the maximum when there are too few queries
    return {
        "wall_s": sum(lat),
        "latency_p50_ms": statistics.median(s) * 1e3,
        "latency_tail_ms": s[at] * 1e3,
        "tail_percentile": 100.0 * (at + 1) / n,
        "queries": n,
    }


def greedy_peak_bytes(wl) -> float:
    """Peak bytes per window position allocated inside greedy_search (tracemalloc).

    Runs the first two capped small-window queries of the list; kept apart
    from the timing passes because tracemalloc slows allocation-heavy code.
    """
    import sumset_ramsey as sr
    from workloads import polys_of

    picks = [q for q in wl.queries if q["op"] == "greedy" and q["cap"] and q["N"] < 1 << 17][:2]
    worst = 0.0
    for q in picks:
        w = wl.colorings[q["coloring"]].window(q["N"])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            sr.greedy_search(w, polys_of(q["polys"]), q["r"], q["maxC"], candidate_cap=q["cap"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        worst = max(worst, (peak - base) / q["N"])
    return worst


def import_probes(env: dict) -> dict:
    """Cold interpreter start, package import and sympy import, median of three."""
    rows = {"cli.interpreter_s": [], "cli.import_s": [], "cli.import_sympy_s": []}
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env, cwd=ROOT)
        rows["cli.interpreter_s"].append(time.perf_counter() - t0)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import sumset_ramsey"],
            check=True, env=env, cwd=ROOT, capture_output=True, text=True,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[0].startswith("import time:") and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
        rows["cli.import_s"].append(cumulative["sumset_ramsey"])
        rows["cli.import_sympy_s"].append(cumulative.get("sympy", 0.0))
    return {k: statistics.median(v) for k, v in rows.items()}


def layer_metrics(stats: dict, counts, extra: dict) -> dict:
    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    def self_s(name):
        return stats.get(name, {}).get("self_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in (
        "search.greedy_search", "coloring.window", "coloring.ColorWindow.mask", "search.bad_set",
        "coloring.colors_at", "search.exhaustive_search", "search.survivor_set", "coloring.in_level_set",
        "coloring.find_admissible_a0", "coloring.check_admissible", "poly.psi_eval", "poly.psi_prime",
        "poly.a_star", "coloring.recursive_log_coloring", "search.gowers_threshold", "cli.run",
        "cli.parse_coloring_spec", "dynamics.word_from_coloring", "dynamics.return_set",
        "dynamics.dichotomy_detect", "dynamics.density_profile", "witness.build_witness",
        "witness.check_sumset_identity",
    ):
        m[name + ".self_s"] = self_s(name)
        m[name + ".calls"] = calls(name)
    for name in ("coloring.window.positions", "search.bad_set.positions", "coloring.colors_at.points",
                 "coloring.colors_at.fallback_points", "poly.eval.calls"):
        m[name] = counts[name]
    m["search.survivor_set.useful_ratio"] = ratio(counts["search.survivor_set.useful"], calls("search.survivor_set"))
    checks = calls("coloring.check_admissible")
    m["coloring.check_admissible.accept_ratio"] = ratio(checks - counts["coloring.check_admissible.raised"], checks)
    m.update(extra)
    return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import sumset_ramsey

    if not Path(sumset_ramsey.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"imported sumset_ramsey from {sumset_ramsey.__file__}, not from this checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    make = WORKLOADS[args.workload]
    wl = make(args.seed, args.seconds, ROOT)
    wl.build()
    ready = time.monotonic()
    inputs = digest(wl.queries)
    print(json.dumps({"ready": ready, "inputs": inputs}), flush=True)
    if args.mode == "setup":
        return 0

    res = {
        "inputs": inputs,
        "inputs_differ_by_seed": digest(make(args.seed + 1, args.seconds, ROOT).queries) != inputs,
        "seed": args.seed,
    }
    # the traced run drives the CLI in-process, so both passes compare; an
    # unmeasured pass first fills the process-wide caches both passes share
    wl.in_process = args.workload == "cli" and bool(args.trace)
    if wl.in_process:
        timed_pass(wl)
    recs = timed_pass(wl)
    # before the checks, so the oracles' memory does not count
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" and not args.trace else resource.RUSAGE_SELF
    res["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    failures, answers = check_pass(wl, recs)
    res.update(latency_metrics([r[0] for r in recs]))
    if args.trace:
        from spans import Tracer

        greedy = [(q, a) for q, (_, a, err) in zip(wl.queries, recs) if q["op"] == "greedy" and err is None]
        hit_ratio = sum(len(a.C) >= q["floor"] for q, a in greedy) / len(greedy) if greedy else 0.0
        # a fresh set-up, so state the first pass left behind (extended
        # breakpoints, built colorings) does not change the traced pass
        wl = make(args.seed, args.seconds, ROOT)
        wl.build()
        wl.in_process = args.workload == "cli"
        tracer = Tracer()
        with tracer.installed():
            trecs = timed_pass(wl, tracer)
        tfailures, tanswers = check_pass(wl, trecs)
        for qid, msg in tfailures.items():
            failures.setdefault(qid, "traced pass: " + msg)
        res["traced_answers_match"] = tanswers == answers
        traced_wall = sum(r[0] for r in trecs)
        extra = {
            "search.greedy_search.hit_ratio": hit_ratio,
            "search.greedy_search.peak_bytes_per_position": greedy_peak_bytes(wl) if args.workload == "search" else 0.0,
            "trace.untraced_wall_s": res["wall_s"],
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - res["wall_s"],
            "trace.bench_self_s": traced_wall - tracer.top_level_s(),
            "trace.spans": len(tracer),
        }
        if args.workload == "cli":
            extra.update(import_probes(wl.env))
        else:
            extra.update({"cli.interpreter_s": 0.0, "cli.import_s": 0.0, "cli.import_sympy_s": 0.0})
        stats = tracer.layer_stats()
        res["layers"] = layer_metrics(stats, tracer.counts, extra)
        # one file pair per workload, replaced by the next traced run
        out = ROOT / ".bench_out"
        tracer.write(out / f"spans-{args.workload}.csv")
        (out / f"layers-{args.workload}.json").write_text(
            json.dumps({"seed": args.seed, "layers": stats}, indent=1, sort_keys=True) + "\n"
        )

    res["answers"] = answers
    res["failures"] = {str(k): v for k, v in sorted(failures.items())}
    print(json.dumps({"result": res}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
