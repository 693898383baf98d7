"""Benchmark of spechtres: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload resolve-large --seed 1 --seconds 40 --trace 0

Run from anywhere inside a source checkout; the program is imported from
its ``src/`` directory.  The loop is closed: one client, one child
interpreter at a time, jobs run through ``spechtres.cli.run`` with one
worker, BLAS and OpenMP pinned to one thread.  Each round of a workload
starts fresh children, so every round begins with cold caches.

With ``--trace 0`` the run makes as many rounds as fit into ``--seconds``
at the round times in ``jobs.ROUND_SECONDS`` and reports the end-to-end
metrics of BENCHMARK.json.  With ``--trace 1`` it runs one untraced and one
traced round of the same jobs, requires their reports to be byte-identical,
and reports the per-layer metrics; spans go to
``.perfbench_out/spans-<workload>-<seed>.jsonl``.

Every job's checks must pass, and a job's ``cli.render_json`` report must be
the same in every round of the run; any other outcome counts the job as
failed.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3  # job-less children started before the first round; one more follows each round
DEADLINE_S = 170.0  # a run must end within 180 s; children still running then are killed
TAIL_BEYOND = 10  # job_tail_s is the highest percentile with this many jobs above it


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(job_list: list, trace: bool, deadline: float, spans=None, proc: int = 0) -> dict:
    """Run one child to completion.  The reply carries ``setup_s``; on a
    crash or timeout it carries ``error`` instead of job results."""
    request = json.dumps({"jobs": job_list, "trace": trace, "spans": str(spans) if spans else None, "proc": proc})
    started = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "child.py")],
            input=request,
            capture_output=True,
            text=True,
            env=child_env(),
            cwd=ROOT,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        return {"error": "timed out"}
    if done.returncode != 0:
        return {"error": f"exit {done.returncode}: {done.stderr.strip()[-400:]}"}
    reply = json.loads(done.stdout.splitlines()[-1])
    if not Path(reply["module"]).resolve().is_relative_to(SRC):
        return {"error": f"imported spechtres from {reply['module']}, not from {SRC}"}
    reply["setup_s"] = reply.pop("ready") - started
    return reply


def run_round(children: list, trace: bool, deadline: float, spans=None) -> list[dict]:
    return [run_child(job_list, trace, deadline, spans, proc) for proc, job_list in enumerate(children)]


def round_jobs(replies: list[dict], children: list) -> list[dict]:
    """Per-job outcomes of a round in plan order; a crashed child fails all
    of its jobs."""
    out = []
    for reply, job_list in zip(replies, children):
        if "error" in reply:
            out += [{"latency_s": None, "ok": False, "digest": None, "failed": [reply["error"]]}] * len(job_list)
        else:
            out += reply["jobs"]
    return out


def check_rounds(outcomes: list[list[dict]]) -> tuple[list[str], int]:
    """Failed job runs, described, and the number attempted.  A job run
    fails unless its checks pass and its report is byte-identical to the
    first round's report of the same job."""
    reference = [job["digest"] for job in outcomes[0]]
    failures = []
    for r, outcome in enumerate(outcomes):
        for i, job in enumerate(outcome):
            if not job["ok"]:
                failures.append(f"round {r} job {i}: {job['failed']}")
            elif job["digest"] != reference[i]:
                failures.append(f"round {r} job {i}: report differs from round 0")
    return failures, sum(len(outcome) for outcome in outcomes)


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with TAIL_BEYOND samples above it, and its
    label; the maximum when that percentile would not lie above the median."""
    ordered = sorted(values)
    n = len(ordered)
    if n - TAIL_BEYOND <= n // 2:
        return ordered[-1], "max"
    idx = n - TAIL_BEYOND - 1
    return ordered[idx], f"p{100.0 * (idx + 1) / n:.1f}"


def calibrate(reps: int = 3) -> float:
    """Median seconds of a fixed CPU kernel: integer Python arithmetic and an
    int64 numpy product, the two kinds of work the program does most."""
    import numpy as np

    a = (np.arange(160 * 160, dtype=np.int64).reshape(160, 160) * 7919) % 65521
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        acc = 0
        for i in range(600_000):
            acc = (acc * 31 + i) % 1_000_003
        for _ in range(4):
            a = (a @ a) % 65521
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: child_env()[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def layer_metric(name: str, layers: dict, caches: dict, extra: dict) -> float:
    """Value of a per-layer metric named <span>.<kind> or a diagnostic."""
    if name in extra:
        return extra[name]
    span, _, kind = name.rpartition(".")
    if kind == "hit_ratio":
        hits, misses = caches.get(span, (0, 0))
        return hits / (hits + misses) if hits + misses else 0.0
    if kind in ("calls", "self_s", "cells", "flops"):
        return layers.get(span, {}).get(kind, 0)
    raise ValueError(f"no rule computes per-layer metric {name!r}")


def merge_layers(replies: list[dict]) -> tuple[dict, dict, list]:
    layers: dict[str, dict] = {}
    caches: dict[str, list] = {}
    missing: set = set()
    for reply in replies:
        for span, t in reply.get("layers", {}).items():
            acc = layers.setdefault(span, dict.fromkeys(t, 0))
            for key, value in t.items():
                acc[key] += value
        for cache, (hits, misses) in reply.get("caches", {}).items():
            acc = caches.setdefault(cache, [0, 0])
            acc[0] += hits
            acc[1] += misses
        missing.update(reply.get("missing", []))
    return layers, caches, sorted(missing)


def end_to_end_metrics(rounds: list, children: list, setups: list[float], failed: int, attempted: int) -> dict:
    """name -> (value, basis) for every end-to-end metric and failed_ratio.

    Contention from other tenants of the machine slows this process by up
    to a half for seconds to minutes, so each job's latency is its fastest
    run over the rounds (every round repeats the same jobs from cold), and
    wall_s, job_p50_s and job_tail_s are the sum, median and tail of those.
    """
    complete = [r for r in rounds if all("error" not in c for c in r)]
    best = []
    for runs in zip(*(round_jobs(r, children) for r in rounds)):
        times = [j["latency_s"] for j in runs if j["latency_s"] is not None]
        if times:
            best.append(min(times))
    tail_value, tail_label = tail(best)
    basis = f"over {len(best)} jobs of each job's best of {len(rounds)} rounds"
    return {
        "setup_s": (statistics.median(setups), f"median of {len(setups)} child starts"),
        "wall_s": (sum(best), f"sum {basis}"),
        "job_p50_s": (statistics.median(best), f"median {basis}"),
        "job_tail_s": (tail_value, f"{tail_label} {basis}"),
        "peak_rss_mb": (statistics.median(max(c["rss_mb"] for c in r) for r in complete), f"median over {len(complete)} rounds of the largest child"),
        "failed_ratio": (failed / attempted, f"{failed} of {attempted} jobs"),
    }


def per_layer_metrics(spec: dict, traced: list, extra: dict) -> tuple[dict, dict, dict]:
    """name -> value for every per-layer metric, plus the merged layer
    totals and cache counts behind them, which are also printed."""
    layers, caches, missing = merge_layers([c for c in traced if "error" not in c])
    for span in sorted(layers):
        t = layers[span]
        print(f"layer {span:<44} calls={t['calls']:<7} self_s={t['self_s']:.6f} cells={t['cells']} flops={t['flops']}")
    for cache in sorted(caches):
        hits, misses = caches[cache]
        print(f"cache {cache:<44} hits={hits:<7} misses={misses:<7} hit_ratio={hits / max(1, hits + misses):.4f}")
    if missing:
        print("absent from the program: " + ", ".join(missing))
    values = {m["name"]: layer_metric(m["name"], layers, caches, extra) for m in spec["per_layer"]}
    return values, layers, caches


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "spechtres" / "cli.py").is_file():
        print(f"error: no spechtres sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    deadline = time.perf_counter() + DEADLINE_S
    children = jobs.plan(args.workload, args.seed)
    env = environment()
    calibration = calibrate()

    probes = [run_child([], False, deadline) for _ in range(SETUP_PROBES)]
    broken = [p["error"] for p in probes if "error" in p]
    if broken:
        print(f"error: the program does not start: {broken[0]}", file=sys.stderr)
        return 2

    rounds = []
    n_rounds = 1 if args.trace else max(1, round(args.seconds / jobs.ROUND_SECONDS[args.workload]))
    while len(rounds) < n_rounds:
        began = time.perf_counter()
        rounds.append(run_round(children, False, deadline))
        probes.append(run_child([], False, deadline))
        if 2 * time.perf_counter() - began > deadline:
            break  # another round would be cut off by the deadline
    traced = spans = None
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        spans.unlink(missing_ok=True)
        traced = run_round(children, True, deadline, spans)

    failures, attempted = check_rounds([round_jobs(r, children) for r in rounds + ([traced] if traced else [])])
    if not any(all("error" not in c for c in r) for r in rounds):
        print(f"error: no round finished: {failures[0]}", file=sys.stderr)
        return 2
    setups = [c["setup_s"] for r in [probes] + rounds for c in r if "error" not in c]
    end_to_end = end_to_end_metrics(rounds, children, setups, len(failures), attempted)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} rounds={len(rounds)} children={len(children)}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"calibration_s {calibration:.6f}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, (value, basis) in end_to_end.items():
        print(f"{name:<12} {value:12.6f} {units.get(name, 'ratio'):<6} {basis}")
    for line in failures[:20]:
        print(f"FAILED {line}")

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "calibration_s": calibration,
        "end_to_end": {k: {"value": v, "basis": b} for k, (v, b) in end_to_end.items()},
        "rounds": {
            "wall_s": [sum(c.get("wall_s", 0.0) for c in r) for r in rounds],
            "latency_s": [[j["latency_s"] for j in round_jobs(r, children)] for r in rounds],
            "setup_s": setups,
        },
    }
    if args.trace:
        traced_wall = sum(c.get("wall_s", 0.0) for c in traced)
        extra = {"trace.overhead_ratio": traced_wall / result["rounds"]["wall_s"][0], "calibration_s": calibration}
        values, result["layers"], result["caches"] = per_layer_metrics(spec, traced, extra)
        print(f"spans {spans.relative_to(ROOT)}")
    else:
        values = {name: value for name, (value, _) in end_to_end.items()}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer" if args.trace else "end_to_end"]}

    OUT.mkdir(exist_ok=True)
    out = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
