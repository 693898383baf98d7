"""One benchmark child: imports spechtres.cli, runs the jobs it reads from
stdin through ``cli.run`` and prints one JSON line with the outcome.

The request is ``{"jobs": [...], "trace": bool, "spans": path or null,
"proc": int}``.  ``ready`` in the reply is ``time.perf_counter()`` right
after ``spechtres.cli`` was imported; the parent subtracts its own clock
reading taken before it started this interpreter (both read the system-wide
monotonic clock).
"""

import sys
import time

import spechtres.cli as cli

READY = time.perf_counter()

import contextlib  # noqa: E402  (imported after the set-up timestamp)
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import tracer  # noqa: E402


def run_job(entry: dict) -> dict:
    """Run one job dict; it passes when no check failed and at least one
    check passed."""
    params = {k: v for k, v in entry.items() if k != "command"}
    start = time.perf_counter()
    try:
        report = cli.run(cli.Job(entry["command"], params))
        text = cli.render_json([report])
    except Exception as exc:  # a job that cannot run counts as failed
        return {"latency_s": time.perf_counter() - start, "ok": False, "digest": None, "failed": [f"{type(exc).__name__}: {exc}"]}
    latency = time.perf_counter() - start
    failed = [c["name"] for c in report.checks if c["status"] == "fail"]
    passed = any(c["status"] == "pass" for c in report.checks)
    return {
        "latency_s": latency,
        "ok": passed and not failed,
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "failed": failed,
    }


def main() -> int:
    request = json.load(sys.stdin)
    caches = tracer.lru_caches()
    recorder = tracer.Recorder() if request["trace"] else None
    results = []
    start = time.perf_counter()
    with recorder or contextlib.nullcontext():
        for i, entry in enumerate(request["jobs"]):
            if recorder is not None:
                recorder.job = i
            results.append(run_job(entry))
    wall = time.perf_counter() - start
    reply = {
        "ready": READY,
        "module": cli.__file__,
        "wall_s": wall,
        "jobs": results,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "caches": tracer.cache_counts(caches),
    }
    if recorder is not None:
        reply["layers"] = recorder.totals()
        reply["missing"] = recorder.missing
        if request.get("spans"):
            recorder.write_jsonl(request["spans"], request["proc"])
    print(json.dumps(reply))
    return 0


if __name__ == "__main__":
    sys.exit(main())
