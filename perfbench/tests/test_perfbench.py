"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import jobs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from spechtres import cli, rings, specht, surface  # noqa: E402


def bindings():
    return {
        (module.__name__, name): value
        for module in tracer.spechtres_modules()
        for name, value in vars(module).items()
    } | {("BasisSolver", "coords"): vars(specht.BasisSolver)["coords"]}


def test_wrappers_return_the_same_values_and_are_restored():
    before = bindings()
    m = np.array([[1, 2, 3], [2, 4, 1], [0, 1, 1]], dtype=np.int64)
    original = rings.fp_rref
    expected = original(m, 5)
    with tracer.Recorder() as rec:
        assert specht.fp_rref is rings.fp_rref is not original
        for fn in (rings.fp_rref, specht.fp_rref, surface.fp_rref):
            got = fn(m, 5)
            assert np.array_equal(got[0], expected[0]) and got[1] == expected[1]
    assert bindings() == before
    assert [s[0] for s in rec.spans] == ["rings.fp_rref"] * 3
    assert all(s[5] == 5 and s[6] == ((3, 3),) for s in rec.spans)


def test_exceptions_propagate_and_close_the_span():
    before = bindings()
    singular = np.array([[1, 2], [2, 4]], dtype=np.int64)
    with pytest.raises(ValueError, match="singular"):
        with tracer.Recorder() as rec:
            specht.fp_inverse(singular, 3)
    assert bindings() == before
    names = [s[0] for s in rec.spans]
    assert names == ["rings.fp_inverse", "rings.fp_rref"]
    inverse, rref = rec.spans
    assert rref[3] == 0 and inverse[3] is None
    assert inverse[1] <= rref[1] <= rref[2] <= inverse[2]
    assert rec._stack == []


def test_cached_functions_and_methods_are_traced():
    diag = specht.Diagram2(3, 1)
    with tracer.Recorder() as rec:
        gram = specht.gram_of_diagram(diag)
        assert specht.gram_of_diagram.cache_info().hits >= 0
        coords = specht.basis_solver(3, 4, 3).coords(specht.basis_matrix(4, 3))
    names = [s[0] for s in rec.spans]
    assert "specht.gram_of_diagram" in names and "specht.BasisSolver.coords" in names
    assert np.array_equal(gram, specht.basis_matrix(4, 3).T @ specht.basis_matrix(4, 3))
    assert np.array_equal(coords, np.eye(coords.shape[0], dtype=np.int64))
    coords_span = next(s for s in rec.spans if s[0] == "specht.BasisSolver.coords")
    assert coords_span[5] == 3


def test_totals_count_self_time_cells_and_flops():
    a = np.arange(6, dtype=np.int64).reshape(2, 3)
    b = np.arange(12, dtype=np.int64).reshape(3, 4)
    with tracer.Recorder() as rec:
        rings.fp_matmul(a, b, 7)
        surface.fp_inverse(np.array([[1, 1], [0, 1]], dtype=np.int64), 3)
    totals = rec.totals()
    assert totals["rings.fp_matmul"]["flops"] == 2 * 2 * 3 * 4
    assert totals["rings.fp_rref"]["cells"] == 2 * 4  # the augmented [a | I]
    inverse = next(s for s in rec.spans if s[0] == "rings.fp_inverse")
    span = inverse[2] - inverse[1]
    assert totals["rings.fp_inverse"]["self_s"] + totals["rings.fp_rref"]["self_s"] == pytest.approx(span)


def test_exact_and_modular_lefschetz_spans_are_separate():
    word = cli.parse_word("S1 U2", 2)
    with tracer.Recorder() as rec:
        surface.lefschetz_action_matrix(word, 1, 2)
        surface.lefschetz_action_matrix(word, 1, 2, p=5)
    names = [s[0] for s in rec.spans if s[0].startswith("surface.lefschetz_action")]
    assert names == ["surface.lefschetz_action_matrix.exact", "surface.lefschetz_action_matrix.modp"]


def test_every_lru_cache_is_read():
    caches = tracer.lru_caches()
    assert len(caches) >= 16
    assert {"specht.gram_of_diagram", "resolution.simple_quotient", "surface.lefschetz_basis"} <= set(caches)
    counts = tracer.cache_counts(caches)
    assert all(len(v) == 2 and min(v) >= 0 for v in counts.values())


def shape(plan):
    return [[(job["command"], sorted(job)) for job in child] for child in plan]


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_plans_are_deterministic_per_seed(workload):
    assert jobs.plan(workload, 3) == jobs.plan(workload, 3)
    assert jobs.plan(workload, 3) != jobs.plan(workload, 4)
    if workload == "resolve-large":
        assert sorted(map(str, jobs.plan(workload, 3))) == sorted(map(str, jobs.plan(workload, 4)))
    else:
        assert shape(jobs.plan(workload, 3)) == shape(jobs.plan(workload, 4))


def test_plans_are_valid_jobs():
    for workload in jobs.WORKLOADS:
        for child in jobs.plan(workload, 0):
            for job in child:
                cli.Job(job["command"], {k: v for k, v in job.items() if k != "command"}).validate()
    assert len(jobs.plan("selftest-mix", 0)[0]) == len(cli._selftest_jobs(False, 0))


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, "max")
    assert run.tail(list(range(20))) == (19, "max")
    assert run.tail([float(i) for i in range(100)]) == (89.0, "p90.0")


def test_check_rounds_fails_failed_checks_and_changed_reports():
    ok = {"ok": True, "digest": "a", "failed": []}
    outcomes = [[ok, ok], [ok, dict(ok, digest="b")], [{"ok": False, "digest": None, "failed": ["error"]}, ok]]
    failures, attempted = run.check_rounds(outcomes)
    assert attempted == 6
    assert failures == ["round 1 job 1: report differs from round 0", "round 2 job 0: ['error']"]


def test_times_are_best_of_rounds():
    def child(latencies):
        jobs_ = [{"latency_s": x, "ok": True, "digest": "d", "failed": []} for x in latencies]
        return {"jobs": jobs_, "wall_s": sum(latencies), "rss_mb": 10.0}

    rounds = [[child([1.0, 4.0, 2.0])], [child([2.0, 3.0, 1.0])], [{"error": "timed out"}]]
    metrics = run.end_to_end_metrics(rounds, [[{}, {}, {}]], [0.1, 0.3, 0.2], 3, 9)
    assert metrics["wall_s"][0] == 1.0 + 3.0 + 1.0
    assert metrics["job_p50_s"][0] == 1.0 and metrics["job_tail_s"][0] == 3.0
    assert metrics["setup_s"][0] == 0.2 and metrics["failed_ratio"][0] == 3 / 9


def tiny(workload):
    """The cheapest jobs of the workload's real plan, one child each."""
    plan = jobs.plan(workload, 0)
    if workload == "resolve-large":
        return [child for child in plan if child[0]["n"] == 12 and child[0]["k"] < 3]
    first = {}
    for job in plan[0]:
        first.setdefault(job["command"], job)
    return [list(first.values())]


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_smoke_rounds_pass_and_traced_reports_match(workload, tmp_path):
    children = tiny(workload)
    deadline = run.time.perf_counter() + 120
    spans = tmp_path / "spans.jsonl"
    plain = run.run_round(children, False, deadline)
    traced = run.run_round(children, True, deadline, spans)
    failures, attempted = run.check_rounds([run.round_jobs(r, children) for r in (plain, traced)])
    assert failures == [] and attempted == 2 * sum(map(len, children))
    assert all(reply["layers"]["cli.run"]["calls"] == len(child) for reply, child in zip(traced, children))
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    assert records and {"name", "start", "end", "parent", "job", "p", "shape"} <= set(records[0])


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "selftest-mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0 and '"correct"' not in done.stdout
