import json
import os
import subprocess
import sys

import pytest

from spechtres import cli


def run_cli(args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "spechtres.cli", *args], capture_output=True, text=True, **kw
    )


def test_resolve_command_json():
    proc = run_cli(["--output", "json", "resolve", "--p", "3", "--n", "4", "--k", "1"])
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["results"]["weights"] == [5, 1]
    assert rep["results"]["dims"] == [1, 2]
    assert rep["results"]["dim_simple"] == 1
    assert all(c["status"] == "pass" for c in rep["checks"])
    assert rep["timings_ms"] == {}


def test_dims_command():
    proc = run_cli(["--output", "json", "dims", "--p", "5", "--g", "3"])
    rep = json.loads(proc.stdout)
    assert rep["results"]["multiplicities"] == [14, 14, 6, 1]
    assert rep["results"]["closed_forms"] == [14, 14, 6, 1]
    assert proc.returncode == 0


def test_package_runs_as_module_and_genus_40_dims_pass():
    # multiplicities past 2**63 must not wrap and fail the three checks
    proc = subprocess.run(
        [sys.executable, "-m", "spechtres", "--output", "json", "dims", "--p", "5", "--g", "40"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["results"]["multiplicities"][0] == 3015822567730649462578
    assert [c["status"] for c in rep["checks"]] == ["pass"] * 3



def test_closed_stdout_exits_one_without_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout now fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "spechtres", "--output", "json", "resolve", "--p", "3", "--n", "6", "--k", "1"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""

def test_usage_errors_exit_two():
    assert run_cli(["resolve", "--p", "3", "--n", "4", "--k", "2"]).returncode == 2
    assert run_cli(["resolve", "--p", "4", "--n", "4", "--k", "1"]).returncode == 2
    assert run_cli(["character", "--p", "3", "--tau", "oops"]).returncode == 2
    assert run_cli([]).returncode == 2


def test_word_parsing():
    proc = run_cli(["alexander", "--g", "2", "--word", "S1 P1", "--p", "5"])
    assert proc.returncode == 0
    assert run_cli(["alexander", "--g", "1", "--word", "P1"]).returncode == 2


def test_job_file_batch_order_and_exit():
    jobs = [
        {"command": "resolve", "p": 3, "n": 4, "k": 1},
        {"command": "dims", "p": 3, "g": 2},
        {"command": "fusion", "p": 5},
    ]
    import tempfile, os

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(jobs, fh)
        path = fh.name
    try:
        proc = run_cli(["--output", "json", "--jobs", path, "--workers", "3"])
        assert proc.returncode == 0
        reports = json.loads(proc.stdout)
        assert [r["job"]["command"] for r in reports] == ["resolve", "dims", "fusion"]
    finally:
        os.unlink(path)


def test_empty_job_file():
    import tempfile, os

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump([], fh)
        path = fh.name
    try:
        proc = run_cli(["--jobs", path])
        assert proc.returncode == 0
        assert proc.stdout.strip() == ""
    finally:
        os.unlink(path)


def test_bad_job_file_diagnostics():
    import tempfile, os

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump([{"command": "resolve", "p": 3, "n": 4, "k": 1}, {"command": "noop"}], fh)
        path = fh.name
    try:
        proc = run_cli(["--jobs", path])
        assert proc.returncode == 2
        assert "job 1" in proc.stderr
    finally:
        os.unlink(path)


def test_failing_check_gives_exit_one(monkeypatch):
    # force one failing check through a stubbed runner to test aggregation
    def bad_runner(params, rng):
        return {}, [cli._check("forced", False, "stub")]

    monkeypatch.setitem(cli._RUNNERS, "dims", bad_runner)
    jobs = [
        cli.Job("resolve", {"p": 3, "n": 4, "k": 1}),
        cli.Job("dims", {"p": 3, "g": 1}),
        cli.Job("fusion", {"p": 3}),
    ]
    reports = cli.run_batch(jobs, workers=2)
    statuses = [r.status for r in reports]
    assert statuses == ["pass", "fail", "pass"]


def test_failing_batch_exits_one_through_main(monkeypatch, tmp_path, capsys):
    def bad_runner(params, rng):
        return {}, [cli._check("forced", False, "stub")]

    monkeypatch.setitem(cli._RUNNERS, "dims", bad_runner)
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps([
        {"command": "resolve", "p": 3, "n": 4, "k": 1},
        {"command": "dims", "p": 3, "g": 1},
    ]))
    assert cli.main(["--jobs", str(path)]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] forced" in out


def test_exactness_failure_details_are_reproducible():
    # a failed exactness check must carry the offending node data and the
    # complex coordinates needed to reproduce it
    import numpy as np

    from spechtres.resolution import build_complex, verify_exactness

    cx = build_complex(3, 6, 1)
    cx.maps[0] = np.zeros_like(cx.maps[0])
    rep = verify_exactness(cx)
    details = cli._exactness_details(rep)
    assert "p=3" in details and "n=6" in details and "k=1" in details
    assert "dim_ker" in details


def test_unexpected_error_becomes_failed_check(monkeypatch):
    def boom(params, rng):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._RUNNERS, "fusion", boom)
    rep = cli.run(cli.Job("fusion", {"p": 3}))
    assert rep.status == "fail"
    assert rep.checks[0]["name"] == "error"


def test_overflow_is_an_error_not_a_decomposition_failure(monkeypatch):
    def overflow(word, g):
        raise OverflowError("int too large")

    def mismatch(word, g):
        raise cli.surf_mod.DecompositionError("stub")

    monkeypatch.setattr(cli.surf_mod, "alexander_trace", overflow)
    rep = cli.run(cli.Job("alexander", {"g": 1, "word": "S1"}))
    assert [c["name"] for c in rep.checks] == ["error"]
    assert rep.checks[0]["details"].startswith("OverflowError")
    monkeypatch.setattr(cli.surf_mod, "alexander_trace", mismatch)
    rep = cli.run(cli.Job("alexander", {"g": 1, "word": "S1"}))
    assert [(c["name"], c["status"]) for c in rep.checks] == [("alexander-decomposition", "fail")]


def test_long_random_word_passes_all_three_checks():
    # the word's coefficients pass 2**100; they used to overflow int64
    proc = subprocess.run(
        [sys.executable, "-m", "spechtres", "--output", "json", "alexander", "--g", "2", "--p", "5", "--length", "1000"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert [c["status"] for c in rep["checks"]] == ["pass"] * 3


@pytest.mark.parametrize(
    "job",
    [
        {"command": "dims", "p": "5", "g": 2},
        {"command": "alexander", "g": 2, "length": "4"},
        {"command": "alexander", "g": True},
        {"command": "factors", "p": 5, "tau": [True, False]},
        {"command": "alexander", "g": 2, "length": -3},
        {"command": "jm", "p": 7, "k": 1, "g": 2, "pairs": -1},
    ],
    ids=["string-p", "string-length", "bool-g", "bool-tau", "negative-length", "negative-pairs"],
)
def test_job_parameters_of_the_wrong_type_or_sign_exit_two(job, tmp_path):
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps([job]))
    proc = run_cli(["--jobs", str(path)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: job 0: ") and "Traceback" not in proc.stderr


def test_batch_order_independent_of_workers():
    jobs = [cli.Job("resolve", {"p": 3, "n": n, "k": 2 - (n + 1) % 2}) for n in range(2, 8)]
    seq = [r.to_dict() for r in cli.run_batch(jobs, workers=1)]
    par = [r.to_dict() for r in cli.run_batch(jobs, workers=4)]
    assert seq == par


def test_concurrent_duplicate_jobs_share_caches_safely():
    # identical heavy jobs raced across threads must agree with the serial run
    jobs = [cli.Job("resolve", {"p": 5, "n": 10, "k": 1}) for _ in range(8)]
    serial = [r.to_dict() for r in cli.run_batch(jobs, workers=1)]
    raced = [r.to_dict() for r in cli.run_batch(jobs, workers=8)]
    assert serial == raced


def test_selftest_quick_in_process():
    rep = cli.run(cli.Job("selftest", {"quick": True, "seed": 0, "workers": 2}))
    assert rep.status == "pass"
    assert rep.results["check_counts"]["fail"] == 0


def test_check_names_cover_acceptance_map():
    # every selftest sub-check name used by the runners is a stable label
    rep = cli.run(cli.Job("selftest", {"quick": True, "seed": 0, "workers": 1}))
    assert rep.checks[0]["name"] == "selftest"
