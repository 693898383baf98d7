import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

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


def test_importing_the_cli_loads_neither_the_parser_nor_the_thread_pool():
    # every job runs in a cold process, so what spechtres.cli imports at
    # module level every job pays: the argument parser loads in
    # _build_parser and the thread pool only for more than one worker
    probe = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import spechtres.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "spechtres.cli" in added
    assert added & {"argparse", "gettext", "concurrent.futures", "logging", "queue"} == set()



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
    # only ASCII digits count: these once ran as [1, 1] and [3, 2]
    for argv in (["character", "--p", "3", "--tau", "\u0661,1"], ["factors", "--p", "3", "--tau", "\u0663,2"]):
        proc = run_cli(argv)
        assert proc.returncode == 2, argv
        assert proc.stderr.startswith("error: job 0: tau must be two row lengths"), argv


def test_labels_outside_their_rules_exit_two():
    # a character diagram whose label a - b + 1 is not below p, resolve
    # labels refused only because they are not above 0, pass n + 1 or are
    # not below p, and a jm label past p - 4
    for argv in (
        ["character", "--p", "5", "--tau", "7,2"],
        ["resolve", "--p", "3", "--n", "1", "--k", "0"],
        ["resolve", "--p", "7", "--n", "2", "--k", "5"],
        ["resolve", "--p", "3", "--n", "4", "--k", "3"],
        ["jm", "--p", "5", "--k", "2", "--g", "3"],
    ):
        proc = run_cli(argv)
        assert proc.returncode == 2, argv
        assert proc.stderr.startswith("error: job 0: label k="), argv
        assert len(proc.stderr.splitlines()) == 1 and not proc.stdout, argv


def test_integer_options_take_ascii_digits_only():
    # int() also reads the decimal digits of other scripts: the first of
    # these once ran as p = 3, n = 4, k = 1 and exited 0
    for argv in (
        ["resolve", "--p", "\u0663", "--n", "\u0664", "--k", "\u0661"],
        ["--seed", "\u0661", "resolve", "--p", "3", "--n", "4", "--k", "1"],
        ["--workers", "\u0661", "resolve", "--p", "3", "--n", "4", "--k", "1"],
    ):
        proc = run_cli(argv)
        assert proc.returncode == 2, argv
        assert "error: argument" in proc.stderr and "invalid integer value" in proc.stderr, argv
        assert not proc.stdout, argv


def test_a_long_tau_row_is_refused_by_name_before_int_reads_it():
    # Python's int() refuses more than 4300 digits with its own message
    proc = run_cli(["character", "--p", "3", "--tau", "1" * 5000 + ",1"])
    assert proc.returncode == 2
    assert proc.stderr == "error: job 0: tau out of range: a row of 5000 digits\n"
    # leading zeros still count for nothing
    job = cli.Job("character", {"p": 3, "tau": "0" * 5000 + "2, 01"})
    job.validate()
    assert job.params["tau"] == [2, 1]


def test_word_parsing():
    proc = run_cli(["alexander", "--g", "2", "--word", "S1 P1", "--p", "5"])
    assert proc.returncode == 0
    assert run_cli(["alexander", "--g", "1", "--word", "P1"]).returncode == 2
    # only ASCII digits count: an Arabic-Indic one would read as S1, and a
    # superscript one passes isdigit() but not int()
    for word in ("S\u0661", "S\u00b2"):
        proc = run_cli(["alexander", "--g", "2", "--word", word])
        assert proc.returncode == 2, word
        assert "malformed token" in proc.stderr, word


def test_a_long_token_is_refused_by_name_before_int_reads_it():
    # Python's int() refuses more than 4300 digits with its own message
    with pytest.raises(ValueError, match=r"^token 'S1{19}\.\.\.' out of range for genus 2$"):
        cli.parse_word("S" + "1" * 5000, 2)
    with pytest.raises(ValueError, match=r"^malformed token 'S1{18}x\.\.\.'$"):
        cli.parse_word("S" + "1" * 18 + "x" * 5000, 2)
    # leading zeros still count for nothing
    assert cli.parse_word("S01 U0002", 2) == cli.parse_word("S1 U2", 2)
    assert cli.parse_word("S" + "0" * 5000 + "1", 2) == cli.parse_word("S1", 2)


def test_parse_word_takes_the_tokens_of_the_pool(monkeypatch):
    g = 3
    pool = cli.surf_mod.group_token_pool(g)
    swap = cli.surf_mod.perm_token((1, 3, 2), g)
    built = [cli.surf_mod.s_token(2, g), cli.surf_mod.transvection_token(3, g), swap]
    calls = []
    monkeypatch.setattr(cli.surf_mod, "_check_symplectic", calls.append)
    word = cli.parse_word("S2 U3 P2 s1 u1 p1", g)
    assert not calls
    assert word[:3] == built
    assert [pool.index(tok) for tok in word] == [1, 5, 7, 0, 3, 6]
    assert all(any(tok is t for t in pool) for tok in word)


def test_a_deeply_nested_job_file_exits_two(tmp_path, capsys):
    # json reads one nesting level per Python call
    path = tmp_path / "jobs.json"
    path.write_text("[" * 2000 + "]" * 2000)
    assert cli.main(["--jobs", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: maximum recursion depth exceeded")


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
    # a failed exactness check must name the weights with homology and the
    # complex coordinates needed to reproduce it
    import numpy as np

    from spechtres.resolution import build_complex, verify_exactness

    cx = build_complex(3, 6, 1)
    cx.maps[0] = np.zeros_like(cx.maps[0])
    rep = verify_exactness(cx)
    details = cli._exactness_details(rep)
    assert "p=3" in details and "n=6" in details and "k=1" in details
    # the zeroed first map leaves homology 1 at weights 7 and 5
    assert details.endswith("homology by weight: {7: 1, 5: 1}")


def test_factor_partition_failure_names_the_mismatched_factor(monkeypatch):
    # with simple_dim one too large the Gram dimensions still sum to the
    # Catalan number, so only the factor's dim against its dim_gram shows
    # the fault
    real = cli.factors_mod.simple_dim
    monkeypatch.setattr(cli.factors_mod, "simple_dim", lambda p, f: real(p, f) + 1)
    rep = cli.run(cli.Job("factors", {"p": 3, "tau": [6, 4]}))
    check = rep.checks[0]
    assert (check["name"], check["status"]) == ("factor-partition", "fail")
    assert check["details"] == "sum=90 catalan=90 [6,4] dim=91 dim_gram=90"


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


def test_an_empty_word_is_the_word_of_no_tokens(capsys):
    # it used to run a random word of `length` tokens
    assert cli.main(["--output", "json", "alexander", "--g", "1", "--word", "", "--length", "4"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["tokens"] == 0
    assert [c["status"] for c in rep["checks"]] == ["pass"]


def test_alexander_computes_each_trace_once(monkeypatch):
    calls = []
    for name in ("alexander_trace", "modular_quotient_trace", "word_matrix", "_component_action"):
        real = getattr(cli.surf_mod, name)
        monkeypatch.setattr(
            cli.surf_mod, name, lambda *a, real=real, name=name, **kw: calls.append(name) or real(*a, **kw)
        )
    rep = cli.run(cli.Job("alexander", {"g": 2, "word": "S1 U2", "p": 5}))
    assert rep.status == "pass"
    assert calls.count("alexander_trace") == 1
    assert calls.count("modular_quotient_trace") == 4  # one per component label 1..p-1
    # the word's matrix is formed once, and the quotient traces reduce the
    # exact matrices of the components 1..g+1
    assert calls.count("word_matrix") == 1
    assert calls.count("_component_action") == 3


def test_character_proves_invariance_once_not_per_cycle_type(monkeypatch):
    # the Specht span and the radical are proven S_n-invariant on s and z
    # once per diagram; each of the 77 cycle types of n = 12 then reads its
    # trace off the cached dual basis, with no product of its own
    from spechtres import resolution, rings, specht

    for module in (specht, resolution):  # cold, as a command runs it
        for cached in vars(module).values():
            if hasattr(cached, "cache_clear"):
                cached.cache_clear()
    calls = []
    real = rings.fp_product_equals
    monkeypatch.setattr(rings, "fp_product_equals", lambda *a: calls.append(1) or real(*a))
    rep = cli.run(cli.Job("character", {"p": 7, "tau": [7, 5]}))
    assert rep.status == "pass" and len(rep.results["table"]) == 77
    assert 2 <= len(calls) <= 4  # s and z on the span, and on the radical when it is not zero


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
    "job, command",
    [
        ({"command": "dims", "p": "5", "g": 2}, []),
        ({"command": "alexander", "g": 2, "length": "4"}, []),
        ({"command": "alexander", "g": True}, []),
        ({"command": "factors", "p": 5, "tau": [True, False]}, []),
        ({"command": "alexander", "g": 2, "length": -3}, []),
        ({"command": "jm", "p": 7, "k": 1, "g": 2, "pairs": -1}, []),
        ({"command": "alexander", "g": 2, "lenght": 50}, []),
        ({"command": "alexander", "g": 1, "word": 5}, []),
        ({"command": "selftest", "quick": "no"}, []),
        ({"command": "factors", "p": 3, "tau": "3,x"}, []),
        # only ASCII digits count: these once ran as [1, 1] and [3, 2]
        ({"command": "character", "p": 3, "tau": "\u0661,1"}, []),
        ({"command": "factors", "p": 3, "tau": "\u0663,2"}, []),
        ({"command": "alexander", "g": 2, "word": "S" + "1" * 5000}, []),
        ({"command": "resolve", "p": 3, "n": 4, "k": 1}, ["resolve", "--p", "3", "--n", "4", "--k", "1"]),
        # over the resource caps; none of these is run
        ({"command": "resolve", "p": 3, "n": 17, "k": 2}, []),
        ({"command": "resolve", "p": 223, "n": 4, "k": 1}, []),
        ({"command": "resolve", "p": 10**18 + 9, "n": 4, "k": 1}, []),
        ({"command": "character", "p": 3, "tau": [9, 8]}, []),
        ({"command": "factors", "p": 3, "tau": "10,8"}, []),
        ({"command": "dims", "p": 223, "g": 2}, []),
        ({"command": "dims", "p": 5, "g": 101}, []),
        ({"command": "fusion", "p": 223}, []),
        ({"command": "alexander", "g": 7}, []),
        ({"command": "alexander", "g": 2, "length": 1001}, []),
        ({"command": "alexander", "g": 1, "word": "S1 " * 1001}, []),
        ({"command": "alexander", "g": 2, "p": 223}, []),
        ({"command": "jm", "p": 7, "k": 1, "g": 6}, []),
        ({"command": "jm", "p": 223, "k": 1, "g": 3}, []),
        ({"command": "jm", "p": 7, "k": 1, "g": 3, "pairs": 1001}, []),
    ],
    ids=[
        "string-p", "string-length", "bool-g", "bool-tau", "negative-length", "negative-pairs",
        "unknown-key", "integer-word", "string-quick", "malformed-tau-string", "non-ascii-character-tau",
        "non-ascii-factors-tau", "long-word-token", "job-file-and-command",
        "resolve-n", "resolve-p", "huge-p", "character-tau", "factors-tau", "dims-p", "dims-g",
        "fusion-p", "alexander-g", "alexander-length", "alexander-word", "alexander-p", "jm-g", "jm-p", "jm-pairs",
    ],
)
def test_job_parameters_of_the_wrong_type_or_sign_exit_two(job, command, tmp_path, capsys):
    # in process, so that a traceback fails the test as an uncaught exception
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps([job]))
    start = time.perf_counter()
    try:
        code = cli.main(["--jobs", str(path), *command])
    except SystemExit as exc:  # usage errors leave through argparse
        code = exc.code
    assert code == 2
    assert time.perf_counter() - start < 5  # refused before any work, trial division included
    err = capsys.readouterr().err
    assert "error: " in err if command else err.startswith("error: job 0: ")


def test_workers_outside_one_to_sixty_four_exit_two(monkeypatch, tmp_path, capsys):
    # refused before run_batch, so no thread is started
    monkeypatch.setattr(cli, "run_batch", lambda *a, **kw: pytest.fail("a job ran"))
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps([{"command": "dims", "p": 5, "g": 2}]))
    selftest_entry = tmp_path / "selftest.json"
    selftest_entry.write_text(json.dumps([{"command": "selftest", "quick": True, "workers": 65}]))
    for argv in (
        ["--workers", "65", "selftest", "--quick"],
        ["--workers", "0", "selftest", "--quick"],
        ["--workers", "65", "--jobs", str(path)],
        ["--workers", "0", "--jobs", str(path)],
        ["--jobs", str(selftest_entry)],
    ):
        assert cli.main(argv) == 2, argv
        assert "workers out of range" in capsys.readouterr().err


# One job per command, as subcommand options and as a job-file entry.
_SAME_JOBS = [
    (["resolve", "--p", "3", "--n", "4", "--k", "1"], {"command": "resolve", "p": 3, "n": 4, "k": 1}),
    (["character", "--p", "5", "--tau", "3,1"], {"command": "character", "p": 5, "tau": "3 1"}),
    (["factors", "--p", "3", "--tau", "4 2"], {"command": "factors", "p": 3, "tau": [4, 2]}),
    (["dims", "--p", "5", "--g", "3"], {"command": "dims", "p": 5, "g": 3}),
    (["fusion", "--p", "7"], {"command": "fusion", "p": 7}),
    (
        ["alexander", "--g", "2", "--word", "S1 P1", "--p", "5"],
        {"command": "alexander", "g": 2, "word": "S1 P1", "p": 5, "length": 4},
    ),
    (
        ["jm", "--p", "5", "--k", "1", "--g", "3", "--pairs", "2"],
        {"command": "jm", "p": 5, "k": 1, "g": 3, "pairs": 2},
    ),
    (
        ["--seed", "2", "--workers", "3", "selftest", "--quick"],
        {"command": "selftest", "quick": True, "seed": 2, "workers": 3},
    ),
]


def test_argparse_and_job_file_give_the_same_job(tmp_path):
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps([entry for _, entry in _SAME_JOBS]))
    from_args = [cli._job_from_args(cli._build_parser().parse_args(argv)) for argv, _ in _SAME_JOBS]
    from_file = cli.load_jobs(str(path))
    for job in from_args + from_file:
        job.validate()
    assert from_args == from_file
    assert sorted(job.command for job in from_args) == sorted(cli.COMMANDS)


class _Reads(dict):
    """Parameters that record which keys the runner reads."""

    def __init__(self, params, seen):
        super().__init__(params)
        self.seen = seen

    def __getitem__(self, key):
        self.seen.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.seen.add(key)
        return super().get(key, default)


def test_every_table_key_is_read_by_its_runner_or_is_seed(monkeypatch):
    monkeypatch.setattr(cli, "run_batch", lambda jobs, workers, seed: [])  # selftest's own jobs
    seen = {command: set() for command in cli.COMMANDS}
    for command, runner in list(cli._RUNNERS.items()):
        def reading(params, rng, runner=runner, keys=seen[command]):
            return runner(_Reads(params, keys), rng)

        monkeypatch.setitem(cli._RUNNERS, command, reading)
    random_word = {"command": "alexander", "g": 1, "p": 3, "length": 2}
    for entry in [entry for _, entry in _SAME_JOBS] + [random_word]:
        rep = cli.run(cli.Job(entry["command"], {k: v for k, v in entry.items() if k != "command"}))
        assert rep.status == "pass", rep.checks
    for command, spec in cli.SCHEMA.items():
        assert set(spec.params) - {"seed"} <= seen[command], command


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


def test_a_null_seed_counts_as_absent(tmp_path, capsys):
    # a null seed once seeded the job from the operating system
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps([{"command": "alexander", "g": 2, "length": 20, "seed": None}]))
    outputs = []
    for _ in range(2):
        assert cli.main(["--output", "json", "--jobs", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    for seed in (0, 7):
        (null_seed,) = cli.load_jobs(str(path))
        no_key = cli.Job("alexander", {"g": 2, "length": 20})
        assert cli.run(null_seed, seed).results == cli.run(no_key, seed).results


@pytest.mark.parametrize("g, pairs", [(2, 3), (1, 3), (0, 0), (0, 5), (2, 0)])
def test_jm_below_genus_three_skips_what_it_cannot_sample(g, pairs):
    # below genus 3 every degree-3 form is a multiple of the 2-form, and at
    # genus 0 there is no form of positive degree
    rep = cli.run(cli.Job("jm", {"p": 5, "k": 1, "g": g, "pairs": pairs}))
    status = {c["name"]: c["status"] for c in rep.checks}
    assert status == {
        "wedge-pair-identities": "skip" if g == 0 else "pass",
        "nonsplit-witness": "skip",
        "block-homomorphism": "skip",
        "strand-resolutions": "pass",
    }


def test_jm_without_pairs_skips_the_block_homomorphism():
    # at genus 3 there are products to sample, but none is drawn
    rep = cli.run(cli.Job("jm", {"p": 5, "k": 1, "g": 3, "pairs": 0}))
    checks = {c["name"]: c for c in rep.checks}
    assert checks["block-homomorphism"]["status"] == "skip"
    assert checks["block-homomorphism"]["details"] == "no pairs drawn"
    assert rep.status == "pass"


@pytest.mark.parametrize("p, k, g, pairs", [(11, 7, 3, 1), (13, 9, 4, 2), (11, 7, 5, 2)])
def test_jm_labels_past_the_top_component_are_zero_spaces(p, k, g, pairs, capsys):
    # with k > g + 1 both factors of the block module are the zero space
    rep = cli.run(cli.Job("jm", {"p": p, "k": k, "g": g, "pairs": pairs}))
    assert "error" not in {c["name"] for c in rep.checks}
    assert rep.results["top_dim"] == rep.results["bottom_dim"] == 0
    # with both factors zero, the two checks below compare nothing
    checks = {c["name"]: c for c in rep.checks}
    for name in ("block-homomorphism", "strand-resolutions"):
        assert checks[name]["status"] == "skip"
        assert f"labels {k} and {k + 3}" in checks[name]["details"] and f"genus {g}" in checks[name]["details"]
    assert cli.main(["jm", "--p", str(p), "--k", str(k), "--g", str(g), "--pairs", str(pairs)]) == 0
    capsys.readouterr()


# Jobs at the ends of the range of every ranged parameter of every command,
# each under about 4 s in process; the other parameters sit at cheap values.
_CORNERS = [
    {"command": "resolve", "p": 3, "n": 0, "k": 1},
    {"command": "resolve", "p": 211, "n": 0, "k": 1},
    {"command": "character", "p": 3, "tau": [0, 0]},
    {"command": "character", "p": 211, "tau": [0, 0]},
    {"command": "character", "p": 3, "tau": [6, 6]},
    {"command": "character", "p": 3, "tau": [8, 8]},
    {"command": "factors", "p": 3, "tau": [0, 0]},
    {"command": "factors", "p": 211, "tau": [0, 0]},
    {"command": "dims", "p": 3, "g": 0},
    {"command": "dims", "p": 211, "g": 100},
    {"command": "fusion", "p": 3},
    {"command": "alexander", "g": 0, "word": "", "p": 3, "length": 0},
    {"command": "alexander", "g": 0, "p": 211, "length": 1000},
    {"command": "alexander", "g": 5, "length": 0},
    {"command": "alexander", "g": 5, "length": 1000, "p": 211},
    {"command": "alexander", "g": 6, "length": 1000, "p": 211},
    {"command": "alexander", "g": 1, "word": "S1 U1 " * 500},
    {"command": "jm", "p": 5, "k": 1, "g": 0, "pairs": 0},
    {"command": "jm", "p": 211, "k": 1, "g": 0, "pairs": 1000},
    {"command": "jm", "p": 7, "k": 1, "g": 5, "pairs": 0},
    {"command": "selftest", "quick": True},
    {"command": "selftest", "quick": True, "workers": 1},
    {"command": "selftest", "quick": True, "workers": 64},
]
# Ends not run, with their single cold run time on 2 vCPUs.
_SLOW_ENDS = {
    ("resolve", "n", 16): "about 20 s",
    ("factors", "tau", 16): "about 15 s",
    ("fusion", "p", 211): "about 10 s, most of it rendering its 100 MB report",
}
# Ends that no job reaches: at p = 3 no label satisfies 0 < k < p - 3.
_UNREACHABLE_ENDS = {("jm", "p", 3): {"p": 3, "k": 1, "g": 0}}


@pytest.mark.parametrize("entry", _CORNERS, ids=lambda e: ",".join(f"{k}={str(v)[:12]}" for k, v in e.items()))
def test_schema_corner_passes_with_a_stable_report(entry):
    params = {k: v for k, v in entry.items() if k != "command"}
    reports = [cli.run(cli.Job(entry["command"], dict(params))) for _ in range(2)]
    assert not [c for c in reports[0].checks if c["status"] == "fail"], reports[0].checks
    assert cli.render_json(reports[:1]) == cli.render_json(reports[1:])


def test_schema_corners_cover_every_end_of_every_range():
    for command, spec in cli.SCHEMA.items():
        for key, param in spec.params.items():
            if param.lo is None:
                continue
            size = cli._KINDS[param.kind][2]
            for end in (param.lo, param.hi):
                where = (command, key, end)
                if where in _UNREACHABLE_ENDS:
                    with pytest.raises(ValueError):
                        cli.Job(command, dict(_UNREACHABLE_ENDS[where])).validate()
                    continue
                run = any(e["command"] == command and key in e and size(e[key]) == end for e in _CORNERS)
                assert run or where in _SLOW_ENDS, where


# Per-job results and check statuses of a fixed job list.  The selftest
# report holds only check counts, so a change that alters a trace or a
# dimension without failing a check would leave it byte-identical; these
# values pin what the jobs compute.
_ALL_PASS = ("alexander-decomposition", "cyclotomic-trace-sign+", "cyclotomic-trace-sign-")
# character --p 5 --tau 6,3: each cycle type in report order, with the trace
# mod 5 on the simple quotient, which equals the alternating character sum
_CHARACTER_6_3 = [
    ((9,), 0), ((8, 1), 1), ((7, 2), 3), ((7, 1, 1), 0), ((6, 3), 1), ((6, 2, 1), 0), ((6, 1, 1, 1), 3),
    ((5, 4), 0), ((5, 3, 1), 2), ((5, 2, 2), 1), ((5, 2, 1, 1), 0), ((5, 1, 1, 1, 1), 1), ((4, 4, 1), 1),
    ((4, 3, 2), 4), ((4, 3, 1, 1), 1), ((4, 2, 2, 1), 4), ((4, 2, 1, 1, 1), 4), ((4, 1, 1, 1, 1, 1), 0),
    ((3, 3, 3), 3), ((3, 3, 2, 1), 2), ((3, 3, 1, 1, 1), 0), ((3, 2, 2, 2), 0), ((3, 2, 2, 1, 1), 1),
    ((3, 2, 1, 1, 1, 1), 4), ((3, 1, 1, 1, 1, 1, 1), 2), ((2, 2, 2, 2, 1), 2), ((2, 2, 2, 1, 1, 1), 1),
    ((2, 2, 1, 1, 1, 1, 1), 1), ((2, 1, 1, 1, 1, 1, 1, 1), 0), ((1, 1, 1, 1, 1, 1, 1, 1, 1), 1),
]
_PINNED = [
    (
        {"command": "alexander", "g": 2, "word": "S1 U2 P1", "p": 5},
        {
            "component_traces": [0, 0, 1],
            "genus": 2,
            "reduction_sign+": [1, 0, 1, 1],
            "reduction_sign-": [1, 0, 1, 1],
            "tokens": 3,
            "trace": {"-2": 1, "0": 1, "2": 1},
        },
        {name: "pass" for name in _ALL_PASS},
    ),
    (
        {"command": "alexander", "g": 3, "word": "S1 U1 P2 S3 U3", "p": 3},
        {
            "component_traces": [0, 1, -1, 1],
            "genus": 3,
            "reduction_sign+": [0, 0],
            "reduction_sign-": [0, 0],
            "tokens": 5,
            "trace": {"-1": 2, "-2": -1, "-3": 1, "0": -1, "1": 2, "2": -1, "3": 1},
        },
        {name: "pass" for name in _ALL_PASS},
    ),
    (
        {"command": "alexander", "g": 5, "word": "S1 U1", "p": 3},
        {
            "component_traces": [6, 21, 29, 20, 7, 1],
            "genus": 5,
            "reduction_sign+": [1, 0],
            "reduction_sign-": [0, 0],
            "tokens": 2,
            "trace": {
                "-1": 42, "-2": 36, "-3": 21, "-4": 7, "-5": 1,
                "0": 42, "1": 42, "2": 36, "3": 21, "4": 7, "5": 1,
            },
        },
        {name: "pass" for name in _ALL_PASS},
    ),
    (
        {"command": "jm", "p": 5, "k": 1, "g": 3, "pairs": 3},
        {
            "bottom_dim": 1,
            "candidates": 14,
            "strand_dims": {"1": {"1": 14}, "4": {"4": 1}},
            "top_dim": 14,
            "witness": "ExteriorVector(g=3, 1*a1^a2^a3)",
        },
        {
            "wedge-pair-identities": "pass",
            "nonsplit-witness": "pass",
            "block-homomorphism": "pass",
            "strand-resolutions": "pass",
        },
    ),
    (
        {"command": "jm", "p": 7, "k": 1, "g": 5, "pairs": 3},
        {
            "bottom_dim": 44,
            "candidates": 110,
            "strand_dims": {"1": {"1": 132}, "4": {"4": 44}},
            "top_dim": 132,
            "witness": "ExteriorVector(g=5, 1*a1^a2^a3)",
        },
        {
            "wedge-pair-identities": "pass",
            "nonsplit-witness": "pass",
            "block-homomorphism": "pass",
            "strand-resolutions": "pass",
        },
    ),
    # c = 5 >= p, so the bijection audit runs (on 6 pairs) instead of skipping
    (
        {"command": "factors", "p": 3, "tau": [6, 2]},
        {
            "dim": 20,
            "factors": [
                {"diagram": [6, 2], "dim": 13, "dim_gram": 13},
                {"diagram": [7, 1], "dim": 7, "dim_gram": 7},
            ],
        },
        {"factor-partition": "pass", "bijection-audit": "pass"},
    ),
    # what the Specht set-up feeds: raised bases, solvers and Gram ranks
    (
        {"command": "resolve", "p": 3, "n": 13, "k": 2},
        {"weights": [14, 10, 8, 4, 2], "dims": [1, 65, 208, 572, 429], "ranks": [1, 64, 144, 428],
         "dim_simple": 1, "truncation_index": 0},
        {"exactness": "pass", "dimension-three-way": "pass"},
    ),
    (
        {"command": "resolve", "p": 7, "n": 13, "k": 4},
        {"weights": [10, 4], "dims": [65, 572], "ranks": [65], "dim_simple": 507, "truncation_index": 2},
        {"exactness": "pass", "dimension-three-way": "pass"},
    ),
    (
        {"command": "character", "p": 5, "tau": [6, 3]},
        {"table": [{"cycle_type": list(ct), "equal": True, "lhs": t, "rhs": t} for ct, t in _CHARACTER_6_3]},
        {"character-identity": "pass"},
    ),
]


@pytest.mark.parametrize(
    "entry,results,statuses", _PINNED, ids=[",".join(f"{k}={v}" for k, v in e.items()) for e, _, _ in _PINNED]
)
def test_pinned_job_results(entry, results, statuses):
    params = {k: v for k, v in entry.items() if k != "command"}
    rep = cli.run(cli.Job(entry["command"], params))
    assert {c["name"]: c["status"] for c in rep.checks} == statuses
    assert rep.results == results


# Fuzzing main.  Every integer a draw can make is either out of its range
# or small enough that an accepted job is tiny: n, g, k, length and pairs
# at most 2 and p at most 5.
_TEXT = st.text(st.characters(exclude_categories=["Nd"]), max_size=6)  # never a number
_WORDS = ["", "0", "1", "2", "-1", "2,1", "2 2", "S1 U1", "P1", "s2 u1", "\u0661", "\u0661,1", "S\u0661",
          "S\u00b2", "1" * 5000, "S" + "1" * 5000, "1e3", "2.0", "Infinity", "NaN", "null", "true"]
_SCALARS = st.one_of(
    st.integers(-2, 2),
    st.sampled_from([2**63, -(2**63) - 1, 10**30, 10**4000]),
    st.floats(),
    st.booleans(),
    st.none(),
    _TEXT,
    st.sampled_from(_WORDS),
)
_VALUES = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=2), max_leaves=6
)
_KEYS = st.sampled_from(sorted({k for command in cli.SCHEMA.values() for k in command.params})) | _TEXT
# Parameters of tiny jobs, most of them valid.  selftest is left out: it
# runs its own job list.
_PRIMES, _SMALL = st.sampled_from([3, 5]), st.integers(0, 2)
_TINY = {  # the required parameters, then the optional ones
    "resolve": ({"p": _PRIMES, "n": _SMALL, "k": _SMALL}, {}),
    "character": ({"p": _PRIMES, "tau": st.sampled_from(["1,1", "2,1", "2 2", [2, 1], [1, 0]])}, {}),
    "factors": ({"p": _PRIMES, "tau": st.sampled_from(["2,2", "3,1", [2, 0]])}, {}),
    "dims": ({"p": _PRIMES, "g": _SMALL}, {}),
    "fusion": ({"p": _PRIMES}, {}),
    "alexander": ({"g": _SMALL}, {"word": st.sampled_from(["", "S1 U1", "P1", "s1 u2 p1"]), "p": _PRIMES, "length": _SMALL}),
    "jm": ({"p": st.just(5), "k": st.just(1), "g": _SMALL}, {"pairs": _SMALL}),
}
_TINY_JOBS = st.sampled_from(sorted(_TINY)).flatmap(
    lambda command: st.fixed_dictionaries({"command": st.just(command), **_TINY[command][0]}, optional=_TINY[command][1])
)
_ENTRIES = st.one_of(
    _TINY_JOBS,
    st.builds(lambda job, extra: {**job, **extra}, _TINY_JOBS, st.dictionaries(_KEYS, _VALUES, max_size=1)),
    st.builds(lambda command, params: {"command": command, **params}, _VALUES, st.dictionaries(_KEYS, _VALUES, max_size=3)),
    _VALUES,
)
# a job file: a list of entries, or any value, or text that is not JSON
_JOB_FILES = st.one_of(
    st.lists(_TINY_JOBS, max_size=3).map(json.dumps),
    st.lists(_ENTRIES, max_size=3).map(json.dumps),
    _VALUES.map(json.dumps),
    st.sampled_from(["", "[", "[{]", "[" * 3000 + "]" * 3000, "[1e999999]", "[" + "9" * 5000 + "]"]),
)
# an argument list: a tiny job as options, with at most one option replaced
# or added
_ARGVS = st.builds(
    lambda job, extra: [job["command"], *(x for k, v in {**job, **extra}.items() if k != "command" for x in (f"--{k}", str(v)))],
    _TINY_JOBS,
    st.dictionaries(_KEYS, st.sampled_from(_WORDS) | _TEXT, max_size=1),
)


def _main_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # usage errors leave through argparse
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_exit(code, out, err):
    assert "Traceback" not in err
    if code == 2:
        assert any(line.startswith("error: ") or ": error: " in line for line in err.splitlines()), err
        assert not out
    else:
        assert code in (0, 1) and not err, err


@settings(max_examples=60, deadline=None)
@given(text=_JOB_FILES, output=st.sampled_from(["text", "json"]))
def test_main_on_generated_job_files_exits_zero_one_or_two(text, output):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "jobs.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        _assert_exit(*_main_in_process(["--output", output, "--jobs", path]))


@settings(max_examples=60, deadline=None)
@given(argv=_ARGVS)
def test_main_on_generated_argument_lists_exits_zero_one_or_two(argv):
    _assert_exit(*_main_in_process(argv))
