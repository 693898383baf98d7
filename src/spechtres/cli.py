"""Command-line driver: single jobs, batch job files, JSON reports, and
the selftest suite that binds every module to its checkable claims.

Jobs are pure computations; a batch may run them on a thread pool and the
aggregate report preserves file order no matter how they were scheduled.
Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
parse errors.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import dims as dims_mod
from . import extension as ext_mod
from . import factors as factors_mod
from . import resolution as res_mod
from . import surface as surf_mod
from .rings import fp_matmul, is_prime
from .specht import Diagram2, cycle_type_representative, partitions


@dataclass
class Job:
    command: str
    params: dict = field(default_factory=dict)

    def validate(self):
        """Check the parameters against the command's table; a `tau` given
        as a string becomes a pair.  Raises ValueError naming the fault."""
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        spec = SCHEMA[self.command]
        unknown = [str(k) for k in self.params if k not in spec.params]
        if unknown:
            raise ValueError(f"unknown parameters: {', '.join(unknown)}")
        missing = [k for k, param in spec.params.items() if param.required and self.params.get(k) is None]
        if missing:
            raise ValueError(f"missing parameters: {', '.join(missing)}")
        self.params = {k: v if v is None else spec.params[k].check(k, v) for k, v in self.params.items()}
        if spec.check:
            spec.check(spec.with_defaults(self.params))


@dataclass
class Report:
    job: dict
    results: dict
    checks: list
    timings_ms: dict

    @property
    def status(self) -> str:
        if any(c["status"] == "fail" for c in self.checks):
            return "fail"
        return "pass"

    def to_dict(self) -> dict:
        return {
            "job": self.job,
            "results": self.results,
            "checks": self.checks,
            "timings_ms": self.timings_ms,
        }


def _check(name: str, ok: bool, details: str = "") -> dict:
    return {"name": name, "status": "pass" if ok else "fail", "details": details}


def _skip(name: str, details: str) -> dict:
    return {"name": name, "status": "skip", "details": details}


# ---------------------------------------------------------------------------
# job schema
#
# One table per command gives each parameter's kind, whether it is required,
# its default, its range and its help text; Job.validate, the subcommand
# options and job-file loading all read it.  The upper end of each range is
# a resource cap: every job inside the caps finishes within 60 s and 4 GB in
# a single cold run on 2 vCPUs with 8 GB (README, "Command line").


# int() refuses decimal strings of more digits, with its own message
_INT_DIGITS = 4300


def _diagram(key, x):
    """tau as a list [a, b] with a >= b >= 0, from a pair or from "a,b".  A
    row counts only in ASCII digits and is read without its leading zeros;
    one of more digits than int() reads (_INT_DIGITS) is refused before
    int() sees it."""
    if isinstance(x, str):
        rows, x = x.replace(",", " ").split(), []
        for r in rows:
            digits = r.lstrip("0") or "0"
            if not (r.isascii() and r.isdecimal()):
                x.append(r)
            elif len(digits) > _INT_DIGITS:
                raise ValueError(f"{key} out of range: a row of {len(digits)} digits")
            else:
                x.append(int(digits))
    if not (isinstance(x, (list, tuple)) and len(x) == 2 and all(type(r) is int for r in x) and x[0] >= x[1] >= 0):
        raise ValueError(f"{key} must be two row lengths a >= b >= 0, got {x!r}")
    return list(x)


def integer(text: str) -> int:
    """An integer option from ASCII text only: int() alone also reads the
    decimal digits of other scripts, which a job file cannot carry.
    argparse names the function in its refusal: "invalid integer value"."""
    if not text.isascii():
        raise ValueError(text)
    return int(text)


# kind: (Python type, its name in messages, the size its range bounds,
# argparse keywords)
_KINDS = {
    "int": (int, "an integer", int, {"type": integer}),
    "prime": (int, "an integer", int, {"type": integer}),
    "bool": (bool, "true or false", None, {"action": "store_true"}),
    "word": (str, "a string", lambda w: len(w.split()), {}),
    "tau": (list, "two row lengths", sum, {}),
}


@dataclass(frozen=True)
class Param:
    kind: str
    help: str
    required: bool = False
    default: object = None
    lo: int | None = None
    hi: int | None = None
    # "sub": an option of the subcommand; "global": filled from the top-level
    # option of the same name; "": job files only
    cli: str = "sub"

    def check(self, key, value):
        want, name, size, _ = _KINDS[self.kind]
        if self.kind == "tau":
            value = _diagram(key, value)
        if type(value) is not want:  # exact: a bool is no genus
            raise ValueError(f"{key} must be {name}, got {value!r}")
        if self.lo is not None and not self.lo <= size(value) <= self.hi:
            raise ValueError(f"{key} out of range: {size(value)} not in [{self.lo}, {self.hi}]")
        # after the range, which bounds the trial division
        if self.kind == "prime" and not is_prime(value):
            raise ValueError(f"{key} must be an odd prime, got {value}")
        return value


@dataclass(frozen=True)
class Command:
    help: str
    params: dict
    check: object = None  # rule across parameters; raises ValueError

    def __post_init__(self):
        self.params.setdefault("seed", _SEED)  # every command takes one

    def with_defaults(self, params: dict) -> dict:
        """The parameters given, a null counting as absent, over the defaults."""
        given = {k: v for k, v in params.items() if v is not None}
        return {**{k: param.default for k, param in self.params.items() if param.default is not None}, **given}


def _resolve_label(q):
    res_mod.complex_weights(q["p"], q["n"], q["k"])


def _character_label(q):
    tau = Diagram2(*q["tau"])
    res_mod.complex_weights(q["p"], tau.n, tau.c)


def _alexander_word(q):
    if q.get("word") is not None:
        parse_word(q["word"], q["g"])


def _jm_label(q):
    ext_mod.jm_label(q["p"], q["k"])


_SEED = Param("int", "seed of the job's random choices", default=0, cli="")


SCHEMA = {
    "resolve": Command("build one complex and verify exactness", {
        "p": Param("prime", "an odd prime", True, lo=3, hi=211),
        "n": Param("int", "degree", True, lo=0, hi=16),
        "k": Param("int", "label: 0 < k < p, k <= n + 1, n + 1 - k even", True),
    }, _resolve_label),
    "character": Command("modular character identity over all cycle types", {
        "p": Param("prime", "an odd prime", True, lo=3, hi=211),
        "tau": Param("tau", "two row lengths, e.g. 3,2", True, lo=0, hi=16),
    }, _character_label),
    "factors": Command("composition factor oracle and partition check", {
        "p": Param("prime", "an odd prime", True, lo=3, hi=211),
        "tau": Param("tau", "two row lengths, e.g. 6,4", True, lo=0, hi=16),
    }),
    "dims": Command("genus multiplicities and closed forms", {
        "p": Param("prime", "an odd prime", True, lo=3, hi=211),
        "g": Param("int", "genus", True, lo=0, hi=100),
    }),
    "fusion": Command("fusion table, norms and growth polynomial", {
        "p": Param("prime", "an odd prime", True, lo=3, hi=211),
    }),
    "alexander": Command("weighted trace and its reductions", {
        "g": Param("int", "genus", True, lo=0, hi=6),
        "word": Param("word", "token word, e.g. 'S1 U2 P1'; random when absent", lo=0, hi=1000),
        "p": Param("prime", "an odd prime", lo=3, hi=211),
        "length": Param("int", "length of the random word", default=4, lo=0, hi=1000),
    }, _alexander_word),
    "jm": Command("block extension suite", {
        "p": Param("prime", "an odd prime", True, lo=3, hi=211),
        "k": Param("int", "label: 0 < k < p - 3", True),
        "g": Param("int", "genus", True, lo=0, hi=5),
        "pairs": Param("int", "random products checked", default=10, lo=0, hi=1000),
    }, _jm_label),
    "selftest": Command("run the acceptance checks", {
        "quick": Param("bool", "the smaller job list"),
        "seed": Param("int", "", default=0, cli="global"),
        "workers": Param("int", "", default=1, lo=1, hi=64, cli="global"),
    }),
}
COMMANDS = tuple(SCHEMA)


def parse_word(text: str, g: int) -> list:
    """Word grammar: whitespace-separated tokens S<j> (local rotation),
    U<j> (transvection), P<i> (adjacent handle swap), in ASCII.  The tokens
    are those of surface.group_token_pool(g), which holds S1..Sg, U1..Ug
    and P1..P(g-1) in that order."""
    pool = surf_mod.group_token_pool(g)
    word = []
    for tok in text.split():
        kind, num = tok[0].upper(), tok[1:].lstrip("0")
        shown = repr(tok[:20] + "..." if len(tok) > 20 else tok)
        if not (tok.isascii() and tok[1:].isdigit()):
            raise ValueError(f"malformed token {shown}")
        # int() reads no number longer than g's, leading zeros aside
        j = int(num) if 0 < len(num) <= len(str(g)) else 0
        if kind in ("S", "U", "P") and 1 <= j <= (g - 1 if kind == "P" else g):
            word.append(pool["SUP".index(kind) * g + j - 1])
        else:
            raise ValueError(f"token {shown} out of range for genus {g}")
    return word


# ---------------------------------------------------------------------------
# command implementations


def _run_resolve(params, rng) -> tuple[dict, list]:
    p, n, k = params["p"], params["n"], params["k"]
    cx = res_mod.build_complex(p, n, k)
    rep = res_mod.verify_exactness(cx)
    gram_dim = res_mod.simple_quotient(p, Diagram2.from_weight(n, k)).quotient_dim
    counted = dims_mod.d_dim(p, n, k)
    checks = [
        _check("exactness", rep["exact"], _exactness_details(rep)),
        _check(
            "dimension-three-way",
            rep["dim_simple"] == counted == gram_dim,
            f"report={rep['dim_simple']} catalan-sum={counted} gram={gram_dim}",
        ),
    ]
    results = {
        "weights": rep["weights"],
        "dims": rep["dims"],
        "ranks": rep["ranks"],
        "dim_simple": rep["dim_simple"],
        "truncation_index": cx.l,
    }
    return results, checks


def _exactness_details(rep) -> str:
    if rep["exact"]:
        return ""
    bad = {w: h for w, h in zip(rep["weights"], rep["homology"]) if h}
    return f"p={rep['p']} n={rep['n']} k={rep['k']} homology by weight: {bad}"


def _run_character(params, rng) -> tuple[dict, list]:
    p = params["p"]
    a, b = params["tau"]
    tau = Diagram2(a, b)
    rows = []
    all_ok = True
    for ct in partitions(tau.n):
        sigma = cycle_type_representative(ct, tau.n)
        lhs, rhs, ok = res_mod.modular_character_check(p, tau, sigma)
        rows.append({"cycle_type": list(ct), "lhs": lhs, "rhs": rhs, "equal": ok})
        all_ok = all_ok and ok
    return {"table": rows}, [_check("character-identity", all_ok)]


def _run_factors(params, rng) -> tuple[dict, list]:
    p = params["p"]
    a, b = params["tau"]
    tau = Diagram2(a, b)
    ctx = factors_mod.make_context(tau, p)
    flist = factors_mod.composition_factors(ctx)
    entries = []
    total = 0
    mismatched = ""  # each factor whose two dimensions differ, named
    for f in flist:
        dim_comb = factors_mod.simple_dim(p, f)
        dim_gram = res_mod.simple_quotient(p, f).quotient_dim
        entries.append({"diagram": [f.a, f.b], "dim": dim_comb, "dim_gram": dim_gram})
        total += dim_gram
        if dim_comb != dim_gram:
            mismatched += f" {f} dim={dim_comb} dim_gram={dim_gram}"
    catalan_dim = dims_mod.catalan(tau.n, tau.b)
    checks = [
        _check(
            "factor-partition",
            total == catalan_dim and not mismatched,
            f"sum={total} catalan={catalan_dim}{mismatched}",
        )
    ]
    c0 = ctx.digit(0)
    if c0 and tau.a - tau.b >= 2 * c0 and ctx.k_tau is not None:
        audit = factors_mod.phi_bijection(ctx)
        checks.append(_check("bijection-audit", audit["ok"], f"pairs={len(audit['pairs'])}"))
    else:
        checks.append(_skip("bijection-audit", "context outside the bijection preconditions"))
    return {"factors": entries, "dim": catalan_dim}, checks


def _run_dims(params, rng) -> tuple[dict, list]:
    p, g = params["p"], params["g"]
    profile = dims_mod.verlinde_profile(p, g)
    assembled = tuple(
        sum(count * dims_mod.d_dim(p, n, k) for n, count in surf_mod.lefschetz_block_counts(k, g))
        for k in range(1, p)
    )
    checks = [
        _check("verlinde-dims", profile == assembled, f"fusion={profile} assembled={assembled}"),
        _check("squares-doubling", dims_mod.squares_doubling_check(p, g)["ok"]),
    ]
    results = {"multiplicities": list(profile)}
    if p == 5:
        closed = dims_mod.closed_form_genus_dims(g)
        checks.append(_check("fibonacci-closed-forms", closed == profile, f"closed={closed}"))
        results["closed_forms"] = list(closed)
    return results, checks


def _run_fusion(params, rng) -> tuple[dict, list]:
    p = params["p"]
    labels = [dims_mod.fusion_label(p, k) for k in range(1, p)]
    table = {}
    for i, x in enumerate(labels, start=1):
        for j, y in enumerate(labels, start=1):
            table[f"{i}*{j}"] = list((x * y).mults)
    assoc = True
    comm = True
    for _ in range(25):
        x, y, z = (labels[rng.randrange(p - 1)] for _ in range(3))
        assoc = assoc and (x * y) * z == x * (y * z)
        comm = comm and x * y == y * x
    unit_ok = all(labels[0] * x == x for x in labels)
    norm_big, norm_small = dims_mod.perron_norms(p)
    pow_big, pow_small = dims_mod.perron_power_iteration(p)
    poly = dims_mod.growth_polynomial(p)
    checks = [
        _check("fusion-associativity", assoc),
        _check("fusion-commutativity", comm),
        _check("fusion-unit", unit_ok),
        _check(
            "perron-norms",
            abs(norm_big - pow_big) < 1e-9 and abs(norm_small - pow_small) < 1e-9,
            f"closed=({norm_big:.12f},{norm_small:.12f}) iterated=({pow_big:.12f},{pow_small:.12f})",
        ),
        _check(
            "growth-polynomial",
            dims_mod.growth_identity(p),
            f"R_p(|f|)={poly(norm_small):.12f} |F|={norm_big:.12f}",
        ),
    ]
    return {"table": table, "growth_polynomial": list(poly.dense())}, checks


def _run_alexander(params, rng) -> tuple[dict, list]:
    g = params["g"]
    if params.get("word") is not None:
        word = parse_word(params["word"], g)
    else:
        word = surf_mod.random_group_word(g, params["length"], rng)
    try:
        at = surf_mod.alexander_trace(word, g)
        decomposition_ok = True
    except surf_mod.DecompositionError:
        at = None
        decomposition_ok = False
    checks = [_check("alexander-decomposition", decomposition_ok)]
    results: dict = {"genus": g, "tokens": len(word)}
    if at is not None:
        results["trace"] = {str(e): c for e, c in at.polynomial.terms()}
        results["component_traces"] = list(at.component_traces)
    p = params.get("p")
    if p and at is not None:
        traces = {j: surf_mod.modular_quotient_trace(p, j, at) for j in range(1, p)}
        for sign in (1, -1):
            rep = surf_mod.cyclotomic_reduction_check(p, at, traces, sign)
            checks.append(
                _check(f"cyclotomic-trace-sign{'+' if sign > 0 else '-'}", rep["ok"])
            )
            results[f"reduction_sign{'+' if sign > 0 else '-'}"] = list(rep["lhs"].coords)
    return results, checks


def _run_jm(params, rng) -> tuple[dict, list]:
    p, k, g = params["p"], params["k"], params["g"]
    if g:
        idents = ext_mod.wedge_pair_identities(min(g, 2), seed=params["seed"], samples=6)
        checks = [_check("wedge-pair-identities", idents["ok"], str({k: v for k, v in idents.items() if not v}))]
    else:
        checks = [_skip("wedge-pair-identities", "genus 0 has no forms of positive degree to sample")]
    witness_rep = ext_mod.nonsplit_witness(p, k, g)
    results: dict = {
        "top_dim": witness_rep["top_dim"],
        "bottom_dim": witness_rep["bottom_dim"],
        "candidates": witness_rep["candidates"],
    }
    if witness_rep["witness"] is None:
        checks.append(_skip("nonsplit-witness", witness_rep.get("reason", "none found")))
    else:
        results["witness"] = repr(witness_rep["witness"])
        section = ext_mod.equivariant_section_exists(p, k, g, witness_rep["witness"])
        checks.append(_check("nonsplit-witness", not section["splits"], "no equivariant section"))
    mod = ext_mod.block_module(p, k, 3, g)
    _, _, complement, masks = ext_mod.form_quotient_data(p, 3, g)
    if mod.top_dim + mod.bottom_dim == 0:
        checks.append(_skip("block-homomorphism", f"labels {k} and {k + 3} are zero spaces at genus {g}"))
    elif not params["pairs"]:
        checks.append(_skip("block-homomorphism", "no pairs drawn"))
    elif not complement:
        checks.append(_skip("block-homomorphism", f"no degree-3 forms outside the 2-form multiples at genus {g}"))
    else:
        hom_ok = True
        for _ in range(params["pairs"]):
            def rand_elem():
                x = surf_mod.ExteriorVector(
                    g, {masks[complement[rng.randrange(len(complement))]]: rng.randrange(1, p) for _ in range(2)}
                )
                return ext_mod.JmElement(x, rng.randrange(1, p), tuple(surf_mod.random_group_word(g, rng.randrange(0, 3), rng)))

            e1, e2 = rand_elem(), rand_elem()
            lhs = ext_mod.block_action_matrix(ext_mod.jm_multiply(e1, e2, g), mod)
            rhs = fp_matmul(ext_mod.block_action_matrix(e1, mod), ext_mod.block_action_matrix(e2, mod), p)
            hom_ok = hom_ok and bool(np.array_equal(lhs, rhs))
        checks.append(_check("block-homomorphism", hom_ok))
    strands = ext_mod.strand_resolution_check(p, k, g)
    if any(s["blocks"] for s in strands["strands"].values()):
        checks.append(_check("strand-resolutions", strands["exact"]))
    else:
        checks.append(_skip("strand-resolutions", f"labels {k} and {k + 3} have no strand block at genus {g}"))
    results["strand_dims"] = {
        str(label): {str(w): d for w, d in s["surface_term_dims"].items()}
        for label, s in strands["strands"].items()
    }
    return results, checks


# ---------------------------------------------------------------------------
# selftest


def _selftest_jobs(quick: bool, seed: int) -> list[Job]:
    n_max = 8 if quick else 12
    jobs: list[Job] = []
    for p in (3, 5, 7):
        for n in range(1, n_max + 1):
            for k in res_mod.complex_labels(p, n):
                jobs.append(Job("resolve", {"p": p, "n": n, "k": k}))
    for command, top_n in (("character", 5 if quick else 9), ("factors", n_max)):
        for p in (3, 5, 7):
            for n in range(2, top_n + 1):
                for k in reversed(res_mod.complex_labels(p, n)):
                    tau = Diagram2.from_weight(n, k)
                    jobs.append(Job(command, {"p": p, "tau": [tau.a, tau.b]}))
    for p in (3, 5, 7):
        for g in range(0, (4 if quick else 5) + 1):
            jobs.append(Job("dims", {"p": p, "g": g}))
    for p in (3, 5, 7, 11, 13):
        jobs.append(Job("fusion", {"p": p}))
    for g in (1, 2) if quick else (1, 2, 3):
        for i in range(3 if quick else 6):
            jobs.append(Job("alexander", {"g": g, "p": 5 if g < 3 else 3, "length": 4, "seed": seed + i}))
    jobs.append(Job("jm", {"p": 5, "k": 1, "g": 3, "pairs": 6 if quick else 20, "seed": seed}))
    return jobs


def _run_selftest(params, rng) -> tuple[dict, list]:
    quick = bool(params.get("quick"))
    seed = params["seed"]
    workers = params["workers"]
    jobs = _selftest_jobs(quick, seed)
    reports = run_batch(jobs, workers=workers, seed=seed)
    checks = []
    counts = {"pass": 0, "fail": 0, "skip": 0}
    for rep in reports:
        for c in rep.checks:
            counts[c["status"]] += 1
            if c["status"] == "fail":
                checks.append(
                    _check(f"{rep.job['command']}:{c['name']}", False, json.dumps(rep.job, sort_keys=True) + " " + c["details"])
                )
    checks.insert(0, _check("selftest", counts["fail"] == 0, f"{counts['pass']} pass, {counts['fail']} fail, {counts['skip']} skip"))
    results = {
        "mode": "quick" if quick else "full",
        "jobs": len(jobs),
        "check_counts": counts,
    }
    return results, checks


_RUNNERS = {
    "resolve": _run_resolve,
    "character": _run_character,
    "factors": _run_factors,
    "dims": _run_dims,
    "fusion": _run_fusion,
    "alexander": _run_alexander,
    "jm": _run_jm,
    "selftest": _run_selftest,
}


def run(job: Job, seed: int = 0) -> Report:
    """Execute one job.  Deterministic given (job params, seed); timing
    information never enters the JSON body so reports stay byte-stable."""
    job.validate()
    t0 = time.perf_counter()
    given = job.params.get("seed")  # a null seed counts as absent
    rng = random.Random(seed if given is None else given)
    params = SCHEMA[job.command].with_defaults(job.params)
    try:
        results, checks = _RUNNERS[job.command](params, rng)
    except Exception as exc:  # surfaced as a failed check, not a crash
        results, checks = {}, [_check("error", False, f"{type(exc).__name__}: {exc}")]
    elapsed = (time.perf_counter() - t0) * 1000.0
    # worker count is scheduling information, not job identity
    echo = {k: v for k, v in job.params.items() if k != "workers"}
    rep = Report({"command": job.command, **echo}, results, checks, {})
    rep._elapsed_ms = elapsed  # text output only
    return rep


def run_batch(jobs: list[Job], workers: int = 1, seed: int = 0) -> list[Report]:
    """Run jobs, possibly concurrently; the result list preserves job order
    regardless of scheduling."""
    if workers <= 1:
        return [run(j, seed) for j in jobs]
    from concurrent.futures import ThreadPoolExecutor  # loaded here, so a run without a pool never loads it

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda j: run(j, seed), jobs))


# ---------------------------------------------------------------------------
# rendering and entry point


def render_text(rep: Report) -> str:
    lines = [f"== {rep.job['command']} {json.dumps({k: v for k, v in rep.job.items() if k != 'command'}, sort_keys=True)}"]
    for key, val in rep.results.items():
        lines.append(f"  {key}: {val}")
    for c in rep.checks:
        mark = {"pass": "ok", "fail": "FAIL", "skip": "skip"}[c["status"]]
        detail = f" ({c['details']})" if c["details"] else ""
        lines.append(f"  [{mark}] {c['name']}{detail}")
    if hasattr(rep, "_elapsed_ms"):
        lines.append(f"  elapsed: {rep._elapsed_ms:.1f} ms")
    return "\n".join(lines)


def render_json(reports: list[Report]) -> str:
    if len(reports) == 1:
        return json.dumps(reports[0].to_dict(), sort_keys=True, indent=2)
    return json.dumps([r.to_dict() for r in reports], sort_keys=True, indent=2)


def _build_parser() -> argparse.ArgumentParser:
    import argparse  # loaded here, so importing cli to run jobs never loads it

    ap = argparse.ArgumentParser(prog="spechtres", description=__doc__)
    ap.add_argument("--output", choices=("text", "json"), default="text")
    ap.add_argument("--seed", type=integer, default=0)
    ap.add_argument("--jobs", help="JSON file with a list of job objects")
    ap.add_argument("--workers", type=integer, default=1)
    sub = ap.add_subparsers(dest="command")
    for name, spec in SCHEMA.items():
        sp = sub.add_parser(name, help=spec.help)
        for key, param in spec.params.items():
            if param.cli == "sub":
                text = param.help if param.lo is None else f"{param.help} [{param.lo}, {param.hi}]"
                options = {"required": param.required, "default": param.default, "help": text, **_KINDS[param.kind][3]}
                sp.add_argument(f"--{key}", **options)
    return ap


def _job_from_args(args) -> Job:
    params = SCHEMA[args.command].params
    return Job(args.command, {k: getattr(args, k) for k in params if params[k].cli and getattr(args, k) is not None})


def load_jobs(path: str) -> list[Job]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError("job file must contain a top-level list")
    jobs = []
    for idx, entry in enumerate(data):
        if not isinstance(entry, dict) or "command" not in entry:
            raise ValueError(f"job {idx}: each entry needs a 'command' field")
        jobs.append(Job(entry["command"], {k: v for k, v in entry.items() if k != "command"}))
    return jobs


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    if bool(args.jobs) == bool(args.command):
        ap.error("give a command or --jobs FILE, not both")
    try:
        SCHEMA["selftest"].params["workers"].check("workers", args.workers)
        jobs = load_jobs(args.jobs) if args.jobs else [_job_from_args(args)]
        for i, job in enumerate(jobs):  # each job once, before any of them runs
            try:
                job.validate()
            except ValueError as exc:
                raise ValueError(f"job {i}: {exc}") from None
    except (ValueError, OSError, RecursionError) as exc:  # json recurses once per nesting level
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reports = run_batch(jobs, workers=args.workers, seed=args.seed)
    try:
        if args.output == "json":
            print(render_json(reports))
        else:
            for rep in reports:
                print(render_text(rep))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  Point it at devnull so that the
        # interpreter's last flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0 if all(r.status == "pass" for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
