"""Command-line driver: single jobs, batch job files, JSON reports, and
the selftest suite that binds every module to its checkable claims.

Jobs are pure computations; a batch may run them on a thread pool and the
aggregate report preserves file order no matter how they were scheduled.
Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import dims as dims_mod
from . import extension as ext_mod
from . import factors as factors_mod
from . import resolution as res_mod
from . import surface as surf_mod
from .rings import fp_matmul
from .specht import Diagram2, cycle_type_representative, partitions

COMMANDS = ("resolve", "character", "factors", "dims", "fusion", "alexander", "jm", "selftest")


@dataclass
class Job:
    command: str
    params: dict = field(default_factory=dict)

    def validate(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        _integer_params(self.params)
        _VALIDATORS[self.command](self.params)


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
# parameter validation


# Parameters that must be integers wherever they appear, and those of them
# that count something and so must not be negative.
_INTEGER_KEYS = ("p", "n", "k", "g", "length", "pairs", "seed", "workers")
_COUNT_KEYS = ("length", "pairs")


def _is_integer(x) -> bool:
    # bool is a subclass of int, but true is not a genus
    return isinstance(x, int) and not isinstance(x, bool)


def _integer_params(params):
    for key in _INTEGER_KEYS:
        if params.get(key) is not None and not _is_integer(params[key]):
            raise ValueError(f"{key} must be an integer, got {params[key]!r}")
    for key in _COUNT_KEYS:
        if params.get(key) is not None and params[key] < 0:
            raise ValueError(f"{key} must be nonnegative, got {params[key]}")


def _need(params, keys):
    missing = [k for k in keys if k not in params or params[k] is None]
    if missing:
        raise ValueError(f"missing parameters: {', '.join(missing)}")


def _odd_prime(p):
    from .rings import is_prime

    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


def _diagram(params):
    tau = params["tau"]
    if not (isinstance(tau, (list, tuple)) and len(tau) == 2):
        raise ValueError("tau must be a pair of row lengths")
    a, b = tau
    if not (_is_integer(a) and _is_integer(b) and a >= b >= 0):
        raise ValueError(f"invalid diagram {tau}")
    return a, b


def _validate_resolve(params):
    _need(params, ["p", "n", "k"])
    _odd_prime(params["p"])
    p, n, k = params["p"], params["n"], params["k"]
    if n < 0 or not 0 < k < p or (n + 1 - k) % 2 or k > n + 1:
        raise ValueError(f"label k={k} invalid for p={p}, n={n}")


def _validate_character(params):
    _need(params, ["p", "tau"])
    _odd_prime(params["p"])
    a, b = _diagram(params)
    if not 0 <= a - b <= params["p"] - 2:
        raise ValueError(f"diagram [{a},{b}] outside the labelled range for p={params['p']}")


def _validate_factors(params):
    _need(params, ["p", "tau"])
    _odd_prime(params["p"])
    _diagram(params)


def _validate_dims(params):
    _need(params, ["p", "g"])
    _odd_prime(params["p"])
    if params["g"] < 0:
        raise ValueError("genus must be nonnegative")


def _validate_fusion(params):
    _need(params, ["p"])
    _odd_prime(params["p"])


def _validate_alexander(params):
    _need(params, ["g"])
    if params["g"] < 0:
        raise ValueError("genus must be nonnegative")
    if params.get("p") is not None:
        _odd_prime(params["p"])
    if params.get("word"):
        parse_word(params["word"], params["g"])


def _validate_jm(params):
    _need(params, ["p", "k", "g"])
    _odd_prime(params["p"])
    if not 0 < params["k"] < params["p"] - 3:
        raise ValueError("need 0 < k < p - 3")
    if params["g"] < 0:
        raise ValueError("genus must be nonnegative")


def _validate_selftest(params):
    pass


_VALIDATORS = {
    "resolve": _validate_resolve,
    "character": _validate_character,
    "factors": _validate_factors,
    "dims": _validate_dims,
    "fusion": _validate_fusion,
    "alexander": _validate_alexander,
    "jm": _validate_jm,
    "selftest": _validate_selftest,
}


def parse_word(text: str, g: int) -> list:
    """Word grammar: whitespace-separated tokens S<j> (local rotation),
    U<j> (transvection), P<i> (adjacent handle swap)."""
    word = []
    for tok in text.split():
        kind, num = tok[0].upper(), tok[1:]
        if not num.isdigit():
            raise ValueError(f"malformed token {tok!r}")
        j = int(num)
        if kind == "S" and 1 <= j <= g:
            word.append(surf_mod.s_token(j, g))
        elif kind == "U" and 1 <= j <= g:
            word.append(surf_mod.transvection_token(j, g))
        elif kind == "P" and 1 <= j <= g - 1:
            sigma = list(range(1, g + 1))
            sigma[j - 1], sigma[j] = sigma[j], sigma[j - 1]
            word.append(surf_mod.perm_token(sigma, g))
        else:
            raise ValueError(f"token {tok!r} out of range for genus {g}")
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
        "truncation_index": cx.spec.l,
    }
    return results, checks


def _exactness_details(rep) -> str:
    if rep["exact"]:
        return ""
    bad = [n for n in rep["nodes"] if n.get("homology") or n.get("injective") is False]
    return f"p={rep['p']} n={rep['n']} k={rep['k']} offending nodes: {bad}"


def _run_character(params, rng) -> tuple[dict, list]:
    p = params["p"]
    a, b = params["tau"]
    tau = Diagram2(a, b)
    rows = []
    all_ok = True
    for ct in partitions(tau.n):
        sigma = cycle_type_representative(ct, tau.n)
        lhs, rhs, ok = res_mod.modular_character_check(p, tau, sigma)
        rows.append({"cycle_type": list(ct), "lhs": int(lhs), "rhs": int(rhs), "equal": ok})
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
    for f in flist:
        dim_comb = factors_mod.simple_dim(p, f)
        dim_gram = res_mod.simple_quotient(p, f).quotient_dim
        entries.append({"diagram": [f.a, f.b], "dim": dim_comb, "dim_gram": dim_gram})
        total += dim_gram
    catalan_dim = dims_mod.catalan(tau.n, tau.b)
    checks = [
        _check(
            "factor-partition",
            total == catalan_dim and all(e["dim"] == e["dim_gram"] for e in entries),
            f"sum={total} catalan={catalan_dim}",
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
        sum(
            dims_mod.binom(g, n) * 2 ** (g - n) * dims_mod.d_dim(p, n, k)
            for n in range(g + 1)
            if (n + 1 - k) % 2 == 0
        )
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
            abs(poly(norm_small) - norm_big) < 1e-9,
            f"R_p(|f|)={poly(norm_small):.12f} |F|={norm_big:.12f}",
        ),
    ]
    return {"table": table, "growth_polynomial": list(poly.coeffs)}, checks


def _run_alexander(params, rng) -> tuple[dict, list]:
    g = params["g"]
    if params.get("word"):
        word = parse_word(params["word"], g)
    else:
        word = surf_mod.random_group_word(g, params.get("length", 4), rng)
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
        for sign in (1, -1):
            rep = surf_mod.cyclotomic_trace_check(p, word, g, sign)
            checks.append(
                _check(f"cyclotomic-trace-sign{'+' if sign > 0 else '-'}", rep["ok"])
            )
            results[f"reduction_sign{'+' if sign > 0 else '-'}"] = list(rep["lhs"].coords)
    return results, checks


def _run_jm(params, rng) -> tuple[dict, list]:
    p, k, g = params["p"], params["k"], params["g"]
    idents = ext_mod.wedge_pair_identities(min(g, 2), seed=params.get("seed", 0), samples=6)
    witness_rep = ext_mod.nonsplit_witness(p, k, g)
    checks = [_check("wedge-pair-identities", idents["ok"], str({k: v for k, v in idents.items() if not v}))]
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
    mod = ext_mod.block_module(p, k, 3, g, "quotient")
    _, _, complement, masks = ext_mod.form_quotient_data(p, 3, g)
    hom_ok = True
    for _ in range(params.get("pairs", 10)):
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
    checks.append(_check("strand-resolutions", strands["exact"]))
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
            for k in range(1, p):
                if (n + 1 - k) % 2 or k > n + 1:
                    continue
                jobs.append(Job("resolve", {"p": p, "n": n, "k": k}))
    char_n = 5 if quick else 9
    for p in (3, 5, 7):
        for n in range(2, char_n + 1):
            for bb in range(0, n // 2 + 1):
                tau = Diagram2(n - bb, bb)
                if 0 <= tau.a - tau.b <= p - 2:
                    jobs.append(Job("character", {"p": p, "tau": [tau.a, tau.b]}))
    fac_n = 8 if quick else 12
    for p in (3, 5, 7):
        for n in range(2, fac_n + 1):
            for bb in range(0, n // 2 + 1):
                tau = Diagram2(n - bb, bb)
                if tau.c < p:
                    jobs.append(Job("factors", {"p": p, "tau": [tau.a, tau.b]}))
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
    seed = params.get("seed", 0)
    workers = params.get("workers", 1)
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
    rng = random.Random(job.params.get("seed", seed))
    try:
        results, checks = _RUNNERS[job.command](job.params, rng)
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
    ap = argparse.ArgumentParser(prog="spechtres", description=__doc__)
    ap.add_argument("--output", choices=("text", "json"), default="text")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", help="JSON file with a list of job objects")
    ap.add_argument("--workers", type=int, default=1)
    sub = ap.add_subparsers(dest="command")

    sp = sub.add_parser("resolve", help="build one complex and verify exactness")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)

    sp = sub.add_parser("character", help="modular character identity over all cycle types")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--tau", required=True, help="two row lengths, e.g. 3,2")

    sp = sub.add_parser("factors", help="composition factor oracle and partition check")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--tau", required=True)

    sp = sub.add_parser("dims", help="genus multiplicities and closed forms")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--g", type=int, required=True)

    sp = sub.add_parser("fusion", help="fusion table, norms and growth polynomial")
    sp.add_argument("--p", type=int, required=True)

    sp = sub.add_parser("alexander", help="weighted trace and its reductions")
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--word", help="token word, e.g. 'S1 U2 P1'")
    sp.add_argument("--p", type=int)
    sp.add_argument("--length", type=int, default=4)

    sp = sub.add_parser("jm", help="block extension suite")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--pairs", type=int, default=10)

    sp = sub.add_parser("selftest", help="run the acceptance checks")
    sp.add_argument("--quick", action="store_true")

    return ap


def _job_from_args(args) -> Job:
    params = {}
    for key in ("p", "n", "k", "g", "word", "length", "pairs"):
        if getattr(args, key, None) is not None:
            params[key] = getattr(args, key)
    if getattr(args, "tau", None):
        try:
            a, b = (int(x) for x in args.tau.replace(",", " ").split())
        except ValueError as exc:
            raise ValueError(f"malformed diagram {args.tau!r}") from exc
        params["tau"] = [a, b]
    if getattr(args, "quick", False):
        params["quick"] = True
    if args.command == "selftest":
        params["workers"] = args.workers
        params["seed"] = args.seed
    return Job(args.command, params)


def load_jobs(path: str) -> list[Job]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError("job file must contain a top-level list")
    jobs = []
    for idx, entry in enumerate(data):
        if not isinstance(entry, dict) or "command" not in entry:
            raise ValueError(f"job {idx}: each entry needs a 'command' field")
        params = {k: v for k, v in entry.items() if k != "command"}
        if "tau" in params and isinstance(params["tau"], str):
            a, b = (int(x) for x in params["tau"].replace(",", " ").split())
            params["tau"] = [a, b]
        job = Job(entry["command"], params)
        try:
            job.validate()
        except ValueError as exc:
            raise ValueError(f"job {idx}: {exc}") from exc
        jobs.append(job)
    return jobs


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        if args.jobs:
            jobs = load_jobs(args.jobs)
        elif args.command:
            jobs = [_job_from_args(args)]
        else:
            ap.print_usage(sys.stderr)
            return 2
        for j in jobs:
            j.validate()
    except (ValueError, OSError, json.JSONDecodeError) as exc:
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
