"""Job plans for the benchmark workloads, generated from a seed.

A plan is a list of children; each child is a list of job dicts in the
job-file format of ``spechtres --jobs`` (``{"command": ..., **params}``).
Every child runs in a fresh interpreter, so caches are shared only between
the jobs of one child.  The same seed always gives the same plan.
"""

from __future__ import annotations

import random


def group_word(g: int, length: int, rng: random.Random) -> str:
    """A word in the CLI token grammar using only invertible tokens."""
    pool = [f"S{j}" for j in range(1, g + 1)] + [f"U{j}" for j in range(1, g + 1)]
    pool += [f"P{j}" for j in range(1, g)]
    return " ".join(rng.choice(pool) for _ in range(length))


def admissible_labels(p: int, n: int) -> list[int]:
    return [k for k in range(1, p) if (n + 1 - k) % 2 == 0 and k <= n + 1]


def _resolve_large(rng: random.Random) -> list[list[dict]]:
    # Every admissible label runs once per round: which labels a seed drew
    # would change a round's cost from about 9 s to 16 s, swamping the
    # run-to-run spread, so the seed picks the order of the cold jobs.
    jobs = [
        {"command": "resolve", "p": p, "n": n, "k": k}
        for p in (3, 5, 7)
        for n in (12, 13)
        for k in admissible_labels(p, n)
    ]
    rng.shuffle(jobs)
    return [[job] for job in jobs]


def _selftest_mix(rng: random.Random) -> list[list[dict]]:
    """The job mix of the full selftest; the seed draws the alexander words
    and the fusion and jm seeds."""
    jobs: list[dict] = []
    for p in (3, 5, 7):
        for n in range(1, 13):
            jobs += [{"command": "resolve", "p": p, "n": n, "k": k} for k in admissible_labels(p, n)]
    for p in (3, 5, 7):
        for n in range(2, 10):
            for b in range(n // 2 + 1):
                if n - 2 * b <= p - 2:
                    jobs.append({"command": "character", "p": p, "tau": [n - b, b]})
    for p in (3, 5, 7):
        for n in range(2, 13):
            for b in range(n // 2 + 1):
                if n - 2 * b + 1 < p:
                    jobs.append({"command": "factors", "p": p, "tau": [n - b, b]})
    for p in (3, 5, 7):
        jobs += [{"command": "dims", "p": p, "g": g} for g in range(6)]
    jobs += [{"command": "fusion", "p": p, "seed": rng.randrange(10**6)} for p in (3, 5, 7, 11, 13)]
    for g in (1, 2, 3):
        for _ in range(6):
            jobs.append({"command": "alexander", "g": g, "p": 5 if g < 3 else 3, "word": group_word(g, 4, rng)})
    jobs.append({"command": "jm", "p": 5, "k": 1, "g": 3, "pairs": 20, "seed": rng.randrange(10**6)})
    return [jobs]


_PLANS = {
    "resolve-large": _resolve_large,
    "selftest-mix": _selftest_mix,
}
WORKLOADS = tuple(_PLANS)

# Seconds of one round, child start-up included, on a quiet machine at the
# commit that defined the benchmark (2 vCPUs, Intel Xeon); while other
# tenants were busy, rounds took up to 1.6 times as long.  A run makes
# round(--seconds / this) rounds, at least one, so that the number of rounds
# behind each best-of-rounds time is the same in every run instead of
# shrinking when the machine is busy.
ROUND_SECONDS = {"resolve-large": 27.0, "selftest-mix": 5.0}


def plan(workload: str, seed: int) -> list[list[dict]]:
    """Children and their jobs for one round of `workload` at `seed`."""
    if workload not in _PLANS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _PLANS[workload](random.Random(f"{workload}:{seed}"))
