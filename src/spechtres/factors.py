"""Combinatorial oracle for the composition factors of a mod-p two-row
Specht module.

The diagonal weight c = a - b + 1 is expanded in base p.  Admissible
unions of half-open intervals of digit positions, filtered by a size
bound, enumerate the factors: each admissible set I shifts the diagram by
an integer delta(I), and the factors are exactly the simple quotients at
the shifted diagrams, each with multiplicity one.  A bijection that strips
the leading interval relates the admissible sets of a diagram and of its
one-step shift; its interplay with delta drives everything downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .dims import catalan
from .specht import Diagram2

__all__ = [
    "IntervalSet",
    "KsContext",
    "make_context",
    "is_admissible",
    "admissible_sets",
    "delta",
    "nu",
    "composition_factors",
    "tau_prime_context",
    "phi",
    "phi_inv",
    "phi_bijection",
    "simple_dim",
]


@dataclass(frozen=True)
class IntervalSet:
    """Disjoint union of half-open integer intervals, stored by the strictly
    increasing endpoint sequence (i1, i2, ..., i_{2u}).

    Touching intervals must be given merged, since their shared endpoint
    would repeat, so every value has one canonical representation.
    """

    ends: tuple[int, ...]

    def __post_init__(self):
        ends = tuple(int(e) for e in self.ends)
        if len(ends) % 2:
            raise ValueError("need an even number of endpoints")
        if any(x >= y for x, y in zip(ends, ends[1:])):
            raise ValueError(f"endpoints must strictly increase, got {ends}")
        object.__setattr__(self, "ends", ends)

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.ends[::2], self.ends[1::2]))

    @property
    def is_empty(self) -> bool:
        return not self.ends

    def contains(self, i: int) -> bool:
        return any(s <= i < e for s, e in self.pairs)

    def __repr__(self):
        if not self.ends:
            return "IntervalSet(empty)"
        return "IntervalSet(" + " u ".join(f"[{s},{e})" for s, e in self.pairs) + ")"


@dataclass(frozen=True)
class KsContext:
    """A diagram together with the base-p digits of its diagonal weight."""

    tau: Diagram2
    p: int
    digits: tuple[int, ...]

    @property
    def c(self) -> int:
        return self.tau.c

    @property
    def b(self) -> int:
        return self.tau.b

    def digit(self, j: int) -> int:
        return self.digits[j] if 0 <= j < len(self.digits) else 0

    @property
    def k_tau(self) -> int | None:
        """Least positive digit position with a nonzero digit, None if the
        weight is a single digit."""
        for j in range(1, len(self.digits)):
            if self.digits[j]:
                return j
        return None


def make_context(tau: Diagram2, p: int) -> KsContext:
    if p < 3:
        raise ValueError("p must be an odd prime >= 3")
    c = tau.c
    digits = []
    while c:
        digits.append(c % p)
        c //= p
    return KsContext(tau, p, tuple(digits))


def is_admissible(iset: IntervalSet, ctx: KsContext) -> bool:
    """Starts must sit on nonzero digits, ends on digits other than p - 1."""
    for s, e in iset.pairs:
        if s < 0 or ctx.digit(s) == 0 or ctx.digit(e) == ctx.p - 1:
            return False
    return True


def delta(iset: IntervalSet, ctx: KsContext) -> int:
    """The shift attached to an admissible set: over every covered digit
    position i it accumulates (p - 1 - c_i) p^i, plus p^start per interval."""
    if not is_admissible(iset, ctx):
        raise ValueError(f"{iset} is not admissible for {ctx.tau} at p={ctx.p}")
    p = ctx.p
    total = 0
    for s, e in iset.pairs:
        total += p**s
        for i in range(s, e):
            total += (p - 1 - ctx.digit(i)) * p**i
    return total


def _endpoint_bound(ctx: KsContext) -> int:
    """Largest endpoint that any size-filtered admissible set can use.

    An interval reaching past the top digit picks up (p-1) p^m at the first
    all-zero position m it covers, so endpoints beyond the bound force the
    shift past b.
    """
    r = len(ctx.digits) - 1 if ctx.digits else 0
    m = r + 1
    while ctx.p**m <= ctx.c + ctx.b * ctx.p:
        m += 1
    return m


def admissible_sets(ctx: KsContext) -> tuple[list[IntervalSet], list[IntervalSet]]:
    """All admissible sets with endpoints up to the pruning bound, and the
    sublist whose shift is at most b.  The empty set is always present.

    The truncation is harmless for the filtered list: any admissible set
    with a larger endpoint has shift exceeding b.
    """
    bound = _endpoint_bound(ctx)
    candidates = [IntervalSet.empty()]

    def extend(prefix: tuple[int, ...], start: int):
        for s in range(start, bound + 1):
            if ctx.digit(s) == 0:
                continue
            for e in range(s + 1, bound + 1):
                if ctx.digit(e) == ctx.p - 1:
                    continue
                ends = prefix + (s, e)
                candidates.append(IntervalSet(ends))
                extend(ends, e + 1)

    extend((), 0)
    candidates.sort(key=lambda i: (len(i.ends), i.ends))
    filtered = [i for i in candidates if delta(i, ctx) <= ctx.b]
    return candidates, filtered


def nu(iset: IntervalSet, ctx: KsContext) -> Diagram2:
    """Shift the diagram by delta: top row grows, bottom row shrinks."""
    d = delta(iset, ctx)
    if d > ctx.b:
        raise ValueError(f"{iset} is outside the size-filtered family (delta={d} > b={ctx.b})")
    return Diagram2(ctx.tau.a + d, ctx.tau.b - d)


def composition_factors(ctx: KsContext) -> list[Diagram2]:
    """Factor diagrams of the mod-p Specht module, each of multiplicity one,
    sorted by (a, b).  The diagram itself always appears (empty set)."""
    _, filtered = admissible_sets(ctx)
    factors = {nu(i, ctx) for i in filtered}
    return sorted(factors, key=lambda d: (d.a, d.b))


# ---------------------------------------------------------------------------
# the interval-stripping bijection


def tau_prime_context(ctx: KsContext) -> KsContext:
    """Context of the one-step shifted diagram [a - c0, b + c0]."""
    c0 = ctx.digit(0)
    if c0 == 0:
        raise ValueError("weight divisible by p: no one-step shift")
    if ctx.tau.a - ctx.tau.b < 2 * c0:
        raise ValueError("diagram too narrow for the one-step shift")
    return make_context(Diagram2(ctx.tau.a - c0, ctx.tau.b + c0), ctx.p)


def phi(iset: IntervalSet, ctx: KsContext) -> IntervalSet:
    """Strip the leading interval [0, k_tau) from an admissible set of the
    shifted diagram, landing in the 0-free admissible sets of tau."""
    k = ctx.k_tau
    if k is None:
        raise ValueError("bijection needs a second nonzero digit")
    if not iset.contains(0):
        raise ValueError("bijection applies to sets containing 0")
    ends = iset.ends
    if ends[1] == k:
        return IntervalSet(ends[2:])
    if ends[1] < k:
        raise ValueError("set does not contain the full leading interval")
    return IntervalSet((k,) + ends[1:])


def phi_inv(iset: IntervalSet, ctx: KsContext) -> IntervalSet:
    """Adjoin the leading interval [0, k_tau) to a 0-free admissible set."""
    k = ctx.k_tau
    if k is None:
        raise ValueError("bijection needs a second nonzero digit")
    if iset.contains(0):
        raise ValueError("inverse applies to sets avoiding 0")
    if iset.is_empty:
        return IntervalSet((0, k))
    if iset.ends[0] == k:
        return IntervalSet((0,) + iset.ends[1:])
    return IntervalSet((0, k) + iset.ends)


def phi_bijection(ctx: KsContext) -> dict:
    """Full audit of the stripping bijection for one context.

    Pairs every 0-containing admissible set of the shifted diagram with a
    0-free admissible set of tau and verifies: admissibility on both
    sides, round trips, the delta relation (shift drops by the last digit
    c0), matching filtered membership, and equality of the shifted
    factor diagrams.
    """
    ctx_prime = tau_prime_context(ctx)
    c0 = ctx.digit(0)
    hat_prime, filt_prime = admissible_sets(ctx_prime)
    hat, filt = admissible_sets(ctx)
    filt_set = {i.ends for i in filt}
    filt_prime_set = {i.ends for i in filt_prime}
    pairs = []
    ok = True
    zero_side = [i for i in hat_prime if i.contains(0)]
    for iset in zero_side:
        image = phi(iset, ctx)
        checks = {
            "image_admissible": is_admissible(image, ctx) and not image.contains(0),
            "round_trip": phi_inv(image, ctx) == iset,
            "delta_relation": delta(iset, ctx_prime) == delta(image, ctx) + c0,
            "filtered_match": (iset.ends in filt_prime_set) == (image.ends in filt_set),
        }
        if iset.ends in filt_prime_set:
            checks["nu_match"] = nu(iset, ctx_prime) == nu(image, ctx)
        pairs.append({"source": iset, "image": image, "checks": checks})
        ok = ok and all(checks.values())
    plus_side = [j for j in hat if not j.contains(0)]
    for jset in plus_side:
        back = phi_inv(jset, ctx)
        good = is_admissible(back, ctx_prime) and phi(back, ctx) == jset
        pairs.append({"source": jset, "image": back, "checks": {"inverse_round_trip": good}})
        ok = ok and good
    return {"tau": ctx.tau, "tau_prime": ctx_prime.tau, "c0": c0, "pairs": pairs, "ok": ok}


# ---------------------------------------------------------------------------
# simple dimensions solved recursively from the factor partition


@lru_cache(maxsize=None)
def simple_dim(p: int, tau: Diagram2) -> int:
    """Dimension of the simple quotient at any two-row diagram, obtained by
    peeling the factor partition recursively.  Independent of all linear
    algebra; the recursion terminates because every nonempty set strictly
    widens the diagram."""
    ctx = make_context(tau, p)
    _, filtered = admissible_sets(ctx)
    return catalan(tau.n, tau.b) - sum(simple_dim(p, nu(iset, ctx)) for iset in filtered if not iset.is_empty)
