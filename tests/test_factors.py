import random

import pytest

from spechtres.dims import catalan
from spechtres.factors import (
    IntervalSet,
    admissible_sets,
    composition_factors,
    delta,
    make_context,
    nu,
    phi,
    phi_bijection,
    phi_inv,
    simple_dim,
    tau_prime_context,
)
from spechtres.specht import Diagram2


def test_interval_set_canonical_merge():
    assert IntervalSet((0, 1, 2, 4)).pairs == ((0, 1), (2, 4))
    with pytest.raises(ValueError):
        IntervalSet((2, 1))
    # touching or overlapping intervals and odd endpoint lists are refused, so
    # a value has only its merged representation
    for ends in ((1, 2, 2, 3), (0, 2, 1, 3), (0, 1, 2)):
        with pytest.raises(ValueError):
            IntervalSet(ends)
    assert IntervalSet.empty().is_empty and not IntervalSet((0, 2)).is_empty
    assert [i for i in range(-1, 4) if IntervalSet((0, 2)).contains(i)] == [0, 1]


def test_context_digits():
    ctx = make_context(Diagram2(4, 0), 3)
    assert ctx.c == 5 and ctx.digits == (2, 1)
    assert ctx.k_tau == 1
    ctx2 = make_context(Diagram2(2, 2), 3)
    assert ctx2.digits == (1,) and ctx2.k_tau is None
    ctx3 = make_context(Diagram2(7, 0), 3)  # c = 8 = 2 + 2*3
    assert ctx3.digits == (2, 2)


def test_admissible_sets_examples():
    ctx = make_context(Diagram2(2, 2), 3)
    hat, filt = admissible_sets(ctx)
    assert [i.ends for i in filt] == [(), (0, 1)]
    assert delta(IntervalSet((0, 1)), ctx) == 2
    ctx31 = make_context(Diagram2(3, 1), 3)
    _, filt31 = admissible_sets(ctx31)
    assert [i.ends for i in filt31] == [()]
    assert delta(IntervalSet((1, 2)), ctx31) == 6
    for p in (3, 5, 7):
        for n in (4, 7, 11):
            ctx_row = make_context(Diagram2(n, 0), p)
            assert [i.ends for i in admissible_sets(ctx_row)[1]] == [()]


def test_admissible_bound_handles_wide_diagrams():
    # a diagram wide enough that useful intervals reach past the top digit
    ctx = make_context(Diagram2(50, 50), 3)
    _, filt = admissible_sets(ctx)
    ends = sorted(i.ends for i in filt)
    assert (0, 1) in ends and (0, 2) in ends and (0, 3) in ends
    assert all(delta(i, ctx) <= 50 for i in filt)
    assert (0, 4) not in ends  # shift 80 exceeds the bottom row


def test_delta_additivity():
    ctx = make_context(Diagram2(30, 20), 3)  # c = 11 = 2 + 3 + 9... digits (2,0,1)
    _, filt = admissible_sets(ctx)
    for iset in filt:
        if iset.is_empty:
            assert delta(iset, ctx) == 0
            continue
        total = sum(delta(IntervalSet(pair), ctx) for pair in zip(iset.ends[::2], iset.ends[1::2]))
        assert delta(iset, ctx) == total
        assert delta(iset, ctx) >= 1


def test_nu_examples():
    ctx = make_context(Diagram2(2, 2), 3)
    assert nu(IntervalSet.empty(), ctx) == Diagram2(2, 2)
    assert nu(IntervalSet((0, 1)), ctx) == Diagram2(4, 0)
    with pytest.raises(ValueError):
        nu(IntervalSet((0, 2)), ctx)


def test_composition_factors_examples():
    assert composition_factors(make_context(Diagram2(2, 2), 3)) == [Diagram2(2, 2), Diagram2(4, 0)]
    assert composition_factors(make_context(Diagram2(3, 1), 3)) == [Diagram2(3, 1)]
    for p in (3, 5, 7):
        assert composition_factors(make_context(Diagram2(9, 0), p)) == [Diagram2(9, 0)]


def test_factor_multiplicity_one():
    for p in (3, 5, 7):
        for n in range(2, 13):
            for b in range(0, n // 2 + 1):
                ctx = make_context(Diagram2(n - b, b), p)
                _, filt = admissible_sets(ctx)
                shifted = [nu(i, ctx) for i in filt]
                assert len(shifted) == len(set(shifted)), (p, n, b)


def test_phi_worked_example():
    ctx = make_context(Diagram2(4, 0), 3)
    ctx_prime = tau_prime_context(ctx)
    assert ctx_prime.tau == Diagram2(2, 2)
    assert ctx_prime.digits == (1,)  # last digit flips to p - c0
    lead = IntervalSet((0, 1))
    assert phi(lead, ctx) == IntervalSet.empty()
    assert delta(lead, ctx_prime) == delta(IntervalSet.empty(), ctx) + 2
    assert nu(lead, ctx_prime) == Diagram2(4, 0) == nu(IntervalSet.empty(), ctx)


def test_phi_digit_laws():
    rng = random.Random(4)
    for p in (3, 5, 7):
        for _ in range(60):
            c = rng.randrange(1, p**4)
            if c % p == 0:
                continue
            b = rng.randrange(0, 30)
            a = b + c - 1
            ctx = make_context(Diagram2(a, b), p)
            if ctx.k_tau is None or a - b < 2 * ctx.digit(0):
                continue
            ctxp = tau_prime_context(ctx)
            k = ctx.k_tau
            assert ctxp.digit(0) == p - ctx.digit(0)
            for i in range(1, k):
                assert ctxp.digit(i) == p - 1
            assert ctxp.digit(k) == ctx.digit(k) - 1
            for i in range(k + 1, len(ctx.digits) + 1):
                assert ctxp.digit(i) == ctx.digit(i)


def test_phi_bijection_seeded_contexts():
    rng = random.Random(11)
    audited = 0
    while audited < 200:
        p = (3, 5, 7)[rng.randrange(3)]
        c = rng.randrange(1, p**4)
        if c % p == 0:
            continue
        b = rng.randrange(0, 25)
        a = b + c - 1
        ctx = make_context(Diagram2(a, b), p)
        if ctx.k_tau is None or a - b < 2 * ctx.digit(0):
            continue
        rep = phi_bijection(ctx)
        assert rep["ok"], (p, a, b)
        audited += 1


def test_phi_round_trip_is_identity():
    ctx = make_context(Diagram2(12, 2), 3)  # c = 11, digits (2, 0, 1)
    ctxp = tau_prime_context(ctx)
    hat_prime, _ = admissible_sets(ctxp)
    for iset in hat_prime:
        if not iset.contains(0):
            continue
        assert phi_inv(phi(iset, ctx), ctx) == iset


def test_partition_of_catalan_dimension():
    # factor dimensions, solved recursively, partition the lattice dimension
    for p in (3, 5, 7):
        for n in range(2, 13):
            for b in range(0, n // 2 + 1):
                tau = Diagram2(n - b, b)
                ctx = make_context(tau, p)
                total = sum(simple_dim(p, f) for f in composition_factors(ctx))
                assert total == catalan(n, b), (p, tau)


def test_simple_dim_examples():
    assert simple_dim(3, Diagram2(2, 2)) == 1
    assert simple_dim(5, Diagram2(3, 2)) == 5
    assert simple_dim(3, Diagram2(4, 0)) == 1
