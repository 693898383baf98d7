import dataclasses

import numpy as np
import pytest

from spechtres import resolution
from spechtres.dims import d_dim
from spechtres.factors import composition_factors, make_context, simple_dim
from spechtres.rings import fp_matmul, fp_rank, fp_rref, is_prime
from spechtres.resolution import (
    build_complex,
    complex_labels,
    complex_weights,
    e_power_map,
    modular_character_check,
    quotient_trace,
    simple_quotient,
    truncation_index,
    verify_exactness,
)
from spechtres.specht import Diagram2, cycle_type_representative, partitions


def valid_labels(p, n):
    return [k for k in range(1, p) if (n + 1 - k) % 2 == 0 and k <= n + 1]


def test_e_power_map_examples():
    m = e_power_map(3, 4, 5, 2)
    assert m.shape == (2, 1)
    _, pivots = fp_rref(m, 3)
    assert len(pivots) == 1
    with pytest.raises(ValueError):
        e_power_map(3, 4, 1, 1)  # target weight would be negative
    with pytest.raises(ValueError):
        e_power_map(3, 4, 3, 1)  # weight divisible by p
    with pytest.raises(ValueError):
        e_power_map(3, 4, 5, 1)  # power does not match the weight mod p


def test_e_power_map_refuses_a_power_past_p_and_a_weight_past_n_by_name():
    # 4 = 10 mod 3 matches the weight but lies past p - 1; were it taken,
    # 4! = 0 mod 3 would give an all-zero 42 x 1 map
    with pytest.raises(ValueError, match="power 4 must lie in 1..p-1"):
        e_power_map(3, 9, 10, 4)
    # every other clause holds: only the weight lies past n + 1 = 5
    with pytest.raises(ValueError, match=r"weight 6 exceeds n\+1=5"):
        e_power_map(5, 4, 6, 1)


def test_the_last_composition_is_checked(monkeypatch):
    # one wrong entry in the last of three maps, in a column where the map
    # before it has a nonzero row, so that only the last product is nonzero
    p, n, k = 3, 10, 1
    last = len(complex_weights(p, n, k)[1])
    real, made = resolution.e_power_map, []

    def planted(*args):
        made.append(real(*args))
        if len(made) == last:
            col = int(np.flatnonzero(made[-2].any(axis=1))[0])
            made[-1] = made[-1].copy()
            made[-1][0, col] = (int(made[-1][0, col]) + 1) % p
        return made[-1]

    assert last == 3
    monkeypatch.setattr(resolution, "e_power_map", planted)
    with pytest.raises(AssertionError, match="do not compose to zero"):
        build_complex(p, n, k)
    assert not fp_matmul(made[1], made[0], p).any()


def test_e_power_maps_are_nonzero():
    for p in (3, 5, 7):
        for n in range(1, 13):
            for k in valid_labels(p, n):
                cx = build_complex(p, n, k)
                for m in cx.maps:
                    assert m.any(), (p, n, k)


def test_build_complex_examples():
    cx = build_complex(3, 4, 1)
    assert (cx.p, cx.n, cx.k) == (3, 4, 1)
    assert cx.weights == (5, 1) and cx.powers == (2,) and cx.l == 0
    assert cx.dims == (1, 2)
    cx2 = build_complex(5, 4, 1)
    assert cx2.weights == (1,) and cx2.powers == () and cx2.maps == []
    cx3 = build_complex(3, 6, 1)
    assert cx3.weights == (7, 5, 1) and cx3.powers == (1, 2)
    assert cx3.dims == (1, 5, 5)
    with pytest.raises(ValueError):
        build_complex(3, 4, 2)


def test_consecutive_maps_compose_to_zero():
    for p, n, k in ((3, 8, 1), (3, 10, 1), (5, 10, 1), (3, 9, 2)):
        cx = build_complex(p, n, k)
        for j in range(len(cx.maps) - 1):
            assert not fp_matmul(cx.maps[j + 1], cx.maps[j], p).any()


def test_truncation_rule_matches_enumeration():
    for p in (3, 5, 7, 11, 13):
        for n in range(1, 41):
            for k in valid_labels(p, n):
                weights, _ = complex_weights(p, n, k)
                l = truncation_index(p, n, k)
                assert weights[0] == n + 1 - 2 * l, (p, n, k)


def _old_complex_weights(p, n, k):
    # the weight loop and power rule complex_weights replaced, as an oracle
    if not (0 < k < p) or (n + 1 - k) % 2:
        raise ValueError(f"label k={k} invalid for p={p}, n={n}")
    if k > n + 1:
        raise ValueError(f"label k={k} exceeds n+1={n + 1}: no terms")
    weights = []
    i = 0
    while True:
        k_i = k if i % 2 == 0 else p - k
        w = i * p + k_i
        if w > n + 1:
            break
        weights.append(w)
        i += 1
    weights.reverse()
    count = len(weights)
    return tuple(weights), tuple(k if (count - 1 - j) % 2 == 0 else p - k for j in range(count - 1))


def _old_exactness(dims, ranks):
    # the per-node formulas verify_exactness replaced, as an oracle: the
    # first node must be injective, each interior node without homology,
    # and the last node gives the simple quotient
    exact = True
    for idx, dim in enumerate(dims):
        out_rank = ranks[idx] if idx < len(ranks) else None
        in_rank = ranks[idx - 1] if idx > 0 else 0
        if idx == 0 and out_rank is not None:
            exact = exact and out_rank == dim
        elif out_rank is not None:
            exact = exact and dim - out_rank - in_rank == 0
        else:
            dim_simple = dim - in_rank
    return exact, dim_simple


def test_complex_weights_match_the_old_weight_loop():
    # every label in [-1, p + 1], so that each clause of the rule refuses
    # somewhere: both sides refuse, or both give the same weights and powers
    refused = accepted = 0
    for p in filter(is_prime, range(3, 212)):
        for n in range(60):
            for k in range(-1, p + 2):
                try:
                    old = _old_complex_weights(p, n, k)
                except ValueError:
                    old = None
                try:
                    new = complex_weights(p, n, k)
                except ValueError:
                    new = None
                assert new == old, (p, n, k)
                assert (k in complex_labels(p, n)) == (old is not None), (p, n, k)
                refused += old is None
                accepted += old is not None
    assert refused and accepted


def test_exactness_matches_the_old_node_formulas():
    # built complexes as they are and with their first, a middle or their
    # last map zeroed; the ranks are taken here, apart from verify_exactness
    inexact = 0
    for p in (3, 5, 7):
        for n in range(1, 11):
            for k in valid_labels(p, n):
                cx = build_complex(p, n, k)
                assert (cx.weights, cx.powers) == _old_complex_weights(p, n, k)
                for zeroed in dict.fromkeys((None, 0, len(cx.maps) // 2, len(cx.maps) - 1)):
                    maps = [np.zeros_like(m) if j == zeroed else m for j, m in enumerate(cx.maps)]
                    rep = verify_exactness(dataclasses.replace(cx, maps=maps))
                    ranks = [fp_rank(m, p) for m in maps]
                    assert rep["ranks"] == ranks
                    assert (rep["exact"], rep["dim_simple"]) == _old_exactness(cx.dims, ranks), (p, n, k, zeroed)
                    assert rep["exact"] or zeroed is not None
                    inexact += not rep["exact"]
    assert inexact


def test_complex_maps_are_stored_as_byte_residues():
    # ranks recorded while the maps were int64; the stored dtype must not
    # change a report, nor must widening the maps back
    pinned = {
        (3, 12, 1): ([1, 11, 154, 275, 132], [1, 10, 144, 131], 1),
        (5, 13, 2): ([12, 208, 429], [12, 196], 233),
        (7, 13, 6): ([208, 429], [208], 221),
    }
    for (p, n, k), (dims, ranks, dim_simple) in pinned.items():
        cx = build_complex(p, n, k)
        assert [m.dtype for m in cx.maps] == [np.uint8] * len(ranks)
        rep = verify_exactness(cx)
        assert (rep["dims"], rep["ranks"], rep["dim_simple"], rep["exact"]) == (dims, ranks, dim_simple, True)
        wide = dataclasses.replace(cx, maps=[m.astype(np.int64) for m in cx.maps])
        assert verify_exactness(wide) == rep


def test_exactness_examples():
    rep = verify_exactness(build_complex(3, 4, 1))
    assert rep["exact"] and rep["dim_simple"] == 1
    rep2 = verify_exactness(build_complex(3, 6, 1))
    assert rep2["exact"] and rep2["dim_simple"] == 1
    rep3 = verify_exactness(build_complex(5, 5, 2))
    assert rep3["exact"] and rep3["dim_simple"] == d_dim(5, 5, 2)


def test_exactness_full_range():
    for p in (3, 5, 7):
        for n in range(1, 13):
            for k in valid_labels(p, n):
                rep = verify_exactness(build_complex(p, n, k))
                assert rep["exact"], (p, n, k, rep)


def test_three_way_dimension_agreement():
    for p in (3, 5, 7):
        for n in range(1, 13):
            for k in valid_labels(p, n):
                rep = verify_exactness(build_complex(p, n, k))
                tau = Diagram2.from_weight(n, k)
                assert rep["dim_simple"] == d_dim(p, n, k) == simple_quotient(p, tau).quotient_dim


def test_exactness_headroom_beyond_acceptance_range():
    # one case past the covered range, to show the machinery is not tuned
    # to the boundary
    rep = verify_exactness(build_complex(3, 13, 2))
    assert rep["exact"]
    assert rep["dim_simple"] == d_dim(3, 13, 2)


def test_exactness_failure_is_reported_not_raised():
    # a doctored complex with a zeroed map must yield a clean failure report:
    # the zeroed first map is not injective, and its image no longer fills
    # the kernel at the middle term
    cx = build_complex(3, 6, 1)
    cx.maps[0] = np.zeros_like(cx.maps[0])
    rep = verify_exactness(cx)
    assert rep["exact"] is False
    assert rep["homology"] == [1, 1] and rep["ranks"] == [0, 4]


def test_simple_quotient_examples():
    assert simple_quotient(3, Diagram2(2, 2)).quotient_dim == 1
    assert simple_quotient(5, Diagram2(3, 2)).quotient_dim == 5
    for p in (3, 5, 7):
        for n in (1, 4, 9):
            assert simple_quotient(p, Diagram2(n, 0)).quotient_dim == 1


def test_simple_quotient_refuses_a_gram_that_vanishes_mod_p(monkeypatch):
    from spechtres import resolution, specht

    monkeypatch.setattr(resolution, "gram_of_diagram", lambda tau: 3 * specht.gram_of_diagram(tau))
    with pytest.raises(AssertionError, match="never zero"):
        resolution.simple_quotient.__wrapped__(3, Diagram2(5, 3))


def test_image_of_final_map_is_radical():
    # the image of the incoming map at the right end spans the null space
    for p, n, k in ((3, 6, 1), (3, 8, 1), (5, 8, 1), (7, 8, 1), (3, 9, 2)):
        cx = build_complex(p, n, k)
        if not cx.maps:
            continue
        q = simple_quotient(p, Diagram2.from_weight(n, k))
        image = cx.maps[-1]
        if len(q.free_idx) == 0:
            assert not image.any()
            continue
        projected = q.project_columns(image)
        assert not projected.any(), (p, n, k)


def test_oracle_engine_agreement():
    for p in (3, 5, 7):
        for n in range(2, 13):
            for b in range(0, n // 2 + 1):
                tau = Diagram2(n - b, b)
                assert simple_dim(p, tau) == simple_quotient(p, tau).quotient_dim, (p, tau)


def test_factor_partition_against_gram_dims():
    from spechtres.dims import catalan

    for p in (3, 5, 7):
        for n in range(2, 13):
            for k in valid_labels(p, n):
                tau = Diagram2.from_weight(n, k)
                ctx = make_context(tau, p)
                total = sum(simple_quotient(p, f).quotient_dim for f in composition_factors(ctx))
                assert total == catalan(n, tau.b)


def test_modular_character_examples():
    tau = Diagram2(2, 2)
    lhs, rhs, ok = modular_character_check(3, tau, (1, 2, 3, 4))
    assert ok and lhs == 1
    lhs, rhs, ok = modular_character_check(3, tau, (2, 1, 3, 4))
    assert ok and lhs == 2 and rhs == 2
    # single-term case: the character identity degenerates to a reduction
    from spechtres.specht import ordinary_character

    for ct in partitions(4):
        sigma = cycle_type_representative(ct, 4)
        lhs, rhs, ok = modular_character_check(5, tau, sigma)
        assert ok
        assert rhs == ordinary_character(tau, sigma) % 5


def test_modular_character_check_returns_residues():
    for p, tau in ((3, Diagram2(3, 2)), (5, Diagram2(4, 2))):
        for ct in partitions(tau.n):
            lhs, rhs, ok = modular_character_check(p, tau, cycle_type_representative(ct, tau.n))
            assert type(lhs) is int and type(rhs) is int, (p, ct)
            assert lhs in range(p) and rhs in range(p)
            assert ok == (lhs == rhs)


def test_modular_character_all_cycle_types():
    for p in (3, 5, 7):
        for n in range(2, 10):
            for b in range(0, n // 2 + 1):
                tau = Diagram2(n - b, b)
                if not 0 <= tau.a - tau.b <= p - 2:
                    continue
                for ct in partitions(n):
                    sigma = cycle_type_representative(ct, n)
                    lhs, rhs, ok = modular_character_check(p, tau, sigma)
                    assert ok, (p, tau, ct, lhs, rhs)


def test_quotient_trace_identity_is_dimension():
    for p in (3, 5):
        for n in (4, 6):
            for k in valid_labels(p, n):
                tau = Diagram2.from_weight(n, k)
                ident = tuple(range(1, n + 1))
                assert quotient_trace(p, tau, ident) == simple_quotient(p, tau).quotient_dim % p


def _projected_trace(p, tau, sigma):
    # the coordinate route: sigma's images of the pivot vectors, solved in
    # the standard basis and read in complement coordinates
    from spechtres.specht import permutation_matrix_on_basis

    q = simple_quotient(p, tau)
    images = permutation_matrix_on_basis(tau.n, tau.c, sigma, p)[:, q.pivot_idx]
    return int(np.trace(q.project_columns(images))) % p


def test_quotient_trace_equals_the_projected_coordinates():
    # every two-row diagram with n <= 10, random permutations, up to 251,
    # the largest prime the kernels take; every dual basis is one byte a
    # residue
    import random

    from spechtres import resolution

    rng = random.Random(27)
    for p in (3, 5, 7, 211, 251):
        for n in range(11):
            for b in range(n // 2 + 1):
                tau = Diagram2(n - b, b)
                for _ in range(3):
                    sigma = list(range(1, n + 1))
                    rng.shuffle(sigma)
                    assert quotient_trace(p, tau, sigma) == _projected_trace(p, tau, sigma), (p, tau, sigma)
        dual = resolution._trace_basis(p, Diagram2(6, 4))[1]
        assert dual.dtype == np.uint8


def test_quotient_trace_solves_multiplies_and_projects_nothing_per_permutation(monkeypatch):
    # after one trace per (p, tau) every cycle type reads its trace off the
    # cached dual basis; the identity holds with every such route refused
    from spechtres import resolution, rings, specht

    cases = ((3, Diagram2(4, 4)), (5, Diagram2(5, 3)), (7, Diagram2(7, 5)), (211, Diagram2(4, 2)))
    for p, tau in cases:
        quotient_trace(p, tau, tuple(range(1, tau.n + 1)))

    def refuse(*args, **kwargs):
        raise AssertionError("solved, multiplied or projected per permutation")

    monkeypatch.setattr(specht.BasisSolver, "back_substitute", refuse)
    monkeypatch.setattr(resolution, "fp_matmul", refuse)
    monkeypatch.setattr(rings.GramQuotient, "project_columns", refuse)
    monkeypatch.setattr(rings, "fp_product_equals", refuse)
    for p, tau in cases:
        for ct in partitions(tau.n):
            lhs, rhs, ok = modular_character_check(p, tau, cycle_type_representative(ct, tau.n))
            assert ok, (p, tau, ct, lhs, rhs)


@pytest.fixture
def cold_proofs():
    """Clear the cached Specht modules, with their generator gathers, and
    the invariance proofs before and after a test that patches what they
    are built from."""
    from spechtres import resolution, specht

    caches = (specht.specht_module, resolution._trace_basis)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def test_a_wrong_generator_gather_is_refused(monkeypatch, cold_proofs):
    # a z-gather with two words swapped is no longer the S_n action; the
    # span proof on the generators catches it before any trace is taken
    from spechtres import specht

    real = specht.perm_action_rows

    def swapped(sigma, n, b):
        rows = real(sigma, n, b)
        if tuple(sigma) == specht.sn_generators(n)[1]:
            rows = rows.copy()
            rows[[0, 1]] = rows[[1, 0]]
        return rows

    monkeypatch.setattr(specht, "perm_action_rows", swapped)
    # [4,2] has no radical at p = 211, so only the span proof runs there
    assert not len(simple_quotient(211, Diagram2(4, 2)).free_idx)
    for p, tau in ((3, Diagram2(4, 2)), (5, Diagram2(5, 3)), (211, Diagram2(4, 2))):
        with pytest.raises(ValueError, match="not in the basis span"):
            quotient_trace(p, tau, tuple(range(1, tau.n + 1)))


def test_a_generator_action_that_moves_the_radical_is_refused(monkeypatch, cold_proofs):
    # the generators' coordinates are replaced by a matrix that adds a free
    # coordinate to a pivot coordinate: a radical vector then keeps its free
    # coordinates but changes, so it leaves the radical
    from spechtres import specht

    p, tau = 5, Diagram2(5, 3)  # a radical of 7 of 28 dimensions
    q = simple_quotient(p, tau)
    assert len(q.free_idx)
    moving = np.identity(len(q.free_idx) + len(q.pivot_idx), dtype=np.int64)
    moving[q.pivot_idx[0], q.free_idx[0]] = 1
    # s and z side by side, as the span proof solves them
    monkeypatch.setattr(specht.BasisSolver, "coords", lambda self, columns: np.hstack([moving, moving]))
    with pytest.raises(AssertionError, match="radical"):
        quotient_trace(p, tau, tuple(range(1, tau.n + 1)))


def test_a_cold_trace_solves_the_generators_once(monkeypatch, cold_proofs):
    # one back-substitution serves the span proof and the radical proof
    from spechtres import specht

    p, tau = 5, Diagram2(5, 3)  # a radical of 7 of 28 dimensions
    assert len(simple_quotient(p, tau).free_idx) == 7
    calls = []
    real = specht.BasisSolver.back_substitute
    monkeypatch.setattr(specht.BasisSolver, "back_substitute", lambda self, square: calls.append(square.shape) or real(self, square))
    quotient_trace(p, tau, tuple(range(1, tau.n + 1)))
    assert calls == [(28, 56)]
