import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spechtres.tensor import (
    TensorVector,
    apply_sl2,
    coev_ev,
    inner_product,
    perm_action,
    perm_action_rows,
    weight_class_array,
    weight_class_masks,
    weight_classes,
)


def random_vector(n, rng, terms=3):
    return TensorVector(n, {rng.randrange(1 << n): rng.randrange(-4, 5) or 1 for _ in range(terms)})


def test_sl2_examples():
    # H kills a balanced word
    assert apply_sl2("H", TensorVector.word(2, 0b01)).is_zero()
    # raising the all-minus word sums over sites
    assert apply_sl2("E", TensorVector.word(2, 0)) == TensorVector(2, {1: 1, 2: 1})
    # the invariant 2-tensor is killed by lowering
    inv = TensorVector(2, {0b10: 1, 0b01: -1})
    assert apply_sl2("F", inv).is_zero()


def test_inner_product_orthonormal():
    v = TensorVector.word(2, 0b10)
    w = TensorVector.word(2, 0b01)
    assert inner_product(v, v) == 1
    assert inner_product(v, w) == 0
    inv = TensorVector(2, {0b10: 1, 0b01: -1})
    assert inner_product(inv, inv) == 2
    with pytest.raises(ValueError):
        inner_product(v, TensorVector.word(3, 0))


def test_perm_action_examples():
    v = TensorVector.word(2, 0b10)  # - +
    assert perm_action((1, 2), v) == v
    swapped = perm_action((2, 1), v)
    assert swapped == TensorVector.word(2, 0b01)


def test_perm_action_is_group_action():
    rng = random.Random(0)
    n = 5
    for _ in range(20):
        sigma = list(range(1, n + 1))
        rng.shuffle(sigma)
        tau = list(range(1, n + 1))
        rng.shuffle(tau)
        v = random_vector(n, rng)
        composed = tuple(sigma[t - 1] for t in tau)  # sigma after tau
        assert perm_action(sigma, perm_action(tau, v)) == perm_action(composed, v)


def test_plain_perm_commutes_with_sl2():
    rng = random.Random(1)
    for n in (2, 4, 6):
        for _ in range(10):
            sigma = list(range(1, n + 1))
            rng.shuffle(sigma)
            v = random_vector(n, rng)
            for gen in "EFH":
                assert perm_action(sigma, apply_sl2(gen, v)) == apply_sl2(gen, perm_action(sigma, v))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**30), st.integers(0, 2**30))
def test_adjointness_and_commutator(n, seed_v, seed_w):
    rng = random.Random(seed_v * 31 + seed_w)
    v = random_vector(n, rng)
    w = random_vector(n, rng)
    assert inner_product(apply_sl2("E", v), w) == inner_product(v, apply_sl2("F", w))
    lhs = apply_sl2("E", apply_sl2("F", v)) - apply_sl2("F", apply_sl2("E", v))
    assert lhs == apply_sl2("H", v)


def test_raising_pth_power_vanishes_mod_p():
    # the p-th power of the raising operator annihilates every word mod p
    for p in (3, 5, 7):
        for n in range(1, 13):
            for b in range(0, n + 1):
                if b + p > n:
                    continue
                for w in weight_class_masks(n, b)[0]:
                    v = TensorVector.word(n, w)
                    for _ in range(p):
                        v = apply_sl2("E", v)
                    # over Z it is p! times the sum of the words with p more pluses
                    assert not v.is_zero() and all(c % p == 0 for c in v.coeffs.values()), (p, n, w)


def test_coev_examples():
    empty = TensorVector.word(0, 0)
    c = coev_ev("coev", 1, empty)
    assert c == TensorVector(2, {0b10: 1, 0b01: -1})
    with pytest.raises(ValueError):
        coev_ev("coev", 3, TensorVector.word(1, 0))
    with pytest.raises(ValueError):
        coev_ev("ev", 2, TensorVector.word(2, 0))


@pytest.mark.parametrize("n", [0, 1, 3])
def test_coev_ev_refuse_the_slots_past_either_end(n):
    v = TensorVector.word(n, 0)
    for k in (0, n + 2):
        with pytest.raises(ValueError, match=f"^coev slot {k} out of range for length {n}"):
            coev_ev("coev", k, v)
    for k in (0, n):
        with pytest.raises(ValueError, match=f"^ev slot {k} out of range for length {n}"):
            coev_ev("ev", k, v)


def test_coev_ev_composition_relations():
    rng = random.Random(5)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            v = random_vector(n, rng)
            for k in range(1, n + 2):
                cv = coev_ev("coev", k, v)
                assert coev_ev("ev", k, cv) == (-2) * v
                if k >= 2:
                    assert coev_ev("ev", k - 1, cv) == v
                if k <= n:
                    assert coev_ev("ev", k + 1, cv) == v


def test_coev_ev_commute_with_sl2():
    rng = random.Random(6)
    for n in (1, 3):
        for _ in range(5):
            v = random_vector(n, rng)
            for k in range(1, n + 2):
                for gen in "EFH":
                    assert coev_ev("coev", k, apply_sl2(gen, v)) == apply_sl2(gen, coev_ev("coev", k, v))
    for n in (3, 4):
        for _ in range(5):
            v = random_vector(n, rng)
            for k in range(1, n):
                for gen in "EFH":
                    assert coev_ev("ev", k, apply_sl2(gen, v)) == apply_sl2(gen, coev_ev("ev", k, v))


def test_perm_action_rows_gather_the_images():
    rng = random.Random(4)
    for n in range(0, 10):
        for b in range(n + 1):
            masks, index = weight_class_masks(n, b)
            sigma = tuple(rng.sample(range(1, n + 1), n))
            rows = perm_action_rows(sigma, n, b)
            for _ in range(3):
                v = TensorVector(n, {rng.choice(masks): rng.randrange(-4, 5) for _ in range(3)})
                col = TensorVector.columns([v], index, np.int64)
                assert np.array_equal(col[rows], TensorVector.columns([perm_action(sigma, v)], index, np.int64))
    with pytest.raises(ValueError):
        perm_action_rows((1, 3), 2, 1)


def test_weight_class_masks_match_the_combinations():
    for n in range(17):
        for b in range(n + 2):
            masks = tuple(sorted(sum(1 << i for i in combo) for combo in combinations(range(n), b)))
            got = weight_class_masks(n, b)
            assert got == (masks, {m: i for i, m in enumerate(masks)}), (n, b)
            assert all(type(m) is int for m in got[0])
            array = weight_class_array(n, b)
            assert array.dtype == np.int64 and array.tolist() == list(masks)
            # every word's position in its own class
            assert weight_classes(n)[2][array].tolist() == list(range(len(masks)))
