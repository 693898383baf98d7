import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spechtres.tensor import (
    TensorVector,
    apply_raising_power,
    apply_sl2,
    coev_ev,
    inner_product,
    perm_action,
    raising_step,
    vectors_to_matrix,
    weight_class_masks,
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
    assert perm_action((2, 1), v, signed=True) == TensorVector(2, {0b01: -1})


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
    # the p-th power of the raising step annihilates every word class mod p
    for p in (3, 5, 7):
        for n in range(1, 13):
            for b in range(0, n + 1):
                if b + p > n:
                    continue
                masks, _ = weight_class_masks(n, b)
                mat = np.eye(len(masks), dtype=np.int64)
                out = apply_raising_power(n, b, mat, p, p=p)
                assert not out.any(), (p, n, b)


def test_raising_power_matches_repeated_apply():
    rng = random.Random(3)
    for n in (3, 5):
        for b in (0, 1, 2):
            masks, index = weight_class_masks(n, b)
            v = TensorVector(n, {masks[rng.randrange(len(masks))]: rng.randrange(1, 5) for _ in range(2)})
            col = vectors_to_matrix([v], b)
            power = 2
            fast = apply_raising_power(n, b, col, power)
            slow = v
            for _ in range(power):
                slow = apply_sl2("E", slow)
            assert vectors_to_matrix([slow], b + power).tolist() == fast.tolist()


def test_coev_examples():
    empty = TensorVector.word(0, 0)
    c = coev_ev("coev", 1, empty)
    assert c == TensorVector(2, {0b10: 1, 0b01: -1})
    with pytest.raises(ValueError):
        coev_ev("coev", 3, TensorVector.word(1, 0))
    with pytest.raises(ValueError):
        coev_ev("ev", 2, TensorVector.word(2, 0))


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


def test_raising_power_matches_add_at_reference():
    rng = np.random.RandomState(0)
    for n in range(1, 13):
        for b in range(n):
            for power, p in ((1, None), (min(3, n - b), 5)):
                mat = rng.randint(-4, 5, size=(len(weight_class_masks(n, b)[0]), 2))
                cur = mat
                for step in range(power):
                    rows, cols = raising_step(n, b + step)
                    out = np.zeros((len(weight_class_masks(n, b + step + 1)[0]), 2), dtype=np.int64)
                    np.add.at(out, rows, cur[cols])
                    cur = out % p if p is not None else out
                assert np.array_equal(apply_raising_power(n, b, mat, power, p), cur)
