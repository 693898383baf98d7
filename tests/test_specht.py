import random
from math import factorial

import numpy as np
import pytest

from spechtres.rings import AUX_PRIME, fp_rref
from spechtres.specht import (
    Diagram2,
    Tableau2,
    Tabloid2,
    basis_matrix,
    basis_solver,
    cycle_type_representative,
    gram_of_diagram,
    ordinary_character,
    ordinary_character_fraction,
    partitions,
    permutation_matrix_on_basis,
    polytabloid,
    specht_basis,
    specht_dim,
    standard_tableaux,
    tabloid_vector,
    _tabloid_rows,
)
from spechtres.tensor import (
    TensorVector,
    apply_sl2,
    inner_product,
    perm_action,
    raising_step,
    vectors_to_matrix,
    weight_class_masks,
)


def test_tabloid_vectors():
    assert tabloid_vector(Tabloid2(2, frozenset({2}))) == TensorVector.word(2, 0b10)
    assert tabloid_vector(Tabloid2(3, frozenset({2}))) == TensorVector.word(3, 0b010)
    assert tabloid_vector(Tabloid2(4, frozenset({3, 4}))) == TensorVector.word(4, 0b1100)
    with pytest.raises(ValueError):
        Tabloid2(3, frozenset({1, 2}))


def test_polytabloid_basics():
    t = Tableau2((1,), (2,))
    assert polytabloid(t) == TensorVector(2, {0b10: 1, 0b01: -1})
    for n, c in ((4, 1), (5, 2), (6, 1), (7, 2), (8, 1)):
        for tab in standard_tableaux(Diagram2.from_weight(n, c)):
            e = polytabloid(tab)
            assert apply_sl2("F", e).is_zero()
            b = len(tab.bottom)
            assert inner_product(e, e) == 2**b


def test_column_symmetries():
    # swapping a full column negates; swapping two columns fixes
    t = Tableau2((1, 3), (2, 4))
    swapped_in_column = Tableau2((2, 3), (1, 4))
    assert polytabloid(swapped_in_column) == -1 * polytabloid(t)
    t2 = Tableau2((3, 1), (4, 2))
    assert polytabloid(t2) == polytabloid(t)


def test_specht_basis_examples():
    assert len(specht_basis(3, 2)) == 2
    assert specht_basis(4, 5) == [TensorVector.word(4, 0)]
    assert len(specht_basis(4, 1)) == 2
    with pytest.raises(ValueError):
        specht_basis(4, 2)
    with pytest.raises(ValueError):
        specht_basis(4, 7)


def test_dimension_formula():
    from math import comb

    for n in range(1, 13):
        for b in range(0, n // 2 + 1):
            d = Diagram2(n - b, b)
            assert len(standard_tableaux(d)) == comb(n, b) - (comb(n, b - 1) if b else 0)


def test_span_equals_kernel_intersection():
    # polytabloid span = joint kernel of lowering and the weight equation,
    # computed independently by elimination through a large modular image
    q = AUX_PRIME
    for n in range(1, 11):
        for b in range(0, n // 2 + 1):
            c = n + 1 - 2 * b
            masks, _ = weight_class_masks(n, b)
            if b:
                rows_idx, cols_idx = raising_step(n, b - 1)
                lowering = np.zeros((len(weight_class_masks(n, b - 1)[0]), len(masks)), dtype=np.int64)
                # lowering is the transpose of the raising step one class down
                np.add.at(lowering, (cols_idx, rows_idx), 1)
            else:
                lowering = np.zeros((1, len(masks)), dtype=np.int64)
            _, pivots = fp_rref(lowering % q, q)
            kernel_dim = len(masks) - len(pivots)
            assert kernel_dim == specht_dim(n, b)
            mat = basis_matrix(n, c)
            assert not ((lowering @ mat) % q).any()


def test_gram_examples():
    assert gram_of_diagram(Diagram2(1, 1)).tolist() == [[2]]
    g22 = gram_of_diagram(Diagram2(2, 2))
    assert len(fp_rref(g22 % 3, 3)[1]) == 1
    assert len(fp_rref(g22 % 5, 5)[1]) == 2


def test_character_examples():
    tau = Diagram2(2, 1)
    assert ordinary_character(tau, (1, 2, 3)) == 2
    assert ordinary_character(tau, (2, 1, 3)) == 0
    assert ordinary_character(tau, cycle_type_representative((3,), 3)) == -1


def test_character_matches_fraction_reference():
    rng = random.Random(2)
    for n in (3, 4, 5, 6):
        for b in range(0, n // 2 + 1):
            tau = Diagram2(n - b, b)
            for _ in range(3):
                sigma = list(range(1, n + 1))
                rng.shuffle(sigma)
                assert ordinary_character(tau, tuple(sigma)) == ordinary_character_fraction(tau, tuple(sigma))


def test_character_matches_subset_count_oracle():
    # independent classical computation: the permutation module on
    # j-subsets has character "number of fixed j-subsets", and the two-row
    # lattice character is the difference of consecutive subset counts
    from itertools import combinations

    def fix_subsets(sigma, n, j):
        count = 0
        for sub in combinations(range(1, n + 1), j):
            s = set(sub)
            if all(sigma[x - 1] in s for x in s):
                count += 1
        return count

    for n in range(2, 9):
        for b in range(0, n // 2 + 1):
            tau = Diagram2(n - b, b)
            for ct in partitions(n):
                sigma = cycle_type_representative(ct, n)
                expected = fix_subsets(sigma, n, b) - (fix_subsets(sigma, n, b - 1) if b else 0)
                assert ordinary_character(tau, sigma) == expected, (tau, ct)


def _conjugacy_class_size(ct, n):
    from collections import Counter

    size = factorial(n)
    for length, mult in Counter(ct).items():
        size //= length**mult * factorial(mult)
    return size


def test_character_orthogonality():
    # summed over the whole group, class by class
    for n in range(2, 8):
        taus = [Diagram2(n - b, b) for b in range(0, n // 2 + 1)]
        cts = partitions(n)
        tables = {
            t: {ct: ordinary_character(t, cycle_type_representative(ct, n)) for ct in cts} for t in taus
        }
        for t1 in taus:
            for t2 in taus:
                total = sum(
                    _conjugacy_class_size(ct, n) * tables[t1][ct] * tables[t2][ct] for ct in cts
                )
                assert total == (factorial(n) if t1 == t2 else 0)


def test_character_is_class_function():
    rng = random.Random(9)
    tau = Diagram2(3, 2)
    n = 5
    for ct in partitions(n):
        rep = cycle_type_representative(ct, n)
        base = ordinary_character(tau, rep)
        for _ in range(3):
            g = list(range(1, n + 1))
            rng.shuffle(g)
            ginv = [0] * n
            for i, x in enumerate(g, 1):
                ginv[x - 1] = i
            conj = tuple(g[rep[ginv[i - 1] - 1] - 1] for i in range(1, n + 1))
            assert ordinary_character(tau, conj) == base


def _upper_unitriangular(m):
    return (np.diagonal(m) == 1).all() and not np.tril(m, -1).any()


def test_solver_rows_are_the_tabloid_words_of_standard_tableaux():
    # every two-row shape with n <= 13
    for n in range(0, 14):
        for b in range(n // 2 + 1):
            c = n + 1 - 2 * b
            tableaux = standard_tableaux(Diagram2.from_weight(n, c))
            solver = basis_solver(5, n, c)
            masks, _ = weight_class_masks(n, b)
            words = [tabloid_vector(Tabloid2(n, frozenset(t.bottom))) for t in tableaux]
            assert [TensorVector.word(n, masks[r]) for r in solver.rows] == words
            square = basis_matrix(n, c)[solver.rows]
            # upper unitriangular over Z in the basis order and in
            # bottom-entry-sum order
            assert _upper_unitriangular(square)
            order = sorted(range(len(tableaux)), key=lambda i: sum(tableaux[i].bottom))
            assert _upper_unitriangular(square[np.ix_(order, order)])



def test_array_built_basis_matches_the_polytabloids():
    # every two-row shape with n <= 14
    for n in range(0, 15):
        for b in range(n // 2 + 1):
            c = n + 1 - 2 * b
            assert np.array_equal(basis_matrix(n, c), vectors_to_matrix(specht_basis(n, c), b))
            _, index = weight_class_masks(n, b)
            tableaux = standard_tableaux(Diagram2.from_weight(n, c))
            own_words = [index[sum(1 << (j - 1) for j in t.bottom)] for t in tableaux]
            assert _tabloid_rows(n, c).tolist() == own_words


def test_permutation_matrix_is_the_perm_action_on_the_basis():
    rng = random.Random(5)
    for n in range(1, 11):
        for b in range(n // 2 + 1):
            c = n + 1 - 2 * b
            basis = specht_basis(n, c)
            for _ in range(2):
                sigma = tuple(rng.sample(range(1, n + 1), n))
                images = vectors_to_matrix([perm_action(sigma, v) for v in basis], b)
                for p in (3, 7, AUX_PRIME):
                    expected = basis_solver(p, n, c).coords(images)
                    assert np.array_equal(permutation_matrix_on_basis(n, c, sigma, p), expected)
    with pytest.raises(ValueError):
        permutation_matrix_on_basis(4, 3, (1, 1, 2, 3), 5)

def test_solver_coords_and_membership_check():
    mat = basis_matrix(6, 3)  # [4,2]
    for p in (3, None):
        solver = basis_solver(p, 6, 3)
        x = np.arange(mat.shape[1]) % 3 if p else np.arange(mat.shape[1]) - 4
        assert np.array_equal(solver.coords(mat @ x)[:, 0], x)
        lone_word = np.zeros(mat.shape[0], dtype=np.int64)
        lone_word[0] = 1  # a single tabloid word is not in the span
        with pytest.raises(ValueError):
            solver.coords(lone_word)


def test_cached_arrays_are_read_only():
    from spechtres.dims import _structure_matrices
    from spechtres.tensor import _raising_sites

    from spechtres.surface import component_solver

    solver = basis_solver(5, 6, 3)
    components = [component_solver(p, 2, 3) for p in (5, None)]
    src, dst = _raising_sites(6, 2)[0]
    cached = [
        basis_matrix(6, 3),
        gram_of_diagram(Diagram2(4, 2)),
        *raising_step(6, 2),
        src,
        dst,
        _structure_matrices(5)[1],
        solver.matrix,
        solver.rows,
        solver.inv,
        *(a for c in components for a in (c.matrix, c.rows, c.inv)),
    ]
    for a in cached:
        with pytest.raises(ValueError):
            a[0] = 0
        with pytest.raises(ValueError):
            a += 1
