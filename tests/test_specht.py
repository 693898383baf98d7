import random
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spechtres.dims import catalan
from spechtres.rings import _block_rows, fp_matmul, fp_product_equals, fp_rref, int_gram, residues
from spechtres import rings, specht
from spechtres.specht import (
    BasisSolver,
    Diagram2,
    Tableau2,
    Tabloid2,
    basis_matrix,
    basis_solver,
    cycle_type_representative,
    diagram_weights,
    gram_of_diagram,
    ordinary_character,
    partitions,
    permutation_matrix_on_basis,
    polytabloid,
    raised_basis_matrix,
    sn_gather,
    sn_generators,
    specht_basis,
    specht_module,
    standard_tableaux,
    tabloid_vector,
)
from spechtres.tensor import (
    TensorVector,
    apply_sl2,
    inner_product,
    perm_action,
    perm_action_rows,
    weight_classes,
    weight_class_masks,
)


def test_from_weight_accepts_exactly_the_diagram_weights():
    for n in range(41):
        cs = range(-1, n + 4)
        assert list(diagram_weights(n)) == [c for c in cs if 1 <= c <= n + 1 and (n + 1 - c) % 2 == 0]
        for c in cs:
            if c in diagram_weights(n):
                diag = Diagram2.from_weight(n, c)
                assert (diag.n, diag.c) == (n, c)
            else:
                with pytest.raises(ValueError, match=f"^weight {c} invalid for n={n}$"):
                    Diagram2.from_weight(n, c)


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
    # computed independently by elimination mod 251, the largest prime the
    # kernels take
    q = 251
    for n in range(1, 11):
        for b in range(0, n // 2 + 1):
            c = n + 1 - 2 * b
            masks, _ = weight_class_masks(n, b)
            if b:
                lowering = TensorVector.columns(
                    [apply_sl2("F", TensorVector.word(n, w)) for w in masks], weight_class_masks(n, b - 1)[1], np.int64
                )
            else:
                lowering = np.zeros((1, len(masks)), dtype=np.int64)
            _, pivots = fp_rref(lowering % q, q)
            kernel_dim = len(masks) - len(pivots)
            assert kernel_dim == catalan(n, b)
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


def test_character_matches_the_exact_trace_on_the_basis():
    # Young's rule against the trace of the action on the polytabloid basis,
    # solved exactly over Z (the solver multiplies back, so a wrong column
    # is refused), for every cycle type with n <= 7, at its canonical
    # representative and at random permutations
    rng = random.Random(2)
    for n in range(1, 8):
        for b in range(0, n // 2 + 1):
            tau = Diagram2(n - b, b)
            basis = specht_basis(n, tau.c)
            index = weight_class_masks(n, b)[1]
            solver = basis_solver(None, n, tau.c)
            sigmas = [cycle_type_representative(ct, n) for ct in partitions(n)]
            for _ in range(3):
                sigma = list(range(1, n + 1))
                rng.shuffle(sigma)
                sigmas.append(tuple(sigma))
            for sigma in sigmas:
                images = TensorVector.columns([perm_action(sigma, v) for v in basis], index, np.int64)
                trace = int(np.trace(solver.coords(images)))
                assert ordinary_character(tau, sigma) == trace, (tau, sigma)


def test_character_of_the_identity_is_the_dimension_past_int64():
    # C(80, 40) is about 1.08 * 10**23
    identity = tuple(range(1, 81))
    for b in (0, 1, 39, 40):
        assert ordinary_character(Diagram2(80 - b, b), identity) == catalan(80, b)
    assert catalan(80, 40) > 2**63
    with pytest.raises(ValueError):
        ordinary_character(Diagram2(2, 1), (1, 1, 2))


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
            _, index = weight_class_masks(n, b)
            assert np.array_equal(basis_matrix(n, c), TensorVector.columns(specht_basis(n, c), index, np.int64))
            tableaux = standard_tableaux(Diagram2.from_weight(n, c))
            own_words = [index[sum(1 << (j - 1) for j in t.bottom)] for t in tableaux]
            assert basis_solver(5, n, c).rows.tolist() == own_words


def test_permutation_matrix_is_the_perm_action_on_the_basis():
    rng = random.Random(5)
    for n in range(1, 11):
        for b in range(n // 2 + 1):
            c = n + 1 - 2 * b
            basis = specht_basis(n, c)
            index = weight_class_masks(n, b)[1]
            for _ in range(2):
                sigma = tuple(rng.sample(range(1, n + 1), n))
                images = TensorVector.columns([perm_action(sigma, v) for v in basis], index, np.int64)
                for p in (3, 7, 251):
                    expected = basis_solver(p, n, c).coords(images)
                    assert np.array_equal(permutation_matrix_on_basis(n, c, sigma, p), expected)
    with pytest.raises(ValueError):
        permutation_matrix_on_basis(4, 3, (1, 1, 2, 3), 5)


def test_permutation_matrix_refuses_images_outside_the_span(monkeypatch):
    # a gather with two words swapped is not the S_n action, and its images
    # leave the span; the matrix's own multiply-back refuses them
    real = specht.sn_gather

    def swapped(sigma, n, b):
        rows = real(sigma, n, b).copy()
        rows[[0, 1]] = rows[[1, 0]]
        return rows

    monkeypatch.setattr(specht, "sn_gather", swapped)
    with pytest.raises(ValueError, match="not in the basis span"):
        permutation_matrix_on_basis(6, 3, (2, 3, 1, 5, 6, 4), 5)


def test_composed_gather_is_the_perm_action():
    # sigma's gather is composed from those of s and z alone; it must be the
    # gather of sigma itself, at every length the word table takes
    rng = random.Random(25)
    for n in range(0, 11):
        assert len(sn_generators(n)) == min(max(n - 1, 0), 2)
        for b in range(n + 1):
            sigmas = [cycle_type_representative(ct, n) for ct in partitions(n)]
            sigmas += [tuple(rng.sample(range(1, n + 1), n)) for _ in range(3)]
            for sigma in sigmas:
                assert np.array_equal(sn_gather(sigma, n, b), perm_action_rows(sigma, n, b)), (n, b, sigma)
    with pytest.raises(ValueError):
        sn_gather((1, 1, 2), 3, 1)


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


def test_raised_basis_matches_the_raising_oracle():
    # every (n, b, c0) with n <= 12, c0 up to one past the unpaired top
    # positions (where the raised basis vanishes), against E applied c0
    # times to the polytabloids
    for n in range(0, 13):
        for b in range(n // 2 + 1):
            c = n + 1 - 2 * b
            powers = [specht_basis(n, c)]
            for c0 in range(0, min(n - 2 * b + 1, n - b) + 1):
                if c0:
                    powers.append([apply_sl2("E", v) for v in powers[-1]])
                for p in (3, 5, 7, 211):
                    raised = raised_basis_matrix(n, c, c0, p)
                    oracle = residues(TensorVector.columns(powers[c0], weight_class_masks(n, b + c0)[1], np.int64), p)
                    assert raised.dtype == np.uint8
                    assert np.array_equal(raised, oracle), (n, b, c0, p)


def test_solver_coords_of_byte_columns():
    p = 211
    mat = basis_matrix(8, 3)  # [5,3]
    solver = basis_solver(p, 8, 3)
    x = np.arange(mat.shape[1] * 2).reshape(-1, 2) * 37 % p
    x[0] = p - 1
    columns = mat.astype(np.int64) @ x
    expected = solver.coords(columns)
    assert np.array_equal(expected, x)
    assert np.array_equal(solver.coords(residues(columns, p)), expected)
    assert np.array_equal(solver.coords(mat), np.eye(mat.shape[1], dtype=np.int64))
    assert np.array_equal(basis_solver(None, 8, 3).coords(mat), np.eye(mat.shape[1], dtype=np.int64))


def test_coords_rejects_a_column_wrong_only_in_the_last_row_block():
    n, c, k = 12, 3, 3  # [7,5]: 792 words and 297 basis vectors, 3 columns
    mat = basis_matrix(n, c)
    # the multiply-back, 792 x 297 by 297 x 3, runs in blocks of this many
    # rows (rings._row_products)
    step = _block_rows(mat.shape[1] + k, mat.shape[1] * k // 2)
    assert step < mat.shape[0]
    last = (mat.shape[0] - 1) // step * step
    for p in (3, 211):
        solver = basis_solver(p, n, c)
        columns = residues(mat[:, :k].astype(np.int64) * 2, p)
        solver.coords(columns)
        # a word in the last block that no coordinate is read from
        bad = max(set(range(last, mat.shape[0])) - set(solver.rows.tolist()))
        columns[bad, 1] = (int(columns[bad, 1]) + 1) % p
        with pytest.raises(ValueError):
            solver.coords(columns)


def test_cached_arrays_are_read_only():
    from spechtres.surface import lefschetz_basis

    solvers = [basis_solver(p, 6, 3) for p in (5, None)]
    component = lefschetz_basis(2, 3)
    cached = [
        *specht_module(6, 2).words,
        *specht_module(6, 2).generator_gathers,
        *specht_module(6, 2).adjacent_gathers,
        *weight_classes(6),
        specht_module(6, 2).basis.index,
        specht_module(6, 2).basis.sign,
        gram_of_diagram(Diagram2(4, 2)),
        solvers[1].matrix,
        *(a for s in solvers for a in (s.rows, s._order)),
        *(a for s in solvers for level in s._levels for a in level[2:4]),
        component.matrix,
        *(a for _, rows, signs in component.blocks for a in (rows, signs)),
    ]
    for a in cached:
        with pytest.raises(ValueError):
            a[0] = 0
        with pytest.raises(ValueError):
            a += 1
    # the 0/+-1 basis is held by its nonzeros, and a mod-p solver keeps it,
    # with no copy; its coordinates are residues in one byte
    module = specht_module(6, 2)
    assert solvers[0].matrix is module.basis
    assert np.array_equal(basis_matrix(6, 3), module.basis.dense()) and basis_matrix(6, 3).dtype == np.int8
    assert solvers[1].matrix.dtype == object
    x = solvers[0].back_substitute(basis_matrix(6, 3)[solvers[0].rows])
    assert x.dtype == np.uint8 and np.array_equal(x, np.eye(x.shape[1]))


def test_one_module_holds_each_weight_class():
    # every array of S^(n-b, b) hangs off one cached SpechtModule; the
    # readers by weight c return its objects, not copies
    for n in range(1, 9):
        for c in diagram_weights(n):
            b = Diagram2.from_weight(n, c).b
            module = specht_module(n, b)
            assert module is specht_module(n, b)
            assert module.solver(5).matrix is module.basis
            assert np.array_equal(basis_matrix(n, c), module.basis.dense())
            for p in (5, None):
                assert basis_solver(p, n, c) is module.solver(p)
            for gathers in (module.generator_gathers, module.adjacent_gathers):
                assert all(not rows.flags.writeable for rows in gathers)
    caches = [
        name
        for name, value in vars(specht).items()
        if hasattr(value, "cache_info") and value.__module__ == specht.__name__
    ]
    assert sorted(caches) == ["gram_of_diagram", "specht_module"]
    # a solver is held by its module, so it cannot outlive a cleared cache
    specht_module.cache_clear()
    assert basis_solver(5, 6, 3).matrix is specht_module(6, 2).basis


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_basis_row_blocks_are_slices_of_the_dense_basis(data):
    n = data.draw(st.integers(0, 12))
    b = data.draw(st.integers(0, n // 2))
    basis = specht_module(n, b).basis
    dense = basis_matrix(n, n + 1 - 2 * b)
    lo = data.draw(st.integers(0, len(basis) - 1))
    height = data.draw(st.integers(1, len(basis) - lo))
    out = np.full((height, basis.shape[1]), -3, dtype=np.float32)
    assert np.array_equal(basis.fill(out, lo), dense[lo : lo + height])


def test_kernels_read_the_basis_as_its_dense_matrix():
    rng = np.random.RandomState(8)
    for n, b in ((7, 3), (10, 4), (12, 5)):
        basis, dense = specht_module(n, b).basis, basis_matrix(n, n + 1 - 2 * b)
        assert np.array_equal(int_gram(basis), int_gram(dense))
        for p in (3, 5, 7, 211):
            x = rng.randint(0, p, size=(basis.shape[1], 9)).astype(np.uint8)
            product = fp_matmul(dense, x, p)
            assert np.array_equal(fp_matmul(basis, x, p), product)
            assert fp_product_equals(basis, x, product, p)


def test_a_solver_of_the_dense_basis_is_the_solver_of_its_nonzeros():
    rng = np.random.RandomState(9)
    for n, b in ((1, 0), (6, 3), (9, 4), (12, 5)):
        module = specht_module(n, b)
        dense, rows = basis_matrix(n, n + 1 - 2 * b), module.solver(5).rows
        for p in (3, 5, 7, 211, None):
            ours, theirs = module.solver(p), BasisSolver(p, dense, rows)
            assert np.array_equal(ours.rows, theirs.rows) and np.array_equal(ours._order, theirs._order)
            assert len(ours._levels) == len(theirs._levels)
            for mine, other in zip(ours._levels, theirs._levels):
                # the dense basis enters as residues mod p, so -1 reads p - 1
                assert mine[:2] == other[:2] and np.array_equal(mine[2], other[2]) and mine[4] == other[4]
                assert np.array_equal(mine[3] if p is None else mine[3] % p, other[3])
            x = rng.randint(0, p or 50, size=(dense.shape[1], 4))
            columns = dense.astype(object) @ x
            assert np.array_equal(ours.coords(columns), theirs.coords(columns))
    with pytest.raises(ValueError, match="too large"):
        BasisSolver(257, specht_module(4, 1).basis, specht_module(4, 1).solver(5).rows)


def _unitriangular(rng, d, low, high, dtype=np.int64):
    """A random upper unitriangular d x d matrix with entries in [low,
    high) right of the diagonal, but +-1 next to it, so that its levels are
    d deep mod every p."""
    u = np.triu(rng.randint(low, high, size=(d, d)), 1)
    u[np.arange(d - 1), np.arange(1, d)] = rng.choice([-1, 1], size=max(d - 1, 0))
    np.fill_diagonal(u, 1)
    return u.astype(dtype)


@pytest.mark.parametrize("entries", [rings._SOLVE_ENTRIES, 1], ids=["one-block", "one-column-blocks"])
def test_solver_back_substitutes_through_random_unitriangular_squares(monkeypatch, entries):
    # with one scratch entry every column is a block of its own
    monkeypatch.setattr(rings, "_SOLVE_ENTRIES", entries)
    rng = np.random.RandomState(3)
    for d in (0, 1, 5, 33, 70):
        u = _unitriangular(rng, d, -5, 6)
        # the square inside a taller basis, whose other rows the
        # membership check reads
        rows = rng.permutation(d + 3)[:d]
        tall = rng.randint(-5, 6, size=(d + 3, d))
        tall[rows] = u
        x = rng.randint(-5, 6, size=(d, 4))
        for p in (3, 7, 251, None):
            solver = BasisSolver(p, tall, rows)
            assert len(solver._levels) == max(d - 1, 0)
            want = x.astype(object) if p is None else x % p
            assert np.array_equal(solver.coords(tall.astype(object) @ x), want)
            assert np.array_equal(solver.coords(tall), np.eye(d, dtype=np.int64))
        # over Z the entries of a 70 x 70 inverse outgrow int64
        inv = BasisSolver(None, u, np.arange(d)).coords(np.eye(d, dtype=np.int64))
        assert inv.dtype == object
        assert np.array_equal(u.astype(object) @ inv, np.eye(d, dtype=np.int64))
        for p in (3, 7, 251):
            assert np.array_equal(inv % p, BasisSolver(p, u, np.arange(d)).coords(np.eye(d, dtype=np.int64)))
    for p in (5, None):
        for square in ([[1, 0], [1, 1]], [[2, 0], [0, 1]]):
            with pytest.raises(ValueError):
                BasisSolver(p, np.array(square), np.arange(2))


def test_solver_refuses_a_square_that_is_not_upper_unitriangular():
    rng = np.random.RandomState(7)
    u = _unitriangular(rng, 5, -5, 6)
    rows = np.array([6, 0, 3, 5, 1])
    for i, j, value in ((4, 1, 1), (2, 2, 2), (3, 3, 0), (0, 0, -1)):
        bad = u.copy()
        bad[i, j] = value
        # the square inside a taller basis
        tall = rng.randint(-5, 6, size=(7, 5))
        tall[rows] = bad
        for p in (3, 7, None):
            with pytest.raises(ValueError, match="not upper unitriangular"):
                BasisSolver(p, tall, rows)
    with pytest.raises(ValueError, match="not upper unitriangular"):
        BasisSolver(5, u[:, :4], np.arange(5))  # 5 x 4


@pytest.mark.parametrize("dtype", [np.int8, np.uint8])
def test_solver_of_a_byte_square_gives_the_int64_results(dtype):
    # 211, the largest prime the commands accept, has residue 210; int8
    # reaches -128 and uint8 255, neither of them a residue
    p = 211
    rng = np.random.RandomState(11)
    info = np.iinfo(dtype)
    u = _unitriangular(rng, 70, info.min, info.max + 1, dtype)
    u[0, 1:] = -1 if dtype == np.int8 else p - 1
    eye = np.eye(70, dtype=dtype)
    for q in (p, None):
        ours = BasisSolver(q, u, np.arange(70)).coords(eye)
        assert np.array_equal(ours, BasisSolver(q, u.astype(np.int64), np.arange(70)).coords(eye))
