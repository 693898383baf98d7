import operator
import random
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from spechtres import rings
from spechtres.rings import (
    _PANEL,
    _ROW_BLOCK,
    CyclotomicElem,
    LaurentInt,
    SignMatrix,
    SparseVector,
    cyclotomic_eval,
    GramQuotient,
    fp_matmul,
    fp_inverse,
    fp_rank,
    fp_rref,
    int_charpoly,
    int_gram,
    power,
    quantum_integer,
    residues,
    zeta_quantum,
)
from spechtres.surface import ExteriorVector, random_group_word, word_matrix
from spechtres.tensor import TensorVector, weight_class_masks


def test_rank_kernel_image_on_degenerate_form():
    # the invariant form of the [2,2] lattice drops to rank 1 mod 3
    from spechtres.specht import Diagram2, gram_of_diagram

    gram = gram_of_diagram(Diagram2(2, 2))
    pivots = fp_rref(gram, 3)[1]
    assert len(pivots) == 1 and gram.shape[1] - len(pivots) == 1
    pivots5 = fp_rref(gram, 5)[1]
    assert len(pivots5) == 2 and gram.shape[1] - len(pivots5) == 0


def _kernel_from_rref(rref, pivots, p):
    # null-space basis read off a reduced form: one column per free column
    # f, with 1 at f and minus column f of the reduced rows at the pivots.
    # The reduced form is uint8, whose negation wraps (-1 reads 255), so it
    # is widened first.
    free = [f for f in range(rref.shape[1]) if f not in pivots]
    kernel = np.zeros((rref.shape[1], len(free)), dtype=np.int64)
    kernel[free, range(len(free))] = 1
    kernel[pivots] = -rref[: len(pivots)][:, free].astype(np.int64) % p
    return kernel


def test_rank_kernel_properties_random():
    rng = np.random.RandomState(0)
    for p in (3, 5, 7):
        for _ in range(15):
            rows, cols = rng.randint(1, 8), rng.randint(1, 8)
            m = rng.randint(0, p, size=(rows, cols))
            rank = len(fp_rref(m, p)[1])
            kernel = _kernel_from_rref(*fp_rref(m, p), p).T
            assert rank + len(kernel) == cols
            for v in kernel:
                assert not ((m @ v) % p).any()
            # transposing preserves rank
            assert len(fp_rref(m.T, p)[1]) == rank


def test_int_det():
    # the determinant is the top coefficient of det(I + t a)
    assert int_charpoly([[2, 1], [1, 1]])[-1] == 1
    assert int_charpoly([[0, 1], [1, 0]])[-1] == -1
    assert int_charpoly([[1, 2], [2, 4]])[-1] == 0
    assert int_charpoly([]) == [1]


def _bareiss_det(a) -> int:
    """Reference determinant of an integer matrix by fraction-free (Bareiss)
    elimination."""
    m = [list(map(int, row)) for row in a]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * prev


def _check_charpoly(a):
    a = np.array(a, dtype=object).reshape(len(a), len(a))
    n = len(a)
    coeffs = int_charpoly(a)
    assert len(coeffs) == n + 1 and all(type(c) is int for c in coeffs)
    for d in range(n + 1):
        assert coeffs[d] == sum(_bareiss_det(a[np.ix_(s, s)]) for s in combinations(range(n), d)), (a, d)
    assert coeffs[n] == _bareiss_det(a)


def test_int_charpoly_is_the_sum_of_principal_minors():
    rng = random.Random(11)
    for n in range(7):
        for trial in range(12):
            a = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
            if n and trial == 1:
                a[rng.randrange(n)] = [0] * n  # a zero row
            if n > 1 and trial == 2:
                a[0] = [2 * x - y for x, y in zip(a[1], a[-1])]  # a dependent row
            _check_charpoly(a)
    assert int_charpoly([]) == [1] and int_charpoly(np.zeros((0, 0), dtype=np.int64)) == [1]
    _check_charpoly([[rng.randrange(-(10**40), 10**40) for _ in range(10)] for _ in range(10)])
    for g in range(5):
        for _ in range(50):
            _check_charpoly(word_matrix(random_group_word(g, rng.randrange(12), rng), g))


def test_int_charpoly_refuses_non_square_input():
    for a in ([[1, 2, 3], [4, 5, 6]], np.zeros((2, 3), dtype=np.int64), [[1, 2], [3]], [[1]] * 2):
        with pytest.raises(ValueError):
            int_charpoly(a)


def test_quantum_integer_small_values():
    assert quantum_integer(1) == LaurentInt.one()
    assert quantum_integer(2) == LaurentInt({1: 1, -1: 1})
    assert quantum_integer(0).is_zero()
    # a full period at the matching root of unity collapses to zero
    assert zeta_quantum(5, 5).is_zero()
    assert zeta_quantum(3, 3).is_zero()


def test_quantum_integer_matches_rational_form():
    # multiplied out, the balanced sum satisfies the quotient definition
    x = LaurentInt.x()
    denom = x - x**-1
    for n in range(0, 15):
        assert denom * quantum_integer(n) == x**n - x**-n


def test_quantum_integer_recursion():
    two = quantum_integer(2)
    for k in range(1, 21):
        assert two * quantum_integer(k) == quantum_integer(k - 1) + quantum_integer(k + 1)


def test_cyclotomic_eval_examples():
    assert cyclotomic_eval(LaurentInt.x(), 5) == CyclotomicElem.zeta(5)
    full = LaurentInt({e: 1 for e in range(5)})
    assert cyclotomic_eval(full, 5).is_zero()
    assert cyclotomic_eval(LaurentInt.x(4), 5) == CyclotomicElem(5, [-1, -1, -1, -1])


def test_cyclotomic_eval_sign_and_mod():
    f = LaurentInt({1: 1, 0: 3})
    at_minus = cyclotomic_eval(f, 5, sign=-1)
    assert at_minus == CyclotomicElem(5, [3, -1, 0, 0])
    assert cyclotomic_eval(f, 5, sign=-1, mod_p=True) == CyclotomicElem(5, [3, 4, 0, 0], mod=5)


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(st.integers(-6, 6), st.integers(-5, 5), max_size=4),
    st.dictionaries(st.integers(-6, 6), st.integers(-5, 5), max_size=4),
    st.sampled_from([3, 5, 7]),
    st.sampled_from([1, -1]),
)
def test_cyclotomic_eval_is_ring_hom(c1, c2, p, sign):
    f, g = LaurentInt(c1), LaurentInt(c2)
    ev = lambda h: cyclotomic_eval(h, p, sign)
    assert ev(f * g) == ev(f) * ev(g)
    assert ev(f + g) == ev(f) + ev(g)


def test_conjugation_involution():
    for p in (3, 5, 7):
        for e in range(p):
            z = CyclotomicElem.zeta(p, e)
            assert z.conjugate().conjugate() == z


def test_quantum_basis_unimodular():
    # quantum integers of one parity class give a basis of the invariant
    # subring: the coordinate matrix is unimodular
    for p in (3, 5, 7, 11):
        for parity in (0, 1):
            ks = [k for k in range(1, p) if k % 2 == parity]
            rows = [zeta_quantum(p, k).invariant_coords() for k in ks]
            assert len(rows) == (p - 1) // 2
            assert abs(int_charpoly(rows)[-1]) == 1


def test_invariant_coords_rejects_non_invariant():
    z = CyclotomicElem.zeta(5)
    with pytest.raises(ValueError):
        z.invariant_coords()


def test_laurent_negative_powers():
    x = LaurentInt.x()
    assert x**-2 == LaurentInt.x(-2)
    with pytest.raises(ValueError):
        (x + LaurentInt.one()) ** -1


@pytest.mark.parametrize("other", [3, LaurentInt.one(), ExteriorVector(1, {1: 1})])
def test_cyclotomic_operands_of_another_type_raise_type_error(other):
    # an int is a scalar of *, not an element of the ring
    z = CyclotomicElem.zeta(5)
    for op in (operator.add, operator.sub) if isinstance(other, int) else (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(z, other)
    assert z != other


@pytest.mark.parametrize("other", [CyclotomicElem.zeta(7), CyclotomicElem.zeta(5, mod=5)])
def test_cyclotomic_operands_of_another_ring_raise_value_error(other):
    z = CyclotomicElem.zeta(5)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError, match="mixed cyclotomic rings"):
            op(z, other)
    assert z != other


@given(st.sampled_from([3, 5, 7]), st.data())
def test_cyclotomic_coords_round_trip_and_scalars_stay_reduced(p, data):
    coords = data.draw(st.lists(st.integers(-50, 50), min_size=p - 1, max_size=p - 1))
    elem = CyclotomicElem(p, coords)
    assert elem.coords == tuple(coords)
    assert CyclotomicElem(p, elem.coords) == elem
    reduced = CyclotomicElem(p, coords, mod=p)
    assert reduced.coords == tuple(c % p for c in coords)
    scalar = data.draw(st.integers(-100, 100))
    for product in (reduced * scalar, scalar * reduced):
        assert product.coords == tuple(c * scalar % p for c in coords)


def test_power_by_repeated_squaring():
    z = CyclotomicElem.zeta(7)
    one = CyclotomicElem.one(7)
    assert power(z, 0, one) is one
    assert power(z, 7, one) == one and z**9 == CyclotomicElem.zeta(7, 2)
    assert power(3, 5, 1) == 243
    with pytest.raises(ValueError):
        power(z, -1, one)
    with pytest.raises(ValueError):
        z**-1
    # a Laurent unit monomial is inverted before the power is taken
    x = LaurentInt.x()
    assert (-x) ** -3 == LaurentInt.x(-3, -1) and x**0 == LaurentInt.one()


def _python_matmul(a, b, p):
    return (a.astype(object) @ b.astype(object)) % p


def _refused(p, *calls):
    """Whether p lies past the kernels' bound of 2**8, asserting then that
    every call refuses it.  The cases of the moduli the kernels took
    before they had that bound are kept as refusal cases."""
    if p < rings._MODULUS_BOUND:
        return False
    for call in calls:
        with pytest.raises(ValueError, match="too large"):
            call()
    return True


@pytest.mark.parametrize(
    "p, inner",
    [
        (3, 50),
        (13, 50),
        # float32 while inner * (p - 1)**2 < 2**24, float64 past it
        (211, 380),
        (211, 381),
        (251, 268),  # the largest prime the kernels take
        (251, 269),
        (7, 466033),  # the last float32 inner dimension at p = 7
        # refused: once one and two float64 chunks, and the largest prime
        # with chunks of 128 terms
        (1000003, 9007),
        (1000003, 9008),
        (8388593, 3000),
    ],
)
def test_fp_matmul_matches_python_integers_at_the_largest_entries(p, inner):
    a = np.full((3, inner), p - 1, dtype=np.int64)
    b = np.full((inner, 2), p - 1, dtype=np.int64)
    if _refused(p, lambda: fp_matmul(a, b, p)):
        return
    out = fp_matmul(a, b, p)
    assert out.dtype == np.uint8
    assert out.tolist() == [[inner * (p - 1) ** 2 % p] * 2] * 3
    assert np.array_equal(out, _python_matmul(a, b, p))
    # one odd term makes the sum odd, which a float type too narrow for it
    # would round to an even neighbour
    a[:, 0] = b[0] = p - 2
    assert np.array_equal(fp_matmul(a, b, p), _python_matmul(a, b, p))


# Moduli far past the kernels' bound of 2**8: for 2**32 + 15 even one
# residue product exceeds 2**53 (and 2**62).  The first prime past the
# bound, 257, is refused by every kernel in tests/test_bounds.py.
_REFUSED_PRIMES = (8388617, 67108859, 2**32 + 15)


def test_fp_matmul_refuses_a_modulus_beyond_int64_products():
    for p in _REFUSED_PRIMES:
        with pytest.raises(ValueError, match="too large"):
            fp_matmul(np.ones((2, 2), dtype=np.int64), np.ones((2, 2), dtype=np.int64), p)


@pytest.mark.parametrize("p", [3, 13, 211, 251, 1000003, 8388593])
def test_fp_matmul_random_entries_any_sign(p):
    rng = np.random.RandomState(p % 1000)
    a = rng.randint(-(2**62), 2**62, size=(4, 9100), dtype=np.int64)
    b = rng.randint(-3 * p, 3 * p, size=(9100, 3), dtype=np.int64)
    if _refused(p, lambda: fp_matmul(a, b, p)):
        return
    assert np.array_equal(fp_matmul(a, b, p), _python_matmul(a, b, p))
    # a vector right-hand side keeps its shape
    assert np.array_equal(fp_matmul(a, b[:, 0], p), _python_matmul(a, b[:, 0], p))


def test_int_gram_is_exact_on_every_route():
    # one route, float32, summed into int16 or int32, and a refusal past it
    # (their edges are driven in tests/test_bounds.py)
    rng = np.random.RandomState(1)
    small = rng.randint(-1, 2, size=(300, 20))  # 0/+-1 entries, as in the polytabloid bases
    assert np.array_equal(int_gram(small), small.astype(object).T @ small.astype(object))
    assert int_gram(small).dtype == np.int16  # 300 < 2**15
    # 4 * 2047**2 lies below 2**24, with odd Gram entries that a rounding
    # float type would move
    m = rng.randint(-2047, 2048, size=(4, 30))
    m[:, 0] = 2047
    assert np.array_equal(int_gram(m), m.astype(object).T @ m.astype(object))
    assert int_gram(m).dtype == np.int32
    # 1030 columns take three column tiles of the upper triangle, and 600
    # rows two row blocks; the float64 product of such small integers is
    # exact
    wide = rng.randint(-1, 2, size=(600, 1030))
    for m, dtype in ((wide, np.int16), (8 * wide, np.int32)):  # 600 * 64 > 2**15
        gram = int_gram(m)
        assert gram.dtype == dtype and np.array_equal(gram, m.astype(np.float64).T @ m.astype(np.float64))
    # from 2**24 on float32 would round, so it is refused
    big = rng.randint(-(2**24), 2**24, size=(300, 5))
    for m in (big, big.astype(np.int32), np.full((4, 2), 2**31, dtype=np.int64), np.full((5, 30), 2047)):
        with pytest.raises(OverflowError):
            int_gram(m)


def _sign_matrix(dense):
    """The SignMatrix of a dense 0/+-1 array, its nonzeros listed column by
    column."""
    j, i = np.nonzero(dense.T)
    return SignMatrix(dense.shape, i, j, dense[i, j])


def _random_signs(rng, rows, cols, density):
    return (rng.random_sample((rows, cols)) < density) * rng.choice([-1, 1], size=(rows, cols)).astype(np.int8)


def test_sign_matrix_holds_five_read_only_bytes_a_nonzero():
    rng = np.random.RandomState(2)
    for shape in ((0, 0), (3, 0), (1, 1), (40, 7), (300, 120)):
        dense = _random_signs(rng, *shape, 0.1)
        m = _sign_matrix(dense)
        assert m.shape == shape and len(m) == shape[0]
        assert np.array_equal(m[:], dense) and m[:].dtype == np.int8
        assert len(m.index) == len(m.sign) == np.count_nonzero(dense)
        assert m.index.itemsize + m.sign.itemsize <= 5
        for a in (m.index, m.sign):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
    # past 2**31 positions the index widens to int64
    assert SignMatrix((2**16, 2**15), [2**16 - 1], [2**15 - 1], [1]).index.tolist() == [2**31 - 1]


def test_sign_matrix_refuses_entries_it_cannot_hold():
    for rows, columns, signs in (
        ([0, 3], [0, 0], [1, 1]),  # a row outside the shape
        ([0, 1], [0, 2], [1, 1]),  # a column outside it
        ([-1], [0], [1]),
        ([1, 1], [0, 0], [1, -1]),  # one place twice
        ([1, 1], [1, 0], [1, 1]),  # columns falling within a row
        ([0], [0], [2]),
        ([0], [0], [0]),
    ):
        with pytest.raises(ValueError):
            SignMatrix((3, 2), np.array(rows), np.array(columns), np.array(signs))


def test_sign_matrix_refuses_nonzero_arrays_of_different_lengths():
    # the nonzeros were once built from rows alone: here one, and then none,
    # with the column 5 outside the shape never checked
    for rows, columns, signs in (([0], [0, 1], [1, 1, 1]), ([], [5], [1])):
        lengths = f"{len(rows)}, {len(columns)} and {len(signs)}"
        with pytest.raises(ValueError, match=lengths):
            SignMatrix((2, 2), rows, columns, signs)


def test_sign_matrix_refuses_a_boolean_row_array():
    # a mask was once read as the rows 1, 0, 1, where the dense array it
    # stands for reads rows 0 and 2
    m = _sign_matrix(np.array([[1, 0], [0, -1], [-1, 1]], dtype=np.int8))
    mask = np.array([True, False, True])
    for read in (m.__getitem__, m.entries):
        with pytest.raises(IndexError, match="bool"):
            read(mask)
    assert np.array_equal(m[np.flatnonzero(mask)], [[1, 0], [-1, 1]])


def test_sign_matrix_rows_and_entries_are_those_of_the_dense_array():
    rng = np.random.RandomState(4)
    dense = _random_signs(rng, 70, 30, 0.2)
    dense[5] = 0  # an empty row
    m = _sign_matrix(dense)
    for rows in (np.arange(70), rng.permutation(70), np.array([5, 5, 0, 69, 3]), np.array([], dtype=np.intp)):
        assert np.array_equal(m[rows], dense[rows]) and m[rows].dtype == np.int8
        i, j, signs = m.entries(rows)
        assert [i.tolist(), j.tolist()] == [a.tolist() for a in np.nonzero(dense[rows])]
        assert np.array_equal(signs, dense[rows][i, j])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(0, 300), st.integers(0, 40), st.data())
def test_sign_matrix_reads_every_slice_and_row_array_as_its_dense_array(seed, rows, cols, data):
    rng = np.random.RandomState(seed)
    dense = _random_signs(rng, rows, cols, 0.15)
    m = _sign_matrix(dense)
    # bounds past either end, and negative ones, as a slice of an array takes them
    bound = st.none() | st.integers(-rows - 5, rows + 5)
    lo, hi = data.draw(bound), data.draw(bound)
    block = m[lo:hi]
    assert block.dtype == np.int8 and np.array_equal(block, dense[lo:hi])
    assert np.array_equal(m[slice(lo, hi, 1)], dense[lo:hi])
    # unordered, repeated or empty rows
    picks = np.array(data.draw(st.lists(st.integers(0, max(0, rows - 1)), max_size=2 * rows)), dtype=np.intp)
    assert np.array_equal(m[picks], dense[picks]) and m[picks].shape == (len(picks), cols)
    for step in (2, -1):
        with pytest.raises(ValueError, match="step 1"):
            m[lo:hi:step]


def test_sign_matrix_refuses_a_row_outside_it_by_name():
    # a row past the int32 wrap of rows * width once aliased a real row:
    # 4096 * 2**20 = 2**32 read row 0, and 2047 raised a numpy error
    m = SignMatrix((3, 2**20), [0, 1, 2], [5, 6, 7], [1, -1, 1])
    for row in (-1, 3, 2047, 4096):
        with pytest.raises(IndexError, match=f"row {row} "):
            m.entries(np.array([0, row]))
        with pytest.raises(IndexError, match=f"row {row} "):
            m[np.array([row])]
    i, j, signs = m.entries(np.array([2, 0]))
    assert [i.tolist(), j.tolist(), signs.tolist()] == [[0, 1], [7, 5], [1, 1]]
    assert np.array_equal(np.nonzero(m[np.array([1])]), [[0], [6]]) and np.array_equal(np.nonzero(m[5:]), [[], []])


@pytest.mark.parametrize("p", [3, 5, 7, 211])
def test_kernels_give_the_same_results_from_a_sign_matrix_and_its_dense_array(p):
    rng = np.random.RandomState(p)
    # 1100 rows take several row blocks in every kernel
    for rows, cols, width in ((1100, 90, 70), (17, 5, 3), (0, 4, 2)):
        dense = _random_signs(rng, rows, cols, 0.05)
        m = _sign_matrix(dense)
        b = rng.randint(0, p, size=(cols, width)).astype(np.uint8)
        product = fp_matmul(dense, b, p)
        assert np.array_equal(fp_matmul(m, b, p), product)
        assert rings.fp_product_equals(m, b, product, p)
        if rows:
            product[-1, -1] = (int(product[-1, -1]) + 1) % p  # wrong in the last block only
            assert not rings.fp_product_equals(m, b, product, p)
        assert np.array_equal(int_gram(m), int_gram(dense)) and int_gram(m).dtype == int_gram(dense).dtype


@pytest.mark.parametrize("dtype", [np.int8, np.uint8])
def test_byte_inputs_give_the_int64_results(dtype):
    # 211, the largest prime the commands accept, has residue 210; int8
    # reaches -128 and uint8 255, neither of them a residue
    p = 211
    rng = np.random.RandomState(11)
    info = np.iinfo(dtype)
    a = rng.randint(info.min, info.max + 1, size=(1100, 60)).astype(dtype)  # three row blocks
    b = rng.randint(info.min, info.max + 1, size=(60, 7)).astype(dtype)
    a[-1, :] = b[:, 0] = -1 if dtype == np.int8 else p - 1
    wide_a, wide_b = a.astype(np.int64), b.astype(np.int64)
    assert np.array_equal(fp_matmul(a, b, p), fp_matmul(wide_a, wide_b, p))
    assert np.array_equal(fp_matmul(a, b, p), _python_matmul(wide_a, wide_b, p))
    # a Gram bound of 256 * 128**2 (int8) or 256 * 255**2 (uint8) is below
    # 2**24; the whole of a passes it and is refused
    assert np.array_equal(int_gram(a[:256]), int_gram(wide_a[:256]))
    with pytest.raises(OverflowError):
        int_gram(a)

    gram = int_gram(rng.randint(-1, 2, size=(30, 40))) % p
    byte_gram = gram.astype(np.uint8) if dtype == np.uint8 else (gram - p * (gram > 127)).astype(np.int8)
    ours, ref = GramQuotient(byte_gram, p), GramQuotient(gram, p)
    rref, pivots = fp_rref(gram, p)
    assert np.array_equal(ours.reduced_free, rref[: len(pivots)][:, ref.free_idx])
    assert np.array_equal(ours.reduced_free, ref.reduced_free) and np.array_equal(ours.pivot_idx, ref.pivot_idx)
    cols = a[:40, :5]
    assert np.array_equal(ours.project_columns(cols), ref.project_columns(cols.astype(np.int64)))


def _rref_python_ints(a, p):
    """Reference: the per-pivot Gauss-Jordan elimination with the fixed
    pivot scan, in Python integers."""
    m = np.array(a, dtype=object) % p
    rows, cols = m.shape
    pivots = []
    for c in range(cols):
        r = len(pivots)
        i = next((i for i in range(r, rows) if m[i, c]), None)
        if i is None:
            continue
        m[[r, i]] = m[[i, r]]
        m[r] = m[r] * pow(int(m[r, c]), -1, p) % p
        for j in range(rows):
            if j != r and m[j, c]:
                m[j] = (m[j] - m[j, c] * m[r]) % p
        pivots.append(c)
    return m, pivots


def _staircase(rng, rows, cols, p):
    """Full-rank rows whose leading entries are spread over every panel."""
    a = rng.randint(0, p, size=(rows, cols))
    for i in range(rows):
        a[i, : i * cols // rows] = 0
        a[i, i * cols // rows] = 1
    return a[rng.permutation(rows)]


def _rref_cases(rng, p):
    # the per-pivot loop alone up to 2 * _PANEL columns, blocked beyond
    for cols in (_PANEL - 1, _PANEL, _PANEL + 1, 2 * _PANEL - 1, 2 * _PANEL, 2 * _PANEL + 1, 3 * _PANEL, 3 * _PANEL + 1):
        yield _staircase(rng, cols // 3, cols, p)
        # rank-deficient, with dependent rows interleaved
        dependent = (rng.randint(0, p, size=(cols // 2, cols // 4)) @ _staircase(rng, cols // 4, cols, p)) % p
        yield dependent
        # tall
        yield dependent.T
        yield _staircase(rng, cols // 3, cols, p).T
        yield rng.randint(0, p, size=(12, cols))  # rank is reached in the first panel
        a = _staircase(rng, 30, cols, p)
        a[:, ::3] = 0
        a[:, : min(_PANEL, cols - 1)] = 0  # a panel without pivots
        yield a
        a = rng.randint(0, p, size=(40, cols))
        a[:, cols // 3 :] = 0  # the rank stops short of the row count
        yield a
    yield rng.randint(0, p, size=(_PANEL + 1, _PANEL + 1))
    # whole panels of zeros, and rows past the rank
    a = _staircase(rng, 20, 4 * _PANEL + 1, p)
    a[:, _PANEL : 3 * _PANEL] = 0
    yield np.concatenate([a, a[:7]])
    for shape in ((0, 2 * _PANEL + 1), (2 * _PANEL + 1, 0), (0, 0), (3, 0), (5, 2 * _PANEL + 1)):
        yield np.zeros(shape, dtype=np.int64)


@pytest.mark.parametrize("p", [3, 5, 7, 23, 29, 211, 251, 4093, 4099, 5791, 5801, 8388593])
def test_fp_rref_matches_python_integer_elimination(p):
    # 23 is the largest prime eliminated in int16 and 29 the first in
    # int32; 251 is the largest prime the kernels take.  fp_rank reads the
    # same rank without the reduced form.  The primes once eliminated at
    # the switch from int32 to int64 (5791 and 5801) and near it, and the
    # largest prime products took, are refused.
    a = np.array([[1, 2, 3], [4, 5, 6]])
    if _refused(p, lambda: fp_rref(a, p), lambda: fp_rank(a, p)):
        return
    rng = np.random.RandomState(p % 1009)
    for a in _rref_cases(rng, p):
        got, pivots = fp_rref(a, p)
        ref, ref_pivots = _rref_python_ints(a, p)
        assert pivots == ref_pivots, a.shape
        assert got.dtype == np.uint8 and got.shape == a.shape
        assert got.tolist() == ref.tolist(), a.shape
        assert fp_rank(a, p) == len(ref_pivots), a.shape


def test_fp_rref_accepts_any_integer_entries():
    q = 67108859
    a = np.array([[-1, 2 * q + 3, 5], [7, -q, 2]] * 40, dtype=np.int64)
    a = np.concatenate([a] * (_PANEL // 3 + 1), axis=1)
    got, pivots = fp_rref(a, 7)
    ref, ref_pivots = _rref_python_ints(a, 7)
    assert pivots == ref_pivots and got.tolist() == ref.tolist()
    assert fp_rank(a, 7) == fp_rank(a.T, 7) == len(ref_pivots)


@pytest.mark.parametrize("p", [3, 211, 251])
def test_kernels_return_byte_residues_equal_to_python_integers(p):
    rng = np.random.RandomState(p)
    # products: 0 rows, inner dimension 0, 0 columns, a vector right-hand
    # side, and a left operand of several blocks
    for rows, inner, cols in ((0, 5, 3), (4, 0, 3), (4, 5, 0), (0, 0, 0), (300, 40, 7), (2 * _ROW_BLOCK + 3, 70, 90)):
        a = rng.randint(-3 * p, 3 * p, size=(rows, inner))
        b = rng.randint(-3 * p, 3 * p, size=(inner, cols))
        got = fp_matmul(a, b, p)
        assert got.dtype == np.uint8 and got.shape == (rows, cols)
        assert got.tolist() == _python_matmul(a, b, p).tolist()
        if cols:
            vector = fp_matmul(a, b[:, 0], p)
            assert vector.dtype == np.uint8 and vector.tolist() == _python_matmul(a, b[:, 0], p).tolist()
    # eliminations, by the per-pivot loop alone and blocked
    for shape in ((0, 4), (4, 0), (0, 0), (7, 5), (40, 3 * _PANEL + 1)):
        a = rng.randint(-3 * p, 3 * p, size=shape)
        got, pivots = fp_rref(a, p)
        ref, ref_pivots = _rref_python_ints(a, p)
        assert got.dtype == np.uint8 and pivots == ref_pivots and got.tolist() == ref.tolist()
    # inverses of L U, L and U unitriangular, and so invertible mod p: an
    # array of their own, not a view of the n x 2n reduced form
    for n in (0, 1, 5, 2 * _PANEL + 1):
        lower = np.tril(rng.randint(0, p, size=(n, n)), -1) + np.identity(n, dtype=np.int64)
        a = lower @ (lower.T + 2 * p)
        inverse = fp_inverse(a, p)
        assert inverse.dtype == np.uint8 and inverse.shape == (n, n) and inverse.base is None
        assert (_python_matmul(a, inverse, p) == np.identity(n, dtype=np.int64)).all()


@pytest.mark.parametrize("dtype", [np.int8, np.uint8])
def test_byte_matrices_are_eliminated_as_their_residues(dtype):
    # int8 reaches -128 and uint8 255, neither of them a residue mod 5 or 211
    rng = np.random.RandomState(23)
    info = np.iinfo(dtype)
    for p in (5, 211):
        for shape in ((40, 2 * _PANEL - 1), (30, 3 * _PANEL + 1), (3 * _PANEL + 1, 2 * _PANEL + 5)):
            a = rng.randint(info.min, info.max + 1, size=shape).astype(dtype)
            got, pivots = fp_rref(a, p)
            ref, ref_pivots = _rref_python_ints(a.astype(np.int64), p)
            assert pivots == ref_pivots and got.tolist() == ref.tolist(), (p, shape)
            assert fp_rank(a, p) == len(ref_pivots), (p, shape)


def test_delayed_reduction_holds_at_its_tightest_bound():
    # The per-pivot loop subtracts each rank-1 update unreduced, up to
    # (p - 1)**2 per pivot.  At the largest prime of each type (23 in
    # int16, 251 in int32) and the first past int16 (29), a full-rank
    # square of 2 * _PANEL columns
    # puts all its pivots through one loop, and a 3 * _PANEL square has
    # every panel of the blocked elimination find _PANEL pivots; entries
    # in [p - 16, p) make the first updates the largest residue products.
    rng = np.random.RandomState(17)
    for p in (23, 29, 251):
        for n in (2 * _PANEL, 3 * _PANEL):
            a = rng.randint(p - min(p - 1, 16), p, size=(n, n))
            kept = a.copy()
            got, pivots = fp_rref(a, p)
            ref, ref_pivots = _rref_python_ints(a, p)
            assert pivots == ref_pivots == list(range(n))
            assert got.tolist() == ref.tolist()
            assert fp_rank(a, p) == n
            assert np.array_equal(a, kept)  # residues are read, not reduced in place


def _identity_led(p, panels):
    """A full-rank square of whole panels in which every panel's pivot
    block is the identity, with p - 1 right of it in its rows and below it
    in the others, at every stage: the Schur complement of the block in
    [[I, (p-1)J], [(p-1)J, S + _PANEL * J]] is S mod p, since
    (p - 1)**2 = 1.  Each panel's update then moves every entry below and
    right of it by the whole _PANEL * (p - 1)**2."""
    s = np.identity(_PANEL, dtype=np.int64)
    for _ in range(panels - 1):
        n = len(s)
        top = np.hstack([np.identity(_PANEL, dtype=np.int64), np.full((_PANEL, n), p - 1)])
        s = np.vstack([top, np.hstack([np.full((n, _PANEL), p - 1), (s + _PANEL) % p])])
    return s


@pytest.mark.parametrize("p, limit", [(23, 2**15), (4093, 2**31)])
def test_the_trailing_bound_forces_reductions_mid_elimination(p, limit):
    # Panel updates are subtracted from the rest of the matrix unreduced,
    # _PANEL * (p - 1)**2 per full panel, until one more would pass the
    # limit of the elimination's type: at 23 in int16 after two panels.
    # On six identity-led panels every update reaches that bound, so
    # without the reductions entries would wrap.  4093, which int32 took
    # for four panels, is refused; at every p below 2**8 the int32 bound
    # lies past a thousand panels, and tests/test_bounds.py drives it at a
    # lowered limit.
    if _refused(p, lambda: fp_rref(_identity_led(p, 2), p)):
        return
    panels = 2
    assert panels * _PANEL * (p - 1) ** 2 + p < limit <= (panels + 1) * _PANEL * (p - 1) ** 2 + p
    rng = np.random.RandomState(29)
    square = _identity_led(p, 6)
    n = len(square)
    # columns past the square make the reduced form depend on every entry
    a = np.hstack([square, rng.randint(0, p, size=(n, 5))])
    got, pivots = fp_rref(a, p)
    ref, ref_pivots = _rref_python_ints(a, p)
    assert pivots == ref_pivots == list(range(n)) and got.tolist() == ref.tolist()
    assert fp_rank(a, p) == n
    # rank-deficient: the rows past the rank keep their Schur complement
    b = np.vstack([a[: 5 * _PANEL], (rng.randint(0, p, size=(7, 5 * _PANEL)) @ a[: 5 * _PANEL]) % p])
    assert fp_rank(b, p) == len(fp_rref(b, p)[1]) == len(_rref_python_ints(b, p)[1]) == 5 * _PANEL


def test_int64_extremes_are_reduced_without_wrapping():
    # entries at the int64 limits come out as their exact residues; the
    # fast reduction of intermediates, a - (a // p) * p, would pass the
    # int64 range on them, so input is reduced by np.remainder
    info = np.iinfo(np.int64)
    rng = np.random.RandomState(19)
    for p, cols in ((3, _PANEL), (211, 2 * _PANEL + 3), (251, 2 * _PANEL + 3)):
        a = rng.randint(-(2**62), 2**62, size=(12, cols), dtype=np.int64)
        a[::2, ::3] = info.min
        a[1::2, 1::3] = info.max
        got, pivots = fp_rref(a, p)
        ref, ref_pivots = _rref_python_ints(a, p)
        assert pivots == ref_pivots and got.tolist() == ref.tolist()
        assert fp_rank(a, p) == fp_rank(a.T, p) == len(ref_pivots)
        b = rng.randint(-(2**62), 2**62, size=(a.shape[1], 4), dtype=np.int64)
        b[::2, 0] = info.min
        b[1::2, 1] = info.max
        assert np.array_equal(fp_matmul(a, b, p), _python_matmul(a, b, p))


def test_eliminations_refuse_a_modulus_beyond_int64_products():
    # eliminations refuse what products refuse, even when no product runs
    for p in _REFUSED_PRIMES:
        a = np.array([[p - 1, p - 2, 3], [p - 3, 1, p - 5]], dtype=np.int64)
        with pytest.raises(ValueError, match="too large"):
            fp_rref(a, p)
        with pytest.raises(ValueError, match="too large"):
            fp_rank(a, p)
        with pytest.raises(ValueError, match="too large"):
            fp_inverse(a[:, :2], p)


@pytest.mark.parametrize("p", [3, 5, 23, 29, 211])
def test_gram_quotient_fields_are_lazy_and_equal_the_eager_ones(p):
    from spechtres.specht import Diagram2, gram_of_diagram

    # Grams at most 2 * _PANEL wide keep the reduced form of their rank's
    # loop; the wider ones eliminate again on first use.  The Specht Grams
    # are int16, and eliminate to the same results as their int32 copies,
    # in int16 up to p = 23 and in int32 from p = 29 on
    for tau in (Diagram2(2, 2), Diagram2(5, 3), Diagram2(6, 6), Diagram2(9, 4), Diagram2(8, 5)):
        gram = gram_of_diagram(tau)
        assert gram.dtype == np.int16
        rref, pivots = fp_rref(gram, p)
        wide_rref, wide_pivots = fp_rref(gram.astype(np.int32), p)
        assert np.array_equal(rref, wide_rref) and pivots == wide_pivots
        assert fp_rank(gram, p) == fp_rank(gram.astype(np.int32), p) == len(pivots)
        q, wide = GramQuotient(gram, p), GramQuotient(gram.astype(np.int32), p)
        assert q.quotient_dim == len(pivots) == wide.quotient_dim, tau
        free = [f for f in range(len(gram)) if f not in pivots]
        assert np.array_equal(q.reduced_free, rref[: len(pivots)][:, free])
        assert q.free_idx.tolist() == free and q.pivot_idx.tolist() == pivots
        for name in ("reduced_free", "free_idx", "pivot_idx"):
            assert np.array_equal(getattr(q, name), getattr(wide, name))
        assert q.quotient_dim == len(pivots)  # the same after the fields are built
        for name in ("reduced_free", "free_idx", "pivot_idx"):
            assert not getattr(q, name).flags.writeable
            with pytest.raises(AttributeError):
                setattr(q, name, np.zeros(1))
        assert q.reduced_free is q.reduced_free  # eliminated once


def test_gram_quotient_eliminates_a_wide_gram_once(monkeypatch):
    from spechtres.specht import Diagram2, gram_of_diagram

    calls = []
    for name in ("fp_rref", "fp_rank"):
        monkeypatch.setattr(rings, name, lambda a, p, f=getattr(rings, name), name=name: calls.append(name) or f(a, p))
    # a Gram at most 2 * _PANEL wide is not eliminated on construction;
    # its rank and its fields come from one reduced form
    narrow = gram_of_diagram(Diagram2(5, 3))  # 28 columns, a radical of 7 at p = 5
    q = GramQuotient(narrow, 5)
    assert calls == []
    assert q.quotient_dim == 21 and len(q.pivot_idx) == 21
    assert calls == ["fp_rref"]
    calls.clear()
    gram = gram_of_diagram(Diagram2(7, 5))  # 297 columns
    assert gram.shape[1] > 2 * _PANEL
    # a reader of the fields takes the rank from the same reduced form
    q = GramQuotient(gram, 7)
    assert len(q.free_idx) + q.quotient_dim == len(gram)
    assert calls == ["fp_rref"]
    # a reader of the rank alone takes no reduced form
    calls.clear()
    assert GramQuotient(gram, 7).quotient_dim == q.quotient_dim
    assert calls == ["fp_rank"]


def test_byte_residues_match_the_int64_remainder():
    # every byte value, in more rows than two blocks take; entries inside
    # (-p, p); entries in [-p, p]; and an empty array
    rows = 2 * _ROW_BLOCK + 5
    a = (np.arange(rows * 256) % 256 - 128).reshape(rows, 256)
    for p in (3, 211, 251):
        for case in (a, np.sign(a) * (np.abs(a) % p), np.clip(a, -p, p)):
            for dtype in (np.int8, np.uint8):
                b = (case if dtype == np.int8 else np.abs(case)).astype(dtype)
                got = residues(b, p)
                assert got.dtype == np.uint8
                assert np.array_equal(got, np.remainder(b.astype(np.int64), p)), (p, dtype)
        assert np.array_equal(residues(a, p), np.remainder(a, p))
        assert residues(np.zeros((0, 3), dtype=np.int8), p).shape == (0, 3)


def _kernel_readings(dtype, p):
    """What every mod-p kernel returns for inputs of one integer type: a
    random matrix, a basis with an upper unitriangular square in rows 0..2
    and columns in its span, and a Gram with a radical over Z, column 5
    being column 0 plus column 1 of the matrix it comes from."""
    from spechtres.extension import form_quotient_data, mu_component_map, mu_induced

    rng = np.random.RandomState(3)
    a = rng.randint(-100, 100, size=(9, 6))
    basis = np.vstack([[[1, 2, -1], [0, 1, 3], [0, 0, 1]], rng.randint(-3, 4, size=(4, 3))])
    columns = basis @ rng.randint(-5, 6, size=(3, 4))
    m = rng.randint(-1, 2, size=(5, 6))
    m[:, 5] = m[:, 0] + m[:, 1]
    gram = m.T @ m
    lower = np.tril(rng.randint(-3, 4, size=(4, 4)), -1) + np.identity(4, dtype=np.int64)
    solver = rings.BasisSolver(p, basis.astype(dtype), np.arange(3))
    q = GramQuotient(gram.astype(dtype), p)
    _, _, complement, masks = form_quotient_data(p, 3, 3)
    x = ExteriorVector.monomial(3, masks[complement[0]])
    return {
        "residues": residues(a.astype(dtype), p),
        "fp_matmul": fp_matmul(a.astype(dtype), a.T.astype(dtype), p),
        "fp_rref": fp_rref(a.astype(dtype), p)[0],
        "fp_inverse": fp_inverse((lower @ lower.T).astype(dtype), p),
        "coords": solver.coords(columns.astype(dtype)),
        "back_substitute": solver.back_substitute(columns[:3].astype(dtype)),
        "project_columns": q.project_columns(a[:6].astype(dtype)),
        "quotient_matrix": q.quotient_matrix(gram.astype(dtype)),
        "mu_component_map": mu_component_map(p, 1, 3, x),
        "mu_induced": mu_induced(p, 1, 3, x),
    }


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int64, object])
def test_every_mod_p_kernel_returns_byte_residues(dtype):
    # one residue format: whatever integer type goes in, every mod-p kernel
    # returns uint8 residues in [0, p), those of the Python-int input
    p = 7
    got, want = _kernel_readings(dtype, p), _kernel_readings(object, p)
    for name, reading in got.items():
        assert reading.dtype == np.uint8 and (reading < p).all(), name
        assert reading.tolist() == want[name].tolist(), name
    assert got["project_columns"].shape[0] == got["quotient_matrix"].shape[0] < 6  # the radical is not zero
    assert got["mu_induced"].any()
    # byte residues are only read; a byte array with an entry of p or more
    # is reduced into a new one
    r = got["residues"]
    assert residues(r, p) is r
    high = r.copy()
    high[0, 0] = p
    reduced = residues(high, p)
    assert reduced is not high and reduced[0, 0] == 0 and np.array_equal(reduced[1:], r[1:])


def test_quotient_matrix_refuses_an_action_that_moves_the_radical():
    # the radical of [[1, 1], [1, 1]] mod 5 is spanned by (4, 1); the
    # diagonal action (1, 2) sends it to (4, 2), outside the radical
    q = GramQuotient(np.array([[1, 1], [1, 1]]), 5)
    assert q.quotient_matrix(np.identity(2, dtype=np.int64)).tolist() == [[1]]
    with pytest.raises(AssertionError, match="radical"):
        q.quotient_matrix(np.array([[1, 0], [0, 2]]))


class _RadicalOracle:
    # the simple quotient by subtraction of an explicit radical basis, read
    # off fp_rref: a column c has complement coordinates (c - K c[F])[P],
    # and a map A from the quotient of a source sends its radical into this
    # one when A K_src = K (A K_src)[F]
    def __init__(self, gram, p):
        rref, pivots = fp_rref(gram, p)
        self.p, self.pivots = p, pivots
        self.free = [f for f in range(gram.shape[1]) if f not in pivots]
        self.radical = _kernel_from_rref(rref, pivots, p)
        # the Gram kills every radical column, which is the identity on F
        assert not (gram.astype(np.int64) @ self.radical % p).any()
        assert np.array_equal(self.radical[self.free], np.identity(len(self.free), dtype=np.int64))

    def project_columns(self, cols):
        cols = cols.astype(np.int64) % self.p
        return ((cols - self.radical @ cols[self.free]) % self.p)[self.pivots]

    def quotient_matrix(self, action, source=None):
        # None when the map moves the source radical outside this one
        source = self if source is None else source
        moved = action.astype(np.int64) @ source.radical % self.p
        if not np.array_equal(moved, self.radical @ moved[self.free] % self.p):
            return None
        return self.project_columns(action[:, source.pivots])

    def keeping_map(self, rng, source_gram):
        # X G_src kills the source radical, and K Z maps into this radical
        d = len(self.radical)
        return (rng.randint(0, self.p, size=(d, len(source_gram))) @ source_gram
                + self.radical @ rng.randint(0, self.p, size=(len(self.free), len(source_gram)))) % self.p


def _agrees_with_the_oracle(q, oracle, action, source=(None, None)):
    # whether the map from the quotient source (the pair of a GramQuotient
    # and its oracle; q itself when None) is accepted; verdict and matrix
    # are the oracle's
    q_src, oracle_src = source
    want = oracle.quotient_matrix(action, oracle_src)
    if want is None:
        with pytest.raises(AssertionError, match="radical"):
            q.quotient_matrix(action, q_src)
        return False
    assert np.array_equal(q.quotient_matrix(action, q_src), want)
    return True


def test_quotient_readings_equal_the_radical_subtraction():
    rng = np.random.RandomState(26)
    widths = (0, 1, 2, 7, 40, 2 * _PANEL, 2 * _PANEL + 1, 90)
    verdicts = set()
    for p in (3, 5, 7, 211):
        for d in widths:
            grams = [int_gram(rng.randint(-2, 3, size=(rows, d))) for rows in {max(1, d // 2), d + 3}]
            grams.append(int_gram(p * rng.randint(-1, 2, size=(3, d))))  # zero mod p
            grams.append(int_gram(np.identity(d, dtype=np.int64)))  # full rank
            quotients = [(GramQuotient(gram, p), _RadicalOracle(gram, p)) for gram in grams]
            for gram, (q, oracle) in zip(grams, quotients):
                assert q.pivot_idx.tolist() == oracle.pivots and q.free_idx.tolist() == oracle.free
                assert q.quotient_dim == len(oracle.pivots)
                cols = rng.randint(-p, 2 * p, size=(d, 5))
                assert np.array_equal(q.project_columns(cols), oracle.project_columns(cols))
                # a keeping map maps the radical into itself; a random action need not
                assert _agrees_with_the_oracle(q, oracle, oracle.keeping_map(rng, gram))
                _agrees_with_the_oracle(q, oracle, rng.randint(0, p, size=(d, d)))
            # maps between two different quotients: the sources include one
            # with a radical and the targets one of rank zero; one-entry
            # perturbations of a keeping map may move the source radical
            for (src_gram, source), (_, (q, oracle)) in permutations(zip(grams, quotients), 2):
                keeps = oracle.keeping_map(rng, src_gram)
                assert _agrees_with_the_oracle(q, oracle, keeps, source)
                for _ in range(3) if d else ():
                    moved = keeps.copy()
                    i, j = rng.randint(d, size=2)
                    moved[i, j] = (moved[i, j] + rng.randint(1, p)) % p
                    verdicts.add(_agrees_with_the_oracle(q, oracle, moved, source))
            assert not GramQuotient(grams[-2], p).quotient_dim
            assert not len(GramQuotient(grams[-1], p).free_idx)
    # some perturbation moves the source radical and is refused
    assert verdicts == {True, False}


def test_generator_perturbations_get_the_oracle_verdict():
    from spechtres.specht import Diagram2, gram_of_diagram, permutation_matrix_on_basis, sn_generators

    rng = np.random.RandomState(5)
    p = 5
    for tau in (Diagram2(5, 3), Diagram2(7, 5)):
        gram = gram_of_diagram(tau)
        q, oracle = GramQuotient(gram, p), _RadicalOracle(gram, p)
        verdicts = set()
        for g in sn_generators(tau.n):
            action = permutation_matrix_on_basis(tau.n, tau.c, g, p)
            verdicts.add(_agrees_with_the_oracle(q, oracle, action))
            for _ in range(12):
                moved = action.copy()
                i, j = rng.randint(len(gram), size=2)
                moved[i, j] = (moved[i, j] + rng.randint(1, p)) % p
                verdicts.add(_agrees_with_the_oracle(q, oracle, moved))
        # the generators are accepted and some perturbation is refused
        assert verdicts == {True, False}, tau


# ---------------------------------------------------------------------------
# the contract of SparseVector, for each of its three types: the spaces a
# type's vectors come in, the keys of a space, and the constructor

_SPARSE_TYPES = {
    "tensor": (st.integers(0, 4), lambda n: range(1 << n), TensorVector),
    "exterior": (st.integers(0, 2), lambda g: range(1 << (2 * g)), ExteriorVector),
    "laurent": (st.just(None), lambda _: range(-4, 5), lambda _, coeffs: LaurentInt(coeffs)),
}


@st.composite
def _one_space(draw, kind):
    """A constructor of vectors of one space, its keys, and two coefficient
    maps on them that may hold zeros."""
    spaces, keys_of, make = _SPARSE_TYPES[kind]
    space = draw(spaces)
    keys = keys_of(space)
    coeffs = st.dictionaries(st.sampled_from(keys), st.integers(-3, 3), max_size=6)
    return (lambda c: make(space, c)), keys, draw(coeffs), draw(coeffs)


@pytest.mark.parametrize("kind", sorted(_SPARSE_TYPES))
@given(data=st.data())
def test_sparse_vector_arithmetic_contract(kind, data):
    make, _, c1, c2 = data.draw(_one_space(kind))
    v, w = make(c1), make(c2)
    assert v.coeffs == {k: c for k, c in c1.items() if c}
    assert (v - v).is_zero() and v - v == make({})
    assert v + w == w + v and hash(v + w) == hash(w + v)
    assert v + w - w == v and -(-v) == v and v * 3 == v + v + v
    # the same value from a map with extra zeros and another key order
    same = make({**{k: 0 for k in reversed(list(c2))}, **c1})
    assert same == v and hash(same) == hash(v)
    assert v.dot(w) == sum(c * w.coeffs.get(k, 0) for k, c in v.coeffs.items()) == w.dot(v)


@pytest.mark.parametrize("kind", sorted(_SPARSE_TYPES))
@given(data=st.data())
def test_columns_put_each_coefficient_in_the_row_of_its_key(kind, data):
    make, keys, c1, c2 = data.draw(_one_space(kind))
    vectors = [make(c1), make(c2)]
    index = {k: row for row, k in enumerate(keys)}
    cols = SparseVector.columns(vectors, index, np.int64)
    for col, v in enumerate(vectors):
        assert {k: int(cols[index[k], col]) for k in keys if cols[index[k], col]} == v.coeffs
    assert SparseVector.columns(vectors, index, object).tolist() == cols.tolist()
    assume(any(c1.values()))
    del index[next(iter(vectors[0].coeffs))]
    with pytest.raises(ValueError):
        SparseVector.columns(vectors, index, np.int64)


def test_columns_keep_large_coefficients_exact_or_refuse_them():
    big = [LaurentInt({0: 2**63, 1: -(2**70)})]
    with pytest.raises(OverflowError):
        SparseVector.columns(big, range(2), np.int64)
    assert SparseVector.columns(big, range(2), object)[:, 0].tolist() == [2**63, -(2**70)]
    # a word outside the weight class of the columns
    words = [TensorVector.word(3, 0b011), TensorVector.word(3, 0b111)]
    with pytest.raises(ValueError):
        TensorVector.columns(words, weight_class_masks(3, 2)[1], np.int64)


@pytest.mark.parametrize("cls", [TensorVector, ExteriorVector])
@given(st.integers(0, 3), st.integers(0, 3))
def test_vectors_of_different_sizes_do_not_mix(cls, a, b):
    assume(a != b)
    v, w = cls(a, {0: 1}), cls(b, {0: 1})
    for op in (operator.add, operator.sub, SparseVector.dot):
        with pytest.raises(ValueError):
            op(v, w)
    assert v != w


@pytest.mark.parametrize(
    "v, w, error",
    [
        (TensorVector(2, {1: 1}), ExteriorVector(1, {1: 1}), ValueError),
        (ExteriorVector(1, {1: 1}), TensorVector(2, {1: 1}), ValueError),
        (LaurentInt({1: 1}), TensorVector(2, {1: 1}), TypeError),
    ],
)
def test_vectors_of_different_types_do_not_mix(v, w, error):
    for op in (operator.add, operator.sub):
        with pytest.raises(error):
            op(v, w)
    assert v != w


def test_image_sums_the_images_of_keys_that_meet():
    v = TensorVector(2, {0b01: 2, 0b10: 3})
    # both words go to the all-plus word, with coefficients 5 and -1
    got = v.image(lambda w: ((0b11, 5 if w == 0b01 else -1),))
    assert got == TensorVector(2, {0b11: 2 * 5 + 3 * -1}) and got.n == 2


def test_image_drops_the_keys_whose_terms_cancel():
    v = LaurentInt({0: 1, 1: 1})
    got = v.image(lambda e: ((7, 1 if e else -1), (e, 2)))
    assert got.coeffs == {0: 2, 1: 2} and 7 not in got.coeffs
    assert LaurentInt({3: 4}).image(lambda e: ((e, 0),)).coeffs == {}


def test_image_of_the_empty_vector_is_empty():
    def never(key):
        raise AssertionError(f"rule called on {key}")

    assert TensorVector(3).image(never) == TensorVector(3)
    assert ExteriorVector(2).image(never, ExteriorVector(3)) == ExteriorVector(3)


def test_image_builds_its_result_in_the_target_space():
    got = TensorVector(1, {1: 4}).image(lambda w: ((w << 2, -1),), TensorVector(3))
    assert got == TensorVector(3, {0b100: -4}) and got.n == 3
    lifted = ExteriorVector(1, {0b11: 1}).image(lambda m: ((m | 0b1000, 1),), ExteriorVector(2))
    assert lifted == ExteriorVector(2, {0b1011: 1}) and lifted.g == 2
    # the target's key range is checked on construction
    with pytest.raises(ValueError, match="does not fit in 1 positions"):
        TensorVector(1, {1: 1}).image(lambda w: ((w << 1, 1),))


def test_image_passes_on_what_the_rule_raises():
    def refuse(key):
        raise KeyError(key)

    with pytest.raises(KeyError):
        TensorVector(2, {0b10: 1}).image(refuse)
