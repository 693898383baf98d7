import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spechtres.rings import (
    _PANEL,
    AUX_PRIME,
    CyclotomicElem,
    FpMatrix,
    FpScalar,
    LaurentInt,
    cyclotomic_eval,
    fp_kernel_basis,
    fp_matmul,
    fp_rank_kernel_image,
    fp_inverse,
    fp_rref,
    fp_solve,
    frac_solve,
    int_det,
    int_gram,
    quantum_integer,
    unitriangular_inverse,
    zeta_quantum,
)


def test_fp_scalar_field_axioms():
    x = FpScalar(3, 7)
    y = FpScalar(5, 7)
    assert int(x + y) == 1
    assert int(x * y) == 1
    assert int(-x) == 4
    assert int(x.inverse() * x) == 1
    assert int(y / y) == 1
    with pytest.raises(ValueError):
        FpScalar(1, 4)
    with pytest.raises(ValueError):
        x + FpScalar(1, 5)


def test_rank_kernel_image_identity():
    m = FpMatrix.identity(5, 2)
    rank, kernel, image = fp_rank_kernel_image(m)
    assert rank == 2
    assert kernel == []
    assert len(image) == 2


def test_rank_kernel_image_zero():
    m = FpMatrix.zeros(3, 3, 2)
    rank, kernel, image = fp_rank_kernel_image(m)
    assert rank == 0
    assert len(kernel) == 2
    assert image == []


def test_rank_kernel_image_on_degenerate_form():
    # the invariant form of the [2,2] lattice drops to rank 1 mod 3
    from spechtres.specht import Diagram2, gram_of_diagram

    gram = FpMatrix(3, gram_of_diagram(Diagram2(2, 2)))
    rank, kernel, image = fp_rank_kernel_image(gram)
    assert rank == 1 and len(kernel) == 1 and len(image) == 1
    rank5, _, _ = fp_rank_kernel_image(FpMatrix(5, gram_of_diagram(Diagram2(2, 2))))
    assert rank5 == 2


def test_rank_kernel_properties_random():
    rng = np.random.RandomState(0)
    for p in (3, 5, 7):
        for _ in range(15):
            rows, cols = rng.randint(1, 8), rng.randint(1, 8)
            m = FpMatrix(p, rng.randint(0, p, size=(rows, cols)))
            rank, kernel, image = fp_rank_kernel_image(m)
            assert rank + len(kernel) == cols
            for v in kernel:
                assert not ((m.a @ v) % p).any()
            # transposing preserves rank
            rank_t, _, _ = fp_rank_kernel_image(m.transpose())
            assert rank_t == rank


def test_fp_matrix_surface():
    a = FpMatrix(5, [[1, 2], [3, 4]])
    b = FpMatrix(5, [[0, 1], [1, 0]])
    assert (a @ b).a.tolist() == [[2, 1], [4, 3]]
    assert (a + b).a.tolist() == [[1, 3], [4, 4]]
    assert a.transpose().a.tolist() == [[1, 3], [2, 4]]
    with pytest.raises(ValueError):
        a @ FpMatrix(7, [[1, 0], [0, 1]])


def test_fp_solve_consistency():
    p = 7
    a = np.array([[1, 2], [3, 4], [5, 6]])
    x = np.array([[2], [5]])
    b = (a @ x) % p
    got = fp_solve(a, b, p)
    assert np.array_equal((a @ got) % p, b)
    with pytest.raises(ValueError):
        fp_solve(np.array([[1, 0], [0, 0]]), np.array([0, 1]), p)


def test_frac_solve_and_det():
    a = [[2, 1], [1, 1]]
    b = [[3], [2]]
    x = frac_solve(a, b)
    assert [int(v[0]) for v in x] == [1, 1]
    assert int_det([[2, 1], [1, 1]]) == 1
    assert int_det([[0, 1], [1, 0]]) == -1
    assert int_det([[1, 2], [2, 4]]) == 0


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
            assert abs(int_det(rows)) == 1


def test_invariant_coords_rejects_non_invariant():
    z = CyclotomicElem.zeta(5)
    with pytest.raises(ValueError):
        z.invariant_coords()


def test_laurent_negative_powers():
    x = LaurentInt.x()
    assert x**-2 == LaurentInt.x(-2)
    with pytest.raises(ValueError):
        (x + LaurentInt.one()) ** -1


def _python_matmul(a, b, p):
    return (a.astype(object) @ b.astype(object)) % p


@pytest.mark.parametrize(
    "p, inner",
    [
        (1000003, 9007),  # exactly one float64 chunk: (2**53 - p) // (p - 1)**2
        (1000003, 9008),  # one term more forces a second chunk
        (3, 50),
        (13, 50),
        (AUX_PRIME, 3000),  # the float64 chunk is too small: int64 route
    ],
)
def test_fp_matmul_matches_python_integers_at_the_largest_entries(p, inner):
    a = np.full((3, inner), p - 1, dtype=np.int64)
    b = np.full((inner, 2), p - 1, dtype=np.int64)
    out = fp_matmul(a, b, p)
    assert out.dtype == np.int64
    assert out.tolist() == [[inner * (p - 1) ** 2 % p] * 2] * 3
    assert np.array_equal(out, _python_matmul(a, b, p))


def test_fp_matmul_refuses_a_modulus_beyond_int64_products():
    p = 2**32 + 15  # prime; (p - 1)**2 exceeds 2**62
    with pytest.raises(ValueError, match="too large"):
        fp_matmul(np.ones((2, 2), dtype=np.int64), np.ones((2, 2), dtype=np.int64), p)


@pytest.mark.parametrize("p", [3, 13, 1000003, AUX_PRIME])
def test_fp_matmul_random_entries_any_sign(p):
    rng = np.random.RandomState(p % 1000)
    a = rng.randint(-(2**62), 2**62, size=(4, 9100), dtype=np.int64)
    b = rng.randint(-3 * p, 3 * p, size=(9100, 3), dtype=np.int64)
    assert np.array_equal(fp_matmul(a, b, p), _python_matmul(a, b, p))
    # a vector right-hand side keeps its shape
    assert np.array_equal(fp_matmul(a, b[:, 0], p), _python_matmul(a, b[:, 0], p))


def test_int_gram_is_exact_on_every_route():
    rng = np.random.RandomState(1)
    small = rng.randint(-1, 2, size=(300, 20))  # float64 route
    big = rng.randint(-(2**24), 2**24, size=(300, 5))  # int64 route
    for m in (small, big):
        assert np.array_equal(int_gram(m), m.astype(object).T @ m.astype(object))
    with pytest.raises(OverflowError):
        int_gram(np.full((4, 2), 2**31, dtype=np.int64))


def test_kernel_basis_from_one_elimination():
    rng = np.random.RandomState(2)
    for p in (3, 5, 7):
        for _ in range(10):
            a = rng.randint(0, p, size=(rng.randint(1, 9), rng.randint(1, 9)))
            rref, pivots = fp_rref(a, p)
            kernel = fp_kernel_basis(a, p)
            assert len(pivots) + len(kernel) == a.shape[1]
            free = [f for f in range(a.shape[1]) if f not in pivots]
            for f, v in zip(free, kernel):
                assert not ((a @ v) % p).any()
                assert v[f] == 1 and not v[[g for g in free if g != f]].any()


def test_unitriangular_inverse():
    rng = np.random.RandomState(3)
    for p in (3, 7, AUX_PRIME):
        for d in (0, 1, 5, 33, 70):
            u = np.triu(rng.randint(-5, 6, size=(d, d)), 1) + np.eye(d, dtype=np.int64)
            inv = unitriangular_inverse(u, p)
            assert np.array_equal(fp_matmul(u, inv, p), np.eye(d, dtype=np.int64))
    # over Z the entries of a 70 x 70 inverse outgrow int64
    for d in (0, 1, 5, 33, 70):
        u = np.triu(rng.randint(-5, 6, size=(d, d)), 1) + np.eye(d, dtype=np.int64)
        inv = unitriangular_inverse(u, None)
        assert inv.dtype == object
        assert np.array_equal(u.astype(object) @ inv, np.eye(d, dtype=np.int64))
        for p in (3, 7):
            assert np.array_equal(inv % p, unitriangular_inverse(u, p))
    for p in (5, None):
        with pytest.raises(ValueError):
            unitriangular_inverse(np.array([[1, 0], [1, 1]]), p)
        with pytest.raises(ValueError):
            unitriangular_inverse(np.array([[2, 0], [0, 1]]), p)


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
    for cols in (_PANEL - 1, _PANEL, _PANEL + 1, 2 * _PANEL - 1, 2 * _PANEL, 2 * _PANEL + 1):
        yield _staircase(rng, cols // 3, cols, p)
        # rank-deficient, with dependent rows interleaved
        yield (rng.randint(0, p, size=(cols // 2, cols // 4)) @ _staircase(rng, cols // 4, cols, p)) % p
        yield rng.randint(0, p, size=(12, cols))  # rank is reached in the first panel
        a = _staircase(rng, 30, cols, p)
        a[:, ::3] = 0
        a[:, : min(_PANEL, cols - 1)] = 0  # a panel without pivots
        yield a
        a = rng.randint(0, p, size=(40, cols))
        a[:, cols // 3 :] = 0  # the rank stops short of the row count
        yield a
    yield rng.randint(0, p, size=(_PANEL + 1, _PANEL + 1))
    for shape in ((0, 2 * _PANEL + 1), (2 * _PANEL + 1, 0), (0, 0), (3, 0)):
        yield np.zeros(shape, dtype=np.int64)


@pytest.mark.parametrize("p", [3, 5, 7, 8388593, AUX_PRIME])
def test_fp_rref_matches_python_integer_elimination(p):
    # 8388593 is the float64 product route at its smallest chunk (128
    # terms); AUX_PRIME is the int64 route
    rng = np.random.RandomState(p % 1009)
    for a in _rref_cases(rng, p):
        got, pivots = fp_rref(a, p)
        ref, ref_pivots = _rref_python_ints(a, p)
        assert pivots == ref_pivots, a.shape
        assert got.dtype == np.int64 and got.shape == a.shape
        assert got.tolist() == ref.tolist(), a.shape


def test_fp_rref_accepts_any_integer_entries():
    a = np.array([[-1, 2 * AUX_PRIME + 3, 5], [7, -AUX_PRIME, 2]] * 40, dtype=np.int64)
    a = np.concatenate([a] * (_PANEL // 3 + 1), axis=1)
    got, pivots = fp_rref(a, 7)
    ref, ref_pivots = _rref_python_ints(a, 7)
    assert pivots == ref_pivots and got.tolist() == ref.tolist()


def test_eliminations_refuse_a_modulus_beyond_int64_products():
    # (p - 1)**2 wraps int64; the reduced form would come back wrong
    p = 2**32 + 15
    a = np.array([[p - 1, p - 2, 3], [p - 3, 1, p - 5]], dtype=np.int64)
    with pytest.raises(ValueError, match="too large"):
        fp_rref(a, p)
    with pytest.raises(ValueError, match="too large"):
        fp_solve(a[:, :2], a[:, 2], p)
    with pytest.raises(ValueError, match="too large"):
        fp_inverse(a[:, :2], p)
