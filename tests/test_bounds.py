"""Every in-place integer update on a narrow type in src, driven at its
bound and one past it, where it takes the wider type or is refused.

numpy does not warn when an integer array wraps, so these bounds, asserted
in the code and tested here, are what keeps the exact kernels exact.  The
updates and their bounds, for a modulus p below rings._MODULUS_BOUND:

- rings.residues and rings._eliminate: an int16 or int32 array is
  reduced in its own type as a - (a // p) * p when its minimum is at least
  p above the type's lower limit, and in int64 otherwise;
- rings._pivot_loop: width * (p - 1)**2 + p inside int16 or int32;
- rings._eliminate: the panel updates subtracted since the last
  reduction, plus p, inside int16 or int32;
- rings._row_products: inner * max|a| * max|b| below 2**24 in float32,
  below 2**53 in float64, where an operand with every entry in (-p, p)
  enters signed, with its own magnitude, and any other as residues, of
  magnitude p - 1, in every block of rows;
- rings._ints_in_place: the integers of a float32 or float64 array,
  exact below 2**24 or 2**53, written over it in the int32 or int64 of
  the same width, one chunk at a time;
- rings.int_gram: rows * max|entry|**2 below 2**24 in float32, and the
  result, summed from the float32 products, in int16 below 2**15 and in
  int32 otherwise;
- rings.BasisSolver.back_substitute: entries per row * (p - 1)**2 + p
  inside int64;
- resolution.quotient_trace: the entries of a trace times p - 1 inside
  int64.

The int64 bounds and the int32 drift of an elimination lie past any
matrix in memory at p < 2**8, so their tests lower the limit in
rings._LIMIT to where a small matrix meets it.
"""

import numpy as np
import pytest

from spechtres import cli, resolution, rings
from spechtres.rings import (
    _LIMIT,
    _MODULUS_BOUND,
    _PANEL,
    BasisSolver,
    GramQuotient,
    fp_inverse,
    fp_matmul,
    fp_product_equals,
    fp_rank,
    fp_rref,
    int_gram,
    residues,
)
from spechtres.specht import Diagram2, basis_solver
from test_rings import _identity_led, _rref_python_ints

INT16, INT32, INT64 = (np.dtype(t) for t in (np.int16, np.int32, np.int64))


def test_every_command_prime_lies_below_the_bound_and_257_is_refused():
    his = [param.hi for command in cli.SCHEMA.values() for param in command.params.values() if param.kind == "prime"]
    assert his and max(his) < _MODULUS_BOUND == 2**8
    p = 257  # the first prime past the bound
    a = np.ones((2, 2), dtype=np.int64)
    refusals = [
        lambda: fp_matmul(a, a, p),
        lambda: fp_product_equals(a, a, a, p),
        lambda: fp_rref(a, p),
        lambda: fp_rank(a, p),
        lambda: fp_inverse(a, p),
        lambda: residues(a, p),
        lambda: basis_solver(p, 4, 3),
        lambda: GramQuotient(a, p),
    ]
    for refused in refusals:
        with pytest.raises(ValueError, match=r"below 2\*\*8"):
            refused()


@pytest.mark.parametrize("dtype, p", [(np.int16, 23), (np.int32, 251)], ids=["int16", "int32"])
def test_reduced_keeps_its_type_unless_the_minimum_is_within_p_of_the_limit(monkeypatch, dtype, p):
    # int16 is the working type of an elimination at p = 23, and int32 at
    # p = 251: residues reduces in the input's type, and _eliminate copies
    # it into the working type, exactly when the minimum is at least p
    # above the type's lower limit; otherwise both take the int64 remainder
    # of residues
    assert rings._elimination_type(p) is dtype
    limit = _LIMIT[np.dtype(dtype)]
    reduce_in_place, read = rings._reduce_in_place, rings.residues
    in_type, entered = [], []
    monkeypatch.setattr(rings, "_reduce_in_place", lambda a, p: in_type.append(a.dtype) or reduce_in_place(a, p))
    monkeypatch.setattr(rings, "residues", lambda a, p: entered.append(a.dtype) or read(a, p))
    for low, kept in ((p - limit, True), (p - limit - 1, False)):
        a = np.array([[low, -1, p], [limit - 1, 2 * p + 3, 0]], dtype=dtype)
        a = np.tile(a, (300, 1))  # past _FEW_ENTRIES, so floor division runs, and two row blocks
        in_type.clear()
        got = read(a, p)
        assert got.dtype == np.uint8 and got.tolist() == (a.astype(object) % p).tolist()
        assert in_type == ([np.dtype(dtype)] * 2 if kept else []), low
        entered.clear()
        form, pivots = fp_rref(a, p)
        assert entered == ([] if kept else [np.dtype(dtype)]), low
        want, want_pivots = _rref_python_ints(a, p)
        assert form.dtype == np.uint8 and pivots == want_pivots and form.tolist() == want.tolist()
    assert read(got, p) is got  # residues are only read


def test_pivot_loop_bound_in_int16_and_int32():
    # int16 holds 2 * _PANEL pivots up to p = 23, and from p = 29 on the
    # elimination takes int32, where a loop over width columns holds
    # width * (p - 1)**2 + p below 2**31
    assert 2 * _PANEL * 22**2 + 23 < _LIMIT[INT16] <= 2 * _PANEL * 28**2 + 29
    assert rings._elimination_type(23) is np.int16 and rings._elimination_type(29) is np.int32
    rng = np.random.RandomState(5)
    for p, dtype in ((23, np.int16), (29, np.int32), (251, np.int32)):
        a = rng.randint(p - min(p - 1, 16), p, size=(2 * _PANEL, 2 * _PANEL))
        t = np.array(a.T, dtype=dtype)
        pivots = rings._pivot_loop(t, p, 2 * _PANEL)[0]
        assert pivots == list(range(2 * _PANEL)) and t.T.tolist() == _rref_python_ints(a, p)[0].tolist()
    with pytest.raises(AssertionError):
        rings._pivot_loop(np.zeros((2 * _PANEL, 1), dtype=np.int16), 29, 2 * _PANEL)
    # in int32 the widest loop at p = 251 is 34359 columns; one more is refused
    p = 251
    widest = (_LIMIT[INT32] - p - 1) // (p - 1) ** 2
    assert widest * (p - 1) ** 2 + p < _LIMIT[INT32] <= (widest + 1) * (p - 1) ** 2 + p
    t = np.zeros((widest + 1, 1), dtype=np.int32)
    t[0] = 1  # one row, so the loop ends at its first pivot
    assert rings._pivot_loop(t[:widest], p, widest)[0] == [0]
    with pytest.raises(AssertionError):
        rings._pivot_loop(t, p, widest + 1)


def _trailing_reductions(monkeypatch, a, p):
    """The reduced form of a, and the panels before whose update the
    columns right of the panel were reduced.  Those reductions are told
    from the others by their shape: all rows, and the columns right of a
    panel, which a has six of at 5 columns past whole panels."""
    rows, cols = a.shape
    widths = {cols - _PANEL * (i + 1): i for i in range(cols // _PANEL)}
    seen = []
    original = rings._reduce_in_place

    def spy(x, q):
        if x.ndim == 2 and x.shape[0] == rows and x.shape[1] in widths:
            seen.append(widths[x.shape[1]])
        return original(x, q)

    monkeypatch.setattr(rings, "_reduce_in_place", spy)
    got = fp_rref(a, p)[0]
    monkeypatch.setattr(rings, "_reduce_in_place", original)
    return got, seen


def test_elimination_drift_in_int16(monkeypatch):
    # At p = 23 two full panels of updates fit int16, 2 * _PANEL * 22**2 +
    # 23 < 2**15, and a third does not: on six panels the columns right of
    # the panel are reduced before the updates of panels 2 and 4.
    p = 23
    a = np.hstack([_identity_led(p, 6), np.random.RandomState(29).randint(0, p, size=(6 * _PANEL, 5))])
    assert 2 * _PANEL * (p - 1) ** 2 + p < _LIMIT[INT16] <= 3 * _PANEL * (p - 1) ** 2 + p
    got, seen = _trailing_reductions(monkeypatch, a, p)
    assert seen == [2, 4]
    assert got.tolist() == _rref_python_ints(a, p)[0].tolist()


@pytest.mark.parametrize("panels", [2, 3])
def test_elimination_drift_in_int32_at_a_lowered_limit(monkeypatch, panels):
    # At p = 251 int32 holds over a thousand full panels of updates, so the
    # limit is lowered to hold exactly `panels` of them (and the per-pivot
    # loop of each 32-column panel): the columns right of the panel are
    # reduced before every further `panels`-th update.  One below that
    # limit, `panels` updates no longer fit, and the reductions come one
    # panel sooner.
    p = 251
    a = np.hstack([_identity_led(p, 6), np.random.RandomState(31).randint(0, p, size=(6 * _PANEL, 5))])
    want = _rref_python_ints(a, p)[0].tolist()
    schedules = []
    for limit in (panels * _PANEL * (p - 1) ** 2 + p + 1, panels * _PANEL * (p - 1) ** 2 + p):
        monkeypatch.setitem(_LIMIT, INT32, limit)
        got, seen = _trailing_reductions(monkeypatch, a, p)
        assert got.tolist() == want
        schedules.append(seen)
    assert schedules == [list(range(panels, 6, panels)), list(range(panels - 1, 6, panels - 1))]


@pytest.mark.parametrize("p", [211, 251])
def test_row_products_in_float32_and_float64(p):
    # float32 while inner * (p - 1)**2 < 2**24, float64 from there on, up to
    # 2**53, which no inner dimension below 10**11 reaches at p < 2**8
    assert rings._exact_float(2**24 - 1) is np.float32 and rings._exact_float(2**24) is np.float64
    assert rings._exact_float(2**53 - 1) is np.float64
    with pytest.raises(AssertionError):
        rings._exact_float(2**53)
    last = (2**24 - 1) // (p - 1) ** 2  # the last float32 inner dimension
    for inner, itype in ((last, np.int32), (last + 1, np.int64)):
        a = np.full((3, inner), p - 1, dtype=np.int64)
        b = np.full((inner, 2), p - 1, dtype=np.int64)
        a[:, 0] = b[0] = p - 2  # an odd sum, which a rounding float type would move
        rows, block = next(rings._row_products(a, b, p))
        assert block.dtype == itype
        assert block.tolist() == ((a.astype(object) @ b.astype(object)) % p).tolist()


@pytest.mark.parametrize("p", [211, 251])
def test_row_products_hold_the_bound_in_every_block(p):
    # at the last float32 inner dimension and one past it, a left operand of
    # two whole blocks and a short one: each block's residues, written over
    # its float product in the integer type of the same width, are exact
    # before the next block overwrites them
    last = (2**24 - 1) // (p - 1) ** 2
    for inner, itype in ((last, np.int32), (last + 1, np.int64)):
        b = np.full((inner, 2), p - 1, dtype=np.int64)
        b[0] = p - 2
        step = rings._block_rows(inner + 2, inner)
        a = np.full((2 * step + 3, inner), p - 1, dtype=np.int64)
        a[:, 0] = p - 2  # an odd sum, which a rounding float type would move
        a[np.arange(len(a)), 1 + np.arange(len(a)) % (inner - 1)] = 1  # no two rows alike
        want = (a.astype(object) @ b.astype(object)) % p
        blocks = []
        for rows, block in rings._row_products(a, b, p):
            assert block.dtype == itype, inner
            assert block.tolist() == want[rows].tolist(), (inner, rows)
            blocks.append(len(block))
        assert blocks == [step, step, 3]


@pytest.mark.parametrize("ftype, top", [(np.float32, 2**24 - 1), (np.float64, 2**53 - 1)])
def test_ints_in_place_cover_every_chunk_at_the_exact_float_limit(ftype, top):
    # integers up to the float type's exact limit, over two whole chunks and
    # a short one, come back in the integer type of the same width, over the
    # float array's own memory, reduced mod p
    p = 251
    rng = np.random.RandomState(3)
    size = 2 * rings._REDUCE_ENTRIES + 6
    ints = rng.randint(-top, top + 1, size=size, dtype=np.int64)
    ints[:2], ints[-2:] = (-top, top), (top, -top)
    f = ints.astype(ftype).reshape(2, -1)
    got = rings._ints_in_place(f, p)
    assert got.dtype.itemsize == f.dtype.itemsize and got.dtype.kind == "i"
    assert np.shares_memory(got, f) and got.reshape(-1).tolist() == (ints % p).tolist()


@pytest.mark.parametrize("p", [211, 251])
def test_row_products_of_signed_operands_by_their_magnitude(p):
    # an int8 left operand enters as it is: with entries +-1 against
    # residues up to p - 1 every partial sum is at most inner * (p - 1),
    # with a 2 among them inner * 2 * (p - 1); a byte operand holding 255,
    # outside (-p, p), is reduced and takes the residue bound
    # inner * (p - 1)**2
    for top, dtype, entry in ((1, np.int8, -1), (2, np.int8, 2), (p - 1, np.uint8, 255)):
        last = (2**24 - 1) // (top * (p - 1))  # the last float32 inner dimension
        for inner, itype in ((last, np.int32), (last + 1, np.int64)):
            a = np.ones((3, inner), dtype=dtype)
            a[:, 1::2] = entry
            b = np.full((inner, 2), p - 1, dtype=np.int64)
            b[0] = p - 2  # an odd sum, which a rounding float type would move
            rows, block = next(rings._row_products(a, b, p))
            assert block.dtype == itype, (top, inner)
            want = (a.astype(np.int64) % p @ b) % p
            assert block.tolist() == want.tolist()


def test_row_products_reduce_in_int32_at_a_lowered_limit(monkeypatch):
    # the bound of a float32 product plus p is asserted to lie inside int32,
    # where its residues are taken
    p, inner = 5, 7
    a = np.array([[1, -1] * 4, [-1] * 8], dtype=np.int8)[:, :inner]
    b = np.full((inner, 3), p - 1, dtype=np.int64)
    bound = inner * 1 * (p - 1)
    monkeypatch.setitem(_LIMIT, INT32, bound + p + 1)
    assert fp_matmul(a, b, p).tolist() == ((a.astype(np.int64) @ b) % p).tolist()
    monkeypatch.setitem(_LIMIT, INT32, bound + p)
    with pytest.raises(AssertionError):
        fp_matmul(a, b, p)


def test_int_gram_bound_in_float32():
    # 9 * 1864135 is 2**24 - 1: exact in float32; one row more is refused
    m = np.full((1864135, 1), 3, dtype=np.int8)
    assert int_gram(m).tolist() == [[2**24 - 1]] and int_gram(m).dtype == np.int32
    with pytest.raises(OverflowError):
        int_gram(np.full((1864136, 1), 3, dtype=np.int8))
    assert int_gram(np.full((1, 1), 4095)).tolist() == [[4095**2]]
    with pytest.raises(OverflowError):
        int_gram(np.full((1, 1), 4096))  # 2**24


def test_int_gram_bound_in_int16():
    # a bound below 2**15 is summed into int16; one row more takes int32
    for rows, dtype in ((2**15 - 1, np.int16), (2**15, np.int32)):
        gram = int_gram(np.ones((rows, 1), dtype=np.int8))
        assert gram.tolist() == [[rows]] and gram.dtype == dtype
    assert int_gram(np.full((1, 1), 181)).dtype == np.int16  # 181**2 = 32761
    assert int_gram(np.full((1, 1), 182)).dtype == np.int32  # 182**2 = 33124


def _unitriangular_square(d):
    """A d x d upper unitriangular matrix whose first row has d - 1 entries
    right of the diagonal: the most a row of a d x d square has."""
    u = np.identity(d, dtype=np.int64)
    u[0, 1:] = 1
    u[np.arange(1, d - 1), np.arange(2, d)] = 1
    return u


def test_basis_solver_level_sums_in_int64_at_a_lowered_limit(monkeypatch):
    # a row of d - 1 entries sums at most (d - 1) * (p - 1)**2 + p in int64
    p, d = 3, 5
    u = _unitriangular_square(d)
    bound = (d - 1) * (p - 1) ** 2 + p
    monkeypatch.setitem(_LIMIT, INT64, bound + 1)
    x = np.random.RandomState(2).randint(0, p, size=(d, 3))
    assert BasisSolver(p, u, np.arange(d)).coords(u @ x).tolist() == x.tolist()
    monkeypatch.setitem(_LIMIT, INT64, bound)
    with pytest.raises(AssertionError):
        BasisSolver(p, u, np.arange(d))


def test_quotient_trace_sums_in_int64_at_a_lowered_limit(monkeypatch):
    # each signed half of a trace sums at most q * 2^b residues of the
    # dual basis in int64
    p, tau, sigma = 5, Diagram2(4, 2), (2, 3, 1, 5, 6, 4)
    want = resolution.quotient_trace(p, tau, sigma)  # fills the caches
    bound = resolution._trace_basis(p, tau)[0].size * (p - 1)
    monkeypatch.setitem(_LIMIT, INT64, bound + 1)
    assert resolution.quotient_trace(p, tau, sigma) == want
    monkeypatch.setitem(_LIMIT, INT64, bound)
    with pytest.raises(AssertionError):
        resolution.quotient_trace(p, tau, sigma)

