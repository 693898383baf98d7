"""Exact scalar and matrix arithmetic.

Matrices over the prime field F_p, sparse exact vectors (SparseVector,
the one arithmetic of sign-word tensors, exterior forms, integer Laurent
polynomials and the cyclotomic quotients Z[z]/(1 + z + ... + z^(p-1)) with
optional mod-p coefficients), one repeated-squaring power, balanced
quantum integers, deterministic Gaussian elimination, the quotient of
F_p^d by the radical of a Gram matrix (GramQuotient), the one
simple-quotient type, whose projections and invariance checks are read
off the reduced rows of the Gram without a basis of the radical, and the
one coordinate solver against a basis (BasisSolver), mod p or exactly
over Z.

Everything here is exact.  Python integers cannot overflow.  Products,
reduced forms, inverses and coordinates over F_p (fp_matmul, fp_rref,
fp_inverse, BasisSolver.coords) are returned as uint8 arrays of residues
in [0, p), one byte each, as are the residues that are kept (cached
bases), and a quotient's readings (GramQuotient).  Input is read through
residues, which returns byte residues as they are; only a product's
operand with entries in (-p, p) and an elimination's narrow signed input
are taken in their own type.  Residues are widened before any
arithmetic, since a byte array wraps silently (the negative of a uint8
residue v is 256 - v, not p - v, and under numpy 2 a Python int times a
uint8 array stays uint8).

Every kernel mod p takes the moduli below 2**8, which hold every prime a
command accepts, and refuses a larger one with ValueError.  Each computes
in the narrowest type that is exact for its bound (the rule of
FFLAS-FFPACK: the float type follows from k * max|a| * max|b| against its
mantissa):
- Products run through BLAS, one block of rows of the left operand at a
  time, and each block's residues are written over its float product.
  An operand with every entry in (-p, p) enters as it is, and any other
  as residues, of magnitude at most p - 1.  A left operand of entries 0
  and +-1, such as the polytabloid basis, may be a SignMatrix, held by its
  nonzeros, whose blocks of rows are read by slicing, as an int8 array's
  are.  The product runs in float32 when every partial sum, at most
  inner * max|a| * max|b|, stays below 2**24 and otherwise in float64,
  where it stays below 2**53 for any inner dimension below 10**11.  Every
  partial sum is then an integer the float type holds exactly, so
  summation order cannot change a result.
- Gram matrices of integer matrices are summed from float32 products of
  blocks of rows, over the upper triangle, into int16 when their bound,
  rows * max|entry|**2, is below 2**15, and into int32 otherwise; a bound
  of 2**24 or more is refused.
- Elimination runs in int16 when the delayed reductions of its per-pivot
  loop stay below 2**15, for every p up to 23, and otherwise in int32.
- Coordinates against a basis with an upper unitriangular square
  (BasisSolver) are back-substituted one level of the square at a time in
  int64, where a row's sum of at most its entry count of products of
  residues, plus p, is asserted below 2**63.

Elimination is blocked: a matrix wider than two column panels is reduced
a panel at a time, with the per-pivot loop confined to a transposed copy
of the panel and the rest of the matrix updated by products.  Narrower
matrices keep the per-pivot loop alone.  The reduced row echelon form is
unique, so neither the blocking nor the type changes a result.
Reduction is delayed throughout: entries may sit unreduced, within the
bound of the elimination's type, until the loop ends or, outside the
panel, until the panel updates subtracted since the last reduction would
pass it.
A rank alone (fp_rank) is read from the same panel step without the
reduced form.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "is_prime",
    "residues",
    "fp_matmul",
    "fp_product_equals",
    "int_gram",
    "SignMatrix",
    "fp_rref",
    "fp_rank",
    "fp_inverse",
    "GramQuotient",
    "BasisSolver",
    "int_charpoly",
    "SparseVector",
    "LaurentInt",
    "power",
    "quantum_integer",
    "CyclotomicElem",
    "cyclotomic_eval",
    "zeta_quantum",
]

def read_only(a: np.ndarray) -> np.ndarray:
    """Mark an array read-only and return it.  Cached arrays are marked so
    that no caller can change what every later caller of the cache reads."""
    a.setflags(write=False)
    return a


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


# ---------------------------------------------------------------------------
# matrices over F_p

# Every mod-p array a function here returns holds residues in [0, p), as
# uint8.  Every array it takes is read through residues, which cannot wrap
# and returns byte residues as they are; a product also takes an operand
# with entries in (-p, p) as it is (_row_products), and an elimination a
# signed input no wider than its own type in that type (_eliminate).  Only
# the kernel's own int16, int32 or int64 intermediates may be unreduced:
# the entries of the eliminated matrix between its reductions, and sums
# and differences of residues, all bounded inside their type (see
# _pivot_loop and _eliminate).
# They are reduced by _reduce_in_place.  The elimination scan is fixed:
# columns left to right, within a column the first nonzero entry from the
# top.  The reduced form and its pivot columns are unique, so every basis
# produced downstream is deterministic.

# The moduli every kernel here takes are those below this bound.  Every
# command caps p at 211, and below 2**8 a residue is one byte, a product
# of residues over up to 268 terms is exact in float32, and the delayed
# reductions of an elimination stay inside int32.
_MODULUS_BOUND = 2**8


def _check_modulus(p: int) -> None:
    """Raise ValueError for a modulus of _MODULUS_BOUND or more."""
    if p >= _MODULUS_BOUND:
        raise ValueError(f"modulus {p} too large: the mod-p kernels take moduli below 2**8 = {_MODULUS_BOUND}")


# Integers of magnitude below 2**24 are exact in float32 and below 2**53
# in float64.
_FLOAT32_EXACT = 2**24
_FLOAT_EXACT = 2**53


def _exact_float(bound: int) -> type:
    """The float type in which every integer of magnitude up to bound is
    exact: float32 below 2**24, float64 below 2**53.  bound must be below
    2**53."""
    assert bound < _FLOAT_EXACT
    return np.float32 if bound < _FLOAT32_EXACT else np.float64


# Rows of a matrix cast to float at a time, so that no float copy of a
# large operand is ever made whole; the blocks of a product or a Gram hold
# from a quarter of this many rows up to this many (_block_rows).
_ROW_BLOCK = 512


# The signed types the kernels compute in, and the magnitude below which
# each holds integers.
_LIMIT = {np.dtype(t): 1 << (8 * np.dtype(t).itemsize - 1) for t in (np.int16, np.int32, np.int64)}


# Entries reduced at a time by _reduce_in_place, so that its scratch stays
# at 256 kB in int64 (128 kB in int32), in cache, however large the array
# it reduces.  A 512 x 3640 int64 product block reduced whole took three
# times as long, and scratch of 512 kB or more raised the peak RSS of
# selftest-mix by 0.5 MB.
_REDUCE_ENTRIES = 2**15

# Up to this many entries one np.remainder call costs less than the three
# calls of a - (a // p) * p; from about twice as many on, the remainder's
# cost per entry dominates.  A pivot's column and row are mostly this short.
_FEW_ENTRIES = 512


def _reduce_in_place(a: np.ndarray, p: int) -> np.ndarray:
    """Reduce the int16, int32 or int64 array a mod p in place, and return it.
    Past _FEW_ENTRIES entries the reduction is a - (a // p) * p: numpy's
    floor division by a scalar is several times faster than its remainder,
    and in int32 about ten times faster than in int64.  The product
    (a // p) * p leaves the range of a's type when a is within p of its
    lower limit, and no integer may wrap, even where two's-complement
    arithmetic would still give the right difference.  So this is only for
    the kernel's own intermediates, which stay further from the limits
    (see _pivot_loop, _eliminate, _ints_in_place and BasisSolver),
    and for input that residues and _eliminate have checked."""
    if a.size <= _FEW_ENTRIES:
        return np.remainder(a, p, out=a)
    if a.size > _REDUCE_ENTRIES and len(a) > 1:
        step = max(1, _REDUCE_ENTRIES * len(a) // a.size)
        for lo in range(0, len(a), step):
            _reduce_in_place(a[lo : lo + step], p)
        return a
    q = a // p
    q *= p
    a -= q
    return a


def residues(a: np.ndarray, p: int) -> np.ndarray:
    """a mod p in one byte per entry: a itself when it is a uint8 array of
    residues, so that residues are only read, and otherwise a new array,
    reduced one block of _ROW_BLOCK rows at a time, so that no temporary
    of a large array's size is made.  An object array is reduced by % in
    Python ints.  An int16 or int32 block whose minimum is at least p above
    the lower limit of its type is reduced in that type, by
    _reduce_in_place on a copy: (a // p) * p lies at most p - 1 below a, so
    it stays inside the type.  Any other block is reduced by np.remainder
    in int64, which cannot wrap.  A modulus of 2**8 or more is refused with
    ValueError."""
    _check_modulus(p)
    a = np.asarray(a)
    if a.dtype == np.uint8 and a.max(initial=0) < p:
        return a
    out = np.empty(a.shape, dtype=np.uint8)
    for lo in range(0, len(a), _ROW_BLOCK):
        block = a[lo : lo + _ROW_BLOCK]
        if a.dtype == object:
            out[lo : lo + _ROW_BLOCK] = block % p
        elif a.dtype in (np.int16, np.int32) and block.min(initial=0) >= p - _LIMIT[a.dtype]:
            out[lo : lo + _ROW_BLOCK] = _reduce_in_place(block.copy(), p)
        else:
            out[lo : lo + _ROW_BLOCK] = np.remainder(block, p, dtype=np.int64)
    return out


class SignMatrix:
    """A matrix with entries 0 and +-1, held by its nonzeros alone, sorted by
    row and, within a row, by column.  A nonzero is its row-major position
    row * width + column, in int32 while rows * width fits (int64 past it),
    and its sign, in int8: five bytes a nonzero.  index and sign are
    read-only.

    The standard polytabloid basis (specht.SpechtModule.basis) is one, with
    2^b nonzeros a column: 3.7 % of a column at [7,6] and 1.1 % at [9,7].
    It is read like the dense int8 array it stands for, by row indexing
    (m[lo:hi] or m[rows]): the rows asked for are written from their
    nonzeros into a new int8 array, which nothing keeps.  The coordinate
    solver reads its square's nonzeros alone (entries).

    The constructor takes the nonzeros as row, column and sign arrays, listed
    so that the columns of each row ascend, column by column for instance.
    It sorts them by row, stably: on int16 keys, where numpy's stable sort
    is a radix sort, while the rows fit.  ValueError is raised for arrays of
    different lengths, a sign other than +-1, a row or column outside
    shape, a position listed twice, or columns out of order within a row."""

    def __init__(self, shape: tuple[int, int], rows: np.ndarray, columns: np.ndarray, signs: np.ndarray):
        height, width = self.shape = (int(shape[0]), int(shape[1]))
        rows, columns, signs = np.asarray(rows), np.asarray(columns), np.asarray(signs)
        if not len(rows) == len(columns) == len(signs):
            lengths = f"{len(rows)}, {len(columns)} and {len(signs)}"
            raise ValueError(f"sign matrix nonzeros need as many rows, columns and signs, not {lengths}")
        if len(rows) and not (0 <= rows.min() and rows.max() < height and 0 <= columns.min() and columns.max() < width):
            raise ValueError("sign matrix entries must lie inside its shape")
        keys = rows.astype(np.int16 if height <= _LIMIT[np.dtype(np.int16)] else np.int64, copy=False)
        order = np.argsort(keys, kind="stable")
        index = keys[order].astype(np.int32 if height * width < _LIMIT[np.dtype(np.int32)] else np.int64)
        index *= width
        index += columns[order]
        self.index, self.sign = read_only(index), read_only(signs[order].astype(np.int8))
        if (index[1:] <= index[:-1]).any() or (np.abs(signs) != 1).any():
            raise ValueError("sign matrix entries must be distinct, signs +-1, and ascend by column within a row")

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, rows: slice | np.ndarray) -> np.ndarray:
        """The rows `rows`, a slice of step 1 or an array of rows in that
        order, as a new int8 array written from their nonzeros alone: a
        slice's are one run of index, found by two searchsorted calls and
        written by one scatter through the flat view of the result, and an
        array's are read through entries.  ValueError is raised for any
        other step, and IndexError for a row outside the matrix or an array
        that is not of integers, such as a boolean mask."""
        height, width = self.shape
        if not isinstance(rows, slice):
            i, j, signs = self.entries(rows)
            out = np.zeros((len(rows), width), dtype=np.int8)
            out[i, j] = signs
            return out
        lo, hi, step = rows.indices(height)
        if step != 1:
            raise ValueError("a sign matrix is read by slices of step 1")
        out = np.zeros((max(0, hi - lo), width), dtype=np.int8)
        # keys and places are cast to the types they meet: searchsorted
        # would otherwise copy all of index into a common type
        start, stop = self.index.searchsorted(np.array([lo * width, hi * width], dtype=self.index.dtype))
        out.reshape(-1)[np.subtract(self.index[start:stop], lo * width, dtype=np.intp)] = self.sign[start:stop]
        return out

    def entries(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzeros of the rows `rows`, in that order, each row's left to
        right: for each, its place i in rows, its column and its sign.  A
        row outside [0, height) is refused with IndexError, so that every
        key sought fits index's type, and so are rows not of an integer
        type: a boolean mask would be read as rows 0 and 1."""
        rows, (height, width) = np.asarray(rows), self.shape
        if rows.dtype.kind not in "iu":
            raise IndexError(f"sign matrix rows are read by an integer array, not one of {rows.dtype}")
        rows = rows.astype(np.intp, copy=False)
        outside = (rows < 0) | (rows >= height)
        if outside.any():
            raise IndexError(f"row {rows[outside][0]} is outside a sign matrix of {height} rows")
        first, stop = self.index.searchsorted((np.stack((rows, rows + 1)) * width).astype(self.index.dtype))
        counts = stop - first
        # the k-th nonzero of row rows[i] sits at first[i] + k
        picks = np.arange(counts.sum()) + np.repeat(first - counts.cumsum() + counts, counts)
        return np.repeat(np.arange(len(rows)), counts), self.index[picks] % width, self.sign[picks]


def _magnitude(a: np.ndarray | SignMatrix, p: int) -> int | None:
    """max|a| when every entry of a lies in (-p, p), so that a may enter a
    product as it is, signed: a SignMatrix reads 1 without a pass.  None
    for any other array, and for an object array, which are reduced to
    residues first."""
    if isinstance(a, SignMatrix):
        return int(len(a.sign) > 0)
    if a.dtype == object:
        return None
    if not a.size:
        return 0
    low, high = int(a.min()), int(a.max())
    return max(-low, high) if -p < low and high < p else None


def _block_rows(width: int, entries: int) -> int:
    """Rows of a block whose float workspace holds `width` entries a row:
    as many as keep it to `entries` in all, but from _ROW_BLOCK // 4 rows,
    below which the calls cost more than they save, up to _ROW_BLOCK, where
    a block is tall enough to spread BLAS's packing of the other operand.

    A product's block (its cast and its product) is kept to half the float
    copy of the right operand, so that the workspace adds at most half to
    what the call holds anyway, and a Gram's cast to half its entries, as
    many bytes as an int16 Gram.  The cast is a block of the left operand,
    a SignMatrix's read by slicing, cast to float.  The 1716 x 429 by
    429 x 572 multiply-back of a resolve at n = 13 takes 128 rows, and the
    12870 x 1430 by 1430 x 3640 one at n = 16 takes 512: on one thread of a
    2-vCPU Xeon it took 1.6 s in blocks of 512 rows and 2.1 s in blocks of
    256."""
    return min(_ROW_BLOCK, max(_ROW_BLOCK // 4, entries // max(1, width)))


def _ints_in_place(f: np.ndarray, p: int) -> np.ndarray:
    """The integers of the contiguous float32 or float64 array f, reduced mod
    p, written over f in the int32 or int64 array of the same width, which
    is returned: a view of f's memory.  Each chunk of _REDUCE_ENTRIES
    entries is cast and reduced in a scratch array and then written back,
    so no integer copy of f is made.  The caller keeps every entry inside
    the integer type."""
    out = f.view(np.int32 if f.dtype == np.float32 else np.int64)
    flat, flat_out = f.reshape(-1), out.reshape(-1)
    scratch = np.empty(max(1, min(_REDUCE_ENTRIES, flat.size)), dtype=out.dtype)
    for lo in range(0, flat.size, len(scratch)):
        chunk = scratch[: min(len(scratch), flat.size - lo)]
        chunk[:] = flat[lo : lo + len(chunk)]
        flat_out[lo : lo + len(chunk)] = _reduce_in_place(chunk, p)
    return out


def _row_products(a: np.ndarray | SignMatrix, b: np.ndarray, p: int):
    """Yield (rows, a[rows] @ b mod p) for consecutive blocks `rows` of the
    2-d array or SignMatrix a, _block_rows of them each, every product an
    array of residues: int32 from a float32 product, int64 from a float64
    one.

    An operand whose entries all lie in (-p, p) enters the product as it
    is, signed; any other is reduced to residues, whose magnitude is at
    most p - 1: b once, each block of a when its turn comes.  Every block
    of a is read as a[rows], a SignMatrix's included.  Every partial sum
    is then at most inner * max|a| * max|b| in magnitude, the two maxima
    read off one min/max pass of each operand, or 1 for a SignMatrix
    (_magnitude).  The operands are cast to float32 when that bound stays
    below 2**24, and to float64 otherwise, where it stays below 2**53 for
    every inner dimension below 10**11 at p < 2**8 (_exact_float).  Either
    way every partial sum is an integer that the float type holds exactly,
    so BLAS summation order, and so its thread count, cannot change the
    result.  The bound plus p is asserted to lie inside the integer type
    the product is reduced in.  Every block reuses one buffer for its cast
    and one for its product, whose residues are written over it
    (_ints_in_place), so a yielded product is overwritten by the next
    one.
    """
    _check_modulus(p)
    a, b = a if isinstance(a, SignMatrix) else np.asarray(a), np.asarray(b)
    top_a, top_b = _magnitude(a, p), _magnitude(b, p)
    if top_b is None:
        b, top_b = residues(b, p), p - 1
    bound = len(b) * (p - 1 if top_a is None else top_a) * top_b
    dtype = _exact_float(bound)
    # a float32 product, of magnitude below 2**24, is reduced in int32
    assert bound + p < _LIMIT[np.dtype(np.int32 if dtype is np.float32 else np.int64)]
    b = b.astype(dtype)
    inner, cols = len(b), math.prod(b.shape[1:])
    step = max(1, min(len(a), _block_rows(inner + cols, inner * cols // 2)))
    cast = np.empty((step, a.shape[1]), dtype=dtype)
    product = np.empty((step,) + b.shape[1:], dtype=dtype)
    for lo in range(0, len(a), step):
        rows, m = slice(lo, lo + step), min(step, len(a) - lo)
        cast[:m] = a[rows] if top_a is not None else residues(a[rows], p)
        yield rows, _ints_in_place(np.matmul(cast[:m], b, out=product[:m]), p)


def fp_matmul(a: np.ndarray | SignMatrix, b: np.ndarray, p: int) -> np.ndarray:
    """Exact a @ b mod p for a 2-d array or SignMatrix a, as a uint8 array
    of residues, computed one block of rows of a at a time.  Operands with
    entries in (-p, p), such as a SignMatrix, are multiplied as they are,
    others as residues; the product runs in float32 when inner * max|a| *
    max|b| stays below 2**24 and in float64 otherwise (see _row_products).
    A modulus of 2**8 or more is refused with ValueError."""
    out = np.empty((len(a),) + np.shape(b)[1:], dtype=np.uint8)
    for rows, block in _row_products(a, b, p):
        out[rows] = block
    return out


def fp_product_equals(a: np.ndarray | SignMatrix, b: np.ndarray, c: np.ndarray, p: int) -> bool:
    """Whether a @ b = c mod p, for a 2-d array or SignMatrix a, compared one
    block of rows at a time, so that neither the product nor a reduced copy
    of c is ever made whole.  A modulus of 2**8 or more is refused with
    ValueError."""
    return all(np.array_equal(block, residues(c[rows], p)) for rows, block in _row_products(a, b, p))


def int_gram(m: np.ndarray | SignMatrix) -> np.ndarray:
    """Exact integer Gram matrix m.T @ m of an integer matrix or a
    SignMatrix: int16 when its bound is below 2**15, and int32 otherwise.

    Every partial sum is bounded by rows * max|entry|**2, max|entry| 1 for
    a SignMatrix.  The product runs through float32 BLAS, one block of rows
    m[lo:hi] cast at a time, which is exact while that bound is below
    2**24, so summation order cannot change the result.
    A bound of 2**24 or more is refused with OverflowError rather than
    rounded; the 0/+-1 polytabloid and component matrices meet it below
    2**24 rows.  The Specht Grams a command takes have at most C(16, 8) =
    12870 rows of 0/+-1 entries, so they are int16.

    Only the upper triangle is multiplied, in column tiles of even width,
    at most _ROW_BLOCK: each block's product with the tile of columns
    c0..c1 is taken for rows 0..c1 of the Gram only, in one d x width
    float32 buffer, cast to the Gram's type in one d x width integer
    buffer, where every partial sum fits, and added into the result.  So
    no d x d float array is made.  The lower triangle is then copied from
    the upper one.  Against one d x d float32 product and sum a block, the
    8008 x 3640 basis of [10, 6] took 0.8-0.9 instead of 1.3-1.5 s on one
    thread of a 2-vCPU Xeon, and every smaller Gram was on par.
    """
    if isinstance(m, SignMatrix):
        top = 1 if len(m.sign) else 0  # every nonzero is +-1
    else:
        m = np.asarray(m)
        top = max(-int(m.min()), int(m.max())) if m.size else 0
    bound = len(m) * top * top
    if bound >= _FLOAT32_EXACT:
        raise OverflowError("Gram matrix entries may reach 2**24, the float32 limit of exact integers")
    d = m.shape[1]
    gram = np.zeros((d, d), dtype=np.int16 if bound < _LIMIT[np.dtype(np.int16)] else np.int32)
    step = _block_rows(d, gram.size // 2)
    width = math.ceil(d / math.ceil(d / _ROW_BLOCK)) if d else 1
    tiles = [(c0, min(d, c0 + width)) for c0 in range(0, d, width)]
    # reused: a block's cast, and a tile's product in float32 and as integers
    cast = np.empty((min(step, len(m)), d), dtype=np.float32)
    product, ints = np.empty((d, width), dtype=np.float32), np.empty((d, width), dtype=gram.dtype)
    for lo in range(0, len(m), step):
        rows = min(step, len(m) - lo)
        cast[:rows] = m[lo : lo + rows]
        for c0, c1 in tiles:
            np.matmul(cast[:rows, :c1].T, cast[:rows, c0:c1], out=product[:c1, : c1 - c0])
            ints[:c1, : c1 - c0] = product[:c1, : c1 - c0]
            gram[:c1, c0:c1] += ints[:c1, : c1 - c0]
    del cast, product, ints
    for c0, c1 in tiles:
        gram[c1:, c0:c1] = gram[c0:c1, c1:].T
    return gram


# Width of a column panel of the blocked elimination.  A matrix no wider
# than two panels is reduced by the per-pivot loop alone: below that the
# products and workspace of two panels cost more than the loop saves.
_PANEL = 32


def _elimination_type(p: int) -> type:
    """The integer type elimination mod p runs in: int16 when the delayed
    reductions of a per-pivot loop of 2 * _PANEL pivots stay inside it,
    2 * _PANEL * (p - 1)**2 + p < 2**15, which is every p up to 23, and
    int32 otherwise, where they stay below 2**22 for every p below
    _MODULUS_BOUND."""
    return np.int16 if 2 * _PANEL * (p - 1) ** 2 + p < _LIMIT[np.dtype(np.int16)] else np.int32


def _pivot_loop(t: np.ndarray, p: int, width: int) -> tuple[list[int], list[int]]:
    """Gauss-Jordan elimination mod p in place on the transpose t of a
    matrix, one pivot at a time, with the fixed pivot scan over the first
    `width` columns of the matrix.  Row j of t is column j of the matrix,
    so the pivot column, which every step reads whole, is contiguous.

    Returns the pivot columns and the row order: row i of the result
    descends from row order[i] of the input.  When column c becomes pivot
    row r, rows r and below are zero left of c, so the pivot row is copied
    out and the row it displaces moved in its place over the columns from
    c on only, by basic slicing.

    Columns from `width` on, if any, are workspace that must start at zero
    and be at least as wide as the rank.  The row that becomes pivot row r
    gets a 1 in column width + r.  Until then no multiple of that row has
    been added to another, and afterwards only pivot rows are, so at the
    end the workspace of the k pivot rows holds the inverse of the pivot
    block: the input rows order[:k] in the pivot columns.

    t must hold residues on entry and holds residues on return.  In
    between, only the pivot column and the pivot row are reduced at each
    pivot; the rank-1 update of the other rows is subtracted unreduced.
    Each pivot moves an entry by a multiplier times a pivot-row entry, both
    residues, so by at most (p - 1)**2.  A loop makes at most width pivots,
    and its callers keep width at most 2 * _PANEL, so no entry strays from a
    residue by more than 2 * _PANEL * (p - 1)**2.  That bound plus p is
    asserted to lie inside t's type, and the one _elimination_type picks
    holds it.
    """
    assert width * (p - 1) ** 2 + p < _LIMIT[t.dtype]
    total, rows = t.shape
    order = list(range(rows))
    pivots: list[int] = []
    r = 0
    for c in range(width):
        if r == rows:
            break
        # the pivot column is reduced in every row: the rows from r on to
        # find the pivot, the others because they are the multipliers
        col = _reduce_in_place(t[c], p)
        i = r + int((col[r:] != 0).argmax())
        if not col[i]:
            continue
        # workspace columns past width + r are still zero in every row
        end = min(width + r + 1, total)
        row = np.remainder(t[c:end, i], p)
        if width < total:
            row[width + r - c] = 1
        inverse = pow(int(row[0]), -1, p)
        if inverse != 1:
            row *= inverse
            _reduce_in_place(row, p)
        if i != r:
            t[c:end, i] = t[c:end, r]
            order[r], order[i] = order[i], order[r]
        # every row, the pivot row included, loses its multiple of the
        # pivot row; that zeroes column c, and the pivot row is then written
        t[c:end] -= np.multiply.outer(row, col)
        t[c:end, r] = row
        pivots.append(c)
        r += 1
    _reduce_in_place(t, p)
    return pivots, order


def _factor_panel(m: np.ndarray, r: int, c0: int, w: int, p: int) -> tuple[list[int], np.ndarray]:
    """Find the pivots of the panel m[r:, c0:c0 + w], which must hold
    residues, and move the rows S that carry them up to rows r..r+k-1 in
    pivot order.  Returns the pivot columns P of m and the inverse of
    m[S, P], from the per-pivot loop on a transposed copy of the panel
    with its workspace.  At most 2k rows move, over the columns from c0
    on: rows r and below are zero left of the panel, or no longer read."""
    panel = np.zeros((2 * w, len(m) - r), dtype=m.dtype)
    panel[:w] = m[r:, c0 : c0 + w].T
    found, order = _pivot_loop(panel, p, w)
    k = len(found)
    order = np.array(order)
    moved = np.flatnonzero(order != np.arange(len(order)))
    m[r + moved, c0:] = m[r + order[moved], c0:]
    return [c0 + c for c in found], panel[w : w + k, :k].T


def _eliminate(a: np.ndarray, p: int, reduced_form: bool) -> tuple[np.ndarray, list[int]]:
    """The elimination behind fp_rref and fp_rank: the pivot columns of a
    mod p and, with reduced_form, the reduced row echelon form as a uint8
    array; without it the returned matrix holds no result.

    A matrix no wider than two panels goes through the per-pivot loop
    whole, transposed, which gives the reduced form either way.  A wider
    one is reduced a column panel at a time (Jeannerod, Pernet and
    Storjohann, JSC 2013).  Rows 0..r-1 hold the pivot rows found so far
    and the other rows are zero left of the panel.  _factor_panel finds
    the panel's pivot columns P, moves the rows S that carry them up to
    rows r..r+k-1 and returns the inverse of A[S, P]; X = A[S, P]^-1 A[S,
    c0:] is the reduced form of those rows.  Every row below them gets
    A[:, c0 + w:] -= A[:, P] X, the Schur complement, and its panel is
    zero, since the panel's rows lie in the span of its rows S.  For the
    reduced form the pivot rows above get A[:, c0:] -= A[:, P] X, which
    zeroes their P columns, and rows S become X.  For the rank alone the
    rows with pivots are dropped: nothing above row r + k is touched again
    (Dumas, Pernet and Sultan, ISSAC 2013, read ranks off such a profile).

    Reduction is delayed outside the panel too.  Only the panel is reduced
    before it is factored, in the rows the update reads, and the pivot
    rows before X is formed.  A panel's update A[:, P] X is a product of
    residues over k <= _PANEL terms, at most k * (p - 1)**2 < 2**21 per
    entry, so BLAS computes it exactly in float32, and it is subtracted
    unreduced.  The rest of the matrix is reduced only when the
    updates since its last reduction, plus p, would pass the limit of its
    type: rank * (p - 1)**2 + p at most in all.  The updates run one block
    of _ROW_BLOCK rows at a time, so no temporary of the matrix's size is
    made.

    The elimination runs on a copy in the type _elimination_type(p)
    picks: int16 for every p up to 23 and int32 above.  A modulus of 2**8
    or more is refused with ValueError.
    """
    _check_modulus(p)
    dtype = np.dtype(_elimination_type(p))
    a = np.asarray(a)
    # a signed input no wider than the working type whose minimum lies at
    # least p above its lower limit, such as an int16 Gram, is copied once,
    # into that type, and reduced there; any other is read through residues
    in_type = a.dtype.kind == "i" and a.dtype.itemsize <= dtype.itemsize and a.min(initial=0) >= p - _LIMIT[dtype]
    m = _reduce_in_place(a.astype(dtype), p) if in_type else residues(a, p)
    rows, cols = m.shape
    if cols <= 2 * _PANEL:
        t = np.array(m.T, dtype=dtype, order="C")
        pivots = _pivot_loop(t, p, cols)[0]
        return np.array(t.T, dtype=np.uint8, order="C"), pivots
    # the elimination runs on a copy: byte residues are widened into one
    m = m.astype(dtype, copy=False)
    step = (p - 1) ** 2  # the most one pivot's update moves an entry
    drift = 0  # how far below a residue an entry right of the panel may sit
    pivots: list[int] = []
    for c0 in range(0, cols, _PANEL):
        r = len(pivots)
        if r == rows:
            break
        w = min(_PANEL, cols - c0)
        top = 0 if reduced_form else r  # the rows the updates reach
        _reduce_in_place(m[top:, c0 : c0 + w], p)
        cp, inverse = _factor_panel(m, r, c0, w, p)
        k = len(cp)
        if not k:
            continue
        x = fp_matmul(inverse, _reduce_in_place(m[r : r + k, c0:], p), p)
        if drift + k * step + p >= _LIMIT[m.dtype]:
            _reduce_in_place(m[top:, c0 + w :], p)
            drift = 0
        drift += k * step
        assert drift + p < _LIMIT[m.dtype]
        _subtract_products(m, range(r + k, rows), cp, x[:, w:], c0 + w, p)
        if reduced_form:
            m[r + k :, c0 : c0 + w] = 0
            _subtract_products(m, range(r), cp, x, c0, p)
            m[r : r + k, c0:] = x
        pivots += cp
    if reduced_form:
        m = _reduce_in_place(m, p).astype(np.uint8)
    return m, pivots


def _subtract_products(m: np.ndarray, rows: range, cp: list[int], x: np.ndarray, start: int, p: int) -> None:
    """m[rows, start:] -= m[rows, cp] @ x, unreduced, in bands of
    _block_rows rows for _ROW_BLOCK * _PANEL float entries (128 rows once x
    is 128 columns wide), each band's product cast to m's type through one
    float and one integer buffer, as in int_gram.  m[rows, cp] and x hold
    residues; each product is exact in the float type its bound len(cp) *
    (p - 1)**2 picks, and the caller keeps the difference inside m's type."""
    ftype = _exact_float(len(cp) * (p - 1) ** 2)
    x = x.astype(ftype)
    step = max(1, min(len(rows), _block_rows(x.shape[1], _ROW_BLOCK * _PANEL)))
    product, ints = np.empty((step, x.shape[1]), dtype=ftype), np.empty((step, x.shape[1]), dtype=m.dtype)
    for lo in range(rows.start, rows.stop, step):
        n = min(step, rows.stop - lo)
        np.matmul(m[lo : lo + n, cp].astype(ftype), x, out=product[:n])
        ints[:n] = product[:n]
        m[lo : lo + n, start:] -= ints[:n]


def fp_rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p.

    Returns the reduced matrix, as uint8 residues, and the list of pivot
    column indices.  The reduced form is unique, so it does not depend on
    how it is computed (see _eliminate).  A modulus of 2**8 or more is
    refused with ValueError."""
    return _eliminate(a, p, True)


def fp_rank(a: np.ndarray, p: int) -> int:
    """Rank mod p, from the elimination of fp_rref without the reduced
    form: past two panels each panel's pivot rows are dropped and only the
    Schur complement of the other rows is carried on (see _eliminate).  A
    modulus of 2**8 or more is refused with ValueError."""
    return len(_eliminate(a, p, False)[1])


def fp_inverse(a: np.ndarray, p: int) -> np.ndarray:
    """Inverse mod p of a square integer matrix, as uint8 residues: the
    right half of the reduced form of [a mod p | I] (fp_rref), both halves
    built in bytes, copied out so that the n x 2n form is freed.  Raises
    ValueError for a matrix that is not square or is singular mod p, and
    for a modulus of 2**8 or more."""
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError("inverse needs a square matrix")
    aug = np.zeros((n, 2 * n), dtype=np.uint8)
    aug[:, :n] = residues(a, p)
    aug[:, n:][np.diag_indices(n)] = 1
    rref, pivots = fp_rref(aug, p)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular mod p")
    return rref[:, n:].copy()


class GramQuotient:
    """Quotient of F_p^d by the null space (the radical) of a symmetric Gram
    matrix, read off the reduced rows of the Gram.

    Let R be the reduced row echelon form of the Gram mod p, restricted to
    its q pivot rows, with pivot columns P (pivot_idx) and free columns F
    (free_idx), and let R_F = R[:, F] (reduced_free), a q x r matrix.  The
    three are read-only and come from one elimination on first use.
    quotient_dim = q is the rank; for a Gram no wider than the per-pivot
    loop takes alone, or once the fields are built, it is len(pivot_idx),
    and otherwise fp_rank, which takes no reduced form.

    The radical is ker R, and R[:, P] = I.  So a coordinate column c is
    congruent to E_P R c modulo the radical, E_P placing a q-vector at the
    coordinates P: R (c - E_P R c) = R c - R c = 0.  Its complement
    coordinates are R c = c[P] + R_F c[F] (project_columns).

    The radical is spanned by the columns of K, with K[F] = I and K[P] =
    -R_F.  A map M from the space of a source quotient sends its radical
    into this one exactly when R M K_src = 0: with T = R M, T[:, F_src] =
    T[:, P_src] R_F(src).  quotient_matrix checks this one product and
    returns T[:, P_src], the matrix induced between the quotients.

    Coordinates are taken in the basis whose Gram matrix was eliminated.
    Only the caches change: jobs on a thread pool may read the same
    quotient at once.  A modulus of 2**8 or more is refused with
    ValueError.
    """

    def __init__(self, gram: np.ndarray, p: int):
        _check_modulus(p)
        self.p = p
        self._gram = gram

    @cached_property
    def quotient_dim(self) -> int:
        if np.shape(self._gram)[1] <= 2 * _PANEL or "_fields" in self.__dict__:
            return len(self.pivot_idx)
        return fp_rank(self._gram, self.p)

    @cached_property
    def _fields(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """reduced_free, free_idx and pivot_idx from the reduced form."""
        rref, pivots = fp_rref(self._gram, self.p)
        pivot_set = set(pivots)
        free = np.array([f for f in range(rref.shape[1]) if f not in pivot_set], dtype=np.intp)
        return (
            read_only(rref[: len(pivots), free]),
            read_only(free),
            read_only(np.array(pivots, dtype=np.intp)),
        )

    reduced_free = property(lambda self: self._fields[0])
    free_idx = property(lambda self: self._fields[1])
    pivot_idx = property(lambda self: self._fields[2])

    def project_columns(self, cols: np.ndarray) -> np.ndarray:
        """Complement coordinates of columns, (cols[P] + R_F cols[F]) mod p;
        with no radical, cols[P] alone."""
        reduced_free, free, pivots = self._fields
        cols = residues(cols, self.p)
        if not len(free):
            return cols[pivots]
        # a sum of two residues lies below 2 * p < 2**9, inside int16
        out = np.add(cols[pivots], fp_matmul(reduced_free, cols[free], self.p), dtype=np.int16)
        return _reduce_in_place(out, self.p).astype(np.uint8)

    def quotient_matrix(self, matrix: np.ndarray, source: GramQuotient | None = None) -> np.ndarray:
        """Matrix induced by a map from the quotient source (this one when
        None) onto this one: T[:, P_src] for T = project_columns(matrix).
        Raises AssertionError unless T[:, F_src] = T[:, P_src] R_F(src), that
        is unless the map sends the source radical into this radical."""
        reduced_free, free, pivots = (self if source is None else source)._fields
        t = self.project_columns(matrix)
        image = t[:, pivots]
        if len(free) and not fp_product_equals(image, reduced_free, t[:, free], self.p):
            raise AssertionError("map does not send the source radical into the radical")
        return image


# Scratch entries of BasisSolver.coords: it solves this many, divided by the
# square's rows or its entries, whichever is more, columns at a time.
_SOLVE_ENTRIES = 2**18


class BasisSolver:
    """Coordinate solver against a fixed basis, mod a prime p or, when p is
    None, exactly over Z in Python ints held in object arrays.

    matrix holds the basis vectors as columns, and rows picks a square of
    it that is upper unitriangular over the ring, or ValueError is raised.
    A SignMatrix, such as the polytabloid basis (specht.SpechtModule.basis),
    is kept as it is mod p, and its square's nonzeros are read off its
    entries (SignMatrix.entries), with no dense square; over Z it is read
    whole (matrix[:]) into Python ints.  Any other matrix is reduced to
    byte residues mod p (residues).  The matrix kept is read-only.
    Coordinates are solved by back-substitution through the square, in
    int64 mod p, one level at a time: a row with no entry right of the
    diagonal has level 0, any other row one more than the deepest row it
    points to.  They are returned as uint8 residues.  coords then verifies
    them by multiplying back, one block of rows at a time, so a column
    outside the span is always detected; back_substitute alone is for
    columns already known to lie in the span.

    Rows are solved in level order, within a level by falling entry count.
    A level holds its positions start:end in that order, and cols and vals:
    the first entry of each row, then the second of each row with two, and
    so on, as the positions they point to and their values; counts[r] rows
    have more than r entries.  All arrays here are read-only.
    """

    def __init__(self, p: int | None, matrix: np.ndarray | SignMatrix, rows: np.ndarray):
        self.p = p
        if p is not None:
            _check_modulus(p)
        self.rows = read_only(rows)
        if isinstance(matrix, SignMatrix):
            i, j, vals = matrix.entries(rows)  # row by row, left to right
            if p is None:
                matrix = read_only(matrix[:].astype(object))
        else:
            matrix = read_only(np.asarray(matrix, dtype=object) if p is None else residues(matrix, p))
            square = matrix[rows]
            i, j = np.nonzero(square)  # row by row, left to right
            vals = square[i, j]
        self.matrix = matrix
        d = len(rows)
        on = i == j
        if matrix.shape[1] != d or on.sum() != d or (vals[on] != 1).any() or (j < i).any():
            raise ValueError("basis square is not upper unitriangular")
        i, j, vals = i[~on], j[~on], vals[~on]
        count = np.bincount(i, minlength=d)
        # residues below p times entries of magnitude below p, summed over a
        # row's entries, stay inside int64
        assert p is None or count.max(initial=0) * (p - 1) ** 2 + p < _LIMIT[np.dtype(np.int64)]
        level, deeper = None, np.zeros(d, dtype=np.intp)
        while not np.array_equal(level, deeper):  # each pass settles one more level
            level, deeper = deeper, np.zeros(d, dtype=np.intp)
            np.maximum.at(deeper, i, level[j] + 1)
        self._order = read_only(np.lexsort((-count, level)))
        position = np.argsort(self._order)
        rank = np.arange(len(i)) - (np.cumsum(count) - count)[i]  # of each entry in its row
        e = np.lexsort((position[i], rank, level[i]))
        i, j, rank = i[e], j[e], rank[e]
        vals = vals[e].astype(object if p is None else np.int64)[:, None]
        top = np.arange(1, level.max(initial=0) + 2)
        ends, cuts = np.searchsorted(level[self._order], top), np.searchsorted(level[i], top)
        self._levels = tuple(
            (ends[t], ends[t + 1], read_only(position[j[lo:hi]]), read_only(vals[lo:hi]), tuple(np.bincount(rank[lo:hi])))
            for t, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:]))
        )
        self._width = max(1, _SOLVE_ENTRIES // max(d, len(i), 1))
        self._terms = max((len(level[2]) for level in self._levels), default=0)

    def back_substitute(self, square: np.ndarray) -> np.ndarray:
        """Coordinates x with matrix[rows] @ x = square, for a 2-d array of
        columns read at the square's rows only, as uint8 residues mod p.
        The square is unitriangular, so x is unique, and it is the
        coordinate vector of every column that lies in the span; membership
        is not checked here (see coords)."""
        p = self.p
        x = np.empty((len(self._order), square.shape[1]), dtype=object if p is None else np.uint8)
        # every level's terms
        scratch = np.empty(self._terms * min(self._width, square.shape[1]), dtype=object if p is None else np.int64)
        for lo in range(0, square.shape[1], self._width):
            w = square[self._order, lo : lo + self._width]
            if p is not None:
                w = residues(w, p).astype(np.int64)
            for start, end, cols, vals, counts in self._levels:
                terms = scratch[: len(cols) * w.shape[1]].reshape(len(cols), w.shape[1])  # contiguous:
                np.take(w, cols, axis=0, out=terms, mode="clip")  # filled in place, without a buffer
                terms *= vals
                for count in counts:
                    w[start : start + count] -= terms[:count]
                    terms = terms[count:]
                if p is not None:
                    _reduce_in_place(w[start:end], p)
            x[self._order, lo : lo + self._width] = w
        return x

    def coords(self, columns: np.ndarray) -> np.ndarray:
        """Coordinates of column vectors: back_substitute, then the
        multiply-back; raises ValueError when a column is outside the
        span."""
        p = self.p
        columns = np.asarray(columns, dtype=object if p is None else None)
        if columns.ndim == 1:
            columns = columns[:, None]
        x = self.back_substitute(columns[self.rows])
        if not (np.array_equal(self.matrix @ x, columns) if p is None else fp_product_equals(self.matrix, x, columns, p)):
            raise ValueError("coordinate solve inconsistent: vector not in the basis span")
        return x


# ---------------------------------------------------------------------------
# exact characteristic polynomials


def int_charpoly(a) -> list[int]:
    """Coefficients e_0..e_n of det(I + t a) for an n x n integer matrix, in
    Python ints; e_d is the sum of the principal d x d minors, and e_n the
    determinant.  By the Faddeev-LeVerrier recurrence: b_0 = I, e_k =
    tr(a b_(k-1)) / k, and b_k = e_k I - a b_(k-1).  Raises ValueError for a
    matrix that is not square."""
    rows = [list(map(int, row)) for row in a]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("characteristic polynomial needs a square matrix")
    m = np.array(rows, dtype=object).reshape(n, n)
    coeffs = [1]
    b = np.identity(n, dtype=object)
    for k in range(1, n + 1):
        ab = m @ b
        e, rem = divmod(int(np.trace(ab)), k)
        assert not rem, "Faddeev-LeVerrier division must be exact"
        coeffs.append(e)
        b = -ab
        b[np.diag_indices(n)] += e
    return coeffs


# ---------------------------------------------------------------------------
# sparse exact vectors, integer Laurent polynomials and powers


class SparseVector:
    """Sparse vector with exact integer coefficients, stored as {key:
    coefficient} in Python ints.  Zero coefficients are never stored, so
    equality is structural.

    The one arithmetic of tensor.TensorVector (keys: sign words),
    surface.ExteriorVector (keys: exterior monomials), LaurentInt and
    CyclotomicElem (keys: exponents), and the one linear extension of an
    operator's rule on a key (image).  A subclass names its `space`, the
    attributes that both operands of +, -, == and dot must share and that
    its constructor takes before the coefficients (or overrides _like, which
    builds every result), and its messages for an operand from another
    space (_MISMATCH) and for a key out of range (_RANGE); keys limited to
    `bits` bits are checked on construction.
    """

    __slots__ = ("coeffs",)
    _MISMATCH = "operands from different spaces"
    _RANGE = "key {0} out of range"

    def __init__(self, coeffs=None, bits: int | None = None):
        self.coeffs = {int(k): int(c) for k, c in (coeffs or {}).items() if c != 0}
        if bits is not None:
            for k in self.coeffs:
                if k < 0 or k >> bits:
                    raise ValueError(self._RANGE.format(k, self))

    @property
    def space(self) -> tuple:
        return ()

    def _like(self, coeffs):
        return type(self)(*self.space, coeffs)

    def _operand(self, other):
        """other as the second operand of a binary operation; ValueError
        when it is not a vector of the same space."""
        if not isinstance(other, type(self)) or other.space != self.space:
            raise ValueError(self._MISMATCH)
        return other

    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self):
        return sorted(self.coeffs.items())

    def __add__(self, other):
        other = self._operand(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return self._like(out)

    def __sub__(self, other):
        return self + -self._operand(other)

    def __neg__(self):
        return self._like({k: -c for k, c in self.coeffs.items()})

    def __mul__(self, scalar: int):
        return self._like({k: c * scalar for k, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        try:
            other = self._operand(other)
        except (TypeError, ValueError):
            return False
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.space, tuple(self.terms())))

    def dot(self, other) -> int:
        """The symmetric bilinear form for which the keys are orthonormal."""
        small, large = sorted((self.coeffs, self._operand(other).coeffs), key=len)
        return sum(c * large.get(k, 0) for k, c in small.items())

    def image(self, rule, target=None):
        """The linear extension of `rule`, which gives the image of one key
        as (key, coefficient) pairs: the sum of c * c' over the terms, built
        by the _like of `target`, a vector of the target space (this
        vector's own space when None), so zero coefficients drop."""
        out: dict = {}
        for k, c in self.coeffs.items():
            for k2, c2 in rule(k):
                out[k2] = out.get(k2, 0) + c * c2
        return (self if target is None else target)._like(out)

    @staticmethod
    def columns(vectors, index, dtype) -> np.ndarray:
        """The coefficients of vectors as the columns of a dtype matrix with
        one row per key of index, key k in row index[k]: index is a dict, or
        a range for keys that are their own rows.  In an object matrix the
        coefficients stay Python ints; in an int64 one a coefficient that
        int64 cannot hold raises OverflowError instead of wrapping.  Raises
        ValueError for a key outside index."""
        out = np.zeros((len(index), len(vectors)), dtype=dtype)
        for col, v in enumerate(vectors):
            for k, c in v.coeffs.items():
                if k not in index:
                    raise ValueError(f"key {k} is outside the column index")
                out[index[k], col] = c
        return out


class LaurentInt(SparseVector):
    """Integer Laurent polynomial, stored sparsely as {exponent: coefficient}.
    An int operand of +, -, * or == is the constant polynomial."""

    __slots__ = ()

    @classmethod
    def zero(cls) -> "LaurentInt":
        return cls()

    @classmethod
    def one(cls) -> "LaurentInt":
        return cls({0: 1})

    @classmethod
    def x(cls, exp: int = 1, coeff: int = 1) -> "LaurentInt":
        return cls({exp: coeff})

    def _operand(self, other) -> "LaurentInt":
        if isinstance(other, LaurentInt):
            return other
        if isinstance(other, int):
            return LaurentInt({0: other})
        raise TypeError(f"cannot coerce {type(other)!r} to LaurentInt")

    __radd__ = SparseVector.__add__

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, int):
            return SparseVector.__mul__(self, other)
        other = self._operand(other)
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return self._like(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        base = self
        if n < 0:
            if len(self.coeffs) != 1 or abs(next(iter(self.coeffs.values()))) != 1:
                raise ValueError("only unit monomials have Laurent inverses")
            base, n = self._like({-e: c for e, c in self.coeffs.items()}), -n
        return power(base, n, self.one())

    def __repr__(self):
        if not self.coeffs:
            return "LaurentInt(0)"
        bits = []
        for e, c in self.terms():
            if e == 0:
                bits.append(f"{c}")
            elif e == 1:
                bits.append(f"{c}*x")
            else:
                bits.append(f"{c}*x^{e}")
        return "LaurentInt(" + " + ".join(bits) + ")"


def power(base, n: int, one):
    """base ** n by repeated squaring from the unit `one`, skipping the
    squaring that no later factor would use.  Raises ValueError for n < 0."""
    if n < 0:
        raise ValueError("negative powers are not defined here")
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def quantum_integer(n: int) -> LaurentInt:
    """Balanced quantum integer x^(n-1) + x^(n-3) + ... + x^(1-n).

    The balanced sum avoids the quotient form, so it can be evaluated where
    x - x^(-1) fails to be a unit, in particular at roots of unity.
    """
    if n < 0:
        raise ValueError("quantum integers are defined for n >= 0 here")
    return LaurentInt({n - 1 - 2 * i: 1 for i in range(n)})


# ---------------------------------------------------------------------------
# cyclotomic quotients


class CyclotomicElem(SparseVector):
    """Element of Z[z]/(1 + z + ... + z^(p-1)), coefficients optionally mod p.

    A sparse vector keyed by the exponents 0 ... p-2 of the fixed basis
    z^0 ... z^(p-2); the relation z^(p-1) = -(1 + z + ... + z^(p-2))
    performs the reduction.  `mod=None` means integer coefficients, `mod=p`
    reduces them to F_p.  The constructor takes the p - 1 dense
    coordinates, which `coords` reads back.
    """

    __slots__ = ("p", "mod")
    _MISMATCH = "mixed cyclotomic rings"

    def __init__(self, p: int, coords, mod: int | None = None):
        if p < 3 or not is_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        if mod is not None and mod != p:
            raise ValueError("coefficient modulus must equal p when given")
        coords = list(map(int, coords))
        if len(coords) != p - 1:
            raise ValueError(f"need {p - 1} coordinates, got {len(coords)}")
        if mod is not None:
            coords = [c % mod for c in coords]
        # SparseVector.__init__ without a second int conversion, since every
        # sum and product builds a whole element
        self.coeffs = {e: c for e, c in enumerate(coords) if c}
        self.p = p
        self.mod = mod

    @property
    def space(self) -> tuple:
        return (self.p, self.mod)

    @property
    def coords(self) -> tuple[int, ...]:
        return tuple(self.coeffs.get(e, 0) for e in range(self.p - 1))

    @classmethod
    def zero(cls, p: int, mod: int | None = None) -> "CyclotomicElem":
        return cls(p, [0] * (p - 1), mod)

    @classmethod
    def one(cls, p: int, mod: int | None = None) -> "CyclotomicElem":
        return cls.from_powers(p, {0: 1}, mod)

    @classmethod
    def zeta(cls, p: int, exp: int = 1, mod: int | None = None) -> "CyclotomicElem":
        return cls.from_powers(p, {exp: 1}, mod)

    @classmethod
    def from_powers(cls, p: int, powers: dict, mod: int | None = None) -> "CyclotomicElem":
        """Build from a {exponent: coefficient} map; exponents wrap mod p."""
        coords = [0] * (p - 1)
        top = 0  # the coefficient of z^(p-1)
        for e, c in powers.items():
            e %= p
            if e == p - 1:
                top += c
            else:
                coords[e] += c
        return cls(p, [c - top for c in coords] if top else coords, mod)

    def _like(self, coeffs):
        return CyclotomicElem.from_powers(self.p, coeffs, self.mod)

    def _operand(self, other) -> "CyclotomicElem":
        if not isinstance(other, CyclotomicElem):
            raise TypeError("expected a CyclotomicElem")
        return SparseVector._operand(self, other)

    # LaurentInt's product; _like folds the exponents from p - 1 on back
    __mul__ = __rmul__ = LaurentInt.__mul__

    def __pow__(self, n: int):
        return power(self, n, CyclotomicElem.one(self.p, self.mod))

    def conjugate(self) -> "CyclotomicElem":
        """The involution z -> z^(-1)."""
        return self._like({-e: c for e, c in self.coeffs.items()})

    def invariant_coords(self) -> tuple[int, ...]:
        """Coordinates in the canonical basis of the conjugation-invariant
        subring: the unit together with z^m + z^(p-m) for 2 <= m <= (p-1)/2.

        Raises ValueError when the element is not conjugation-invariant.
        """
        if self.conjugate() != self:
            raise ValueError("element is not conjugation-invariant")
        a = self.coords
        return (a[0],) + tuple(a[m] for m in range(2, (self.p - 1) // 2 + 1))

    def __repr__(self):
        ring = f"F_{self.p}" if self.mod else "Z"
        return f"CyclotomicElem(p={self.p}, {ring}, coords={list(self.coords)})"


def cyclotomic_eval(f: LaurentInt, p: int, sign: int = 1, mod_p: bool = False) -> CyclotomicElem:
    """Substitute x = sign * zeta_p into an integer Laurent polynomial.

    With `mod_p` the coefficients are additionally reduced modulo p.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    powers = {e: c if sign == 1 or e % 2 == 0 else -c for e, c in f.coeffs.items()}
    return CyclotomicElem.from_powers(p, powers, p if mod_p else None)


@lru_cache(maxsize=None)
def zeta_quantum(p: int, n: int, mod_p: bool = False) -> CyclotomicElem:
    """The quantum integer [n] evaluated at zeta_p, cached because the
    cyclotomic checks of both signs read the same values."""
    return cyclotomic_eval(quantum_integer(n), p, 1, mod_p)
