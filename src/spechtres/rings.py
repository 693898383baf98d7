"""Exact scalar and matrix arithmetic.

Prime-field scalars and matrices, integer Laurent polynomials, cyclotomic
quotients Z[z]/(1 + z + ... + z^(p-1)) with optional mod-p coefficients,
balanced quantum integers, deterministic Gaussian elimination, inverses of
unitriangular matrices mod p or over Z, and the quotient of F_p^d by the
radical of a Gram matrix (GramQuotient), the one simple-quotient type of
the package.

Everything here is exact.  Python integers cannot overflow.  Matrices over
F_p are int64 arrays of residues in [0, p).  Products run in float64
through BLAS: every partial sum is an integer below 2**53, which float64
represents exactly, so summation order cannot change a result (the
delayed-reduction technique of FFLAS-FFPACK).  int64 products remain only
where that bound would leave too small a chunk of the inner dimension,
and there every partial sum is kept below 2**63.

Elimination is blocked: a matrix wider than one column panel is reduced
a panel at a time, with the per-pivot loop confined to the panel and the
rest of the matrix updated by products.  Narrower matrices keep the
per-pivot loop alone.  The
reduced row echelon form is unique, so the blocking changes no result.
A modulus whose residue products would wrap int64 is refused, by
elimination as by products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "is_prime",
    "FpScalar",
    "FpMatrix",
    "fp_matmul",
    "int_gram",
    "fp_rref",
    "fp_rank_kernel_image",
    "fp_solve",
    "fp_inverse",
    "unitriangular_inverse",
    "GramQuotient",
    "frac_solve",
    "int_det",
    "LaurentInt",
    "quantum_integer",
    "CyclotomicElem",
    "cyclotomic_eval",
    "zeta_quantum",
]

# Auxiliary prime for Z-computations done through a single modular image.
# Any integer result with known absolute value < AUX_PRIME // 2 is recovered
# exactly from its symmetric residue.
AUX_PRIME = 67108859


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
# prime field scalars


@dataclass(frozen=True)
class FpScalar:
    """A residue in the field with p elements, p an odd prime."""

    value: int
    p: int

    def __post_init__(self):
        if self.p < 3 or not is_prime(self.p):
            raise ValueError(f"modulus must be an odd prime, got {self.p}")
        object.__setattr__(self, "value", self.value % self.p)

    def _other(self, x) -> int:
        if isinstance(x, FpScalar):
            if x.p != self.p:
                raise ValueError("modulus mismatch")
            return x.value
        return int(x)

    def __add__(self, x):
        return FpScalar(self.value + self._other(x), self.p)

    __radd__ = __add__

    def __sub__(self, x):
        return FpScalar(self.value - self._other(x), self.p)

    def __rsub__(self, x):
        return FpScalar(self._other(x) - self.value, self.p)

    def __mul__(self, x):
        return FpScalar(self.value * self._other(x), self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return FpScalar(-self.value, self.p)

    def inverse(self) -> "FpScalar":
        if self.value == 0:
            raise ZeroDivisionError("0 is not invertible")
        return FpScalar(pow(self.value, -1, self.p), self.p)

    def __truediv__(self, x):
        return self * FpScalar(self._other(x), self.p).inverse()

    def __int__(self):
        return self.value

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value} (mod {self.p})"


# ---------------------------------------------------------------------------
# matrices over F_p

# Entries live in [0, p).  The elimination scan is fixed: columns left to
# right, within a column the first nonzero entry from the top.  The reduced
# form and its pivot columns are unique, so every basis produced downstream
# is deterministic.


class FpMatrix:
    """Dense matrix over F_p backed by an int64 array."""

    __slots__ = ("p", "a")

    def __init__(self, p: int, data):
        if p < 3 or not is_prime(p):
            raise ValueError(f"modulus must be an odd prime, got {p}")
        a = np.asarray(data, dtype=np.int64)
        if a.ndim != 2:
            raise ValueError("matrix data must be two-dimensional")
        self.p = p
        self.a = a % p

    @classmethod
    def identity(cls, p: int, n: int) -> "FpMatrix":
        return cls(p, np.eye(n, dtype=np.int64))

    @classmethod
    def zeros(cls, p: int, rows: int, cols: int) -> "FpMatrix":
        return cls(p, np.zeros((rows, cols), dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def transpose(self) -> "FpMatrix":
        return FpMatrix(self.p, self.a.T)

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        if self.p != other.p:
            raise ValueError("modulus mismatch")
        return FpMatrix(self.p, fp_matmul(self.a, other.a, self.p))

    def __add__(self, other: "FpMatrix") -> "FpMatrix":
        if self.p != other.p:
            raise ValueError("modulus mismatch")
        return FpMatrix(self.p, self.a + other.a)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FpMatrix)
            and self.p == other.p
            and self.a.shape == other.a.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __repr__(self):
        return f"FpMatrix(p={self.p}, shape={self.a.shape})"


# Integers up to 2**53 are exact in float64.
_FLOAT_EXACT = 2**53

# Below this many inner-dimension terms per reduction the float64 route
# would reduce the accumulator too often to pay; int64 takes over.
_MIN_FLOAT_CHUNK = 128


@lru_cache(maxsize=None)
def _product_chunk(p: int) -> tuple[int, bool]:
    """Inner-dimension terms per exact chunk of a product mod p, and
    whether the chunk runs in float64."""
    chunk = (_FLOAT_EXACT - p) // ((p - 1) * (p - 1))
    if chunk >= _MIN_FLOAT_CHUNK:
        assert chunk * (p - 1) ** 2 + p - 1 < _FLOAT_EXACT
        return chunk, True
    chunk = (2**62) // ((p - 1) * (p - 1))
    if chunk == 0:
        raise ValueError(f"modulus {p} too large for exact int64 products")
    return chunk, False


def fp_matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact a @ b mod p as an int64 array of residues.

    The operands are reduced mod p, cast to float64 and multiplied by BLAS
    in chunks of the inner dimension small enough that chunk * (p-1)**2 +
    p - 1 < 2**53: every partial sum, the reduced accumulator of the
    previous chunks included, is then an integer that float64 holds
    exactly, so BLAS summation order cannot change the result.  Only when
    that bound leaves fewer than _MIN_FLOAT_CHUNK terms per chunk (p above
    about 8 * 10**6, such as AUX_PRIME) does the product run in int64,
    chunked so that its partial sums stay below 2**63; a modulus too large
    for that is refused.
    """
    chunk, in_float = _product_chunk(p)
    a = a % p
    b = b % p
    if in_float:
        a = a.astype(np.float64)
        b = b.astype(np.float64)
    acc = a[..., :chunk] @ b[:chunk]
    for lo in range(chunk, a.shape[-1], chunk):
        acc = acc % p + a[..., lo : lo + chunk] @ b[lo : lo + chunk]
    del a, b  # free the reduced operand copies before the result is made
    out = acc.astype(np.int64, copy=False)
    out %= p
    return out


def int_gram(m: np.ndarray) -> np.ndarray:
    """Exact integer Gram matrix m.T @ m of an integer matrix.

    Every partial sum is bounded by rows * max|entry|**2.  Below 2**53 the
    product runs in float64 through BLAS, which always holds for the 0/+-1
    polytabloid matrices; below 2**63 it runs in int64; beyond that it is
    refused rather than allowed to wrap.
    """
    m = np.asarray(m)
    top = max(-int(m.min()), int(m.max())) if m.size else 0
    bound = m.shape[0] * top * top
    if bound < _FLOAT_EXACT:
        f = m.astype(np.float64)
        return (f.T @ f).astype(np.int64)
    if bound < 2**63:
        return m.T @ m
    raise OverflowError("Gram matrix entries may exceed the int64 range")


# Width of a column panel of the blocked elimination.  A matrix no wider
# than one panel is reduced by the per-pivot loop alone, so the many small
# eliminations pay for no products.
_PANEL = 64


def _pivot_loop(m: np.ndarray, p: int, width: int) -> tuple[list[int], np.ndarray]:
    """Gauss-Jordan elimination mod p in place on m, one pivot at a time,
    with the fixed pivot scan over the first `width` columns.

    Returns the pivot columns and the row order: row i of the result
    descends from row order[i] of the input.  When column c becomes pivot
    row r, row r is zero left of c, so scaling and eliminating touch only
    the columns from c on.

    Columns from `width` on, if any, are workspace that must start at zero
    and be at least as wide as the rank.  The row that becomes pivot row r
    gets a 1 in column width + r.  Until then no multiple of that row has
    been added to another, and afterwards only pivot rows are, so at the
    end the workspace of the k pivot rows holds the inverse of the pivot
    block: the input rows order[:k] in the pivot columns.
    """
    rows, cols = m.shape
    order = np.arange(rows)
    pivots: list[int] = []
    r = 0
    for c in range(width):
        if r == rows:
            break
        nz = np.flatnonzero(m[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        # workspace columns past width + r are still zero in every row
        end = min(width + r + 1, cols)
        if i != r:
            m[[r, i], c:end] = m[[i, r], c:end]
            order[[r, i]] = order[[i, r]]
        if width < cols:
            m[r, width + r] = 1
        m[r, c:end] = m[r, c:end] * pow(int(m[r, c]), -1, p) % p
        others = np.flatnonzero(m[:, c])
        others = others[others != r]
        if others.size:
            m[others, c:end] = (m[others, c:end] - np.outer(m[others, c], m[r, c:end])) % p
        pivots.append(c)
        r += 1
    return pivots, order


def fp_rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p.

    Returns the reduced matrix and the list of pivot column indices.  The
    reduced form is unique, so it does not depend on how it is computed.

    A matrix wider than one panel is reduced a column panel at a time
    (Jeannerod, Pernet and Storjohann, JSC 2013).  Rows 0..r-1 hold the
    pivot rows found so far and the other rows are zero left of the panel.
    The per-pivot loop on a copy of the panel's remaining rows finds its
    pivot columns P, rows S that carry them and the inverse of A[S, P];
    S moves up to rows r..r+k-1.  Then X = A[S, P]^-1 A[S, c0:] is the
    reduced form of those rows, and every row gets A[:, c0:] -= A[:, P] X,
    which zeroes the P columns outside S and, below the pivot rows, the
    whole panel, since the panel's rows lie in the span of its rows S.
    Both products run through fp_matmul.  A modulus whose residue products
    would wrap int64 is refused with ValueError.
    """
    _product_chunk(p)  # raises ValueError for such a modulus
    m = np.asarray(a, dtype=np.int64) % p
    rows, cols = m.shape
    if cols <= _PANEL:
        return m, _pivot_loop(m, p, cols)[0]
    pivots: list[int] = []
    for c0 in range(0, cols, _PANEL):
        r = len(pivots)
        if r == rows:
            break
        w = min(_PANEL, cols - c0)
        panel = np.zeros((rows - r, 2 * w), dtype=np.int64)
        panel[:, :w] = m[r:, c0 : c0 + w]
        found, order = _pivot_loop(panel, p, w)
        k = len(found)
        if not k:
            continue
        # reorder rows r.. as the loop did, which moves the rows S up to
        # rows r..r+k-1 in pivot order; at most 2k rows move
        moved = np.flatnonzero(order != np.arange(rows - r))
        m[r + moved] = m[r + order[moved]]
        cp = [c0 + c for c in found]
        x = fp_matmul(panel[:k, w : w + k], m[r : r + k, c0:], p)
        m[:, c0:] -= fp_matmul(m[:, cp], x, p)
        m[:, c0:] %= p
        m[r : r + k, c0:] = x
        pivots += cp
    return m, pivots


def kernel_from_rref(rref: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """Null-space basis read off a reduced row echelon form: one column per
    free column f, with 1 at f and minus column f of the reduced rows at the
    pivot positions."""
    cols = rref.shape[1]
    pivot_set = set(pivots)
    free = [f for f in range(cols) if f not in pivot_set]
    kernel = np.zeros((cols, len(free)), dtype=np.int64)
    kernel[free, range(len(free))] = 1
    kernel[pivots] = -rref[: len(pivots)][:, free] % p
    return kernel


def fp_kernel_basis(a: np.ndarray, p: int) -> list[np.ndarray]:
    """Column vectors spanning the null space, one per free column."""
    return list(kernel_from_rref(*fp_rref(a, p), p).T)


def fp_rank_kernel_image(m: FpMatrix):
    """Rank, kernel basis and image basis of a matrix over F_p.

    The image basis consists of the original columns at the pivot
    positions; together with the fixed pivot rule this makes all three
    outputs deterministic.
    """
    rref, pivots = fp_rref(m.a, m.p)
    kernel = list(kernel_from_rref(rref, pivots, m.p).T)
    image = [m.a[:, c].copy() for c in pivots]
    rank = len(pivots)
    assert rank + len(kernel) == m.cols
    return rank, kernel, image


def fp_solve(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Solve a @ x = b mod p for each column of b.

    Free variables are set to zero, so the solution is deterministic.
    Raises ValueError when the system is inconsistent.
    """
    b = np.asarray(b, dtype=np.int64)
    single = b.ndim == 1
    if single:
        b = b[:, None]
    ncols = a.shape[1]
    aug = np.concatenate([a % p, b % p], axis=1)
    rref, pivots = fp_rref(aug, p)
    if any(c >= ncols for c in pivots):
        raise ValueError("inconsistent linear system over F_p")
    x = np.zeros((ncols, b.shape[1]), dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = rref[i, ncols:]
    return x[:, 0] if single else x


def fp_inverse(a: np.ndarray, p: int) -> np.ndarray:
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError("inverse needs a square matrix")
    aug = np.concatenate([a % p, np.eye(n, dtype=np.int64)], axis=1)
    rref, pivots = fp_rref(aug, p)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular mod p")
    return rref[:, n:]


def unitriangular_inverse(u: np.ndarray, p: int | None) -> np.ndarray:
    """Inverse of an upper unitriangular matrix, by blocked back-substitution:
    inv [[A, B], [0, C]] = [[A', -A' B C'], [0, C']] with A', C' the inverses
    of the diagonal blocks.  No elimination is needed.

    For a prime p the inverse is taken mod p.  For p None it is exact over
    Z, in Python ints held in an object array, so no entry can wrap.
    Raises ValueError when u is not upper unitriangular (mod p)."""
    u = np.asarray(u, dtype=object) if p is None else np.asarray(u, dtype=np.int64) % p
    d = u.shape[0]
    if u.shape != (d, d) or not (np.diagonal(u) == 1).all() or np.tril(u, -1).any():
        raise ValueError("matrix is not upper unitriangular")
    if p is None:
        return _unitriangular_inverse(u, None, d)
    # blocks up to this size are solved row by row in int64: a row sums at
    # most leaf - 1 products below p**2, which stays under 2**62
    leaf = max(1, min(32, 2**62 // ((p - 1) * (p - 1))))
    return _unitriangular_inverse(u, p, leaf)


def _unitriangular_inverse(u: np.ndarray, p: int | None, leaf: int) -> np.ndarray:
    d = u.shape[0]
    if d <= leaf:
        inv = np.eye(d, dtype=u.dtype)
        for i in range(d - 2, -1, -1):
            row = -(u[i, i + 1 :] @ inv[i + 1 :, i + 1 :])
            inv[i, i + 1 :] = row if p is None else row % p
        return inv
    h = d // 2
    top = _unitriangular_inverse(u[:h, :h], p, leaf)
    bottom = _unitriangular_inverse(u[h:, h:], p, leaf)
    inv = np.zeros((d, d), dtype=np.int64)
    inv[:h, :h] = top
    inv[h:, h:] = bottom
    inv[:h, h:] = -fp_matmul(top, fp_matmul(u[:h, h:], bottom, p), p) % p
    return inv


class GramQuotient:
    """Quotient of F_p^d by the null space (the radical) of a symmetric Gram
    matrix, from one elimination of that matrix.

    The radical columns are the kernel basis read off the reduced form: the
    identity on the free coordinates, free_idx.  The complement is the span
    of the pivot coordinate vectors, pivot_idx, so a trace on the quotient
    needs only this index data.  Coordinates of vectors and actions are
    taken in the basis whose Gram matrix was eliminated.  radical,
    free_idx and pivot_idx are read-only.
    """

    def __init__(self, gram: np.ndarray, p: int):
        rref, pivots = fp_rref(gram, p)
        self.p = p
        self.radical = read_only(kernel_from_rref(rref, pivots, p))
        pivot_set = set(pivots)
        self.free_idx = read_only(np.array([f for f in range(rref.shape[1]) if f not in pivot_set], dtype=np.intp))
        self.pivot_idx = read_only(np.array(pivots, dtype=np.intp))
        self.quotient_dim = len(pivots)

    def project_columns(self, cols: np.ndarray) -> np.ndarray:
        """Complement coordinates of columns, read off after subtracting the
        radical component."""
        cols = np.asarray(cols, dtype=np.int64) % self.p
        if self.radical.shape[1]:
            cols = (cols - fp_matmul(self.radical, cols[self.free_idx], self.p)) % self.p
            if cols[self.free_idx].any():
                raise AssertionError("radical reduction failed")
        return cols[self.pivot_idx]

    def quotient_matrix(self, action: np.ndarray) -> np.ndarray:
        """Matrix induced on the quotient by an action that preserves the
        radical."""
        return self.project_columns(action[:, self.pivot_idx])

    def check_radical_invariance(self, action: np.ndarray):
        """Raise AssertionError unless the action maps the radical into
        itself; otherwise a quotient trace would be meaningless."""
        if not self.radical.shape[1]:
            return
        moved = fp_matmul(action, self.radical, self.p)
        reduced = (moved - fp_matmul(self.radical, moved[self.free_idx], self.p)) % self.p
        if reduced.any():
            raise AssertionError("action does not preserve the radical")


# ---------------------------------------------------------------------------
# exact rational / integer elimination (small systems only)


def frac_solve(a, b):
    """Exact solution of a @ x = b over Q via fraction elimination.

    a is m x n with full column rank expected; b is m x k.  Raises
    ValueError if the system is inconsistent or underdetermined.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    k = len(b[0])
    rows = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(b[i][j]) for j in range(k)] for i in range(m)]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if len(pivots) < n:
        raise ValueError("system is underdetermined")
    for i in range(r, m):
        if any(x != 0 for x in rows[i][n:]):
            raise ValueError("inconsistent linear system over Q")
    x = [[Fraction(0)] * k for _ in range(n)]
    for i, c in enumerate(pivots):
        x[c] = rows[i][n:]
    return x


def int_det(a) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    m = [list(map(int, row)) for row in a]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
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
    return sign * m[n - 1][n - 1]


# ---------------------------------------------------------------------------
# integer Laurent polynomials


class LaurentInt:
    """Integer Laurent polynomial, stored sparsely as {exponent: coefficient}.

    Zero coefficients are never stored, so equality is structural.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {int(e): int(c) for e, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def zero(cls) -> "LaurentInt":
        return cls()

    @classmethod
    def one(cls) -> "LaurentInt":
        return cls({0: 1})

    @classmethod
    def x(cls, exp: int = 1, coeff: int = 1) -> "LaurentInt":
        return cls({exp: coeff})

    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self):
        return sorted(self.coeffs.items())

    def __add__(self, other):
        other = _as_laurent(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentInt(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_as_laurent(other))

    def __rsub__(self, other):
        return _as_laurent(other) + (-self)

    def __neg__(self):
        return LaurentInt({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentInt({e: c * other for e, c in self.coeffs.items()})
        other = _as_laurent(other)
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentInt(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            inv = LaurentInt({-e: c for e, c in self.coeffs.items()})
            if len(self.coeffs) != 1 or abs(next(iter(self.coeffs.values()))) != 1:
                raise ValueError("only unit monomials have Laurent inverses")
            return inv ** (-n)
        result = LaurentInt.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = _as_laurent(other)
        return isinstance(other, LaurentInt) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.terms()))

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


def _as_laurent(x) -> LaurentInt:
    if isinstance(x, LaurentInt):
        return x
    if isinstance(x, int):
        return LaurentInt({0: x})
    raise TypeError(f"cannot coerce {type(x)!r} to LaurentInt")


def quantum_integer(n: int, x=None):
    """Balanced quantum integer x^(n-1) + x^(n-3) + ... + x^(1-n).

    The balanced sum avoids the quotient form, so the result is defined in
    any commutative ring in which x is invertible; in particular it makes
    sense at roots of unity where x - x^(-1) fails to be a unit.
    """
    if n < 0:
        raise ValueError("quantum integers are defined for n >= 0 here")
    if x is None:
        x = LaurentInt.x()
    result = x * 0
    for i in range(n):
        result = result + x ** (n - 1 - 2 * i)
    return result


# ---------------------------------------------------------------------------
# cyclotomic quotients


class CyclotomicElem:
    """Element of Z[z]/(1 + z + ... + z^(p-1)), coefficients optionally mod p.

    Coordinates are stored in the fixed basis z^0 ... z^(p-2); the relation
    z^(p-1) = -(1 + z + ... + z^(p-2)) performs the reduction.  `mod=None`
    means integer coefficients, `mod=p` reduces them to F_p.
    """

    __slots__ = ("p", "coords", "mod")

    def __init__(self, p: int, coords, mod: int | None = None):
        if p < 3 or not is_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        if mod is not None and mod != p:
            raise ValueError("coefficient modulus must equal p when given")
        coords = [int(c) for c in coords]
        if len(coords) != p - 1:
            raise ValueError(f"need {p - 1} coordinates, got {len(coords)}")
        if mod is not None:
            coords = [c % mod for c in coords]
        self.p = p
        self.coords = tuple(coords)
        self.mod = mod

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
        for e, c in powers.items():
            e %= p
            if e == p - 1:
                for j in range(p - 1):
                    coords[j] -= c
            else:
                coords[e] += c
        return cls(p, coords, mod)

    def _check(self, other: "CyclotomicElem"):
        if not isinstance(other, CyclotomicElem):
            raise TypeError("expected a CyclotomicElem")
        if other.p != self.p or other.mod != self.mod:
            raise ValueError("mixed cyclotomic rings")

    def __add__(self, other):
        self._check(other)
        return CyclotomicElem(self.p, [a + b for a, b in zip(self.coords, other.coords)], self.mod)

    def __sub__(self, other):
        self._check(other)
        return CyclotomicElem(self.p, [a - b for a, b in zip(self.coords, other.coords)], self.mod)

    def __neg__(self):
        return CyclotomicElem(self.p, [-a for a in self.coords], self.mod)

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicElem(self.p, [a * other for a in self.coords], self.mod)
        self._check(other)
        powers: dict[int, int] = {}
        for e1, c1 in enumerate(self.coords):
            if c1 == 0:
                continue
            for e2, c2 in enumerate(other.coords):
                if c2 == 0:
                    continue
                e = (e1 + e2) % self.p
                powers[e] = powers.get(e, 0) + c1 * c2
        return CyclotomicElem.from_powers(self.p, powers, self.mod)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined here")
        result = CyclotomicElem.one(self.p, self.mod)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "CyclotomicElem":
        """The involution z -> z^(-1)."""
        return CyclotomicElem.from_powers(
            self.p, {(-e) % self.p: c for e, c in enumerate(self.coords)}, self.mod
        )

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def invariant_coords(self) -> tuple[int, ...]:
        """Coordinates in the canonical basis of the conjugation-invariant
        subring: the unit together with z^m + z^(p-m) for 2 <= m <= (p-1)/2.

        Raises ValueError when the element is not conjugation-invariant.
        """
        if self.conjugate() != self:
            raise ValueError("element is not conjugation-invariant")
        a = self.coords
        return (a[0],) + tuple(a[m] for m in range(2, (self.p - 1) // 2 + 1))

    def __eq__(self, other):
        return (
            isinstance(other, CyclotomicElem)
            and self.p == other.p
            and self.mod == other.mod
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.p, self.mod, self.coords))

    def __repr__(self):
        ring = f"F_{self.p}" if self.mod else "Z"
        return f"CyclotomicElem(p={self.p}, {ring}, coords={list(self.coords)})"


def cyclotomic_eval(f: LaurentInt, p: int, sign: int = 1, mod_p: bool = False) -> CyclotomicElem:
    """Substitute x = sign * zeta_p into an integer Laurent polynomial.

    With `mod_p` the coefficients are additionally reduced modulo p.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    powers = {}
    for e, c in f.coeffs.items():
        s = c if (sign == 1 or e % 2 == 0) else -c
        powers[e] = powers.get(e, 0) + s
    return CyclotomicElem.from_powers(p, powers, p if mod_p else None)


def zeta_quantum(p: int, n: int, sign: int = 1, mod_p: bool = False) -> CyclotomicElem:
    """The quantum integer [n] evaluated at sign * zeta_p."""
    return cyclotomic_eval(quantum_integer(n), p, sign, mod_p)
