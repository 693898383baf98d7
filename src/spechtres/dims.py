"""Dimension combinatorics: signed Catalan numbers, simple-quotient
dimension sums, Fibonacci identities, the fusion ring on p-1 labels with
its genus multiplicity formulas, recursively defined integer polynomials
relating the two growth rates, and the Perron norms of the multiplication
matrices.

Everything except the float Perron norms is exact integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .rings import CyclotomicElem, LaurentInt, cyclotomic_eval, quantum_integer, read_only, zeta_quantum

__all__ = [
    "binom",
    "catalan",
    "fib",
    "d_dim",
    "fib_catalan_identities",
    "IntPolynomial",
    "FusionElement",
    "fusion_multiply",
    "fusion_unit",
    "fusion_label",
    "genus_element",
    "odd_squares_element",
    "verlinde_dim",
    "verlinde_profile",
    "odd_squares_dim",
    "squares_doubling_check",
    "closed_form_genus_dims",
    "growth_polynomial",
    "perron_norms",
    "perron_power_iteration",
    "quantum_dim_identity",
]


def binom(n: int, j: int) -> int:
    return math.comb(n, j) if 0 <= j <= n else 0


def catalan(n: int, j: int) -> int:
    """Signed ballot count binom(n, j) - binom(n, j-1); out-of-range
    binomials vanish, so negative values are legal and satisfy the
    antisymmetry catalan(n, j) = -catalan(n, n + 1 - j)."""
    return binom(n, j) - binom(n, j - 1)


@lru_cache(maxsize=None)
def fib(n: int) -> int:
    """Fibonacci numbers with f(0) = 0, f(1) = 1, extended to negative
    indices by running the recursion backwards."""
    if n == 0:
        return 0
    if n == 1:
        return 1
    if n < 0:
        return fib(n + 2) - fib(n + 1)
    return fib(n - 1) + fib(n - 2)


def d_dim(p: int, n: int, k: int) -> int:
    """Dimension of the simple quotient at label k on n letters: the
    p-periodic signed Catalan sum over the column index b = (n+1-k)/2.

    The boundary labels k = 0 and k = p are accepted; they evaluate to
    zero at the appropriate parity.
    """
    if (n + 1 - k) % 2:
        raise ValueError(f"label {k} has wrong parity for n={n}")
    if not 0 <= k <= p:
        raise ValueError(f"label {k} out of range for p={p}")
    b = (n + 1 - k) // 2
    total = 0
    s = -(b // p) - 2
    while b + s * p <= n + 1:
        total += catalan(n, b + s * p)
        s += 1
    return total


def fib_catalan_identities(r: int) -> dict:
    """The four 5-periodic alternating Catalan sums that produce Fibonacci
    numbers.  Each line is evaluated literally from its displayed pattern
    (a pair of offset families with alternating signs)."""

    def line(n, j_plus, j_minus):
        total = 0
        t = 0
        while j_plus - 5 * t >= 0 or j_minus - 5 * t >= 0:
            total += catalan(n, j_plus - 5 * t) - catalan(n, j_minus - 5 * t)
            t += 1
        return total

    lines = {
        "even_first": (line(2 * r, r - 1, r - 3), fib(2 * r)),
        "even_second": (line(2 * r + 1, r - 1, r - 2), fib(2 * r)),
        "odd_first": (line(2 * r + 1, r, r - 3), fib(2 * r + 1)),
        "odd_second": (line(2 * r + 2, r + 1, r - 3), fib(2 * r + 1)),
    }
    report = {name: {"value": v, "fibonacci": f, "ok": v == f} for name, (v, f) in lines.items()}
    report["ok"] = all(entry["ok"] for entry in report.values())
    return report


# ---------------------------------------------------------------------------
# integer polynomials


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial; coeffs[i] is the coefficient of degree i."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = tuple(int(x) for x in self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def of(cls, *coeffs) -> "IntPolynomial":
        return cls(tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial(tuple(x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)))

    def __neg__(self):
        return IntPolynomial(tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(tuple(x * other for x in self.coeffs))
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, x in enumerate(self.coeffs):
            for j, y in enumerate(other.coeffs):
                out[i + j] += x * y
        return IntPolynomial(tuple(out))

    __rmul__ = __mul__

    def compose(self, inner: "IntPolynomial") -> "IntPolynomial":
        result = IntPolynomial.of()
        for c in reversed(self.coeffs):
            result = result * inner + IntPolynomial.of(c)
        return result

    def __call__(self, x):
        result = 0
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def __repr__(self):
        if not self.coeffs:
            return "IntPolynomial(0)"
        bits = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            term = "1" if i == 0 else ("f" if i == 1 else f"f^{i}")
            if i > 0 and abs(c) == 1:
                bits.append(("-" if c < 0 else "") + term)
            elif i == 0:
                bits.append(str(c))
            else:
                bits.append(f"{c}{term}")
        return "IntPolynomial(" + " + ".join(bits).replace("+ -", "- ") + ")"


# ---------------------------------------------------------------------------
# fusion ring on the labels 1 .. p-1
#
# Only three families of relations are given for the generators; general
# products come from the structure matrices built once per p through the
# recursion label(j+1) = label(2) * label(j) - label(j-1).  Multiplicities
# grow exponentially with the genus, so products run in Python integers.


@lru_cache(maxsize=None)
def _structure_matrices(p: int) -> tuple[np.ndarray, ...]:
    """mats[j][l, k] is the multiplicity of label l+1 in label(j+1) *
    label(k+1).  Read-only."""
    d = p - 1
    mats = [np.zeros((d, d), dtype=np.int64) for _ in range(d)]
    mats[0] = np.eye(d, dtype=np.int64)
    if d >= 2:
        m2 = np.zeros((d, d), dtype=np.int64)
        for k in range(1, d + 1):
            if k == 1:
                m2[1, 0] = 1
            elif k == d:
                m2[p - 2 - 1, d - 1] = 1
            else:
                m2[k - 2, k - 1] += 1
                m2[k, k - 1] += 1
        mats[1] = m2
        for j in range(3, d + 1):
            mats[j - 1] = m2 @ mats[j - 2] - mats[j - 3]
    return tuple(read_only(m) for m in mats)


@lru_cache(maxsize=None)
def _structure_constants(p: int) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
    """table[j][k]: the nonzero (l, multiplicity) pairs of label(j+1) *
    label(k+1), as Python integers."""
    mats = _structure_matrices(p)
    return tuple(
        tuple(tuple((l, int(m[l, k])) for l in np.flatnonzero(m[:, k])) for k in range(p - 1))
        for m in mats
    )


class FusionElement:
    """Non-negative integer combination of the p-1 labels of the fusion
    ring; mults[k-1] is the multiplicity of label k."""

    __slots__ = ("p", "mults")

    def __init__(self, p: int, mults):
        mults = tuple(int(m) for m in mults)
        if len(mults) != p - 1:
            raise ValueError(f"need {p - 1} multiplicities")
        self.p = p
        self.mults = mults

    def mult(self, k: int) -> int:
        if not 1 <= k <= self.p - 1:
            raise ValueError(f"label {k} out of range")
        return self.mults[k - 1]

    def __add__(self, other: "FusionElement") -> "FusionElement":
        self._check(other)
        return FusionElement(self.p, tuple(a + b for a, b in zip(self.mults, other.mults)))

    def __mul__(self, other):
        if isinstance(other, int):
            return FusionElement(self.p, tuple(m * other for m in self.mults))
        self._check(other)
        return fusion_multiply(self, other)

    __rmul__ = __mul__

    def __pow__(self, g: int) -> "FusionElement":
        if g < 0:
            raise ValueError("negative fusion powers undefined")
        result = fusion_unit(self.p)
        base = self
        while g:
            if g & 1:
                result = result * base
            g >>= 1
            if g:
                base = base * base
        return result

    def _check(self, other):
        if not isinstance(other, FusionElement) or other.p != self.p:
            raise ValueError("mixed fusion rings")

    def __eq__(self, other):
        return isinstance(other, FusionElement) and (self.p, self.mults) == (other.p, other.mults)

    def __hash__(self):
        return hash((self.p, self.mults))

    def __repr__(self):
        bits = [f"{m}*{{{k + 1}}}" for k, m in enumerate(self.mults) if m]
        return "FusionElement(" + (" + ".join(bits) or "0") + f"; p={self.p})"


def fusion_unit(p: int) -> FusionElement:
    return fusion_label(p, 1)


def fusion_label(p: int, k: int) -> FusionElement:
    if not 1 <= k <= p - 1:
        raise ValueError(f"label {k} out of range for p={p}")
    return FusionElement(p, tuple(1 if i == k - 1 else 0 for i in range(p - 1)))


def fusion_multiply(a: FusionElement, b: FusionElement) -> FusionElement:
    if a.p != b.p:
        raise ValueError("mixed fusion rings")
    table = _structure_constants(a.p)
    out = [0] * (a.p - 1)
    for j, x in enumerate(a.mults):
        if x:
            for k, y in enumerate(b.mults):
                if y:
                    for l, m in table[j][k]:
                        out[l] += x * y * m
    return FusionElement(a.p, out)


def genus_element(p: int) -> FusionElement:
    """The per-handle element: twice the unit plus the second label."""
    return fusion_unit(p) * 2 + fusion_label(p, 2)


def odd_squares_element(p: int) -> FusionElement:
    """Sum of the squares of the odd labels."""
    total = FusionElement(p, (0,) * (p - 1))
    for k in range(1, p, 2):
        lab = fusion_label(p, k)
        total = total + lab * lab
    return total


def verlinde_dim(p: int, k: int, g: int) -> int:
    """Multiplicity of label k in the g-th power of the per-handle element."""
    return (genus_element(p) ** g).mult(k)


def verlinde_profile(p: int, g: int) -> tuple[int, ...]:
    return (genus_element(p) ** g).mults


def odd_squares_dim(p: int, g: int) -> int:
    return (odd_squares_element(p) ** g).mult(1)


def squares_doubling_check(p: int, g: int) -> dict:
    """The doubled element is the sum of all label squares, and its genus-g
    unit multiplicity is 2^g times the undoubled one."""
    f = odd_squares_element(p)
    star = FusionElement(p, (0,) * (p - 1))
    for k in range(1, p):
        lab = fusion_label(p, k)
        star = star + lab * lab
    doubled_ok = star == f * 2
    lhs = (star**g).mult(1)
    rhs = 2**g * (f**g).mult(1)
    return {"doubled_is_all_squares": doubled_ok, "lhs": lhs, "rhs": rhs, "ok": doubled_ok and lhs == rhs}


def closed_form_genus_dims(g: int) -> tuple[int, int, int, int]:
    """Closed forms for the four genus-g label multiplicities at p = 5,
    written with Fibonacci numbers and powers of 5.

    Indexing follows the multiplicity of label k in the g-th power of the
    per-handle element, k = 1..4.
    """
    if g < 0:
        raise ValueError("genus must be nonnegative")
    if g % 2 == 0:
        h = 5 ** (g // 2)
        pairs = [
            (h * fib(g - 1) + fib(2 * g + 1)),
            (h * fib(g) + fib(2 * g)),
            (h * fib(g) - fib(2 * g)),
            (h * fib(g - 1) - fib(2 * g + 1)),
        ]
    else:
        h = 5 ** ((g - 1) // 2)
        pairs = [
            (h * (fib(g - 2) + fib(g)) + fib(2 * g + 1)),
            (h * (fib(g - 1) + fib(g + 1)) + fib(2 * g)),
            (h * (fib(g - 1) + fib(g + 1)) - fib(2 * g)),
            (h * (fib(g - 2) + fib(g)) - fib(2 * g + 1)),
        ]
    if any(x % 2 for x in pairs):
        raise ArithmeticError("closed forms must be even before halving")
    return tuple(x // 2 for x in pairs)


# ---------------------------------------------------------------------------
# growth polynomials and Perron norms


@lru_cache(maxsize=None)
def _p_chebyshev(j: int) -> IntPolynomial:
    # P_{j+1} + P_{j-1} = x P_j with P_0 = 1, P_1 = x
    if j == 0:
        return IntPolynomial.of(1)
    if j == 1:
        return IntPolynomial.of(0, 1)
    x = IntPolynomial.of(0, 1)
    return x * _p_chebyshev(j - 1) - _p_chebyshev(j - 2)


def growth_polynomial(p: int) -> IntPolynomial:
    """Integer polynomial of degree (p-3)/2 expressing the squares-sum
    growth rate through the per-handle growth rate."""
    if p < 3 or p % 2 == 0:
        raise ValueError("p must be odd and at least 3")
    shift = IntPolynomial.of(-2, 1)
    total = IntPolynomial.of()
    for j in range(0, (p - 3) // 2 + 1):
        n_j = (p - 1 - j) // 2 if j % 2 == 0 else (j + 1) // 2
        total = total + n_j * _p_chebyshev(j).compose(shift)
    return total


def perron_norms(p: int) -> tuple[float, float]:
    """Closed-form dominant growth rates of the squares-sum and per-handle
    multiplication matrices: p / (4 sin^2(pi/p)) and 4 cos^2(pi/(2p))."""
    big = p / (4 * math.sin(math.pi / p) ** 2)
    small = 4 * math.cos(math.pi / (2 * p)) ** 2
    return big, small


def _dominant_eigenvalue(mat: np.ndarray, tol: float = 1e-13, max_iter: int = 100000) -> float:
    v = np.ones(mat.shape[0], dtype=float)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = mat @ v
        nrm = np.linalg.norm(w)
        if nrm == 0:
            return 0.0
        w /= nrm
        new_lam = float(w @ (mat @ w))
        if abs(new_lam - lam) < tol:
            return new_lam
        lam, v = new_lam, w
    return lam


def perron_power_iteration(p: int) -> tuple[float, float]:
    """Dominant eigenvalues of multiplication by the squares-sum and the
    per-handle element, computed by plain power iteration."""
    mats = _structure_matrices(p)

    def mult_matrix(elem: FusionElement) -> np.ndarray:
        return sum(int(m) * mats[j] for j, m in enumerate(elem.mults) if m)

    big = _dominant_eigenvalue(mult_matrix(odd_squares_element(p)).astype(float))
    small = _dominant_eigenvalue(mult_matrix(genus_element(p)).astype(float))
    return big, small


# ---------------------------------------------------------------------------
# quantum dimension identity


def quantum_dim_identity(p: int, n: int) -> dict:
    """Exact check that the n-th power of [2] at the p-th root of unity is
    the d-dimension-weighted sum of the quantum integers [k]."""
    two = quantum_integer(2)
    lhs = cyclotomic_eval(two**n if n else LaurentInt.one(), p)
    rhs = CyclotomicElem.zero(p)
    used = {}
    for k in range(1, p):
        if (n + 1 - k) % 2:
            continue
        d = d_dim(p, n, k)
        used[k] = d
        rhs = rhs + zeta_quantum(p, k) * d
    return {"p": p, "n": n, "dims": used, "ok": lhs == rhs}
