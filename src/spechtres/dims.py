"""Dimension combinatorics: signed Catalan numbers, simple-quotient
dimension sums, Fibonacci identities, the fusion ring on p-1 labels with
its genus multiplicity formulas, recursively defined integer polynomials
relating the two growth rates, and the Perron norms of the multiplication
matrices.

Everything except the float Perron norms is exact integer arithmetic.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .rings import CyclotomicElem, LaurentInt, cyclotomic_eval, power, quantum_integer, zeta_quantum

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
    "squares_doubling_check",
    "closed_form_genus_dims",
    "growth_polynomial",
    "growth_identity",
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


class IntPolynomial(LaurentInt):
    """Integer polynomial in f: a LaurentInt without negative exponents."""

    __slots__ = ()

    def __init__(self, coeffs=None):
        super().__init__(coeffs)
        if any(e < 0 for e in self.coeffs):
            raise ValueError("a polynomial has no negative exponents")

    @classmethod
    def of(cls, *coeffs) -> "IntPolynomial":
        """The polynomial whose coefficient of degree i is coeffs[i]."""
        return cls(dict(enumerate(coeffs)))

    @property
    def degree(self) -> int:
        return max(self.coeffs, default=-1)

    def dense(self) -> tuple[int, ...]:
        """The coefficients of degrees 0 .. degree."""
        return tuple(self.coeffs.get(i, 0) for i in range(self.degree + 1))

    def __call__(self, x):
        result = 0
        for c in reversed(self.dense()):
            result = result * x + c
        return result

    def __repr__(self):
        if not self.coeffs:
            return "IntPolynomial(0)"
        bits = []
        for i, c in reversed(self.terms()):
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
# The sl2 fusion ring at level p - 2 (Verlinde, Nucl. Phys. B 300, 1988):
# label i * label j is the sum of the labels k from |i - j| + 1 to
# min(i + j - 1, 2p - 1 - i - j) in steps of 2, the truncated Clebsch-Gordan
# rule, which meets the relations that define the ring: label 1 is the unit,
# label(p-1) * label k = label(p-k) and label 2 * label k = label(k-1) +
# label(k+1) for 1 < k < p - 1.  Multiplicities grow exponentially with the
# genus, so products run in Python integers.


class FusionElement:
    """Non-negative integer combination of the p-1 labels of the fusion
    ring; mults[k-1] is the multiplicity of label k."""

    __slots__ = ("p", "mults")

    def __init__(self, p: int, mults):
        mults = tuple(map(int, mults))
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
        return power(self, g, fusion_unit(self.p))

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
    """Product by the truncated Clebsch-Gordan rule.  Each pair of nonzero
    labels adds x * y on one interval of labels of one parity, marked in a
    difference array with step 2 and summed once at the end."""
    if a.p != b.p:
        raise ValueError("mixed fusion rings")
    p = a.p
    diff = [0] * (p + 2)  # indexed by label; interval lo..hi adds at lo, removes at hi + 2
    b_terms = [(j, y) for j, y in enumerate(b.mults, start=1) if y]
    for i, x in enumerate(a.mults, start=1):
        if x:
            for j, y in b_terms:
                w = x * y
                diff[abs(i - j) + 1] += w
                diff[min(i + j - 1, 2 * p - 1 - i - j) + 2] -= w
    out = [0] * (p - 1)
    out[0::2] = accumulate(diff[1:p:2])  # odd labels
    out[1::2] = accumulate(diff[2:p:2])  # even labels
    return FusionElement(p, out)


def genus_element(p: int) -> FusionElement:
    """The per-handle element: twice the unit plus the second label."""
    return fusion_unit(p) * 2 + fusion_label(p, 2)


def _label_squares(p: int, labels: range) -> FusionElement:
    """Sum of the squares of the given labels."""
    total = FusionElement(p, (0,) * (p - 1))
    for k in labels:
        lab = fusion_label(p, k)
        total = total + lab * lab
    return total


def odd_squares_element(p: int) -> FusionElement:
    """Sum of the squares of the odd labels."""
    return _label_squares(p, range(1, p, 2))


def verlinde_dim(p: int, k: int, g: int) -> int:
    """Multiplicity of label k in the g-th power of the per-handle element."""
    return (genus_element(p) ** g).mult(k)


def verlinde_profile(p: int, g: int) -> tuple[int, ...]:
    return (genus_element(p) ** g).mults


def squares_doubling_check(p: int, g: int) -> dict:
    """The doubled element is the sum of all label squares, and its genus-g
    unit multiplicity is 2^g times the undoubled one."""
    f = odd_squares_element(p)
    star = _label_squares(p, range(1, p))
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
def _shifted_chebyshev(j: int) -> IntPolynomial:
    # Q_j(f) = P_j(f - 2) for P_{j+1} + P_{j-1} = x P_j with P_0 = 1, P_1 = x
    shift = IntPolynomial.of(-2, 1)
    if j < 2:
        return shift**j
    return shift * _shifted_chebyshev(j - 1) - _shifted_chebyshev(j - 2)


def growth_polynomial(p: int) -> IntPolynomial:
    """Integer polynomial of degree (p-3)/2 expressing the squares-sum
    growth rate through the per-handle growth rate."""
    if p < 3 or p % 2 == 0:
        raise ValueError("p must be odd and at least 3")
    total = IntPolynomial()
    for j in range(0, (p - 3) // 2 + 1):
        n_j = (p - 1 - j) // 2 if j % 2 == 0 else (j + 1) // 2
        total = total + n_j * _shifted_chebyshev(j)
    return total


def growth_identity(p: int) -> bool:
    """Exact check of R_p(|f|) = |F|, where R_p is `growth_polynomial(p)`.

    With z a primitive p-th root of unity, |f| = 2 - z^((p+1)/2) - z^((p-1)/2)
    and |F| = p / (2 - z - z^(p-1)), so the identity is
    R_p(|f|) (2 - z - z^(p-1)) = p in Z[z]."""
    f = CyclotomicElem.from_powers(p, {0: 2, (p + 1) // 2: -1, (p - 1) // 2: -1})
    value = CyclotomicElem.zero(p)
    for c in reversed(growth_polynomial(p).dense()):
        value = f * value + CyclotomicElem.from_powers(p, {0: c})  # f first: its three terms drive the product loop
    return CyclotomicElem.from_powers(p, {0: 2, 1: -1, p - 1: -1}) * value == CyclotomicElem.from_powers(p, {0: p})


def perron_norms(p: int) -> tuple[float, float]:
    """Closed-form dominant growth rates of the squares-sum and per-handle
    multiplication matrices: p / (4 sin^2(pi/p)) and 4 cos^2(pi/(2p))."""
    big = p / (4 * math.sin(math.pi / p) ** 2)
    small = 4 * math.cos(math.pi / (2 * p)) ** 2
    return big, small


_POWER_TOL, _POWER_STEPS = 1e-13, 100000


def _dominant_eigenvalue(mat: np.ndarray) -> float:
    v = np.ones(mat.shape[0], dtype=float)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(_POWER_STEPS):
        w = mat @ v
        nrm = np.linalg.norm(w)
        if nrm == 0:
            return 0.0
        w /= nrm
        new_lam = float(w @ (mat @ w))
        if abs(new_lam - lam) < _POWER_TOL:
            return new_lam
        lam, v = new_lam, w
    return lam


def perron_power_iteration(p: int) -> tuple[float, float]:
    """Dominant eigenvalues of multiplication by the squares-sum and the
    per-handle element, computed by plain power iteration."""

    def mult_matrix(elem: FusionElement) -> np.ndarray:
        # row k - 1 is elem * label k; the structure constants are symmetric
        # in all three labels, so this is also the matrix's column k - 1
        return np.array([(elem * fusion_label(p, k)).mults for k in range(1, p)], dtype=float)

    big = _dominant_eigenvalue(mult_matrix(odd_squares_element(p)))
    small = _dominant_eigenvalue(mult_matrix(genus_element(p)))
    return big, small


# ---------------------------------------------------------------------------
# quantum dimension identity


def quantum_dim_identity(p: int, n: int) -> dict:
    """Exact check that the n-th power of [2] at the p-th root of unity is
    the d-dimension-weighted sum of the quantum integers [k]."""
    two = quantum_integer(2)
    lhs = cyclotomic_eval(two**n, p)
    rhs = CyclotomicElem.zero(p)
    used = {}
    for k in range(1, p):
        if (n + 1 - k) % 2:
            continue
        d = d_dim(p, n, k)
        used[k] = d
        rhs = rhs + zeta_quantum(p, k) * d
    return {"p": p, "n": n, "dims": used, "ok": lhs == rhs}
