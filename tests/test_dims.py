import pytest
from hypothesis import given, settings, strategies as st

from spechtres.dims import (
    FusionElement,
    IntPolynomial,
    binom,
    catalan,
    closed_form_genus_dims,
    d_dim,
    fib,
    fib_catalan_identities,
    fusion_label,
    fusion_unit,
    genus_element,
    growth_polynomial,
    odd_squares_dim,
    perron_norms,
    perron_power_iteration,
    quantum_dim_identity,
    squares_doubling_check,
    verlinde_dim,
    verlinde_profile,
)


def test_catalan_examples():
    assert catalan(4, 0) == 1
    assert catalan(4, 2) == 2
    assert catalan(6, 6) == -5
    for n in range(0, 15):
        for j in range(-2, n + 4):
            assert catalan(n, j) == -catalan(n, n + 1 - j)
            assert catalan(n + 1, j) == catalan(n, j) + catalan(n, j - 1)


def test_d_dim_examples_and_boundaries():
    assert d_dim(3, 4, 1) == 1
    assert d_dim(5, 3, 2) == 2
    for p in (3, 5, 7):
        for n in range(1, 14, 2):
            assert d_dim(p, n, 0) == 0
        for n in range(0, 14, 2):
            if (n + 1 - p) % 2 == 0:
                assert d_dim(p, n, p) == 0
    with pytest.raises(ValueError):
        d_dim(3, 4, 2)


def test_d_dim_positive_in_range():
    for p in (3, 5, 7):
        for n in range(0, 15):
            for k in range(1, min(p, n + 2)):
                if (n + 1 - k) % 2 == 0:
                    assert d_dim(p, n, k) > 0


def test_d_dim_recursion():
    # one-step recursion with vanishing boundary labels
    for p in (3, 5, 7, 11):
        for n in range(0, 20):
            for k in range(1, p):
                if (n + 2 - k) % 2:
                    continue
                lower = d_dim(p, n, k - 1) if k - 1 >= 0 else 0
                upper = d_dim(p, n, k + 1) if k + 1 <= p else 0
                assert d_dim(p, n + 1, k) == lower + upper


def test_fibonacci_extension():
    assert [fib(i) for i in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]
    assert fib(-1) == 1 and fib(-2) == -1


def test_fib_catalan_identities():
    rep = fib_catalan_identities(3)
    assert rep["even_first"]["value"] == 8
    rep1 = fib_catalan_identities(1)
    assert rep1["odd_first"]["value"] == 2
    for r in range(1, 13):
        assert fib_catalan_identities(r)["ok"]


def test_fib_catalan_match_pentagonal_sums():
    # the sums are the p=5 dimension formulas of the four diagram families
    for r in range(1, 13):
        assert fib(2 * r) == d_dim(5, 2 * r, 3)
        assert fib(2 * r) == d_dim(5, 2 * r + 1, 4)
        assert fib(2 * r + 1) == d_dim(5, 2 * r + 1, 2)
        assert fib(2 * r + 1) == d_dim(5, 2 * r + 2, 1)


def test_p5_fibonacci_family():
    # both parity families for n up to 20
    for n in range(1, 21):
        if n % 2 == 0:
            r = n // 2
            assert d_dim(5, n, 3) == fib(n)  # rows (r+1, r-1)
            assert d_dim(5, n, 1) == fib(n - 1)  # rows (r, r)
        else:
            r = (n - 1) // 2
            assert d_dim(5, n, 2) == fib(n)  # rows (r+1, r)
            assert d_dim(5, n, 4) == fib(n - 1)  # rows (r+2, r-1)


def test_fusion_relations():
    for p in (3, 5, 7, 11):
        one = fusion_unit(p)
        for k in range(1, p):
            lab = fusion_label(p, k)
            assert one * lab == lab
            assert fusion_label(p, p - 1) * lab == fusion_label(p, p - k)
        for k in range(2, p - 1):
            prod = fusion_label(p, 2) * fusion_label(p, k)
            assert prod == fusion_label(p, k - 1) + fusion_label(p, k + 1)
    assert (fusion_label(5, 4) * fusion_label(5, 2)) == fusion_label(5, 3)
    got = fusion_label(5, 2) * fusion_label(5, 2)
    assert got == fusion_label(5, 1) + fusion_label(5, 3)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([3, 5, 7, 11, 13]), st.data())
def test_fusion_associative_commutative(p, data):
    ks = st.integers(1, p - 1)
    x = fusion_label(p, data.draw(ks)) + fusion_label(p, data.draw(ks))
    y = fusion_label(p, data.draw(ks))
    z = fusion_label(p, data.draw(ks)) + fusion_label(p, data.draw(ks))
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x


def test_verlinde_examples():
    for p in (3, 5, 7):
        for k in range(1, p):
            assert verlinde_dim(p, k, 0) == (1 if k == 1 else 0)
    assert verlinde_dim(5, 1, 2) == 5
    assert verlinde_profile(5, 2) == (5, 4, 1, 0)
    assert verlinde_profile(5, 3) == (14, 14, 6, 1)


def test_verlinde_assembled_from_d_dims():
    for p in (3, 5, 7):
        for g in range(0, 6):
            for k in range(1, p):
                assembled = sum(
                    binom(g, n) * 2 ** (g - n) * d_dim(p, n, k)
                    for n in range(g + 1)
                    if (n + 1 - k) % 2 == 0
                )
                assert assembled == verlinde_dim(p, k, g)


def test_closed_form_dims():
    assert closed_form_genus_dims(0) == (1, 0, 0, 0)
    assert closed_form_genus_dims(2) == (5, 4, 1, 0)
    assert closed_form_genus_dims(3) == (14, 14, 6, 1)
    for g in range(0, 9):
        assert closed_form_genus_dims(g) == verlinde_profile(5, g)


def test_squares_sum_relations():
    for p in (3, 5, 7):
        for g in range(0, 7):
            assert squares_doubling_check(p, g)["ok"]
    # at p = 5 the squares sum dimension splits into the two outer labels
    for g in range(0, 7):
        prof = verlinde_profile(5, g)
        assert odd_squares_dim(5, g) == prof[0] + prof[3]


def test_growth_polynomials_printed_list():
    assert growth_polynomial(5) == IntPolynomial.of(0, 1)
    assert growth_polynomial(7) == IntPolynomial.of(7, -7, 2)
    assert growth_polynomial(9) == IntPolynomial.of(3, 9, -9, 2)
    assert growth_polynomial(11) == IntPolynomial.of(22, -55, 55, -22, 3)
    assert growth_polynomial(13) == IntPolynomial.of(13, 26, -91, 78, -26, 3)
    for p in (5, 7, 9, 11, 13):
        assert growth_polynomial(p).degree == (p - 3) // 2


def test_perron_norms():
    big3, small3 = perron_norms(3)
    assert abs(small3 - 3) < 1e-12 and abs(big3 - 1) < 1e-12
    big5, small5 = perron_norms(5)
    assert abs(big5 - small5) < 1e-12
    assert abs(big5 - 3.6180339887498949) < 1e-9
    for p in (3, 5, 7, 11, 13):
        cb, cs = perron_norms(p)
        ib, isml = perron_power_iteration(p)
        assert abs(cb - ib) < 1e-9
        assert abs(cs - isml) < 1e-9
    for p in (5, 7, 11, 13):
        cb, cs = perron_norms(p)
        assert abs(growth_polynomial(p)(cs) - cb) < 1e-9


def test_quantum_dim_identity():
    rep = quantum_dim_identity(5, 3)
    assert rep["ok"] and rep["dims"] == {2: 2, 4: 1}
    assert quantum_dim_identity(3, 0)["ok"]
    for p in (3, 5, 7, 11):
        for n in range(0, 13):
            assert quantum_dim_identity(p, n)["ok"], (p, n)


def test_genus_40_multiplicities_do_not_wrap():
    # past 2**63, where int64 products would wrap to negative multiplicities
    profile = verlinde_profile(5, 40)
    assert profile == closed_form_genus_dims(40)
    assert profile[1] == 4879684474095985757280
    assert all(m > 2**63 for m in profile)


def test_squares_doubling_past_int64():
    check = squares_doubling_check(7, 20)
    assert check["lhs"] == check["rhs"] == 2618994705057627197407232
    assert check["ok"]


def test_fusion_power_by_squaring_matches_repeated_products():
    for p in (3, 5, 7, 13):
        x = genus_element(p)
        step = fusion_unit(p)
        for g in range(10):
            assert x**g == step
            step = step * x
    assert isinstance(genus_element(5) ** 0, FusionElement)
