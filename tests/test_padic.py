"""Valuation primitives: examples, closed-form identities, properties."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stirval import (
    INFINITE,
    Ratio,
    digit_sum,
    kummer_binomial_val,
    legendre_factorial_val,
    nu_int,
    nu_rat,
    pochhammer,
    power_lemma_report,
)
from stirval import padic


class TestNuInt:
    def test_examples(self):
        assert nu_int(2, 12) == 2
        assert nu_int(2, 0) is INFINITE
        assert nu_int(3, 45) == 2
        assert nu_int(3, 0) is INFINITE
        assert nu_int(5, 1) == 0

    def test_sign_ignored(self):
        assert nu_int(2, -12) == 2
        assert nu_int(3, -45) == 2

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_exact_prime_powers(self, p):
        # e runs across the boundaries 2^i - 1, 2^i of the squaring steps
        units = [u for u in (1, 2, 4, 11, 13, 2**61 - 1) if u % p]
        for e in range(71):
            for u in units:
                assert nu_int(p, p**e * u) == e, (e, u)
                assert nu_int(p, -(p**e) * u) == e, (e, u)

    @pytest.mark.parametrize("p", [1, 4, 6, 9, 100])
    def test_rejects_non_prime(self, p):
        with pytest.raises(ValueError):
            nu_int(p, 8)

    @settings(max_examples=300)
    @given(st.integers(min_value=1, max_value=10**5), st.sampled_from([2, 3, 5]))
    def test_decomposition(self, n, p):
        v = nu_int(p, n)
        unit, rem = divmod(n, p**v)
        assert rem == 0
        assert unit % p != 0

    def test_ultrametric_exhaustive_to_2000(self):
        # nu2(a +/- b) >= min(nu2(a), nu2(b)), equality whenever the two differ
        np = pytest.importorskip("numpy")
        table = np.array([nu_int(2, x) for x in range(1, 4001)], dtype=np.int64)
        big = np.int64(10**9)  # stands in for the infinite valuation of 0
        xs = np.arange(1, 2001, dtype=np.int64)
        vb = table[xs - 1][None, :]
        for start in range(1, 2001, 250):
            a = np.arange(start, min(start + 250, 2001), dtype=np.int64)
            va = table[a - 1][:, None]
            lo = np.minimum(va, vb)
            differs = va != vb
            vsum = table[(a[:, None] + xs[None, :]) - 1]
            assert (vsum >= lo).all()
            assert (vsum[differs] == lo[differs]).all()
            diff = np.abs(a[:, None] - xs[None, :])
            vdiff = np.where(diff > 0, table[np.maximum(diff, 1) - 1], big)
            assert (vdiff >= lo).all()
            assert (vdiff[differs] == lo[differs]).all()


class TestNuRat:
    def test_examples(self):
        assert nu_rat(2, Fraction(3, 8)) == -3
        assert nu_rat(2, Fraction(4, 6)) == 1  # reduces to 2/3
        assert nu_rat(5, Fraction(1)) == 0
        assert nu_rat(2, Fraction(0)) is INFINITE

    def test_unreduced_pair(self):
        assert nu_rat(2, Ratio(4, 6)) == nu_rat(2, Fraction(4, 6)) == 1
        assert nu_rat(2, Ratio(12, 8)) == nu_rat(2, Fraction(12, 8)) == -1
        assert nu_rat(3, Ratio(12, 8)) == nu_rat(3, Fraction(12, 8)) == 1
        assert nu_rat(2, Ratio(0, 6)) is INFINITE
        assert nu_rat(2, 0) is INFINITE
        assert nu_rat(2, 24) == 3

    @settings(max_examples=200)
    @given(
        st.integers(min_value=-(10**6), max_value=10**6).filter(lambda x: x != 0),
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=1, max_value=10**6),
        st.sampled_from([2, 3, 5, 7]),
    )
    def test_common_factor_cancels(self, a, b, c, p):
        assert nu_rat(p, Ratio(a * c, b * c)) == nu_rat(p, Fraction(a, b))

    @settings(max_examples=200)
    @given(
        st.integers(min_value=-(10**6), max_value=10**6).filter(lambda x: x != 0),
        st.integers(min_value=1, max_value=10**6),
    )
    def test_matches_integer_valuations(self, a, b):
        r = Fraction(a, b)
        assert nu_rat(2, r) == nu_int(2, r.numerator) - nu_int(2, r.denominator)


class TestDigitSum:
    def test_examples(self):
        assert digit_sum(2, 10) == 2
        assert digit_sum(2, 255) == 8
        assert digit_sum(3, 10) == 2
        assert digit_sum(2, 0) == 0

    def test_binary_fast_path_matches_generic(self):
        def generic(p, n):
            s = 0
            while n:
                n, r = divmod(n, p)
                s += r
            return s

        for n in range(0, 3000, 7):
            assert digit_sum(2, n) == generic(2, n)

    def test_error_term_relation(self):
        # s_2(m) = m - nu_2(m!) for every m
        for m in range(0, 10**5 + 1):
            assert digit_sum(2, m) == m - legendre_factorial_val(2, m)


class TestLegendre:
    def test_examples(self):
        assert legendre_factorial_val(2, 10) == 8
        assert nu_int(2, math.factorial(10)) == 8
        for r in range(1, 11):
            assert legendre_factorial_val(2, 1 << r) == (1 << r) - 1
        assert legendre_factorial_val(3, 9) == 4

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_direct_factorial_valuation(self, p):
        fact = 1
        for m in range(1, 3001):
            fact *= m
            assert legendre_factorial_val(p, m) == nu_int(p, fact)

    @pytest.mark.parametrize("p", [2, 3])
    def test_rejects_negative_m(self, p):
        with pytest.raises(ValueError, match="m! needs m >= 0"):
            legendre_factorial_val(p, -1)


class TestKummer:
    def test_examples(self):
        assert kummer_binomial_val(4, 2) == 1
        for m in (1, 7, 32, 100):
            assert kummer_binomial_val(m, 0) == 0
        for r in range(1, 10):
            assert kummer_binomial_val(1 << r, 1) == r

    def test_rejects_k_above_m(self):
        with pytest.raises(ValueError):
            kummer_binomial_val(3, 4)

    def test_full_grid_to_512(self):
        row = [1]
        for m in range(1, 513):
            row = [1] + [row[i - 1] + row[i] for i in range(1, m)] + [1]
            for k, value in enumerate(row):
                assert kummer_binomial_val(m, k) == nu_int(2, value)


class TestPochhammer:
    def test_examples(self):
        assert pochhammer(7, 0) == 1
        for k in range(8):
            assert pochhammer(1, k) == math.factorial(k)
        assert pochhammer(3, 4) == 360

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            pochhammer(0, 3)
        with pytest.raises(ValueError):
            pochhammer(2, -1)


class TestPowerLemmas:
    def test_report_consistent(self):
        report = power_lemma_report(8)
        assert report.status == "CONSISTENT"
        assert report.checked == 24

    def test_residues_give_the_exact_valuations(self, monkeypatch):
        computed = []

        def spy(p, n):
            computed.append(nu_int(p, n))
            return computed[-1]

        monkeypatch.setattr(padic, "nu_int", spy)
        report = power_lemma_report(12)
        exact = []
        for m in range(1, 13):
            a, b = 5 ** (1 << m), 3 ** (1 << m)
            exact += [nu_int(2, a - 1), nu_int(2, b - 1), nu_int(2, a - b)]
        assert computed == exact
        assert exact == [v for m in range(1, 13) for v in (m + 2, m + 2, m + 3)]
        assert report.status == "CONSISTENT"

    def test_report_consistent_to_24(self):
        report = power_lemma_report(24)
        assert report.status == "CONSISTENT"
        assert report.checked == 72

    def test_base_cases(self):
        assert nu_int(2, 5**2 - 1) == 3
        assert nu_int(2, 3**2 - 1) == 3
        assert nu_int(2, 5**2 - 3**2) == 4

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            power_lemma_report(0)
