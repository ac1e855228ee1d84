"""Auxiliary sequences: binomial arrays, polylog sums, T sums, 2-adic zeros."""

import itertools
import math
from fractions import Fraction

import pytest

from stirval import (
    ClarkeForm,
    K5_FORM,
    K6_FORM,
    K7_FORM,
    NoRootError,
    NonUniqueRootError,
    a_lm,
    a_lm_val_check,
    b_lm,
    clarke_battery,
    clarke_conjecture_check,
    clarke_val_check,
    clarke_zero,
    cohen_check,
    cohen_partial_sums,
    cohen_sum,
    ksf_terms,
    nu_int,
    nu_rat,
    t_sum,
    t_sums,
)


class TestBlmAlm:
    def test_b_examples(self):
        assert b_lm(0, 0) == 1
        assert b_lm(1, 1) == 4
        assert b_lm(0, 1) == 6

    def test_a_examples(self):
        assert a_lm(0, 1) == 3
        assert a_lm(1, 2) == 60
        assert a_lm(0, 0) == 1

    def test_rejects_l_above_m(self):
        with pytest.raises(ValueError):
            b_lm(3, 2)

    def test_valuation_formulas(self):
        report = a_lm_val_check(15, 15)
        assert report.status == "CONSISTENT"
        assert report.checked == sum(m + 1 for m in range(16))


class TestCohen:
    def test_sum_examples(self):
        assert cohen_sum(1, 2) == 4
        assert cohen_sum(2, 2) == 3

    def test_telescoping(self):
        for k in (1, 2):
            prev = cohen_sum(k, 1)
            for n in range(2, 201):
                cur = prev + Fraction(1 << n, n**k)
                assert cur - prev == Fraction(1 << n, n**k)
                prev = cur
            assert prev == cohen_sum(k, 200)

    def test_exact_valuations_at_16_and_32(self):
        # pinned exact values, computed independently with two rational
        # arithmetic implementations
        assert nu_rat(2, cohen_sum(1, 16)) == 22
        assert nu_rat(2, cohen_sum(2, 16)) == 19
        assert nu_rat(2, cohen_sum(1, 32)) == 40
        assert nu_rat(2, cohen_sum(2, 32)) == 36

    def test_check_flags_weight_one_formula(self):
        # the stated weight-1 valuation is exactly 2 below the computed
        # value at every power of two; weight 2 matches exactly
        report = cohen_check(4, 8)
        assert report.status == "COUNTEREXAMPLE"
        for payload in report.counterexamples:
            assert payload["k"] == 1
            assert payload["computed"] == payload["expected"] + 2
        entries = report.details["entries"]
        assert all(
            e["computed"] == e["expected"] for e in entries if e["k"] == 2 and "expected" in e
        )

    def test_below_stated_range_reported_not_asserted(self):
        report = cohen_check(3, 5)
        marked = [e for e in report.details["entries"] if e.get("note")]
        assert {e["m"] for e in marked} == {3}

    @pytest.mark.parametrize("k", range(1, 7))
    def test_unreduced_route_matches_fraction_sums(self, k):
        # oracle: term-by-term Fraction accumulation, reduced at every step
        total, lcm = Fraction(0), 1
        for n, ratio in itertools.islice(cohen_partial_sums(k), 400):
            total += Fraction(1 << n, n**k)
            lcm = math.lcm(lcm, n)
            assert ratio.denominator == lcm**k, (k, n)
            assert nu_rat(2, ratio) == nu_rat(2, total), (k, n)
            exact = cohen_sum(k, n)
            assert exact == total, (k, n)
            assert type(exact) is Fraction
            assert math.gcd(exact.numerator, exact.denominator) == 1

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            cohen_check(5, 4)
        with pytest.raises(ValueError):
            cohen_check(1, 3)  # no m in the stated range m >= 4: nothing asserted
        with pytest.raises(ValueError):
            cohen_sum(0, 5)
        with pytest.raises(ValueError):
            cohen_partial_sums(0)  # on the call, before any value is drawn


class TestTSum:
    def test_examples(self):
        assert t_sum(2, 8, 5) == 456240
        assert nu_int(2, 456240) == 4
        assert t_sum(2, 5, 5) == 5560
        assert nu_int(2, 5560) == 3
        for n in (1, 7, 30):
            assert t_sum(2, n, 1) == 1

    @pytest.mark.parametrize("p,k", [(2, 5), (2, 8), (3, 7)])
    def test_incremental_matches_single(self, p, k):
        series = list(itertools.islice(t_sums(p, 3, k), 60))
        for n in (3, 4, 17, 40, 62):
            direct = sum(
                (-1) ** (k - j) * math.comb(k, j) * j**n for j in range(1, k + 1) if j % p
            )
            assert series[n - 3] == t_sum(p, n, k) == direct

    def test_below_order_value(self):
        # T_2(4,5) is nonzero even though 5! * S(4,5) = 0, which is why
        # the identity scan starts at n = k
        assert t_sum(2, 4, 5) == 1440

    def test_identity_scan(self):
        report = clarke_conjecture_check(200, k_max=8)
        assert report.status == "CONSISTENT"
        assert report.checked == sum(200 - k + 1 for k in range(1, 9))


class TestClarkeForm:
    def test_parse_known_forms(self):
        for k, text, form in (
            (5, "5 + 10*3^x + 5^x", K5_FORM),
            (6, "-6 - 20*3^x - 6*5^x", K6_FORM),
            (7, "7 + 35*3^x + 21*5^x + 7^x", K7_FORM),
        ):
            assert ClarkeForm.parse(text) == form
            # the form is the odd-base part of k! * S(x,k)
            assert ClarkeForm.parse(text).terms == tuple(t for t in ksf_terms(k) if t[1] % 2)

    def test_parse_order_free_and_unicode_minus(self):
        assert ClarkeForm.parse("10*3^x + 5 + 5^x") == ClarkeForm(
            ((10, 3), (5, 1), (1, 5))
        )
        assert ClarkeForm.parse("−6 − 20*3^x − 6*5^x") == K6_FORM

    def test_round_trip(self):
        for form in (K5_FORM, K6_FORM, K7_FORM):
            assert ClarkeForm.parse(str(form)) == form

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            ClarkeForm.parse("3 + 2^x")  # even base
        with pytest.raises(ValueError):
            ClarkeForm.parse("")
        with pytest.raises(ValueError):
            ClarkeForm.parse("5 + spam")
        with pytest.raises(ValueError):
            ClarkeForm(())

    def test_eval_mod(self):
        assert K5_FORM.eval_mod(0, 4) == 0  # 16 == 0 mod 16
        assert K5_FORM.eval_mod(2, 4) == 8
        assert K5_FORM.eval_mod(3, 4) == 0  # 400 == 0 mod 16


class TestClarkeZero:
    def test_branch_seeds(self):
        u0 = clarke_zero(K5_FORM, "even", 4)
        u1 = clarke_zero(K5_FORM, "odd", 4)
        assert u0.residue % 4 == 0
        assert u1.residue % 4 == 3

    def test_lifted_residues(self):
        u0 = clarke_zero(K5_FORM, "even", 24)
        u1 = clarke_zero(K5_FORM, "odd", 24)
        assert (u0.residue, u1.residue) == (3084444, 1657119)
        assert u0.modulus == 1 << 22
        assert u0.residue % 128 == 28  # forced by nu_2(S(28,5)) = 6

    def test_substitution(self):
        for parity in ("even", "odd"):
            zero = clarke_zero(K5_FORM, parity, 20)
            assert K5_FORM.eval_mod(zero.residue, 20) == 0

    def test_truncation_stability(self):
        u0 = clarke_zero(K5_FORM, "even", 24)
        for M in (4, 8, 12, 16, 20):
            assert clarke_zero(K5_FORM, "even", M).residue == u0.residue % (
                1 << (M - 2)
            )

    def test_deeper_ramification_is_surfaced(self):
        # the order-6 and order-7 forms carry extra factors of two, so
        # both residue extensions survive every modulus: not unique
        for form in (K6_FORM, K7_FORM):
            with pytest.raises(NonUniqueRootError):
                clarke_zero(form, "even", 24)

    def test_no_root_surfaced(self):
        with pytest.raises(NoRootError):
            clarke_zero(ClarkeForm(((1, 1),)), "even", 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            clarke_zero(K5_FORM, "both", 8)
        with pytest.raises(ValueError):
            clarke_zero(K5_FORM, "even", 3)


class TestClarkeValCheck:
    def test_distance_formula_to_300(self):
        report = clarke_val_check(300, M=24)
        assert report.status == "CONSISTENT"
        assert not report.inconclusive
        assert report.details["zeros"]["even"] == 3084444

    def test_battery(self, monkeypatch):
        import stirval.sequences as sequences_module

        lifted = []
        monkeypatch.setattr(
            sequences_module,
            "clarke_zero",
            lambda form, parity, M: lifted.append(parity) or clarke_zero(form, parity, M),
        )
        report = clarke_battery(scan_n_max=100, k_max=5, n_max=300, precision=24)
        assert report.status == "CONSISTENT"
        names = [s["name"] for s in report.details["subchecks"]]
        assert names == ["t-sum identity", "distance formula"]
        # the mod-4 checks read the zeros the distance formula lifted
        assert sorted(lifted) == ["even", "odd"]
        assert report.details["zeros"] == {"even": 3084444, "odd": 1657119}
