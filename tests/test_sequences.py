"""Auxiliary sequences: binomial arrays, polylog sums, T sums, 2-adic zeros."""

import itertools
import math
from fractions import Fraction

import pytest

from stirval import (
    ConjectureReport,
    a_lm,
    a_lm_val_check,
    b_lm,
    clarke_battery,
    clarke_conjecture_check,
    clarke_val_check,
    cohen_at_powers,
    cohen_check,
    cohen_partial_sums,
    cohen_sum,
    ksf_terms,
    nu_int,
    nu_rat,
    t2_zeros,
    t_sum,
    t_terms,
    val2_stirling,
)
from stirval import sequences
from stirval.stirling import exp_sums


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


class TestCohenAtPowers:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_exact_partial_sums(self, k):
        # nu_2(L_k(2^m)) for m = 0..14, read off the exact partial sums
        exact = [
            nu_rat(2, total)
            for n, total in itertools.islice(cohen_partial_sums(k), 1 << 14)
            if n & (n - 1) == 0
        ]
        for m_max in range(15):
            ratios = list(cohen_at_powers(k, m_max))
            assert [m for m, _ in ratios] == list(range(m_max + 1))
            assert [nu_rat(2, r) for _, r in ratios] == exact[: m_max + 1], (k, m_max)
            # the denominator is odd apart from the scale 2^(k m_max)
            assert all(nu_int(2, r.denominator) == k * m_max for _, r in ratios)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_tiny_precision_gives_no_prefixes(self, k):
        # mod 2^9, just above 2^M = 8, some prefix residue vanishes, so the pass must be redone
        assert sequences._cohen_prefixes(k, 3, 9) is None

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_zero_prefix_doubles_the_precision(self, k, monkeypatch):
        default = [nu_rat(2, r) for _, r in cohen_at_powers(k, 10)]
        passes = []
        prefixes = sequences._cohen_prefixes

        def vanishing_once(k, M, P):
            passes.append(P)
            return None if len(passes) == 1 else prefixes(k, M, P)

        monkeypatch.setattr(sequences, "_cohen_prefixes", vanishing_once)
        doubled = list(cohen_at_powers(k, 10))
        start = (1 << 10) + 8 * 10 + 64
        assert passes == [start, 2 * start]
        assert [nu_rat(2, r) for _, r in doubled] == default

    def test_valuations_in_the_stated_range(self):
        # weight 1 is 2 above the stated 2^m + 2m - 4; weight 2 is as stated
        weight1 = [nu_rat(2, r) for m, r in cohen_at_powers(1, 16) if m >= 4]
        weight2 = [nu_rat(2, r) for m, r in cohen_at_powers(2, 16) if m >= 4]
        assert weight1 == [(1 << m) + 2 * m - 2 for m in range(4, 17)]
        assert weight2 == [(1 << m) + m - 1 for m in range(4, 17)]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            cohen_at_powers(0, 5)
        with pytest.raises(ValueError):
            cohen_at_powers(1, -1)


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
        # the stepped residues the identity scan reads, against the exact sum
        series = list(itertools.islice(exp_sums(t_terms(p, k), 3, 64), 60))
        for n in (3, 4, 17, 40, 62):
            direct = sum(
                (-1) ** (k - j) * math.comb(k, j) * j**n for j in range(1, k + 1) if j % p
            )
            assert t_sum(p, n, k) == direct
            assert series[n - 3] == direct % (1 << 64)

    def test_below_order_value(self):
        # T_2(4,5) is nonzero even though 5! * S(4,5) = 0, which is why
        # the identity scan starts at n = k
        assert t_sum(2, 4, 5) == 1440

    def test_identity_scan(self):
        report = clarke_conjecture_check(200, k_max=8)
        assert report.status == "CONSISTENT"
        assert report.checked == sum(200 - k + 1 for k in range(1, 9))

    def test_zero_residue_falls_back_to_the_exact_sum(self, monkeypatch):
        # a T_2 residue that vanishes mod 2**M says nothing about T_2(n,k) itself
        monkeypatch.setattr(sequences, "exp_sums", lambda terms, start, M: itertools.repeat(0))
        exact = []
        true_t_sum = sequences.t_sum
        monkeypatch.setattr(
            sequences, "t_sum", lambda p, n, k: exact.append((n, k)) or true_t_sum(p, n, k)
        )
        report = clarke_conjecture_check(60, k_max=6)
        assert report.status == "CONSISTENT"
        assert exact == [(n, k) for k in range(1, 7) for n in range(k, 61)]

    def test_rejects_bad_arguments(self):
        for n, k in ((0, 5), (5, 0)):
            with pytest.raises(ValueError):
                t_sum(2, n, k)


class TestOddBaseForm:
    def test_odd_base_terms(self):
        # T_2(x, k) is the odd-base part of k! * S(x,k); for k = 5 it is 5 + 10*3^x + 5^x
        assert t_terms(2, 5) == ((5, 1), (10, 3), (1, 5))
        for k in (6, 7, 33):
            assert t_terms(2, k) == tuple(t for t in ksf_terms(k) if t[1] % 2)

    def test_eval_mod(self):
        terms = t_terms(2, 5)
        assert next(exp_sums(terms, 0, 4)) == 0  # 16 == 0 mod 16
        assert next(exp_sums(terms, 2, 4)) == 8
        assert next(exp_sums(terms, 3, 4)) == 0  # 400 == 0 mod 16


def _t2(k, x, M):
    """T_2(x, k) mod 2**M by the direct integer sum, not the kernel under test."""
    return sum(c * b**x for c, b in t_terms(2, k)) % (1 << M)


def _brute_force_zeros(k, M):
    return [x for x in range(1 << (M - 2)) if _t2(k, x, M) == 0]


class TestClarkeZero:
    def test_branch_seeds(self):
        assert t2_zeros(5, 4) == [0, 3]

    def test_lifted_residues(self):
        odd, even = t2_zeros(5, 24)
        assert [odd, even] == [1657119, 3084444]
        assert even % 128 == 28  # forced by nu_2(S(28,5)) = 6

    def test_substitution(self):
        for u in t2_zeros(5, 20):
            assert _t2(5, u, 20) == 0

    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_brute_force(self, k):
        for M in range(4, 13):
            assert t2_zeros(k, M) == _brute_force_zeros(k, M), M

    def test_truncation_stability(self):
        # every root at M reduces to a root at each smaller M
        for k in (5, 6, 7, 8):
            for M in (8, 16, 24):
                roots = t2_zeros(k, M)
                for smaller in range(4, M):
                    below = set(t2_zeros(k, smaller))
                    assert {u % (1 << (smaller - 2)) for u in roots} <= below, (k, M, smaller)

    def test_deeper_ramification_is_surfaced(self):
        # the order-6 and order-7 forms carry extra factors of two, so both
        # residue extensions survive on some branches: every root is kept
        assert len(t2_zeros(6, 24)) == 4
        assert len(t2_zeros(7, 24)) == 10

    def test_no_root_surfaced(self):
        for k in range(1, 5):
            assert t2_zeros(k, 8) == t2_zeros(k, 24) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            t2_zeros(0, 8)
        with pytest.raises(ValueError):
            t2_zeros(5, 3)


class TestClarkeValCheck:
    def test_distance_formula_to_300(self):
        report = clarke_val_check(300)
        assert report.status == "CONSISTENT"
        assert not report.inconclusive
        assert report.details["zeros"] == {"even": 4252, "odd": 2335, "modulus_bits": 13}

    @pytest.mark.parametrize("n_max", [156, 2335, 4252])
    def test_lift_passes_n_max(self, n_max, monkeypatch):
        # a zero's residue mod 2^bit_length(n_max) is n_max itself, so the
        # first modulus past n_max cannot tell n_max from the zero
        bits = n_max.bit_length()
        assert n_max in t2_zeros(5, bits + 2)
        recorded = []
        true_record = ConjectureReport.record
        monkeypatch.setattr(
            ConjectureReport,
            "record",
            lambda self, ok, payload=None: recorded.append(payload)
            or true_record(self, ok, payload),
        )
        report = clarke_val_check(n_max)
        assert report.status == "CONSISTENT"
        assert report.inconclusive == []
        assert [p["n"] for p in recorded] == list(range(5, n_max + 1))
        zeros = report.details["zeros"]
        assert min(zeros["even"], zeros["odd"]) > n_max
        assert zeros["modulus_bits"] > bits
        assert {zeros["even"] % (1 << bits), zeros["odd"] % (1 << bits)} == set(
            t2_zeros(5, bits + 2)
        )
        last = recorded[-1]
        assert last["computed"] == last["predicted"] == val2_stirling(n_max, 5)

    def test_battery(self, monkeypatch):
        import stirval.sequences as sequences_module

        lifted = []
        monkeypatch.setattr(
            sequences_module, "t2_zeros", lambda k, M: lifted.append((k, M)) or t2_zeros(k, M)
        )
        report = clarke_battery(scan_n_max=100, k_max=5, n_max=300)
        assert report.status == "CONSISTENT"
        names = [s["name"] for s in report.details["subchecks"]]
        assert names == ["t-sum identity", "distance formula"]
        # the even zero is 156 mod 2^9 .. 2^12, so 300 needs the lift to 2^13;
        # the mod-4 checks read the zeros the distance formula lifted
        assert lifted == [(5, M) for M in range(11, 16)]
        assert report.details["zeros"] == {"even": 4252, "odd": 2335}
