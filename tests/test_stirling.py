"""The three Stirling computation routes and the valuation extraction."""

import itertools
import math
import operator
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stirval import (
    ConjectureReport,
    INFINITE,
    ModStirlingEngine,
    de_wannemacker_gap,
    de_wannemacker_gaps,
    get_engine,
    identity_battery,
    ksf_terms,
    nu_int,
    special_values_check,
    stirling_closed_small,
    stirling_exact,
    t2_zeros,
    t_terms,
    triangle_rows,
    triangle_width,
    val2_closed_small,
    val2_rows,
    val2_stirling,
)
import stirval.stirling as stirling_module
from stirval.stirling import column_e, column_q, exp_sums, recurrence_mod


class TestTriangle:
    def test_examples(self):
        assert stirling_exact(4, 2) == 7
        assert stirling_exact(8, 5) == 1050
        for n in (0, 1, 5, 40):
            assert stirling_exact(n, n) == 1
        assert stirling_exact(3, 7) == 0
        assert stirling_exact(5, 0) == 0

    def test_rejects_negative_arguments(self):
        for n, k in ((-1, 0), (3, -1), (-2, -2)):
            with pytest.raises(ValueError):
                stirling_exact(n, k)

    def test_fresh_table_in_shuffled_order(self, monkeypatch):
        monkeypatch.setattr(stirling_module, "_columns", [[1]])
        rows = [[1]]
        for n in range(1, 301):
            prev = rows[-1] + [0]
            rows.append([0] + [prev[k - 1] + k * prev[k] for k in range(1, n + 1)])
        queries = [(n, k) for n in range(301) for k in range(321)]
        random.Random(0).shuffle(queries)
        for n, k in queries:
            assert stirling_exact(n, k) == (rows[n][k] if k <= n else 0), (n, k)

    def test_past_the_old_cap(self):
        assert stirling_exact(2500, 3) == stirling_closed_small(2500, 3)

    def test_memory_grows_with_n_times_k(self, monkeypatch):
        monkeypatch.setattr(stirling_module, "_columns", [[1]])
        tracemalloc.start()
        try:
            assert stirling_exact(2000, 5) == stirling_closed_small(2000, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # columns 0..5 to n = 2000 trace about 2 MB; rows of full width take about 1.6 GB
        assert peak < 16 << 20, peak

    def test_row_symmetry_anchor(self):
        # S(n,2) counts proper nonempty subset pairs
        for n in range(2, 20):
            assert stirling_exact(n, 2) == 2 ** (n - 1) - 1

    def test_pochhammer_identity(self):
        # x^n = sum_k S(n,k) * x(x-1)...(x-k+1), exactly
        def falling(x, k):
            out = 1
            for i in range(k):
                out *= x - i
            return out

        for x in range(1, 11):
            for n in range(1, 13):
                total = sum(
                    stirling_exact(n, k) * falling(x, k) for k in range(n + 1)
                )
                assert total == x**n


class TestClosedForms:
    def test_examples(self):
        assert stirling_closed_small(5, 3) == 25
        assert stirling_closed_small(6, 4) == 65
        assert stirling_closed_small(6, 5) == 15

    def test_rejects_bad_k_or_n(self):
        with pytest.raises(ValueError):
            stirling_closed_small(10, 6)
        with pytest.raises(ValueError):
            stirling_closed_small(4, 5)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_agrees_with_triangle_to_500(self, k):
        for n in range(k, 501):
            assert stirling_closed_small(n, k) == stirling_exact(n, k)


class TestKsfMod:
    def test_examples(self):
        assert get_engine(5).ksf_mod(8, 8) == 48  # 120 * 1050 == 48 mod 256
        for n in (1, 9, 250):
            assert get_engine(1).ksf_mod(n, 32) == 1
        for M in (16, 64):
            assert get_engine(5).ksf_mod(4, M) == 0  # S(4,5) = 0

    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            get_engine(3).ksf_mod(0, 16)

    def test_terms_are_factorial_times_triangle(self):
        # exact sum of ksf_terms against the recurrence, including n < k where both are 0
        for k in range(1, 13):
            terms = ksf_terms(k)
            assert get_engine(k)._terms == terms
            for n in range(1, 41):
                assert sum(c * b**n for c, b in terms) == math.factorial(k) * stirling_exact(n, k)

    @pytest.mark.parametrize("M", [16, 64])
    def test_matches_factorial_times_triangle_to_200(self, M):
        mod = 1 << M
        for k in range(1, 201):
            fact = math.factorial(k)
            for n in range(k, 201):
                assert get_engine(k).ksf_mod(n, M) == fact * stirling_exact(n, k) % mod


class TestExpSum:
    @pytest.mark.parametrize("k", [None, 5, 33], ids=["k5_form", "stirling5", "stirling33"])
    def test_stepped_and_pointwise_agree_with_direct_sum(self, k):
        if k is None:
            terms = t_terms(2, 5)
        else:
            # k! * S(n,k) = sum_i (-1)^i C(k,i) (k-i)^n, the engine's sum
            terms = tuple(((-1) ** i * math.comb(k, i), k - i) for i in range(k))
        start, count = 3, 90
        for M in (8, 64):
            stepped = list(itertools.islice(exp_sums(terms, start, M), count))
            for n, r in zip(range(start, start + count), stepped):
                f = sum(c * b**n for c, b in terms)
                assert r == next(exp_sums(terms, n, M)) == f % (1 << M)
                if k is not None and n >= k:
                    assert f == math.factorial(k) * stirling_exact(n, k)
                    assert r == get_engine(k).ksf_mod(n, M)


class TestVal2Stirling:
    def test_examples(self):
        assert val2_stirling(8, 5) == 1
        assert val2_stirling(28, 5) == 6
        assert val2_stirling(31, 5) == 7
        assert val2_stirling(156, 5) == 11
        for q in range(3, 11):
            assert val2_stirling(1 << q, 7) == 2  # s_2(7) - 1

    def test_infinite_below_order(self):
        assert val2_stirling(4, 5) is INFINITE
        assert val2_stirling(3, 11) is INFINITE

    def test_matches_exact_oracle_to_120(self):
        for n in range(1, 121):
            for k in range(1, n + 1):
                assert val2_stirling(n, k) == nu_int(2, stirling_exact(n, k))

    @pytest.mark.parametrize("k", [3, 5, 17])
    def test_range_scan_matches_pointwise(self, k):
        engine = get_engine(k)
        for n, v in engine.val2_range(1, 400):
            assert v == val2_stirling(n, k)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=300))
    def test_adaptive_precision_is_stable(self, n, k):
        # a nonzero residue pins the valuation; doubling M never changes it
        engine = get_engine(k)
        M = 64
        r = engine.ksf_mod(n, M)
        if r:
            assert nu_int(2, r) == nu_int(2, engine.ksf_mod(n, 2 * M))

    @pytest.mark.parametrize("bits, asked", [(100, [64, 128]), (200, [64, 128, 256])])
    def test_climbs_until_the_residue_is_nonzero(self, monkeypatch, bits, asked):
        # n = u + 2^bits with u the even 2-adic zero of T_2(x, 5) = 5 + 10*3^x + 5^x:
        # Clarke's distance formula gives nu_2(S(n,5)) = nu_2(n - u) - 1 = bits - 1,
        # and 120 * S(n,5) then vanishes mod 2^64 (and mod 2^128 for bits = 200)
        n = next(u for u in t2_zeros(5, bits + 10) if u % 2 == 0) + (1 << bits)
        engine = ModStirlingEngine(5)
        seen = []
        real = engine.ksf_mod
        monkeypatch.setattr(engine, "ksf_mod", lambda i, m: seen.append(m) or real(i, m))
        assert engine.val2(n) == bits - 1
        assert seen == asked
        seen.clear()
        # the scan's residue vanishes at 64 bits, so n goes to val2
        assert list(engine.val2_range(n, n + 1)) == [(n, bits - 1)]
        assert seen == asked

    @pytest.mark.parametrize("k, n, M", [(64, 65, 128), (5, 28, 64)])
    def test_one_ladder_for_single_values_and_scans(self, monkeypatch, k, n, M):
        # nu_2(64!) = 63, so 64 bits leave no headroom: both routes start at 128
        engine = ModStirlingEngine(k)
        want = nu_int(2, stirling_exact(n, k))
        asked = []
        real = engine.ksf_mod
        monkeypatch.setattr(engine, "ksf_mod", lambda i, m: asked.append(m) or real(i, m))
        assert engine.val2(n) == want
        assert asked == [M]
        scanned = []
        monkeypatch.setattr(
            stirling_module, "exp_sums", lambda *a: scanned.append(a[2]) or exp_sums(*a)
        )
        assert dict(engine.val2_range(n, n + 1)) == {n: want}
        assert scanned == [M]
        assert asked == [M]  # the scan decided n without falling back to val2

    def test_ceiling_between_doublings_is_a_rung(self):
        # nu_2(60! * S(161,60)) = 56 + 9 needs more than 64 bits
        assert ModStirlingEngine(60).val2(161) == 9 == nu_int(2, stirling_exact(161, 60))

    def test_engine_rejects_bad_order(self):
        with pytest.raises(ValueError):
            ModStirlingEngine(0)


def _block(k: int) -> int:
    """New terms of a later ``recurrence_mod`` block of column k read past 16K terms.

    K = ceil(k/2) is the order of the halved recurrence.
    """
    K = (k + 1) // 2
    return max(16 * K, 128) - K


def _far(k: int) -> int:
    """The first index from which ``val2_range`` takes an exp_sums head: k + max(k*K/2, 32)."""
    return k + max(k * ((k + 1) // 2) // 2, 32)


def _numerator(q: list[int], head: list[int]) -> list[int]:
    """Q * head mod (2**32, x**len(head)): the numerator whose series N/Q starts with head."""
    return [sum(c * x for c, x in zip(q[i::-1], head)) % (1 << 32) for i in range(len(head))]


class TestVal2Range:
    @pytest.mark.parametrize("k", [1, 2, 5, 64, 68, 100, 129])
    def test_blocks_match_pointwise_and_exact(self, k):
        engine = ModStirlingEngine(k)
        if k == 68:
            # nu_2(68!) = 66 and m_start = 128: the head keeps 62 exact bits, more
            # than the 32 the recurrence runs at
            assert engine.m_start - engine.fact_val == 62
        stop = 2 * k + 3 * _block(k) + 5  # k - 1 INFINITE values, four blocks, the last in part
        got = list(engine.val2_range(1, stop))
        assert [n for n, _ in got] == list(range(1, stop))
        for n, v in got:
            assert v == engine.val2(n), n
            if n <= 500:
                assert v == nu_int(2, stirling_exact(n, k)), n

    @pytest.mark.parametrize("k", [5, 33])
    def test_start_near_two_to_the_seventy(self, k):
        engine = ModStirlingEngine(k)
        start = (1 << 70) + 3
        stop = start + k + 2 * _block(k) + 7
        assert list(engine.val2_range(start, stop)) == [
            (n, engine.val2(n)) for n in range(start, stop)
        ]

    @pytest.mark.parametrize(
        "start, stop, heads, scans",
        [
            (1, 40, [], 0),  # all below k = 64: nothing to compute
            (60, 70, [], 1),
            (64, 100, [], 1),
            (900, 963, [], 1),
            (1087, 1100, [], 1),  # 1023 = k*K/2 - 1 indices past k
            (1088, 1100, [1088], 0),  # far, and at most K = 32 values: the head alone
            (1088, 1200, [1088], 1),
            (100, 101, [100], 0),  # one index: one exp_sums value, as val2 takes
        ],
        ids=["below-k", "across-k", "from-k", "836-past-k", "1023-past-k", "far-head", "far",
             "one-index"],
    )
    def test_ranges_near_k_scan_from_k_others_take_exp_sums(
        self, monkeypatch, start, stop, heads, scans
    ):
        # a range of two or more indices that starts fewer than k*K/2 indices past k
        # takes the recurrence from n = k, whose numerator is E, and no exp_sums value
        engine = ModStirlingEngine(64)
        want = [(n, engine.val2(n)) for n in range(start, stop)]
        seen_heads, numerators = [], []
        monkeypatch.setattr(
            stirling_module, "exp_sums", lambda *a: seen_heads.append(a[1]) or exp_sums(*a)
        )
        monkeypatch.setattr(
            stirling_module,
            "recurrence_mod",
            lambda q, e, needed: numerators.append(e) or recurrence_mod(q, e, needed),
        )
        assert list(engine.val2_range(start, stop)) == want
        assert seen_heads == heads
        assert len(numerators) == scans
        if scans and not heads:
            assert numerators == [column_e(64)]

    def test_zero_value_past_the_first_k_goes_to_val2(self, monkeypatch):
        # as in test_climbs_until_the_residue_is_nonzero: nu_2(S(n,5)) = 99, far
        # above the 61 bits the recurrence keeps, and n is 50 indices past the start
        n = next(u for u in t2_zeros(5, 110) if u % 2 == 0) + (1 << 100)
        engine = ModStirlingEngine(5)
        fallbacks = []
        real = engine.val2
        monkeypatch.setattr(engine, "val2", lambda i: fallbacks.append(i) or real(i))
        got = dict(engine.val2_range(n - 50, n + 50))
        assert got[n] == 99
        assert fallbacks == [n]
        assert got == {i: real(i) for i in range(n - 50, n + 50)}

    def test_value_that_vanishes_mod_two_to_the_32_goes_to_val2(self, monkeypatch):
        # nu_2(S(n,5)) = 39 at this n: below the 61 exact bits of the head, but
        # at or above the 32 bits of the recurrence, so the scan cannot decide it
        n = next(u for u in t2_zeros(5, 110) if u % 2 == 0) + (1 << 40)
        engine = ModStirlingEngine(5)
        fallbacks = []
        real = engine.val2
        monkeypatch.setattr(engine, "val2", lambda i: fallbacks.append(i) or real(i))
        got = dict(engine.val2_range(n - 50, n + 50))
        assert got[n] == 39
        assert fallbacks == [n]
        assert got == {i: real(i) for i in range(n - 50, n + 50)}

    @pytest.mark.parametrize("k", [5, 64, 100])
    def test_scan_near_k_draws_no_exp_sums_value(self, monkeypatch, k):
        # the scan from k starts from E / Q_o, exact from S(k,k) = 1 on
        def unused(*args):
            raise AssertionError("exp_sums called for a scan that starts near k")

        engine = ModStirlingEngine(k)
        stop = k + 3 * _block(k)
        want = {n: engine.val2(n) for n in range(k, stop)}
        monkeypatch.setattr(stirling_module, "exp_sums", unused)
        for start in (k, 2 * k - 1):
            assert dict(engine.val2_range(start, stop)) == {
                n: v for n, v in want.items() if n >= start
            }, start

    @pytest.mark.parametrize("k", [5, 64, 100])
    def test_far_scan_takes_a_head_of_K_values_from_exp_sums(self, monkeypatch, k):
        K = (k + 1) // 2
        engine = ModStirlingEngine(k)
        start = _far(k)
        stop = start + 3 * _block(k)
        # val2 reads exp_sums too, so the expected values come before the spy
        want = [(n, engine.val2(n)) for n in range(start, stop)]
        starts, drawn, numerators = [], [], []

        def spy(terms, first, M):
            starts.append(first)
            for r in exp_sums(terms, first, M):
                drawn.append(r)
                yield r

        monkeypatch.setattr(stirling_module, "exp_sums", spy)
        monkeypatch.setattr(
            stirling_module,
            "recurrence_mod",
            lambda q, r, needed: numerators.append(r) or recurrence_mod(q, r, needed),
        )
        assert list(engine.val2_range(start, stop)) == want
        assert starts == [start]
        assert len(drawn) == K
        assert [len(r) for r in numerators] == [K]

    @pytest.mark.parametrize("bits", [8, 32, 33, 64])
    @pytest.mark.parametrize("k", [1, 3, 20])
    def test_recurrence_mod_matches_the_recurrence(self, k, bits):
        # arbitrary coefficients of the given width and start, checked term by
        # term over the first block, two later ones and a term of the third; the
        # recurrence runs mod 2**32, so wider coefficients are read mod 2**32
        rng = random.Random(k * 100 + bits)
        mod = 1 << 32
        q = [1] + [rng.randrange(1 << bits) for _ in range(k)]
        a = [rng.randrange(mod) for _ in range(k)]
        L = max(16 * k, 128)  # the kernel's block length for this many terms
        count = L + 2 * (L - k) + 1
        while len(a) < count:
            a.append(-sum(c * x for c, x in zip(q[1:], reversed(a[-k:]))) % mod)
        blocks = recurrence_mod(q, _numerator(q, a[:k]), count)
        assert list(itertools.islice(itertools.chain.from_iterable(blocks), count)) == a

    @pytest.mark.parametrize("k", [1, 3, 31, 32])
    def test_recurrence_mod_divides_a_numerator_of_32_terms(self, k):
        # N of 32 terms, longer than K: the recurrence holds from n = 32 on
        rng = random.Random(k)
        mod = 1 << 32
        q = [1] + [rng.randrange(mod) for _ in range(k)]
        numerator = [rng.randrange(mod) for _ in range(32)]
        a = []
        for n in range(40 * k + 100):
            r = numerator[n] if n < 32 else 0
            a.append((r - sum(c * x for c, x in zip(q[1:], reversed(a[-k:])))) % mod)
        blocks = recurrence_mod(q, numerator, len(a))
        assert list(itertools.islice(itertools.chain.from_iterable(blocks), len(a))) == a

    @pytest.mark.parametrize("k", [126, 127, 255, 256, 300])
    def test_recurrence_mod_holds_the_largest_slot_sums(self, k):
        # every q_i past q_0 = 1 is 2**32 - 1, and the sequence is run backwards from
        # a second block's window of k terms 2**32 - 1: slot k - 1 of Q times that
        # window sums (2**32 - 1) + (k - 1)(2**32 - 1)**2, which needs 71 bits at
        # k = 126 and 127 and 73 bits at k = 300; the block slot steps from 9 to 10
        # bytes between k = 255 and 256, and max(K, 32) products at K = 300 need 10
        mod = 1 << 32
        q = [1] + [mod - 1] * k
        L = k + 32  # the shortest block: one term read
        a = [0] * 32 + [mod - 1] * k  # a_0..a_(L-1); the second block's window is a[32:]
        inverse = pow(q[k], -1, mod)
        for n in range(L - 1, k - 1, -1):
            rest = sum(c * x for c, x in zip(q[1:k], reversed(a[n - k + 1 : n])))
            a[n - k] = -(a[n] + rest) * inverse % mod
        blocks = list(itertools.islice(recurrence_mod(q, _numerator(q, a[:k]), 1), 3))
        while len(a) < L + 64:
            a.append(-sum(c * x for c, x in zip(q[1:], reversed(a[-k:]))) % mod)
        assert [len(b) for b in blocks] == [L, 32, 32]
        assert list(itertools.chain.from_iterable(blocks)) == a

    def test_recurrence_mod_holds_32_products_of_a_numerator(self):
        # Q = (1 - x) sum_{i<32} 2^i x^i == (1 - x) / (1 - 2x) mod 2**32, so 1/Q =
        # 1 - x - x**2 - ...: every slot of 1/Q past the first is 2**32 - 1, and so
        # is every term of N; slot 31 of N * (1/Q) sums 32 products, the bound
        mod = 1 << 32
        q = [1] + [1 << (i - 1) for i in range(1, 32)] + [mod - (1 << 31)]
        numerator = [mod - 1] * 32
        a = []
        for n in range(400):
            r = numerator[n] if n < 32 else 0
            a.append((r - sum(c * x for c, x in zip(q[1:], reversed(a[-32:])))) % mod)
        assert a[:32] == [(i - 1) % mod for i in range(32)]  # -1 + i * (-1)(-1)
        blocks = recurrence_mod(q, numerator, len(a))
        assert list(itertools.islice(itertools.chain.from_iterable(blocks), len(a))) == a

    @pytest.mark.parametrize(
        "k, needed, first, later",
        [(1, 5, 33, 32), (5, 10**6, 128, 125), (100, 1, 82, 32), (100, 300, 300, 250),
         (100, 10**6, 800, 750)],
    )
    def test_block_length_is_cut_to_the_terms_read(self, k, needed, first, later):
        # the first block holds L terms from n = k, L = max(min(max(16K, 128), needed),
        # K + 32), and a later block L - K new ones; every length gives the same terms
        q, e = column_q(k), column_e(k)
        blocks = list(itertools.islice(recurrence_mod(q, e, needed), 3))
        assert [len(b) for b in blocks] == [first, later, later]
        terms = itertools.chain.from_iterable(recurrence_mod(q, e, 10**6))
        assert list(itertools.chain.from_iterable(blocks)) == list(
            itertools.islice(terms, first + 2 * later)
        )

    @pytest.mark.parametrize("k", [1, 2, 5, 64, 100, 127, 128, 1000])
    def test_packed_q_equals_the_list_product(self, k):
        mask, q = (1 << 32) - 1, [1]
        for j in range(1, k + 1, 2):
            q = [(a - j * b) & mask for a, b in zip(q + [0], [0] + q)]
        assert list(column_q(k)) == q

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 31, 32, 33, 62, 63, 64, 100, 127, 128, 255, 256])
    def test_e_is_the_column_of_k_over_two_times_powers_of_two(self, k):
        h = k // 2
        want = [(stirling_exact(h + t, h) << t) % (1 << 32) for t in range(32)]
        assert list(column_e(k)) == want

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 31, 32, 33, 62, 63, 64, 100, 127, 128, 255, 256])
    def test_halved_blocks_equal_the_order_k_recurrence_and_the_oracle(self, k):
        # the order-k recurrence of Q = prod_{j<=k} (1 - j x) from the exact window
        # S(1,k), ..., S(k,k) = 0, ..., 0, 1 gives S(n,k) mod 2**32 for every n; the
        # blocks of E / Q_o (order K = ceil(k/2)) equal it from n = k, across three blocks
        mod, Q = 1 << 32, [1]
        for j in range(1, k + 1):
            Q = [(a - j * b) % mod for a, b in zip(Q + [0], [0] + Q)]
        K = (k + 1) // 2
        L = max(16 * K, 128)
        count = L + 2 * (L - K)
        s = [0] * (k - 1) + [1]  # S(1,k), ..., S(k,k)
        while len(s) < k - 1 + count:
            s.append(-sum(map(operator.mul, Q[1:], reversed(s[-k:]))) % mod)
        column = s[k - 1 :]  # S(k,k), S(k+1,k), ...
        blocks = recurrence_mod(column_q(k), column_e(k), count)
        assert list(itertools.islice(itertools.chain.from_iterable(blocks), count)) == column
        exact = range(k, k + min(count, 101))
        assert column[: len(exact)] == [stirling_exact(n, k) % mod for n in exact]
        # the four range shapes: from 1, from k, shorter than k, and far out
        engine = ModStirlingEngine(k)
        want = {
            n: nu_int(2, v) if v else engine.val2(n) for n, v in zip(itertools.count(k), column)
        }
        stop = k + count
        assert list(engine.val2_range(1, stop)) == [(n, INFINITE) for n in range(1, k)] + list(
            want.items()
        )
        assert dict(engine.val2_range(k, stop)) == want
        short = range(k + 7, k + 7 + max(k - 1, 1))
        assert dict(engine.val2_range(short.start, short.stop)) == {n: want[n] for n in short}
        far = range(_far(k) + 1, _far(k) + 1 + K + 64)
        assert list(engine.val2_range(far.start, far.stop)) == [(n, engine.val2(n)) for n in far]

    @pytest.mark.parametrize("reads", [1, 30, 50, 51, 100])
    def test_reading_j_values_takes_j_valuations(self, monkeypatch, reads):
        # the scan of test_value_that_vanishes_mod_two_to_the_32_goes_to_val2: its zero
        # residue is value 50, in the first recurrence block, and val2 reads one nu_int
        n = next(u for u in t2_zeros(5, 110) if u % 2 == 0) + (1 << 40)
        engine = ModStirlingEngine(5)
        want = [(i, engine.val2(i)) for i in range(n - 50, n + 50)]
        valuations, fallbacks = [], []
        real_nu_int, real_val2 = stirling_module.nu_int, engine.val2
        monkeypatch.setattr(
            stirling_module, "nu_int", lambda p, v: valuations.append(v) or real_nu_int(p, v)
        )
        monkeypatch.setattr(engine, "val2", lambda i: fallbacks.append(i) or real_val2(i))
        got = list(itertools.islice(engine.val2_range(n - 50, n + 50), reads))
        assert got == want[:reads]
        assert len(valuations) == reads
        assert fallbacks == ([n] if reads > 50 else [])

    @pytest.mark.parametrize("reads", [1, 2, 300, 449, 500, 513])
    def test_a_block_without_zeros_is_read_lazily(self, monkeypatch, reads):
        # k = 64 from n = 64: a first block of 512 values, then blocks of 480, none zero
        engine = ModStirlingEngine(64)
        want = list(itertools.islice(engine.val2_range(64, 3000), reads))
        valuations = []
        real_nu_int = stirling_module.nu_int
        monkeypatch.setattr(
            stirling_module, "nu_int", lambda p, v: valuations.append(v) or real_nu_int(p, v)
        )
        monkeypatch.setattr(engine, "val2", None)
        assert list(itertools.islice(engine.val2_range(64, 3000), reads)) == want
        assert len(valuations) == reads


def _slots(row: int, n_max: int, M: int) -> list[int]:
    """The residues S(n,k) mod 2**M, k = 0..n_max, packed in a row of triangle_rows."""
    W = triangle_width(n_max, M)
    return [(row >> (W * k)) & ((1 << M) - 1) for k in range(n_max + 1)]


class TestTriangleRows:
    @pytest.mark.parametrize("M", [4, 8, 64])
    def test_slots_equal_exact_residues_to_300(self, M):
        # every slot k <= n is S(n,k) mod 2**M, zero residues included; slots k > n are 0
        rows = list(triangle_rows(300, M))
        assert [n for n, _ in rows] == list(range(1, 301))
        for n, row in rows:
            assert row >> (triangle_width(300, M) * 301) == 0, n
            want = [stirling_exact(n, k) % (1 << M) for k in range(n + 1)] + [0] * (300 - n)
            assert _slots(row, 300, M) == want, n

    def test_valuations_match_engine_to_600(self):
        columns = {k: [] for k in (1, 2, 7, 64, 129, 300, 511, 600)}
        for n, row in triangle_rows(600, 64):
            slots = _slots(row, 600, 64)
            for k, column in columns.items():
                if k <= n:
                    column.append((n, nu_int(2, slots[k])))
        for k, column in columns.items():
            assert column == list(ModStirlingEngine(k).val2_range(k, 601)), k

    def test_single_row(self):
        assert list(triangle_rows(1, 64)) == [(1, 1 << triangle_width(1, 64))]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            next(triangle_rows(0, 8))
        with pytest.raises(ValueError):
            next(triangle_rows(10, 0))


class TestVal2ClosedSmall:
    def test_examples(self):
        assert val2_closed_small(7, 3) == 0
        assert val2_closed_small(8, 3) == 1
        assert val2_closed_small(9, 4) == 1
        assert val2_closed_small(10, 4) == 0
        for n in (1, 2, 17, 64):
            assert val2_closed_small(n, 1) == 0

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            val2_closed_small(10, 5)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_exact_to_300(self, k):
        for n in range(k, 301):
            assert val2_closed_small(n, k) == nu_int(2, stirling_exact(n, k))


class TestDeWannemacker:
    def test_examples(self):
        assert de_wannemacker_gap(8, 5) == 0
        for n in (1, 6, 33):
            assert de_wannemacker_gap(n, n) == 0
        for q in range(3, 9):
            for k in (1, 3, 2**q - 1, 2**q):
                assert de_wannemacker_gap(1 << q, k) == 0

    def test_nonnegative_to_150(self):
        for n in range(1, 151):
            for k in range(1, n + 1):
                assert de_wannemacker_gap(n, k) >= 0

    @pytest.mark.parametrize("k", [1, 5, 16, 33])
    def test_scan_matches_single(self, k):
        gaps = list(de_wannemacker_gaps(k, 120))
        assert gaps == [(n, de_wannemacker_gap(n, k)) for n in range(k, 121)]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            de_wannemacker_gap(5, 6)


class TestVal2Rows:
    @pytest.mark.parametrize("k_max", [1, 5, 66, 130])
    def test_matches_val2_stirling_near_powers_of_two(self, k_max):
        ns = [(1 << q) + i for q in range(13) for i in range(3)]
        rows = val2_rows(ns, k_max)
        assert set(rows) == set(ns)
        for n in ns:
            assert rows[n] == [val2_stirling(n, k) for k in range(1, k_max + 1)]
        assert rows[1] == [0] + [INFINITE] * (k_max - 1)

    def test_zero_residue_goes_to_val2_stirling(self, monkeypatch):
        # zeros of T_2(x, 5) mod 2^68, shifted by 2^68: 5! * S(n, 5) vanishes mod 2^64
        ns = [x + (1 << 68) for x in t2_zeros(5, 70)]
        assert get_engine(5).m_start == 64
        assert [get_engine(5).ksf_mod(n, 64) for n in ns] == [0, 0]
        engine_val2 = stirling_module.val2_stirling
        calls = []

        def spy(n, k):
            calls.append((n, k))
            return engine_val2(n, k)

        monkeypatch.setattr(stirling_module, "val2_stirling", spy)
        # with n - 1 in the set each zero arrives on a row stepped from n - 1
        rows = val2_rows(ns + [n - 1 for n in ns], 5)
        assert calls == [(n, 5) for n in ns]
        assert [rows[n][4] for n in ns] == [68, 67]
        assert rows[ns[0]] == val2_rows([ns[0]], 5)[ns[0]]

    @pytest.mark.parametrize("k_max", [1, 3, 12, 70])
    def test_stepped_rows_equal_power_rows(self, k_max):
        # a single index always takes the power route
        ns = [0, 1, 2, 3, 7, 8, 9, 10, 11, 40, 41, 64, 65, 66, 67, 100]
        rows = val2_rows(ns, k_max)
        assert rows == {n: val2_rows([n], k_max)[n] for n in ns}
        assert rows[0] == [INFINITE] * k_max
        assert rows[1] == [0] + [INFINITE] * (k_max - 1)

    def test_one_power_row_per_run_of_consecutive_indices(self, monkeypatch):
        # rows 2^q + 1 and 2^q + 2 step from the row before; row 1 may not step from row 0
        k_max = 12
        powers, fallbacks = [], []
        monkeypatch.setattr(
            stirling_module, "pow", lambda b, e, m: powers.append(e) or pow(b, e, m),
            raising=False,
        )
        monkeypatch.setattr(
            stirling_module, "val2_stirling", lambda n, k: fallbacks.append((n, k)),
        )
        ns = [0, 1, 2, 3] + [(1 << q) + i for q in range(3, 11) for i in range(3)]
        val2_rows(reversed(ns), k_max)
        assert fallbacks == []
        heads = [1] + [1 << q for q in range(3, 11)]
        assert sorted(powers) == sorted(e for e in heads for _ in range(min(e, k_max)))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            val2_rows([4], 0)
        with pytest.raises(ValueError):
            val2_rows([-1], 3)


class TestSpecialValues:
    def test_spot_values(self):
        assert val2_stirling(33, 6) == 1  # s_2(5) - 1
        assert val2_stirling(34, 8) == 1  # s_2(6) - 1
        assert val2_stirling(24, 5) == 1  # 24 = 3 * 2^3

    def test_family_scan(self):
        report = special_values_check(q_max=8, k_max=32)
        assert report.status == "CONSISTENT"
        assert report.checked > 500

    def test_rejects_small_q_max(self):
        with pytest.raises(ValueError):
            special_values_check(q_max=2, k_max=8)
        with pytest.raises(ValueError):
            special_values_check(q_max=4, k_max=0)


def test_identity_battery_consistent():
    report = identity_battery(n_max=80, q_max=4, k_max=16)
    assert report.status == "CONSISTENT"
    names = [sub["name"] for sub in report.details["subchecks"]]
    assert "special values" in names


def test_identity_battery_records_closed_forms_and_parity_a_column_at_a_time(monkeypatch):
    closed, parity = stirling_module.stirling_closed_small, stirling_module.val2_closed_small
    monkeypatch.setattr(
        stirling_module,
        "stirling_closed_small",
        lambda n, k: closed(n, k) + ((n, k) in {(30, 2), (10, 3)}),
    )
    monkeypatch.setattr(
        stirling_module, "val2_closed_small", lambda n, k: parity(n, k) + ((n, k) == (20, 2))
    )
    calls = []
    record = ConjectureReport.record
    monkeypatch.setattr(
        ConjectureReport, "record", lambda self, *args: calls.append(args) or record(self, *args)
    )
    special = special_values_check(q_max=4, k_max=16)
    special_calls = len(calls)
    report = identity_battery(n_max=80, q_max=4, k_max=16)
    # the special values are the only checks still recorded one by one
    assert len(calls) == 2 * special_calls
    grid, closed_forms, parities = 80 * 81 // 2, 80 + 79 + 78 + 77 + 76, 80 + 79 + 78 + 77
    assert report.checked == grid + closed_forms + parities + special.checked
    assert report.counterexamples == [
        {"identity": "closed form", "n": 30, "k": 2},
        {"identity": "closed form", "n": 10, "k": 3},
        {"identity": "parity valuation", "n": 20, "k": 2},
    ]


def test_identity_battery_reports_injected_inequality_failures(monkeypatch):
    # S(64,63) = 2016 has nu_2 = 5 = s_2(63) - s_2(64): valuation 4 fails with gap -1.
    # S(80,31) needs nu_2 >= 5 - 2: valuation 1 gives gap -2, at a smaller k and a larger n.
    inject = {64: (63, 1 << 4), 80: (31, 1 << 1)}  # n: (k, residue put in slot k)
    rows = stirling_module.triangle_rows

    def perturbed(n_max, M):
        W = triangle_width(n_max, M)
        for n, row in rows(n_max, M):
            if n in inject:
                k, value = inject[n]
                row = row & ~(((1 << M) - 1) << (W * k)) | value << (W * k)
            yield n, row

    checked = identity_battery(n_max=80, q_max=4, k_max=16).checked
    monkeypatch.setattr(stirling_module, "triangle_rows", perturbed)
    report = identity_battery(n_max=80, q_max=4, k_max=16)
    assert report.counterexamples == [
        {"identity": "inequality gap", "n": 80, "k": 31, "gap": -2},
        {"identity": "inequality gap", "n": 64, "k": 63, "gap": -1},
    ]
    assert report.checked == checked


def test_identity_battery_decodes_no_slot_of_a_consistent_grid(monkeypatch):
    # nu_int runs for the parity scans and the special-value rows, not for the
    # 45150 entries of the inequality grid
    calls = []
    nu = stirling_module.nu_int
    monkeypatch.setattr(stirling_module, "nu_int", lambda p, x: calls.append(x) or nu(p, x))
    report = identity_battery(n_max=300, q_max=3, k_max=2)
    assert report.status == "CONSISTENT"
    assert len(calls) < 1500


def test_identity_battery_checks_closed_forms_to_n_max(monkeypatch):
    # every n <= n_max is checked, above 500 and n_max itself included
    closed = stirling_module.stirling_closed_small
    monkeypatch.setattr(
        stirling_module,
        "stirling_closed_small",
        lambda n, k: closed(n, k) + ((n, k) in {(501, 1), (520, 5)}),
    )
    report = identity_battery(n_max=520, q_max=3, k_max=2)
    assert report.counterexamples == [
        {"identity": "closed form", "n": 501, "k": 1},
        {"identity": "closed form", "n": 520, "k": 5},
    ]
    special = special_values_check(q_max=3, k_max=2)
    grid, closed_forms, parities = 520 * 521 // 2, 5 * 521 - 15, 4 * 521 - 10
    assert report.checked == grid + closed_forms + parities + special.checked


def test_record_many_matches_per_entry_records():
    entries = [(n, n % 7 != 3) for n in range(10)]  # n = 3 fails
    one_by_one, batched = ConjectureReport("a"), ConjectureReport("a")
    for report in (one_by_one, batched):
        report.record(False, {"n": -1})
    for n, ok in entries:
        one_by_one.record(ok, {"n": n})
    batched.record_many(len(entries), [{"n": n} for n, ok in entries if not ok])
    assert batched.checked == one_by_one.checked == 11
    assert batched.counterexamples == one_by_one.counterexamples == [{"n": -1}, {"n": 3}]
