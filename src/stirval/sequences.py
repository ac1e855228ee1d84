"""Auxiliary exact sequences and the 2-adic zero machinery.

Covers four independent strands:

* the triple-binomial sums b(l,m) and the integer array A(l,m) with its
  two closed-form valuation formulas,
* partial sums of the polylogarithm-style series sum 2^j / j^k: at every
  n as exact rationals, kept unreduced over the common denominator
  lcm(1..n)^k so that no step reduces a large fraction to lowest terms,
  and at the powers of two n = 2^m as residues mod 2^P from one truncated
  2-adic binary splitting, enough for their 2-adic valuations,
* Lundell's Stirling-like alternating sums T_p(n,k) and Clarke's
  conjectured valuation identity with k! * S(n,k),
* every 2-adic zero of T_2(x,k), the odd-base part of k! * S(x,k), lifted
  digit by digit; the two zeros for k = 5 turn nu_2(S(n,5)) into a
  distance measurement.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Iterator

from .padic import Ratio, digit_sum, nu_int, nu_rat, pochhammer
from .reports import ConjectureReport
from .stirling import exp_sums, get_engine, t_terms, val2_stirling

if TYPE_CHECKING:
    from fractions import Fraction

# terms per leaf of the binary splitting in cohen_at_powers, summed directly
_COHEN_LEAF = 16


def b_lm(l: int, m: int) -> int:
    """Triple-binomial sum: sum_{k=l}^{m} 2^k C(2m-2k, m-k) C(m+k, m) C(k, l)."""
    if not 0 <= l <= m:
        raise ValueError(f"need 0 <= l <= m, got l={l}, m={m}")
    return sum(
        (1 << k) * math.comb(2 * m - 2 * k, m - k) * math.comb(m + k, m) * math.comb(k, l)
        for k in range(l, m + 1)
    )


def a_lm(l: int, m: int) -> int:
    """Integer array A(l,m) = l! m! b(l,m) / 2^(m-l).

    Integrality is part of the contract; a nonzero remainder would be an
    internal error, not a caller mistake.
    """
    num = math.factorial(l) * math.factorial(m) * b_lm(l, m)
    q, r = divmod(num, 1 << (m - l))
    if r:
        raise ArithmeticError(f"A({l},{m}) is not integral")
    return q


def a_lm_val_check(l_max: int = 40, m_max: int = 40) -> ConjectureReport:
    """Check both closed forms for nu_2(A(l,m)) against direct valuation.

    For 0 <= l <= min(m, l_max), m <= m_max:

        nu_2(A(l,m)) == nu_2( (m+1-l)_(2l) ) + l
                     == 3l - s_2(m+l) + s_2(m-l)
    """
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    report = ConjectureReport(
        "A(l,m) valuation formulas", params={"l_max": l_max, "m_max": m_max}
    )
    for m in range(m_max + 1):
        for l in range(min(m, l_max) + 1):
            direct = nu_int(2, a_lm(l, m))
            via_poch = nu_int(2, pochhammer(m + 1 - l, 2 * l)) + l
            via_digits = 3 * l - digit_sum(2, m + l) + digit_sum(2, m - l)
            report.record(
                direct == via_poch == via_digits,
                {
                    "l": l,
                    "m": m,
                    "direct": direct,
                    "pochhammer_form": via_poch,
                    "digit_form": via_digits,
                },
            )
    return report


def cohen_partial_sums(k: int) -> Iterator[tuple[int, Ratio]]:
    """Yield (n, L_k(n)) for n = 1, 2, ..., with L_k(n) = sum_{j=1}^{n} 2^j / j^k exact.

    L_k(n) comes as an unreduced Ratio(N, D) with D = lcm(1..n)^k.  Each
    step divides D by n^k.  The division is exact unless n = p^a is a
    prime power, since only then does n not divide lcm(1..n-1); there the
    lcm grows by p, so N and D are both scaled by p^k first.  The step then
    adds the term (D / n^k) * 2^n to N.  A gcd is taken only at prime
    powers, and only with the small n^k.  Read a valuation with ``nu_rat``,
    which holds in any terms, or reduce with ``Fraction(*ratio)``.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    return _cohen_ratios(k)


def _cohen_ratios(k: int) -> Iterator[tuple[int, Ratio]]:
    num, den = 0, 1
    for n in itertools.count(1):
        nk = n**k
        q, r = divmod(den, nk)
        if r:  # n = p^a: the scale is p^k
            scale = nk // math.gcd(den, nk)
            num, den = num * scale, den * scale
            q = den // nk
        num += q << n
        yield n, Ratio(num, den)


def cohen_at_powers(k: int, m_max: int) -> Iterator[tuple[int, Ratio]]:
    """Yield (m, r) for m = 0..m_max, where nu_rat(2, r) = nu_2(L_k(2^m)).

    Write M = m_max and j = 2^e * o with o odd.  Scaled by 2^(kM), the term
    2^j / j^k is 2^(j + k(M - e)) / o^k, a 2-adic integer over an odd
    denominator.  [0, 2^M) is split at midpoints (binary splitting; Haible
    and Papanikolaou, 1998), and a node [a, b) holds 2^a * N / D with D
    odd and N, D kept mod 2^(P - a), since 2^a * N / D mod 2^P needs no
    more.  The prefix [1, 2^m] is the left-spine node [0, 2^m) plus the
    term j = 2^m, and r = Ratio(N, D << kM) with N its residue mod 2^P.  A
    nonzero residue is below 2^P, so it has the valuation of the exact
    scaled sum.  P starts at 2^M + 8M + 64 bits and doubles, redoing the
    pass, while any prefix residue is zero; r is not L_k(2^m) itself, only
    its valuation.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    if m_max < 0:
        raise ValueError(f"need m_max >= 0, got m_max={m_max}")
    P = (1 << m_max) + 8 * m_max + 64
    while not (prefixes := _cohen_prefixes(k, m_max, P)):
        P *= 2
    return ((m, Ratio(top, den << (k * m_max))) for m, (top, den) in enumerate(prefixes))


def _cohen_prefixes(k: int, M: int, P: int) -> list[tuple[int, int]] | None:
    """(N, D) of 2^(kM) * L_k(2^m) mod 2^P for m = 0..M, or None at a zero N.

    See ``cohen_at_powers``.  Needs P > 2^M: every node [a, b) lies in [0, 2^M), so a < P.
    """

    def node(a: int, b: int) -> tuple[int, int]:
        mask = (1 << (P - a)) - 1
        if b - a <= _COHEN_LEAF:
            n, d = 0, 1
            for j in range(max(a, 1), b):
                e = (j & -j).bit_length() - 1
                t = (j >> e) ** k
                n = n * t + (d << (j - a + k * (M - e)))
                d *= t
            return n & mask, d & mask
        mid = (a + b) // 2
        n1, d1 = node(a, mid)
        # d2 is known mod 2^(P - mid) only; it cancels in n1 * d2 / (d1 * d2)
        n2, d2 = node(mid, b)
        return (n1 * d2 + (n2 * d1 << (mid - a))) & mask, d1 * d2 & mask

    mask = (1 << P) - 1
    n, d = 0, 1  # [0, 1) holds no term
    prefixes = []
    for m in range(M + 1):
        if m:  # [0, 2^m) from [0, 2^(m-1)) and [2^(m-1), 2^m)
            mid = 1 << (m - 1)
            n2, d2 = node(mid, 2 * mid)
            n, d = (n * d2 + (n2 * d << mid)) & mask, d * d2 & mask
        top = (n + (d << ((1 << m) + k * (M - m)))) & mask  # plus the term j = 2^m
        if not top:
            return None
        prefixes.append((top, d))
    return prefixes


def cohen_sum(k: int, n: int) -> Fraction:
    """Exact partial sum L_k(n) = sum_{j=1}^{n} 2^j / j^k, in lowest terms."""
    from fractions import Fraction

    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    _, total = next(itertools.islice(cohen_partial_sums(k), n - 1, None))
    return Fraction(*total)


def cohen_check(m_min: int = 4, m_max: int = 12) -> ConjectureReport:
    """Check the stated valuations of L_1(2^m) and L_2(2^m) for m in range.

        nu_2(L_1(2^m)) == 2^m + 2m - 4   (stated for m >= 4)
        nu_2(L_2(2^m)) == 2^m + m - 1    (stated for m >= 4)

    Values of m below 4 are outside the stated range and are reported,
    not asserted; a range with no m >= 4 is rejected, since it would
    assert nothing.  The valuations at every power of two up to 2^m_max
    come from one pass of ``cohen_at_powers`` per weight, which sums
    residues mod 2^P by binary splitting instead of every exact L_k(n).
    """
    if m_min > m_max:
        raise ValueError("m_min must be <= m_max")
    if m_min < 1:
        raise ValueError("m_min must be >= 1")
    if m_max < 4:
        raise ValueError("m_max must be >= 4 (the stated range starts at m = 4)")
    report = ConjectureReport(
        "polylog partial-sum valuations", params={"m_min": m_min, "m_max": m_max}
    )
    entries = []
    for k, formula in ((1, lambda m: (1 << m) + 2 * m - 4), (2, lambda m: (1 << m) + m - 1)):
        for m, total in cohen_at_powers(k, m_max):
            if m < m_min:
                continue
            entry = {"k": k, "m": m, "computed": nu_rat(2, total)}
            if m < 4:
                entry["note"] = "out of stated range"
            else:
                entry["expected"] = formula(m)
                report.record(entry["computed"] == entry["expected"], entry)
            entries.append(entry)
    report.details["entries"] = entries
    return report


def t_sum(p: int, n: int, k: int) -> int:
    """Lundell's alternating sum sum_j (-1)^(k-j) C(k,j) j^n, omitting p | j."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    return sum(c * b**n for c, b in t_terms(p, k))


def clarke_conjecture_check(n_max: int, k_max: int = 5) -> ConjectureReport:
    """Scan Clarke's identity nu_2(k! S(n,k)) == nu_2(T_2(n,k)).

    Restricted to n >= k: for n < k the left side is infinite
    (k! * S(n,k) = 0) while T_2(n,k) is a nonzero integer, so the identity
    cannot be meant there.  T_2(n,k) is read mod 2**M, M the engine's start
    precision, one multiplication per term and step (``exp_sums``); a
    nonzero residue has the valuation of T_2(n,k), and a zero one falls
    back to the exact ``t_sum``.
    """
    if n_max < k_max or k_max < 1:
        raise ValueError("need n_max >= k_max >= 1")
    report = ConjectureReport(
        "Clarke valuation identity", params={"n_max": n_max, "k_max": k_max}
    )
    for k in range(1, k_max + 1):
        engine = get_engine(k)
        residues = exp_sums(t_terms(2, k), k, engine.m_start)
        for (n, left), t in zip(engine.val2_range(k, n_max + 1), residues):
            left_full = left + engine.fact_val
            right = nu_int(2, t or t_sum(2, n, k))
            report.record(
                left_full == right,
                {"n": n, "k": k, "stirling_side": left_full, "t_side": right},
            )
    return report


def t2_zeros(k: int, M: int) -> list[int]:
    """Every 2-adic zero of T_2(x, k) to precision M, ascending.

    T_2(x, k) = sum c_b b**x is the odd-base part ``t_terms(2, k)`` of
    k! * S(x,k); for k = 5 it is 5 + 10*3^x + 5^x.  Odd bases make b**x
    mod 2**M depend only on x mod 2**(M-2) (for M >= 3), so a root is a
    residue x mod 2**(M-2) with T_2(x, k) == 0 mod 2**M.  A root at
    modulus 2**P reduces to a root at 2**(P-1), so lifting the roots mod 2
    at modulus 8, and keeping each extension r or r + 2**(P-3) that
    vanishes mod 2**P for P = 4..M, finds every root.

    k <= 4 has none from M = 5 on, and k = 5 has one root of each parity,
    which is all that ``clarke_val_check`` reads.  The root set grows with
    k: at M = 20 there are 80 roots for k = 8, 384 for k = 12 and 92160
    for k = 16, which takes about 3.5 s (CPython 3.11 on a shared 2-vCPU host).
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    if M < 4:
        raise ValueError("M must be >= 4")
    terms = t_terms(2, k)
    roots = [x for x in (0, 1) if not next(exp_sums(terms, x, 3))]
    for P in range(4, M + 1):
        step = 1 << (P - 3)
        roots = [x for r in roots for x in (r, r + step) if not next(exp_sums(terms, x, P))]
    return sorted(roots)


def clarke_val_check(n_max: int) -> ConjectureReport:
    """Check nu_2(S(n,5)) == -1 + nu_2(n - u) for 5 <= n <= n_max.

    u is the 2-adic zero of T_2(x, 5) with the parity of n, read as its
    residue u_B mod 2**(M-2) from ``t2_zeros(5, M)``.  M starts at
    n_max.bit_length() + 2 and grows while a residue is <= n_max.  Once both
    are above n_max, n - u_B is nonzero and below 2**(M-2) in size, so its
    valuation is that of n - u and every n in range is decided.  The lift
    ends: T_2(x, 5) > 0 at every natural x, so neither zero is a natural
    number, and the residues of a 2-adic integer that is not one grow
    without bound.
    """
    if n_max < 5:
        raise ValueError("n_max must be >= 5")
    report = ConjectureReport("valuation from 2-adic zeros (k=5)", params={"n_max": n_max})
    M = n_max.bit_length() + 2
    while min(zeros := t2_zeros(5, M)) <= n_max:
        M += 1
    even, odd = sorted(zeros, key=lambda u: u % 2)
    report.details["zeros"] = {"even": even, "odd": odd, "modulus_bits": M - 2}
    for n in range(5, n_max + 1):
        predicted = nu_int(2, n - (odd if n % 2 else even)) - 1
        computed = val2_stirling(n, 5)
        report.record(
            computed == predicted,
            {"n": n, "computed": computed, "predicted": predicted},
        )
    return report


def clarke_battery(scan_n_max: int = 500, k_max: int = 5, n_max: int = 2000) -> ConjectureReport:
    """Full Clarke check: identity scan, zero congruences, distance formula.

    Runs the T-sum valuation scan up to scan_n_max, replays the distance
    formula for nu_2(S(n,5)) up to n_max, and asserts the residues mod 4
    of the two zeros of T_2(x, 5) that it lifted (0 on the even branch, 3
    on the odd one).
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if scan_n_max < k_max:
        raise ValueError(f"scan_n_max must be >= k_max ({k_max})")
    report = ConjectureReport(
        "Clarke battery", params={"scan_n_max": scan_n_max, "k_max": k_max, "n_max": n_max}
    )
    report.merge_child(clarke_conjecture_check(scan_n_max, k_max), "t-sum identity")
    distance = clarke_val_check(n_max)
    zeros = distance.details["zeros"]
    report.details["zeros"] = {"even": zeros["even"], "odd": zeros["odd"]}
    for parity, expected in (("even", 0), ("odd", 3)):
        computed = zeros[parity] % 4
        report.record(
            computed == expected,
            {"check": f"{parity} zero residue mod 4", "computed": computed, "expected": expected},
        )
    report.merge_child(distance, "distance formula")
    return report
