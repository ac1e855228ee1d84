"""Exact p-adic valuation primitives on integers and rationals.

The valuation nu_p(n) is the exponent of the largest power of the prime p
dividing n, with nu_p(0) = INFINITE by convention.  INFINITE is represented
by ``math.inf`` so that it is absorbing under min/max and compares above
every finite valuation; callers that serialize valuations must map it
explicitly (the CLI writes an empty CSV field and the JSON string "inf").

Only tiny primes occur in this package (p in {2, 3, 5, 7}), so primality
is validated by trial division rather than pulling in a library.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .reports import ConjectureReport

if TYPE_CHECKING:
    from fractions import Fraction

INFINITE = math.inf

# A valuation is a (possibly negative) int, or INFINITE for the value 0.
Valuation = int | float


def is_prime(p: int) -> bool:
    """Trial-division primality test; adequate for the small moduli used here."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def nu_int(p: int, n: int) -> Valuation:
    """Largest e with p**e dividing n; INFINITE for n = 0.  Sign is ignored."""
    if p == 2:  # the hot case, prime without a check
        return INFINITE if n == 0 else (n & -n).bit_length() - 1
    _require_prime(p)
    if n == 0:
        return INFINITE
    n = abs(n)
    # Square p while the square still divides n, then strip the powers
    # p^(2^i) largest first: O(log e) big divisions instead of e of them.
    powers = [p]
    while n % (square := powers[-1] ** 2) == 0:
        powers.append(square)
    e = 0
    for i in reversed(range(len(powers))):
        q, r = divmod(n, powers[i])
        if r == 0:
            n = q
            e += 1 << i
    return e


class Ratio(NamedTuple):
    """The rational numerator / denominator, not reduced to lowest terms.

    Reducing costs a gcd of the two components; a valuation does not need it.
    """

    numerator: int
    denominator: int


def nu_rat(p: int, r: Fraction | Ratio | int) -> Valuation:
    """Valuation on rationals: nu_p(a/b) = nu_p(a) - nu_p(b); INFINITE iff a = 0.

    r is anything with ``numerator`` and ``denominator``: a Fraction, an int
    or an unreduced Ratio.  The pair need not be in lowest terms: a common
    factor p^e * c with c prime to p adds e to both component valuations,
    so the difference is the same.
    """
    if r.numerator == 0:
        return INFINITE
    return nu_int(p, r.numerator) - nu_int(p, r.denominator)


def digit_sum(p: int, n: int) -> int:
    """Sum s_p(n) of the base-p digits of n >= 0."""
    _require_prime(p)
    if n < 0:
        raise ValueError("digit_sum is defined for nonnegative n")
    if p == 2:
        return n.bit_count()
    s = 0
    while n:
        n, r = divmod(n, p)
        s += r
    return s


def legendre_factorial_val(p: int, m: int) -> int:
    """nu_p(m!) = (m - s_p(m)) / (p - 1), computed without forming m!."""
    if m < 0:
        raise ValueError(f"m! needs m >= 0, got m={m}")
    return (m - digit_sum(p, m)) // (p - 1)


def kummer_binomial_val(m: int, k: int) -> int:
    """nu_2 of the binomial coefficient C(m, k): s_2(k) + s_2(m-k) - s_2(m).

    Equals the number of carries when adding k and m-k in binary.
    """
    if not 0 <= k <= m:
        raise ValueError(f"need 0 <= k <= m, got k={k}, m={m}")
    return digit_sum(2, k) + digit_sum(2, m - k) - digit_sum(2, m)


def pochhammer(a: int, k: int) -> int:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1), with (a)_0 = 1."""
    if a < 1:
        raise ValueError("pochhammer requires a >= 1")
    if k < 0:
        raise ValueError("pochhammer requires k >= 0")
    return math.prod(range(a, a + k))


def power_lemma_report(m_max: int = 20) -> ConjectureReport:
    """Verify three power-difference valuation identities exactly.

    For 1 <= m <= m_max, each difference read mod 2**(m + 5):

        nu_2(5**(2**m) - 1)          == m + 2
        nu_2(3**(2**m) - 1)          == m + 2
        nu_2(5**(2**m) - 3**(2**m))  == m + 3

    A nonzero residue has the valuation of the integer; a zero one reads INFINITE.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    report = ConjectureReport("power-difference valuations", params={"m_max": m_max})
    for m in range(1, m_max + 1):
        e, mod = 1 << m, 1 << (m + 5)
        a = pow(5, e, mod)
        b = pow(3, e, mod)
        for label, value, expected in (
            ("nu2(5^(2^m) - 1)", a - 1, m + 2),
            ("nu2(3^(2^m) - 1)", b - 1, m + 2),
            ("nu2(5^(2^m) - 3^(2^m))", (a - b) % mod, m + 3),
        ):
            got = nu_int(2, value)
            report.record(
                got == expected,
                {"identity": label, "m": m, "computed": got, "expected": expected},
            )
    return report
