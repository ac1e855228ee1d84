"""Auxiliary exact sequences and the 2-adic zero machinery.

Covers four independent strands:

* the triple-binomial sums b(l,m) and the integer array A(l,m) with its
  two closed-form valuation formulas,
* partial sums of the polylogarithm-style series sum 2^j / j^k as exact
  rationals, kept unreduced over the common denominator lcm(1..n)^k so
  that no step reduces a large fraction to lowest terms,
* Lundell's Stirling-like alternating sums T_p(n,k) and Clarke's
  conjectured valuation identity with k! * S(n,k),
* 2-adic zeros of exponential forms sum c_i * b_i^x (odd bases), lifted
  digit by digit, which turn nu_2(S(n,5)) into a distance measurement.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .padic import Ratio, digit_sum, nu_int, nu_rat, pochhammer
from .reports import ConjectureReport
from .stirling import exp_sum_mod, exp_sums, get_engine, ksf_terms, val2_stirling


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


def cohen_sum(k: int, n: int) -> Fraction:
    """Exact partial sum L_k(n) = sum_{j=1}^{n} 2^j / j^k, in lowest terms."""
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
    assert nothing.  The sums are accumulated once up to 2^m_max,
    recording the valuation at each power of two.
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
        for n, total in itertools.islice(cohen_partial_sums(k), 1 << m_max):
            m = n.bit_length() - 1
            if n != 1 << m or m < m_min:
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


def t_sums(p: int, start: int, k: int) -> Iterator[int]:
    """Yield T_p(n,k) for n = start, start + 1, ...; see ``t_sum``."""
    if start < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    return exp_sums(tuple((c, b) for c, b in ksf_terms(k) if b % p), start)


def t_sum(p: int, n: int, k: int) -> int:
    """Lundell's alternating sum sum_j (-1)^(k-j) C(k,j) j^n, omitting p | j."""
    return next(t_sums(p, n, k))


def clarke_conjecture_check(n_max: int, k_max: int = 5) -> ConjectureReport:
    """Scan Clarke's identity nu_2(k! S(n,k)) == nu_2(T_2(n,k)).

    Restricted to n >= k: for n < k the left side is infinite
    (k! * S(n,k) = 0) while T_2(n,k) is a nonzero integer, so the identity
    cannot be meant there.
    """
    if n_max < k_max or k_max < 1:
        raise ValueError("need n_max >= k_max >= 1")
    report = ConjectureReport(
        "Clarke valuation identity", params={"n_max": n_max, "k_max": k_max}
    )
    for k in range(1, k_max + 1):
        engine = get_engine(k)
        for (n, left), t in zip(engine.val2_range(k, n_max + 1), t_sums(2, k, k)):
            left_full = left + engine.fact_val
            right = nu_int(2, t)
            report.record(
                left_full == right,
                {"n": n, "k": k, "stirling_side": left_full, "t_side": right},
            )
    return report


_TERM_RE = re.compile(
    r"^(?P<sign>[+-])?"
    r"(?:(?P<coef>\d+)\*)?"
    r"(?:(?P<base>\d+)\^x|(?P<const>\d+))$"
)


@dataclass(frozen=True)
class ClarkeForm:
    """Exponential form f(x) = sum c_i * b_i^x with odd positive bases.

    Constant terms are carried with base 1.  Odd bases make b^x well
    defined on 2-adic residues: modulo 2**M, b^x depends on x only
    through x mod 2**(M-2) (for M >= 3).
    """

    terms: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a form needs at least one term")
        for coef, base in self.terms:
            if base < 1 or base % 2 == 0:
                raise ValueError(f"bases must be odd and positive, got {base}")
            if coef == 0:
                raise ValueError("zero coefficients are not allowed")

    @classmethod
    def parse(cls, text: str) -> "ClarkeForm":
        """Parse a compact syntax like "5 + 10*3^x + 5^x" (term order free)."""
        cleaned = text.replace("−", "-").replace(" ", "")
        if not cleaned:
            raise ValueError("empty form")
        chunks = re.findall(r"[+-]?[^+-]+", cleaned)
        terms = []
        for chunk in chunks:
            m = _TERM_RE.match(chunk)
            if not m:
                raise ValueError(f"cannot parse term {chunk!r}")
            sign = -1 if m.group("sign") == "-" else 1
            if m.group("const") is not None:
                terms.append((sign * int(m.group("const")), 1))
            else:
                terms.append((sign * int(m.group("coef") or 1), int(m.group("base"))))
        return cls(tuple(terms))

    def __str__(self) -> str:
        parts = [str(c) if b == 1 else f"{c}*{b}^x" for c, b in self.terms]
        return " + ".join(parts).replace("+ -", "- ")

    def eval_mod(self, x: int, M: int) -> int:
        """f(x) mod 2**M, with x taken as a residue mod 2**(M-2)."""
        return exp_sum_mod(self.terms, x, M)


# The forms whose 2-adic zeros encode nu_2(S(n,k)) for k = 5, 6, 7: the
# odd-base part of k! * S(x,k), e.g. K5_FORM = 5 + 10*3^x + 5^x.
K5_FORM, K6_FORM, K7_FORM = (
    ClarkeForm(tuple((c, b) for c, b in ksf_terms(k) if b % 2)) for k in (5, 6, 7)
)


class NoRootError(Exception):
    """No residue extension annihilates the form at the next modulus."""


class NonUniqueRootError(Exception):
    """More than one residue extension annihilates the form.

    Forms whose values carry extra factors of two (deeper ramification
    than the seeding handles) end up here; the ambiguity is surfaced
    rather than resolved by guessing.
    """

    def __init__(self, modulus_bits: int, candidates: list[int]):
        super().__init__(
            f"f == 0 mod 2^{modulus_bits} for residues {candidates}; zero not unique"
        )
        self.modulus_bits = modulus_bits
        self.candidates = candidates


@dataclass(frozen=True)
class PadicResidueZero:
    """A 2-adic zero known to precision M: a residue mod 2**(M-2).

    Substituting any x == residue (mod 2**(M-2)) gives f(x) == 0 mod 2**M.
    """

    residue: int
    precision: int
    parity: str  # "even" or "odd"

    @property
    def modulus(self) -> int:
        return 1 << (self.precision - 2)


def clarke_zero(form: ClarkeForm, parity: str, M: int) -> PadicResidueZero:
    """Lift the 2-adic zero of ``form`` on one parity branch to precision M.

    The two residues mod 8 both annihilate typical forms (the initial
    ramification), so the branch is seeded by exhaustive search mod 16;
    after that the residue is extended one binary digit at a time, keeping
    the unique extension with f == 0 at each next modulus.
    """
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    if M < 4:
        raise ValueError("M must be >= 4")
    seeds = (0, 2) if parity == "even" else (1, 3)
    cands = [x for x in seeds if form.eval_mod(x, 4) == 0]
    if not cands:
        raise NoRootError(f"no {parity} residue mod 4 annihilates the form mod 16")
    if len(cands) > 1:
        raise NonUniqueRootError(4, cands)
    r = cands[0]
    for target in range(5, M + 1):
        step = 1 << (target - 3)
        extensions = [x for x in (r, r + step) if form.eval_mod(x, target) == 0]
        if not extensions:
            raise NoRootError(f"no extension of {r} vanishes mod 2^{target}")
        if len(extensions) > 1:
            raise NonUniqueRootError(target, extensions)
        r = extensions[0]
    return PadicResidueZero(residue=r, precision=M, parity=parity)


def clarke_val_check(n_max: int, M: int = 24) -> ConjectureReport:
    """Check nu_2(S(n,5)) == -1 + nu_2(n - u) for 5 <= n <= n_max.

    u is the zero of the order-5 form on the parity branch of n, lifted
    to precision M.  When n - u vanishes mod 2**(M-2) the distance is not
    determined at this precision and the index is flagged inconclusive.
    """
    if n_max < 5:
        raise ValueError("n_max must be >= 5")
    report = ConjectureReport(
        "valuation from 2-adic zeros (k=5)", params={"n_max": n_max, "precision": M}
    )
    zeros = {
        0: clarke_zero(K5_FORM, "even", M),
        1: clarke_zero(K5_FORM, "odd", M),
    }
    report.details["zeros"] = {
        "even": zeros[0].residue,
        "odd": zeros[1].residue,
        "modulus_bits": M - 2,
    }
    for n in range(5, n_max + 1):
        u = zeros[n % 2]
        d = (n - u.residue) % u.modulus
        if d == 0:
            report.record_inconclusive(
                {"n": n, "reason": f"n == u mod 2^{M-2}; distance below resolution"}
            )
            continue
        predicted = nu_int(2, d) - 1
        computed = val2_stirling(n, 5)
        report.record(
            computed == predicted,
            {"n": n, "computed": computed, "predicted": predicted},
        )
    return report


def clarke_battery(
    scan_n_max: int = 500, k_max: int = 5, n_max: int = 2000, precision: int = 24
) -> ConjectureReport:
    """Full Clarke check: identity scan, zero congruences, distance formula.

    Runs the T-sum valuation scan up to scan_n_max, replays the distance
    formula for nu_2(S(n,5)) up to n_max, and asserts the residues mod 4
    of the two zeros of the order-5 form that it lifted to ``precision``
    bits (0 on the even branch, 3 on the odd one).
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if scan_n_max < k_max:
        raise ValueError(f"scan_n_max must be >= k_max ({k_max})")
    if precision < 4:
        raise ValueError("precision must be >= 4")
    report = ConjectureReport(
        "Clarke battery",
        params={
            "scan_n_max": scan_n_max,
            "k_max": k_max,
            "n_max": n_max,
            "precision": precision,
        },
    )
    report.merge_child(clarke_conjecture_check(scan_n_max, k_max), "t-sum identity")
    distance = clarke_val_check(n_max, precision)
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
