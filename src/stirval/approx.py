"""Empirical integer approximations to nu_2(S(n,5)).

A three-stage correction tower: f1 predicts the valuation itself, f2
predicts the error of f1 on its exception set I1 = {x1(m)}, and f3
predicts the residual error on the second exception set I2 = {x2(m)}.
The constants inside the formulas are taken as given; nothing here
derives them.
"""

from __future__ import annotations

import math

from .padic import Valuation, nu_int
from .reports import ConjectureReport
from .stirling import val2_stirling


def lambda_p(p: int, m: int) -> int:
    """1 if (m mod p) is odd, else 0."""
    return (m % p) % 2


def f1(m: int) -> int:
    """First-stage predictor: floor((m+1)/2) + 112*l2(m) + 50*l2(m+1)."""
    _check_domain(m)
    return (m + 1) // 2 + 112 * lambda_p(2, m) + 50 * lambda_p(2, m + 1)


def x1(m: int) -> int:
    """m-th element of the first exception set I1 (strictly increasing)."""
    _check_domain(m)
    return 156 + 125 * (4 * m // 3) + 6 * ((2 * m + 1) // 3)


def x2(m: int) -> int:
    """m-th element of the second exception set I2 (strictly increasing)."""
    _check_domain(m)
    return 109 + 107 * ((4 * m + 2) // 3) + 85 * ((4 * m + 1) // 3)


def _check_domain(m: int) -> None:
    if m < 0:
        raise ValueError("m must be >= 0")


# x1(m + 3) = x1(m) + 512 and x2(m + 3) = x2(m) + 768 (the floors grow by 4 and 2, and
# by 4 and 4), so each set is three residue classes, counted from x(0), x(1) and x(2) on.
_I1 = [(x1(i), 512) for i in range(3)]
_I2 = [(x2(i), 768) for i in range(3)]


def _member(n: int, classes: list[tuple[int, int]]) -> bool:
    return any(n >= a and (n - a) % period == 0 for a, period in classes)


def _elements(classes: list[tuple[int, int]], bound: int) -> list[int]:
    return sorted(v for a, period in classes for v in range(a, bound + 1, period))


def in_I1(n: int) -> bool:
    """Membership in I1 = {x1(m) : m >= 0}, from its residue classes mod 512."""
    return _member(n, _I1)


def in_I2(n: int) -> bool:
    """Membership in I2 = {x2(m) : m >= 0}, from its residue classes mod 768."""
    return _member(n, _I2)


def i1_elements(bound: int) -> list[int]:
    """All elements of I1 that are <= bound, in increasing order, so enumerate gives m."""
    return _elements(_I1, bound)


def aux_indicators(m: int) -> tuple[int, int, int]:
    """The triple (m3, alpha, beta) steering the second and third stages.

        m3(m)    = (m+2) mod 3
        alpha(m) = l3(m+2) * (1 + l3(m)) + l2(m+1) * l3(m)
        beta(m)  = alpha(m) + (-1)^(m+1) * l3(m)
    """
    m3 = (m + 2) % 3
    alpha = lambda_p(3, m + 2) * (1 + lambda_p(3, m)) + lambda_p(2, m + 1) * lambda_p(3, m)
    beta = alpha + (-1) ** (m + 1) * lambda_p(3, m)
    return m3, alpha, beta


def f2(m: int) -> int:
    """Second-stage predictor: C(2*m3, m3)*floor((m+2)/3) + 208*l3(m+1) + 27*l2(m)*l3(m)."""
    _check_domain(m)
    m3 = (m + 2) % 3
    return (
        math.comb(2 * m3, m3) * ((m + 2) // 3)
        + 208 * lambda_p(3, m + 1)
        + 27 * lambda_p(2, m) * lambda_p(3, m)
    )


def f3(m: int) -> int:
    """Third-stage predictor; f3(0) = 0, and f3(m) >= 4 for every m >= 1."""
    _check_domain(m)
    l3 = lambda_p(3, m)
    return 4 ** (1 - l3) * ((m + 2) // 3) + l3 * (
        85 * l3 + 8 * lambda_p(2, m + 1) + 2 * lambda_p(3, m + 1)
    )


def _sign(exponent: int) -> int:
    return -1 if exponent % 2 else 1


def err1(m: int) -> Valuation:
    """Prediction error of the first stage: nu_2(S(m,5)) - nu_2(f1(m)).

    Defined for m >= 5 (below that S(m,5) = 0).  f1 never vanishes, so
    the result is a finite integer.
    """
    if m < 5:
        raise ValueError("err1 needs m >= 5")
    return val2_stirling(m, 5) - nu_int(2, f1(m))


def err2(m: int) -> Valuation:
    """Residual error of the second stage: err1(x1(m)) - (-1)^alpha * nu_2(f2(m))."""
    _, alpha, _ = aux_indicators(m)
    return err1(x1(m)) - _sign(alpha) * nu_int(2, f2(m))


def approx_report(m_max: int = 2000) -> ConjectureReport:
    """Check the whole tower against the modular engine up to m_max.

    (a) the set of m <= m_max where nu_2(S(m,5)) != nu_2(f1(m)) must equal
        I1 within [5, m_max];
    (b) on I1, err1(x1(m)) must equal (-1)^alpha(m) * nu_2(f2(m)) unless
        m itself lies in I2 (exceptions there are recorded, not failures);
    (c) the third stage has no stated exception set, so its agreement
        census at the points x2(m) is reported in full with no verdict.
    """
    if m_max < 156:
        raise ValueError("m_max must be >= 156 (below that no exceptions exist)")
    report = ConjectureReport("approximation tower for nu_2(S(n,5))", params={"m_max": m_max})

    disagreements = [m for m in range(5, m_max + 1) if err1(m) != 0]
    expected = i1_elements(m_max)
    report.details["stage1"] = {
        "disagreements": disagreements,
        "expected_I1": expected,
    }
    report.record(
        disagreements == expected,
        {"stage": 1, "unexpected": sorted(set(disagreements) ^ set(expected))},
    )

    stage2 = []
    for m, point in enumerate(i1_elements(m_max)):
        _, alpha, _ = aux_indicators(m)
        predicted = _sign(alpha) * nu_int(2, f2(m))
        actual = err1(point)
        excepted = in_I2(m)
        entry = {
            "m": m,
            "x1": point,
            "err1": actual,
            "predicted": predicted,
            "m_in_I2": excepted,
        }
        stage2.append(entry)
        report.record(actual == predicted or excepted, {"stage": 2, **entry})
    report.details["stage2"] = stage2

    stage3 = []
    for m, point in enumerate(_elements(_I2, m_max)):
        _, _, beta_at_point = aux_indicators(point)
        # point = x2(m) >= 109 and f3 vanishes only at 0, so the valuation is finite
        predicted = _sign(beta_at_point) * nu_int(2, f3(point))
        actual = err2(point)
        stage3.append(
            {
                "m": m,
                "x2": point,
                "err2": actual,
                "predicted": predicted,
                "agrees": actual == predicted,
            }
        )
    report.details["stage3"] = {
        "census": stage3,
        "agreements": sum(1 for e in stage3 if e["agrees"]),
        "total": len(stage3),
        "note": "no stated exception set; census only, not asserted",
    }
    return report
