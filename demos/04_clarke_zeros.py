#!/usr/bin/env python3
"""nu_2(S(n,5)) as a distance to a 2-adic zero.

Clarke's identity equates the valuation of k! * S(n,k) with that of a
Stirling-like sum skipping even indices.  For k = 5 it turns the whole
valuation function into distances from two 2-adic numbers u0, u1: the
zeros of T_2(x,5) = 5 + 10*3^x + 5^x on the even and odd branches.
"""

from stirval import (
    clarke_conjecture_check,
    clarke_val_check,
    nu_int,
    t2_zeros,
    t_sum,
    t_terms,
    val2_stirling,
)


def main():
    print("== the skip-even sums track k! * S(n,k) exactly ==")
    print(f"  T_2(8,5) = {t_sum(2, 8, 5)}, nu_2 = {nu_int(2, t_sum(2, 8, 5))}")
    print(f"  5! * S(8,5) = 126000, nu_2 = {nu_int(2, 126000)}")
    report = clarke_conjecture_check(500, k_max=5)
    print(f"  scan to n=500: {report.status} ({report.checked} instances)")

    print("\n== lifting the zeros digit by digit ==")
    print(f"  T_2(x,5) terms (coefficient, base): {t_terms(2, 5)}")
    for M in (4, 8, 16, 24):
        print(f"  {M:2d} bits: x = {t2_zeros(5, M)} mod 2^{M - 2}")

    print("\n== distance formula: nu_2(S(n,5)) = nu_2(n - u) - 1 ==")
    M = 24
    u0 = next(u for u in t2_zeros(5, M) if u % 2 == 0)
    for n in (28, 92, 156, 412):
        print(
            f"  n={n:4d}: nu_2(n - u0) - 1 = {nu_int(2, n - u0) - 1}, "
            f"engine says {val2_stirling(n, 5)}"
        )
    check = clarke_val_check(2000)
    zeros = check.details["zeros"]
    print(
        f"  replay to n=2000: {check.status} ({check.checked} instances), "
        f"zeros {zeros['even']}, {zeros['odd']} mod 2^{zeros['modulus_bits']}"
    )

    print("\n== deeper ramification keeps every root ==")
    print(f"  T_2(x,6), {M} bits: x = {t2_zeros(6, M)} mod 2^{M - 2}")


if __name__ == "__main__":
    main()
