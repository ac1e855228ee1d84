#!/usr/bin/env python3
"""The two Stirling routes, and why the modular one is enough.

The exact recurrence is the ground truth but its entries grow like n log n
bits.  The modular engine reduces k! * S(n,k) mod 2**M; any nonzero
residue pins the 2-adic valuation exactly, and the precision M doubles
automatically on the rare indices where the valuation spikes.
"""

import time

from stirval import (
    ModStirlingEngine,
    get_engine,
    nu_int,
    stirling_exact,
    t2_zeros,
    val2_stirling,
)


def main():
    print("== the two routes agree ==")
    n, k = 8, 5
    exact = stirling_exact(n, k)
    print(f"  S({n},{k}) = {exact} exactly; 5! * S = {120 * exact}")
    residue = get_engine(k).ksf_mod(n, 8)
    print(f"  residue mod 2^8 = {residue}  ->  nu_2(S) = {val2_stirling(n, k)}")
    print(f"  direct check: nu_2({exact}) = {nu_int(2, exact)}")

    print("\n== valuations far beyond exact reach ==")
    t0 = time.perf_counter()
    v = val2_stirling(10**6 + 156, 5)
    dt = time.perf_counter() - t0
    print(f"  nu_2(S(10^6 + 156, 5)) = {v}   [{dt * 1000:.2f} ms; the exact value")
    print("  would need ~2.3 million bits]")

    print("\n== adaptive precision in action ==")
    print("  nu_2(S(156,5)) = 11 sits well above its neighbours:")
    for n in range(150, 161):
        print(f"    n={n}: {val2_stirling(n, 5)}")
    u = next(x for x in t2_zeros(5, 110) if x % 2 == 0)
    n = u + (1 << 100)
    engine = ModStirlingEngine(5)
    print("  n = u + 2^100, with u the even 2-adic zero of 5 + 10*3^x + 5^x:")
    print(f"    5! * S(n,5) mod 2^64 = {engine.ksf_mod(n, 64)}, so M doubles to 128")
    print(f"    nu_2(S(n,5)) = {engine.val2(n)}; Clarke's distance formula gives "
          f"nu_2(n - u) - 1 = {nu_int(2, n - u) - 1}")
    print("  the doubling always ends, since 0 < 5! * S(n,5) <= 5^n")

    print("\n== batch scans ==")
    engine = get_engine(75)
    t0 = time.perf_counter()
    series = list(engine.val2_range(75, 2001))
    dt = time.perf_counter() - t0
    peak = max(v for _, v in series)
    print(f"  order 75 scanned to n=2000 in {dt:.2f}s; peak valuation {peak}")


if __name__ == "__main__":
    main()
