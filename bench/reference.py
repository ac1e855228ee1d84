"""Fixed CPU task, timed as a cold child next to every measured invocation.

On a shared 2-vCPU Xeon virtual machine (Python 3.11.7), speed changed by
up to 50% from one minute to the next, while a run lasts under a minute,
so raw wall times of runs made minutes apart are not comparable.  Dividing
each invocation's wall time by that of this task, run just before it,
cancels much of it: over five seeds, 25 s runs of raw wall time spread
16-18% (quartile distance over median); over ten seeds, the ratio 3-11%.

The task uses no stirval code, so a change to the package cannot move it.
Its work resembles the package's: power sums mod 2^128 stepped along n,
one multiply per term, as in the modular engine's range scan; modular
powers and binomials; a sum of fractions with growing denominators.
Prints a checksum so that the benchmark can tell it ran to the end.
"""

import math
from fractions import Fraction

MOD = 1 << 128

acc = 0
for k in range(1, 71):
    combs = [(-1) ** i * math.comb(k, i) for i in range(k)]
    bases = list(range(k, 0, -1))
    powers = [pow(b, k, MOD) for b in bases]
    for n in range(k, 111):
        r = sum(c * p for c, p in zip(combs, powers)) % MOD
        acc += (r & -r).bit_length()
        for i, b in enumerate(bases):
            powers[i] = powers[i] * b % MOD
for n in range(1, 8_000):
    acc += pow(3 + 2 * (n % 50), n, MOD) * math.comb(64, n % 64) % 1_000_003
total = Fraction(0)
for j in range(1, 1_000):
    total += Fraction(1 << j, j)
print(acc % 1_000_003, total.denominator % 1_000_003)
