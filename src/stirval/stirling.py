"""Stirling numbers of the second kind, and nu_2 of them by three routes.

* :func:`stirling_exact` is the exact oracle: big-integer dynamic
  programming on the recurrence S(n,k) = S(n-1,k-1) + k*S(n-1,k), kept
  column by column up to the largest k asked for.  It checks the closed
  forms and the other two routes.
* :class:`ModStirlingEngine` evaluates T = k! * S(n,k) modulo 2**M through
  the alternating binomial sum and extracts nu_2(S(n,k)) from the residue.
  :func:`exp_sums`, the one kernel for such sums, gives a single n by
  its first value and the head of a far scan by its steps.  A scan of one
  column k runs mod 2**32 on x^k / prod_{j<=k} (1 - j x) (Fiduccia's
  blocks, :func:`recurrence_mod`), halved: the even factors leave a
  numerator E of 32 terms (:func:`column_e`), since h_t is homogeneous
  and so 2**t divides its coefficient t, and the odd ones a recurrence of
  order K = ceil(k/2), Q_o from :func:`column_q`, which holds from
  n = k + 32.  The first block is E / Q_o from n = k; a scan that starts
  more than k*K/2 indices past k takes a head of K values from exp_sums
  instead.  Each block is read back with one struct unpack and handed out
  a block at a time.
  :func:`val2_rows` evaluates the same sum for every k <= k_max at a few
  n from one row of powers b**n mod 2**M, shared by every k, where
  exp_sums per k would take about k_max**2 / 2 powers per n.  A run of
  consecutive indices takes one power row: each later row steps from the
  one before by k!S(n,k) = k((k-1)!S(n-1,k-1) + k!S(n-1,k)).
* :func:`triangle_rows` runs the same recurrence as the oracle modulo 2**M
  on whole rows, each packed into one int with a slot per k, so one step
  is a few big-integer shifts, ANDs and adds.  It serves the inequality of
  the identity battery over the whole triangle k <= n <= n_max.

The routes are kept deliberately separate so each can certify the
others; the test suite checks them against each other on a full grid.
"""

from __future__ import annotations

import math
import struct
from functools import cache, lru_cache
from itertools import repeat
from operator import mul
from typing import Iterable, Iterator, Sequence

from .padic import INFINITE, Valuation, digit_sum, legendre_factorial_val, nu_int
from .reports import ConjectureReport

# (coefficient, base) pairs of an exponential sum f(n) = sum c * b**n
Terms = tuple[tuple[int, int], ...]

# Column c of the exact oracle: [S(c, c), S(c + 1, c), ...], only appended to.
_columns: list[list[int]] = [[1]]


def stirling_exact(n: int, k: int) -> int:
    """Exact S(n,k) from the shared table of columns, grown on a miss.

    Column c holds S(c + i, c) for i = 0, 1, ....  A miss grows columns
    0..k to n - k + 1 entries each by S(n,c) = S(n-1,c-1) + c*S(n-1,c) on
    big integers, so the table holds O(n*k) entries.  The growth extends the
    shared lists in place and is not thread-safe: scan over processes.
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    if k > n:
        return 0
    size = n - k + 1
    if k < len(_columns) and size <= len(_columns[k]):
        return _columns[k][n - k]
    left = _columns[0]
    left.extend([0] * (size - len(left)))  # S(i, 0) = 0 for i >= 1
    for c in range(1, k + 1):
        if c == len(_columns):
            _columns.append([1])  # S(c, c)
        column = _columns[c]
        for i in range(len(column), size):
            # S(c + i, c) = S(c + i - 1, c - 1) + c * S(c + i - 1, c)
            column.append(left[i] + c * column[i - 1])
        left = column
    return _columns[k][n - k]


def stirling_closed_small(n: int, k: int) -> int:
    """Closed-form S(n,k) for 1 <= k <= 5, n >= k.

    The power sums below are exactly divisible by (k-1)!; the division is
    checked rather than assumed.
    """
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    if k == 1:
        return 1
    if k == 2:
        return (1 << (n - 1)) - 1
    if k == 3:
        num, den = 3 ** (n - 1) - (1 << n) + 1, 2
    elif k == 4:
        num, den = 4 ** (n - 1) + 3 * (1 << (n - 1)) - 3**n - 1, 6
    elif k == 5:
        num, den = 5 ** (n - 1) - 4**n + 2 * 3**n - (1 << (n + 1)) + 1, 24
    else:
        raise ValueError(f"closed forms cover k in 1..5, got k={k}")
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"closed form for S({n},{k}) not integral")
    return q


def val2_closed_small(n: int, k: int) -> int:
    """nu_2(S(n,k)) for 1 <= k <= 4 directly from the parity of n."""
    if not 1 <= k <= 4:
        raise ValueError(f"parity formulas cover k in 1..4, got k={k}")
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    if k <= 2:
        return 0
    if k == 3:
        return 1 if n % 2 == 0 else 0
    return 1 if n % 2 == 1 else 0


def ksf_terms(k: int) -> Terms:
    """The terms of k! * S(n,k) = sum_{b=1}^{k} (-1)^(k-b) C(k,b) b^n, bases ascending.

    The one definition of this sum: the engine evaluates all of it, and
    ``t_terms`` keeps the terms whose base is prime to p.
    """
    return tuple(
        (-math.comb(k, b) if (k - b) & 1 else math.comb(k, b), b) for b in range(1, k + 1)
    )


def t_terms(p: int, k: int) -> Terms:
    """The terms of ``ksf_terms(k)`` whose base is prime to p: Lundell's T_p(x, k).

    For p = 2 it is the odd-base part T_2(x, k).  Every even-base term has
    valuation >= n, so T_2(n, k) == k! * S(n,k) mod 2**n.
    """
    return tuple((c, b) for c, b in ksf_terms(k) if b % p)


def exp_sums(terms: Terms, start: int, M: int) -> Iterator[int]:
    """Yield f(start), f(start + 1), ... mod 2**M for f(n) = sum c * b**n.

    The first value takes one modular power per term, so
    ``next(exp_sums(terms, n, M))`` is f(n) mod 2**M; each later step
    updates each term c * b**n mod 2**M by one multiplication.
    """
    bases = [b for _, b in terms]
    mask = (1 << M) - 1
    values = [c * pow(b, start, 1 << M) for c, b in terms]
    while True:
        yield sum(values) & mask
        values = [v * b & mask for v, b in zip(values, bases)]


class ModStirlingEngine:
    """Evaluates k! * S(n,k) mod 2**M and extracts 2-adic valuations.

    The alternating sum ``ksf_terms(k)`` is reduced mod 2**M by the first
    value of :func:`exp_sums`, one square-and-multiply power per term, so
    a single call costs O(k log n) word operations.  If the residue is
    nonzero then nu_2 of the full integer equals nu_2 of the residue,
    which makes the extraction sound at any precision.

    Precision starts at ``m_start``: 64 bits, doubled until it is more
    than 32 bits above nu_2(k!).  Legendre's formula makes every residue
    zero at M <= nu_2(k!), and the 32 spare bits let most residues decide
    there.
    val2 doubles M while the residue vanishes.  For n >= k the integer
    k! * S(n,k) lies in 1..k**n, so every M > n * log2(k) leaves a nonzero
    residue and the doubling always ends.  val2_range carries a scan on
    along the column's halved recurrence mod 2**32, from n = k or from a
    head of K = ceil(k/2) indices evaluated at m_start.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("engine order k must be >= 1")
        self.k = k
        self.fact_val = legendre_factorial_val(2, k)
        self._terms = ksf_terms(k)
        self.m_start = 64
        while self.m_start <= self.fact_val + 32:
            self.m_start *= 2

    def ksf_mod(self, n: int, M: int) -> int:
        """Residue of k! * S(n,k) modulo 2**M, for n >= 1."""
        if n < 1:
            raise ValueError("ksf_mod requires n >= 1")
        if M < 1:
            raise ValueError(f"need M >= 1, got M={M}")
        return next(exp_sums(self._terms, n, M))

    def val2(self, n: int) -> Valuation:
        """nu_2(S(n,k)); INFINITE when n < k (there S(n,k) = 0)."""
        if n < self.k:
            return INFINITE
        M = self.m_start
        while not (r := self.ksf_mod(n, M)):
            M *= 2
        return nu_int(2, r) - self.fact_val

    def val2_range(self, start: int, stop: int) -> Iterator[tuple[int, Valuation]]:
        """Yield (n, nu_2(S(n,k))) for start <= n < stop.

        Batch variant for scans over n.  Every value is u * S(n,k) mod 2**32
        for an odd u, which has the valuation of S(n,k) when it is nonzero.
        Mod 2**32, sum_n S(n,k) x^n = x^k E(x) / Q_o(x), with Q_o =
        prod_{j odd <= k} (1 - j x) of order K = ceil(k/2) (:func:`column_q`)
        and E the numerator of the even factors (:func:`column_e`): h_t is
        homogeneous, so 2**t divides E's coefficient t and E has 32 terms
        mod 2**32, and the column follows its order-K recurrence from n =
        k + 32 (:func:`recurrence_mod`).  Three routes, by where the range
        lies:

        * From k: a range of two or more indices that starts fewer than
          max(k*K/2, 32) indices past k takes the recurrence's first block,
          E / Q_o from n = k (u = 1), and skips the values below start.
        * A far start: any other range takes its first K indices from one
          exp_sums pass at the precision where val2 also starts, each
          residue shifted right by nu_2(k!) (u = odd(k!)).  If it reads
          more, the recurrence runs on from those K values, with the
          numerator R = Q_o * head mod x^K; the head lies at n >= k + 32
          - K, where the recurrence holds.
        * A single index takes one exp_sums value, as val2 does, so both
          climb one ladder.  Up to k = 100 that is cheaper than the
          recurrence's set-up (0.10 against 0.21 ms at k = 100); from
          k = 300 on it is dearer (0.9 against 0.7 ms at k = 300, 26
          against 5 ms at k = 1000), as it is for val2.

        The switch is where the two routes cost about the same (Python
        3.11.7 on a shared 2-vCPU host, 1000 indices from k + D).  The far
        route costs 1.5 ms at k = 64, 2.7 ms at k = 100, 12 ms at k = 300,
        45-50 ms at k = 500 and 225-270 ms at k = 1000, nearly all of it the
        head; the scan from k costs as much at about D = 2000, 3500, 15000,
        45000 and 170000, and k*K/2 = 1024, 2500, 22500, 62500 and 250000.
        On either side of the switch the route taken costs at most 1.4 times
        the other.

        Each block is walked whole: a block without a zero value is handed
        out as lazy (n, nu_int(2, v)) pairs, so nu_int runs once per value
        read, and in a block with one each zero value goes to val2.
        Results are identical to per-n val2 calls.
        """
        if start < 1:
            raise ValueError("val2_range requires start >= 1")
        k, K = self.k, (self.k + 1) // 2
        for n in range(start, min(k, stop)):
            yield n, INFINITE
        start = max(start, k)
        if start >= stop:
            return
        # A nonzero value mod 2**32 has the valuation of S(n,k), and a zero
        # one goes to val2.  m_start keeps 32 spare bits above nu_2(k!), so
        # a residue mod 2**m_start shifted right by nu_2(k!) is exact mod 2**32.
        mask = (1 << 32) - 1
        if stop - start > 1 and start - k < max(k * K // 2, 32):
            first, blocks = k, recurrence_mod(column_q(k), column_e(k), stop - k)
        else:
            first = start
            residues = exp_sums(self._terms, start, self.m_start)
            head = [(r >> self.fact_val) & mask for _, r in zip(range(start, stop)[:K], residues)]
            blocks = [head]
            if start + K < stop:
                q = column_q(k)
                numerator = [sum(map(mul, q[i::-1], head)) & mask for i in range(K)]
                blocks = recurrence_mod(q, numerator, stop - start)
        n = first  # the index of part[0]
        for part in blocks:
            end = n + len(part)
            if end > start:
                if n < start or end > stop:
                    part, n = part[max(start - n, 0) : stop - n], max(n, start)
                indices = range(n, n + len(part))
                if 0 in part:
                    for i, v in zip(indices, part):
                        yield i, (nu_int(2, v) if v else self.val2(i))
                else:
                    yield from zip(indices, map(nu_int, repeat(2), part))
                if end >= stop:
                    return
            n = end


def _linear_product(js: range, count: int, W: int) -> int:
    """prod_{j in js} (1 - j x) mod (2**32, x**count), packed in W-bit slots, W >= 64.

    Multiplying by 1 - j x is one multiply-add, x + (-j mod 2**32) * (x
    shifted up a slot), and an AND with ``full`` reduces every slot mod
    2**32 and drops the slots from ``count`` on.  Before the AND a slot
    holds at most (2**32 - 1) + (2**32 - 1)**2 < 2**64, so no slot carries
    into the next.
    """
    top = (1 << 32) - 1
    full = top * (((1 << (W * count)) - 1) // ((1 << W) - 1))  # top in slots 0..count-1
    x = 1
    for j in js:
        x = (x + (-j & top) * (x << W)) & full
    return x


def column_q(k: int) -> tuple[int, ...]:
    """(q_0, ..., q_K) mod 2**32, where Q_o(x) = prod_{j odd <= k} (1 - j x) = sum q_i x^i.

    Column k needs only this odd half of Q = prod_{j<=k} (1 - j x), with
    h = floor(k/2) and K = ceil(k/2):

    * 1 / prod_{j even} (1 - j x) has coefficient t h_t(2, ..., 2h) =
      2**t h_t(1, ..., h), since h_t is homogeneous of degree t;
    * so mod 2**32 it is E, a polynomial of 32 terms (:func:`column_e`);
    * so Q_o * sum_i S(k+i,k) x^i == E has no term of degree >= 32: the
      column follows the order-K recurrence of Q_o from n = k + 32.

    Q_o is built by :func:`_linear_product` in one int with one 8-byte slot
    per coefficient, and one struct unpack reads the K + 1 slots.
    """
    Wb = 8  # slot width in bytes
    K = (k + 1) // 2
    x = _linear_product(range(1, k + 1, 2), K + 1, 8 * Wb)
    return struct.unpack("<" + f"I{Wb - 4}x" * (K + 1), x.to_bytes(Wb * (K + 1), "little"))


def column_e(k: int) -> tuple[int, ...]:
    """(e_0, ..., e_31), where E(x) = 1 / prod_{j even <= k} (1 - j x) mod (2**32, x**32).

    With h = floor(k/2), e_t = h_t(2, 4, ..., 2h) = 2**t h_t(1, ..., h) =
    2**t S(h + t, h), which vanishes mod 2**32 for t >= 32 (the proof that
    column k then needs only Q_o is at :func:`column_q`).

    The even part of Q is built by :func:`_linear_product` in 32 slots of 9
    bytes (its coefficient t is divisible by 2**t, so none is dropped mod
    2**32) and inverted there by :func:`_inverse`, whose slots need 64 +
    bitlen(32) + 1 = 71 bits.
    """
    Wb, terms = 9, 32  # slot width in bytes; the terms of E left mod 2**32
    E = _inverse(_linear_product(range(2, k + 1, 2), terms, 8 * Wb), terms, 8 * Wb)
    return struct.unpack("<" + f"I{Wb - 4}x" * terms, E.to_bytes(Wb * terms, "little"))


def _pack(values: list[int], W: int) -> int:
    """One int holding values[i] in the W-bit slot at bit W*i; each 0 <= value < 2**W.

    The one slot packer of both packed kernels, :func:`recurrence_mod` and
    :func:`triangle_rows`.  Each distinct value is formatted once: most hold a few.
    """
    digits = {v: format(v, f"0{W}b") for v in set(values)}
    return int("".join([digits[v] for v in reversed(values)]), 2)


def _narrow(packed: int, count: int, Wb: int, Nb: int) -> int:
    """``packed`` with its ``count`` Wb-byte slots moved into Nb-byte slots, Nb < Wb.

    Every slot value must be below 2**32: only its low 4 bytes are copied.
    """
    wide, narrow = packed.to_bytes(count * Wb, "little"), bytearray(count * Nb)
    for i in range(4):
        narrow[i::Nb] = wide[i::Wb]
    return int.from_bytes(narrow, "little")


def _inverse(P: int, L: int, W: int) -> int:
    """1/P mod (2**32, x**L) in W-bit slots, for P packed in W-bit slots with p_0 = 1.

    Newton's iteration g <- g (2 - P g) doubles the terms that are right,
    m of them, up to L.  A coefficient of either product sums at most L
    products of two numbers below 2**32, so W >= 64 + bitlen(L) + 1 keeps
    the slots apart; each slot is then reduced mod 2**32 by an AND with
    ``reduce``, 2**32 - 1 in slots 0..m-1.  ``ones`` = (2**(W*L) - 1) /
    (2**W - 1) is one division where a ``_pack`` call would format L slots.
    """
    top = (1 << 32) - 1
    ones = ((1 << (W * L)) - 1) // ((1 << W) - 1)  # 1 in each of L slots
    block = top * ones
    inverse, m = 1, 1
    while m < L:
        m = min(2 * m, L)
        reduce = block & ((1 << (W * m)) - 1)  # top in slots 0..m-1
        t = (inverse * ((P * inverse) & reduce)) & reduce
        # 2g - t per slot: top - t_i never borrows, and the added 1 makes it 2**32 - t_i
        inverse = ((inverse << 1) + (reduce - t) + (ones & reduce)) & reduce
    return inverse


def recurrence_mod(
    q: Sequence[int], numerator: Sequence[int], needed: int
) -> Iterator[tuple[int, ...]]:
    """Yield a_0, a_1, ... mod 2**32 in blocks, each a tuple, where
    sum_n a_n x^n = N(x) / Q(x) mod 2**32 for Q(x) = sum_{i<=K} q_i x^i with
    q_0 == 1 and q read mod 2**32, and N(x) = sum_i numerator[i] x^i with
    every coefficient below 2**32 and at most max(K, 32) of them.  The
    caller reads at most ``needed`` terms; that only caps the block length.

    Q * A = N has no term of degree >= len(N), so a_n follows the order-K
    recurrence sum_{i<=K} q_i a_(n-i) == 0 from n = max(K, len(N)) on; a
    column k takes Q_o and its E of 32 terms (:func:`column_q`).  The
    first block is A = N * (1/Q) mod x^L, all L terms.  A later block starts
    from the last K terms of the one before, a_s, ..., a_(s+K-1) with s + K
    = L >= len(N): R = Q * (a_s + ... + a_(s+K-1) x^(K-1)) mod x^K and
    R / Q mod x^L give L terms from those K (Fiduccia, SIAM J. Comput. 14,
    1985), so each later block yields L - K new terms.  L is 16K and at
    least 128, cut to the ``needed`` terms, and at least K + 32.  1/Q mod
    x^L is computed once, by :func:`_inverse`.

    A polynomial is packed by :func:`_pack` into one int with one W-bit
    slot per coefficient (Kronecker substitution), so each product is one
    big-integer multiply.  Newton's slots take W = 64 + bitlen(L) + 1
    bits, rounded up to a byte.  A coefficient of a block product sums at
    most max(K, 32) products: one per slot of N, of the window or of R, so
    it stays below max(K, 32) * 2**64 < 2**(64 + bitlen(max(K, 32))).
    Where those bits round up to fewer bytes, Q and 1/Q move once into such
    slots (:func:`_narrow`), and each block slot is reduced mod 2**32 by an
    AND with ``block`` (2**32 - 1 in each of L slots).  One precompiled
    struct reads the L - K new terms of a block, each from the low 4 bytes
    of its reduced slot.
    """
    K = len(q) - 1
    L = max(min(max(16 * K, 128), needed), K + 32)
    Wb = (64 + L.bit_length() + 8) // 8  # Newton's slot width in bytes
    W = 8 * Wb
    top = (1 << 32) - 1
    Q = _pack([c & top for c in q], W)
    inverse = _inverse(Q, L, W)
    Bb = (64 + max(K, 32).bit_length() + 7) // 8  # a block product's slot width in bytes
    if Bb < Wb:
        Q, inverse = _narrow(Q, K + 1, Wb, Bb), _narrow(inverse, L, Wb, Bb)
        Wb, W = Bb, 8 * Bb
    block = top * (((1 << (W * L)) - 1) // ((1 << W) - 1))
    terms = (_pack(numerator, W) * inverse) & block
    yield struct.unpack("<" + f"I{Wb - 4}x" * L, terms.to_bytes(L * Wb, "little"))
    unpack = struct.Struct("<" + f"I{Wb - 4}x" * (L - K)).unpack_from
    low = block & ((1 << (W * K)) - 1)
    while True:
        window = terms >> (W * (L - K))
        terms = (((Q * window) & low) * inverse) & block
        yield unpack(terms.to_bytes(L * Wb, "little"), K * Wb)


@cache
def get_engine(k: int) -> ModStirlingEngine:
    """Shared engine for order k (engines are stateless)."""
    return ModStirlingEngine(k)


def triangle_width(n_max: int, M: int) -> int:
    """Slot width W of :func:`triangle_rows`: M + n_max.bit_length() bits.

    One step puts S(n-1,k-1) + k*S(n-1,k) into slot k, with both residues
    below 2**M and k <= n_max, so at most (n_max + 1) * (2**M - 1).  That is
    below 2**W, since n_max + 1 <= 2**n_max.bit_length(), so no step carries
    into the next slot.
    """
    return M + n_max.bit_length()


def triangle_rows(n_max: int, M: int) -> Iterator[tuple[int, int]]:
    """Yield (n, row) for n = 1..n_max, where row packs S(n,k) mod 2**M for k = 0..n_max.

    Slot k is the W-bit field at bit W*k, W = :func:`triangle_width`, and
    holds the residue in its low M bits; slots k > n are 0.  One step applies
    S(n,k) = S(n-1,k-1) + k*S(n-1,k) to every slot at once: the row shifted
    up one slot gives S(n-1,k-1), and k*S(n-1,k) is the sum over bits b of
    the slots whose index k has bit b set (``planes[b]`` keeps their M-bit
    fields), each shifted left by b.  ``field`` keeps the low M bits of
    slots 0..n_max, which reduces every slot mod 2**M.
    """
    if n_max < 1 or M < 1:
        raise ValueError(f"need n_max >= 1 and M >= 1, got n_max={n_max}, M={M}")
    W = triangle_width(n_max, M)
    top = (1 << M) - 1
    field = _pack([top] * (n_max + 1), W)
    planes = [
        (b, _pack([top if k >> b & 1 else 0 for k in range(n_max + 1)], W))
        for b in range(n_max.bit_length())
    ]
    row = 1  # S(0, 0)
    for n in range(1, n_max + 1):
        row = ((row << W) + sum((row & plane) << b for b, plane in planes)) & field
        yield n, row


@lru_cache(maxsize=1 << 16)
def val2_stirling(n: int, k: int) -> Valuation:
    """nu_2(S(n,k)) via the adaptive modular engine; INFINITE for n < k.  Caches 2**16 values."""
    return get_engine(k).val2(n)


def val2_rows(ns: Iterable[int], k_max: int) -> dict[int, list[Valuation]]:
    """{n: [nu_2(S(n,k)) for k = 1..k_max]} for each n in ns, taken in increasing order.

    Each row holds k! * S(n,k) mod 2**M for k <= min(n, k_max).  Row n
    steps from row n - 1 when that was the row just computed and n - 1 >= 1,
    by k!S(n,k) = k((k-1)!S(n-1,k-1) + k!S(n-1,k)), a few operations per k.
    Any other n takes one row of powers b**n mod 2**M for b <= min(n, k_max),
    dotted with the coefficients of ``ksf_terms(k)`` (row 0 is empty: its
    S(0,0) = 1 lies outside the k >= 1 slots).  So a run of consecutive
    indices takes one power row.  M is the engine's start precision for
    k_max, which is at least that of every k <= k_max since m_start does
    not decrease in k.  A nonzero residue fixes the valuation exactly, a
    zero one goes to val2_stirling, and k > n gives INFINITE.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    mod = 1 << get_engine(k_max).m_start
    coefs = [[c for c, _ in ksf_terms(k)] for k in range(1, k_max + 1)]
    fact_vals = [legendre_factorial_val(2, k) for k in range(1, k_max + 1)]
    rows, last, residues = {}, -1, []
    for n in sorted(ns):
        if n < 0:
            raise ValueError(f"need n >= 0, got n={n}")
        ks = range(1, min(n, k_max) + 1)
        if last == n - 1 >= 1:
            residues = [k * (a + b) % mod for k, a, b in zip(ks, [0] + residues, residues + [0])]
        else:
            powers = [pow(b, n, mod) for b in ks]
            residues = [sum(map(mul, c, powers)) % mod for c in coefs[: len(powers)]]
        rows[n] = [
            nu_int(2, r) - fact_val if r else val2_stirling(n, k)
            for k, r, fact_val in zip(ks, residues, fact_vals)
        ] + [INFINITE] * (k_max - len(ks))
        last = n
    return rows


def de_wannemacker_gap(n: int, k: int) -> int:
    """Slack in De Wannemacker's inequality: nu_2(S(n,k)) - s_2(k) + s_2(n).

    Nonnegative for all 1 <= k <= n; the test suite enforces this on a
    full grid.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    # S(n,k) >= 1 for 1 <= k <= n, so the valuation is finite
    return _gap(val2_stirling(n, k), digit_sum(2, k), n)


def de_wannemacker_gaps(k: int, n_max: int) -> Iterator[tuple[int, int]]:
    """Yield (n, de_wannemacker_gap(n, k)) for k <= n <= n_max from one val2_range scan."""
    s_k = digit_sum(2, k)
    for n, v in get_engine(k).val2_range(k, n_max + 1):
        yield n, _gap(v, s_k, n)


def _gap(v: Valuation, s_k: int, n: int) -> int:
    """The gap from v = nu_2(S(n,k)) and s_k = s_2(k)."""
    return v - s_k + digit_sum(2, n)


def special_values_check(q_max: int, k_max: int) -> ConjectureReport:
    """Verify four exact valuation families at indices near powers of two.

    Over 1 <= q <= q_max and 1 <= k <= min(2**q, k_max):

      A. nu_2(S(2^q, k))      == s_2(k) - 1
      B. nu_2(S(2^q + 1, k+1)) == s_2(k) - 1
      C. nu_2(S(2^q + 2, k+2)) == s_2(k) - 1    when k is even,
                                == s_2(k+1) - 1 when k == 3 (mod 4)
      D. nu_2(k! * S(a*2^q, k)) == k - 1        for odd a, q >= k - 2
         (family D scans a in {1,3,5,7} with a*2^q >= k)

    Families A-C read one :func:`val2_rows` call over n in {2^q, 2^q + 1,
    2^q + 2}: one power row per 2^q, and the two rows after it stepped.
    Family D reads the engine (:func:`val2_stirling`) per value.  Each check
    is one ``report.record`` call, with a payload only when it fails.
    """
    if q_max < 3:
        raise ValueError("q_max must be >= 3")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    report = ConjectureReport(
        "special values near powers of two", params={"q_max": q_max, "k_max": k_max}
    )

    def expect(family: str, n: int, k: int, got: Valuation, want: int) -> None:
        if got == want:
            report.record(True)
        else:
            report.record(
                False, {"family": family, "n": n, "k": k, "computed": got, "expected": want}
            )

    # row r of n = 2^q + i holds nu_2(S(n, k)) at r[k - 1]
    rows = val2_rows({(1 << q) + i for q in range(1, q_max + 1) for i in range(3)}, k_max + 2)
    s = [digit_sum(2, k) for k in range(k_max + 2)]
    for q in range(1, q_max + 1):
        n = 1 << q
        row_a, row_b, row_c = rows[n], rows[n + 1], rows[n + 2]
        for k in range(1, min(n, k_max) + 1):
            expect("A", n, k, row_a[k - 1], s[k] - 1)
            expect("B", n + 1, k + 1, row_b[k], s[k] - 1)
            if k % 2 == 0:
                expect("C", n + 2, k + 2, row_c[k + 1], s[k] - 1)
            elif (k + 1) % 4 == 0:
                expect("C", n + 2, k + 2, row_c[k + 1], s[k + 1] - 1)
    for k in range(1, k_max + 1):
        for q in range(max(k - 2, 0), q_max + 1):
            for a in (1, 3, 5, 7):
                n = a << q
                if n >= k:
                    v = val2_stirling(n, k) + legendre_factorial_val(2, k)
                    expect("D", n, k, v, k - 1)
    return report


def identity_battery(n_max: int = 300, q_max: int = 10, k_max: int = 64) -> ConjectureReport:
    """Elementary identity checks over a full grid, recorded a column at a time.

    * De Wannemacker's inequality nu_2(S(n,k)) >= s_2(k) - s_2(n) for all
      1 <= k <= n <= n_max: one AND per :func:`triangle_rows` row with a
      mask of the low s_2(k) - s_2(n) bits of each slot finds every failure,
    * the closed forms for k <= 5 against the exact oracle,
    * the parity valuation formulas for k <= 4 against the engine,
    * the special-value families near powers of two
      (:func:`special_values_check`: power rows for A-C, the engine for D).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    special = special_values_check(q_max, k_max)  # first: bad bounds fail before the grid
    report = ConjectureReport(
        "identity battery", params={"n_max": n_max, "q_max": q_max, "k_max": k_max}
    )
    M = n_max.bit_length()
    W, top = triangle_width(n_max, M), (1 << M) - 1
    s = [k.bit_count() for k in range(n_max + 1)]
    # slot k of masks[c] keeps the low s_2(k) - c bits, none if c >= s_2(k): the slots
    # are 2M bits wide, so what ``>> c`` moves into a slot's top M bits is cut off
    field = _pack([top] * (n_max + 1), W)
    ones = _pack([(1 << s_k) - 1 for s_k in s], W)
    masks = [ones >> c & field for c in range(M + 1)]
    failures = []
    for n, row in triangle_rows(n_max, M):
        flagged = row & masks[s[n]]
        while flagged:
            k = (flagged.bit_length() - 1) // W
            v = nu_int(2, (row >> (W * k)) & top)
            failures.append((k, n, _gap(v, s[k], n)))
            flagged &= (1 << (W * k)) - 1
    report.record_many(
        n_max * (n_max + 1) // 2,
        [
            {"identity": "inequality gap", "n": n, "k": k, "gap": gap}
            for k, n, gap in sorted(failures)
        ],
    )
    for k in range(1, 6):
        ns = range(k, n_max + 1)
        stirling_exact(n_max, k)  # grows column k of the oracle to S(n_max, k) at once
        bad = [n for n in ns if stirling_closed_small(n, k) != _columns[k][n - k]]
        report.record_many(len(ns), [{"identity": "closed form", "n": n, "k": k} for n in bad])
    for k in range(1, 5):
        vs = list(get_engine(k).val2_range(k, n_max + 1))
        bad = [n for n, v in vs if val2_closed_small(n, k) != v]
        report.record_many(
            len(vs), [{"identity": "parity valuation", "n": n, "k": k} for n in bad]
        )
    report.merge_child(special, "special values")
    return report
