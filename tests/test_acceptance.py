"""Acceptance gate: one test per criterion, exact tolerances, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` for the per-criterion
listing.  Exact computation refutes two of the stated claims, and those two
criteria assert the refutation itself, pinned exactly, so that any change to
it turns them red:

* criterion 9: the level-count claim of the splitting conjecture fails at
  order 16.  Levels 4..10 each hold six certified non-constant classes, not
  2^(m0-2) = 4.  Every witness valuation is re-derived from the additive
  recurrence for S(n, 16), a route independent of the modular engine that
  produced it, and every constant class between them is proved constant;
* criterion 11: the true valuation of the weight-1 polylog partial sum is
  2^m + 2m - 2, exactly 2 above the stated 2^m + 2m - 4 at every m in
  4..12; the weight-2 value 2^m + m - 1 holds as stated.  Three routes
  assert both: the package's unreduced common-denominator sum (through
  cohen_sum), a residue mod 2^P of the termwise 2-adic expansion, which
  builds no Fraction, and a plain Fraction accumulation local to the test.
"""

from fractions import Fraction

from stirval import (
    ResidueClass,
    a_lm_val_check,
    approx_report,
    build_level_tree,
    clarke_conjecture_check,
    clarke_val_check,
    cohen_check,
    cohen_sum,
    de_wannemacker_gap,
    digit_sum,
    err1,
    exceptional_indices,
    get_engine,
    k5_structure_report,
    k5_surviving_chain,
    nu_int,
    nu_rat,
    power_lemma_report,
    prove_constant,
    stirling_exact,
    t2_zeros,
    triangle_rows,
    triangle_width,
    val2_closed_small,
    val2_stirling,
    verify_main_conjecture,
)

SAMPLES = 64


def _report(criterion: int, name: str, outcome: str = "PASS") -> None:
    print(f"criterion {criterion:02d} ({name}): {outcome}")


def test_01_golden_sequence_x():
    got = []
    for i in range(2, 9):
        got += [val2_stirling(4 * i, 5), val2_stirling(4 * i + 3, 5)]
    assert got == [1, 1, 3, 3, 1, 1, 2, 2, 1, 1, 6, 7, 1, 1]
    _report(1, "golden sequence X")


def test_02_golden_class_20_values():
    got = [val2_stirling(4 * i, 5) for i in range(2, 22)]
    assert got == [1, 3, 1, 2, 1, 6, 1, 2, 1, 3, 1, 2, 1, 4, 1, 2, 1, 3, 1, 2]
    _report(2, "golden class mod 4, first 20 values")


def test_03_exceptional_indices():
    scan = exceptional_indices(200).details
    assert scan["indices"] == [7, 39, 71, 103, 135, 167, 199]
    assert scan["pattern"] is True
    assert val2_stirling(156, 5) == 11
    _report(3, "exceptional indices and the value at 156")


def test_04_power_of_two_identities():
    for q in range(1, 13):
        n = 1 << q
        for k in range(1, min(n, 64) + 1):
            want = digit_sum(2, k) - 1
            assert val2_stirling(n, k) == want, (n, k)
            assert val2_stirling(n + 1, k + 1) == want, (n + 1, k + 1)
    _report(4, "power-of-two identity and companion")


def test_05_inequality_gap():
    for k in range(1, 301):
        s_k = digit_sum(2, k)
        for n, v in get_engine(k).val2_range(k, 301):
            assert v - s_k + digit_sum(2, n) >= 0, (n, k)
    # spot equivalence with the per-pair operation
    for n in range(1, 121):
        for k in range(1, n + 1):
            assert de_wannemacker_gap(n, k) >= 0
    _report(5, "inequality gap nonnegative to 300")


def test_06_small_order_closed_forms():
    for k in range(1, 5):
        for n, v in get_engine(k).val2_range(k, 1001):
            assert val2_closed_small(n, k) == v, (n, k)
    _report(6, "parity valuations for orders 1..4 to 1000")


def test_07_order5_structure():
    report = k5_structure_report(m_max=10, i_max=200)
    assert report.status == "CONSISTENT", report.counterexamples[:3]
    chain = k5_surviving_chain(10)
    assert [link.j for link in chain] == [0, 4, 12, 28, 28, 28, 156, 156, 156]
    assert [link.sibling_value for link in chain[1:]] == [1, 2, 3, 4, 5, 6, 7, 8]
    _report(7, "order-5 splitting structure")


def test_08_worked_examples_orders_10_and_11():
    tree10 = build_level_tree(10, m_max=5)
    rec5 = tree10.level(5)
    assert [c.j for c in rec5.survivors] == [7, 8, 9, 14]
    assert {c.j: v for c, v in rec5.constants} == {23: 2, 24: 2, 25: 2, 30: 2}

    tree11 = build_level_tree(11, m_max=4)
    rec3 = tree11.level(3)
    assert [c.j for c in rec3.survivors] == [0, 1, 2, 7]
    assert {c.j: v for c, v in rec3.constants} == {3: 0, 5: 0, 4: 1, 6: 1}
    rec4 = tree11.level(4)
    assert dict((c.j, v) for c, v in rec4.constants)[2] == 2
    _report(8, "worked examples for orders 10 and 11")


def _column_valuations(k: int, ns) -> dict:
    """nu_2(S(n, k)) for n in ns, from S(n, c) = S(n-1, c-1) + c*S(n-1, c).

    Rows are truncated to columns <= k, so memory stays bounded however
    large n gets.
    """
    wanted = set(ns)
    row = [1] + [0] * k
    out = {}
    for n in range(1, max(wanted) + 1):
        row = [0] + [row[c - 1] + c * row[c] for c in range(1, k + 1)]
        if n in wanted:
            out[n] = nu_int(2, row[k])
    return out


def test_09_main_conjecture_nine_orders():
    for k in (5, 6, 7, 9, 10, 11, 13, 20):
        report = verify_main_conjecture(k, m_max=10, samples=SAMPLES)
        assert report.status == "CONSISTENT", (k, report.counterexamples[:2])

    # Order 16 (m0 = 4): part 2 expects 2^(m0-2) = 4 survivors per level m >= 4.
    report = verify_main_conjecture(16, m_max=10, samples=SAMPLES)
    assert report.status == "COUNTEREXAMPLE"
    assert report.inconclusive == []
    reason = "level size differs from 2^(m0-2)"
    assert [
        (cx["part"], cx["m"], cx["reason"], cx["expected"], len(cx["survivors"]))
        for cx in report.counterexamples
    ] == [(2, m, reason, 4, 6) for m in range(4, 11)], report.counterexamples
    assert report.counterexamples[0]["survivors"] == [10, 11, 12, 13, 14, 15]
    assert report.counterexamples[1]["survivors"] == [12, 13, 14, 15, 26, 27]

    # Each survivor carries a two-member witness pair; the valuations come
    # from the modular engine and are re-derived here from the recurrence.
    levels = report.details["tree"]["levels"]
    pairs = []
    for cx in report.counterexamples:
        m = cx["m"]
        classes = {entry["j"]: entry for entry in levels[m - 1]["classes"]}
        non_constant = [j for j, entry in classes.items() if entry["status"] == "NON_CONSTANT"]
        assert sorted(non_constant) == cx["survivors"], (m, non_constant)
        for j in cx["survivors"]:
            (na, va), (nb, vb) = classes[j]["witnesses"]
            assert na != nb and na % (1 << m) == nb % (1 << m) == j, (m, j, na, nb)
            pairs.append(((na, va), (nb, vb)))
    exact = _column_valuations(16, [n for pair in pairs for n, _ in pair])
    for (na, va), (nb, vb) in pairs:
        assert (exact[na], exact[nb]) == (va, vb), (na, nb)
        assert va != vb, (na, nb)

    # Each CONSTANT class is proved for every member, not only the sampled
    # ones: the 2-adic certificate gives the reported value.
    constants = [
        entry for level in levels for entry in level["classes"] if entry["status"] == "CONSTANT"
    ]
    assert constants
    for entry in constants:
        c = ResidueClass(16, entry["m"], entry["j"])
        assert prove_constant(c) == entry["value"], entry
    _report(
        9,
        "splitting conjecture for nine orders",
        "REFUTED at order 16 with certificate: six witnessed survivors at each "
        "level 4..10, not 4",
    )


def test_10_alm_valuation_formulas():
    report = a_lm_val_check(40, 40)
    assert report.status == "CONSISTENT", report.counterexamples[:3]
    assert report.checked == sum(m + 1 for m in range(41))
    _report(10, "A(l,m) integrality and valuation formulas to 40")


def _polylog_valuations(k: int, m_max: int) -> dict:
    """nu_2(L_k(2^m)) for m <= m_max, with no rational arithmetic.

    Writing j = 2^nu(j) * u_j with u_j odd, L_k(n) is the sum of the terms
    2^(j - k*nu(j)) * u_j^(-k), which are 2-adic integers for k <= 2.  The
    sum is kept mod 2^P with P above every expected valuation; a nonzero
    residue then fixes the valuation exactly.
    """
    precision = (1 << m_max) + 2 * m_max + 8
    modulus = 1 << precision
    residue = 0
    out = {}
    for j in range(1, (1 << m_max) + 1):
        e = nu_int(2, j)
        residue = (residue + (pow(j >> e, -k, modulus) << (j - k * e))) % modulus
        if j & (j - 1) == 0:
            assert residue != 0, (k, j)
            out[j.bit_length() - 1] = nu_int(2, residue)
    return out


def _fraction_valuations(k: int, m_max: int) -> dict:
    """nu_2(L_k(2^m)) for m <= m_max from a plain Fraction accumulation."""
    total = Fraction(0)
    out = {}
    for j in range(1, (1 << m_max) + 1):
        total += Fraction(1 << j, j**k)
        if j & (j - 1) == 0:
            out[j.bit_length() - 1] = nu_int(2, total.numerator) - nu_int(2, total.denominator)
    return out


def test_11_polylog_partial_sums():
    stated = {1: lambda m: 2**m + 2 * m - 4, 2: lambda m: 2**m + m - 1}
    true = {1: lambda m: 2**m + 2 * m - 2, 2: stated[2]}
    for k in (1, 2):
        residue_route = _polylog_valuations(k, 12)
        fraction_route = _fraction_valuations(k, 12)
        for m in range(4, 13):
            assert nu_rat(2, cohen_sum(k, 1 << m)) == true[k](m), (k, m)
            assert residue_route[m] == true[k](m), (k, m)
            assert fraction_route[m] == true[k](m), (k, m)

    report = cohen_check(4, 12)
    assert report.status == "COUNTEREXAMPLE"
    assert report.inconclusive == []
    entries = [
        {"k": k, "m": m, "computed": true[k](m), "expected": stated[k](m)}
        for k in (1, 2)
        for m in range(4, 13)
    ]
    assert report.details["entries"] == entries
    assert report.counterexamples == [e for e in entries if e["k"] == 1], (
        report.counterexamples
    )
    _report(
        11,
        "polylog partial-sum valuations",
        "REFUTED with certificate: weight 1 is 2^m + 2m - 2, two above the "
        "stated value, for m = 4..12; weight 2 holds as stated",
    )


def test_12_power_difference_lemmas():
    report = power_lemma_report(20)
    assert report.status == "CONSISTENT", report.counterexamples[:3]
    assert report.checked == 60
    _report(12, "power-difference valuations to 20")


def test_13_approximation_tower():
    report = approx_report(2000)
    stage1 = report.details["stage1"]
    assert stage1["disagreements"] == stage1["expected_I1"], stage1
    assert stage1["disagreements"][0] == 156
    assert err1(156) == 4
    stage2 = report.details["stage2"]
    for entry in stage2:
        if not entry["m_in_I2"]:
            assert entry["err1"] == entry["predicted"], entry
    stage3 = report.details["stage3"]
    assert stage3["total"] == len(stage3["census"]) > 0
    assert {"m", "x2", "err2", "predicted", "agrees"} <= set(stage3["census"][0])
    _report(13, "approximation tower to 2000 (third stage census only)")


def test_14_clarke():
    scan = clarke_conjecture_check(500, k_max=5)
    assert scan.status == "CONSISTENT", scan.counterexamples[:3]

    u0, u1 = sorted(t2_zeros(5, 24), key=lambda u: u % 2)  # even, odd
    assert u0 % 4 == 0
    assert u1 % 4 == 3

    report = clarke_val_check(2000)
    assert report.status == "CONSISTENT", report.counterexamples[:3]
    assert report.inconclusive == []
    assert report.checked == 1996
    zeros = report.details["zeros"]
    mask = (1 << zeros["modulus_bits"]) - 1
    assert (zeros["even"], zeros["odd"]) == (u0 & mask, u1 & mask)
    _report(14, "t-sum identity, zero congruences, distance formula")


def test_15_oracle_equivalence():
    for k in range(1, 201):
        for n, v in get_engine(k).val2_range(k, 201):
            assert v == nu_int(2, stirling_exact(n, k)), (n, k)
    # the third route: the recurrence modulo 2^64, against both of the others
    W, rows = triangle_width(200, 64), dict(triangle_rows(200, 64))
    for k in range(1, 201):
        column = [nu_int(2, (rows[n] >> (W * k)) & ((1 << 64) - 1)) for n in range(k, 201)]
        exact = [nu_int(2, stirling_exact(n, k)) for n in range(k, 201)]
        assert column == exact == [v for _, v in get_engine(k).val2_range(k, 201)], k
    _report(15, "modular engine and modular triangle equal exact triangle to 200")
