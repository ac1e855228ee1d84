"""Residue classes, level trees and the structural conjecture checkers."""

import inspect
import itertools
import json
import random
import re

import pytest

from stirval import (
    ModStirlingEngine,
    ResidueClass,
    build_level_tree,
    c_set_sequence,
    classify_class,
    exceptional_indices,
    get_engine,
    in_I1,
    k5_structure_report,
    k5_surviving_chain,
    legendre_factorial_val,
    m0_of,
    nu_int,
    prove_constant,
    stirling_exact,
    t_sum,
    t_terms,
    val2_stirling,
    verify_main_conjecture,
)
from stirval import cli, levels, stirling


class TestResidueClass:
    def test_members_examples(self):
        assert ResidueClass(5, 2, 1).members(3) == [5, 9, 13]
        assert ResidueClass(5, 6, 28).members(2) == [28, 92]
        assert ResidueClass(10, 4, 7).members(2) == [23, 39]

    def test_canonical_residue(self):
        # labels written with a shifted index reduce mod 2^m
        assert ResidueClass(5, 7, 156).j == 28
        assert ResidueClass(5, 2, 4).j == 0

    def test_split(self):
        a, b = ResidueClass(5, 2, 0).split()
        assert (a.m, a.j) == (3, 0)
        assert (b.m, b.j) == (3, 4)

    @pytest.mark.parametrize("k,m", [(5, 2), (5, 5), (10, 3)])
    def test_partition(self, k, m):
        bound = k + (1 << m) * 64
        seen = {}
        for j in range(1 << m):
            for n in ResidueClass(k, m, j).iter_members():
                if n >= bound:
                    break
                assert n not in seen, f"{n} in two classes"
                seen[n] = j
        assert sorted(seen) == list(range(k, bound))

    def test_split_partitions_members(self):
        parent = ResidueClass(11, 3, 2)
        a, b = parent.split()
        merged = sorted(a.members(32) + b.members(32))
        assert merged == parent.members(64)
        assert not set(a.members(32)) & set(b.members(32))

    def test_value_semantics(self):
        # equal labels are one class: equal, hashed alike, immutable, shown by field
        a, b = ResidueClass(5, 7, 156), ResidueClass(5, 7, 28)
        assert a == b and hash(a) == hash(b)
        for attr in ("j", "colour"):
            with pytest.raises(AttributeError):
                setattr(a, attr, 0)
        assert repr(a) == "ResidueClass(k=5, m=7, j=28)"
        assert repr(levels.ClassStatus("CONSTANT", value=2)) == (
            "ClassStatus(kind='CONSTANT', value=2, witness_a=None, witness_b=None)"
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            ResidueClass(5, 0, 0)
        with pytest.raises(ValueError):
            ResidueClass(5, 2, 1).members(0)


class TestClassify:
    def test_constant_class(self):
        status = classify_class(ResidueClass(5, 2, 1))
        assert status.kind == "CONSTANT"
        assert status.value == 0

    def test_non_constant_with_certificate(self):
        status = classify_class(ResidueClass(5, 2, 0))
        assert status.kind == "NON_CONSTANT"
        assert status.witness_a == (8, 1)
        assert status.witness_b == (12, 3)

    def test_parity_class_witnesses(self):
        # the even class for k=5 already splits at its first two members
        status = classify_class(ResidueClass(5, 1, 0))
        assert status.kind == "NON_CONSTANT"
        assert status.witness_a == (6, 0)
        assert status.witness_b == (8, 1)

    def test_order_11_constant(self):
        status = classify_class(ResidueClass(11, 3, 4))
        assert status.kind == "CONSTANT"
        assert status.value == 1

    def test_witnesses_are_the_first_member_and_the_first_that_differs(self):
        # every class is decided, and each witness pair is the class's first
        # member and the first member whose value, read off a fresh column,
        # differs from it; in some pairs that is not the second member
        late = 0
        for k in range(5, 41):
            column = levels.Column(k)
            for rec in build_level_tree(k, m0_of(k) + 3).levels:
                for j, status in rec.statuses.items():
                    assert status.kind in ("CONSTANT", "NON_CONSTANT"), (k, rec.m, j)
                    if status.kind == "CONSTANT":
                        continue
                    values = column.member_values(ResidueClass(k, rec.m, j))
                    first = next(values)
                    breaking = next(pair for pair in values if pair[1] != first[1])
                    assert (status.witness_a, status.witness_b) == (first, breaking), (k, rec.m, j)
                    late += breaking[0] > first[0] + (1 << rec.m)
        assert late

    def test_certificates_agree_with_exact_oracle(self):
        for k in (5, 10, 11, 20):
            tree = build_level_tree(k, m_max=5)
            for rec in tree.levels:
                for c in rec.survivors:
                    status = rec.statuses[c.j]
                    for n, v in (status.witness_a, status.witness_b):
                        if n <= 400:
                            assert nu_int(2, stirling_exact(n, k)) == v
                    assert status.witness_a[1] != status.witness_b[1]


class TestProveConstant:
    def test_agrees_with_sampling(self):
        # every CONSTANT class is proved, at the value a fresh engine gives
        # its first 32 members (not through the shared val2_stirling cache)
        for k in range(5, 33):
            engine = ModStirlingEngine(k)
            tree = build_level_tree(k, m0_of(k) + 3)
            for rec in tree.levels:
                kinds = {s.kind for s in rec.statuses.values()}
                assert kinds <= {"CONSTANT", "NON_CONSTANT"}, (k, rec.m)
                for c, value in rec.constants:
                    assert prove_constant(c) == value
                    assert {engine.val2(n) for n in c.members(32)} == {value}

    @pytest.mark.parametrize("k", [5, 16, 21, 45, 64])
    def test_proofs_hold_on_many_members(self, k):
        count, m_max = 300, 6
        top = (1 << m_max) * count + k
        scanned = dict(ModStirlingEngine(k).val2_range(k, top))
        proved = 0
        for m in range(1, m_max + 1):
            for j in range(1 << m):
                c = ResidueClass(k, m, j)
                value = prove_constant(c)
                if value is None:
                    continue
                proved += 1
                members = c.members(count)
                assert {scanned[n] for n in members} == {value}
                assert all(nu_int(2, stirling_exact(n, k)) == value for n in members if n <= 400)
        assert proved

    def test_no_proof_of_a_sampled_non_constant_class(self):
        # two of a class's first 64 members that differ, read off a column and
        # not found by the count, are a witness pair: no proof may exist there
        column = levels.Column(16)
        split = []
        for m in range(1, 7):
            for j in range(1 << m):
                c = ResidueClass(16, m, j)
                if len({v for _, v in itertools.islice(column.member_values(c), 64)}) > 1:
                    split.append(c)
        assert len(split) == 2 + 4 + 6 * 4
        assert all(prove_constant(c) is None for c in split)

    # (class, value, its one member n <= a = value + nu_2(k!)): the member
    # lies outside the certificate's range, below a or at a
    @pytest.mark.parametrize(
        "c, value, n_small", [(ResidueClass(16, 3, 1), 3, 17), (ResidueClass(8, 2, 1), 2, 9)]
    )
    def test_small_members_are_checked_exactly(self, monkeypatch, c, value, n_small):
        assert prove_constant(c) == value
        seen = []
        true_val2 = levels.val2_stirling

        def wrong_at_small(n, k):
            seen.append(n)
            return true_val2(n, k) + (n == n_small)

        monkeypatch.setattr(levels, "val2_stirling", wrong_at_small)
        # the member values and the engine are both exact: a disagreement is
        # an error, never a witness
        with pytest.raises(ArithmeticError, match=rf"S\({n_small},{c.k}\)"):
            prove_constant(c)
        assert seen == [n_small]

    def test_proved_class_evaluates_only_small_members(self, monkeypatch):
        c = ResidueClass(64, 6, 3)
        seen = []
        true_val2 = levels.val2_stirling

        def spy(n, k):
            seen.append(n)
            return true_val2(n, k)

        monkeypatch.setattr(levels, "val2_stirling", spy)
        status = classify_class(c)
        assert (status.kind, status.value) == ("CONSTANT", 9)
        a = status.value + legendre_factorial_val(2, 64)
        assert seen == [n for n in c.members(64) if n <= a] == [67]


    def test_carried_powers_match_pow_at_every_node(self, monkeypatch):
        # with every level past level 1 on the carried route, the tree hands each
        # class the odd powers its parent carried; at every node they are the
        # terms (c_b b^j, b^(2^m)) mod 2^P that pow gives at that (m, j), and
        # the tree is the one the column gives
        seen = []
        true_member_values = levels.member_values

        def spy(c, powers, P):
            seen.append((c, powers, P))
            return true_member_values(c, powers, P)

        for k in range(5, 65):
            column_tree = build_level_tree(k, m0_of(k) + 2).as_dict(64)
            monkeypatch.setattr(levels, "COLUMN_LEVELS", -100)
            monkeypatch.setattr(levels, "member_values", spy)
            assert build_level_tree(k, m0_of(k) + 2).as_dict(64) == column_tree, k
            monkeypatch.undo()
        assert len(seen) > 8000
        for c, powers, P in seen:
            assert P == get_engine(c.k).m_start
            assert powers == tuple(
                (cb * pow(b, c.j, 1 << P) % (1 << P), pow(b, 1 << c.m, 1 << P))
                for cb, b in t_terms(2, c.k)
            ), c

    @pytest.mark.parametrize("k", [5, 16, 45])
    def test_vanishing_carried_residues_keep_the_verdict(self, monkeypatch, k):
        # at 3 bits most carried residues vanish and fix no valuation: those
        # members go to val2_stirling, and every verdict is the column's
        seen = _spy_val2(monkeypatch)
        column = levels.Column(k)
        proved = 0
        for m in range(1, 6):
            for j in range(1 << m):
                c = ResidueClass(k, m, j)
                value = prove_constant(c, column.member_values(c))
                carried = levels.member_values(c, levels.odd_powers(c, 3), 3)
                assert prove_constant(c, carried) == value, c
                proved += value is not None
        assert proved and seen

    def test_verdicts_equal_the_a_s_certificate(self):
        # the count decides exactly the classes the A_s certificate proved,
        # at the same values, on every class to level 6 of k = 3..70
        for k in range(3, 71):
            column = levels.Column(k)
            for m in range(1, 7):
                for j in range(1 << m):
                    c = ResidueClass(k, m, j)
                    assert prove_constant(c, column.member_values(c)) == _a_s_certificate(c), c


def _a_s_certificate(c):
    """The value of nu_2(S(n,k)) on c by the A_s certificate, None if it does not hold.

    The proof ``prove_constant`` gave before it counted members, kept as its
    oracle.  On n = j + 2**m t the odd-base part is
    sum_s C(t,s) 2**(s(m+2)) A_s with A_s = sum_{b odd} c_b b**j w_b**s and
    b**(2**m) = 1 + 2**(m+2) w_b.  With a = nu_2(A_0), if
    A_s == 0 mod 2**(a+1-s(m+2)) for 1 <= s <= a/(m+2), every member n > a
    has nu_2(k! S(n,k)) = a; the members n <= a are checked exactly.
    Every u_b and w_b comes from ``pow`` here, not from ``levels.odd_powers``.
    """
    k, m = c.k, c.m
    engine = get_engine(k)
    odd = t_terms(2, k)
    P = engine.m_start
    while not (r := sum(cb * pow(b, c.j, 1 << P) for cb, b in odd) % (1 << P)):
        P *= 2
    a = nu_int(2, r)
    shift = m + 2
    mask = (1 << (a + 1)) - 1
    w = [(pow(b, 1 << m, 1 << (a + 1 + shift)) - 1) >> shift for _, b in odd]
    terms = [cb * pow(b, c.j, 1 << (a + 1)) & mask for cb, b in odd]  # u_b w_b^s, summing to A_s
    for s in range(1, a // shift + 1):
        terms = [t * wb & mask for t, wb in zip(terms, w)]
        if sum(terms) & (mask >> s * shift):
            return None
    value = a - engine.fact_val
    for n in c.iter_members():
        if n > a:
            return value
        if val2_stirling(n, k) != value:
            return None


def _spy_val2(monkeypatch):
    """Route levels.val2_stirling through a spy; return the list of n it is called with."""
    seen = []
    true_val2 = levels.val2_stirling

    def spy(n, k):
        seen.append(n)
        return true_val2(n, k)

    monkeypatch.setattr(levels, "val2_stirling", spy)
    return seen


def _member_values(c, P, count):
    values = levels.member_values(c, levels.odd_powers(c, P), P)
    return list(itertools.islice(values, count))


class TestMemberValues:
    def test_exp_sums_on_odd_powers_equal_the_exact_odd_base_sum(self):
        # at the t of each of the first 12 members n >= k, exp_sums on c's odd
        # powers gives T_2(n, k) mod 2^P, the exact big-integer odd-base sum
        rng = random.Random("odd_powers")
        for _ in range(300):
            k, m = rng.randint(3, 90), rng.randint(1, 9)
            c = ResidueClass(k, m, rng.randrange(1 << m))
            members = c.members(12)
            first = (members[0] - c.j) >> m
            for P in (3, 8, get_engine(k).m_start):
                residues = stirling.exp_sums(levels.odd_powers(c, P), first, P)
                assert list(itertools.islice(residues, 12)) == [
                    t_sum(2, n, k) % (1 << P) for n in members
                ], (c, P)

    def test_matches_val2_stirling_on_random_classes(self):
        rng = random.Random("member_values")
        for _ in range(300):
            k, m = rng.randint(3, 90), rng.randint(1, 9)
            c = ResidueClass(k, m, rng.randrange(1 << m))
            engine = get_engine(k)
            assert _member_values(c, engine.m_start, 12) == [
                (n, engine.val2(n)) for n in c.members(12)
            ], c

    @pytest.mark.parametrize("P", [3, 8, 40])
    def test_exact_at_any_precision(self, monkeypatch, P):
        # at a few bits most residues vanish or fall short of n: those
        # members go to val2_stirling, and every value stays exact
        seen = _spy_val2(monkeypatch)
        for k in (5, 11, 16, 33, 64):
            for m in (1, 3, 5):
                for j in range(0, 1 << m, 3):
                    c = ResidueClass(k, m, j)
                    engine = get_engine(k)
                    assert _member_values(c, P, 8) == [
                        (n, engine.val2(n)) for n in c.members(8)
                    ], (c, P)
        assert seen

    def test_even_base_part_sends_members_to_val2_stirling(self, monkeypatch):
        # nu_2(64! S(65,64)) = 68 >= 65: the even bases can move such a
        # valuation, so the first four members of C(1,1) are not read off g
        seen = _spy_val2(monkeypatch)
        c = ResidueClass(64, 1, 1)
        first = [(65, 5), (67, 9), (69, 8), (71, 9)]
        assert _member_values(c, get_engine(64).m_start, 4) == first
        assert seen == [65, 67, 69, 71]

    def test_tree_evaluates_few_members_by_the_engine(self, monkeypatch):
        # the tree reads its column, and past level m0 + 4 the carried powers;
        # only the exact check of the members n <= a and the members g cannot
        # decide reach the engine
        seen = _spy_val2(monkeypatch)
        for m_max in (8, 14):
            seen.clear()
            build_level_tree(64, m_max)
            assert 0 < len(set(seen)) <= 10, m_max


class TestColumn:
    def test_values_equal_val2_stirling(self):
        # one column read at the strides of several levels, out of order
        rng = random.Random("column")
        for k in (5, 33, 64):
            column, engine = levels.Column(k), ModStirlingEngine(k)
            for _ in range(40):
                m = rng.randint(1, 7)
                c = ResidueClass(k, m, rng.randrange(1 << m))
                values = list(itertools.islice(column.member_values(c), 10))
                assert values == [(n, engine.val2(n)) for n in c.members(10)], c
            # every value read so far, at its own index
            assert column.values == [engine.val2(n) for n in range(len(column.values))]

    def test_one_scan_per_tree(self, monkeypatch):
        # the tree extends one live scan, which starts at n = 1
        calls = []
        scan = stirling.ModStirlingEngine.val2_range

        def counting(self, start, stop):
            calls.append((self.k, start))
            return scan(self, start, stop)

        monkeypatch.setattr(stirling.ModStirlingEngine, "val2_range", counting)
        build_level_tree(64, 8)
        assert calls == [(64, 1)]

    @pytest.mark.parametrize("k, m_max", [(5, 9), (21, 11), (64, 12), (128, 13)])
    def test_routes_give_equal_trees(self, monkeypatch, k, m_max):
        # the column only, the carried powers from level 2 on, and the switch
        # between them past level m0 + 4 build one tree
        trees = []
        for column_levels in (100, -100, levels.COLUMN_LEVELS):
            monkeypatch.setattr(levels, "COLUMN_LEVELS", column_levels)
            trees.append(build_level_tree(k, m_max).as_dict(64))
        assert trees[0] == trees[1] == trees[2]
        assert m_max > m0_of(k) + levels.COLUMN_LEVELS


class TestLevelTree:
    def test_k5_level_2(self):
        tree = build_level_tree(5, m_max=2)
        rec = tree.level(2)
        assert [c.j for c in rec.survivors] == [0, 3]
        assert {c.j: v for c, v in rec.constants} == {1: 0, 2: 0}

    def test_k11_level_3(self):
        tree = build_level_tree(11, m_max=3)
        rec = tree.level(3)
        assert [c.j for c in rec.survivors] == [0, 1, 2, 7]
        assert {c.j: v for c, v in rec.constants} == {3: 0, 5: 0, 4: 1, 6: 1}

    def test_k10_level_5(self):
        tree = build_level_tree(10, m_max=5)
        rec4 = tree.level(4)
        assert [c.j for c in rec4.survivors] == [7, 8, 9, 14]
        rec5 = tree.level(5)
        assert [c.j for c in rec5.survivors] == [7, 8, 9, 14]
        assert {c.j: v for c, v in rec5.constants} == {23: 2, 24: 2, 25: 2, 30: 2}

    def test_json_shape(self):
        tree = build_level_tree(5, m_max=3)
        data = tree.as_dict(16)
        assert set(data) == {"k", "m0", "samples", "levels"}
        assert data["k"] == 5 and data["m0"] == 3 and data["samples"] == 16
        level = data["levels"][1]
        assert {"m", "classes"} <= set(level)
        for entry in level["classes"]:
            assert {"m", "j", "status", "samples"} <= set(entry) and entry["samples"] == 16
            if entry["status"] == "NON_CONSTANT":
                assert len(entry["witnesses"]) == 2
        json.dumps(data)  # must serialize as-is

    def test_degenerate_orders_rejected(self):
        with pytest.raises(ValueError):
            build_level_tree(2, m_max=4)

    def test_stops_when_no_class_survives(self):
        # for k = 3 the valuation depends on parity only: both level-1 classes are constant
        tree = build_level_tree(3, m_max=4)
        assert [rec.m for rec in tree.levels] == [1]
        assert tree.level(1).survivors == []


def test_samples_is_only_written_by_the_report(capsys):
    # no layer below verify_main_conjecture takes samples, and --samples
    # changes no byte of stdout but the "samples": N it writes
    for fn in (classify_class, build_level_tree):
        assert "samples" not in inspect.signature(fn).parameters, fn.__name__
    assert "samples" not in levels.ClassStatus._fields

    def stdout(k, samples):
        argv = ["verify", "main-conjecture", "--k", str(k),
                "--levels", str(m0_of(k) + 3), "--samples", str(samples)]
        code = cli.main(argv)
        return code, re.sub(r'"samples": \d+', '"samples": N', capsys.readouterr().out)

    for k in (5, 21, 64):
        expected = stdout(k, 64)
        assert '"samples": N' in expected[1]
        assert stdout(k, 2) == stdout(k, 1000) == expected, k


class TestMainConjecture:
    def test_m0(self):
        assert m0_of(5) == 3
        assert m0_of(8) == 3
        assert m0_of(11) == 4
        assert m0_of(16) == 4
        assert m0_of(20) == 5

    def test_k5_consistent(self):
        report = verify_main_conjecture(5, m_max=8, samples=64)
        assert report.status == "CONSISTENT"
        assert report.details["m0"] == 3
        assert all(lv["verdict"] == "PASS" for lv in report.details["levels"])

    def test_k11_consistent(self):
        report = verify_main_conjecture(11, m_max=8, samples=64)
        assert report.status == "CONSISTENT"
        assert report.details["m0"] == 4

    @pytest.mark.parametrize("k, m_max", [(5, 2), (11, 3), (64, 5)])
    def test_levels_below_m0_rejected(self, k, m_max):
        # below m0 only part 1 would be checked, and part 2 holds the
        # counterexample of k = 64, at level m0 = 6
        with pytest.raises(ValueError, match=rf"m_max must be >= m0 \({m0_of(k)}\)"):
            verify_main_conjecture(k, m_max=m_max)

    def test_degenerate_orders_inconclusive(self):
        for k in (1, 2, 3, 4):
            report = verify_main_conjecture(k, m_max=6, samples=32)
            assert report.status == "INCONCLUSIVE"
            assert report.exit_code == 2
            assert "parity" in report.inconclusive[0]["reason"]

    def test_k16_counterexample(self):
        # the class-count claim fails at order 16: six certified
        # non-constant classes per level instead of 2^(m0-2) = 4
        report = verify_main_conjecture(16, m_max=6, samples=64)
        assert report.status == "COUNTEREXAMPLE"
        payloads = [p for p in report.counterexamples if p and p.get("part") == 2]
        assert payloads
        first = payloads[0]
        assert first["m"] == 4
        assert first["expected"] == 4
        assert first["survivors"] == [10, 11, 12, 13, 14, 15]


class TestK5Chain:
    def test_chain_residues_and_siblings(self):
        chain = k5_surviving_chain(10)
        assert [link.level for link in chain] == list(range(2, 11))
        assert [link.j for link in chain] == [0, 4, 12, 28, 28, 28, 156, 156, 156]
        assert [link.sibling_value for link in chain] == [0, 1, 2, 3, 4, 5, 6, 7, 8]

    def test_chain_reads_the_level_tree(self, monkeypatch):
        calls = []
        true_build = levels.build_level_tree

        def spy(*args):
            calls.append(args)
            return true_build(*args)

        monkeypatch.setattr(levels, "build_level_tree", spy)
        assert [link.j for link in k5_surviving_chain(6)] == [0, 4, 12, 28, 28]
        assert calls == [(5, 6)]

    def test_chain_needs_proved_siblings(self, monkeypatch):
        # a sibling the count does not prove is not constant, so the chain breaks
        monkeypatch.setattr(
            levels,
            "classify_class",
            lambda c, values: levels.ClassStatus(
                "NON_CONSTANT", witness_a=next(values), witness_b=next(values)
            ),
        )
        with pytest.raises(ArithmeticError, match="level 2"):
            k5_surviving_chain(4)

    def test_c_set(self):
        assert c_set_sequence(1) == [8]
        assert c_set_sequence(9) == [8, 12, 28, 60, 92, 156, 412, 668, 1180]

    def test_c_set_tail_lies_in_I1(self):
        values = c_set_sequence(9)
        start = values.index(156)
        for v in values[start:]:
            assert in_I1(v)
        for v in values[:start]:
            assert not in_I1(v)


class TestExceptional:
    def test_scan_to_110(self):
        scan = exceptional_indices(110).details
        assert scan["indices"] == [7, 39, 71, 103]
        assert scan["pattern"] is True

    def test_first_exception_values(self):
        from stirval import val2_stirling

        assert val2_stirling(28, 5) == 6
        assert val2_stirling(31, 5) == 7

    def test_requires_minimum_bound(self):
        with pytest.raises(ValueError):
            exceptional_indices(1)


def test_k5_structure_report_downsized():
    report = k5_structure_report(m_max=6, i_max=50)
    assert report.status == "CONSISTENT"
    chain = report.details["surviving_chain"]
    assert [c["j"] for c in chain] == [0, 4, 12, 28, 28]


class TestK5StructureReadsTheTree:
    def test_one_tree_per_report(self, monkeypatch):
        # the surviving chain is read off the tree the checks used, not a second build
        calls = []
        true_classify = levels.classify_class
        monkeypatch.setattr(
            levels, "classify_class", lambda *args: calls.append(args) or true_classify(*args)
        )
        levels.build_level_tree(5, 10)
        one_tree = calls[:]
        calls.clear()
        report = k5_structure_report()
        assert report.status == "CONSISTENT"
        assert [link["j"] for link in report.details["surviving_chain"]] == [
            0, 4, 12, 28, 28, 28, 156, 156, 156
        ]
        assert len(one_tree) == 38
        # the second argument is each class's member values, a fresh iterator per call
        assert [args[0] for args in calls] == [args[0] for args in one_tree]

    def test_constant_child_value_comes_from_the_proof(self, monkeypatch):
        # a verdict that proves 3 on C(4,4), whose members all have value 2,
        # must break the split at m = 4 although no member disagrees
        true_classify = levels.classify_class

        def off_by_one(c, values=None):
            status = true_classify(c, values)
            return status._replace(value=status.value + 1) if (c.m, c.j) == (4, 4) else status

        monkeypatch.setattr(levels, "classify_class", off_by_one)
        report = k5_structure_report(6, 50)
        assert report.status == "COUNTEREXAMPLE"
        assert report.exit_code == 1
        assert report.counterexamples == [
            {
                "check": "one constant child at m-2, one child above",
                "m": 4,
                "branch": 0,
                "constant": [],
                "above": [12],
            }
        ]
        assert "surviving_chain" not in report.details
