"""Residue classes modulo powers of two and the level-splitting machinery.

For a fixed Stirling order k, the class C(m, j) is the arithmetic
progression {2**m * i + j : i >= 0} restricted to n >= k.  A class is
*constant* when n -> nu_2(S(n,k)) takes a single value on it.  The m-level
is the set of non-constant classes mod 2**m, built by splitting each
survivor of the (m-1)-level into its two children.

``classify_class`` decides a class by one count of its members.  A
non-constant verdict carries a certificate: two members with provably
different valuations.  A constant verdict is proved for every member by
the count; there is no other way to reach it.  The count
(``prove_constant`` holds its proof) is Newton's forward differences
(Mahler, J. reine angew. Math. 199, 1958) on Clarke's odd-base expansion
(J. Number Theory 52, 1995).  Split ``ksf_terms(k)`` into odd and even
bases: the even-base part of k! * S(n,k) is 0 mod 2**n, and along the
members n = n1 + 2**m * t the odd-base part is h(t) = sum u_b beta_b**t
with beta_b = b**(2**m) == 1 mod 2**(m+2).  Its s-th forward difference
at 0 is sum u_b (beta_b - 1)**s, divisible by 2**(s(m+2)), so modulo
2**(a+1) h is a polynomial in t of degree at most S = floor(a/(m+2)):
h(t) = sum_{s<=S} C(t,s) Delta**s h(0).  If h(0), ..., h(S) all equal
2**a mod 2**(a+1), then every Delta**s h(0) with s >= 1 vanishes mod
2**(a+1), and h(t) == 2**a for every t.  With v the value at the first
member, a = v + nu_2(k!) and n1 the first member above a (where the
even-base part vanishes mod 2**(a+1)), a class is constant exactly when
its members n <= a have value v and so do the S + 1 members from n1 on.
A constant class passes this count trivially, so the count decides, and
it reads the members in order: where it fails, the first member that
disagrees with the first one is the witness pair's second member.  Every
class is therefore CONSTANT or NON_CONSTANT.  No sample size enters:
``samples`` is read only by ``verify_main_conjecture``, for its JSON.

Member values come from one of two routes, both exact.  A ``Column``
holds nu_2(S(n,k)) for n = 0, 1, ... from one ``val2_range`` scan, read
as far as a class asks; every class of a tree shares it, which suits the
dense levels near m0.  A class at level m reads members 2**m apart, so a
deep level would need a column far longer than the values it reads; from
level m0 + ``COLUMN_LEVELS`` + 1 on, the tree carries each class's odd
powers (u_b, beta_b) mod 2**P to its children instead (``odd_powers``,
``split_powers``), and ``member_values`` reads each member's residue off
``exp_sums`` on them.
"""

from __future__ import annotations

from itertools import islice
from operator import itemgetter
from typing import Iterator, NamedTuple

from .padic import INFINITE, Valuation
from .reports import FAIL, PASS, ConjectureReport
from .stirling import Terms, exp_sums, get_engine, t_terms, val2_stirling

CONSTANT = "CONSTANT"
NON_CONSTANT = "NON_CONSTANT"

# levels m <= m0 + COLUMN_LEVELS read the tree's column; deeper ones carry odd powers
COLUMN_LEVELS = 4

# the stop of a column's scan: far beyond any index a tree reads
_COLUMN_END = 1 << 62


def m0_of(k: int) -> int:
    """The unique m0 with 2**(m0-1) < k <= 2**m0."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return (k - 1).bit_length()


class _ResidueFields(NamedTuple):
    k: int
    m: int
    j: int


class ResidueClass(_ResidueFields):
    """The class C(m, j) for Stirling order k, with j canonical mod 2**m.

    Labels with j >= 2**m (which occur naturally when a progression is
    written with a shifted index) are reduced on construction.
    """

    __slots__ = ()

    def __new__(cls, k: int, m: int, j: int):
        if k < 1 or m < 1:
            raise ValueError("need k >= 1 and m >= 1")
        return super().__new__(cls, k, m, j % (1 << m))

    @property
    def modulus(self) -> int:
        return 1 << self.m

    def iter_members(self) -> Iterator[int]:
        n = self.j
        while n < self.k:
            n += self.modulus
        while True:
            yield n
            n += self.modulus

    def members(self, count: int) -> list[int]:
        """First ``count`` members in increasing order, all >= k."""
        if count < 1:
            raise ValueError("count must be >= 1")
        it = self.iter_members()
        return [next(it) for _ in range(count)]

    def split(self) -> tuple["ResidueClass", "ResidueClass"]:
        """The two children mod 2**(m+1): residues j and j + 2**m."""
        return (
            ResidueClass(self.k, self.m + 1, self.j),
            ResidueClass(self.k, self.m + 1, self.j + self.modulus),
        )

    def label(self) -> str:
        return f"C({self.m},{self.j})"


class ClassStatus(NamedTuple):
    """Verdict for one residue class, as the count of ``classify_class`` gives it.

    CONSTANT carries the common value, proved for every member.
    NON_CONSTANT carries a two-member certificate: the first member and
    the first one whose value differs.  ``LevelRecord.as_dict`` renders it.
    """

    kind: str
    value: Valuation | None = None
    witness_a: tuple[int, Valuation] | None = None
    witness_b: tuple[int, Valuation] | None = None


class Column:
    """nu_2(S(n,k)) for n = 0, 1, 2, ... of one order k, computed as far as a class asks.

    The values come from one live ``val2_range(1, ...)`` scan, resumed
    where it stopped: a fresh scan per extension would run the recurrence
    from n = k again, or pay an ``exp_sums`` head past k*K/2 indices.
    """

    def __init__(self, k: int) -> None:
        self.values: list[Valuation] = [INFINITE]  # values[n] == nu_2(S(n,k))
        self._scan = map(itemgetter(1), get_engine(k).val2_range(1, _COLUMN_END))

    def member_values(self, c: ResidueClass) -> Iterator[tuple[int, Valuation]]:
        """Yield (n, nu_2(S(n,k))) for the members n of c in increasing order."""
        values = self.values
        for n in c.iter_members():
            if n >= len(values):
                values.extend(islice(self._scan, n + 1 - len(values)))
            yield n, values[n]


def odd_powers(c: ResidueClass, P: int) -> Terms:
    """c's ``exp_sums`` terms (c_b b**j, b**(2**m)) mod 2**P, one per odd base b <= c.k."""
    m, j, mod = c.m, c.j, 1 << P
    return tuple((cb * pow(b, j, mod) % mod, pow(b, 1 << m, mod)) for cb, b in t_terms(2, c.k))


def split_powers(terms: Terms, m: int, P: int) -> tuple[Terms, Terms]:
    """The ``odd_powers`` of the children j and j + 2**m of a class C(m, j), mod 2**P.

    Both children step by the square of b**(2**m); the child j keeps u_b,
    and the child j + 2**m takes u_b b**(2**m).  Every residue is read
    mod 2**P, so the products reduced mod 2**P are exact.
    """
    mask = (1 << P) - 1
    low, high = [], []
    for u, beta in terms:
        square = beta * beta & mask
        low.append((u, square))
        high.append((u * beta & mask, square))
    return tuple(low), tuple(high)


def member_values(c: ResidueClass, terms: Terms, P: int) -> Iterator[tuple[int, Valuation]]:
    """Yield (n, nu_2(S(n,k))) for the members n of c in increasing order.

    ``terms`` are c's ``odd_powers`` mod 2**P.  At n = j + 2**m * t the
    odd-base part of k! * S(n,k) is h(t) = sum u_b (b**(2**m))**t, which
    ``exp_sums`` steps from the t of the first member n >= k.
    The even-base part is divisible by 2**n: a residue r = h(t) mod 2**P
    that is nonzero with nu_2(r) < n gives nu_2(k! * S(n,k)) = nu_2(r).
    Any other member goes to ``val2_stirling``.
    """
    k = c.k
    fact_val = get_engine(k).fact_val
    skip = -((c.j - k) >> c.m)  # the members below k: ceil((k - j) / 2**m), or 0
    for n, r in zip(c.iter_members(), exp_sums(terms, skip, P)):
        # r & -r keeps the lowest set bit of r; a zero r has none
        if r and (a := (r & -r).bit_length() - 1) < n:
            yield n, a - fact_val
        else:
            yield n, val2_stirling(n, k)


def classify_class(
    c: ResidueClass, values: Iterator[tuple[int, Valuation]] | None = None
) -> ClassStatus:
    """Classify c by one count of its members: CONSTANT, or NON_CONSTANT with a witness pair.

    ``values`` yields c's members with their valuations in increasing
    order (by default from a new ``Column``).  With v the first member's
    value and a = v + nu_2(k!), c is constant exactly when its members
    n <= a and the floor(a/(m+2)) + 1 after them have value v (the proof
    is ``prove_constant``'s).  The first member that differs ends the
    count, and it and the first member are the witness pair.  Otherwise
    ``val2_stirling`` checks the members n <= a again; both routes are
    exact, so a disagreement is no witness but an ArithmeticError.
    """
    k = c.k
    if values is None:
        values = Column(k).member_values(c)
    first = next(values)
    n, value = first
    a = value + get_engine(k).fact_val
    small = range(n, a + 1, c.modulus)  # the members n <= a
    # the members n <= a and the S + 1 after them, the first one read already
    for member in islice(values, len(small) + a // (c.m + 2)):
        if member[1] != value:
            return ClassStatus(NON_CONSTANT, witness_a=first, witness_b=member)
    for n in small:
        if val2_stirling(n, k) != value:
            raise ArithmeticError(
                f"nu_2(S({n},{k})): the member values and val2_stirling disagree"
            )
    return ClassStatus(CONSTANT, value=value)


def prove_constant(
    c: ResidueClass, values: Iterator[tuple[int, Valuation]] | None = None
) -> Valuation | None:
    """The value of nu_2(S(n,k)) on every member n of c, proved; None if there is none.

    ``values`` yields c's members with their valuations in increasing
    order (by default from a new ``Column``).  With v the first member's
    value, f = nu_2(k!), a = v + f and S = floor(a/(m+2)), c is constant
    exactly when its members n <= a, checked again by ``val2_stirling``,
    and the S + 1 members after them all have value v.  The count is the
    one of ``classify_class``, and this is its verdict's value.

    Proof (the module docstring has it in full): write a member above a
    as n = n1 + 2**m * t.  The even-base part of k! * S(n,k) vanishes mod
    2**n, so mod 2**(a+1) for n > a.  The odd-base part
    h(t) = sum u_b beta_b**t has beta_b = b**(2**m) == 1 mod 2**(m+2),
    so Delta**s h(0) = sum u_b (beta_b - 1)**s is divisible by
    2**(s(m+2)): mod 2**(a+1), h(t) = sum_{s<=S} C(t,s) Delta**s h(0).
    S + 1 values h(0), ..., h(S) equal to 2**a mod 2**(a+1) make every
    Delta**s h(0) with 1 <= s <= S vanish mod 2**(a+1), so h(t) == 2**a
    for every t: each member n > a has valuation a - f = v.  The converse
    is trivial, so the count decides.
    """
    return classify_class(c, values).value


class LevelRecord:
    """Verdicts for all candidate classes C(m, j) of order k at one level.

    ``statuses`` maps j to its verdict in candidate order; the class
    lists below are read off it.
    """

    def __init__(self, k: int, m: int) -> None:
        self.k, self.m = k, m
        self.statuses: dict[int, ClassStatus] = {}

    @property
    def survivors(self) -> list[ResidueClass]:
        """The NON_CONSTANT classes, sorted by j."""
        return [
            ResidueClass(self.k, self.m, j)
            for j in sorted(self.statuses)
            if self.statuses[j].kind == NON_CONSTANT
        ]

    @property
    def constants(self) -> list[tuple[ResidueClass, Valuation]]:
        """The CONSTANT classes with their common value, in candidate order."""
        return [
            (ResidueClass(self.k, self.m, j), s.value)
            for j, s in self.statuses.items()
            if s.kind == CONSTANT
        ]

    def as_dict(self, samples: int) -> dict:
        """The level's JSON; ``samples`` is only written (ROADMAP B2 drops it after B1)."""
        classes = []
        for j in sorted(self.statuses):
            s = self.statuses[j]
            entry = {"m": self.m, "j": j, "status": s.kind, "samples": samples}
            if s.kind == CONSTANT:
                entry["value"] = s.value
            else:
                entry["witnesses"] = [list(s.witness_a), list(s.witness_b)]
            classes.append(entry)
        return {"m": self.m, "classes": classes}


class LevelTree:
    """Level structure for one Stirling order, up to a chosen depth."""

    def __init__(self, k: int, m0: int) -> None:
        self.k, self.m0 = k, m0
        self.levels: list[LevelRecord] = []

    def level(self, m: int) -> LevelRecord:
        return self.levels[m - 1]

    def children(self, c: ResidueClass) -> list[tuple[ResidueClass, ClassStatus]]:
        """The two children of a survivor c below the deepest level, with their verdicts."""
        statuses = self.level(c.m + 1).statuses
        return [(child, statuses[child.j]) for child in c.split()]

    def as_dict(self, samples: int) -> dict:
        """The tree's JSON; ``samples`` is only written (ROADMAP B2 drops it after B1)."""
        return {
            "k": self.k,
            "m0": self.m0,
            "samples": samples,
            "levels": [rec.as_dict(samples) for rec in self.levels],
        }


def build_level_tree(k: int, m_max: int) -> LevelTree:
    """Build the level structure for order k up to level m_max.

    Level 1 starts from the two parity classes; level m+1 classifies the
    children of the level-m survivors, and a CONSTANT class is not split.
    Each class is decided by the count of ``classify_class``, which reads
    no sample size.  Levels m <= m0 + ``COLUMN_LEVELS`` read
    their member values off one ``Column``; a deeper class reads them off
    ``exp_sums`` on its odd powers, which ``odd_powers`` gives each survivor
    of the last column level and ``split_powers`` hands down.
    """
    if k < 3:
        raise ValueError("level trees need k >= 3")
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    tree = LevelTree(k=k, m0=m0_of(k))
    column, P = Column(k), get_engine(k).m_start
    last_column_level = tree.m0 + COLUMN_LEVELS

    # j -> the odd powers of C(m, j), or None where level m reads the column
    candidates: dict[int, Terms | None] = {0: None, 1: None}
    for m in range(1, m_max + 1):
        rec = LevelRecord(k, m)
        for j, powers in candidates.items():
            c = ResidueClass(k, m, j)
            values = column.member_values(c) if powers is None else member_values(c, powers, P)
            rec.statuses[j] = classify_class(c, values)
        tree.levels.append(rec)
        if m == m_max:
            break
        parents, candidates = candidates, {}
        for j in sorted(rec.statuses):  # the survivors' children, as rec.survivors orders them
            if rec.statuses[j].kind != NON_CONSTANT:
                continue
            if m < last_column_level:
                kids = (None, None)
            else:  # a survivor of the last column level gets its powers by pow
                kids = split_powers(parents[j] or odd_powers(ResidueClass(k, m, j), P), m, P)
            candidates[j], candidates[j + (1 << m)] = kids
        if not candidates:
            break
    return tree


def verify_main_conjecture(k: int, m_max: int = 10, samples: int = 64) -> ConjectureReport:
    """Check the level-splitting conjecture for order k against the tree.

    Part 1: no constant class before level m0-1, at least one there.
    Part 2: every level m >= m0 has exactly 2**(m0-2) surviving classes,
    and each survivor has exactly one surviving child.  For k >= 5,
    ``m_max`` must be at least m0, or part 2 would go unchecked.

    Every class of the tree is decided, CONSTANT or NON_CONSTANT, so every
    level gets a PASS or FAIL verdict.  ``samples`` bounds nothing: it is
    only written to the params and the tree's JSON (ROADMAP B2 drops it after B1).

    For k <= 4 the valuation depends only on parity, both level-1 classes
    are constant and no level tree exists; the conjecture is not asserted
    and an explanatory INCONCLUSIVE report is returned.
    """
    report = ConjectureReport(
        "level-splitting conjecture",
        params={"k": k, "m_max": m_max, "samples": samples},
    )
    if k < 1:
        raise ValueError("k must be >= 1")
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if k <= 4:
        report.record_inconclusive(
            {
                "reason": "degenerate order: nu_2(S(n,k)) depends only on the parity "
                "of n for k <= 4, so every class mod 2 is constant and no level "
                "structure exists; the class-count claim is not asserted",
                "k": k,
            }
        )
        return report

    m0 = m0_of(k)
    if m_max < m0:
        raise ValueError(f"m_max must be >= m0 ({m0}) for k = {k}")
    tree = build_level_tree(k, m_max)
    report.details["m0"] = m0
    report.details["tree"] = tree.as_dict(samples)
    level_verdicts = []

    for rec in tree.levels:
        m = rec.m
        if m <= m0 - 2:
            ok = not rec.constants
            payload = {
                "part": 1,
                "m": m,
                "reason": "constant class below level m0-1",
                "classes": [(c.j, v) for c, v in rec.constants],
            }
        elif m == m0 - 1:
            ok = bool(rec.constants)
            payload = {"part": 1, "m": m, "reason": "no constant class at level m0-1"}
        else:
            expected = 1 << (m0 - 2)
            ok = len(rec.survivors) == expected
            payload = {
                "part": 2,
                "m": m,
                "reason": "level size differs from 2^(m0-2)",
                "expected": expected,
                "survivors": [c.j for c in rec.survivors],
            }
        report.record(ok, payload)
        level_verdicts.append({"m": m, "verdict": PASS if ok else FAIL})

    # part 2, splitting dynamic: one surviving child per survivor
    for rec in tree.levels[:-1]:
        if rec.m < m0:
            continue
        for c in rec.survivors:
            kids = [ch.j for ch, s in tree.children(c) if s.kind == NON_CONSTANT]
            ok = len(kids) == 1
            report.record(
                ok,
                {
                    "part": 2,
                    "m": rec.m,
                    "j": c.j,
                    "reason": "survivor must produce exactly one non-constant child",
                    "surviving_children": kids,
                },
            )
            if not ok:
                level_verdicts[rec.m - 1]["verdict"] = FAIL

    report.details["levels"] = level_verdicts
    return report


class ChainLink(NamedTuple):
    level: int
    j: int
    sibling_value: Valuation


def k5_surviving_chain(m_max: int) -> list[ChainLink]:
    """Surviving-class chain for k=5 on the branch of indices == 0 mod 4.

    For each level m in 2..m_max, returns the canonical residue j of the
    non-constant child and the constant value of its sibling, read off
    ``build_level_tree(5, m_max)``.  Raises if the expected
    one-constant/one-survivor split ever fails.
    """
    return _surviving_chain(build_level_tree(5, m_max))


def _surviving_chain(tree: LevelTree) -> list[ChainLink]:
    """The k=5 chain of ``k5_surviving_chain``, read off a tree already built."""
    chain: list[ChainLink] = []
    parent = ResidueClass(5, 1, 0)
    for m in range(2, len(tree.levels) + 1):
        status = dict(tree.children(parent))
        constant = [c for c, s in status.items() if s.kind == CONSTANT]
        surviving = [c for c, s in status.items() if s.kind == NON_CONSTANT]
        if len(constant) != 1 or len(surviving) != 1:
            raise ArithmeticError(
                f"level {m}: expected one constant and one surviving child, got "
                f"{[(c.label(), s.kind) for c, s in status.items()]}"
            )
        chain.append(ChainLink(m, surviving[0].j, status[constant[0]].value))
        parent = surviving[0]
    return chain


def c_set_sequence(count: int) -> list[int]:
    """First ``count`` values of the index sequence read off the k=5 chain.

    The first value is the smallest member of the level-2 survivor; each
    later value is the smallest member of the next level's survivor that
    strictly exceeds its predecessor.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    values: list[int] = []
    for link in k5_surviving_chain(count + 1):
        floor = values[-1] if values else 0
        members = ResidueClass(5, link.level, link.j).iter_members()
        values.append(next(n for n in members if n > floor))
    return values


def exceptional_indices(i_max: int = 200) -> ConjectureReport:
    """Indices 2 <= i <= i_max with nu_2(S(4i,5)) != nu_2(S(4i+3,5)).

    The scan starts at i = 2: at i = 1, S(4,5) = 0, whose valuation is
    infinite, so i = 1 differs trivially and is left out.

    ``details["indices"]`` lists them; the one check, also in
    ``details["pattern"]``, is that they are {32j + 7} within the range.
    """
    if i_max < 2:
        raise ValueError("i_max must be >= 2")
    found = [
        i
        for i in range(2, i_max + 1)
        if val2_stirling(4 * i, 5) != val2_stirling(4 * i + 3, 5)
    ]
    matches = found == list(range(7, i_max + 1, 32))
    report = ConjectureReport("exceptional indices", params={"i_max": i_max})
    report.details["indices"] = found
    report.details["pattern"] = matches
    report.record(matches, {"indices": found, "expected_pattern": "32j+7"})
    return report


def k5_structure_report(m_max: int = 10, i_max: int = 200) -> ConjectureReport:
    """Verify the proved k=5 splitting structure level by level.

    Every verdict comes from ``build_level_tree(5, m_max)``, where each
    class is proved constant or carries a witness pair.

    For m in 3..m_max, the two children of each level-(m-1) survivor (branch
    ``parent.j % 4``, 0 or 3) must be one CONSTANT child with value m - 2,
    proved for every member by the count of ``classify_class``, and one
    surviving child whose members with index i <= i_max all exceed m - 2.
    The "child floor" check asks for values above m - 3: the proved value
    of the constant child and the computed ones (i <= i_max) of the other.

    Also rechecks, member by member for i <= i_max, the eight fixed
    congruence-class facts for the classes mod 8 and mod 16 (values 1, 1,
    >=2, >=2, 2, 2, >=3, >=3).  ``details["surviving_chain"]`` is read
    off the same tree, only when nothing failed.
    """
    if m_max < 3:
        raise ValueError("m_max must be >= 3")
    if i_max < 1:
        raise ValueError("i_max must be >= 1")
    report = ConjectureReport(
        "k=5 level structure",
        params={"m_max": m_max, "i_max": i_max},
    )

    def member_vals(c: ResidueClass, bound: int) -> list[tuple[int, Valuation]]:
        members = (c.modulus * i + c.j for i in range(bound + 1))
        return [(n, val2_stirling(n, c.k)) for n in members if n >= c.k]

    tree = build_level_tree(5, m_max)
    split_check = "one constant child at m-2, one child above"
    for rec in tree.levels[1:-1]:
        m = rec.m + 1
        for parent in rec.survivors:
            where = {"m": m, "branch": parent.j % 4}
            kids = tree.children(parent)
            # a proved value holds on every member; the smallest stands for them
            pairs = {
                c: [(c.members(1)[0], s.value)] if s.kind == CONSTANT else member_vals(c, i_max)
                for c, s in kids
            }
            bad = [(c.j, n, v) for c, vs in pairs.items() for n, v in vs if v <= m - 3]
            report.record(not bad, {"check": "child floor", **where, "bad": bad})
            constant = [c.j for c, s in kids if s.kind == CONSTANT and s.value == m - 2]
            above = [
                c.j
                for c, s in kids
                if s.kind == NON_CONSTANT and all(v > m - 2 for _, v in pairs[c])
            ]
            report.record(
                len(constant) == 1 and len(above) == 1,
                {"check": split_check, **where, "constant": constant, "above": above},
            )

    # (m, r, op, bound): nu_2(S(n,5)) op bound on the class C(m, r)
    facts = (
        (3, 0, "==", 1), (3, 3, "==", 1), (3, 4, ">=", 2), (3, 7, ">=", 2),
        (4, 4, "==", 2), (4, 7, "==", 2), (4, 12, ">=", 3), (4, 15, ">=", 3),
    )
    for m, r, op, bound in facts:
        c = ResidueClass(5, m, r)
        for n, v in member_vals(c, i_max):
            report.record(
                v == bound if op == "==" else v >= bound,
                {"check": f"nu2(S({c.modulus}i+{r},5)) {op} {bound}", "n": n, "computed": v},
            )

    if not report.counterexamples:
        report.details["surviving_chain"] = [
            {"level": link.level, "j": link.j, "sibling_value": link.sibling_value}
            for link in _surviving_chain(tree)
        ]
    return report
