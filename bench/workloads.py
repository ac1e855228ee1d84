"""Workload families of the stirval benchmark and the checks on their output.

A workload is a family of ``stirval`` invocations that share one code path
and cost nearly the same; the seed picks the member.  Seed 0 picks the
default member, whose stdout digest and exit code were recorded from the
seed commit (``REFERENCE``) and are checked whenever a seed picks it.  For
every member, ``check`` recomputes a seeded sample of the emitted values
through an independent exact route:

* the exact triangle ``stirval.stirling.stirling_exact`` for n <= 400,
* the big-integer binomial sum k!S(n,k) = sum (-1)^i C(k,i) (k-i)^n above,
* exact ``Fraction`` partial sums for the polylog (Cohen) entries.

The triangle is capped at n = 400 because the shared oracle keeps every
row it builds: rows up to 400 hold 14 MB, rows up to 2000 about 1.6 GB.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

TRIANGLE_MAX_N = 400

# Digest of stdout and exit code of each default member at the seed commit.
REFERENCE = {
    "grid": ("0ee6a5243c01f9a19be4ef6b80ae3c8ced4d04f51974ecd678687616f573e156", 0),
    "tree": ("cdabfc79fa616d6b16c6c3cebc81d17b0dd3ccee7e511b5fa58b952c993c516f", 1),
    "stream": ("e923533baebeee272f33accb72eee21efe8cac2f7c06de70921e37f8aac1b633", 0),
    "series": ("3a01496bcc99544a897bd350f5fe74cf310f708eca74dbc94aa0888b70270bc6", 1),
}


@dataclass(frozen=True)
class Instance:
    """One member of a workload family: the CLI arguments and what to expect."""

    workload: str
    params: dict
    argv: tuple[str, ...]
    exit_code: int


def nu2(x: int) -> float:
    return math.inf if x == 0 else (x & -x).bit_length() - 1


def exact_val2_stirling(n: int, k: int) -> float:
    """nu_2(S(n,k)) from the exact triangle or the exact binomial sum."""
    if n <= TRIANGLE_MAX_N:
        from stirval.stirling import stirling_exact

        return nu2(stirling_exact(n, k))
    ksf = sum((-1) ** i * math.comb(k, i) * (k - i) ** n for i in range(k))
    return nu2(ksf) - nu2(math.factorial(k))


# --- grid: verify identities --------------------------------------------------


def _grid(rng: random.Random | None) -> Instance:
    # q-max and k-max stay fixed: between 9..11 and 48..80 they move the cost by 5%
    n = 260 if rng is None else rng.choice((259, 260, 261))
    argv = ("verify", "identities", "--n-max", str(n), "--q-max", "10", "--k-max", "64")
    return Instance("grid", {"n_max": n, "q_max": 10, "k_max": 64}, argv, 0)


def _check_grid(inst: Instance, report: dict, rng: random.Random) -> tuple[int, list[str]]:
    n = inst.params["n_max"]
    problems = []
    subchecks = report["details"].get("subchecks", [])
    if report["status"] != "CONSISTENT" or report["counterexamples"] or report["inconclusive"]:
        problems.append(f"identities reported {report['status']}")
    if len(subchecks) != 1 or subchecks[0]["status"] != "CONSISTENT":
        problems.append(f"unexpected subchecks {subchecks}")
    else:
        # inequality grid + closed forms (k <= 5) + parity formulas (k <= 4) + special values
        grid = n * (n + 1) // 2
        closed = sum(min(n, 500) - k + 1 for k in range(1, 6))
        parity = sum(n - k + 1 for k in range(1, 5))
        expected = grid + closed + parity + subchecks[0]["checked"]
        if report["checked"] != expected:
            problems.append(f"checked {report['checked']}, expected {expected}")
    # the report claims a nonnegative De Wannemacker gap on the whole grid
    for _ in range(2000):
        nn = rng.randint(1, n)
        k = rng.randint(1, nn)
        gap = exact_val2_stirling(nn, k) - k.bit_count() + nn.bit_count()
        if gap < 0:
            problems.append(f"exact gap {gap} < 0 at n={nn}, k={k}")
            break
    return report["checked"], problems


# --- tree: verify main-conjecture ----------------------------------------------

TREE_K = 64
TREE_LEVELS = 8
# cap on the members recomputed exactly; n = 16384 costs about 30 ms at k = 64
TREE_CHECK_MAX_N = 1 << 14


def _tree(rng: random.Random | None) -> Instance:
    samples = 64 if rng is None else rng.choice((63, 64, 65))
    argv = (
        "verify", "main-conjecture", "--k", str(TREE_K),
        "--levels", str(TREE_LEVELS), "--samples", str(samples),
    )
    return Instance("tree", {"k": TREE_K, "m_max": TREE_LEVELS, "samples": samples}, argv, 1)


def _check_tree(inst: Instance, report: dict, rng: random.Random) -> tuple[int, list[str]]:
    problems = []
    if report["status"] != "COUNTEREXAMPLE":
        problems.append(f"main conjecture reported {report['status']}, expected COUNTEREXAMPLE")
    tree = report["details"]["tree"]
    if len(tree["levels"]) != len(report["details"]["levels"]):
        problems.append("level verdicts and tree levels differ in length")
    k, samples = inst.params["k"], inst.params["samples"]
    claims = []  # (n, claimed valuation)
    for level in tree["levels"]:
        for cls in level["classes"]:
            m, j = cls["m"], cls["j"]
            first = j + ((max(k - j, 0) + (1 << m) - 1) >> m << m)
            if cls["status"] == "CONSTANT":
                i = rng.randrange(samples)
                claims.append((first + (i << m), cls["value"]))
            elif cls["status"] == "NON_CONSTANT":
                (na, va), (nb, vb) = cls["witnesses"]
                if va == vb or na != first or (nb - j) % (1 << m) or nb <= na:
                    problems.append(f"bad witnesses {cls['witnesses']} for C({m},{j})")
                claims.append((na, va))
                claims.append((nb, vb))
            else:
                problems.append(f"class C({m},{j}) is {cls['status']}")
    claims = [c for c in claims if c[0] <= TREE_CHECK_MAX_N]
    for n, v in rng.sample(claims, min(24, len(claims))):
        exact = exact_val2_stirling(n, k)
        if exact != v:
            problems.append(f"nu2(S({n},{k})) is {exact}, report says {v}")
    return report["checked"], problems


# --- stream: val --series stirling -----------------------------------------------

STREAM_K = 100
STREAM_ROWS = 25_000


def _stream(rng: random.Random | None) -> Instance:
    start = 100 if rng is None else rng.randint(100, 199)
    stop = start + STREAM_ROWS - 1
    argv = ("val", "--series", "stirling", "--k", str(STREAM_K),
            "--n-min", str(start), "--n-max", str(stop))
    return Instance("stream", {"k": STREAM_K, "n_min": start, "n_max": stop}, argv, 0)


def _check_stream(inst: Instance, text: str, rng: random.Random) -> tuple[int, list[str]]:
    start, stop, k = inst.params["n_min"], inst.params["n_max"], inst.params["k"]
    lines = text.split("\n")
    if lines[0] != "n,value" or lines[-1] != "":
        return 0, ["CSV lacks its header or final newline"]
    rows = lines[1:-1]
    values = {}
    for n, line in enumerate(rows, start):
        key, _, value = line.partition(",")
        if key != str(n) or not value.isdigit():
            return len(rows), [f"row {line!r} where n={n} was due"]
        values[n] = int(value)
    if len(rows) != stop - start + 1:
        return len(rows), [f"{len(rows)} rows, expected {stop - start + 1}"]
    small = range(start, min(stop, TRIANGLE_MAX_N) + 1)
    picks = rng.sample(small, min(16, len(small))) + [rng.randint(start, stop) for _ in range(3)]
    problems = [
        f"nu2(S({n},{k})) is {exact}, CSV says {values[n]}"
        for n in picks
        if (exact := exact_val2_stirling(n, k)) != values[n]
    ]
    return len(rows), problems


# --- series: verify cohen -------------------------------------------------------

SERIES_M_MAX = 13
# entries up to m = 12 are recomputed; the sum to 2^12 costs about 50 ms
SERIES_CHECK_MAX_M = 12
COHEN_FORMULAS = {1: lambda m: (1 << m) + 2 * m - 4, 2: lambda m: (1 << m) + m - 1}


def _series(rng: random.Random | None) -> Instance:
    # below m = 4 entries are reported, not checked, so every member checks as many
    m_min = 4 if rng is None else rng.randint(1, 4)
    argv = ("verify", "cohen", "--m-min", str(m_min), "--m-max", str(SERIES_M_MAX))
    return Instance("series", {"m_min": m_min, "m_max": SERIES_M_MAX}, argv, 1)


def _check_series(inst: Instance, report: dict, rng: random.Random) -> tuple[int, list[str]]:
    m_min, m_max = inst.params["m_min"], inst.params["m_max"]
    problems = []
    entries = report["details"]["entries"]
    want_keys = [(k, m) for k in (1, 2) for m in range(m_min, m_max + 1)]
    if [(e["k"], e["m"]) for e in entries] != want_keys:
        return report["checked"], ["entries do not cover k in (1, 2) and m in range"]
    stated = [e for e in entries if e["m"] >= 4]
    for e in stated:
        if e["expected"] != COHEN_FORMULAS[e["k"]](e["m"]):
            problems.append(f"entry {e} states a wrong formula value")
    if any("expected" in e for e in entries if e["m"] < 4):
        problems.append("an entry below m = 4 is asserted")
    failing = [e for e in stated if e["computed"] != e["expected"]]
    if report["checked"] != len(stated) or report["counterexamples"] != failing:
        problems.append("checked count or counterexamples disagree with the entries")
    if report["status"] != "COUNTEREXAMPLE":
        problems.append(f"cohen reported {report['status']}, expected COUNTEREXAMPLE")
    for k in (1, 2):
        ms = range(m_min, SERIES_CHECK_MAX_M + 1)
        picked = sorted(rng.sample(ms, min(3, len(ms))))
        total, j = Fraction(0), 0
        for m in picked:
            while j < 1 << m:
                j += 1
                total += Fraction(1 << j, j**k)
            exact = nu2(total.numerator) - nu2(total.denominator)
            got = entries[(k - 1) * (m_max - m_min + 1) + m - m_min]["computed"]
            if exact != got:
                problems.append(f"nu2(L_{k}(2^{m})) is {exact}, report says {got}")
    return report["checked"], problems


FAMILIES = {
    "grid": (_grid, _check_grid),
    "tree": (_tree, _check_tree),
    "stream": (_stream, _check_stream),
    "series": (_series, _check_series),
}


def instance(workload: str, seed: int) -> Instance:
    """The member of ``workload`` picked by ``seed``; seed 0 is the default."""
    make, _ = FAMILIES[workload]
    return make(None if seed == 0 else random.Random(f"{workload}:{seed}"))


def check(inst: Instance, stdout: bytes, exit_code: int, seed: int) -> tuple[int, list[str]]:
    """Check one invocation's output; returns (work items, problems found)."""
    problems = []
    if exit_code != inst.exit_code:
        problems.append(f"exit code {exit_code}, expected {inst.exit_code}")
    if inst == instance(inst.workload, 0):
        digest, code = REFERENCE[inst.workload]
        if hashlib.sha256(stdout).hexdigest() != digest or exit_code != code:
            problems.append("stdout or exit code differs from the seed-commit reference")
    _, verify = FAMILIES[inst.workload]
    rng = random.Random(f"check:{inst.workload}:{seed}")
    try:
        text = stdout.decode("utf-8")
        payload = text if inst.workload == "stream" else json.loads(text)
        items, found = verify(inst, payload, rng)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return 0, problems + [f"malformed output: {exc!r}"]
    return items, problems + found
