#!/usr/bin/env python3
"""Time stirval's kernels in process and write ``BENCH_<label>.json``.

    python3 perf/kernels.py --label after          # full run, about 10-40 s
    python3 perf/kernels.py --quick --out x.json   # small inputs, under 2 s
    python3 perf/kernels.py --compare BENCH_before.json BENCH_after.json

Each kernel runs on a fixed input seven times (once with ``--quick``, and
three times once it has taken 8 s) after one warm-up call, and the best
time counts.  Every time is also divided by
the best time of a fixed pure-Python reference task run in the same
process, since the speed of a shared host drifts between runs.  The package
comes from ``src/`` beside this directory.  The output names the git sha of
this checkout (or "unknown"), whether ``src/`` had uncommitted changes
(``dirty``; null outside git, and ``--compare`` flags a dirty side), the
Python version and ``src.lines``, the line count of ``src/stirval/*.py``.
The spread printed per kernel is median / best - 1 over the repetitions of
this run; nothing is gated on it.

The kernels are the column-scan lines of ``ModStirlingEngine.val2_range``:
a long column (the shape of ``val --series stirling``), the live column of
a level tree, short columns that never pass k indices, and a long column
of a large order.  One more kernel builds a whole level tree deep enough
that its last levels take the carried route (``levels.member_values`` on
``exp_sums``), and one writes the report of ``verify main-conjecture`` at
the shape of the CLI benchmark's ``tree`` workload, where the class
verdicts of ``classify_class`` run; both clear the ``val2_stirling``
cache before each call.
Standard library only; nothing is imported from ``bench/``, and this
script does not replace the CLI benchmark there.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REPEAT, MIN_REPEAT, BUDGET_S = 7, 3, 8.0


def reference_task() -> int:
    """Fixed pure-Python work of the package's kind: stepped power sums mod 2**128."""
    mod, acc = 1 << 128, 0
    for k in range(1, 41):
        powers = [pow(b, k, mod) for b in range(1, k + 1)]
        for _ in range(60):
            acc += sum(powers) % mod & 0xFFFF
            powers = [p * b % mod for p, b in zip(powers, range(1, k + 1))]
    return acc


def kernels(quick: bool) -> list[tuple[str, object]]:
    """(name, zero-argument callable) per kernel; ``quick`` shrinks each input."""
    from stirval.levels import Column, ResidueClass, build_level_tree, verify_main_conjecture
    from stirval.stirling import ModStirlingEngine, val2_stirling

    def scan(k: int, start: int, stop: int):
        engine = ModStirlingEngine(k)
        return lambda: deque(engine.val2_range(start, stop), maxlen=0)

    def column(k: int, n: int):
        member = ResidueClass(k, n.bit_length(), n)  # its first member is n
        return lambda: next(Column(k).member_values(member))

    def short_columns(k_min: int, k_max: int, stop: int):
        engines = [ModStirlingEngine(k) for k in range(k_min, k_max + 1)]
        return lambda: [deque(e.val2_range(e.k, stop), maxlen=0) for e in engines]

    def tree(k: int, m_max: int):
        def build():
            val2_stirling.cache_clear()  # every call pays for the same engine values
            return build_level_tree(k, m_max)
        return build

    def report(k: int, m_max: int):
        def write():
            val2_stirling.cache_clear()
            return verify_main_conjecture(k, m_max).to_json()
        return write

    if quick:
        return [
            ("val2_range(100, 2100)", scan(100, 100, 2100)),
            ("Column(64) to 300", column(64, 300)),
            ("val2_range(k, 321), k = 300..320", short_columns(300, 320, 321)),
            ("val2_range(1000, 3000)", scan(1000, 1000, 3000)),
            ("build_level_tree(64, 12)", tree(64, 12)),
            ("verify_main_conjecture(21, 9)", report(21, 9)),
        ]
    return [
        ("val2_range(100, 25100)", scan(100, 100, 25100)),
        ("Column(64) to 2100", column(64, 2100)),
        ("val2_range(k, 601), k = 300..600", short_columns(300, 600, 601)),
        ("val2_range(1000, 101000)", scan(1000, 1000, 101000)),
        ("build_level_tree(128, 18)", tree(128, 18)),
        ("verify_main_conjecture(64, 8)", report(64, 8)),
    ]


def timed(fn, repeat: int) -> list[float]:
    fn()  # warm-up: imports, struct formats, engine set-up
    out: list[float] = []
    while len(out) < min(repeat, MIN_REPEAT) or len(out) < repeat and sum(out) < BUDGET_S:
        start = time.perf_counter()
        fn()
        out.append(time.perf_counter() - start)
    return out


def git_state(root: Path) -> tuple[str, bool | None]:
    """HEAD's sha and whether ``src/`` differs from it; ("unknown", None) outside git."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        sha = git("rev-parse", "HEAD")
        changed = git("status", "--porcelain", "--untracked-files=no", "--", "src")
    except (OSError, subprocess.CalledProcessError):
        return "unknown", None
    return sha, bool(changed)


def run(quick: bool) -> dict:
    sys.path.insert(0, str(SRC))
    repeat = 1 if quick else REPEAT
    reference = timed(reference_task, repeat)
    ref = min(reference)
    entries = []
    for name, fn in kernels(quick):
        times = timed(fn, repeat)
        best = min(times)
        entries.append({
            "name": name,
            "best_s": best,
            "median_s": statistics.median(times),
            "best_rel": best / ref,
            "repeat": len(times),
        })
    sha, dirty = git_state(ROOT)
    return {
        "sha": sha,
        "dirty": dirty,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "src.lines": sum(len(p.read_text().splitlines()) for p in (SRC / "stirval").glob("*.py")),
        "quick": quick,
        "reference_s": ref,
        "kernels": entries,
    }


def compare(old_path: Path, new_path: Path) -> None:
    old, new = (json.loads(p.read_text()) for p in (old_path, new_path))
    for path, record in ((old_path, old), (new_path, new)):
        if record.get("dirty"):
            print(f"{path}: dirty, src/ differed from {record['sha'][:12]} when timed")
    before = {e["name"]: e for e in old["kernels"]}
    for e in new["kernels"]:
        b = before.get(e["name"])
        if b:
            print(f"{e['name']:36} best {b['best_s'] * 1e3:9.2f} -> {e['best_s'] * 1e3:9.2f} ms"
                  f"  x{b['best_s'] / e['best_s']:.2f}"
                  f"  (rel {b['best_rel']:.3f} -> {e['best_rel']:.3f})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="local")
    parser.add_argument("--out", type=Path, help="default: BENCH_<label>.json at the root")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    result = run(args.quick)
    result["label"] = args.label
    out = args.out or ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    for e in result["kernels"]:
        spread = e["median_s"] / e["best_s"] - 1
        print(f"{e['name']:36} best {e['best_s'] * 1e3:9.2f} ms  rel {e['best_rel']:8.3f}"
              f"  spread {spread:6.1%}")
    print(f"reference {result['reference_s'] * 1e3:.2f} ms; wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
