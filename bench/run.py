"""Benchmark of the stirval CLI: cold invocations, end-to-end and per layer.

    python3 bench/run.py --workload grid|tree|stream|series|all
                         [--seed N] [--seconds S] [--trace 0|1]

Each workload is a closed loop with one client: one cold
``python -m stirval.cli ...`` child process at a time, because a user pays
the interpreter start and imports on every call, and because
``stirval.stirling`` keeps module-level caches that a second in-process
run would find warm.  The package comes from ``src/`` next to this
directory; nothing is installed.  Every program is started through
``bench/launch.py``, which times it and takes its peak RSS (see there why).

With ``--trace 0`` each step of the loop runs a cold ``stirval --help``,
the reference task ``bench/reference.py`` and the workload's invocation,
until ``--seconds`` are used.  It reports medians over the steps:

    wall_rel       the invocation's cold wall time divided by that of the
                   reference task run just before it (see reference.py
                   for why raw seconds are not gated)
    items_per_ref  report ``checked`` (verify) or CSV rows (val) per
                   reference-task duration: items / wall_rel
    peak_rss_mb    the invocation's own ru_maxrss, from os.wait4 in launch.py
    setup_s        cold ``stirval --help``: interpreter, imports, parser

and prints the raw wall time and items per second beside them.

With ``--trace 1`` the invocation runs through ``bench/tracer.py``, which
wraps the package's layer boundaries, alternately with tracing off and on;
it reports per-layer counts and times, and the tracing overhead.

Every invocation's stdout and exit code are checked (see workloads.py); the
last stdout line is the JSON result ``{"correct", "attempted", "failed",
"metrics"}``.  Lines before it repeat each metric with its unit, the share
of failed invocations and the line count of ``src/stirval/*.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import launch
import workloads
from tracer import MARKER

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
TRACER = BENCH / "tracer.py"
REFERENCE = BENCH / "reference.py"
LAUNCH = BENCH / "launch.py"
LAUNCH_MARKER = launch.MARKER.encode()
REFERENCE_OUTPUT = b"833656 879120\n"
WORKLOADS = tuple(workloads.FAMILIES)

RUN_LIMIT_S = 165  # a run must end within 180 s
PREPARE_LIMIT_S = 10
MIN_SAMPLES = 3
MIN_TRACED = 2

# Span (or cache) -> workloads on which the layer must record work; the
# end-to-end metric it should move there is given in README.md.
EXPECTED_WORK = {
    "stirling.val2_range": ("grid", "stream"),
    "stirling.val2": ("tree",),
    "stirling.ksf_mod": ("tree",),
    "stirling.val2_stirling": ("grid", "tree"),
    "stirling.stirling_exact": ("grid",),
    "stirling.identity_battery": ("grid",),
    "levels.classify_class": ("tree",),
    "levels.verify_main_conjecture": ("tree",),
    "sequences.cohen_check": ("series",),
    "padic.nu_rat": ("series",),
    "padic.nu_int": ("grid", "stream"),
    "padic.digit_sum": ("grid",),
    "reports.record": ("grid", "tree"),
    "reports.to_json": ("grid", "tree"),
    "cli.main": WORKLOADS,
}


class SetupError(Exception):
    """The checkout cannot run the benchmark at all."""


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    launcher_rss_mb: float
    exit_code: int
    stdout: bytes
    stderr: bytes


def child_env() -> dict:
    """The caller's environment without Python or stirval settings."""
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith(("PYTHON", "STIRVAL_"))
    }
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args: list[str], env: dict, deadline: float) -> Child:
    """Run ``python ARGS`` through launch.py; its wall time, peak RSS and output.

    launch.py kills the program at ``deadline``; if launch.py itself is
    still running shortly after, its process group is killed.
    """
    timeout = max(deadline - time.perf_counter(), 0.001)
    proc = subprocess.Popen(
        [sys.executable, str(LAUNCH), f"{timeout:.3f}", sys.executable, *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout + 10)
    except BaseException as exc:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # the group ended meanwhile
            pass
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise SetupError(f"launch.py did not end: {args}") from exc
        raise
    head, _, last = stderr.rstrip(b"\n").rpartition(b"\n")
    if not last.startswith(LAUNCH_MARKER):
        raise SetupError(f"launch.py failed: {stderr[-500:]!r}")
    m = json.loads(last[len(LAUNCH_MARKER):])
    return Child(m["wall_s"], m["rss_mb"], m["launcher_rss_mb"], m["exit_code"],
                 stdout, head)


def prepare(env: dict, deadline: float) -> None:
    """Check that children import stirval from this checkout; warm __pycache__."""
    cli_path = SRC / "stirval" / "cli.py"
    if not cli_path.is_file():
        raise SetupError(f"{cli_path} not found: run from a full checkout")
    warm = spawn(["-c", "import stirval.cli; print(stirval.cli.__file__)"], env, deadline)
    if warm.exit_code != 0 or Path(warm.stdout.decode().strip()).resolve() != cli_path:
        raise SetupError(f"children do not import {cli_path}: {warm.stderr.decode()}")
    sys.path.insert(0, str(SRC))  # the output checks use the exact triangle


def src_lines() -> int:
    """Line count of the package sources, as ``wc -l src/stirval/*.py``."""
    return sum(p.read_bytes().count(b"\n") for p in (SRC / "stirval").glob("*.py"))


def count_failures(runs: list[Child], first_ok: bool) -> int:
    """Invocations that do not reproduce the first one's checked output."""
    ref = runs[0]
    same = [first_ok and (r.stdout, r.exit_code) == (ref.stdout, ref.exit_code) for r in runs]
    return same.count(False)


def measure(inst: workloads.Instance, seed: int, seconds: float, env: dict, deadline: float) -> dict:
    """Closed loop of cold invocations with tracing off: end-to-end metrics.

    Each step runs ``stirval --help``, the reference task and the workload's
    invocation, in that order; the workload's wall time is divided by that
    of the reference task just before it.
    """
    cli = ["-m", "stirval.cli"]
    runs, setups, ratios, bad_setups, bad_refs = [], [], [], 0, 0
    start = time.perf_counter()
    while True:
        setup = spawn([*cli, "--help"], env, deadline)
        bad_setups += setup.exit_code != 0 or not setup.stdout.startswith(b"usage: stirval")
        setups.append(setup)
        ref = spawn([str(REFERENCE)], env, deadline)
        bad_refs += ref.exit_code != 0 or ref.stdout != REFERENCE_OUTPUT
        runs.append(spawn([*cli, *inst.argv], env, deadline))
        ratios.append(runs[-1].wall_s / ref.wall_s)
        now = time.perf_counter()
        step = setup.wall_s + ref.wall_s + runs[-1].wall_s
        if now + step > deadline or (len(runs) >= MIN_SAMPLES and now - start + step > seconds):
            break
    items, problems = workloads.check(inst, runs[0].stdout, runs[0].exit_code, seed)
    failed = count_failures(runs, not problems) + bad_setups
    if bad_setups:
        problems.append(f"stirval --help failed {bad_setups} times")
    if bad_refs:
        problems.append(f"the reference task failed {bad_refs} times")
    launcher = max(c.launcher_rss_mb for c in runs)
    if launcher >= min(r.rss_mb for r in runs):
        problems.append(f"launch.py ({launcher:.1f} MB) is not smaller than the invocation")
    wall_rel = statistics.median(ratios)
    wall = statistics.median(r.wall_s for r in runs)
    metrics = {
        "wall_rel": wall_rel,
        "items_per_ref": items / wall_rel,
        "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
        "setup_s": statistics.median(s.wall_s for s in setups),
    }
    notes = [
        f"samples {len(runs)} invocations, {len(setups)} set-ups, {items} items each",
        f"raw wall_s {wall:.6g} s, items_per_s {items / wall:.6g} 1/s, "
        f"reference task {statistics.median(r.wall_s / q for r, q in zip(runs, ratios)):.6g} s",
    ]
    return result(metrics, len(runs) + len(setups), failed, problems, notes)


def summary_of(child: Child) -> dict | None:
    for line in reversed(child.stderr.decode(errors="replace").splitlines()):
        if line.startswith(MARKER):
            return json.loads(line[len(MARKER):])
    return None


def layer_metrics(s: dict) -> tuple[dict, dict]:
    """Per-layer counts and times of one traced run, from its span totals."""
    calls, total, own, edges, values = (
        Counter(s[key]) for key in ("calls", "total", "self", "edges", "values")
    )
    val2 = calls["stirling.val2"]
    classify = calls["levels.classify_class"]
    counts = {
        "stirling.val2_range.values": values["stirling.val2_range"],
        "stirling.val2_range.fallbacks": edges["stirling.val2_range>stirling.val2"],
        "stirling.val2.calls": val2,
        "stirling.ksf_mod.calls": calls["stirling.ksf_mod"],
        "stirling.val2.ksf_per_call":
            edges["stirling.val2>stirling.ksf_mod"] / val2 if val2 else 0.0,
        "stirling.val2_stirling.hits": s["cache"]["hits"],
        "stirling.val2_stirling.misses": s["cache"]["misses"],
        "stirling.stirling_exact.calls": calls["stirling.stirling_exact"],
        "levels.classify_class.calls": classify,
        "levels.values_per_class": values["levels.classify_class"] / classify if classify else 0.0,
        "padic.nu_rat.calls": calls["padic.nu_rat"],
        "padic.nu_int.calls": calls["padic.nu_int"],
        "padic.digit_sum.calls": calls["padic.digit_sum"],
        "reports.record.calls": calls["reports.record"],
    }
    times = {
        "stirling.val2_range.self_s": own["stirling.val2_range"],
        "stirling.val2.s": total["stirling.val2"],
        "stirling.ksf_mod.s": total["stirling.ksf_mod"],
        "stirling.stirling_exact.s": total["stirling.stirling_exact"],
        "stirling.identity_battery.self_s": own["stirling.identity_battery"],
        "levels.classify_class.self_s": own["levels.classify_class"],
        "levels.verify_main_conjecture.self_s": own["levels.verify_main_conjecture"],
        "sequences.cohen_check.s": total["sequences.cohen_check"],
        "sequences.cohen_check.self_s": own["sequences.cohen_check"],
        "padic.nu_rat.s": total["padic.nu_rat"],
        "padic.nu_int.s": total["padic.nu_int"],
        "reports.to_json.s": total["reports.to_json"],
        "cli.main.s": total["cli.main"],
        "cli.main.self_s": own["cli.main"],
    }
    return counts, times


def missing_work(workload: str, s: dict) -> list[str]:
    """Layers the mapping says this workload exercises, but that saw no call."""
    calls = dict(s["calls"])
    calls["stirling.val2_stirling"] = s["cache"]["hits"] + s["cache"]["misses"]
    return [
        f"no calls to {name} on {workload}: a wrapper does not bind where it is called"
        for name, where in EXPECTED_WORK.items()
        if workload in where and not calls.get(name)
    ]


def trace(inst: workloads.Instance, seed: int, seconds: float, env: dict, deadline: float) -> dict:
    """Traced and untraced in-process runs, alternating: per-layer metrics."""
    ref = spawn(["-m", "stirval.cli", *inst.argv], env, deadline)
    _, problems = workloads.check(inst, ref.stdout, ref.exit_code, seed)
    ref_ok = not problems
    runs, summaries, lost = [ref], {"0": [], "1": []}, 0
    start = time.perf_counter()
    while True:
        step = 0.0
        for traced in ("0", "1"):
            run_id = f"{inst.workload}/seed={seed}/trace={traced}/{len(summaries[traced])}"
            child = spawn([str(TRACER), run_id, traced, *inst.argv], env, deadline)
            runs.append(child)
            step += child.wall_s
            summary = summary_of(child)
            if summary is None:
                lost += 1
                problems.append(f"{run_id} left no summary: {child.stderr[-500:]!r}")
            else:
                summaries[traced].append(summary)
        now = time.perf_counter()
        if now + step > deadline or (
            len(summaries["1"]) >= MIN_TRACED and now - start + step > seconds
        ):
            break
    failed = count_failures(runs, ref_ok) + lost
    traced = summaries["1"]
    if not traced or not summaries["0"]:
        return result({}, len(runs), failed, problems or ["no traced run"], [])
    counts, times = zip(*(layer_metrics(s) for s in traced))
    for s, c in zip(traced[1:], counts[1:]):
        if c != counts[0]:
            diff = sorted(k for k in c if c[k] != counts[0][k])
            problems.append(f"counts of {s['run']} differ from {traced[0]['run']}: {diff}")
    problems += missing_work(inst.workload, traced[0])
    wall = {k: statistics.median(s["wall_s"] for s in v) for k, v in summaries.items()}
    metrics = dict(counts[0])
    metrics.update({k: statistics.median(t[k] for t in times) for k in times[0]})
    metrics["cli.stdout_bytes"] = len(ref.stdout)
    metrics["trace.overhead_s"] = wall["1"] - wall["0"]
    metrics["src.lines"] = src_lines()
    notes = [f"samples {len(traced)} traced, {len(summaries['0'])} untraced in-process runs"]
    return result(metrics, len(runs), failed, problems, notes)


def result(metrics: dict, attempted: int, failed: int, problems: list[str], notes: list[str]) -> dict:
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "notes": notes,
    }


def report(workload: str, res: dict, listed: list[dict]) -> None:
    """Human-readable lines, then the JSON result as the last line.

    ``listed`` are the metrics of BENCHMARK.json this run must report, in
    its order and with its units.
    """
    missing = [m["name"] for m in listed if m["name"] not in res["metrics"]]
    if missing:
        res["correct"] = False
        res["problems"].append(f"not measured: {missing}")
    res["metrics"] = {
        m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]}
        for m in listed
        if m["name"] not in missing
    }
    for name, m in res["metrics"].items():
        print(f"{workload:<7} {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"{workload:<7} {'failed_share':<40} {res['failed'] / res['attempted']:>14.6g} "
          f"({res['failed']}/{res['attempted']} invocations)")
    for note in res.pop("notes"):
        print(f"{workload:<7} {note}")
    for problem in res.pop("problems"):
        print(f"{workload:<7} FAILED {problem}")
    print(json.dumps(res), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    env = child_env()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    run = trace if args.trace else measure
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        prepare(env, time.perf_counter() + PREPARE_LIMIT_S)
        print(f"stirval source lines (wc -l src/stirval/*.py): {src_lines()}")
        for name in names:
            deadline = time.perf_counter() + RUN_LIMIT_S
            inst = workloads.instance(name, args.seed)
            print(f"{name:<7} stirval {' '.join(inst.argv)}")
            report(name, run(inst, args.seed, seconds, env, deadline), listed)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0

if __name__ == "__main__":
    sys.exit(main())
