"""Run the stirval CLI in-process, optionally with timing wrappers on its layers.

    python bench/tracer.py RUN_ID 0|1 CLI_ARG...

Runs ``stirval.cli.main(CLI_ARG...)`` in this process, with the package
taken from PYTHONPATH, and exits with its return code.  Stdout is the CLI's
own output, byte for byte.  After the CLI returns, one line starting with
``MARKER`` goes to stderr: a JSON summary with the in-process wall time of
``cli.main`` and, when tracing is on (second argument 1), per-span totals.

Spans are opened and closed by wrappers around public functions and methods
of the package.  The stack of open spans gives each span its parent; when a
span closes, its duration goes to its name's total, its duration minus the
time of its child spans to its name's self time, and one count to the
(parent, child) edge.  Nothing else is kept, so tracing a run of 10^5 calls
holds a few dictionaries, not 10^5 span records.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

MARKER = "@@stirval-bench "


class Tracer:
    """Span stack and per-name totals for one traced run."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [name, start, time in children]
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.edges: Counter = Counter()
        self.values: Counter = Counter()

    def enter(self, name: str) -> None:
        self.stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        name, start, in_children = self.stack.pop()
        duration = time.perf_counter() - start
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - in_children
        if self.stack:
            parent = self.stack[-1]
            parent[2] += duration
            self.edges[f"{parent[0]}>{name}"] += 1

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    def wrap_generator(self, name: str, fn):
        """One span per resumption, so the consumer's work stays outside it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                self.enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.exit()
                self.values[name] += 1
                yield item

        return traced

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "edges": dict(self.edges),
            "values": dict(self.values),
        }


def _cache_calls(cached) -> int:
    info = cached.cache_info()
    return info.hits + info.misses


def install(tracer: Tracer) -> dict:
    """Wrap the layer boundaries where callers look them up.

    A module-level function is replaced in every stirval module that holds
    it, under whatever name it was imported; methods are replaced on their
    class.  ``val2_stirling`` is read through its cache counters instead:
    ``classify_class`` binds it as a default argument, so a replacement
    would never be called there.  Returns the cache counters to diff.
    """
    from stirval import levels, padic, reports, sequences, stirling

    functions = {
        stirling.stirling_exact: "stirling.stirling_exact",
        stirling.identity_battery: "stirling.identity_battery",
        levels.classify_class: "levels.classify_class",
        levels.verify_main_conjecture: "levels.verify_main_conjecture",
        sequences.cohen_check: "sequences.cohen_check",
        padic.nu_int: "padic.nu_int",
        padic.nu_rat: "padic.nu_rat",
        padic.digit_sum: "padic.digit_sum",
    }
    wrappers = {fn: tracer.wrap(name, fn) for fn, name in functions.items()}

    # val2_stirling calls made inside classify_class spans, for values per class
    classify = wrappers[levels.classify_class]

    @functools.wraps(classify)
    def classify_counted(*args, **kwargs):
        before = _cache_calls(stirling.val2_stirling)
        try:
            return classify(*args, **kwargs)
        finally:
            tracer.values["levels.classify_class"] += (
                _cache_calls(stirling.val2_stirling) - before
            )

    wrappers[levels.classify_class] = classify_counted

    for mod_name, module in list(sys.modules.items()):
        if mod_name != "stirval" and not mod_name.startswith("stirval."):
            continue
        for attr, value in list(vars(module).items()):
            if callable(value) and value in wrappers:
                setattr(module, attr, wrappers[value])

    engine = stirling.ModStirlingEngine
    engine.val2 = tracer.wrap("stirling.val2", engine.val2)
    engine.ksf_mod = tracer.wrap("stirling.ksf_mod", engine.ksf_mod)
    engine.val2_range = tracer.wrap_generator("stirling.val2_range", engine.val2_range)
    report = reports.ConjectureReport
    report.record = tracer.wrap("reports.record", report.record)
    report.to_json = tracer.wrap("reports.to_json", report.to_json)
    return stirling.val2_stirling.cache_info()._asdict()


def main(argv: list[str]) -> int:
    run_id, trace, cli_args = argv[0], argv[1] == "1", argv[2:]
    from stirval import cli, stirling

    tracer = Tracer() if trace else None
    cache_before = install(tracer) if tracer else None
    run_cli = tracer.wrap("cli.main", cli.main) if tracer else cli.main
    start = time.perf_counter()
    code = run_cli(cli_args)
    wall = time.perf_counter() - start
    sys.stdout.flush()
    summary = {"run": run_id, "wall_s": wall}
    if tracer:
        summary.update(tracer.summary())
        cache_after = stirling.val2_stirling.cache_info()._asdict()
        summary["cache"] = {
            key: cache_after[key] - cache_before[key] for key in ("hits", "misses")
        }
    sys.stderr.write(MARKER + json.dumps(summary) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
