"""Command-line surface: valuation series, verification targets, figure data.

Exit codes follow the verification convention throughout: 0 when every
check was consistent, 1 when a counterexample was found, 2 when some
instance was inconclusive, 64 on usage errors.  CSV output is UTF-8 with
LF line endings, a header row and no trailing whitespace, written a row
at a time as it is computed, after every check of the arguments.  Each
row (a tuple) is formatted by one ``%s`` template built from the header.
Every cell is an int or INFINITE, so a row's text holds "inf" exactly when
a cell is INFINITE; such a row is joined field by field instead, so an
infinite valuation serializes as an empty CSV field (and as "inf" in JSON).

Each ``verify`` target is one library function that returns a
``ConjectureReport``.  Its options are the function's parameters, each an
int with its default, read off ``__code__`` after ``__wrapped__`` so that
start-up imports no ``inspect``; ``stirval verify <target> --help`` lists
them.  An option the target does not read is a usage error, and so is a
``ValueError`` from the function, reworded to name the options typed.

Start-up imports ``padic`` (and ``reports``) only: a target's or a series'
module is imported when it runs, so ``verify identities`` loads ``stirling``
and no ``levels``, ``sequences`` or ``approx``.  ``pathlib`` is imported
only to check an ``--out`` path.
"""

from __future__ import annotations

import argparse
import itertools
import re
import sys
from importlib import import_module
from typing import Iterable, Iterator

from . import padic
from .padic import INFINITE

EX_OK = 0
EX_USAGE = 64
_REQUIRED = object()  # the default of a parameter that has none


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here is 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(value) -> str:
    return "" if value is INFINITE else str(value)


def _csv(header: list[str], rows) -> Iterator[str]:
    yield ",".join(header) + "\n"
    line = ",".join(["%s"] * len(header)) + "\n"
    for row in rows:
        text = line % row
        yield ",".join(map(_fmt, row)) + "\n" if "inf" in text else text


def _check_out(out: str | None) -> None:
    """Reject an --out path that cannot name a new or existing file, before any work."""
    if not out:
        return
    from pathlib import Path

    path = Path(out)
    if path.is_dir():
        raise ValueError(f"cannot write --out {out}: it is a directory")
    if not path.parent.is_dir():
        raise ValueError(f"cannot write --out {out}: no directory {path.parent}")


def _emit(lines: Iterable[str], out: str | None) -> None:
    """Write lines to the --out path, LF line endings kept, or to stdout, as they come."""
    if not out:
        sys.stdout.writelines(lines)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise ValueError(f"cannot write --out {out}: {exc.strerror or exc}") from exc


def _n_range(args) -> range:
    if args.n is not None:
        if args.n_min is not None or args.n_max is not None:
            raise ValueError("give either --n or --n-min/--n-max, not both")
        return range(args.n, args.n + 1)
    if args.n_min is None or args.n_max is None:
        raise ValueError("need --n, or both --n-min and --n-max")
    if args.n_min > args.n_max:
        raise ValueError("--n-min must not exceed --n-max")
    return range(args.n_min, args.n_max + 1)


_CHOSEN = {"val": "--series {0.series}", "figure": "figure {0.name}"}


def _required_k(args) -> int:
    """--k, which the chosen series or figure needs: an order or weight >= 1."""
    if args.k is None:
        raise ValueError(_CHOSEN[args.command].format(args) + " requires --k")
    if args.k < 1:
        raise ValueError("--k must be >= 1")
    return args.k


def _module(name: str):
    """The stirval module ``name``, imported on its first use."""
    return import_module(f"{__package__}.{name}")


def _cohen_rows(k: int, ns: range) -> Iterator[tuple[int, int]]:
    """(n, nu_2(L_k(n))) for n in ns, lazily; ns starts at 1 or above, k is checked now."""
    sums = _module("sequences").cohen_partial_sums(k)
    return (
        (n, padic.nu_rat(2, total))
        for n, total in itertools.islice(sums, ns.start - 1, ns.stop - 1)
    )


def _k_series(rows):
    """The handler of a series of order or weight --k, indexed from n = 1."""

    def handler(args, ns: range):
        k = _required_k(args)
        if ns.start < 1:
            raise ValueError(f"{args.series} series needs n >= 1")
        return rows(k, ns)

    return handler


def _p_series(value, n_min=None):
    """The handler of the series n -> value(p, n) for the prime --p, from n_min on."""

    def handler(args, ns: range):
        if not padic.is_prime(args.p):
            raise ValueError(f"--p must be prime, got {args.p}")
        if n_min is not None and ns.start < n_min:
            raise ValueError(f"{args.series} series needs n >= {n_min}")
        return ((n, value(args.p, n)) for n in ns)

    return handler


# Each table maps a choice to its handler; the parser takes its choices
# from the keys, in this order.
_SERIES = {
    "stirling": _k_series(
        lambda k, ns: _module("stirling").get_engine(k).val2_range(ns.start, ns.stop)
    ),
    "factorial": _p_series(padic.legendre_factorial_val, n_min=0),
    "int": _p_series(padic.nu_int),
    "cohen": _k_series(_cohen_rows),
}


# target: (module name, name of the function it runs, {parameter: option} for
# the options not named --<parameter>).  The function is looked up on each use,
# so a wrapper put in its place is the one the run calls, and the parser reads
# the parameters of the function its __wrapped__ chain (functools.wraps) ends at.
_TARGETS = {
    "main-conjecture": ("levels", "verify_main_conjecture", {"m_max": "--levels"}),
    "k5-theorem": ("levels", "k5_structure_report", {"m_max": "--levels"}),
    "exceptional": ("levels", "exceptional_indices", {}),
    "approx": ("approx", "approx_report", {}),
    "clarke": ("sequences", "clarke_battery", {}),
    "identities": ("stirling", "identity_battery", {}),
    "lemmas": ("padic", "power_lemma_report", {}),
    "alm": ("sequences", "a_lm_val_check", {}),
    "cohen": ("sequences", "cohen_check", {}),
}


def _target(name: str):
    """The function a target runs, and {parameter: (option, default)} for it.

    Read off ``__code__`` after ``__wrapped__``: start-up does not import ``inspect``.
    """
    module, attr, renames = _TARGETS[name]
    function = inner = getattr(_module(module), attr)
    while hasattr(inner, "__wrapped__"):
        inner = inner.__wrapped__
    params = inner.__code__.co_varnames[: inner.__code__.co_argcount]
    defaults = dict(zip(reversed(params), reversed(inner.__defaults__ or ())))
    return function, {
        p: (renames.get(p, "--" + p.replace("_", "-")), defaults.get(p, _REQUIRED))
        for p in params
    }


# figure: (CSV header, handler).  A handler returns an iterator of rows and
# checks --k when called: a generator expression evaluates its first iterable.
_FIGURES = {
    "val-n": (
        ["n", "value"],
        lambda a: ((n, padic.nu_int(2, n)) for n in range(1, a.n_max + 1)),
    ),
    "val-factorial": (
        ["m", "value"],
        lambda a: ((m, padic.legendre_factorial_val(2, m)) for m in range(1, a.n_max + 1)),
    ),
    "err-factorial": (
        ["m", "s2"],
        lambda a: ((m, padic.digit_sum(2, m)) for m in range(1, a.n_max + 1)),
    ),
    "cohen": (
        ["n", "value", "err"],
        lambda a: (
            (n, v, v - n)
            for n, v in _cohen_rows(
                1 if a.k is None else _required_k(a), range(1, a.n_max + 1)
            )
        ),
    ),
    "stirling-k": (
        ["n", "value"],
        lambda a: _module("stirling").get_engine(_required_k(a)).val2_range(a.k, a.n_max + 1),
    ),
    "wannemacker-diff": (
        ["n", "gap"],
        lambda a: _module("stirling").de_wannemacker_gaps(_required_k(a), a.n_max),
    ),
}


def _cmd_val(args) -> int:
    ns = _n_range(args)
    _emit(_csv(["n", "value"], _SERIES[args.series](args, ns)), args.out)
    return EX_OK


def _cmd_verify(args) -> int:
    function, options = _target(args.target)
    try:
        report = function(**{param: getattr(args, param) for param in options})
    except ValueError as exc:
        # each parameter the message names, as a whole word, becomes the option typed
        names = re.compile(r"\b(?:" + "|".join(options) + r")\b")
        raise ValueError(names.sub(lambda m: options[m[0]][0], str(exc))) from exc
    _emit([report.to_json() + "\n"], args.out)
    return report.exit_code


def _cmd_figure(args) -> int:
    header, handler = _FIGURES[args.name]
    first = _required_k(args) if args.name in ("stirling-k", "wannemacker-diff") else 1
    if args.n_max < first:
        raise ValueError(f"figure {args.name} needs --n-max >= {first}")
    _emit(_csv(header, handler(args)), args.out)
    return EX_OK


def _verify_targets(argv: list[str] | None) -> list[str]:
    """The verify targets that get a sub-parser for a parse of argv.

    The only option before a sub-command is -h, so the first word not
    starting with "-" is the command.  A known target right after "verify"
    needs only its own sub-parser.  Any other verify call gets all nine,
    since its help, usage or error lists them, and a call of another
    command gets none.  Without argv, every target gets one.
    """
    if argv is None:
        return list(_TARGETS)
    if [a for a in argv if not a.startswith("-")][:1] != ["verify"]:
        return []
    after = argv[argv.index("verify") + 1:][:1]
    return after if after and after[0] in _TARGETS else list(_TARGETS)


def build_parser(argv: list[str] | None = None) -> _Parser:
    """The stirval parser; with ``argv``, only the verify targets a parse of it reaches.

    ``_verify_targets`` picks the targets that get a sub-parser, and only
    a target argv names gets its options (reading them imports its module).
    Help, usage and error text are the full parser's either way.
    """
    parser = _Parser(
        prog="stirval",
        description="Exact 2-adic valuations of Stirling numbers: series, "
        "verification targets and figure data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("val", help="emit a valuation series as CSV")
    p_val.add_argument("--series", required=True, choices=list(_SERIES))
    p_val.add_argument("--k", type=int, help="order (stirling) or weight (cohen)")
    p_val.add_argument("--p", type=int, default=2, help="prime (factorial/int series)")
    p_val.add_argument("--n", type=int, help="single index")
    p_val.add_argument("--n-min", type=int, help="range start (inclusive)")
    p_val.add_argument("--n-max", type=int, help="range end (inclusive)")
    p_val.add_argument("--out", help="output path (default: stdout)")
    p_val.set_defaults(run=_cmd_val)

    p_verify = sub.add_parser("verify", help="run a verification target, emit JSON")
    targets = p_verify.add_subparsers(dest="target", required=True)
    for name in _verify_targets(argv):
        p_target = targets.add_parser(name)
        if argv is not None and name not in argv:
            continue
        for param, (option, default) in _target(name)[1].items():
            required = default is _REQUIRED
            p_target.add_argument(
                option, dest=param, type=int, metavar="INT", required=required, default=default,
                help="required" if required else "default: %(default)s",
            )
        p_target.add_argument("--out", help="output path (default: stdout)")
        p_target.set_defaults(run=_cmd_verify)

    p_fig = sub.add_parser("figure", help="emit figure data as CSV")
    p_fig.add_argument("name", choices=list(_FIGURES))
    p_fig.add_argument("--k", type=int, help="order/weight where applicable")
    p_fig.add_argument("--n-max", type=int, required=True, help="largest index")
    p_fig.add_argument("--out", help="output path (default: stdout)")
    p_fig.set_defaults(run=_cmd_figure)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    try:
        _check_out(args.out)
        return args.run(args)
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
