"""Structured verdicts for mechanical identity and conjecture checks.

Every checker in this package returns a :class:`ConjectureReport` rather
than a bare boolean, so that a failing check always carries a concrete
counterexample and an inconclusive check says what it could not decide.
"""

from __future__ import annotations

import math
from typing import Any

CONSISTENT = "CONSISTENT"
COUNTEREXAMPLE = "COUNTEREXAMPLE"
INCONCLUSIVE = "INCONCLUSIVE"

# Per-item verdicts used inside report details.
PASS = "PASS"
FAIL = "FAIL"


def jsonable(value: Any) -> Any:
    """Convert a report payload to JSON-serializable form.

    Infinite valuations become the string "inf"; tuples become lists.
    """
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, float):
        # only inf is expected; anything else is a bug upstream
        return "inf" if math.isinf(value) else value
    return value


class ConjectureReport:
    """Outcome of one verification run.

    status is CONSISTENT when every checked instance agreed,
    COUNTEREXAMPLE when at least one concrete violation was found, and
    INCONCLUSIVE when some instances could not be decided and none failed
    (as for ``verify_main_conjecture`` at k <= 4, where no level tree exists).
    """

    def __init__(self, name: str, params: dict | None = None) -> None:
        self.name = name
        self.params = {} if params is None else params
        self.checked = 0
        self.counterexamples: list = []
        self.inconclusive: list = []
        self.details: dict = {}

    def record(self, ok: bool, payload: Any = None) -> None:
        self.checked += 1
        if not ok:
            self.counterexamples.append(payload)

    def record_many(self, count: int, failures: list) -> None:
        """Record count checks at once; failures holds the payloads of those that failed."""
        self.checked += count
        self.counterexamples.extend(failures)

    def record_inconclusive(self, payload: Any) -> None:
        self.inconclusive.append(payload)

    def merge_child(self, child: "ConjectureReport", label: str) -> None:
        """Fold a sub-report into this one, tagging its payloads."""
        self.checked += child.checked
        self.counterexamples.extend(
            {"subcheck": label, "payload": p} for p in child.counterexamples
        )
        self.inconclusive.extend(
            {"subcheck": label, "payload": p} for p in child.inconclusive
        )
        self.details.setdefault("subchecks", []).append(
            {"name": label, "status": child.status, "checked": child.checked}
        )

    @property
    def status(self) -> str:
        if self.counterexamples:
            return COUNTEREXAMPLE
        if self.inconclusive:
            return INCONCLUSIVE
        return CONSISTENT

    @property
    def exit_code(self) -> int:
        """Shell convention: 0 consistent, 1 counterexample, 2 inconclusive."""
        return {CONSISTENT: 0, COUNTEREXAMPLE: 1, INCONCLUSIVE: 2}[self.status]

    def _fields(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "params": self.params,
            "checked": self.checked,
            "counterexamples": self.counterexamples,
            "inconclusive": self.inconclusive,
            "details": self.details,
        }

    def as_dict(self) -> dict:
        return jsonable(self._fields())

    def to_json(self) -> str:
        """The text of ``json.dumps(self.as_dict(), indent=2)``, written without json.

        One pass over the report's own fields: the writer converts as ``jsonable`` does.
        """
        out: list[str] = []
        _write_json(self._fields(), "\n", out)
        return "".join(out)


def _json_string(s: str) -> str:
    """json's text for s: printable ASCII with no quote or backslash stays as it is."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    return _json_scalar(s)


def _json_scalar(value: Any) -> str:
    """json's own text for one value the writer does not handle itself."""
    import json

    return json.dumps(value)


def _write_json(value: Any, newline: str, out: list[str]) -> None:
    """Append the text of ``json.dumps(jsonable(value), indent=2)`` to out.

    ``newline`` is a line break and the indent of value's own line.  Dicts,
    lists, tuples, str, int, bool, None and infinite floats are written here,
    as ``jsonable`` converts them (str keys, tuples as lists, "inf") and json's
    indenting encoder then writes them; any other value goes to json.
    """
    kind = type(value)
    if kind is str:
        out.append(_json_string(value))
    elif kind is int:
        out.append(str(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner, sep = newline + "  ", "{"
        for key, item in value.items():
            out.append(f"{sep}{inner}{_json_string(str(key))}: ")
            _write_json(item, inner, out)
            sep = ","
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner, sep = newline + "  ", "["
        for item in value:
            out.append(sep + inner)
            _write_json(item, inner, out)
            sep = ","
        out.append(newline + "]")
    elif value is None or kind is bool:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, float) and math.isinf(value):
        out.append('"inf"')
    else:
        out.append(_json_scalar(value))
