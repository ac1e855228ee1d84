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
    INCONCLUSIVE when some instances could not be decided (for example a
    level class with neither a proof nor a witness) and none failed.
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

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "params": jsonable(self.params),
            "checked": self.checked,
            "counterexamples": jsonable(self.counterexamples),
            "inconclusive": jsonable(self.inconclusive),
            "details": jsonable(self.details),
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.as_dict(), indent=2)
