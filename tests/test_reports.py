"""Report verdicts and the JSON text ``ConjectureReport.to_json`` writes."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stirval import INFINITE, ConjectureReport
from stirval.reports import _write_json, jsonable

STRINGS = [
    "",
    "plain ASCII, with spaces",
    'a "quoted" word',
    "back\\slash",
    "tab\tnew\nline\x00nul\x1funit\x7fdel",
    "café ≠  ",
    "astral \U0001d11e \U0001f600",
    "\ud800 lone surrogate",
]


def _report(payload):
    report = ConjectureReport("writer", params={"payload": payload})
    report.record(False, payload)
    report.record_inconclusive([payload, {}, []])
    report.details[STRINGS[2]] = payload
    return report


def _json_text(report):
    return json.dumps(report.as_dict(), indent=2)


@pytest.mark.parametrize("text", STRINGS)
def test_strings_and_keys_are_json_text(text):
    report = _report({text: [text, {text: text}]})
    assert report.to_json() == _json_text(report)


def test_scalars_and_empty_containers_are_json_text():
    payload = [0, -7, 2**80, True, False, None, INFINITE, 1.5, {}, [], (), [[]], {"": {}}]
    report = _report(payload)
    assert report.to_json() == _json_text(report)


payloads = st.recursive(
    st.one_of(
        st.integers(), st.booleans(), st.none(), st.just(INFINITE), st.text(),
        st.sampled_from(STRINGS),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.sampled_from(STRINGS)), inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(deadline=None)
@given(payloads)
def test_to_json_is_the_text_of_json_dumps(payload):
    report = ConjectureReport("writer")
    report.details["payload"] = payload
    assert report.to_json() == _json_text(report)
    # the writer converts as it goes: tuples, "inf" and str keys need no jsonable pass
    for value in (payload, jsonable(payload)):
        out = []
        _write_json(value, "\n", out)
        assert "".join(out) == json.dumps(jsonable(payload), indent=2)
