"""The kernel timing script perf/kernels.py runs and writes its JSON record."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_quick_run_writes_the_record(tmp_path):
    out = tmp_path / "BENCH_quick.json"
    script = ROOT / "perf" / "kernels.py"
    subprocess.run(
        [sys.executable, str(script), "--quick", "--label", "quick", "--out", str(out)],
        check=True,
        capture_output=True,
        timeout=60,
    )
    record = json.loads(out.read_text())
    assert record["label"] == "quick" and record["quick"] is True
    assert record["python"] == ".".join(map(str, sys.version_info[:3]))
    lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "stirval").glob("*.py"))
    assert record["src.lines"] == lines
    if record["sha"] == "unknown":
        assert record["dirty"] is None
    else:
        assert len(record["sha"]) == 40 and isinstance(record["dirty"], bool)
    names = [e["name"] for e in record["kernels"]]
    assert len(names) == 6 and len(set(names)) == 6
    for e in record["kernels"]:
        assert e["repeat"] == 1 and 0 < e["best_s"] == e["median_s"]
        assert e["best_rel"] == e["best_s"] / record["reference_s"]

    compared = subprocess.run(
        [sys.executable, str(script), "--compare", str(out), str(out)],
        check=True,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert compared.stdout.count("x1.00") == 6

    # a run on uncommitted src/ changes is flagged on its side of a comparison
    dirty = tmp_path / "BENCH_dirty.json"
    dirty.write_text(json.dumps(dict(record, sha="0" * 40, dirty=True)))
    clean = tmp_path / "BENCH_clean.json"
    clean.write_text(json.dumps(dict(record, sha="1" * 40, dirty=False)))
    flagged = subprocess.run(
        [sys.executable, str(script), "--compare", str(clean), str(dirty)],
        check=True,
        capture_output=True,
        text=True,
        timeout=60,
    ).stdout
    assert f"{dirty}: dirty, src/ differed from 000000000000" in flagged
    assert f"{clean}:" not in flagged
