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
    assert len(record["sha"]) == 40 or record["sha"] == "unknown"
    names = [e["name"] for e in record["kernels"]]
    assert len(names) == 5 and len(set(names)) == 5
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
    assert compared.stdout.count("x1.00") == 5
