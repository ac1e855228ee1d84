"""The benchmark's contract with the package, checked without running the benchmark.

``bench/workloads.py`` pins the stdout digest and exit code of each
workload's default member, and ``bench/run.py`` maps each traced layer to
the workloads that must call it.  A change that breaks either shows here,
in the test run, and not first in a benchmark run.  Nothing under
``bench/`` is written.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from stirval import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))  # bench/run.py imports its siblings by bare name

import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from tracer import MARKER  # noqa: E402


@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
def test_default_member_matches_the_reference(capsys, workload):
    inst = workloads.instance(workload, 0)
    code = cli.main(list(inst.argv))
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (digest, code) == workloads.REFERENCE[workload]


@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
def test_traced_run_calls_every_expected_layer(workload):
    inst = workloads.instance(workload, 0)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), "contract", "1", *inst.argv],
        env=bench_run.child_env(), capture_output=True, text=True,
    )
    assert proc.returncode == inst.exit_code, proc.stderr[-500:]
    summary = next(
        json.loads(line[len(MARKER):])
        for line in reversed(proc.stderr.splitlines())
        if line.startswith(MARKER)
    )
    assert bench_run.missing_work(workload, summary) == []
