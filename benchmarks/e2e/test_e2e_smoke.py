"""Self-test of the served-path benchmark (2-second windows, tiny catalogs).

Runs the command ``BENCHMARK.json`` names, once untraced and once traced
per workload, and checks that every declared metric comes back under its
declared unit, that nothing failed (oracle, durability and status checks
included), and that no server or shard process outlives the run, not
even as a zombie waiting for init.
"""

from __future__ import annotations

import ctypes
import json
import os
import subprocess
import uuid
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
MARKER = "PXML_E2E_SELF_TEST"
_PR_SET_CHILD_SUBREAPER = 36


def _descendants_alive(token: str) -> list[int]:
    """Pids whose environment carries this test run's marker."""
    wanted = f"{MARKER}={token}".encode()
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            environ = Path(f"/proc/{entry}/environ").read_bytes()
            state = Path(f"/proc/{entry}/stat").read_text().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if wanted in environ.split(b"\0") and state != "Z":
            alive.append(int(entry))
    return alive


def _children() -> list[int]:
    """Pids whose parent is this process, in any state."""
    mine = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == os.getpid():
            mine.append(int(entry))
    return mine


@pytest.fixture
def orphans_come_here():
    """Whatever the harness leaves behind is re-parented to this process,
    where a zombie (which has no environment to find it by) shows too."""
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl(_PR_SET_CHILD_SUBREAPER, 1)
    before = set(_children())
    yield lambda: [pid for pid in _children() if pid not in before]
    prctl(_PR_SET_CHILD_SUBREAPER, 0)


@pytest.mark.parametrize("trace", [0, 1], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_declared_metrics_are_emitted(
    workload: str, trace: int, orphans_come_here
) -> None:
    token = uuid.uuid4().hex
    finished = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "7",
         "--seconds", "4", "--trace", str(trace), "--tiny"],
        cwd=ROOT, env=dict(os.environ, **{MARKER: token}),
        capture_output=True, text=True, timeout=170, check=False,
    )
    assert finished.returncode == 0, finished.stderr[-2000:]
    result = json.loads(finished.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, finished.stdout
    assert result["attempted"] >= 1

    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], (int, float)), metric["name"]
        # Printed by name with its unit, not only in the JSON line.
        assert metric["name"] in finished.stdout.rsplit("\n", 2)[0]

    assert _descendants_alive(token) == []
    assert orphans_come_here() == []
    assert not (ROOT / ".bench_tmp").exists()
