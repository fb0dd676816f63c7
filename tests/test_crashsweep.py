"""Crash-sweep harness: profiling, child kills, recovery verification.

The full every-site sweep runs in the CI ``crash-sweep`` job
(``python -m repro.resilience.crashsweep`` over a seed matrix); here a
representative subset keeps the kill-and-recover contract under tier-1
without the full matrix cost.
"""

from pathlib import Path

from repro.resilience.crashsweep import (
    profile_reshard_visits,
    profile_visits,
    run_cycle,
    spawn_child,
    sweep,
    verify_recovery,
    verify_reshard_recovery,
)
from repro.resilience.faults import RESHARD_FAULT_POINTS, STORAGE_FAULT_POINTS

#: One early, one middle, one late fault point — the save publication
#: step, the generation bump, and the commit record.
SMOKE_SITES = ("codec.write.replace", "db.generation.bump", "journal.commit")


def test_profile_covers_every_registered_site():
    counts = profile_visits(seed=3)
    for site in STORAGE_FAULT_POINTS:
        assert counts.get(site, 0) > 0, f"{site} never visited by the cycle"


def test_cycle_runs_clean_without_faults(tmp_path):
    run_cycle(tmp_path)
    ok, detail = verify_recovery(tmp_path)
    assert ok, detail


def test_child_is_killed_and_directory_recovers(tmp_path):
    proc = spawn_child(tmp_path, "journal.commit", visit=1, seed=3)
    assert proc.returncode == -9, proc.stderr
    ok, detail = verify_recovery(tmp_path)
    assert ok, detail


def test_smoke_sweep_first_visits(tmp_path):
    """One kill per smoke site (first visit), full recovery contract."""
    counts = profile_visits(seed=3)
    for site in SMOKE_SITES:
        directory = Path(tmp_path) / site.replace(".", "_")
        directory.mkdir()
        proc = spawn_child(directory, site, visit=1, seed=3)
        assert proc.returncode == -9, (site, proc.stderr)
        ok, detail = verify_recovery(directory)
        assert ok, (site, detail)
        assert counts[site] >= 1


def test_sweep_outcomes_are_structured():
    outcomes = sweep(seed=5, sites=("db.drop.unlink",))
    assert outcomes and all(o.ok for o in outcomes)
    payload = outcomes[0].as_dict()
    assert payload["site"] == "db.drop.unlink"
    assert payload["killed"] and payload["recovered"]


def test_reshard_sweep_first_visits(tmp_path):
    """One kill at the first visit of every ``reshard.*`` point; a
    rerun of the reshard must converge after each."""
    counts = profile_reshard_visits(seed=3)
    for site in RESHARD_FAULT_POINTS:
        assert counts[site] >= 1, f"{site} never visited by the reshard"
        directory = Path(tmp_path) / site.replace(".", "_")
        proc = spawn_child(directory, site, visit=1, seed=3, mode="reshard")
        assert proc.returncode == -9, (site, proc.stderr)
        ok, detail = verify_reshard_recovery(directory, seed=3)
        assert ok, (site, detail)
