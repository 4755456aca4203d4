"""Acceptance checks, one test per criterion, each at its pinned tolerance.

Every test prints a single PASS/FAIL line (visible under ``pytest -s``) and
then asserts.  The final test drives the same criteria through the public
suite runner, which additionally checks that the run called every operation
marked ``@operation`` in the package; a call made by an earlier run in the
same process does not count.
"""

import pytest

from muharmonic import ACCEPTANCE, ExperimentConfig, boundary_reports, cyclic_group, run
from muharmonic.experiments import run_criterion

_NAMES = {number: name for number, name, _ in ACCEPTANCE}


def _run_and_report(number: int) -> None:
    checks = run_criterion(number)
    failed = [c for c in checks if not c.passed]
    status = "PASS" if not failed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {_NAMES[number]}: {status} ({len(checks)} checks)")
    for c in failed:
        print(f"    failing: {c.name} value={c.value!r} bound={c.bound!r}")
    assert not failed, f"criterion {number} ({_NAMES[number]}) failed: {failed}"


def test_criterion_01_finite_triviality():
    _run_and_report(1)


def test_criterion_02_cesaro_limit():
    _run_and_report(2)


def test_criterion_03_projection():
    _run_and_report(3)


def test_criterion_04_operator_harmonic_space():
    _run_and_report(4)


def test_criterion_05_nc_convolution():
    _run_and_report(5)


def test_criterion_06_quotient_norms():
    _run_and_report(6)


def test_criterion_07_approximate_identity():
    _run_and_report(7)


def test_criterion_08_harmonic_measure():
    _run_and_report(8)


def test_criterion_09_martingale_convergence():
    _run_and_report(9)


def test_criterion_10_diamond_separation():
    _run_and_report(10)


def test_criterion_11_poisson_harmonicity():
    _run_and_report(11)


def test_criterion_12_stationary_measures():
    _run_and_report(12)


def test_criterion_13_lattice_decay():
    _run_and_report(13)


def test_criterion_14_l1_triviality():
    _run_and_report(14)


def test_criterion_15_determinism():
    _run_and_report(15)


def test_suite_scenario_and_op_coverage(monkeypatch):
    # two passes in one process: each must build the catalog itself and run
    # the free-group sampler pass of criteria 8-10 exactly once
    builds = []
    passes = []

    def counting_cyclic_group(n):
        builds.append(n)
        return cyclic_group(n)

    def counting_boundary_reports(*args, **kwargs):
        passes.append(args)
        return boundary_reports(*args, **kwargs)

    monkeypatch.setattr("muharmonic.experiments.cyclic_group", counting_cyclic_group)
    monkeypatch.setattr("muharmonic.experiments.boundary_reports", counting_boundary_reports)
    records = []
    for _ in range(2):
        before = len(builds)
        passes.clear()
        record = run(ExperimentConfig(scenario="suite"))
        assert len(builds) > before
        # one pass shared by criteria 8-10, one per freewalk run of criterion 15
        assert len(passes) == 3, passes
        coverage = [c for c in record.checks if c.name.startswith("op coverage")]
        assert coverage and coverage[0].passed, coverage
        assert record.passed
        records.append(record.canonical_json())
    assert records[0] == records[1]
    print(f"SUITE: PASS ({len(record.checks)} checks, op coverage complete)")
