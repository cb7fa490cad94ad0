"""Acceptance gate: every built-in criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion; ``fracnoether verify`` executes the same corpus.
"""

import pytest

from fracnoether import acceptance, cli, integrators
from fracnoether.integrators import BlowUpError


@pytest.mark.parametrize(
    "criterion", acceptance.CRITERIA, ids=[c.__name__ for c in acceptance.CRITERIA]
)
def test_criterion(criterion):
    result = criterion()
    print(f"{'PASS' if result.passed else 'FAIL'}  {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


# the criteria that read charges, each from the samples of the solve's loop
CHARGE_CRITERIA = (
    acceptance.criterion_classical_limit,
    acceptance.criterion_fractional_momentum,
    acceptance.criterion_fractional_energy,
    acceptance.criterion_theorem_as_test,
    acceptance.criterion_broken_classical_momentum,
)


@pytest.mark.parametrize("criterion", CHARGE_CRITERIA, ids=[c.__name__ for c in CHARGE_CRITERIA])
def test_charges_are_read_from_the_loop(criterion, monkeypatch):
    def fallback(*args):
        raise AssertionError("a charge was evaluated point by point after the solve")

    monkeypatch.setattr(integrators, "evaluate_on_grid", fallback)
    result = criterion()
    assert result.passed, f"{result.name}: {result.detail}"


def blow_up(*args, **kwargs):
    raise BlowUpError(0.5)


def test_a_solver_failure_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "ivp_solve", blow_up)
    assert cli.main(["verify", "--output", str(tmp_path)]) == cli.EXIT_SOLVER
    assert capsys.readouterr().err.startswith("solver error: non-finite state")
    assert not (tmp_path / "verify_report.json").exists()


def test_a_failed_sweep_row_fails_its_criterion(monkeypatch):
    monkeypatch.setattr(cli, "ivp_solve", blow_up)
    result = acceptance.criterion_broken_classical_momentum()
    assert not result.passed
    error = "error: non-finite state detected at theta = 0.5"
    assert result.detail == "; ".join(f"alpha={alpha}: {error}" for alpha in
                                      (0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0))
