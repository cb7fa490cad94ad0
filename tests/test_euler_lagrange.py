"""Residual and explicit-ODE form of the weighted Euler-Lagrange equation."""

import math

import numpy as np
import pytest

from fracnoether import expressions, linsolve
from fracnoether.euler_lagrange import (
    BoundaryConditions,
    ExplicitOde,
    FractionalParams,
    SingularHessianError,
    VariationalProblem,
    to_explicit_ode,
)
from fracnoether.expressions import EvalPoint, parse


def problem(lagrangian, alpha, t=2.0, n=1, interval=(0.0, 1.0), boundary=None):
    return VariationalProblem(
        n=n,
        lagrangian=parse(lagrangian, n),
        interval=interval,
        frac=FractionalParams(alpha=alpha, observer_time=t),
        boundary=boundary,
    )


# --------------------------------------------------------------------------
# parameter and problem validation


def test_alpha_range_enforced():
    with pytest.raises(ValueError, match=r"alpha must lie in \(0,1\]"):
        FractionalParams(alpha=1.5, observer_time=2.0)
    with pytest.raises(ValueError, match=r"alpha must lie in \(0,1\]"):
        FractionalParams(alpha=0.0, observer_time=2.0)
    FractionalParams(alpha=1.0, observer_time=2.0)


def test_observer_time_must_exceed_interval():
    with pytest.raises(ValueError, match="observer time must exceed b"):
        problem("v0^2/2", alpha=0.5, t=0.5)


def test_lagrangian_index_bound():
    with pytest.raises(ValueError, match="variable index"):
        VariationalProblem(
            n=1,
            lagrangian=parse("v0^2/2 + q1"),
            interval=(0.0, 1.0),
            frac=FractionalParams(alpha=0.5, observer_time=2.0),
        )


def test_interval_ordering():
    with pytest.raises(ValueError, match="a < b"):
        problem("v0^2/2", alpha=0.5, interval=(1.0, 0.0), t=2.0)


def test_boundary_length_checked():
    with pytest.raises(ValueError, match="length n"):
        problem(
            "v0^2/2", alpha=0.5,
            boundary=BoundaryConditions([0.0, 0.0], [1.0, 1.0]),
        )


# --------------------------------------------------------------------------
# ExplicitOde.residual


def test_classical_free_particle_residual():
    prob = problem("v0^2/2", alpha=1.0)
    p = EvalPoint(0.3, [1.7], [2.5])
    res = ExplicitOde(prob).residual(p, [0.0])
    assert res == pytest.approx([0.0], abs=1e-15)


def test_fractional_free_particle_residual():
    # acceleration -0.5 balances the kernel drag at theta=1, v=1
    prob = problem("v0^2/2", alpha=0.5)
    p = EvalPoint(1.0, [0.0], [1.0])
    ode = ExplicitOde(prob)
    assert ode.residual(p, [-0.5]) == pytest.approx([0.0], abs=1e-15)
    # and a wrong acceleration does not
    assert abs(ode.residual(p, [0.0])[0]) > 0.1


def test_harmonic_oscillator_residual():
    prob = problem("(v0^2 - q0^2)/2", alpha=1.0)
    p = EvalPoint(0.0, [1.0], [0.0])
    assert ExplicitOde(prob).residual(p, [-1.0]) == pytest.approx([0.0], abs=1e-15)


def test_residual_checks_compile_nothing_after_construction(monkeypatch):
    compiled = []

    def counting_compile(*args):
        compiled.append(args[0])
        return compile(*args)

    monkeypatch.setattr(expressions, "compile", counting_compile, raising=False)
    for n, text in [(1, "v0^2/2 + cos(q0)"), (2, "(2 + sin(q1))*v0^2/2 + v1^2/2")]:
        ode = ExplicitOde(problem(text, alpha=0.7, n=n))
        built = len(compiled)
        for k in range(20):
            ode.residual(EvalPoint(k / 20, [0.1] * n, [0.2] * n), [0.3] * n)
            ode(k / 20, [0.1] * n, [0.2] * n)
        assert len(compiled) == built


# --------------------------------------------------------------------------
# to_explicit_ode


def test_explicit_ode_fractional_free_particle():
    prob = problem("v0^2/2", alpha=0.5)
    rhs = to_explicit_ode(prob)
    for theta, v in [(0.0, 1.0), (0.5, -2.0), (0.9, 0.3)]:
        expected = -(0.5 / (2.0 - theta)) * v
        assert rhs(theta, [0.0], [v])[0] == pytest.approx(expected, rel=1e-14)


def test_explicit_ode_classical_oscillator():
    prob = problem("(v0^2 - q0^2)/2", alpha=1.0)
    rhs = to_explicit_ode(prob)
    for q in (-1.5, 0.0, 2.0):
        assert rhs(0.3, [q], [0.7])[0] == pytest.approx(-q, rel=1e-14, abs=1e-300)


def test_linear_in_velocity_rejected():
    # one dof divides by the mass entry; two go through linsolve
    for text, n in [("v0", 1), ("(v0 + v1)^2/2", 2)]:
        with pytest.raises(SingularHessianError):
            to_explicit_ode(problem(text, alpha=0.5, n=n))


def test_rhs_satisfies_residual():
    rng = np.random.default_rng(5)
    prob = problem("v0^2/2 + cos(q0) + theta*q0/2", alpha=0.7)
    rhs = to_explicit_ode(prob)
    for _ in range(20):
        theta = float(rng.uniform(0.0, 1.0))
        q = [float(rng.uniform(-2.0, 2.0))]
        v = [float(rng.uniform(-2.0, 2.0))]
        accel = rhs(theta, q, v)
        res = rhs.residual(EvalPoint(theta, q, v), accel)
        assert np.max(np.abs(res)) < 1e-10


def test_rhs_satisfies_residual_two_dof():
    rng = np.random.default_rng(11)
    prob = problem(
        "(v0^2 + v1^2)/2 - (q0 - q1)^2/2 + v0*v1/4", alpha=0.6, n=2
    )
    rhs = to_explicit_ode(prob)
    for _ in range(10):
        theta = float(rng.uniform(0.0, 1.0))
        q = rng.uniform(-1.0, 1.0, size=2).tolist()
        v = rng.uniform(-1.0, 1.0, size=2).tolist()
        accel = rhs(theta, q, v)
        res = rhs.residual(EvalPoint(theta, q, v), accel)
        assert np.max(np.abs(res)) < 1e-10


def test_classical_limit_ignores_observer_time():
    rhs_a = to_explicit_ode(problem("(v0^2 - q0^2)/2 + sin(q0)", alpha=1.0, t=2.0))
    rhs_b = to_explicit_ode(problem("(v0^2 - q0^2)/2 + sin(q0)", alpha=1.0, t=77.0))
    rng = np.random.default_rng(3)
    for _ in range(10):
        theta = float(rng.uniform(0.0, 1.0))
        q = [float(rng.uniform(-2.0, 2.0))]
        v = [float(rng.uniform(-2.0, 2.0))]
        assert rhs_a(theta, q, v)[0] == rhs_b(theta, q, v)[0]


def test_classical_limit_matches_hand_assembled_rhs():
    # alpha = 1: accel = (dL/dq - d(dL/dv)/dtheta terms) / M for the
    # pendulum L = v^2/2 + cos(q), i.e. accel = -sin(q)
    prob = problem("v0^2/2 + cos(q0)", alpha=1.0)
    rhs = to_explicit_ode(prob)
    rng = np.random.default_rng(9)
    for _ in range(10):
        q = [float(rng.uniform(-3.0, 3.0))]
        v = [float(rng.uniform(-2.0, 2.0))]
        assert rhs(0.4, q, v)[0] == pytest.approx(-np.sin(q[0]), rel=1e-14, abs=1e-16)


def test_ode_on_grid_matches_scalar_calls():
    prob = problem("v0^2/2 - q0^4/4", alpha=0.4)
    rhs = to_explicit_ode(prob)
    theta = np.linspace(0.0, 1.0, 7)
    q = np.linspace(-1.0, 1.0, 7)[:, None]
    v = np.linspace(0.5, 1.5, 7)[:, None]
    batch = rhs.on_grid(theta, q, v)
    for k in range(7):
        scalar = rhs(float(theta[k]), [q[k, 0]], [v[k, 0]])
        assert batch[k, 0] == pytest.approx(scalar[0], rel=1e-13)


# --------------------------------------------------------------------------
# linear solver


def test_linsolve_matches_numpy():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=4)
        x = linsolve.solve(a, b)
        assert np.allclose(a @ x, b, atol=1e-10)


def _array_elimination(a, b):
    """Partial-pivoting elimination on numpy arrays, the reference for
    the list solver: first largest pivot, rows with a zero factor skipped,
    back-substitution by dot product."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = len(b)
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(a[col:, col])))
        a[[col, pivot_row]] = a[[pivot_row, col]]
        b[[col, pivot_row]] = b[[pivot_row, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            if factor != 0.0:
                a[row, col:] -= factor * a[col, col:]
                b[row] -= factor * b[col]
    x = np.empty(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x.tolist()


def test_linsolve_bit_identical_to_array_elimination():
    rng = np.random.default_rng(3)
    for n in (1, 2):
        for _ in range(200):
            a = rng.normal(size=(n, n)).tolist()
            b = rng.normal(size=n).tolist()
            assert linsolve.solve(a, b) == _array_elimination(a, b)


def test_linsolve_leaves_inputs_and_flags_nan():
    a = np.array([[0.0, 1.0], [2.0, 3.0]])
    b = [1.0, 2.0]
    assert linsolve.solve(a, b) == [-0.5, 1.0]
    assert a.tolist() == [[0.0, 1.0], [2.0, 3.0]] and b == [1.0, 2.0]
    x = linsolve.solve([[1.0, float("nan")], [0.0, 1.0]], [1.0, 1.0])
    assert all(v != v for v in x)
    with pytest.raises(ValueError, match="shape mismatch"):
        linsolve.solve([[1.0, 2.0]], [1.0])


def test_linsolve_rejects_singular():
    a = [[1.0, 2.0], [2.0, 4.0]]
    with pytest.raises(linsolve.SingularMatrixError) as err:
        linsolve.solve(a, [1.0, 1.0])
    assert err.value.condition_estimate > 1e10


def test_linsolve_zero_pivot_has_infinite_condition_estimate():
    for a in ([[1.0, 1.0], [1.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]], [[0.0]]):
        with pytest.raises(linsolve.SingularMatrixError) as err:
            linsolve.solve(a, [1.0] * len(a))
        assert err.value.condition_estimate == math.inf
    # a small nonzero pivot keeps the finite ratio
    with pytest.raises(linsolve.SingularMatrixError) as err:
        linsolve.solve([[1.0, 0.0], [0.0, 1e-14]], [1.0, 1.0])
    assert err.value.condition_estimate == pytest.approx(1e14)


def test_singular_hessian_error_carries_theta():
    prob = problem("v0", alpha=0.5)
    try:
        to_explicit_ode(prob)
    except SingularHessianError as exc:
        assert exc.theta == pytest.approx(0.5)
        assert exc.condition_estimate == float("inf")
    else:
        pytest.fail("expected SingularHessianError")
