import numpy as np
import pytest

from hmfem import (
    ConfigurationError,
    EvaluationError,
    SolverConfig,
    build_grid,
    preset,
    run,
    sample_nodes,
)
from hmfem.problems import ProblemSpec


def test_preset_1_initial_value():
    spec = preset(1)
    assert spec.u0(0.0, 0.05) == pytest.approx(1e-5 * np.sin(0.5 * np.pi))
    assert spec.u0(0.0, 0.05) == pytest.approx(1e-5)
    assert spec.Lx == spec.Ly == 1.0


def test_preset_5_gradient_vanishes_at_center():
    spec = preset(5)
    px, py = spec.grad_p(10.0, 10.0)
    assert px == 0.0 and py == 0.0


def test_preset_3_independent_of_y():
    spec = preset(3)
    ys = np.linspace(0, np.pi, 11)
    assert np.abs(spec.u0(np.zeros_like(ys), ys)).max() == 0.0


def test_preset_5_gradient_matches_analytic_derivative():
    # grad of ln(1e13 exp(-(x-10)^2/64 - (y-10)^2/64))
    spec = preset(5)
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 20, 50)
    y = rng.uniform(0, 20, 50)

    def p(x, y):
        return np.log(1e13) - (x - 10) ** 2 / 64 - (y - 10) ** 2 / 64

    eps = 1e-6
    px_fd = (p(x + eps, y) - p(x - eps, y)) / (2 * eps)
    py_fd = (p(x, y + eps) - p(x, y - eps)) / (2 * eps)
    px, py = spec.grad_p(x, y)
    assert np.allclose(px, px_fd, atol=1e-8)
    assert np.allclose(py, py_fd, atol=1e-8)


def test_presets_1_to_4_constant_gradient():
    for tid in range(1, 5):
        spec = preset(tid)
        px, py = spec.grad_p(np.array([0.3, 2.0]), np.array([1.0, 0.1]))
        assert np.allclose(px, 12.0)
        assert np.allclose(py, 0.0)
        assert spec.p_norm_1inf == 12.0


def test_unknown_preset():
    with pytest.raises(ValueError):
        preset(6)


def test_presets_are_pure():
    spec = preset(4)
    x = np.linspace(0, np.pi, 7)
    y = np.linspace(0, np.pi, 7)
    assert np.array_equal(spec.u0(x, y), spec.u0(x, y))


def test_sample_nodes_zero_and_constant_fields():
    g = build_grid(1.0, 1.0, 5)
    zero = ProblemSpec("zero", 1.0, 1.0, lambda x, y: 0.0 * x, lambda x, y: (0 * x, 0 * y), 0.0)
    assert (sample_nodes(zero, g) == 0).all()
    const = ProblemSpec("c", 1.0, 1.0, lambda x, y: 2.5 + 0.0 * x, lambda x, y: (0 * x, 0 * y), 0.0)
    assert (sample_nodes(const, g) == 2.5).all()


def test_sample_nodes_preset2_value():
    spec = preset(2)
    g = build_grid(spec.Lx, spec.Ly, 3)
    U0 = sample_nodes(spec, g)
    # node (0, 1) sits at y = pi/2: u0 = 1e-5 sin(3 pi / 2) = -1e-5
    assert U0[1 * 2 + 0] == pytest.approx(-1e-5)


def test_sample_nodes_domain_mismatch():
    spec = preset(2)
    g = build_grid(1.0, 1.0, 5)
    with pytest.raises(ConfigurationError):
        sample_nodes(spec, g)


def test_sample_nodes_nonfinite_u0():
    # NaN initial data is named at its first node (row-major in j, then i),
    # not left to surface later as a singular step matrix.
    spec = ProblemSpec(
        "nan_u0", 1.0, 1.0,
        lambda x, y: np.where((x > 0.3) & (y > 0.4), np.nan, x * y),
        preset(1).grad_p, 12.0,
    )
    g = build_grid(1.0, 1.0, 5)
    with pytest.raises(EvaluationError) as exc:
        sample_nodes(spec, g)
    assert exc.value.location == (0.5, 0.5)
    with pytest.raises(EvaluationError):
        run(spec, SolverConfig(tau=0.1), 1.0, n=5)


def test_fields_finite_on_grids():
    for tid in range(1, 6):
        spec = preset(tid)
        g = build_grid(spec.Lx, spec.Ly, 9)
        U0 = sample_nodes(spec, g)
        assert np.isfinite(U0).all()
        px, py = spec.grad_p(g.xs, g.ys)
        assert np.isfinite(px).all() and np.isfinite(py).all()
