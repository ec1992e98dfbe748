"""The five benchmark test cases.

Only the gradient of the drift function p is stored: every discrete operator
consumes V(p) = (-p_y, p_x), which depends on p through its gradient alone.
That sidesteps the non-periodicity of p = 12x.  All fields accept numpy
arrays and are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, EvaluationError
from .grid import DofGrid


@dataclass(frozen=True)
class ProblemSpec:
    """Domain, initial potential, drift gradient and diagnostic norm of p."""

    name: str
    Lx: float
    Ly: float
    u0: Callable
    grad_p: Callable
    p_norm_1inf: float


def _const_grad(px, py):
    def grad(x, y):
        return px * np.ones_like(x), py * np.ones_like(y)

    return grad


def preset(test_id: int) -> ProblemSpec:
    """Return test case 1..5."""
    if test_id == 1:
        return ProblemSpec(
            name="test1",
            Lx=1.0,
            Ly=1.0,
            u0=lambda x, y: 1e-5 * np.sin(10 * np.pi * y),
            grad_p=_const_grad(12.0, 0.0),
            p_norm_1inf=12.0,
        )
    if test_id == 2:
        return ProblemSpec(
            name="test2",
            Lx=np.pi,
            Ly=np.pi,
            u0=lambda x, y: 1e-5 * np.sin(3 * y),
            grad_p=_const_grad(12.0, 0.0),
            p_norm_1inf=12.0,
        )
    if test_id == 3:
        return ProblemSpec(
            name="test3",
            Lx=np.pi,
            Ly=np.pi,
            u0=lambda x, y: 1e-5 * np.sin(3 * x),
            grad_p=_const_grad(12.0, 0.0),
            p_norm_1inf=12.0,
        )
    if test_id == 4:
        return ProblemSpec(
            name="test4",
            Lx=np.pi,
            Ly=np.pi,
            u0=lambda x, y: 1e-10 * x * y * (x - 2) * np.sin(x),
            grad_p=_const_grad(12.0, 0.0),
            p_norm_1inf=12.0,
        )
    if test_id == 5:
        # p = ln(1e13 exp(-(x-10)^2/64 - (y-10)^2/64))
        return ProblemSpec(
            name="test5",
            Lx=20.0,
            Ly=20.0,
            u0=lambda x, y: -1e-5
            * (x - 10.0)
            * np.exp(-0.5 * (x - 10.0) ** 2 - 0.5 * (y - 10.0) ** 2),
            grad_p=lambda x, y: (-(x - 10.0) / 32.0, -(y - 10.0) / 32.0),
            p_norm_1inf=float(np.log(1e13)),
        )
    raise ValueError(f"unknown test case {test_id}; presets are 1..5")


def sample_nodes(spec: ProblemSpec, grid: DofGrid) -> np.ndarray:
    """Nodal interpolation of u0 at the representative nodes of the grid.

    Only nodes (i, j) with i, j in 0..n-2 are evaluated; the boundary rows
    are identified with them, which periodizes non-periodic initial data.
    """
    if not (np.isclose(spec.Lx, grid.Lx) and np.isclose(spec.Ly, grid.Ly)):
        raise ConfigurationError(
            f"grid domain {grid.Lx} x {grid.Ly} does not match "
            f"problem domain {spec.Lx} x {spec.Ly}"
        )
    m = grid.n - 1
    x = grid.xs[:m]
    y = grid.ys[:m]
    X, Y = np.meshgrid(x, y)  # row-major in j: row index is j, column is i
    u = np.asarray(spec.u0(X, Y), dtype=float)
    u = np.broadcast_to(u, (m, m))
    bad = ~np.isfinite(u)
    if bad.any():
        j, i = np.argwhere(bad)[0]
        loc = (float(X[j, i]), float(Y[j, i]))
        raise EvaluationError(f"u0 non-finite at {loc}", location=loc)
    return u.reshape(-1).copy()
