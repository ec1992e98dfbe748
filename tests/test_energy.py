"""The discrete energy identity of the implicit step.

Let E = U^T K U.  Multiply the first block row of F at the new state by
U_{n+1}: U^T S(U) W vanishes because S(U) U = 0, and U^T R U because R is
skew.  With K U = M W this leaves E_{n+1} = U_{n+1}^T K U_n, so

    E_n - E_{n+1} = ||U_{n+1} - U_n||_K^2,

up to how exactly each step's system is solved.  Every implicit step must
meet it; a solve that is merely inside its tolerance would not.
"""

import numpy as np
import pytest

from hmfem import SolverConfig, assemble_operators, build_grid, matvec, preset, run

PRESETS = [1, 2, 3, 4, 5]


@pytest.mark.parametrize("tid", PRESETS)
def test_drift_transport_is_skew(tid):
    # The identity rests on U^T R U = 0: check it first, so that a failure
    # below names its cause.
    spec = preset(tid)
    R = assemble_operators(build_grid(spec.Lx, spec.Ly, 17), spec.grad_p).R.to_dense()
    assert np.abs(R + R.T).max() <= 1e-14 * np.abs(R).max()


@pytest.mark.parametrize("method", ["newton", "chord", "modified"])
@pytest.mark.parametrize("tid", PRESETS)
def test_every_implicit_step_meets_the_energy_identity(tid, method):
    res = run(preset(tid), SolverConfig(tau=0.1, method=method), T=1.0, snapshot_every=1)
    assert res.stop_reason == "reached_T" and len(res.states) == 11
    K = assemble_operators(res.grid, preset(tid).grad_p).K
    for old, new in zip(res.states, res.states[1:]):
        E_old, E_new = old.U @ matvec(K, old.U), new.U @ matvec(K, new.U)
        dU = new.U - old.U
        assert abs(E_old - E_new - dU @ matvec(K, dU)) <= 1e-12 * E_old
