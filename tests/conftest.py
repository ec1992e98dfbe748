import os

# One BLAS thread: the suite's dense products are small, and a threaded
# pool spends more on hand-off than on arithmetic.  Set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from hmfem import assemble_operators, build_grid, preset  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def grid9():
    return build_grid(np.pi, np.pi, 9)


@pytest.fixture(scope="session")
def grid5():
    return build_grid(np.pi, np.pi, 5)


@pytest.fixture(scope="session")
def ops9():
    spec = preset(2)
    return assemble_operators(build_grid(spec.Lx, spec.Ly, 9), spec.grad_p)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = "a running child" if pid == 0 else f"the unreaped child {pid}"
    pytest.fail(f"the test left {state}")
