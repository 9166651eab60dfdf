"""The ``ndarray.dot`` products of the per-point and per-step hot paths have the bits of ``@``.

``LinearField``'s callables and three per-step products of ``odesim`` call
the ``ndarray.dot`` method, which costs about half of ``@`` per call on
arrays this small.  The property pins each such form to the ``@`` form it
replaced, on every operand layout the callers pass, and the kernel test
reruns it in fresh processes under other OpenBLAS kernels (OpenBLAS picks
its kernel when it loads, so one process runs one).  The module imports no
test helpers, so a rerun starts in about half a second.

Two cases are left out, and no caller passes either.  A reversed
(negative-stride) view: ``@`` sums it in a plain loop, while ``ndarray.dot``
copies it and calls BLAS, which may round the last bit differently.  The
sign of a zero from a ``1 x 1`` matrix: ``@`` returns ``+0.0`` where
``ndarray.dot`` returns the signed product, so at ``n = 1`` the field's
values are compared after adding ``+0.0``.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bytediff
from nestode.fields import helmholtz_split

LAYOUTS = ("vector", "strided", "block")
KERNELS = ("Haswell", "Prescott")


def _operand(rng: np.random.Generator, layout: str, rows: int, m: int) -> np.ndarray:
    """A ``(rows,)`` vector, a ``(rows,)`` view three elements apart, or a ``(rows, m)`` block."""
    scale = 10.0 ** rng.integers(-3, 4)
    if layout == "vector":
        return scale * rng.standard_normal(rows)
    if layout == "strided":
        return (scale * rng.standard_normal((rows, 3)))[:, 1]
    return scale * rng.standard_normal((rows, m))


def _bits(value) -> tuple:
    value = np.asarray(value)
    return value.dtype, value.shape, value.tobytes()


# the same examples here and in the kernel reruns, which load no profile
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(n=st.integers(1, 8), m=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1),
       layout=st.sampled_from(LAYOUTS))
def test_each_dot_form_has_the_bits_of_the_matmul_it_replaces(n, m, seed, layout):
    rng = np.random.default_rng(seed)
    M, K = rng.standard_normal((2, n, n))
    f = helmholtz_split(M @ M.T + np.eye(n) + (K - K.T))
    x = _operand(rng, layout, n, m)

    def unsigned(value):
        # at n = 1 numpy's dot takes the 1 x 1 matrix for a scalar and keeps
        # the sign of a zero product, which @ adds to +0.0
        return value + 0.0 if n == 1 else value

    pairs = [(unsigned(f(x)), f.Q @ x), (unsigned(f.potential_gradient(x)), f.Qs @ x),
             (unsigned(f.rotation(x)), f.Qa @ x)]
    # odesim: _rk4's update over its (4, 2n) stage buffer and its blow-up
    # norm, and _apply_steps' carry from block start to block start
    weights = (rng.uniform(1e-4, 1e-1) / 6.0) * np.array([1.0, 2.0, 2.0, 1.0])
    stages = rng.standard_normal((4, 2 * n))
    prefix = rng.standard_normal((2, 3, 2 * n, 2 * n))
    y = _operand(rng, layout, 2 * n, m)
    pairs += [(weights.dot(stages), weights @ stages), (prefix[1, -1].dot(y), prefix[1, -1] @ y)]
    if layout != "block":
        pairs += [(f.potential(x), 0.5 * float(x @ (f.Qs @ x))), (y.dot(y), y @ y)]
    for got, want in pairs:
        assert _bits(got) == _bits(want)


_RERUN = ("import test_dot_forms\n"
          "test_dot_forms.test_each_dot_form_has_the_bits_of_the_matmul_it_replaces()\n")


@pytest.fixture(scope="module")
def reruns():
    """The property rerun under each kernel in a fresh process, all started at once.

    Maps each kernel to its process, or to the reason this host cannot run
    it (``bytediff``'s check of the CPU flags).
    """
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    runs = {}
    for kernel in KERNELS:
        try:
            extra = bytediff._environment([f"OPENBLAS_CORETYPE={kernel}"])
        except ValueError as err:
            runs[kernel] = str(err)
            continue
        runs[kernel] = subprocess.Popen([sys.executable, "-c", _RERUN],
                                        env={**os.environ, **extra, "PYTHONPATH": path},
                                        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                        text=True)
    yield runs
    for run in runs.values():
        if not isinstance(run, str) and run.poll() is None:
            run.kill()
            run.wait()


@pytest.mark.parametrize("kernel", KERNELS)
def test_the_dot_forms_keep_their_bits_under_each_kernel(reruns, kernel):
    run = reruns[kernel]
    if isinstance(run, str):
        pytest.skip(run)
    out, _ = run.communicate(timeout=120)
    assert run.returncode == 0, out
