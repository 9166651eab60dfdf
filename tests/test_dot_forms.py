"""The ``ndarray.dot`` products of the per-point and per-step hot paths have the bits of ``@``.

``LinearField``'s callables and three per-step products of ``odesim`` call
the ``ndarray.dot`` method, which costs about half of ``@`` per call on
arrays this small.  The property pins each such form to the ``@`` form it
replaced, on every operand layout the callers pass.  The callables of
``as_general()``, which also take an ``(m, n)`` block of rows, are pinned to
the per-point calls, and a vectorized wrap to its unflagged twin.  The kernel
test reruns the three properties in fresh processes under other OpenBLAS
kernels (OpenBLAS picks its kernel when it loads, so one process runs one).
The module imports no test helpers, so a rerun starts in about half a second.

Two cases are left out, and no caller passes either.  A reversed
(negative-stride) view: ``@`` sums it in a plain loop, while ``ndarray.dot``
copies it and calls BLAS, which may round the last bit differently.  The
sign of a zero from a ``1 x 1`` matrix: ``@`` returns ``+0.0`` where
``ndarray.dot`` returns the signed product, so at ``n = 1`` the field's
values are compared after adding ``+0.0``.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bytediff
from nestode.fields import helmholtz_split, validate_assumption1
from nestode.hybrid import RestartConfig, simulate_hybrid

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


def _random_field(rng: np.random.Generator, n: int):
    M, K = rng.standard_normal((2, n, n))
    return helmholtz_split(M @ M.T + np.eye(n) + (K - K.T))


# the same examples here and in the kernel reruns, which load no profile
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(n=st.integers(1, 8), m=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1),
       layout=st.sampled_from(LAYOUTS))
def test_each_dot_form_has_the_bits_of_the_matmul_it_replaces(n, m, seed, layout):
    rng = np.random.default_rng(seed)
    f = _random_field(rng, n)
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


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(n=st.integers(1, 16), m=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1),
       layout=st.sampled_from(LAYOUTS))
def test_the_row_callables_of_as_general_have_the_per_point_bits(n, m, seed, layout):
    # a vector and a strided view take the per-point path; an (m, n) block of
    # rows takes the block path, which must give each row the bits of the
    # per-point call on it (at n = 1 after adding +0.0, as above), on C-contiguous
    # rows and on the first n columns of a wider block, as a hybrid run's q is
    rng = np.random.default_rng(seed)
    f = _random_field(rng, n)
    g = f.as_general()
    x = _operand(rng, layout, n, m)
    xs = [x]
    if layout == "block":
        x = np.ascontiguousarray(x.T)
        xs = [x, np.hstack([x, -x])[:, :n]]
    for x in xs:
        for name in ("potential", "potential_gradient", "rotation"):
            point = getattr(f, name)
            want = np.array([point(row) for row in x]) if layout == "block" else point(x)
            got = getattr(g, name)(x)
            if n == 1:
                got, want = np.add(got, 0.0), np.add(want, 0.0)
            assert _bits(got) == _bits(want), name


@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_a_vectorized_wrap_has_the_bits_of_its_unflagged_twin(n, seed):
    rng = np.random.default_rng(seed)
    g = _random_field(rng, n).as_general()
    twin = dataclasses.replace(g, vectorized=False)
    assert g.vectorized and not twin.vectorized
    reports = [validate_assumption1(h, samples=64, seed=seed % 97) for h in (g, twin)]
    assert repr(reports[0]) == repr(reports[1])
    cfg = RestartConfig(T0=0.1, T=0.5, eta=0.5)
    chi0 = (rng.standard_normal(n), rng.standard_normal(n), 0.1)
    runs = [simulate_hybrid(h, cfg, chi0, t_end=1.0, h=1e-2) for h in (g, twin)]
    for name in ("t", "j", "q", "p", "tau", "potential_gap", "drive"):
        assert _bits(getattr(runs[0], name)) == _bits(getattr(runs[1], name)), name


_RERUN = ("import test_dot_forms\n"
          "test_dot_forms.test_each_dot_form_has_the_bits_of_the_matmul_it_replaces()\n"
          "test_dot_forms.test_the_row_callables_of_as_general_have_the_per_point_bits()\n"
          "test_dot_forms.test_a_vectorized_wrap_has_the_bits_of_its_unflagged_twin()\n")


@pytest.fixture(scope="module")
def reruns():
    """The properties rerun under each kernel in a fresh process, all started at once.

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
