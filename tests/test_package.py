import ast
import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nestode
from nestode import averaging, cli, fields, hybrid, odesim

from conftest import DEMO_Q

MODULES = (fields, odesim, averaging, hybrid)


def test_library_has_no_assert_statements():
    # checks must raise: `python -O` strips assert statements
    found = []
    for path in sorted(Path(nestode.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_package_exports_exactly_the_module_exports():
    union = [name for mod in MODULES for name in mod.__all__]
    assert len(union) == len(set(union))
    assert sorted(nestode.__all__) == sorted(union)
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(nestode, name) is getattr(mod, name)


# every public name, by module: a name has to be added or removed here on purpose
PUBLIC_NAMES = {
    # fields
    "GeneralField", "LinearField", "NotPositiveDefiniteError", "ValidationReport",
    "helmholtz_split", "validate_assumption1",
    # odesim
    "BLOWUP_CAP", "OdeTrajectory", "VariationCheck", "exp_drift", "integrate_drift",
    "integrate_nesterov_t", "integrate_pullback", "integrate_scaled_y",
    "variation_of_constants_check",
    # averaging
    "AveragedSystem", "CertificateReport", "InstabilityConditions", "PeriodResult",
    "average_closed_form", "instability_certificate", "integrate_average",
    # hybrid
    "DecreaseReport", "EnvelopeReport", "HybridTrajectory", "LyapunovCertificate",
    "OptimalRestart", "RestartConfig", "WindowViolationError",
    "calibrate_optimal_restart", "lyapunov_certificate", "lyapunov_values", "reset_window",
    "restart_ratio", "simulate_hybrid", "verify_decrease", "verify_envelopes",
}


def test_the_public_api_has_exactly_the_listed_names():
    assert len(PUBLIC_NAMES) == 37
    assert set(nestode.__all__) == PUBLIC_NAMES


# every defaulted parameter of a public function and every defaulted field
# of a public dataclass: a new option has to be added here on purpose
SETTABLE_VALUES = {
    "GeneralField.vectorized", "instability_certificate.nodes", "integrate_average.h", "integrate_drift.h",
    "integrate_nesterov_t.h", "integrate_pullback.h", "integrate_scaled_y.h",
    "simulate_hybrid.h", "variation_of_constants_check.h",
    "validate_assumption1.radius", "validate_assumption1.samples", "validate_assumption1.seed",
}


def test_the_public_api_has_exactly_the_listed_settable_values():
    found = set()
    for name in nestode.__all__:
        obj = getattr(nestode, name)
        if dataclasses.is_dataclass(obj):
            found |= {f"{name}.{f.name}" for f in dataclasses.fields(obj)
                      if f.default is not dataclasses.MISSING
                      or f.default_factory is not dataclasses.MISSING}
        elif inspect.isfunction(obj):
            found |= {f"{name}.{p.name}" for p in inspect.signature(obj).parameters.values()
                      if p.default is not inspect.Parameter.empty}
    assert len(SETTABLE_VALUES) == 12
    assert found == SETTABLE_VALUES


DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_without_asserts_or_warnings(demo):
    # -O strips assert statements and -W error turns every warning into a failure
    paths = [str(Path(nestode.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    run = subprocess.run([sys.executable, "-O", "-W", "error", str(demo)], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr


def _demo_general():
    f = fields.helmholtz_split(DEMO_Q)
    return fields.GeneralField(dim=2, potential=f.potential,
                               potential_gradient=f.potential_gradient, rotation=f.rotation,
                               x_star=np.zeros(2), kappa_j=f.kappa_j, ell_j=f.ell_j,
                               ell_k=f.ell_k)


# one builder per dataclass that holds an ndarray; each call builds afresh
ARRAY_HOLDERS = {
    "LinearField": lambda: fields.helmholtz_split(DEMO_Q),
    "GeneralField": _demo_general,
    "OdeTrajectory": lambda: odesim.integrate_drift(
        fields.helmholtz_split(np.eye(2)), np.ones(4), s_end=1.0, h=0.1),
    "HybridTrajectory": lambda: hybrid.simulate_hybrid(
        fields.helmholtz_split(DEMO_Q), hybrid.RestartConfig(T0=0.1, T=0.471, eta=0.5),
        (np.ones(2), np.zeros(2), 0.1), t_end=1.0, h=1e-2),
    "AveragedSystem": lambda: averaging.average_closed_form(fields.helmholtz_split(DEMO_Q)),
    "CertificateReport": lambda: averaging.instability_certificate(
        fields.helmholtz_split(DEMO_Q), nodes=64),
    "VariationCheck": lambda: odesim.variation_of_constants_check(
        fields.helmholtz_split(DEMO_Q), np.ones(4), T0=0.1, s_end=1.0, h=0.1),
    "ScenarioConfig": lambda: cli.parse_config("", "figure2"),
}


@pytest.mark.parametrize("name", sorted(ARRAY_HOLDERS))
def test_array_holders_compare_by_identity_and_hash(name):
    # the generated __eq__ would compare arrays as a tuple and raise
    a, b = ARRAY_HOLDERS[name](), ARRAY_HOLDERS[name]()
    assert type(a).__name__ == name
    assert (a == b) is False and a != b
    assert a == a and a in [b, a] and b not in [a]
    assert hash(a) == hash(a) and len({a, b}) == 2
