"""The ``verify`` runner's contract: every check is a generator of
evidence records and one runner keeps the books, an ``AlgebraError``
fails only the check that raised it, and each check's verdict and case
count on the shipped scenarios is pinned."""

import inspect
from pathlib import Path

import pytest

from bkbundle import verification
from bkbundle.errors import AlgebraError
from bkbundle.scenario import load_scenario
from bkbundle.verification import _CHECKS, _case

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = ["scalar", "matrix2", "mixed"]

# cases per check at seed 0 and 20 samples, on scalar.json, matrix2.json
# and mixed.json; every check passes on all three
PINNED_CASES = {
    "efunction-algebra-laws": (20, 20, 20),
    "mix-locality": (20, 20, 20),
    "order-convergence": (20, 20, 20),
    "fiber-norm-axioms": (20, 20, 80),
    "fiber-submultiplicative": (1000, 1000, 4000),
    "fiber-spectral-radius": (20, 20, 80),
    "fiber-inverse-involution": (20, 20, 80),
    "bk-algebra-axioms": (20, 20, 20),
    "norm-decomposition": (20, 20, 20),
    "lifting-axioms": (20, 20, 20),
    "neumann-vs-exact": (20, 20, 20),
    "neumann-tail-bound": (20, 20, 20),
    "perturbation-bound": (20, 20, 20),
    "inversion-continuity": (20, 20, 20),
    "inversion-mixing": (20, 20, 20),
    "spectrum-membership-crosscheck": (20, 20, 20),
    "spectrum-scaling": (20, 20, 20),
    "selection-implies-somewhere": (20, 160, 360),
    "selection-spectrum-properties": (5, 5, 5),
    "quotient-norm-equality": (44, 66, 88),
    "quotient-ideal": (20, 20, 20),
    "reconstruction": (5, 5, 5),
    "hk-inner-axioms": (20, 20, 20),
    "hk-operator-norms": (26, 29, 32),
    "unit-support-verdict": (20, 1, 1),
    "reverse-bound-verdict": (20, 1, 21),
}


def test_every_check_is_a_generator_of_evidence():
    for name, check in _CHECKS.items():
        assert inspect.isgeneratorfunction(check), name
        params = list(inspect.signature(check).parameters)
        assert params == ["rng", "bundle", "sections", "samples", "tol", "cap"], name


def test_an_algebra_error_fails_only_its_own_check(monkeypatch, scalar_bundle):
    def two_cases_then_overflow(rng, bundle, sections, samples, tol, cap):
        yield _case()
        yield _case()
        raise AlgebraError("overflow in the third case")

    clean = verification.run_verification(scalar_bundle, samples=2)
    monkeypatch.setitem(_CHECKS, "inversion-mixing", two_cases_then_overflow)
    patched = verification.run_verification(scalar_bundle, samples=2)
    assert [c.name for c in patched.checks] == list(_CHECKS)
    for before, after in zip(clean.checks, patched.checks):
        if after.name == "inversion-mixing":
            assert (after.passed, after.cases) == (False, 2)
            assert after.failures == [{"error": "overflow in the third case"}]
        else:
            assert after == before
    assert clean.passed and not patched.passed


@pytest.mark.parametrize("column, name", enumerate(SHIPPED), ids=SHIPPED)
def test_case_counts_on_the_shipped_scenarios(column, name):
    scenario = load_scenario(str(SCENARIOS / f"{name}.json"))
    report = verification.run_verification(scenario.bundle, scenario.sections, seed=0, samples=20)
    assert [(c.name, c.passed, c.cases) for c in report.checks] == [
        (check, True, cases[column]) for check, cases in PINNED_CASES.items()
    ]
