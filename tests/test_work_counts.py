"""Work-count guards: the Neumann series takes a logarithmic number of
section products, a fiber norm is computed once, a well-conditioned
inverse is certified without operator norms, ``perturb`` inverts once,
and section norms and verify's fiber sampling hand the singular value
kernel one stack per matrix size.  Counts come from monkeypatched
wrappers; nothing here is timed."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import bkbundle.cli
import bkbundle.inversion
import bkbundle.linalg
from bkbundle import (
    AtomicMeasureSpace,
    Bundle,
    FiberDescriptor,
    FiberElement,
    Section,
    inverse,
    neumann_inverse,
)
from bkbundle.cli import execute
from bkbundle.inversion import _strict_contraction_order
from bkbundle.sampling import (
    derive_rng,
    random_fiber_element,
    random_section,
    random_section_with_norm,
)
from bkbundle.scenario import decode_section, load_scenario
from bkbundle.verification import _check_fiber_submultiplicative, _outcome

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
FLAGS = {"tolerance": 1e-8, "samples": 500, "seed": 0, "cap": 4096}


def counting(monkeypatch, owner, name):
    """Replace ``owner.name`` with a wrapper that counts its calls."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def well_conditioned(n, rng):
    """An n x n matrix with singular values in [1, 2]."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return (q1 * rng.uniform(1.0, 2.0, size=n)) @ q2


@pytest.mark.parametrize("r", [0.5, 0.9, 0.999])
def test_neumann_section_products_are_logarithmic(mixed_bundle, monkeypatch, r):
    rng = derive_rng(0, "work-counts", "neumann", str(r))
    space = mixed_bundle.space
    x = random_section_with_norm(mixed_bundle, rng, space.constant(r))
    required = max(
        _strict_contraction_order(float(v), 1e-8) for v in x.norm().real_array()
    )
    products = counting(monkeypatch, Section, "__mul__")
    neumann_inverse(x, tol=1e-8)
    # one product for each factor (e + x^(2^j)), one per squaring and one
    # for the residual (e - x) * total
    assert len(products) <= 2 * math.ceil(math.log2(required + 1))


def test_second_fiber_norm_makes_no_operator_norm_call(monkeypatch):
    el = random_fiber_element(FiberDescriptor.matrix(5), derive_rng(0, "work-counts", "memo"))
    calls = counting(monkeypatch, bkbundle.linalg, "operator_norm")
    first = el.norm()
    assert len(calls) == 1
    assert el.norm() == first
    assert len(calls) == 1


def test_well_conditioned_inverse_makes_no_operator_norm_call(monkeypatch):
    a = well_conditioned(8, derive_rng(0, "work-counts", "frobenius"))
    calls = counting(monkeypatch, bkbundle.linalg, "operator_norm")
    got = FiberElement.matrix(a).inverse()
    assert calls == []
    assert np.array_equal(got.data, bkbundle.linalg.gauss_jordan_inverse(a))


def test_inverse_falls_back_to_operator_norms_between_the_two_bounds(monkeypatch):
    # with tol strictly between the operator and Frobenius norms of the
    # residuals, the Frobenius test misses and the operator norms accept
    # the elimination inverse without refinement
    a = well_conditioned(8, derive_rng(0, "work-counts", "fallback"))
    inv = bkbundle.linalg.gauss_jordan_inverse(a)
    residuals = (a @ inv - np.eye(8), inv @ a - np.eye(8))
    operator = max(bkbundle.linalg.operator_norm(m) for m in residuals)
    frobenius = max(bkbundle.linalg.frobenius(m) for m in residuals)
    tol = math.sqrt(operator * frobenius)
    assert 0.0 < operator < tol < frobenius
    calls = counting(monkeypatch, bkbundle.linalg, "operator_norm")
    got = FiberElement.matrix(a).inverse(tol)
    assert len(calls) == 2
    assert np.array_equal(got.data, inv)


@pytest.mark.parametrize("name", ["scalar", "mixed"])
def test_perturb_inverts_once_and_reports_the_certificate(monkeypatch, name):
    scenario = load_scenario(str(SCENARIOS / f"{name}.json"))
    (command,) = [c for c in scenario.commands if c["command"] == "perturb"]
    exact = counting(monkeypatch, bkbundle.inversion, "inverse")
    # the CLI binds its own name for ``inverse``; count both call sites
    monkeypatch.setattr(bkbundle.cli, "inverse", bkbundle.inversion.inverse)
    report = execute(scenario, [command], FLAGS)
    (result,) = report["results"]
    assert result["status"] == "pass"
    assert len(exact) == 1
    monkeypatch.undo()

    detail = json.loads(json.dumps(result["detail"]))
    x = scenario.sections[command["section"]]
    h = scenario.sections[command["perturbation"]]
    xinv = inverse(x)
    got = decode_section(scenario.bundle, detail["inverse"], "inverse")
    difference = (got - xinv).norm()
    bound = 2.0 * xinv.norm() * xinv.norm() * h.norm()
    for atom in scenario.space.atoms:
        i = scenario.space.index(atom)
        assert detail["difference_norm"][atom] == pytest.approx(
            difference.values[i].real, rel=1e-15
        )
        assert detail["bound"][atom] == pytest.approx(bound.values[i].real, rel=1e-15)


def stacked_calls(calls):
    """Shapes of the calls that handed the kernel a (k, n, n) stack."""
    return [args[0].shape for args in calls if np.ndim(args[0]) == 3]


def numpy_norm(kind, data):
    return np.linalg.norm(data, 2) if kind == "matrix" else np.abs(data).max()


def test_section_norm_makes_one_kernel_call_per_stackable_size(monkeypatch):
    sizes = [3, 5, 3, 8, 5, 5, 8, 4, 6, 2, 2]
    descriptors = [FiberDescriptor.matrix(n) for n in sizes]
    descriptors += [FiberDescriptor.scalar(), FiberDescriptor.function(4)]
    space = AtomicMeasureSpace.from_weights({f"w{i}": 1.0 for i in range(len(descriptors))})
    bundle = Bundle(space, descriptors)
    rng = derive_rng(0, "work-counts", "section-norm")
    u = random_section(bundle, rng)
    # an element whose norm is already kept leaves its size with one
    # uncached fiber of size 8, so size 8 gets no stacked call
    u.values[3].norm()
    calls = counting(monkeypatch, bkbundle.linalg, "singular_values")
    norm = u.norm()
    assert sorted(stacked_calls(calls)) == [(2, 3, 3), (3, 5, 5)]
    want = [numpy_norm(v.descriptor.kind, v.data) for v in u.values]
    assert np.allclose(norm.real_array(), want, rtol=1e-13, atol=0.0)
    # every norm is kept: a second call reaches no kernel
    calls.clear()
    assert u.norm() == norm
    assert calls == []


@pytest.mark.parametrize("samples, blocks", [(20, [1000]), (1500, [1000, 500])])
def test_fiber_submultiplicative_stacks_each_matrix_kind(monkeypatch, samples, blocks):
    kinds = [
        FiberDescriptor.scalar(),
        FiberDescriptor.matrix(2),
        FiberDescriptor.matrix(3),
        FiberDescriptor.function(3),
        FiberDescriptor.matrix(5),
    ]
    space = AtomicMeasureSpace.from_weights({f"w{i}": 1.0 for i in range(len(kinds))})
    bundle = Bundle(space, kinds)
    calls = counting(monkeypatch, bkbundle.linalg, "singular_values")
    out = _outcome(
        "fiber-submultiplicative",
        _check_fiber_submultiplicative(derive_rng(0, "x"), bundle, {}, samples, 1e-8, 4096),
    )
    assert stacked_calls(calls) == [(3 * b, n, n) for n in (3, 5) for b in blocks]
    assert out.passed
    assert out.cases == len(kinds) * max(samples, 1000)
    monkeypatch.undo()

    # the same triples from the same rng stream, normed by numpy
    rng = derive_rng(0, "x")
    worst = 0.0
    for desc in kinds:
        for _ in range(max(samples, 1000)):
            a = random_fiber_element(desc, rng).data
            b = random_fiber_element(desc, rng).data
            ab = a @ b if desc.kind == "matrix" else a * b
            gap = numpy_norm(desc.kind, ab) - numpy_norm(desc.kind, a) * numpy_norm(desc.kind, b)
            worst = max(worst, gap)
    assert out.max_error == pytest.approx(worst, abs=1e-12)
