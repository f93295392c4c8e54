"""Measure-space layer: function algebra laws, order, idempotents, mixing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bkbundle import (
    AtomicMeasureSpace,
    Bundle,
    FiberDescriptor,
    FiberElement,
    HKModule,
    Idempotent,
    PartitionOfUnity,
    mix,
)
from bkbundle.errors import MismatchError, PreconditionError

SPACE = AtomicMeasureSpace.from_weights({"w0": 0.5, "w1": 0.5})
TRIPLE = AtomicMeasureSpace.from_weights({"a": 1.0, "b": 2.0, "c": 0.25})

finite_complex = st.complex_numbers(
    allow_nan=False, allow_infinity=False, max_magnitude=1e6
)


def efn(space, values):
    return space.efunction(dict(zip(space.atoms, values)))


def efunctions(space):
    return st.lists(
        finite_complex, min_size=len(space.atoms), max_size=len(space.atoms)
    ).map(lambda vals: efn(space, vals))


def test_space_rejects_bad_weights():
    with pytest.raises(ValueError):
        AtomicMeasureSpace.from_weights({})
    with pytest.raises(ValueError):
        AtomicMeasureSpace.from_weights({"a": 0.0})
    with pytest.raises(ValueError):
        AtomicMeasureSpace.from_weights({"a": -1.0})
    with pytest.raises(ValueError):
        AtomicMeasureSpace(("a", "a"), (1.0, 1.0))


def test_pointwise_arithmetic_frozen_cases():
    a = efn(SPACE, [2, 3])
    b = efn(SPACE, [5, 7])
    prod = a * b
    assert prod.value("w0") == 10
    assert prod.value("w1") == 21
    assert (SPACE.ones() * a).value("w0") == 2
    assert (a * SPACE.zeros()).max_abs() == 0.0


def test_modulus_frozen_cases():
    a = efn(SPACE, [3 + 4j, 0])
    assert abs(a).value("w0") == 5.0
    assert abs(a).value("w1") == 0.0
    assert abs(SPACE.ones()).value("w1") == 1.0


def test_order_relations_frozen_cases():
    a = efn(SPACE, [0.5, 0.9])
    b = efn(SPACE, [1.0, 1.0])
    assert a.strict_lt(b)
    boundary = efn(SPACE, [0.5, 1.0])
    assert boundary.leq(b)
    assert not boundary.strict_lt(b)
    assert a.leq(a)
    assert not a.strict_lt(a)


def test_order_relations_reject_complex_input():
    a = efn(SPACE, [1j, 0])
    with pytest.raises(PreconditionError):
        a.leq(SPACE.ones())


def test_space_mismatch_rejected():
    a = SPACE.ones()
    b = TRIPLE.ones()
    with pytest.raises(MismatchError):
        a + b


def test_support_frozen_cases():
    a = efn(SPACE, [0, 5])
    assert a.support().atoms() == ("w1",)
    assert SPACE.zeros().support().is_zero()
    assert SPACE.ones().support().is_unit()


@given(efunctions(TRIPLE), efunctions(TRIPLE), efunctions(TRIPLE))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_algebra_laws(a, b, c):
    def close(x, y):
        scale = max(1.0, x.max_abs(), y.max_abs())
        return (x - y).max_abs() <= 1e-12 * scale

    assert close(a * b, b * a)
    assert close((a * b) * c, a * (b * c))
    assert close(a * (b + c), a * b + a * c)
    assert close(a + b, b + a)
    assert close((a + b) + c, a + (b + c))


@given(efunctions(TRIPLE), efunctions(TRIPLE))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_modulus_is_multiplicative(a, b):
    scale = max(1.0, a.max_abs() * b.max_abs())
    assert (abs(a * b) - abs(a) * abs(b)).max_abs() <= 1e-12 * scale


def test_idempotent_boolean_structure():
    pi = Idempotent.from_atoms(TRIPLE, ["a", "c"])
    as_fn = pi.as_efunction()
    assert ((as_fn * as_fn) - as_fn).max_abs() == 0.0
    comp = pi.complement()
    assert comp.atoms() == ("b",)
    assert (as_fn + comp.as_efunction() - TRIPLE.ones()).max_abs() == 0.0
    assert (as_fn * comp.as_efunction()).max_abs() == 0.0
    assert pi.disjoint_from(comp)


def test_mix_frozen_cases():
    p = PartitionOfUnity.trivial(SPACE)
    fns = [efn(SPACE, [4, 9])]
    assert (mix(p, fns) - fns[0]).max_abs() == 0.0

    split = PartitionOfUnity.from_labels(SPACE, [0, 1])
    glued = mix(split, [efn(SPACE, [1, 1]), efn(SPACE, [2, 2])])
    assert glued.value("w0") == 1
    assert glued.value("w1") == 2

    a = efn(SPACE, [3, 1j])
    assert (mix(split, [a, a]) - a).max_abs() == 0.0


def test_mix_length_mismatch_rejected():
    p = PartitionOfUnity.trivial(SPACE)
    with pytest.raises(MismatchError):
        mix(p, [SPACE.ones(), SPACE.ones()])


@given(st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_mix_is_idempotent_local(data):
    labels = [data.draw(st.integers(0, 2), label=atom) for atom in TRIPLE.atoms]
    p = PartitionOfUnity.from_labels(TRIPLE, labels)
    fns = [data.draw(efunctions(TRIPLE)) for _ in p.parts]
    glued = mix(p, fns)
    for k, part in enumerate(p.parts):
        mask = part.as_efunction()
        assert ((mask * glued) - (mask * fns[k])).max_abs() == 0.0


def test_order_convergence_is_pointwise():
    # x_n -> x at every atom exactly when sup-distance dies out
    target = efn(TRIPLE, [1, 2, 3])
    seq = [target + efn(TRIPLE, [2.0 ** -n, 3.0 ** -n, 4.0 ** -n]) for n in range(40)]
    gaps = [(s - target).max_abs() for s in seq]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-11

    # a sequence stuck at one atom does not converge even if others settle
    stuck = [target + efn(TRIPLE, [0, 0, 1]) for _ in range(40)]
    assert all((s - target).max_abs() == 1.0 for s in stuck)


def test_efunction_helpers():
    a = efn(TRIPLE, [4.0, 9.0, 16.0])
    assert (a.sqrt() * a.sqrt() - a).max_abs() <= 1e-12
    assert (a.reciprocal() * a - TRIPLE.ones()).max_abs() <= 1e-15
    assert a.conj().value("a") == 4.0
    assert a.is_real()
    assert np.allclose(a.real_array(), [4.0, 9.0, 16.0])


@pytest.mark.parametrize(
    "build",
    [
        lambda space, table: space.efunction(table),
        lambda space, table: Bundle.of(space, {a: FiberDescriptor.scalar() for a in table}),
        lambda space, table: Bundle.of(space, FiberDescriptor.scalar()).section(
            {a: FiberElement.unit(FiberDescriptor.scalar()) for a in table}
        ),
        lambda space, table: HKModule.of(space, table),
        lambda space, table: HKModule.of(space, 1).element({a: [v] for a, v in table.items()}),
    ],
    ids=["EFunction", "Bundle.of", "Section", "HKModule.of", "HKElement"],
)
def test_atom_keyed_constructors_name_a_missing_or_unknown_atom(build):
    space = AtomicMeasureSpace.from_weights({"a": 1.0, "b": 1.0})
    build(space, {"a": 2, "b": 2})
    with pytest.raises(MismatchError, match="missing value for atom 'b'"):
        build(space, {"a": 2})
    with pytest.raises(MismatchError, match="unknown atom 'z'"):
        build(space, {"a": 2, "b": 2, "z": 2})


@pytest.mark.parametrize(
    "build",
    [
        lambda space, n: space.efunction([1.0] * n),
        lambda space, n: Bundle(space, [FiberDescriptor.scalar()] * n),
        lambda space, n: Bundle.of(space, FiberDescriptor.scalar()).section(
            [FiberElement.unit(FiberDescriptor.scalar())] * n
        ),
        lambda space, n: HKModule.of(space, [1] * n),
        lambda space, n: HKModule.of(space, 1).element([[1.0]] * n),
    ],
    ids=["EFunction", "Bundle", "Section", "HKModule.of", "HKElement"],
)
def test_list_constructors_reject_a_short_or_long_list(build):
    space = AtomicMeasureSpace.from_weights({"a": 1.0, "b": 1.0})
    build(space, 2)
    for n in (1, 3):
        with pytest.raises(MismatchError):
            build(space, n)


def test_hk_element_names_both_counts():
    module = HKModule.of(AtomicMeasureSpace.from_weights({"a": 1.0, "b": 1.0}), 2)
    with pytest.raises(MismatchError, match="2 atoms but 1 vectors"):
        module.element([np.array([1, 0])])
