"""Checkers for the two structure theorems: unit-support invertibility
implying the algebra collapses to scalars, and the reverse norm bound."""

import pytest

from bkbundle import (
    AtomicMeasureSpace,
    Bundle,
    FiberDescriptor,
    bound_partition,
    certify_reverse_bound,
    check_reverse_bound_hypothesis,
    check_unit_support_hypothesis,
    gelfand_mazur,
    is_invertible,
)
from bkbundle.cli import execute
from bkbundle.errors import CertificationError, PreconditionError
from bkbundle.fibers import FiberElement
from bkbundle.gelfand_mazur import (
    is_unit_support_witness,
    is_zero_divisor_witness,
    unit_support_probe,
    zero_divisor_probe,
)
from bkbundle.measure import Idempotent
from bkbundle.sampling import derive_rng, random_section
from bkbundle.scenario import encode_section, parse_scenario

ADMITTED = [
    FiberDescriptor.scalar(),
    *(FiberDescriptor.matrix(n) for n in range(1, 9)),
    *(FiberDescriptor.function(k) for k in (1, 2, 3, 64)),
]
CHECKERS = [check_unit_support_hypothesis, check_reverse_bound_hypothesis]


def make_bundle(kinds):
    space = AtomicMeasureSpace.from_weights(
        {f"w{i}": 1.0 for i in range(len(kinds))}
    )
    return Bundle.of(space, dict(zip(space.atoms, kinds)))


def test_unit_support_scalar_isomorphic():
    B = make_bundle([FiberDescriptor.scalar()] * 3)
    verdict = check_unit_support_hypothesis(B, samples=500, rng=derive_rng(0, "gm", "s"))
    assert verdict.outcome == "isomorphic"
    assert verdict.checks_run >= 500
    # iso errors: isometry, multiplicativity, linearity all at most 1e-10
    for key in ("isometry", "multiplicative", "linear"):
        assert verdict.iso_errors[key] <= 1e-10


def test_unit_support_function_one_isomorphic():
    B = make_bundle([FiberDescriptor.function(1)] * 2)
    verdict = check_unit_support_hypothesis(B, samples=200, rng=derive_rng(0, "gm", "f"))
    assert verdict.outcome == "isomorphic"


def test_unit_support_matrix_counterexample():
    B = make_bundle([FiberDescriptor.matrix(2)] * 2)
    verdict = check_unit_support_hypothesis(B, samples=50, rng=derive_rng(0, "gm", "m"))
    assert verdict.outcome == "counterexample"
    w = verdict.witness
    assert w is not None
    # replay the witness: unit support, yet not invertible
    assert w.norm().support(0.0).is_unit()
    assert not is_invertible(w)
    assert w.norm().max_abs() == pytest.approx(1.0, abs=1e-12)


def test_unit_support_mixed_bundle_counterexample(mixed_bundle):
    verdict = check_unit_support_hypothesis(
        mixed_bundle, samples=50, rng=derive_rng(0, "gm", "mixed")
    )
    assert verdict.outcome == "counterexample"
    w = verdict.witness
    assert w.norm().support(0.0).is_unit()
    assert not is_invertible(w)


def test_reverse_bound_scalar_certifies_m_one():
    B = make_bundle([FiberDescriptor.scalar()] * 3)
    rng = derive_rng(0, "gm", "rb-scalar")
    verdict = check_reverse_bound_hypothesis(B, samples=500, rng=rng)
    assert verdict.outcome == "isomorphic"
    # scalar fibers satisfy the bound with equality at m = 1
    for _ in range(100):
        x = random_section(B, rng)
        y = random_section(B, rng)
        gap = (x.norm() * y.norm() - (x * y).norm()).max_abs()
        assert gap <= 1e-10 * max(1.0, x.sup_norm() * y.sup_norm())


def test_reverse_bound_matrix_counterexample():
    B = make_bundle([FiberDescriptor.matrix(2)] * 2)
    verdict = check_reverse_bound_hypothesis(
        B, samples=50, rng=derive_rng(0, "gm", "rb-m")
    )
    assert verdict.outcome == "counterexample"
    x, y = verdict.witness_pair
    assert (x * y).sup_norm() == 0.0
    assert x.sup_norm() == pytest.approx(1.0, abs=1e-12)
    assert y.sup_norm() == pytest.approx(1.0, abs=1e-12)


def test_reverse_bound_mixed_localizes(mixed_bundle):
    verdict = check_reverse_bound_hypothesis(
        mixed_bundle, samples=50, rng=derive_rng(0, "gm", "rb-mixed")
    )
    assert verdict.outcome == "counterexample"
    x, y = verdict.witness_pair
    assert (x * y).sup_norm() <= 1e-14
    # the witness norms live exactly on the zero-divisor part: the bound
    # fails where the fibers have dimension > 1 and nowhere else
    localizing = verdict.localizing
    assert localizing is not None and not localizing.is_zero()
    expected = [
        atom
        for atom in mixed_bundle.space.atoms
        if mixed_bundle.descriptor(atom).has_zero_divisors()
    ]
    assert list(localizing.atoms()) == expected
    for atom in expected:
        assert x.norm().value(atom).real > 0.0
        assert y.norm().value(atom).real > 0.0
    for atom in mixed_bundle.space.atoms:
        if atom not in expected:
            assert x.norm().value(atom).real == 0.0


def test_bound_partition_levels():
    space = AtomicMeasureSpace.from_weights({"p": 1.0, "q": 1.0, "r": 1.0})
    m = space.efunction({"p": 1.0, "q": 2.5, "r": 2.0})
    bp = bound_partition(m)
    # level sets {n <= m < n+1}: p -> level 1, q and r -> level 2
    assert bp.levels == (1, 2)
    by_level = dict(zip(bp.levels, bp.partition.parts))
    assert by_level[1].atoms() == ("p",)
    assert by_level[2].atoms() == ("q", "r")


def test_bound_partition_rejects_small_m():
    space = AtomicMeasureSpace.from_weights({"p": 1.0, "q": 1.0})
    bad = space.efunction({"p": 0.5, "q": 3.0})
    with pytest.raises(PreconditionError) as err:
        bound_partition(bad)
    assert err.value.atom == "p"


def test_bound_partition_keeps_levels_at_and_above_two_to_the_63():
    # a cast of the floors to int64 wrapped these levels to -2**63
    space = AtomicMeasureSpace.from_weights({"p": 1.0, "q": 1.0, "r": 1.0})
    m = space.efunction({"p": 1e19, "q": 2.5, "r": 2.0**63})
    bp = bound_partition(m)
    assert bp.levels == (2, 2**63, 10**19)
    assert all(type(level) is int for level in bp.levels)
    assert [part.atoms() for part in bp.partition.parts] == [("q",), ("r",), ("p",)]


def test_reverse_bound_command_certifies_a_candidate_above_two_to_the_63():
    doc = {
        "space": [{"atom": "w0", "weight": 1.0}, {"atom": "w1", "weight": 1.0}],
        "fibers": {"w0": {"kind": "scalar"}, "w1": {"kind": "scalar"}},
        "commands": [
            {"command": "reverse-bound", "samples": 5, "bound": {"w0": 1e300, "w1": 1.5}}
        ],
    }
    sc = parse_scenario(doc)
    flags = {"tolerance": 1e-8, "samples": 5, "seed": 0, "cap": 4096}
    (result,) = execute(sc, sc.commands, flags)["results"]
    assert result["status"] == "pass"
    cert = result["detail"]["certificate"]
    assert cert["passed"]
    assert cert["glued_bound"] == {"w0": [1e300, 0.0], "w1": [2.0, 0.0]}
    assert sorted(part["level"] for part in cert["parts"]) == [1, int(1e300)]


@pytest.mark.parametrize("tol", [-1e-8, float("nan")])
def test_certify_reverse_bound_rejects_negative_or_nan_tolerance(tol):
    # a NaN tolerance passed every part, since worst > nan is False
    B = make_bundle([FiberDescriptor.matrix(2), FiberDescriptor.scalar()])
    with pytest.raises(PreconditionError, match="tolerance must be >= 0"):
        certify_reverse_bound(B, B.space.constant(50.0), samples=5, tol=tol)


def test_probes_are_pinned_on_every_kind():
    B = make_bundle(
        [
            FiberDescriptor.scalar(),
            FiberDescriptor.function(3),
            FiberDescriptor.matrix(2),
            FiberDescriptor.matrix(1),
        ]
    )
    one, zero = [1.0, 0.0], [0.0, 0.0]
    assert encode_section(unit_support_probe(B)) == {
        "w0": one,
        "w1": [one, zero, zero],
        "w2": [one, zero, zero, zero],
        "w3": [one],
    }
    x, y = zero_divisor_probe(B)
    assert encode_section(x) == {
        "w0": zero,
        "w1": [one, zero, zero],
        "w2": [zero, one, zero, zero],
        "w3": [zero],
    }
    assert encode_section(y) == {
        "w0": zero,
        "w1": [zero, one, zero],
        "w2": [zero, one, zero, zero],
        "w3": [zero],
    }


def test_certify_reverse_bound_scalar_any_m():
    B = make_bundle([FiberDescriptor.scalar()] * 2)
    m = B.space.efunction({"w0": 1.0, "w1": 3.7})
    cert = certify_reverse_bound(B, m, samples=200, rng=derive_rng(0, "gm", "cert"))
    assert cert.passed
    assert cert.glued_bound is not None
    # glued constants are the per-part ceilings n+1
    for part in cert.parts:
        assert part["passed"]
        assert part["bound"] == part["level"] + 1
    assert (cert.glued_bound - m).real_array().max() <= 1.0 + 1e-12


def test_certify_reverse_bound_fails_on_zero_divisors():
    B = make_bundle([FiberDescriptor.matrix(2), FiberDescriptor.scalar()])
    m = B.space.constant(50.0)
    cert = certify_reverse_bound(B, m, samples=100, rng=derive_rng(0, "gm", "cert-zd"))
    assert not cert.passed
    failing = [p for p in cert.parts if not p["passed"]]
    assert failing
    assert all(p["witness"] is not None for p in failing)


def test_checkers_are_deterministic():
    B = make_bundle([FiberDescriptor.matrix(2), FiberDescriptor.scalar()])
    v1 = check_reverse_bound_hypothesis(B, samples=40, rng=derive_rng(7, "gm"))
    v2 = check_reverse_bound_hypothesis(B, samples=40, rng=derive_rng(7, "gm"))
    assert v1.outcome == v2.outcome
    x1, y1 = v1.witness_pair
    x2, y2 = v2.witness_pair
    assert (x1 - x2).sup_norm() == 0.0
    assert (y1 - y2).sup_norm() == 0.0


@pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-8])
@pytest.mark.parametrize("descriptor", ADMITTED, ids=lambda d: d.label())
def test_probes_verify_on_every_admitted_fiber(descriptor, tol):
    # the descriptor under test sits next to a matrix(2) atom, so the
    # higher-dimensional part is never empty
    B = make_bundle([descriptor, FiberDescriptor.matrix(2)])
    higher = [a for a, d in zip(B.space.atoms, B.descriptors) if d.dim > 1]
    part = Idempotent.from_atoms(B.space, higher)
    witness = unit_support_probe(B)
    assert is_unit_support_witness(witness, tol)
    x, y = zero_divisor_probe(B)
    assert is_zero_divisor_witness(x, y, part)
    if descriptor.dim == 1:
        assert witness.values[0] == FiberElement.unit(descriptor)
        assert x.values[0] == y.values[0] == FiberElement.zero(descriptor)
    unit_verdict = check_unit_support_hypothesis(B, samples=0, tol=tol)
    assert unit_verdict.outcome == "counterexample"
    assert (unit_verdict.witness - witness).sup_norm() == 0.0
    bound_verdict = check_reverse_bound_hypothesis(B, samples=3, tol=tol)
    assert bound_verdict.outcome == "counterexample"
    assert list(bound_verdict.localizing.atoms()) == higher


@pytest.mark.parametrize("checker", CHECKERS)
def test_negative_tolerance_is_a_precondition_error(checker):
    B = make_bundle([FiberDescriptor.matrix(2), FiberDescriptor.scalar()])
    with pytest.raises(PreconditionError):
        checker(B, samples=5, tol=-1e-8)


@pytest.mark.parametrize("checker", CHECKERS)
def test_failed_probe_raises_instead_of_answering(monkeypatch, checker):
    B = make_bundle([FiberDescriptor.matrix(2), FiberDescriptor.scalar()])
    monkeypatch.setattr(gelfand_mazur, "unit_support_probe", lambda b: b.unit())
    monkeypatch.setattr(gelfand_mazur, "zero_divisor_probe", lambda b: (b.unit(), b.unit()))
    with pytest.raises(CertificationError):
        checker(B, samples=5)


def test_unit_support_predicate_rejects_tampered_witnesses():
    B = make_bundle([FiberDescriptor.matrix(2), FiberDescriptor.function(3)])
    witness = unit_support_probe(B)
    assert is_unit_support_witness(witness, 1e-8)
    # full support but invertible
    assert not is_unit_support_witness(B.unit(), 1e-8)
    # not invertible but with a zero fiber
    zero_fiber = Idempotent.from_atoms(B.space, ["w0"]) * witness
    assert not is_unit_support_witness(zero_fiber, 1e-8)


def test_zero_divisor_predicate_rejects_tampered_pairs():
    B = make_bundle([FiberDescriptor.matrix(2), FiberDescriptor.scalar()])
    part = Idempotent.from_atoms(B.space, ["w0"])
    x, y = zero_divisor_probe(B)
    assert is_zero_divisor_witness(x, y, part)
    # nonzero product
    assert not is_zero_divisor_witness(x, y + B.unit(), part)
    # y vanishes on the part
    assert not is_zero_divisor_witness(x, B.zero(), part)


def test_cli_replays_the_encoded_witness_pair(monkeypatch):
    # the CLI decodes the witness it wrote and replays that: an encoded
    # pair altered on its way into the report fails the replay
    doc = {
        "space": [{"atom": "a", "weight": 1.0}, {"atom": "b", "weight": 1.0}],
        "fibers": {"a": {"kind": "scalar"}, "b": {"kind": "matrix", "size": 2}},
        "commands": [{"command": "reverse-bound", "samples": 5}],
    }
    sc = parse_scenario(doc)
    flags = {"tolerance": 1e-8, "samples": 5, "seed": 0, "cap": 4096}
    (result,) = execute(sc, sc.commands, flags)["results"]
    assert result["status"] == "pass" and result["detail"]["witness_reverified"] is True

    def altered(section):
        encoded = encode_section(section)
        encoded["b"] = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
        return encoded

    monkeypatch.setattr("bkbundle.cli.encode_section", altered)
    (result,) = execute(sc, sc.commands, flags)["results"]
    assert result["status"] == "fail"
    assert result["detail"]["witness_reverified"] is False
    assert result["detail"]["message"] == "witness pair failed replay"
