"""Function-valued spectra: per-atom tables, the two membership predicates,
lexicographic selection enumeration, and the property suite."""

import itertools

import numpy as np
import pytest

from bkbundle import (
    AtomicMeasureSpace,
    Bundle,
    FiberDescriptor,
    FiberElement,
    PartitionOfUnity,
    enumerate_selection_spectrum,
    mix,
    selection_spectrum_contains,
    selection_spectrum_properties,
    spectrum_contains,
    spectrum_table,
)
from bkbundle.errors import MismatchError
from bkbundle.sampling import derive_rng, random_section


def scalar_pair_bundle():
    space = AtomicMeasureSpace.from_weights({"p": 1.0, "q": 1.0})
    return Bundle.of(space, {a: FiberDescriptor.scalar() for a in space.atoms})


def diag_pair_section():
    space = AtomicMeasureSpace.from_weights({"p": 1.0, "q": 1.0})
    B = Bundle.of(space, {a: FiberDescriptor.matrix(2) for a in space.atoms})
    return B.section(
        {
            "p": FiberElement.matrix([[1, 0], [0, 2]]),
            "q": FiberElement.matrix([[3, 0], [0, 4]]),
        }
    )


def test_table_frozen_cases():
    B = scalar_pair_bundle()
    x = B.section({"p": FiberElement.scalar(1), "q": FiberElement.scalar(2)})
    t = spectrum_table(x)
    assert [abs(z - 1) for z in t.per_atom["p"]] == [0]
    assert [abs(z - 2) for z in t.per_atom["q"]] == [0]

    d = diag_pair_section()
    td = spectrum_table(d)
    assert sorted(z.real for z in td.per_atom["p"]) == pytest.approx([1, 2])
    assert sorted(z.real for z in td.per_atom["q"]) == pytest.approx([3, 4])

    z = d.bundle.zero()
    tz = spectrum_table(z)
    assert all(
        len(vals) == 2 and max(abs(v) for v in vals) <= 1e-10
        for vals in tz.per_atom.values()
    )


def test_table_eigenvalues_within_norm_bound(mixed_bundle):
    rng = derive_rng(0, "spectrum", "bound")
    for _ in range(50):
        x = random_section(mixed_bundle, rng)
        t = spectrum_table(x)
        for atom, vals in t.per_atom.items():
            cap = x.norm().value(atom).real + 1e-8
            assert max(abs(v) for v in vals) <= cap


def test_membership_frozen_cases():
    B = scalar_pair_bundle()
    space = B.space
    x = B.section({"p": FiberElement.scalar(1), "q": FiberElement.scalar(2)})

    exact = space.efunction({"p": 1, "q": 2})
    assert selection_spectrum_contains(x, exact)
    assert spectrum_contains(x, exact)

    halfway = space.efunction({"p": 1, "q": 99})
    assert not selection_spectrum_contains(x, halfway)
    assert spectrum_contains(x, halfway)

    nowhere = space.efunction({"p": 50, "q": 99})
    assert not spectrum_contains(x, nowhere)
    assert not selection_spectrum_contains(x, nowhere)


def test_enumeration_matches_cartesian_oracle():
    d = diag_pair_section()
    table = spectrum_table(d)
    # oracle: the selections are exactly the cartesian product of the
    # per-atom eigenvalue sets, enumerated lexicographically
    per_atom = [
        sorted(set(table.per_atom[a]), key=lambda z: (z.real, z.imag))
        for a in d.bundle.space.atoms
    ]
    oracle = list(itertools.product(*per_atom))
    assert len(oracle) == 4
    want = {(1.0, 3.0), (1.0, 4.0), (2.0, 3.0), (2.0, 4.0)}
    got_pairs = {
        tuple(round(z.real, 6) for z in combo) for combo in oracle
    }
    assert got_pairs == want

    enum = enumerate_selection_spectrum(d)
    assert not enum.truncated
    assert enum.total_count == 4
    selections = [d.bundle.space.efunction(row) for row in enum.selections]
    values = [
        tuple(s.value(a) for a in d.bundle.space.atoms) for s in selections
    ]
    for got, expect in zip(values, oracle):
        assert max(abs(g - e) for g, e in zip(got, expect)) <= 1e-10
    for s in selections:
        assert selection_spectrum_contains(d, s)


def test_enumeration_single_counts():
    B = scalar_pair_bundle()
    x = B.section({"p": FiberElement.scalar(5), "q": FiberElement.scalar(6j)})
    enum = enumerate_selection_spectrum(x)
    assert enum.total_count == 1

    space = AtomicMeasureSpace.from_weights({"solo": 1.0})
    M = Bundle.of(space, {"solo": FiberDescriptor.matrix(2)})
    y = M.section({"solo": FiberElement.matrix([[1, 0], [0, 2]])})
    enum_y = enumerate_selection_spectrum(y)
    assert enum_y.total_count == 2


def test_enumeration_cap_and_flag():
    space = AtomicMeasureSpace.from_weights({f"w{i}": 1.0 for i in range(4)})
    B = Bundle.of(space, {a: FiberDescriptor.function(8) for a in space.atoms})
    rng = derive_rng(0, "spectrum", "cap")
    x = random_section(B, rng)
    enum = enumerate_selection_spectrum(x, cap=100)
    assert enum.truncated
    assert len(enum.selections) == 100


def test_enumeration_past_int64_keeps_exact_count_and_order():
    # 8**22 = 2**66 selections: the count stays an exact int and the
    # first rows are still the lexicographic ones
    space = AtomicMeasureSpace.uniform([f"w{i}" for i in range(22)])
    B = Bundle.of(space, {a: FiberDescriptor.function(8) for a in space.atoms})
    x = B.section(
        {
            a: FiberElement.function([complex(k, i) for k in range(8)])
            for i, a in enumerate(space.atoms)
        }
    )
    enum = enumerate_selection_spectrum(x, cap=5)
    assert enum.total_count == 8**22
    assert enum.truncated
    table = spectrum_table(x)
    oracle = itertools.islice(
        itertools.product(*(table.distinct(a) for a in space.atoms)), 5
    )
    assert np.array_equal(enum.selections, np.array(list(oracle)))


def test_enumeration_cap_above_total_returns_every_row():
    d = diag_pair_section()
    enum = enumerate_selection_spectrum(d, cap=5)
    assert not enum.truncated
    assert enum.total_count == len(enum.selections) == 4
    assert np.array_equal(enum.selections, enumerate_selection_spectrum(d).selections)


def test_enumeration_rows_are_read_only():
    enum = enumerate_selection_spectrum(diag_pair_section())
    with pytest.raises(ValueError):
        enum.selections[0, 0] = 0.0


def test_table_of_another_section_is_rejected():
    B = scalar_pair_bundle()
    x = B.section({"p": FiberElement.scalar(1), "q": FiberElement.scalar(2)})
    y = B.section({"p": FiberElement.scalar(5), "q": FiberElement.scalar(6)})
    a = B.space.efunction({"p": 5, "q": 6})
    wrong = spectrum_table(y)
    with pytest.raises(MismatchError):
        selection_spectrum_contains(x, a, table=wrong)
    with pytest.raises(MismatchError):
        spectrum_contains(x, a, table=wrong)
    with pytest.raises(MismatchError):
        enumerate_selection_spectrum(x, table=wrong)
    # an equal section built separately shares the table
    x_again = B.section({"p": FiberElement.scalar(1), "q": FiberElement.scalar(2)})
    assert not selection_spectrum_contains(x, a, table=spectrum_table(x_again))


def test_membership_crosscheck_against_sigma_min(matrix2_bundle):
    # independent oracle: a is in the selection spectrum iff a(w)e - x(w)
    # is singular at every atom, decided by numpy's SVD
    rng = derive_rng(0, "spectrum", "crosscheck")
    space = matrix2_bundle.space
    for trial in range(100):
        x = random_section(matrix2_bundle, rng)
        table = spectrum_table(x)
        if trial % 2 == 0:
            a = space.efunction(
                {
                    atom: table.per_atom[atom][
                        int(rng.integers(0, len(table.per_atom[atom])))
                    ]
                    for atom in space.atoms
                }
            )
        else:
            a = space.efunction(
                {
                    atom: complex(rng.standard_normal(), rng.standard_normal()) * 2.0
                    for atom in space.atoms
                }
            )
        via_table = selection_spectrum_contains(x, a, tol=1e-8)
        via_svd = all(
            np.linalg.svd(
                a.value(atom) * np.eye(2) - x.value(atom).data, compute_uv=False
            )[-1]
            <= 1e-8
            for atom in space.atoms
        )
        assert via_table == via_svd


def test_scaling_identity(matrix2_bundle):
    rng = derive_rng(0, "spectrum", "scaling")
    space = matrix2_bundle.space
    for _ in range(50):
        x = random_section(matrix2_bundle, rng)
        scale = (space.ones() + x.norm()).reciprocal()
        scaled_x = scale * x
        table = spectrum_table(x)
        a = space.efunction(
            {
                atom: table.per_atom[atom][
                    int(rng.integers(0, len(table.per_atom[atom])))
                ]
                for atom in space.atoms
            }
        )
        assert selection_spectrum_contains(x, a)
        assert selection_spectrum_contains(scaled_x, scale * a, tol=1e-8)
        outside = a + space.ones()
        got_out = selection_spectrum_contains(x, outside, tol=1e-10)
        got_out_scaled = selection_spectrum_contains(
            scaled_x, scale * outside, tol=1e-10
        )
        assert got_out == got_out_scaled


def test_selection_membership_implies_somewhere(mixed_bundle):
    rng = derive_rng(0, "spectrum", "implies")
    space = mixed_bundle.space
    for _ in range(50):
        x = random_section(mixed_bundle, rng)
        enum = enumerate_selection_spectrum(x, cap=64)
        for row in enum.selections[:8]:
            a = space.efunction(row)
            assert selection_spectrum_contains(x, a)
            assert spectrum_contains(x, a)


def test_property_suite_on_diag_example():
    d = diag_pair_section()
    report = selection_spectrum_properties(d, samples=100)
    assert report.nonempty and report.bounded and report.cyclic
    assert report.order_closed
    assert report.member_count == 4
    assert not report.failures
    # bound sharpness on this example: max modulus per atom is the norm
    norm = d.norm()
    assert norm.value("p").real == pytest.approx(2.0, abs=1e-12)
    assert norm.value("q").real == pytest.approx(4.0, abs=1e-12)


def test_property_suite_on_zero_section(matrix2_bundle):
    report = selection_spectrum_properties(matrix2_bundle.zero(), samples=50)
    assert report.nonempty and report.bounded and report.cyclic
    assert report.order_closed
    assert report.member_count == 1


def test_property_suite_random_sections(matrix2_bundle):
    rng = derive_rng(0, "spectrum", "suite")
    for _ in range(10):
        x = random_section(matrix2_bundle, rng)
        report = selection_spectrum_properties(x, samples=50, rng=rng)
        assert report.nonempty and report.bounded and report.cyclic
        assert report.order_closed
        assert not report.failures


def test_cyclicity_explicit_mix():
    d = diag_pair_section()
    space = d.bundle.space
    enum = enumerate_selection_spectrum(d)
    p = PartitionOfUnity.from_labels(space, [0, 1])
    a = mix(p, [space.efunction(enum.selections[0]), space.efunction(enum.selections[3])])
    assert selection_spectrum_contains(d, a)
