"""Function-valued spectra of sections.

For a section ``x``, a base function ``a`` belongs to the spectrum when
``a e - x`` fails to be invertible, i.e. fails at SOME atom.  The
selection spectrum is the stricter set where ``a`` hits a fiber
eigenvalue at EVERY atom; equivalently, the atomwise selections from
the per-atom fiber spectra.  The selection spectrum is closed under
mixing along partitions of unity and is pointwise bounded by the norm;
every selection is in particular a spectrum member.  The containment in
the other direction does not follow at this level and is deliberately
not asserted anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bundle import Section
from .errors import MismatchError
from .fibers import DEFAULT_TOL
from .measure import EFunction
from .sampling import as_rng, random_partition
from .scenario import encode_rows

__all__ = [
    "FiberSpectrumTable",
    "spectrum_table",
    "spectrum_contains",
    "selection_spectrum_contains",
    "SelectionEnumeration",
    "enumerate_selection_spectrum",
    "SpectrumPropertyReport",
    "selection_spectrum_properties",
    "DEFAULT_SELECTION_CAP",
]

DEFAULT_SELECTION_CAP = 4096


@dataclass(frozen=True)
class FiberSpectrumTable:
    """Per-atom fiber spectra of one section, eigenvalues sorted by
    (real, imag) and repeated with multiplicity."""

    section: Section
    tolerance: float
    per_atom: dict[str, tuple[complex, ...]]

    def eigenvalues(self, atom: str) -> tuple[complex, ...]:
        try:
            return self.per_atom[atom]
        except KeyError:
            raise MismatchError(f"unknown atom {atom!r}") from None

    def distinct(self, atom: str) -> tuple[complex, ...]:
        """Eigenvalues at an atom deduplicated at the table's tolerance.

        Values are already sorted by (real, imag); a value joins the
        previous group when it sits within the tolerance of the group's
        representative.
        """
        out: list[complex] = []
        for z in self.eigenvalues(atom):
            if not out or abs(z - out[-1]) > self.tolerance:
                out.append(z)
        return tuple(out)

    @cached_property
    def _padded(self) -> np.ndarray:
        """The eigenvalues as one (atoms, widest fiber) array in atom order."""
        return _pad([self.per_atom[atom] for atom in self.section.bundle.space.atoms])

    def distance(self, a) -> np.ndarray:
        """Distance from each value of ``a`` to the fiber spectrum at its
        atom; ``a`` is an EFunction or an array whose last axis runs over
        the atoms."""
        if isinstance(a, EFunction):
            if a.space != self.section.bundle.space:
                raise MismatchError("function lives over a different space")
            a = a.values
        return np.abs(np.asarray(a)[..., None] - self._padded).min(axis=-1)


def _pad(groups) -> np.ndarray:
    """Nonempty tuples as array rows, each padded with its first value.

    Repeating a value changes no distance and no nearest value.
    """
    width = max(len(g) for g in groups)
    return np.array([g + g[:1] * (width - len(g)) for g in groups], dtype=complex)


def spectrum_table(x: Section, tol: float = DEFAULT_TOL) -> FiberSpectrumTable:
    """Compute every fiber spectrum of a section."""
    per_atom = {atom: v.spectrum(tol) for atom, v in zip(x.bundle.space.atoms, x.values)}
    return FiberSpectrumTable(x, tol, per_atom)


def _table_for(x: Section, tol: float, table: FiberSpectrumTable | None):
    if table is None:
        return spectrum_table(x, tol)
    if table.section != x:
        raise MismatchError("table belongs to a different section")
    return table


def selection_spectrum_contains(
    x: Section,
    a: EFunction,
    tol: float = DEFAULT_TOL,
    table: FiberSpectrumTable | None = None,
) -> bool:
    """True when ``a`` hits a fiber eigenvalue at every atom."""
    t = _table_for(x, tol, table)
    return bool((t.distance(a) <= tol).all())


def spectrum_contains(
    x: Section,
    a: EFunction,
    tol: float = DEFAULT_TOL,
    table: FiberSpectrumTable | None = None,
) -> bool:
    """True when ``a e - x`` is not invertible, i.e. ``a`` hits a fiber
    eigenvalue at some atom."""
    t = _table_for(x, tol, table)
    return bool((t.distance(a) <= tol).any())


@dataclass(frozen=True, eq=False)
class SelectionEnumeration:
    """The selection spectrum, enumerated up to a cap.

    ``selections`` is a read-only complex array of shape (rows, atoms):
    one selection per row, its values in atom order.  ``total_count``
    multiplies the distinct eigenvalue counts over the atoms; when it
    exceeds the cap, ``selections`` holds only the first ``cap`` rows in
    lexicographic order and ``truncated`` is set.
    """

    selections: np.ndarray
    truncated: bool
    total_count: int


def enumerate_selection_spectrum(
    x: Section,
    cap: int = DEFAULT_SELECTION_CAP,
    tol: float = DEFAULT_TOL,
    table: FiberSpectrumTable | None = None,
) -> SelectionEnumeration:
    """All atomwise eigenvalue selections, in lexicographic order.

    The order is by atom position first (earlier atoms vary slowest),
    then by the (real, imag) order of each atom's distinct eigenvalues.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    t = _table_for(x, tol, table)
    choices = [t.distinct(atom) for atom in x.bundle.space.atoms]
    sizes = [len(c) for c in choices]
    total = math.prod(sizes)
    count = min(total, cap)
    # Row r picks choice (r // stride) % size at each atom, the stride
    # being the product of the later sizes.  Strides are clamped at the
    # row count (past it every pick is 0) to stay within int64.
    strides = [min(math.prod(sizes[i + 1:]), count) for i in range(len(sizes))]
    picks = np.arange(count)[:, None] // strides % sizes
    rows = _pad(choices)[np.arange(len(sizes)), picks]
    rows.setflags(write=False)
    return SelectionEnumeration(rows, total > cap, total)


@dataclass
class SpectrumPropertyReport:
    """Outcome of the selection spectrum property suite.

    Checks: nonempty, pointwise bounded by the norm, closed under
    mixing along random partitions (cyclic), and closed under pointwise
    limits of members (order closed).  ``failures`` holds replayable
    witnesses for anything that failed.

    ``table`` holds the per-atom fiber spectra and ``enumeration`` the
    capped selection enumeration the checks ran on.
    ``norm_bound_excess`` is the largest
    ``|a| - (norm(x) + tol max(1, norm(x)))`` over
    the enumerated selections ``a`` and the atoms, or 0.0 when no
    selection exceeds the bound anywhere.
    """

    table: FiberSpectrumTable
    enumeration: SelectionEnumeration
    norm_bound_excess: float
    nonempty: bool
    bounded: bool
    cyclic: bool
    order_closed: bool
    samples: int
    failures: list[dict] = field(default_factory=list)

    @property
    def member_count(self) -> int:
        return len(self.enumeration.selections)

    @property
    def passed(self) -> bool:
        return self.nonempty and self.bounded and self.cyclic and self.order_closed


def selection_spectrum_properties(
    x: Section,
    samples: int = 200,
    tol: float = DEFAULT_TOL,
    cap: int = DEFAULT_SELECTION_CAP,
    rng=None,
) -> SpectrumPropertyReport:
    rng = as_rng(rng)
    space = x.bundle.space
    table = spectrum_table(x, tol)
    enum = enumerate_selection_spectrum(x, cap=cap, tol=tol, table=table)
    rows = enum.selections
    atom_index = np.arange(len(space))
    failures: list[dict] = []

    nonempty = len(rows) > 0

    # Bounded: |a| <= norm(x) + tol max(1, norm(x)) pointwise, as each
    # fiber spectrum's certificate promises.  The witness is the first
    # offending row.
    norm = x.norm().real_array()
    over = np.abs(rows) - (norm + tol * np.maximum(1.0, norm))
    excess = max(0.0, float(over.max()))
    bounded = excess == 0.0
    if not bounded:
        first = rows[(over > 0.0).any(axis=1).argmax()]
        failures.append({"check": "bounded", "selection": encode_rows(space.atoms, first[None])[0]})

    # Cyclic: mixing members along any partition of unity stays inside.
    cyclic = True
    for _ in range(samples):
        partition = random_partition(space, rng)
        source = np.empty(len(space), dtype=int)
        for part in partition:
            source[part.mask] = int(rng.integers(0, len(rows)))
        mixed = rows[source, atom_index]
        if not (table.distance(mixed) <= tol).all():
            cyclic = False
            failures.append({"check": "cyclic", "mixed": encode_rows(space.atoms, mixed[None])[0]})
            break

    # Order closed: perturb a member by eps = 2^-40 along a random
    # direction and reproject onto the selection set atom by atom.  The
    # perturbation is ~1e-12, far below any eigenvalue gap, so this is
    # the limit of the projected sequence for eps = 2^-n, n -> infinity.
    order_closed = True
    probes = max(1, samples // 10)
    for _ in range(probes):
        base = rows[int(rng.integers(0, len(rows)))]
        noise = rng.standard_normal(len(space)) + 1j * rng.standard_normal(len(space))
        perturbed = base + 2.0 ** (-40) * noise
        nearest = np.abs(perturbed[:, None] - table._padded).argmin(axis=1)
        projected = table._padded[atom_index, nearest]
        if not (table.distance(projected) <= tol).all():
            order_closed = False
            failures.append({"check": "order_closed"})
            break

    return SpectrumPropertyReport(
        table=table,
        enumeration=enum,
        norm_bound_excess=excess,
        nonempty=nonempty,
        bounded=bounded,
        cyclic=cyclic,
        order_closed=order_closed,
        samples=samples,
        failures=failures,
    )
