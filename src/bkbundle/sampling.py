"""Deterministic random generation of spaces, elements, and sections.

All randomness in the package flows from one integer seed through
``derive_rng``: the seed plus a tuple of string labels is hashed
(SHA-256, first 8 bytes per label) into numpy ``SeedSequence`` spawn
keys, and the stream is PCG64.  Two runs with the same seed and labels
produce identical streams on any platform; distinct labels give
independent streams, so checks can be reordered without changing each
other's draws.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .bundle import Bundle, Section
from .fibers import FiberDescriptor, FiberElement
from .measure import AtomicMeasureSpace, EFunction, Idempotent, PartitionOfUnity

__all__ = [
    "derive_rng",
    "as_rng",
    "random_efunction",
    "random_real_efunction",
    "random_fiber_element",
    "random_section",
    "random_section_with_norm",
    "random_invertible_section",
    "random_partition",
]


def derive_rng(seed: int, *labels: str) -> np.random.Generator:
    """A PCG64 stream determined by the seed and a label path."""
    keys = tuple(
        int.from_bytes(hashlib.sha256(str(l).encode("utf-8")).digest()[:8], "big")
        for l in labels
    )
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed), spawn_key=keys)))


def as_rng(rng) -> np.random.Generator:
    """Accept a Generator, a seed, or None (seed 0)."""
    if isinstance(rng, np.random.Generator):
        return rng
    if rng is None:
        return derive_rng(0)
    return derive_rng(int(rng))


def _complex_array(rng: np.random.Generator, shape, scale: float) -> np.ndarray:
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def random_efunction(
    space: AtomicMeasureSpace, rng, scale: float = 1.0
) -> EFunction:
    rng = as_rng(rng)
    return EFunction(space, _complex_array(rng, len(space), scale))


def random_real_efunction(
    space: AtomicMeasureSpace, rng, low: float = 0.0, high: float = 1.0
) -> EFunction:
    rng = as_rng(rng)
    return EFunction(space, rng.uniform(low, high, len(space)).astype(complex))


def random_fiber_element(
    descriptor: FiberDescriptor, rng, scale: float = 1.0
) -> FiberElement:
    rng = as_rng(rng)
    return FiberElement(descriptor, _complex_array(rng, descriptor.shape, scale))


def random_section(bundle: Bundle, rng, scale: float = 1.0) -> Section:
    rng = as_rng(rng)
    return Section(
        bundle, [random_fiber_element(d, rng, scale) for d in bundle.descriptors]
    )


def random_section_with_norm(bundle: Bundle, rng, profile: EFunction) -> Section:
    """A random section whose function-valued norm equals ``profile``.

    Works by rescaling a generic draw atom by atom; the profile must be
    real and nonnegative.  Zero profile entries give zero fibers.
    """
    rng = as_rng(rng)
    target = profile.real_array()
    values = []
    for d, t in zip(bundle.descriptors, target):
        el = random_fiber_element(d, rng)
        n = el.norm()
        while n == 0.0:  # pragma: no cover - measure zero draw
            el = random_fiber_element(d, rng)
            n = el.norm()
        values.append((float(t) / n) * el if t > 0.0 else FiberElement.zero(d))
    return Section(bundle, values)


def random_invertible_section(
    bundle: Bundle, rng, min_sigma: float = 0.05, attempts: int = 100
) -> Section:
    """A random section bounded away from singularity at every atom."""
    rng = as_rng(rng)
    values = []
    for d in bundle.descriptors:
        for _ in range(attempts):
            el = random_fiber_element(d, rng)
            if el.smallest_singular_value() > min_sigma:
                values.append(el)
                break
        else:  # pragma: no cover - vanishing probability
            values.append(FiberElement.unit(d))
    return Section(bundle, values)


def random_partition(
    space: AtomicMeasureSpace, rng, max_parts: int | None = None
) -> PartitionOfUnity:
    """A random partition of unity with between 1 and ``max_parts`` parts."""
    rng = as_rng(rng)
    if max_parts is None:
        max_parts = len(space)
    parts = int(rng.integers(1, max_parts + 1))
    labels = rng.integers(0, parts, len(space))
    masks = [labels == k for k in range(parts)]
    return PartitionOfUnity([Idempotent(space, m) for m in masks])

