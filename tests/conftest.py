"""Shared fixtures: the three reference bundles and a deterministic rng
helper; and the environment for running the CLI in a child process."""

import os
from pathlib import Path

import pytest

from bkbundle import AtomicMeasureSpace, Bundle, FiberDescriptor, derive_rng


@pytest.fixture
def two_atom_space():
    return AtomicMeasureSpace.from_weights({"w0": 0.5, "w1": 0.5})


@pytest.fixture
def three_atom_space():
    return AtomicMeasureSpace.from_weights({"a": 0.5, "b": 0.3, "c": 0.2})


@pytest.fixture
def scalar_bundle(three_atom_space):
    return Bundle.of(
        three_atom_space,
        {atom: FiberDescriptor.scalar() for atom in three_atom_space.atoms},
    )


@pytest.fixture
def matrix2_bundle(three_atom_space):
    return Bundle.of(
        three_atom_space,
        {atom: FiberDescriptor.matrix(2) for atom in three_atom_space.atoms},
    )


@pytest.fixture
def mixed_bundle():
    space = AtomicMeasureSpace.from_weights(
        {"w0": 0.4, "w1": 0.3, "w2": 0.2, "w3": 0.1}
    )
    return Bundle.of(
        space,
        {
            "w0": FiberDescriptor.scalar(),
            "w1": FiberDescriptor.matrix(2),
            "w2": FiberDescriptor.function(3),
            "w3": FiberDescriptor.matrix(3),
        },
    )


@pytest.fixture
def rng():
    def make(*labels):
        return derive_rng(0, "tests", *labels)

    return make


def checkout_env() -> dict:
    """The current environment with this checkout's ``src/`` first on
    ``PYTHONPATH``, so a ``python -m bkbundle.cli`` child process runs
    these sources whether or not the package is installed."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    paths = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
