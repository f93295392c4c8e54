"""Scenario files: JSON descriptions of a space, a bundle, and named sections.

The format (UTF-8 JSON, all complex numbers as ``[re, im]`` pairs):

.. code-block:: json

    {
      "space": [{"atom": "w0", "weight": 1.0}, {"atom": "w1", "weight": 0.5}],
      "fibers": {
        "w0": {"kind": "scalar"},
        "w1": {"kind": "matrix", "size": 2}
      },
      "sections": {
        "x": {"w0": [2.0, 0.0], "w1": [[1,0],[0,0],[0,0],[1,0]]}
      },
      "commands": [{"command": "invert", "section": "x"}]
    }

Fiber literals: a scalar value is one ``[re, im]`` pair; a matrix value is
a flat row-major list of ``size * size`` pairs; a function value is a list
of ``size`` pairs.

Parse failures raise :class:`ScenarioError` carrying the JSON field path,
e.g. ``sections.x.w1``, so a malformed literal names both the section and
the atom.  The three atom-keyed objects (a section literal, ``fibers``
and a reverse-bound ``bound``) go through one decoder, which needs a key
for every atom and reports in one order: a key that is no atom at
``X.key``, then a missing atom at ``X``, then a bad value at ``X.atom``.

``COMMANDS`` is the one table of commands and the parameters each takes.
The CLI builds its subcommands from it and :func:`decode_command` checks
scenario rows and CLI-built commands against it, so adding a command
means one row there plus one handler in ``cli._HANDLERS``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .bundle import Bundle, Section
from .errors import ScenarioError
from .fibers import FiberDescriptor, FiberElement
from .measure import AtomicMeasureSpace, EFunction

__all__ = [
    "Scenario",
    "COMMANDS",
    "load_scenario",
    "parse_scenario",
    "decode_command",
    "check_parameters",
    "decode_complex",
    "encode_complex",
    "decode_fiber_value",
    "encode_fiber_value",
    "decode_section",
    "decode_bound",
    "encode_section",
    "encode_efunction",
    "encode_rows",
    "INTEGER_MINIMA",
]

# Each command and the parameters it accepts, in the order the CLI lists
# them.  "section" and "perturbation" are required wherever accepted.
COMMANDS = {
    "norms": ("section",),
    "invert": ("section", "tolerance"),
    "perturb": ("section", "perturbation", "tolerance"),
    "spectrum": ("section", "tolerance", "cap"),
    "reconstruct": ("sections", "samples"),
    "gelfand-mazur": ("samples", "tolerance"),
    "reverse-bound": ("samples", "tolerance", "bound"),
    "verify": ("seed", "samples", "tolerance", "cap"),
}

# The least value of each integer command parameter.
INTEGER_MINIMA = {"samples": 1, "cap": 1, "seed": 0}


@dataclass(frozen=True)
class Scenario:
    source: str
    space: AtomicMeasureSpace
    bundle: Bundle
    sections: dict[str, Section] = field(default_factory=dict)
    commands: tuple[dict, ...] = ()


def _expect(obj, kind, path: str, what: str):
    if not isinstance(obj, kind):
        raise ScenarioError(f"expected {what}, got {type(obj).__name__}", path)
    return obj


def _finite_real(obj, path: str, what: str) -> float:
    """A JSON number that is finite as a float; JSON text may also carry
    ``NaN``, ``Infinity`` and integers too large for a float."""
    if isinstance(obj, bool) or not isinstance(obj, Real):
        raise ScenarioError(f"expected {what}", path)
    try:
        value = float(obj)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ScenarioError(f"expected {what}, got a non-finite value", path)
    return value


def decode_complex(obj, path: str) -> complex:
    """A complex literal is a two-element ``[re, im]`` list of finite
    numbers."""
    pair = _expect(obj, list, path, "an [re, im] pair")
    if len(pair) != 2:
        raise ScenarioError(f"expected 2 entries, got {len(pair)}", path)
    return complex(
        _finite_real(pair[0], path, "finite real entries"),
        _finite_real(pair[1], path, "finite real entries"),
    )


def encode_complex(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def decode_fiber_value(descriptor: FiberDescriptor, obj, path: str) -> FiberElement:
    if descriptor.kind == "scalar":
        return FiberElement.scalar(decode_complex(obj, path))
    entries = _expect(obj, list, path, "a list of [re, im] pairs")
    if len(entries) != descriptor.dim:
        raise ScenarioError(
            f"{descriptor.label()} literal needs {descriptor.dim} entries, got {len(entries)}",
            path,
        )
    flat = [decode_complex(e, f"{path}[{i}]") for i, e in enumerate(entries)]
    return FiberElement(descriptor, np.array(flat).reshape(descriptor.shape))


def encode_fiber_value(element: FiberElement):
    if element.descriptor.kind == "scalar":
        return encode_complex(complex(element.data))
    return [encode_complex(z) for z in np.asarray(element.data).reshape(-1)]


def _atom_table(atoms, obj, path: str, what: str, decode) -> list:
    """The values of an atom-keyed object, in atom order, each decoded by
    ``decode(atom, value, path)``.

    Errors come in one order: the first key that is no atom (in document
    order) at ``path.key``, then the first atom without a key (in atom
    order) at ``path``, then whatever ``decode`` raises at ``path.atom``.
    """
    table = _expect(obj, dict, path, what)
    for key in table:
        if key not in atoms:
            raise ScenarioError(f"unknown atom {key!r}", f"{path}.{key}")
    for atom in atoms:
        if atom not in table:
            raise ScenarioError(f"missing value for atom {atom!r}", path)
    return [decode(atom, table[atom], f"{path}.{atom}") for atom in atoms]


def decode_section(bundle: Bundle, obj, path: str) -> Section:
    values = _atom_table(
        bundle.space.atoms, obj, path, "an atom-to-literal object",
        lambda atom, literal, p: decode_fiber_value(bundle.descriptor(atom), literal, p),
    )
    return Section(bundle, values)


def decode_bound(space: AtomicMeasureSpace, obj, path: str) -> EFunction:
    """A reverse-bound candidate: one finite real number per atom."""
    values = _atom_table(
        space.atoms, obj, path, "an atom-to-number object",
        lambda atom, number, p: _finite_real(number, p, "a real number"),
    )
    return EFunction(space, np.array(values, dtype=complex))


def encode_section(section: Section) -> dict:
    return {
        atom: encode_fiber_value(value)
        for atom, value in zip(section.bundle.space.atoms, section.values)
    }


def encode_efunction(fn: EFunction) -> dict:
    return encode_rows(fn.space.atoms, fn.values[None])[0]


def encode_rows(atoms, rows: np.ndarray) -> list[dict]:
    """Each row of a (count, atoms) complex array as an atom-keyed object."""
    return [dict(zip(atoms, row)) for row in np.stack([rows.real, rows.imag], -1).tolist()]


def _decode_space(obj) -> AtomicMeasureSpace:
    rows = _expect(obj, list, "space", "a list of {atom, weight} objects")
    if not rows:
        raise ScenarioError("at least one atom is required", "space")
    atoms, weights = [], []
    for i, row in enumerate(rows):
        row = _expect(row, dict, f"space[{i}]", "an {atom, weight} object")
        extra = set(row) - {"atom", "weight"}
        if extra:
            raise ScenarioError(f"unknown key {sorted(extra)[0]!r}", f"space[{i}]")
        atom = _expect(row.get("atom"), str, f"space[{i}].atom", "a string")
        weight = _finite_real(row.get("weight"), f"space[{i}].weight", "a positive number")
        if atom in atoms:
            raise ScenarioError(f"duplicate atom {atom!r}", f"space[{i}].atom")
        if not weight > 0.0:
            raise ScenarioError("weights must be positive", f"space[{i}].weight")
        atoms.append(atom)
        weights.append(weight)
    return AtomicMeasureSpace(tuple(atoms), tuple(weights))


def _decode_descriptor(obj, path: str) -> FiberDescriptor:
    row = _expect(obj, dict, path, "a {kind, size} object")
    extra = set(row) - {"kind", "size"}
    if extra:
        raise ScenarioError(f"unknown key {sorted(extra)[0]!r}", path)
    kind = _expect(row.get("kind"), str, f"{path}.kind", "a string")
    if kind == "scalar":
        if "size" in row and row["size"] != 1:
            raise ScenarioError("scalar fibers have no size", f"{path}.size")
        return FiberDescriptor.scalar()
    size = row.get("size")
    if isinstance(size, bool) or not isinstance(size, int):
        raise ScenarioError("expected an integer size", f"{path}.size")
    try:
        if kind == "matrix":
            return FiberDescriptor.matrix(size)
        if kind == "function":
            return FiberDescriptor.function(size)
    except Exception as exc:
        raise ScenarioError(str(exc), path) from exc
    raise ScenarioError(f"unknown fiber kind {kind!r}", f"{path}.kind")


def check_parameters(row: dict, prefix: str) -> None:
    """Range-check the ``tolerance``, ``samples``, ``seed`` and ``cap``
    values present in ``row``; an error names the key as ``prefix + key``."""
    if "tolerance" in row:
        path = f"{prefix}tolerance"
        if not _finite_real(row["tolerance"], path, "a number > 0") > 0.0:
            raise ScenarioError("expected a number > 0", path)
    for key, least in INTEGER_MINIMA.items():
        if key not in row:
            continue
        value = row[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < least:
            raise ScenarioError(f"expected an integer >= {least}", f"{prefix}{key}")


def decode_command(obj, prefix: str, sections: dict, space) -> dict:
    """Validate one command row against ``COMMANDS`` and return a copy.

    ``prefix`` turns a key into the name an error gives it:
    ``commands[0].`` for a scenario row, ``--`` for a row built from
    command-line flags.  Section references must name one of ``sections``.
    """
    row = _expect(obj, dict, prefix.rstrip("."), "a command object")
    name = row.get("command")
    params = COMMANDS.get(name) if isinstance(name, str) else None
    if params is None:
        raise ScenarioError(
            f"unknown command {name!r}; expected one of {', '.join(COMMANDS)}",
            f"{prefix}command",
        )
    extra = row.keys() - {"command", *params}
    if extra:
        raise ScenarioError(f"unknown key {sorted(extra)[0]!r}", f"{prefix}{sorted(extra)[0]}")
    for key in ("section", "perturbation"):
        if key in params:
            ref = row.get(key)
            if not isinstance(ref, str):
                raise ScenarioError(f"a {key} name is required", f"{prefix}{key}")
            if ref not in sections:
                raise ScenarioError(f"unknown section {ref!r}", f"{prefix}{key}")
    if "sections" in row:
        refs = _expect(row["sections"], list, f"{prefix}sections", "a list of section names")
        for i, ref in enumerate(refs):
            if not isinstance(ref, str) or ref not in sections:
                raise ScenarioError(f"unknown section {ref!r}", f"{prefix}sections[{i}]")
    if "bound" in row:
        decode_bound(space, row["bound"], f"{prefix}bound")
    check_parameters(row, prefix)
    return dict(row)


def parse_scenario(data, source: str = "<memory>") -> Scenario:
    """Build a scenario from an already-decoded JSON object."""
    top = _expect(data, dict, "", "a JSON object")
    extra = set(top) - {"space", "fibers", "sections", "commands"}
    if extra:
        raise ScenarioError(f"unknown key {sorted(extra)[0]!r}", sorted(extra)[0])
    if "space" not in top:
        raise ScenarioError("a space is required", "space")
    space = _decode_space(top["space"])

    descriptors = _atom_table(
        space.atoms, top.get("fibers"), "fibers", "an atom-to-descriptor object",
        lambda atom, row, p: _decode_descriptor(row, p),
    )
    bundle = Bundle(space, descriptors)

    sections: dict[str, Section] = {}
    raw_sections = top.get("sections", {})
    raw_sections = _expect(raw_sections, dict, "sections", "a name-to-values object")
    for name, obj in raw_sections.items():
        sections[name] = decode_section(bundle, obj, f"sections.{name}")

    raw_commands = top.get("commands", [])
    raw_commands = _expect(raw_commands, list, "commands", "a list of command objects")
    commands = tuple(
        decode_command(obj, f"commands[{i}].", sections, space)
        for i, obj in enumerate(raw_commands)
    )
    return Scenario(source, space, bundle, sections, commands)


def load_scenario(path: str) -> Scenario:
    """Read and parse a scenario file."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(str(exc), path) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}", path
        ) from exc
    except (ValueError, RecursionError) as exc:
        # integers past the int-conversion digit limit; nesting too deep
        raise ScenarioError(f"invalid JSON: {exc}", path) from exc
    return parse_scenario(data, source=path)
