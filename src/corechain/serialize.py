"""Deterministic JSON and CSV for profiles, spectra, states, programs, reports.

Floats are printed with 17 significant digits so every IEEE-754 double
round-trips exactly and identical inputs produce byte-identical files.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .chain import CouplingProfile, MirrorCertificate, Spectrum
from .dynamics import Layout, StateVector
from .errors import InvalidInstructionError
from .gates import FreeEvolve, GateProgram, Instruction, Local, Swap


# "%.17g" % x is format(x, ".17g") without a Python frame per float
_FLOAT_17G = "%.17g".__mod__


def format_float(x: float) -> str:
    return _FLOAT_17G(float(x))


# the exact scalar types, each rendered by one call; json.dumps of a str is
# encode_basestring_ascii
_SCALARS = {
    float: _FLOAT_17G,
    int: str,
    bool: lambda b: "true" if b else "false",
    str: encode_basestring_ascii,
    type(None): lambda _: "null",
}


def dumps(obj: Any, indent: int = 0) -> str:
    """Render JSON with fixed float formatting; dict order is preserved.

    A list goes on one line when no entry spans lines and the entries total
    fewer than 72 characters.  Scalar entries are rendered in place, not by
    a call of `render` each.  A dict value that is not a scalar is rendered
    once per call: a value that several dicts share, such as the matrix of
    a program's equal Locals (see :func:`program_to_dict`), costs one
    rendering.
    """
    shared: dict[tuple[int, int], str] = {}  # (id of a dict value, its indent) -> its text

    def value(v, indent: int) -> str:
        r = _SCALARS.get(type(v))
        if r is not None:
            return r(v)
        key = (id(v), indent)  # v is alive until the call returns, so its id names it
        if key not in shared:
            shared[key] = render(v, indent)
        return shared[key]

    def render(obj, indent: int) -> str:
        scalar = _SCALARS.get(type(obj))
        if scalar is not None:
            return scalar(obj)
        if isinstance(obj, (list, tuple)):
            if not obj:
                return "[]"
            rendered = [r(v) if (r := _SCALARS.get(type(v))) is not None else render(v, indent + 2) for v in obj]
            line = ", ".join(rendered)
            if len(line) - 2 * (len(rendered) - 1) < 72 and "\n" not in line:
                return "[" + line + "]"
            inner = " " * (indent + 2)
            return "[\n" + ",\n".join([inner + r for r in rendered]) + "\n" + " " * indent + "]"
        if isinstance(obj, dict):
            if not obj:
                return "{}"
            inner = " " * (indent + 2)
            items = [f"{inner}{encode_basestring_ascii(str(k))}: " + value(v, indent + 2) for k, v in obj.items()]
            return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"
        if isinstance(obj, (int, np.integer)):  # int subclasses and numpy scalars
            return str(int(obj))
        if isinstance(obj, (float, np.floating)):
            return format_float(obj)
        return json.dumps(obj)

    return render(obj, indent)


def loads(text: str) -> Any:
    """Parse JSON; the "-0" that :func:`dumps` writes for a negative zero reads back as -0.0."""
    return json.loads(text, parse_int=lambda token: -0.0 if token == "-0" else int(token))


def write_json(path, obj: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
        fh.write("\n")


def csv_lines(header: list[str], rows: Iterable[Sequence]) -> Iterator[str]:
    """Header and rows as CSV lines, floats in the fixed format, one line at a time."""
    def cell(v):
        if isinstance(v, (float, np.floating)):
            return format_float(v)
        return str(v)

    yield ",".join(header)
    for row in rows:
        yield ",".join(cell(v) for v in row)


def write_csv(path, header: list[str], rows: Iterable[Sequence]) -> None:
    """RFC-4180-style CSV with a header row and fixed float formatting, written as the rows come."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(line + "\r\n" for line in csv_lines(header, rows))


# ---------------------------------------------------------------------------
# domain objects <-> plain dicts

# records whose dict is their fields in declaration order
profile_to_dict = spectrum_to_dict = layout_to_dict = asdict
cost_report_to_dict = robustness_report_to_dict = asdict


def certificate_to_dict(certificate: MirrorCertificate) -> dict:
    return {**asdict(certificate), "valid": certificate.is_valid}


def _reader(read):
    """Refuse a malformed dict with one ValueError naming the record, not a Python internal error."""
    kind = read.__name__.removesuffix("_from_dict")

    @functools.wraps(read)
    def checked(data):
        try:
            if not isinstance(data, dict):
                raise TypeError(f"expected a JSON object, got {type(data).__name__}")
            return read(data)
        except KeyError as exc:
            raise ValueError(f"malformed {kind}: missing key {exc.args[0]!r}") from None
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"malformed {kind}: {exc}") from None

    return checked


def _integer(value, name: str) -> int:
    """A JSON integer; a number with a fractional part is refused, not truncated."""
    if isinstance(value, (float, np.floating)) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@_reader
def profile_from_dict(data: dict) -> CouplingProfile:
    n_sites = _integer(data["n_sites"], "n_sites")
    return CouplingProfile(n_sites, tuple(data["omegas"]), tuple(data["lambdas"]))


@_reader
def spectrum_from_dict(data: dict) -> Spectrum:
    return Spectrum(tuple(data["energies"]))


@_reader
def layout_from_dict(data: dict) -> Layout:
    return Layout(
        _integer(data["core_sites"], "core_sites"),
        _integer(data.get("ancilla_count", 0), "ancilla_count"),
        _integer(data.get("store_sites", 0), "store_sites"),
    )


def _complex_to_pairs(values: np.ndarray) -> list:
    """Complex entries as nested [re, im] lists of Python floats, in the array's shape."""
    return np.ascontiguousarray(values).view(np.float64).reshape(*values.shape, 2).tolist()


def _complex_from_pairs(data) -> np.ndarray:
    """Nested [re, im] lists as a complex array; a -0 part keeps its sign."""
    try:
        pairs = np.array(data)
    except ValueError:  # numpy refuses a ragged list
        raise TypeError("expected [re, im] pairs, got a ragged list") from None
    if pairs.dtype.kind not in "biuf" or pairs.shape[-1:] != (2,):
        raise TypeError(f"expected numeric [re, im] pairs, got {pairs.dtype} entries of shape {pairs.shape}")
    return pairs.astype(np.float64).view(np.complex128)[..., 0]


def state_to_dict(state: StateVector) -> dict:
    return {"layout": layout_to_dict(state.layout), "amplitudes": _complex_to_pairs(state.amplitudes)}


@_reader
def state_from_dict(data: dict) -> StateVector:
    return StateVector(layout_from_dict(data["layout"]), _complex_from_pairs(data["amplitudes"]))


def instruction_to_dict(instruction: Instruction) -> dict:
    return _instruction_dict(instruction, _complex_to_pairs)


def _instruction_dict(instruction: Instruction, pairs) -> dict:
    """The instruction's dict, a Local's matrix given as `pairs(matrix)`."""
    if isinstance(instruction, FreeEvolve):
        return {"op": "evolve", "duration": instruction.duration}
    if isinstance(instruction, Swap):
        return {"op": "swap", "core_site": instruction.core_site, "partner": instruction.partner}
    return {
        "op": "local",
        "qubit": instruction.qubit,
        "label": instruction.label,
        "matrix": pairs(instruction.matrix),
    }


@_reader
def instruction_from_dict(data: dict) -> Instruction:
    op = data["op"]
    if op == "evolve":
        return FreeEvolve(float(data["duration"]))
    if op == "swap":
        return Swap(_integer(data["core_site"], "core_site"), _integer(data["partner"], "partner"))
    if op == "local":
        matrix = _complex_from_pairs(data["matrix"])
        return Local(_integer(data["qubit"], "qubit"), matrix, data.get("label", ""))
    raise InvalidInstructionError(f"unknown instruction op {op!r}")


def program_to_dict(program: GateProgram) -> dict:
    """The program as plain dicts; Locals with equal matrices share one [re, im] list, made once."""
    shared: dict[bytes, list] = {}

    def pairs(matrix: np.ndarray) -> list:
        key = matrix.tobytes()
        if key not in shared:
            shared[key] = _complex_to_pairs(matrix)
        return shared[key]

    return {
        "layout": layout_to_dict(program.layout),
        "instructions": [_instruction_dict(i, pairs) for i in program.instructions],
        "final_locations": [[site, pos] for site, pos in program.final_locations],
        "note": program.note,
    }


@_reader
def program_from_dict(data: dict) -> GateProgram:
    return GateProgram(
        tuple(instruction_from_dict(d) for d in data["instructions"]),
        layout_from_dict(data["layout"]),
        final_locations=tuple(
            (_integer(s, "final_locations"), _integer(p, "final_locations"))
            for s, p in data.get("final_locations", [])
        ),
        note=data.get("note", ""),
    )
