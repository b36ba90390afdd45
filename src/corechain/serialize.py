"""Deterministic JSON and CSV for profiles, spectra, states, programs, reports.

Floats are printed with 17 significant digits so every IEEE-754 double
round-trips exactly and identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .analysis import CostReport, RobustnessReport
from .chain import CouplingProfile, MirrorCertificate, Spectrum
from .dynamics import Layout, StateVector
from .gates import FreeEvolve, GateProgram, Instruction, Local, Swap


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def dumps(obj: Any, indent: int = 0) -> str:
    """Render JSON with fixed float formatting; dict order is preserved."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}{json.dumps(str(k))}: {dumps(v, indent + 2)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        rendered = [dumps(v, indent + 2) for v in seq]
        if all("\n" not in r for r in rendered) and sum(len(r) for r in rendered) < 72:
            return "[" + ", ".join(rendered) + "]"
        return "[\n" + ",\n".join(inner + r for r in rendered) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    return json.dumps(obj)


def loads(text: str) -> Any:
    """Parse JSON; the "-0" that :func:`dumps` writes for a negative zero reads back as -0.0."""
    return json.loads(text, parse_int=lambda token: -0.0 if token == "-0" else int(token))


def write_json(path, obj: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
        fh.write("\n")


def csv_lines(header: list[str], rows: list[list]) -> list[str]:
    """Header and rows as CSV lines, floats in the fixed format."""
    def cell(v):
        if isinstance(v, (float, np.floating)):
            return format_float(v)
        return str(v)

    return [",".join(header)] + [",".join(cell(v) for v in row) for row in rows]


def write_csv(path, header: list[str], rows: list[list]) -> None:
    """RFC-4180-style CSV with a header row and fixed float formatting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(line + "\r\n" for line in csv_lines(header, rows)))


# ---------------------------------------------------------------------------
# domain objects <-> plain dicts


def profile_to_dict(profile: CouplingProfile) -> dict:
    return {
        "n_sites": profile.n_sites,
        "omegas": [float(w) for w in profile.omegas],
        "lambdas": [float(v) for v in profile.lambdas],
    }


def profile_from_dict(data: dict) -> CouplingProfile:
    return CouplingProfile(int(data["n_sites"]), tuple(data["omegas"]), tuple(data["lambdas"]))


def spectrum_to_dict(spectrum: Spectrum) -> dict:
    return {"energies": [float(e) for e in spectrum.energies]}


def spectrum_from_dict(data: dict) -> Spectrum:
    return Spectrum(tuple(data["energies"]))


def certificate_to_dict(certificate: MirrorCertificate) -> dict:
    return {
        "tau": certificate.tau,
        "phi_n": certificate.phi_n,
        "max_deviation": certificate.max_deviation,
        "valid": certificate.is_valid,
    }


def layout_to_dict(layout: Layout) -> dict:
    return {
        "core_sites": layout.core_sites,
        "ancilla_count": layout.ancilla_count,
        "store_sites": layout.store_sites,
    }


def layout_from_dict(data: dict) -> Layout:
    return Layout(
        int(data["core_sites"]),
        int(data.get("ancilla_count", 0)),
        int(data.get("store_sites", 0)),
    )


def state_to_dict(state: StateVector) -> dict:
    return {
        "layout": layout_to_dict(state.layout),
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
    }


def state_from_dict(data: dict) -> StateVector:
    amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
    return StateVector(layout_from_dict(data["layout"]), amps)


def _matrix_to_lists(matrix: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in matrix]


def _matrix_from_lists(data: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data])


def instruction_to_dict(instruction: Instruction) -> dict:
    if isinstance(instruction, FreeEvolve):
        return {"op": "evolve", "duration": instruction.duration}
    if isinstance(instruction, Swap):
        return {"op": "swap", "core_site": instruction.core_site, "partner": instruction.partner}
    return {
        "op": "local",
        "qubit": instruction.qubit,
        "label": instruction.label,
        "matrix": _matrix_to_lists(instruction.matrix),
    }


def instruction_from_dict(data: dict) -> Instruction:
    op = data["op"]
    if op == "evolve":
        return FreeEvolve(float(data["duration"]))
    if op == "swap":
        return Swap(int(data["core_site"]), int(data["partner"]))
    if op == "local":
        return Local(int(data["qubit"]), _matrix_from_lists(data["matrix"]), data.get("label", ""))
    raise ValueError(f"unknown instruction op {op!r}")


def program_to_dict(program: GateProgram) -> dict:
    return {
        "layout": layout_to_dict(program.layout),
        "instructions": [instruction_to_dict(i) for i in program.instructions],
        "final_locations": [[site, pos] for site, pos in program.final_locations],
        "note": program.note,
    }


def program_from_dict(data: dict) -> GateProgram:
    return GateProgram(
        tuple(instruction_from_dict(d) for d in data["instructions"]),
        layout_from_dict(data["layout"]),
        final_locations=tuple((int(s), int(p)) for s, p in data.get("final_locations", [])),
        note=data.get("note", ""),
    )


def cost_report_to_dict(report: CostReport) -> dict:
    return {
        "free_evolutions": report.free_evolutions,
        "swaps": report.swaps,
        "local_ops": report.local_ops,
        "switch_events": report.switch_events,
        "core_time": report.core_time,
        "switched_time": report.switched_time,
    }


def robustness_report_to_dict(report: RobustnessReport) -> dict:
    return {
        "delta_ts": list(report.delta_ts),
        "errors": list(report.errors),
        "fitted_order": report.fitted_order,
    }
