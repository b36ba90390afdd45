"""Algorithm-level programs: QFT, Pauli-string evolution, Trotter composition.

The quantum Fourier transform alternates Hadamards with controlled phase
fans, one controlled multi-target gate per control site.  Pauli-string
evolution exp(-i P dt) stores the parity of the involved sites on a
dedicated chain site, phases it locally, and uncomputes; the fixed cost is
eight free evolutions with an ancilla for any string weight, or two free
evolutions and no ancilla when every data site is involved.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Layout
from .errors import InvalidInstructionError, InvalidLayoutError, NonFiniteTimeError, UnsupportedConfigurationError
from .gates import (
    FreeEvolve,
    GateProgram,
    HADAMARD,
    IDENTITY_2,
    Instruction,
    Local,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    Swap,
    _controlled,
    phase_gate,
)

AXES = ("x", "y", "z", "i")

# F with F Z F^dag = axis: Hadamard for x, its y analogue, identity for z
_FRAME = {
    "x": HADAMARD,
    "y": np.array([[1, 1], [1j, -1j]], dtype=np.complex128) / math.sqrt(2),
}


@dataclass(frozen=True)
class PauliString:
    """Per-site axis choice over the data sites; 'i' marks an uninvolved site."""

    axes: tuple[str, ...]

    def __post_init__(self):
        axes = tuple(str(a).lower() for a in self.axes)
        if not axes or any(a not in AXES for a in axes):
            raise InvalidInstructionError(f"axes must be drawn from {AXES}")
        if all(a == "i" for a in axes):
            raise InvalidInstructionError("a Pauli string needs at least one involved site")
        object.__setattr__(self, "axes", axes)

    @classmethod
    def from_string(cls, text: str) -> "PauliString":
        return cls(tuple(text))

    def to_string(self) -> str:
        return "".join(self.axes)

    @property
    def n_sites(self) -> int:
        return len(self.axes)

    @property
    def involved(self) -> tuple[int, ...]:
        """1-based data sites with a non-identity axis."""
        return tuple(j + 1 for j, a in enumerate(self.axes) if a != "i")

    def dense(self) -> np.ndarray:
        """Dense matrix of the string over the data sites (identity on 'i')."""
        paulis = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z, "i": IDENTITY_2}
        out = np.array([[1.0]], dtype=np.complex128)
        for a in self.axes:
            out = np.kron(out, paulis[a])
        return out


def axis_frame(
    mask: PauliString, layout: Layout, first_data_site: int = 2
) -> tuple[tuple[Local, ...], tuple[Local, ...]]:
    """Per-site conjugation in and out of the z-basis for the mask's axes.

    Returns (entering, leaving): `entering` gates go before the z-string
    program and `leaving` after, so that the sandwich realizes the requested
    axes (F Z F^dag = sigma_axis with F the leaving gate).  z and 'i' sites
    contribute nothing.
    """
    entering = []
    leaving = []
    for j, axis in enumerate(mask.axes):
        f = _FRAME.get(axis)
        if f is None:
            continue
        position = layout.core_position(first_data_site + j)
        entering.append(Local(position, f.conj().T, f"frame_in[{axis}]"))
        leaving.append(Local(position, f, f"frame_out[{axis}]"))
    return tuple(entering), tuple(leaving)


def _t_gate(dt: float) -> np.ndarray:
    """exp(-i Z dt)."""
    if not math.isfinite(dt):
        raise NonFiniteTimeError(f"dt must be finite, got {dt}")
    return np.array(
        [[cmath.exp(-1j * dt), 0], [0, cmath.exp(1j * dt)]], dtype=np.complex128
    )


def ancilla_pauli_program(
    mask: PauliString, dt: float, tau: float = math.pi, phi_n: float = 0.0
) -> GateProgram:
    """exp(-i P dt) for any string weight: parity kickback via a spare chain site.

    The chain has one site more than the mask (the parity site, chain
    position 1; data site j lives at chain position j+1) plus one store
    ancilla used inside the controlled-Z-string gates.  Hadamards around a
    controlled Z-string copy the involved-bit parity onto the parity site,
    a local exp(-i Z dt) phases it, and the sequence is uncomputed.  Fixed
    cost: eight free evolutions and four swaps for any weight.
    """
    layout, instructions = _ancilla_pauli(mask, dt, tau, phi_n)
    return GateProgram(
        tuple(instructions),
        layout,
        final_locations=layout.identity_locations(),
        note=f"exp(-i {mask.to_string()} dt) via parity site at chain position 1",
    )


def _ancilla_pauli(mask: PauliString, dt: float, tau: float, phi_n: float) -> tuple[Layout, list[Instruction]]:
    """:func:`ancilla_pauli_program`'s layout and instructions, for one `GateProgram` per build."""
    layout = Layout(mask.n_sites + 1, ancilla_count=1)
    parity = layout.core_position(1)

    string_gate = _controlled(1, {site + 1: PAULI_Z for site in mask.involved}, layout, tau, phi_n)
    entering, leaving = axis_frame(mask, layout)
    h = Local(parity, HADAMARD, "H")
    t = Local(parity, _t_gate(dt), "T")
    return layout, [*entering, h, *string_gate, h, t, h, *string_gate, h, *leaving]


def direct_pauli_program(mask: PauliString, dt: float, tau: float = math.pi) -> GateProgram:
    """exp(-i P dt) when every data site is involved: two evolutions, no ancilla.

    The parity site (chain position 1) mirrors onto the far end of the chain,
    where Hadamards turn the mirror phases into the involved-bit parity; the
    local phase is applied there and the evolution is undone.  Requires a
    zero-phase chain.
    """
    if len(mask.involved) != mask.n_sites:
        raise UnsupportedConfigurationError(
            "the direct construction needs every data site involved; "
            "use ancilla_pauli_program for partial strings"
        )
    n_data = mask.n_sites
    layout = Layout(n_data + 1)
    near = layout.core_position(1)
    far = layout.core_position(layout.core_sites)

    entering, leaving = axis_frame(mask, layout)
    instructions = (
        *entering,
        Local(near, HADAMARD, "H"),
        FreeEvolve(tau),
        Local(far, HADAMARD, "H"),
        Local(far, _t_gate(dt), "T"),
        Local(far, HADAMARD, "H"),
        FreeEvolve(tau),
        Local(near, HADAMARD, "H"),
        *leaving,
    )
    return GateProgram(
        instructions,
        layout,
        final_locations=layout.identity_locations(),
        note=f"exp(-i {mask.to_string()} dt), direct parity at the chain ends",
    )


@dataclass(frozen=True)
class TrotterPlan:
    """First-order product formula: `steps` sweeps of dt-sized term factors."""

    terms: tuple[tuple[PauliString, float], ...]
    dt: float
    steps: int

    def __post_init__(self):
        terms = tuple((mask, float(c)) for mask, c in self.terms)
        if not terms:
            raise UnsupportedConfigurationError("a plan needs at least one term")
        sizes = {mask.n_sites for mask, _ in terms}
        if len(sizes) != 1:
            raise UnsupportedConfigurationError("all terms must act on the same number of data sites")
        if not self.dt > 0:
            raise UnsupportedConfigurationError(f"dt must be positive, got {self.dt}")
        if not math.isfinite(self.dt):
            raise NonFiniteTimeError(f"dt must be finite, got {self.dt}")
        for k, (_, c) in enumerate(terms):
            if not math.isfinite(c * float(self.dt)):  # the term's phase angle
                raise NonFiniteTimeError(f"term {k} coefficient times dt must be finite, got {c} * {self.dt}")
        if self.steps < 1:
            raise UnsupportedConfigurationError(f"steps must be at least 1, got {self.steps}")
        object.__setattr__(self, "terms", terms)

    @property
    def total_time(self) -> float:
        return self.dt * self.steps


def trotter_program(plan: TrotterPlan, tau: float = math.pi) -> GateProgram:
    """Concatenate per-term parity programs `steps` times.

    Coefficients scale the local phase angle (term c*P runs for c*dt).  The
    operator error against exp(-i sum_k c_k P_k * total_time) is first order
    in dt at fixed total time.
    """
    step: list[Instruction] = []
    layout = None
    for mask, coeff in plan.terms:
        layout, term = _ancilla_pauli(mask, coeff * plan.dt, tau, 0.0)
        step += term
    instructions = tuple(step) * plan.steps
    return GateProgram(
        instructions,
        layout,
        final_locations=layout.identity_locations(),
        note=f"{plan.steps} first-order steps of dt={plan.dt}",
    )


def qft_program(
    n: int,
    layout: Layout | None = None,
    tau: float = math.pi,
    phi_n: float = 0.0,
    include_bit_reversal: bool = False,
) -> GateProgram:
    """Quantum Fourier transform on the n chain sites.

    Site x gets a Hadamard followed by one controlled multi-target gate
    applying R(pi/2^(j-x)) to every later site j.  The resulting unitary
    equals the DFT matrix with bit-reversed output indexing; with
    `include_bit_reversal` a swap network through the ancilla (three swaps
    per mirror pair) reorders the register so the program equals the DFT
    exactly.  Cost without the finisher: 4(n-1) free evolutions and 2(n-1)
    swaps.
    """
    if n < 1:
        raise InvalidLayoutError(f"need at least 1 site, got {n}")
    if layout is None:
        layout = Layout(n, ancilla_count=1)
    if layout.core_sites != n:
        raise InvalidLayoutError(f"layout has {layout.core_sites} core sites, expected {n}")
    if layout.ancilla_count < 1:
        raise UnsupportedConfigurationError("the QFT program needs an ancilla")

    rotations = {k: phase_gate(math.pi / 2**k) for k in range(1, n)}
    instructions: list[Instruction] = []
    for x in range(1, n + 1):
        instructions.append(Local(layout.core_position(x), HADAMARD, f"H{x}"))
        if x == n:
            break
        targets = {j: rotations[j - x] for j in range(x + 1, n + 1)}
        instructions += _controlled(x, targets, layout, tau, phi_n)

    if include_bit_reversal:
        scratch = layout.ancilla_position(0)
        for site in range(1, n // 2 + 1):
            partner = layout.mirror_site(site)
            instructions += [
                Swap(site, scratch),
                Swap(partner, scratch),
                Swap(site, scratch),
            ]

    return GateProgram(
        tuple(instructions),
        layout,
        final_locations=layout.identity_locations(),
        note="QFT" + (" with bit-reversal finisher" if include_bit_reversal else ", output bit-reversed"),
    )
