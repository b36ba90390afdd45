"""Controlled multi-target gates from free evolution, swaps, and locals.

The workhorse composite is two mirror evolutions wrapped around one swap
with a store ancilla: on a zero-phase chain it imprints a controlled-Z
between a chosen control site and every other site while parking the
control qubit on the ancilla and leaving |0> at the control's home site.
Conjugating that composite with local gates yields controlled reflections,
and the A/B/C sandwich extends it to arbitrary controlled multi-target
unitaries with all qubits restored to their original locations.

Programs are plain instruction sequences (applied in list order, first
instruction first) over a fixed layout.  Execution is pure: a program is
lowered once per chain into a plan of :mod:`corechain.dynamics` kernel calls
(see :func:`_plan`), which every caller runs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import groupby
from typing import Callable, Iterable, Mapping

import numpy as np

from . import dynamics
from .chain import CouplingProfile, mirror_certificate, mirror_is_closed_form
from .dynamics import Layout, StateVector, _check_unitary, apply_local

IDENTITY_2 = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)


def phase_gate(phi: float) -> np.ndarray:
    """R(phi) = diag(1, e^{i phi})."""
    return np.array([[1, 0], [0, cmath.exp(1j * phi)]], dtype=np.complex128)


# ---------------------------------------------------------------------------
# instructions and programs


@dataclass(frozen=True)
class FreeEvolve:
    """Free evolution of the core for `duration` (the certified period tau)."""

    duration: float

    def __post_init__(self):
        if not math.isfinite(self.duration):
            raise ValueError(f"evolution time must be finite, got {self.duration}")


@dataclass(frozen=True)
class Swap:
    """SWAP between 1-based chain site `core_site` and global position `partner`."""

    core_site: int
    partner: int


@dataclass(frozen=True, eq=False)
class Local:
    """Single-qubit unitary at global position `qubit`."""

    qubit: int
    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        m = _check_unitary(self.matrix)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


Instruction = FreeEvolve | Swap | Local


@dataclass(frozen=True, eq=False)
class GateProgram:
    """Ordered instructions over a layout, plus the final-location map.

    `final_locations` records, for each logical chain qubit (1-based site at
    input time), the global position where it ends up, so callers can
    compose programs that relocate the control onto the ancilla.
    """

    instructions: tuple[Instruction, ...]
    layout: Layout
    final_locations: tuple[tuple[int, int], ...] = ()
    note: str = ""

    def __post_init__(self):
        layout, total = self.layout, self.layout.total_qubits
        for k, op in enumerate(self.instructions):
            if isinstance(op, Swap) and not (
                1 <= op.core_site <= layout.core_sites
                and 0 <= op.partner < total
                and op.partner != layout.core_position(op.core_site)
            ):
                raise ValueError(
                    f"instruction {k}: swap needs a core site in 1..{layout.core_sites} "
                    f"and another position in 0..{total - 1}, got {op}"
                )
            if isinstance(op, Local) and not 0 <= op.qubit < total:
                raise ValueError(f"instruction {k}: local qubit {op.qubit} outside 0..{total - 1}")

    def location_map(self) -> dict[int, int]:
        return dict(self.final_locations)

    @property
    def free_evolution_count(self) -> int:
        return sum(isinstance(i, FreeEvolve) for i in self.instructions)

    @property
    def swap_count(self) -> int:
        return sum(isinstance(i, Swap) for i in self.instructions)

    @property
    def local_count(self) -> int:
        return sum(isinstance(i, Local) for i in self.instructions)


def _relocated_locations(layout: Layout, control: int) -> tuple[tuple[int, int], ...]:
    away = layout.ancilla_position(0)
    return tuple((s, away if s == control else pos) for s, pos in layout.identity_locations())


_Step = Callable[[np.ndarray], np.ndarray]


def _evolve_step(profile: CouplingProfile, duration: float, n_sites: int) -> _Step:
    """The closed-form mirror where it is exact, else the Givens network over the modes."""
    if profile.n_sites != n_sites:
        raise ValueError("profile does not match the program layout")
    if duration > 0:
        certificate = mirror_certificate(profile, duration)
        if mirror_is_closed_form(profile, certificate):
            phases = dynamics._mirror_phases(n_sites, certificate.phi_n)
            return partial(dynamics._mirror_raw, n_sites=n_sites, phases=phases)
    return partial(dynamics._evolve_raw, profile, duration)


def _fused_locals(run: Iterable[Local]) -> list[_Step]:
    """One 2x2 per qubit for a run of Locals; Locals on different qubits commute."""
    fused: dict[int, np.ndarray] = {}
    for op in run:
        fused[op.qubit] = op.matrix @ fused[op.qubit] if op.qubit in fused else op.matrix
    return [partial(dynamics._local_raw, qubit=q, u=m) for q, m in fused.items()]


@lru_cache(maxsize=64)
def _plan(program: GateProgram, profile: CouplingProfile) -> tuple[_Step, ...]:
    """Lower the program for one chain into kernel calls on the amplitude array."""
    layout = program.layout
    steps: list[_Step] = []
    evolutions: dict[float, _Step] = {}  # one certificate and phase table per duration
    for is_local, run in groupby(program.instructions, key=lambda op: isinstance(op, Local)):
        if is_local:
            steps += _fused_locals(run)
            continue
        for op in run:
            if isinstance(op, FreeEvolve):
                if op.duration not in evolutions:
                    evolutions[op.duration] = _evolve_step(profile, op.duration, layout.core_sites)
                steps.append(evolutions[op.duration])
            else:
                position = layout.core_position(op.core_site)
                steps.append(
                    partial(dynamics._swap_raw, n_qubits=layout.total_qubits, a=position, b=op.partner)
                )
    return tuple(steps)


def _run(program: GateProgram, profile: CouplingProfile, arr: np.ndarray) -> np.ndarray:
    """Apply the program's plan to every column of `arr`."""
    for step in _plan(program, profile):
        arr = step(arr)
    return arr


def execute(program: GateProgram, profile: CouplingProfile, state: StateVector) -> StateVector:
    """Run the program on `state`; free evolutions use `profile`."""
    if state.layout != program.layout:
        raise ValueError("state layout does not match the program layout")
    return StateVector(program.layout, _run(program, profile, state.amplitudes[:, None])[:, 0])


def program_unitary(program: GateProgram, profile: CouplingProfile) -> np.ndarray:
    """Dense unitary of the whole program over the full layout."""
    return _run(program, profile, np.eye(program.layout.dim, dtype=np.complex128))


# ---------------------------------------------------------------------------
# the controlled-Z composite and its phase bookkeeping


def controlled_z_program(control: int, layout: Layout, tau: float = math.pi) -> GateProgram:
    """Mirror, swap the control's mirror site with the ancilla, mirror again.

    On a zero-phase chain, a basis input |0>_a |s> with n up spins acquires
    (-1)^(s_x (n-1)), the control bit s_x moves to the ancilla, and site x is
    left in |0>.  On a chain with global phase phi_n, append
    :func:`phase_correction` to strip the extra phases.
    """
    if layout.ancilla_count < 1:
        raise ValueError("the controlled-Z composite needs an ancilla in the store")
    if not 1 <= control <= layout.core_sites:
        raise ValueError(f"control site {control} outside 1..{layout.core_sites}")
    instructions = (
        FreeEvolve(tau),
        Swap(layout.mirror_site(control), layout.ancilla_position(0)),
        FreeEvolve(tau),
    )
    return GateProgram(
        instructions,
        layout,
        final_locations=_relocated_locations(layout, control),
        note=f"controlled-Z from site {control}; control relocated to ancilla",
    )


def phase_correction(
    phi_n: float, control: int, layout: Layout, control_position: int | None = None
) -> tuple[Local, ...]:
    """Local phase gates cancelling the chain-phase factor of one composite.

    Emits R(2 phi_n) at every logical-qubit location plus R(-phi_n) at the
    control's location.  By default the control is taken to sit on the
    ancilla (its position right after :func:`controlled_z_program`); pass
    `control_position` for composites that have already returned it home.
    """
    if phi_n == 0.0:
        return ()
    if control_position is None:
        control_position = layout.ancilla_position(0)
    doubled = phase_gate(2.0 * phi_n)
    homes = layout.identity_locations()
    gates = [Local(pos, doubled, "R(2phi)") for site, pos in homes if site != control]
    gates.append(Local(control_position, doubled, "R(2phi)"))
    gates.append(Local(control_position, phase_gate(-phi_n), "R(-phi)"))
    return tuple(gates)


# ---------------------------------------------------------------------------
# local decompositions


def reflection_conjugator(theta: float, phi: float) -> np.ndarray:
    """Unitary A with A Z A^dag equal to the (theta, phi) reflection.

    The reflection is [[sin t, e^{i p} cos t], [e^{-i p} cos t, -sin t]];
    theta = pi/2 gives Z itself, theta = phi = 0 gives X.
    """
    reflection = np.array(
        [
            [math.sin(theta), cmath.exp(1j * phi) * math.cos(theta)],
            [cmath.exp(-1j * phi) * math.cos(theta), -math.sin(theta)],
        ],
        dtype=np.complex128,
    )
    evals, evecs = np.linalg.eigh(reflection)
    a = evecs[:, ::-1]  # +1 eigenvector first, then -1
    for col in range(2):
        pivot = a[np.argmax(np.abs(a[:, col])), col]
        a[:, col] *= np.conj(pivot) / abs(pivot)
    return a


def _rx(t: float) -> np.ndarray:
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def _ry(t: float) -> np.ndarray:
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


# maps the rotation axes z -> y and y -> x under conjugation
_AXIS_CYCLE = np.array([[1, 1], [1j, -1j]], dtype=np.complex128) / math.sqrt(2)


def abc_decompose(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Split a 2x2 unitary as W = e^{i alpha} A Z B Z C with A B C = I.

    Writing W (up to phase) in Euler form Ry(a) Rx(b) Ry(c) and using that Z
    conjugation flips both axes gives A = Ry(a) Rx(b/2),
    B = Rx(-b/2) Ry(-(a+c)/2), C = Ry((c-a)/2).
    """
    w = _check_unitary(w)
    alpha = cmath.phase(complex(np.linalg.det(w))) / 2.0
    w0 = cmath.exp(-1j * alpha) * w
    m = _AXIS_CYCLE.conj().T @ w0 @ _AXIS_CYCLE

    cos_half = abs(m[0, 0])
    sin_half = abs(m[1, 0])
    b = 2.0 * math.atan2(sin_half, cos_half)
    if sin_half < 1e-12:
        both = -2.0 * cmath.phase(m[0, 0])
        diff = 0.0
    elif cos_half < 1e-12:
        diff = 2.0 * cmath.phase(m[1, 0])
        both = 0.0
    else:
        both = -2.0 * cmath.phase(m[0, 0])
        diff = 2.0 * cmath.phase(m[1, 0])
    a = (both + diff) / 2.0
    c = (both - diff) / 2.0

    gate_a = _ry(a) @ _rx(b / 2.0)
    gate_b = _rx(-b / 2.0) @ _ry(-(a + c) / 2.0)
    gate_c = _ry((c - a) / 2.0)
    return gate_a, gate_b, gate_c, alpha


# ---------------------------------------------------------------------------
# controlled multi-target programs


@dataclass(frozen=True, eq=False)
class TargetSpec:
    """Control site plus per-site target unitaries; absent sites act as identity."""

    control: int
    targets: Mapping[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        checked = {int(site): _check_unitary(u) for site, u in self.targets.items()}
        for m in checked.values():
            m.flags.writeable = False
        object.__setattr__(self, "targets", checked)


def controlled_unitary_program(
    spec: TargetSpec, layout: Layout, tau: float = math.pi, phi_n: float = 0.0
) -> GateProgram:
    """Controlled multi-target gate: C locals, composite, B locals, composite, A locals.

    The program's core unitary (with the ancilla prepared and returned in
    |0>) is |0_x><0_x| (x) I + |1_x><1_x| (x) prod_j W_j; every qubit ends at
    its original location.  Cost: four free evolutions and two swaps for any
    register size.
    """
    x = spec.control
    if not 1 <= x <= layout.core_sites:
        raise ValueError(f"control site {x} outside 1..{layout.core_sites}")
    if layout.ancilla_count < 1:
        raise ValueError("controlled multi-target gates need an ancilla")
    for site in spec.targets:
        if site == x:
            raise ValueError("the control site carries no target")
        if not 1 <= site <= layout.core_sites:
            raise ValueError(f"target site {site} outside 1..{layout.core_sites}")

    sites = sorted(spec.targets)
    parts = {site: abc_decompose(spec.targets[site]) for site in sites}
    composite = controlled_z_program(x, layout, tau).instructions
    correction_away = phase_correction(phi_n, x, layout)
    correction_home = phase_correction(phi_n, x, layout, control_position=layout.core_position(x))

    instructions: list[Instruction] = []
    instructions += [Local(layout.core_position(s), parts[s][2], f"C{s}") for s in sites]
    instructions += composite
    instructions += correction_away
    instructions += [Local(layout.core_position(s), parts[s][1], f"B{s}") for s in sites]
    instructions += composite
    instructions += correction_home
    instructions += [Local(layout.core_position(s), parts[s][0], f"A{s}") for s in sites]
    alpha_sum = sum(parts[s][3] for s in sites)
    if abs(cmath.exp(1j * alpha_sum) - 1.0) > 1e-15:
        instructions.append(Local(layout.core_position(x), phase_gate(alpha_sum), "alpha"))

    return GateProgram(
        tuple(instructions),
        layout,
        final_locations=layout.identity_locations(),
        note=f"controlled multi-target gate from site {x}",
    )


def controlled_reflection_program(
    control: int,
    reflections: Mapping[int, tuple[float, float]],
    layout: Layout,
    tau: float = math.pi,
    phi_n: float = 0.0,
) -> GateProgram:
    """Single-composite controlled gate for reflection targets (one Z sandwich).

    Applies the (theta, phi) reflection to every listed site when the control
    is up.  Inherits the composite's relocation: the control ends on the
    ancilla and its home site is left in |0>.
    """
    if not 1 <= control <= layout.core_sites:
        raise ValueError(f"control site {control} outside 1..{layout.core_sites}")
    conjugators = {}
    for site, (theta, phi) in reflections.items():
        if site == control:
            raise ValueError("the control site carries no target")
        conjugators[site] = reflection_conjugator(theta, phi)
    sites = sorted(conjugators)

    instructions: list[Instruction] = []
    instructions += [Local(layout.core_position(s), conjugators[s].conj().T, f"Adag{s}") for s in sites]
    instructions += controlled_z_program(control, layout, tau).instructions
    instructions += phase_correction(phi_n, control, layout)
    instructions += [Local(layout.core_position(s), conjugators[s], f"A{s}") for s in sites]
    return GateProgram(
        tuple(instructions),
        layout,
        final_locations=_relocated_locations(layout, control),
        note=f"controlled reflections from site {control}; control relocated to ancilla",
    )


def cat_state_program(n_sites: int, tau: float = math.pi) -> tuple[GateProgram, StateVector]:
    """Prepare (|00...0> + |11...1>)/sqrt(2) from |+> on site 1.

    Uses one controlled multi-target X built from a single composite on the
    zero-phase linear-spectrum chain, so the control half of the cat ends on
    the ancilla.  Returns the program and the state it produces.
    """
    from .chain import zero_phase_profile

    if n_sites < 2:
        raise ValueError(f"need at least 2 sites, got {n_sites}")
    layout = Layout(n_sites, ancilla_count=1)
    # theta = phi = 0 reflection is X
    program = controlled_reflection_program(
        1, {site: (0.0, 0.0) for site in range(2, n_sites + 1)}, layout, tau
    )
    plus = apply_local(StateVector.zero(layout), layout.core_position(1), HADAMARD)
    final = execute(program, zero_phase_profile(n_sites), plus)
    return program, final
