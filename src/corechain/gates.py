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
lowered once per chain, and once for one amplitude column or for a wider
batch, into a plan of :mod:`corechain._kernels` calls (see :func:`_plan`),
which `execute`, `program_unitary` and `program_block` run on arrays kept
to the contract written there.  The paper's store-core swaps and the site
reversal of each mirror move no amplitude: only the mirror's phase
multiply and the local gates touch the array.  `execute` leaves out each
qubit whose bit is 0 in every nonzero amplitude's index, and
`program_block` every qubit outside the block, so a store ancilla in |0>,
and the home site a controlled-Z composite empties, halve every pass.

Every matrix is checked where it enters: `Local`, `TargetSpec`,
`abc_decompose` and `apply_local` check the matrix they are handed,
`phase_gate` its angle, and the program reader in
:mod:`corechain.serialize` builds through `Local`.  The check is memoised
on the matrix's bytes (:func:`corechain.dynamics._check_unitary`), and
`_split` memoises the A/B/C split of each checked target, so a builder
that makes the same H and R(pi/2^k) again and again checks and splits each
once per process.  The builders here and in :mod:`corechain.applications`
assemble one instruction list that one `GateProgram` validates.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import groupby
from typing import Callable, Container, Iterable, Mapping

import numpy as np

from . import _kernels
from .chain import CouplingProfile, mirror_certificate, mirror_is_closed_form, zero_phase_profile
from .dynamics import Layout, StateVector, _are_integers, _check_evolution, _check_unitary, apply_local
from .errors import (
    InvalidInstructionError, InvalidLayoutError, NonFiniteTimeError, NonUnitaryError,
    UnsupportedConfigurationError,
)

IDENTITY_2 = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)


def phase_gate(phi: float) -> np.ndarray:
    """R(phi) = diag(1, e^{i phi})."""
    if not math.isfinite(phi):
        raise NonUnitaryError(f"phase angle phi must be finite, got {phi}")
    return np.array([[1, 0], [0, cmath.exp(1j * phi)]], dtype=np.complex128)


@dataclass(frozen=True)
class FreeEvolve:
    """Free evolution of the core for `duration` (the certified period tau)."""

    duration: float

    def __post_init__(self):
        if not math.isfinite(self.duration):
            raise NonFiniteTimeError(f"evolution time must be finite, got {self.duration}")


@dataclass(frozen=True)
class Swap:
    """SWAP between 1-based chain site `core_site` and global position `partner`."""

    core_site: int
    partner: int


@dataclass(frozen=True, eq=False)
class Local:
    """Single-qubit unitary at global position `qubit`; keeps a read-only copy of `matrix`."""

    qubit: int
    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "matrix", _check_unitary(self.matrix))


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
                _are_integers(op.core_site, op.partner)
                and 1 <= op.core_site <= layout.core_sites
                and 0 <= op.partner < total
                and op.partner != layout.core_position(op.core_site)
            ):
                raise InvalidInstructionError(
                    f"instruction {k}: swap needs a core site in 1..{layout.core_sites} "
                    f"and another position in 0..{total - 1}, got {op}"
                )
            if isinstance(op, Local) and not (_are_integers(op.qubit) and 0 <= op.qubit < total):
                raise InvalidInstructionError(
                    f"instruction {k}: local qubit {op.qubit} outside 0..{total - 1}"
                )

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


@lru_cache(maxsize=16)  # as many chains as the eigensystem cache keeps
def _mirror_table(
    profile: CouplingProfile, duration: float, n_sites: int
) -> tuple[np.ndarray | None, tuple | None]:
    """(the closed-form mirror's weight phases, None) where it is exact, else (None, the network's eigensystem).

    Each chain and duration is certified once per process; the phase table is
    shared, so it is read-only.  A refusal raises and is not kept.
    """
    if profile.n_sites != n_sites:
        raise InvalidLayoutError("profile does not match the program layout")
    if duration > 0:
        certificate = mirror_certificate(profile, duration)  # refuses a period that overflows the phases
        if mirror_is_closed_form(profile, certificate):
            phases = _kernels.mirror_phases(n_sites, certificate.phi_n)
            phases.flags.writeable = False
            return phases, None
    return None, _check_evolution(profile, n_sites, duration)


def _fused_locals(run: Iterable[Local]) -> dict[int, np.ndarray]:
    """One 2x2 per qubit for a run of Locals, in first-seen order: Locals on different qubits commute."""
    fused: dict[int, np.ndarray] = {}
    for op in run:
        fused[op.qubit] = op.matrix @ fused[op.qubit] if op.qubit in fused else op.matrix
    return fused


@lru_cache(maxsize=64)
def _plan(
    program: GateProgram, profile: CouplingProfile, one_column: bool, absent: frozenset[int]
) -> tuple[_Step, ...]:
    """Lower the program for one chain into :mod:`corechain._kernels` calls.

    `order[q]` is qubit q's slot, the array axis that holds it when no
    qubit is absent.  A Swap exchanges two entries and a closed-form mirror
    reverses the chain's entries after its phase multiply.  A run of Locals
    on one column rotates the slots and the order records the rotation; a
    wider batch runs in place on the qubits' current axes, in first-seen
    order.

    The qubits in `absent` start in |0>.  Their slots are `empty`, and a
    slot's axis is its rank among the other slots.  A swap or a reversal
    carries an empty slot along.  `axes` holds every slot's axis (None for
    an empty one) and is rebuilt only when `empty` changes.  A mirror
    multiplies by the weight phases of the present chain axes.  Each chain
    and duration is certified once per process (:func:`_mirror_table`), so
    a fresh program on a known chain certifies nothing anew.  A Local on an
    absent qubit first inserts its axis, with a zero |1> half, at its slot's
    rank, so a run makes its passes in the order it makes them with nothing
    absent and every amplitude is bit for bit the same, up to the sign of an
    exact zero.  Before a Givens network and at the end the array is
    materialised, in natural order with nothing absent, so every caller
    sees all 2^M rows.
    """
    layout = program.layout
    n_sites, natural = layout.core_sites, tuple(range(layout.total_qubits))
    order = list(natural)
    empty: set[int] = set()
    axes: list[int | None] = list(natural)
    steps: list[_Step] = []

    def set_empty(slots: Iterable[int]):
        nonlocal empty
        empty = set(slots)
        present = iter(range(len(natural)))
        axes[:] = [None if slot in empty else next(present) for slot in natural]

    def copy_to(slots: Iterable[int]):
        """The one-copy step whose axis k holds slot k of `slots`, |0> where that slot is empty."""
        steps.append(partial(_kernels.order, order=tuple(axes[s] for s in slots)))

    def materialise():
        nonlocal order
        if empty or tuple(order) != natural:
            copy_to(order)
            order = list(natural)
            set_empty(())

    set_empty(absent)

    for is_local, run in groupby(program.instructions, key=lambda op: isinstance(op, Local)):
        if is_local:
            fused = _fused_locals(run)
            inserted = empty.intersection(order[q] for q in fused)
            if inserted:
                copy_to(s for s in natural if s not in empty or s in inserted)
                set_empty(empty - inserted)
            passes = [(axes[order[q]], u) for q, u in fused.items()]
            if one_column:
                passes.sort(key=lambda entry: entry[0])
                steps.append(partial(_kernels.rotating_local_run, passes=tuple(passes)))
                shift = max(order[q] for q in fused) + 1
                order = [(slot - shift) % len(order) for slot in order]
                if empty:
                    set_empty((slot - shift) % len(order) for slot in empty)
            else:
                steps.append(partial(_kernels.local_run, run=tuple(passes)))
            continue
        for op in run:
            if isinstance(op, Swap):
                a, b = layout.core_position(op.core_site), op.partner
                order[a], order[b] = order[b], order[a]
                continue
            phases, eigensystem = _mirror_table(profile, op.duration, n_sites)
            if phases is None:
                materialise()
                steps.append(partial(_kernels.evolve, eigensystem, op.duration))
                continue
            chain = tuple(axes[slot] for slot in order[:n_sites] if slot not in empty)
            if chain:
                shape, view = _kernels.phase_blocks(phases[: 1 << len(chain)], chain)
                steps.append(partial(_kernels.phase, shape=shape, phases=view))
            order[:n_sites] = order[n_sites - 1 :: -1]
    materialise()
    return tuple(steps)


def _run(program: GateProgram, profile: CouplingProfile, arr: np.ndarray, absent: frozenset[int]) -> np.ndarray:
    """Apply the program's plan to every column of `arr`, which leaves out the `absent` qubits' axes.

    Those qubits are |0> in every column; the result has all 2^M rows, in natural order.
    """
    for step in _plan(program, profile, arr.shape[1] == 1, absent):
        arr = step(arr)
    return arr


def execute(program: GateProgram, profile: CouplingProfile, state: StateVector) -> StateVector:
    """Run the program on `state`; free evolutions use `profile`."""
    if state.layout != program.layout:
        raise InvalidLayoutError("state layout does not match the program layout")
    total = program.layout.total_qubits
    # a qubit whose bit is 0 in every nonzero amplitude's index is |0>: run only that slice.
    # Amplitude i's parts sit at 2i and 2i + 1 of the float view, which compares faster
    held = int(np.bitwise_or.reduce(np.flatnonzero(state.amplitudes.view(np.float64) != 0))) >> 1
    absent = frozenset(q for q in range(total) if not held >> (total - 1 - q) & 1)
    start = state.amplitudes.reshape([2] * total)[tuple(0 if q in absent else slice(None) for q in range(total))]
    return StateVector(program.layout, _run(program, profile, start.copy().reshape(-1, 1), absent)[:, 0])


def program_block(program: GateProgram, profile: CouplingProfile | None, first: int, count: int) -> np.ndarray:
    """The program's block on the adjacent qubits first..first+count-1, every other qubit in |0>.

    The plan runs the 2^count identity columns with every other qubit
    absent.  The rows of the block step by 2^(qubits after the block), so
    they are a strided view of the result.
    """
    total = program.layout.total_qubits
    stride = 1 << (total - first - count)
    absent = frozenset(range(total)) - frozenset(range(first, first + count))
    return _run(program, profile, np.eye(1 << count, dtype=np.complex128), absent)[: stride << count : stride]


def program_unitary(program: GateProgram, profile: CouplingProfile) -> np.ndarray:
    """Dense unitary of the whole program over the full layout."""
    return program_block(program, profile, 0, program.layout.total_qubits)


def controlled_z_program(control: int, layout: Layout, tau: float = math.pi) -> GateProgram:
    """Mirror, swap the control's mirror site with the ancilla, mirror again.

    On a zero-phase chain, a basis input |0>_a |s> with n up spins acquires
    (-1)^(s_x (n-1)), the control bit s_x moves to the ancilla, and site x is
    left in |0>.  On a chain with global phase phi_n, append
    :func:`phase_correction` to strip the extra phases.
    """
    return GateProgram(
        _composite(control, layout, tau),
        layout,
        final_locations=_relocated_locations(layout, control),
        note=f"controlled-Z from site {control}; control relocated to ancilla",
    )


def _composite(control: int, layout: Layout, tau: float, targets: Container[int] = ()) -> tuple[Instruction, ...]:
    """The controlled-Z composite's three instructions, once the layout, control and targets allow it."""
    if layout.ancilla_count < 1:
        raise UnsupportedConfigurationError("the controlled-Z composite needs an ancilla in the store")
    if not (_are_integers(control) and 1 <= control <= layout.core_sites):
        raise InvalidInstructionError(f"control site {control} outside 1..{layout.core_sites}")
    if control in targets:
        raise InvalidInstructionError("the control site carries no target")
    return (FreeEvolve(tau), Swap(layout.mirror_site(control), layout.ancilla_position(0)), FreeEvolve(tau))


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


def reflection_conjugator(theta: float, phi: float) -> np.ndarray:
    """Unitary A with A Z A^dag equal to the (theta, phi) reflection.

    The reflection is [[sin t, e^{i p} cos t], [e^{-i p} cos t, -sin t]];
    theta = pi/2 gives Z itself, theta = phi = 0 gives X.
    """
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise NonUnitaryError(f"reflection angles theta and phi must be finite, got {theta}, {phi}")
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
    """Split a 2x2 unitary as W = e^{i alpha} A Z B Z C with A B C = I; A, B and C are shared, read-only arrays.

    Writing W (up to phase) in Euler form Ry(a) Rx(b) Ry(c) and using that Z
    conjugation flips both axes gives A = Ry(a) Rx(b/2),
    B = Rx(-b/2) Ry(-(a+c)/2), C = Ry((c-a)/2).
    """
    return _split(_check_unitary(w).tobytes())


@lru_cache(maxsize=1024)
def _split(key: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """:func:`abc_decompose` of the checked target with these bytes, its A, B and C checked and shared."""
    w = np.frombuffer(key, dtype=np.complex128).reshape(2, 2)
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
    return _check_unitary(gate_a), _check_unitary(gate_b), _check_unitary(gate_c), alpha


@dataclass(frozen=True, eq=False)
class TargetSpec:
    """Control site plus per-site target unitaries (kept as read-only copies); absent sites act as identity."""

    control: int
    targets: Mapping[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if not _are_integers(*self.targets):
            raise InvalidInstructionError(f"target sites must be integers, got {list(self.targets)}")
        object.__setattr__(self, "targets", {int(s): _check_unitary(u) for s, u in self.targets.items()})


def controlled_unitary_program(
    spec: TargetSpec, layout: Layout, tau: float = math.pi, phi_n: float = 0.0
) -> GateProgram:
    """Controlled multi-target gate: C locals, composite, B locals, composite, A locals.

    The program's core unitary (with the ancilla prepared and returned in
    |0>) is |0_x><0_x| (x) I + |1_x><1_x| (x) prod_j W_j; every qubit ends at
    its original location.  Cost: four free evolutions and two swaps for any
    register size.
    """
    return GateProgram(
        tuple(_controlled(spec.control, spec.targets, layout, tau, phi_n)),
        layout,
        final_locations=layout.identity_locations(),
        note=f"controlled multi-target gate from site {spec.control}",
    )


def _controlled(
    x: int, targets: Mapping[int, np.ndarray], layout: Layout, tau: float, phi_n: float
) -> list[Instruction]:
    """:func:`controlled_unitary_program`'s instructions; each target is checked and split once per process."""
    composite = _composite(x, layout, tau, targets)
    sites = sorted(targets)
    parts = {site: abc_decompose(targets[site]) for site in sites}

    instructions: list[Instruction] = []
    instructions += [Local(layout.core_position(s), parts[s][2], f"C{s}") for s in sites]
    instructions += composite
    instructions += phase_correction(phi_n, x, layout)
    instructions += [Local(layout.core_position(s), parts[s][1], f"B{s}") for s in sites]
    instructions += composite
    instructions += phase_correction(phi_n, x, layout, control_position=layout.core_position(x))
    instructions += [Local(layout.core_position(s), parts[s][0], f"A{s}") for s in sites]
    alpha_sum = sum(parts[s][3] for s in sites)
    if abs(cmath.exp(1j * alpha_sum) - 1.0) > 1e-15:
        instructions.append(Local(layout.core_position(x), phase_gate(alpha_sum), "alpha"))
    return instructions


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
    composite = _composite(control, layout, tau, reflections)
    angles = {site: (theta, phi) for site, (theta, phi) in reflections.items()}
    conjugators = {pair: reflection_conjugator(*pair) for pair in dict.fromkeys(angles.values())}
    sites = sorted(angles)

    instructions: list[Instruction] = []
    instructions += [Local(layout.core_position(s), conjugators[angles[s]].conj().T, f"Adag{s}") for s in sites]
    instructions += composite
    instructions += phase_correction(phi_n, control, layout)
    instructions += [Local(layout.core_position(s), conjugators[angles[s]], f"A{s}") for s in sites]
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
    if n_sites < 2:
        raise UnsupportedConfigurationError(f"need at least 2 sites, got {n_sites}")
    layout = Layout(n_sites, ancilla_count=1)
    # theta = phi = 0 reflection is X
    program = controlled_reflection_program(
        1, {site: (0.0, 0.0) for site in range(2, n_sites + 1)}, layout, tau
    )
    plus = apply_local(StateVector.zero(layout), layout.core_position(1), HADAMARD)
    final = execute(program, zero_phase_profile(n_sites), plus)
    return program, final
