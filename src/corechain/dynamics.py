"""Many-qubit states over core + ancilla + store, and the primitive moves.

Qubit ordering
--------------
A register holds the N chain sites first, then the ancillas, then the store
slots.  Site 1 is the most significant bit of the amplitude index, so a basis
label reads left to right: index(|s_1 s_2 ... s_M>) = sum s_p 2^(M-p).
Chain sites are addressed 1-based in the public API; `Layout` converts them
to 0-based global qubit positions.

The chain Hamiltonian only ever touches the core factor and conserves the
number of up spins there.  The chain is free fermions: nearest-neighbour
hops carry no Jordan-Wigner sign, so exp(-iHt) is fixed by the N x N
single-excitation matrix J = v diag(E) v^T alone.  v factors into N(N-1)/2
adjacent Givens rotations and a +-1 diagonal, and each rotation on sites
(p, p+1) acts on the register as a two-qubit gate that mixes only |10> and
|01>.  Free evolution is that network: rotate into the mode basis, multiply
by the phases exp(-i t sum_k E_k n_k), rotate back.  No block is ever
diagonalized and no propagator is built.  Where a period is certified on a
positive-coupling chain, the same evolution is the closed-form mirror map,
an O(2^M) phase and site reversal; gate programs take those kernels there.
Everything here is pure: operations return new states and never mutate
their inputs.

The array kernels these operations and lowered gate programs run on, and
the array contract they share, are in :mod:`corechain._kernels`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import _kernels
from .chain import CouplingProfile, single_excitation_matrix
from .errors import (
    InvalidInstructionError, InvalidLayoutError, InvalidStateError,
    NonFiniteTimeError, NonUnitaryError, SizeLimitError,
)

MAX_TOTAL_QUBITS = 16
MAX_DENSE_CORE = 12
NORM_TOL = 1e-10
UNITARY_TOL = 1e-10


def _are_integers(*values) -> bool:
    """Whether every value is a Python or numpy integer: a float position or count is refused, not truncated."""
    return all(isinstance(v, (int, np.integer)) for v in values)


@dataclass(frozen=True)
class Layout:
    """Register shape: chain sites, ancilla slots, store slots."""

    core_sites: int
    ancilla_count: int = 0
    store_sites: int = 0

    def __post_init__(self):
        if not _are_integers(self.core_sites, self.ancilla_count, self.store_sites):
            raise InvalidLayoutError(f"layout counts must be integers, got {self}")
        if self.core_sites < 1 or self.ancilla_count < 0 or self.store_sites < 0:
            raise InvalidLayoutError("layout counts must be nonnegative (and at least one core site)")
        if self.total_qubits > MAX_TOTAL_QUBITS:
            raise SizeLimitError(
                f"{self.total_qubits} qubits exceeds the desk-scale cap of {MAX_TOTAL_QUBITS}"
            )

    @property
    def total_qubits(self) -> int:
        return self.core_sites + self.ancilla_count + self.store_sites

    @property
    def dim(self) -> int:
        return 1 << self.total_qubits

    def core_position(self, site: int) -> int:
        """Global qubit position of 1-based chain site `site`."""
        if not (_are_integers(site) and 1 <= site <= self.core_sites):
            raise InvalidInstructionError(f"site {site} outside 1..{self.core_sites}")
        return site - 1

    def ancilla_position(self, k: int = 0) -> int:
        if not (_are_integers(k) and 0 <= k < self.ancilla_count):
            raise InvalidInstructionError(f"ancilla {k} outside 0..{self.ancilla_count - 1}")
        return self.core_sites + k

    def store_position(self, k: int = 0) -> int:
        if not (_are_integers(k) and 0 <= k < self.store_sites):
            raise InvalidInstructionError(f"store slot {k} outside 0..{self.store_sites - 1}")
        return self.core_sites + self.ancilla_count + k

    def mirror_site(self, site: int) -> int:
        return self.core_sites - site + 1

    def identity_locations(self) -> tuple[tuple[int, int], ...]:
        """(site, position) of every chain site at its own core position."""
        return tuple((site, self.core_position(site)) for site in range(1, self.core_sites + 1))


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitudes over the layout's computational basis."""

    layout: Layout
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.layout.dim,):
            raise InvalidStateError(
                f"expected {self.layout.dim} amplitudes, got shape {amps.shape}"
            )
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= NORM_TOL:  # also refuses a NaN norm
            raise InvalidStateError(f"state is not normalized (|norm - 1| = {abs(norm - 1.0):.3g})")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def basis(cls, layout: Layout, bits: str | Sequence[int]) -> "StateVector":
        """Computational basis state from bits ordered core, ancilla, store."""
        if len(bits) != layout.total_qubits or any(b not in (0, 1, "0", "1") for b in bits):
            raise InvalidStateError(f"need {layout.total_qubits} bits in {{0,1}}, got {bits!r}")
        amps = np.zeros(layout.dim, dtype=np.complex128)
        amps[int("".join(str(int(b)) for b in bits), 2)] = 1.0
        return cls(layout, amps)

    @classmethod
    def zero(cls, layout: Layout) -> "StateVector":
        return cls.basis(layout, [0] * layout.total_qubits)


def random_state(layout: Layout, seed=None, core_weight: int | None = None) -> StateVector:
    """Haar-like random state; optionally supported on one core-weight sector."""
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)
    if core_weight is not None:
        weights = _kernels.core_weights(layout.core_sites)
        rest = layout.dim >> layout.core_sites
        mask = np.repeat(weights == core_weight, rest)
        amps = np.where(mask, amps, 0.0)
        if not np.any(mask):
            raise InvalidStateError(f"no core states of weight {core_weight}")
    return StateVector(layout, amps / np.linalg.norm(amps))


@lru_cache(maxsize=16)
def _block_eigensystems(profile: CouplingProfile):
    """J's mode energies E and the Givens rotations that carry sites to modes.

    J = v diag(E) v^T is the only eigendecomposition.  Rotations R_i on rows
    (p, p+1) zero v column by column, last column first and top down, until
    R_m ... R_1 v = D is a +-1 diagonal.  Top down keeps most rotations on
    the leading sites, where the kernel's rows are longest; one with nothing
    to zero (a decoupled chain) is left out.  D never appears: it commutes
    with the mode phases and squares to one.  Named for the cache counters.
    """
    n = profile.n_sites
    energies, modes = np.linalg.eigh(single_excitation_matrix(profile).to_dense())
    rotations = []
    for col in range(n - 1, 0, -1):
        for p in range(col):
            a, b = modes[p, col], modes[p + 1, col]
            rho = math.hypot(a, b)
            if rho == 0.0:
                continue
            r = np.array([[b, -a], [a, b]]) / rho  # zeroes modes[p, col]
            modes[p : p + 2] = r @ modes[p : p + 2]
            r.flags.writeable = False
            rotations.append((p, r.T))  # r.T is r on the (site p+1, site p) rows
    energies.flags.writeable = False
    return energies, tuple(rotations)


@lru_cache(maxsize=8)
def _block_propagators(profile: CouplingProfile, t: float) -> np.ndarray:
    # the dense core unitary for full_propagator only: the network on the identity columns,
    # once the time is checked, so a build looks the eigensystem up once and a hit not at all.
    # 8 entries of up to 256 MB (12 sites); the benchmark reads this cache's counters
    eigensystem = _check_evolution(profile, profile.n_sites, t)
    u = _kernels.evolve(eigensystem, t, np.eye(1 << profile.n_sites, dtype=np.complex128))
    u.flags.writeable = False
    return u


def _check_unitary(u: np.ndarray) -> np.ndarray:
    """A read-only complex128 array equal to `u`, refused unless `u` is a 2x2 unitary.

    The check runs once per distinct matrix: equal matrices (equal bytes)
    share one array, which is never the caller's own.  A program repeats a
    handful of matrices (H, the R(pi/2^k) targets and their A/B/C factors),
    within a build and across builds.
    """
    try:
        u = np.asarray(u, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        raise NonUnitaryError(f"expected a 2x2 complex matrix: {exc}") from None
    if u.shape != (2, 2):
        raise NonUnitaryError(f"expected a 2x2 matrix, got shape {u.shape}")
    return _checked_unitary(u.tobytes())


@lru_cache(maxsize=1024)
def _checked_unitary(key: bytes) -> np.ndarray:
    """The read-only 2x2 array over `key`, once it is unitary; a refusal raises and is not cached."""
    u = np.frombuffer(key, dtype=np.complex128).reshape(2, 2)
    if not np.max(np.abs(u.conj().T @ u - np.eye(2))) <= UNITARY_TOL:  # also refuses NaN
        raise NonUnitaryError("matrix is not unitary")
    return u


def _check_evolution(profile: CouplingProfile, n_sites: int, times):
    """The chain's eigensystem, once the layout matches and every time keeps the mode phases finite."""
    if profile.n_sites != n_sites:
        raise InvalidLayoutError(f"profile has {profile.n_sites} sites but layout has {n_sites}")
    eigensystem = _block_eigensystems(profile)  # |t sum_k E_k n_k| <= |t| sum_k |E_k|
    if not math.isfinite(float(np.max(np.abs(times), initial=0.0)) * float(np.sum(np.abs(eigensystem[0])))):
        raise NonFiniteTimeError(f"evolution time and its mode phases must be finite, got {times}")
    return eigensystem


def evolve(profile: CouplingProfile, state: StateVector, t: float) -> StateVector:
    """Apply exp(-i H t) to the core factor; ancilla and store are untouched."""
    eigensystem = _check_evolution(profile, state.layout.core_sites, t)
    amps = _kernels.evolve(eigensystem, t, state.amplitudes[:, None].copy())
    return StateVector(state.layout, amps[:, 0])


def evolution_overlaps(
    profile: CouplingProfile, bra: StateVector, ket: StateVector, times: Sequence[float]
) -> np.ndarray:
    """<bra| exp(-i H t) |ket> for every t in `times`.

    Both states go into the mode basis in one forward pass of the network;
    each t then costs one phase table and a dot product.
    """
    if bra.layout != ket.layout:
        raise InvalidLayoutError("states live on different layouts")
    times = np.asarray(times, dtype=float)
    energies, rotations = _check_evolution(profile, ket.layout.core_sites, times)
    n_core = profile.n_sites
    modes = np.stack([bra.amplitudes, ket.amplitudes], axis=1)
    _kernels.rotate(modes, n_core, rotations)
    weights = (modes[:, 0].conj() * modes[:, 1]).reshape(1 << n_core, -1).sum(axis=1)
    return np.exp(-1j * np.multiply.outer(times, _kernels.core_bits(n_core) @ energies)) @ weights


@dataclass(frozen=True)
class Propagator:
    """Dense core unitary exp(-i H t), block diagonal in Hamming weight."""

    t: float
    matrix: np.ndarray


def full_propagator(profile: CouplingProfile, t: float) -> Propagator:
    """The dense core propagator, read-only: one network pass on the identity columns."""
    if profile.n_sites > MAX_DENSE_CORE:
        raise SizeLimitError(
            f"dense propagator capped at {MAX_DENSE_CORE} sites, got {profile.n_sites}"
        )
    return Propagator(float(t), _block_propagators(profile, float(t)))


def mirror_map(state: StateVector, phi_n: float) -> StateVector:
    """Closed-form mirror inversion of the core.

    Each core component of weight n picks up exp(-i n phi_n) (-1)^((n-m)/2)
    with m = n mod 2 and lands on the site-reversed configuration: the
    phase multiply and relabel of a plan's mirror step, made on natural
    order with one transposing copy.  Costs O(2^M); no matrix exponential.
    """
    n_sites = state.layout.core_sites
    if not math.isfinite(float(phi_n) * n_sites):  # the largest weight phase, n_sites phi_n
        raise NonFiniteTimeError(f"phi_n and its weight phases must be finite, got {phi_n}")
    phases = _kernels.mirror_phases(n_sites, phi_n)[:, None]
    amps = _kernels.phase(state.amplitudes[:, None].copy(), (1 << n_sites, -1), phases)
    amps = _kernels.order(amps, range(n_sites - 1, -1, -1))
    return StateVector(state.layout, amps[:, 0])


def apply_local(state: StateVector, qubit: int, u: np.ndarray) -> StateVector:
    """Apply a single-qubit unitary at global position `qubit`."""
    u = _check_unitary(u)
    if not (_are_integers(qubit) and 0 <= qubit < state.layout.total_qubits):
        raise InvalidInstructionError(f"qubit {qubit} outside 0..{state.layout.total_qubits - 1}")
    amps = _kernels.local_run(state.amplitudes[:, None].copy(), ((qubit, u),))
    return StateVector(state.layout, amps[:, 0])


def swap_qubits(state: StateVector, a: int, b: int) -> StateVector:
    """Exact SWAP of two global qubit positions."""
    total = state.layout.total_qubits
    if a == b:
        raise InvalidInstructionError("swap requires two distinct qubits")
    if not (_are_integers(a, b) and 0 <= a < total and 0 <= b < total):
        raise InvalidInstructionError(f"qubits {a}, {b} outside 0..{total - 1}")
    order = list(range(total))
    order[a], order[b] = b, a
    amps = _kernels.order(state.amplitudes[:, None], order)
    return StateVector(state.layout, amps[:, 0])


def fidelity_up_to_global_phase(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2, insensitive to a global phase on either state."""
    if a.layout != b.layout:
        raise InvalidLayoutError("states live on different layouts")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
