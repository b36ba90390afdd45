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
an O(2^M) gather and phase; gate programs take that kernel there.
Everything here is pure: operations return new states and never mutate
their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .chain import CouplingProfile, single_excitation_matrix
from .errors import SizeLimitError

MAX_TOTAL_QUBITS = 16
MAX_DENSE_CORE = 12
NORM_TOL = 1e-10
UNITARY_TOL = 1e-10


@dataclass(frozen=True)
class Layout:
    """Register shape: chain sites, ancilla slots, store slots."""

    core_sites: int
    ancilla_count: int = 0
    store_sites: int = 0

    def __post_init__(self):
        if self.core_sites < 1 or self.ancilla_count < 0 or self.store_sites < 0:
            raise ValueError("layout counts must be nonnegative (and at least one core site)")
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
        if not 1 <= site <= self.core_sites:
            raise ValueError(f"site {site} outside 1..{self.core_sites}")
        return site - 1

    def ancilla_position(self, k: int = 0) -> int:
        if not 0 <= k < self.ancilla_count:
            raise ValueError(f"ancilla {k} outside 0..{self.ancilla_count - 1}")
        return self.core_sites + k

    def store_position(self, k: int = 0) -> int:
        if not 0 <= k < self.store_sites:
            raise ValueError(f"store slot {k} outside 0..{self.store_sites - 1}")
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
            raise ValueError(f"expected {self.layout.dim} amplitudes, got shape {amps.shape}")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= NORM_TOL:  # also refuses a NaN norm
            raise ValueError(f"state is not normalized (|norm - 1| = {abs(norm - 1.0):.3g})")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def basis(cls, layout: Layout, bits: str | Sequence[int]) -> "StateVector":
        """Computational basis state from bits ordered core, ancilla, store."""
        if len(bits) != layout.total_qubits or any(b not in (0, 1, "0", "1") for b in bits):
            raise ValueError(f"need {layout.total_qubits} bits in {{0,1}}, got {bits!r}")
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
        weights = _core_weights(layout.core_sites)
        rest = layout.dim >> layout.core_sites
        mask = np.repeat(weights == core_weight, rest)
        amps = np.where(mask, amps, 0.0)
        if not np.any(mask):
            raise ValueError(f"no core states of weight {core_weight}")
    return StateVector(layout, amps / np.linalg.norm(amps))


# ---------------------------------------------------------------------------
# cached structure of the core Hamiltonian


def _core_bits(n_sites: int) -> np.ndarray:
    """Row s holds the bits of core index s, site 1 first.

    Not cached: kept resident beside the propagator blocks, these tables
    fragmented the heap and raised peak RSS by one or two 13 MB blocks.
    """
    return (np.arange(1 << n_sites)[:, None] >> np.arange(n_sites - 1, -1, -1)) & 1


@lru_cache(maxsize=32)
def _core_weights(n_sites: int) -> np.ndarray:
    weights = _core_bits(n_sites).sum(axis=1)
    weights.flags.writeable = False
    return weights


@lru_cache(maxsize=32)
def _site_reversal(n_sites: int) -> np.ndarray:
    """Core index of the site-reversed image of each core index."""
    reversal = _core_bits(n_sites) @ (1 << np.arange(n_sites))
    reversal.flags.writeable = False
    return reversal


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


@lru_cache(maxsize=64)
def _block_propagators(profile: CouplingProfile, t: float):
    # dense blocks for full_propagator only, one weight's identity columns at a time;
    # the benchmark reads this cache's counters
    weights = _core_weights(profile.n_sites)
    props = []
    for w in range(profile.n_sites + 1):
        idx = np.flatnonzero(weights == w)
        identity = (np.arange(weights.size)[:, None] == idx).astype(np.complex128)
        u = _evolve_raw(profile, t, identity)[idx]
        u.flags.writeable = False
        props.append((idx, u))
    return tuple(props)


# ---------------------------------------------------------------------------
# raw array primitives (first axis = 2^M state index, second axis = batch)


def _rotate(arr: np.ndarray, n_core: int, rotations, back: bool = False) -> None:
    """The Givens network, in place on a C-contiguous complex array; `back` undoes it.

    Each rotation is one 2x2 real product on the (|01>, |10>) rows of sites
    (p, p+1), on the float64 view; |00> and |11> (determinant one) stay.
    """
    flat = arr.reshape(1 << n_core, -1).view(np.float64)
    for p, g in reversed(rotations) if back else rotations:
        pair = flat.reshape(1 << p, 4, -1)[:, 1:3]
        pair[...] = (g.T if back else g) @ pair


def _evolve_raw(profile: CouplingProfile, t: float, arr: np.ndarray) -> np.ndarray:
    """exp(-i H t) on the core factor: into the mode basis, phase, and back."""
    energies, rotations = _block_eigensystems(profile)
    n_core = profile.n_sites
    out = arr.reshape(1 << n_core, -1).copy()
    _rotate(out, n_core, rotations)
    out *= np.exp(-1j * float(t) * (_core_bits(n_core) @ energies))[:, None]
    _rotate(out, n_core, rotations, back=True)
    return out.reshape(arr.shape)


def _mirror_phases(n_sites: int, phi_n: float) -> np.ndarray:
    """exp(-i n phi_n) (-1)^((n-m)/2), m = n mod 2, for each core index of weight n."""
    weights = _core_weights(n_sites)
    n = weights.astype(float)
    return np.exp(-1j * n * phi_n) * ((-1.0) ** ((weights - (weights & 1)) // 2))


def _mirror_raw(arr: np.ndarray, n_sites: int, phases: np.ndarray) -> np.ndarray:
    """Closed-form mirror inversion: gather the site-reversed core index, then phase it.

    The reversal is an involution that keeps the weight, so the gather and
    the phase table share one index.  Costs O(2^M); no rotations.
    """
    out = arr.reshape(1 << n_sites, -1)[_site_reversal(n_sites)]
    out *= phases[:, None]  # in place: the gather already made the copy
    return out.reshape(arr.shape)


def _local_raw(arr: np.ndarray, qubit: int, u: np.ndarray) -> np.ndarray:
    """Two-row kernel for a 2x2 unitary; a diagonal one only scales each row."""
    view = arr.reshape(1 << qubit, 2, -1)
    if u[0, 1] == 0 and u[1, 0] == 0:
        return (view * np.diagonal(u)[:, None]).reshape(arr.shape)
    top, bottom = view[:, 0], view[:, 1]
    out = np.empty_like(view)
    for row in (0, 1):  # each row built in place: one half-size temporary at a time
        np.multiply(top, u[row, 0], out=out[:, row])
        out[:, row] += u[row, 1] * bottom
    return out.reshape(arr.shape)


def _swap_raw(arr: np.ndarray, n_qubits: int, a: int, b: int) -> np.ndarray:
    shape = arr.shape
    tensor = arr.reshape([2] * n_qubits + [shape[1]])
    return np.swapaxes(tensor, a, b).reshape(shape)


def _check_unitary(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {u.shape}")
    if not np.max(np.abs(u.conj().T @ u - np.eye(2))) <= UNITARY_TOL:  # also refuses NaN
        raise ValueError("matrix is not unitary")
    return u


# ---------------------------------------------------------------------------
# public operations


def _check_evolution(profile: CouplingProfile, layout: Layout, times) -> None:
    if profile.n_sites != layout.core_sites:
        raise ValueError(f"profile has {profile.n_sites} sites but layout has {layout.core_sites}")
    if not np.all(np.isfinite(times)):
        raise ValueError(f"evolution time must be finite, got {times}")


def evolve(profile: CouplingProfile, state: StateVector, t: float) -> StateVector:
    """Apply exp(-i H t) to the core factor; ancilla and store are untouched."""
    _check_evolution(profile, state.layout, t)
    amps = _evolve_raw(profile, t, state.amplitudes[:, None])
    return StateVector(state.layout, amps[:, 0])


def evolution_overlaps(
    profile: CouplingProfile, bra: StateVector, ket: StateVector, times: Sequence[float]
) -> np.ndarray:
    """<bra| exp(-i H t) |ket> for every t in `times`.

    Both states go into the mode basis in one forward pass of the network;
    each t then costs one phase table and a dot product.
    """
    if bra.layout != ket.layout:
        raise ValueError("states live on different layouts")
    times = np.asarray(times, dtype=float)
    _check_evolution(profile, ket.layout, times)
    energies, rotations = _block_eigensystems(profile)
    n_core = profile.n_sites
    modes = np.stack([bra.amplitudes, ket.amplitudes], axis=1)
    _rotate(modes, n_core, rotations)
    weights = (modes[:, 0].conj() * modes[:, 1]).reshape(1 << n_core, -1).sum(axis=1)
    return np.exp(-1j * np.multiply.outer(times, _core_bits(n_core) @ energies)) @ weights


@dataclass(frozen=True)
class Propagator:
    """Dense core unitary exp(-i H t), block diagonal in Hamming weight."""

    t: float
    matrix: np.ndarray


def full_propagator(profile: CouplingProfile, t: float) -> Propagator:
    """Assemble the dense core propagator, one Hamming-weight block at a time."""
    if profile.n_sites > MAX_DENSE_CORE:
        raise SizeLimitError(
            f"dense propagator capped at {MAX_DENSE_CORE} sites, got {profile.n_sites}"
        )
    dim = 1 << profile.n_sites
    u = np.zeros((dim, dim), dtype=np.complex128)
    for idx, block in _block_propagators(profile, float(t)):
        u[np.ix_(idx, idx)] = block
    u.flags.writeable = False
    return Propagator(float(t), u)


def mirror_map(state: StateVector, phi_n: float) -> StateVector:
    """Closed-form mirror inversion of the core.

    Each core component of weight n picks up exp(-i n phi_n) (-1)^((n-m)/2)
    with m = n mod 2 and lands on the site-reversed configuration.  Costs
    O(2^M); no matrix exponential.
    """
    n_sites = state.layout.core_sites
    amps = _mirror_raw(state.amplitudes[:, None], n_sites, _mirror_phases(n_sites, phi_n))
    return StateVector(state.layout, amps[:, 0])


def apply_local(state: StateVector, qubit: int, u: np.ndarray) -> StateVector:
    """Apply a single-qubit unitary at global position `qubit`."""
    u = _check_unitary(u)
    if not 0 <= qubit < state.layout.total_qubits:
        raise ValueError(f"qubit {qubit} outside 0..{state.layout.total_qubits - 1}")
    amps = _local_raw(state.amplitudes[:, None], qubit, u)
    return StateVector(state.layout, amps[:, 0])


def swap_qubits(state: StateVector, a: int, b: int) -> StateVector:
    """Exact SWAP of two global qubit positions."""
    total = state.layout.total_qubits
    if a == b:
        raise ValueError("swap requires two distinct qubits")
    if not (0 <= a < total and 0 <= b < total):
        raise ValueError(f"qubits {a}, {b} outside 0..{total - 1}")
    amps = _swap_raw(state.amplitudes[:, None], total, a, b)
    return StateVector(state.layout, amps[:, 0])


def fidelity_up_to_global_phase(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2, insensitive to a global phase on either state."""
    if a.layout != b.layout:
        raise ValueError("states live on different layouts")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
