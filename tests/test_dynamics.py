"""State evolution, the closed-form mirror map, and the local primitives."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from corechain import (
    CouplingProfile,
    FreeEvolve,
    GateProgram,
    InvalidProfileError,
    Spectrum,
    Layout,
    SizeLimitError,
    StateVector,
    apply_local,
    christandl_profile,
    evolve,
    fidelity_up_to_global_phase,
    full_propagator,
    mirror_map,
    program_unitary,
    random_state,
    reconstruct_profile,
    swap_qubits,
    zero_phase_profile,
)
from corechain import dynamics
from corechain.serialize import profile_from_dict

import oracles

INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


# the golden recon5/recon6 inputs and a seeded n = 8 chain, all with non-uniform fields
RECONSTRUCTED = {
    f"recon{n}": profile_from_dict(json.loads((INPUTS / f"recon{n}.json").read_text()))
    for n in (5, 6)
}
RECONSTRUCTED["seeded8"] = reconstruct_profile(
    Spectrum(tuple(np.sort(np.random.default_rng(8).uniform(-4.0, 4.0, 8))))
)


def test_layout_positions():
    layout = Layout(3, ancilla_count=2, store_sites=1)
    assert layout.total_qubits == 6
    assert layout.core_position(1) == 0
    assert layout.core_position(3) == 2
    assert layout.ancilla_position(0) == 3
    assert layout.ancilla_position(1) == 4
    assert layout.store_position(0) == 5
    assert layout.mirror_site(1) == 3


def test_layout_cap():
    with pytest.raises(SizeLimitError):
        Layout(12, ancilla_count=5)


def test_statevector_rejects_unnormalized():
    layout = Layout(2)
    with pytest.raises(ValueError):
        StateVector(layout, np.array([1.0, 1.0, 0.0, 0.0]))


def test_statevector_rejects_nan():
    with pytest.raises(ValueError):
        StateVector(Layout(2), np.array([math.nan, 0.0, 0.0, 0.0]))


def test_basis_reads_left_to_right():
    layout = Layout(2, ancilla_count=1)
    state = StateVector.basis(layout, "100")
    assert state.amplitudes[0b100] == 1.0


class TestEvolve:
    def test_zero_time_is_identity(self):
        layout = Layout(4)
        state = random_state(layout, seed=1)
        out = evolve(christandl_profile(4), state, 0.0)
        assert np.max(np.abs(out.amplitudes - state.amplitudes)) <= 1e-14

    def test_single_excitation_transfer(self):
        profile = christandl_profile(3)
        layout = Layout(3)
        out = evolve(profile, StateVector.basis(layout, "100"), math.pi)
        target = StateVector.basis(layout, "001")
        assert fidelity_up_to_global_phase(out, target) >= 1.0 - 1e-10

    def test_two_excitation_sign(self):
        # |110> -> -|011> at tau = pi on the odd-size linear chain
        profile = christandl_profile(3)
        layout = Layout(3)
        out = evolve(profile, StateVector.basis(layout, "110"), math.pi)
        assert abs(out.amplitudes[0b011] - (-1.0)) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_dense_exponential(self, n):
        profile = christandl_profile(n)
        layout = Layout(n)
        rng = np.random.default_rng(n)
        state = random_state(layout, seed=int(rng.integers(1 << 30)))
        for t in (0.37, math.pi, 2.1):
            expected = oracles.dense_propagator(profile, t) @ state.amplitudes
            out = evolve(profile, state, t)
            assert np.max(np.abs(out.amplitudes - expected)) <= 1e-10

    @pytest.mark.parametrize("profile", RECONSTRUCTED.values(), ids=RECONSTRUCTED.keys())
    def test_reconstructed_chain_with_ancilla_and_store(self, profile):
        layout = Layout(profile.n_sites, ancilla_count=1, store_sites=1)
        state = random_state(layout, seed=11)
        for t in (0.77, math.pi + 1e-3, math.pi + 0.1, 5.0):
            expected = np.kron(oracles.dense_propagator(profile, t), np.eye(4)) @ state.amplitudes
            out = evolve(profile, state, t)
            assert np.max(np.abs(out.amplitudes - expected)) <= 1e-12

    def test_builds_no_propagator(self):
        profile = CouplingProfile(4, (0.61, 0.83, 0.61), (0.17, -0.4, -0.4, 0.17))
        before = dynamics._block_propagators.cache_info()
        evolve(profile, random_state(Layout(4, ancilla_count=1), seed=5), 0.913)
        assert dynamics._block_propagators.cache_info() == before  # currsize included
        expected = oracles.dense_propagator(profile, 0.913)
        assert np.max(np.abs(full_propagator(profile, 0.913).matrix - expected)) <= 1e-12

    def test_rejects_nonfinite_profile(self):
        profile = CouplingProfile(3, (1.0, 1.0), (math.inf, 1.0, math.inf))
        with pytest.raises(InvalidProfileError, match=r"non-finite fields at j=\[1, 3\]"):
            evolve(profile, StateVector.zero(Layout(3)), 1.0)

    def test_profile_layout_mismatch(self):
        with pytest.raises(ValueError):
            evolve(christandl_profile(3), StateVector.zero(Layout(4)), 1.0)

    def test_ancilla_untouched(self):
        profile = christandl_profile(2)
        layout = Layout(2, ancilla_count=1)
        state = StateVector.basis(layout, "101")
        out = evolve(profile, state, 0.62)
        # amplitude mass stays in the ancilla=1 slice
        mass = sum(abs(out.amplitudes[i]) ** 2 for i in range(8) if i & 1)
        assert mass == pytest.approx(1.0, abs=1e-12)

    def test_excitation_conservation(self):
        profile = christandl_profile(5)
        layout = Layout(5)
        state = random_state(layout, seed=9)
        weights = np.array([bin(i).count("1") for i in range(32)])
        before = [np.sum(np.abs(state.amplitudes[weights == w]) ** 2) for w in range(6)]
        out = evolve(profile, state, 1.234)
        after = [np.sum(np.abs(out.amplitudes[weights == w]) ** 2) for w in range(6)]
        assert_allclose(after, before, atol=1e-10)

    def test_composition(self):
        profile = christandl_profile(4)
        layout = Layout(4)
        rng = np.random.default_rng(5)
        for _ in range(5):
            t1, t2 = rng.uniform(0, 2 * math.pi, 2)
            state = random_state(layout, seed=int(rng.integers(1 << 30)))
            once = evolve(profile, state, t1 + t2)
            twice = evolve(profile, evolve(profile, state, t2), t1)
            assert np.max(np.abs(once.amplitudes - twice.amplitudes)) <= 1e-9


class TestFullPropagator:
    def test_identity_at_zero(self):
        u = full_propagator(christandl_profile(3), 0.0).matrix
        assert np.max(np.abs(u - np.eye(8))) <= 1e-12

    def test_transfer_block_2_sites(self):
        profile = CouplingProfile(2, (0.5,), (0.5, 0.5))
        u = full_propagator(profile, math.pi).matrix
        assert abs(abs(u[0b01, 0b10]) - 1.0) <= 1e-10

    @pytest.mark.parametrize("t", [0.3, 1.7, math.pi])
    def test_unitary(self, t):
        u = full_propagator(christandl_profile(5), t).matrix
        assert np.max(np.abs(u.conj().T @ u - np.eye(32))) <= 1e-10

    def test_agrees_with_evolve(self):
        profile = christandl_profile(3)
        layout = Layout(3)
        u = full_propagator(profile, 0.77).matrix
        state = random_state(layout, seed=3)
        out = evolve(profile, state, 0.77)
        assert np.max(np.abs(u @ state.amplitudes - out.amplitudes)) <= 1e-12

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            full_propagator(CouplingProfile(13, (1.0,) * 12, (0.0,) * 13), 1.0)

    def test_block_diagonal_in_weight(self):
        u = full_propagator(christandl_profile(4), 0.9).matrix
        weights = np.array([bin(i).count("1") for i in range(16)])
        off_sector = weights[:, None] != weights[None, :]
        assert np.max(np.abs(u[off_sector])) <= 1e-12


class TestMirrorMap:
    def test_vacuum_fixed(self):
        layout = Layout(3)
        state = StateVector.zero(layout)
        out = mirror_map(state, 1.234)
        assert out.amplitudes[0] == pytest.approx(1.0)

    def test_two_up_sign(self):
        layout = Layout(3)
        out = mirror_map(StateVector.basis(layout, "110"), 0.0)
        assert out.amplitudes[0b011] == pytest.approx(-1.0)

    def test_single_up_phase_at_pi(self):
        layout = Layout(3)
        out = mirror_map(StateVector.basis(layout, "100"), math.pi)
        assert out.amplitudes[0b001] == pytest.approx(-1.0)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_dense_propagator(self, n):
        """The closed form reproduces exp(-i H pi) on the zero-phase chain."""
        profile = zero_phase_profile(n)
        dense = oracles.dense_propagator(profile, math.pi)
        dim = 1 << n
        layout = Layout(n)
        mirror = np.zeros((dim, dim), dtype=complex)
        for k in range(dim):
            basis = np.zeros(dim, dtype=complex)
            basis[k] = 1.0
            mirror[:, k] = mirror_map(StateVector(layout, basis), 0.0).amplitudes
        aligned = oracles.align_global_phase(dense, mirror)
        assert np.max(np.abs(aligned - mirror)) <= 1e-8

    @pytest.mark.parametrize("n", range(2, 9))
    def test_block_propagator_equals_mirror(self, n):
        profile = zero_phase_profile(n)
        u = full_propagator(profile, math.pi).matrix
        layout = Layout(n)
        dim = 1 << n
        mirror = np.zeros((dim, dim), dtype=complex)
        for k in range(dim):
            basis = np.zeros(dim, dtype=complex)
            basis[k] = 1.0
            mirror[:, k] = mirror_map(StateVector(layout, basis), 0.0).amplitudes
        aligned = oracles.align_global_phase(u, mirror)
        assert np.max(np.abs(aligned - mirror)) <= 1e-8

    def test_involution_phases(self):
        layout = Layout(4)
        phi = 0.7
        for index in range(16):
            basis = np.zeros(16, dtype=complex)
            basis[index] = 1.0
            state = StateVector(layout, basis)
            twice = mirror_map(mirror_map(state, phi), phi)
            n = bin(index).count("1")
            m = n % 2
            expected = np.exp(-2j * n * phi) * (-1.0) ** (n - m)
            assert abs(twice.amplitudes[index] - expected) <= 1e-12


class TestLocals:
    def test_identity_noop(self):
        layout = Layout(2)
        state = random_state(layout, seed=4)
        out = apply_local(state, 0, np.eye(2))
        assert_allclose(out.amplitudes, state.amplitudes)

    def test_phase_gate_on_one(self):
        layout = Layout(1, ancilla_count=1)
        state = StateVector.basis(layout, "01")
        out = apply_local(state, 1, np.diag([1.0, np.exp(0.5j)]))
        assert out.amplitudes[0b01] == pytest.approx(np.exp(0.5j))

    def test_hadamard_on_zero(self):
        layout = Layout(1)
        out = apply_local(StateVector.zero(layout), 0, oracles.H)
        assert_allclose(out.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_rejects_nonunitary(self):
        layout = Layout(1)
        with pytest.raises(ValueError):
            apply_local(StateVector.zero(layout), 0, np.array([[1.0, 0.0], [0.0, 0.5]]))

    def test_rejects_nan_matrix(self):
        with pytest.raises(ValueError):
            apply_local(StateVector.zero(Layout(1)), 0, np.full((2, 2), math.nan))

    def test_swap_basic(self):
        layout = Layout(2)
        out = swap_qubits(StateVector.basis(layout, "01"), 0, 1)
        assert out.amplitudes[0b10] == pytest.approx(1.0)

    def test_swap_involution(self):
        layout = Layout(3, ancilla_count=1)
        state = random_state(layout, seed=8)
        out = swap_qubits(swap_qubits(state, 1, 3), 1, 3)
        assert_allclose(out.amplitudes, state.amplitudes)

    def test_swap_rejects_same(self):
        with pytest.raises(ValueError):
            swap_qubits(StateVector.zero(Layout(2)), 1, 1)


class TestFidelity:
    def test_self(self):
        state = random_state(Layout(3), seed=1)
        assert fidelity_up_to_global_phase(state, state) == pytest.approx(1.0)

    def test_orthogonal(self):
        layout = Layout(2)
        a = StateVector.basis(layout, "00")
        b = StateVector.basis(layout, "11")
        assert fidelity_up_to_global_phase(a, b) == pytest.approx(0.0)

    def test_global_phase_blind(self):
        state = random_state(Layout(3), seed=2)
        rotated = StateVector(state.layout, np.exp(1.1j) * state.amplitudes)
        assert fidelity_up_to_global_phase(state, rotated) == pytest.approx(1.0)

    def test_layout_mismatch(self):
        with pytest.raises(ValueError):
            fidelity_up_to_global_phase(
                StateVector.zero(Layout(2)), StateVector.zero(Layout(1, ancilla_count=1))
            )


class TestCoreTables:
    """The bit-table builders against the per-state loops they replaced."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_weights_and_site_reversal(self, n):
        weights = [bin(s).count("1") for s in range(1 << n)]
        reversal = [int(format(s, f"0{n}b")[::-1], 2) for s in range(1 << n)]
        assert dynamics._core_weights(n).tolist() == weights
        assert dynamics._site_reversal(n).tolist() == reversal

    @pytest.mark.parametrize("n", range(2, 9))
    def test_block_eigensystems_bit_identical(self, n):
        # the back-rotated mode basis diagonalizes each block H_w built site by site
        energies = np.sort(np.random.default_rng(n).uniform(-4.0, 4.0, n))
        recon = reconstruct_profile(Spectrum(tuple(energies)))
        open_ends = list(christandl_profile(n).omegas)
        open_ends[0] = open_ends[-1] = 0.0
        profiles = (
            christandl_profile(n),
            recon,
            CouplingProfile(n, tuple(-w for w in recon.omegas), recon.lambdas),
            CouplingProfile(n, tuple(open_ends), recon.lambdas),
        )
        weights = dynamics._core_weights(n)
        table = dynamics._core_bits(n)
        for profile in profiles:
            mode_energies, rotations = dynamics._block_eigensystems(profile)
            for w in range(n + 1):
                idx = np.flatnonzero(weights == w)
                columns = np.zeros((1 << n, idx.size), dtype=np.complex128)
                columns[idx, np.arange(idx.size)] = 1.0
                dynamics._rotate(columns, n, rotations, back=True)
                assert np.all(columns.imag == 0) and np.all(np.delete(columns, idx, axis=0) == 0)
                evecs = columns[idx].real
                evals = table[idx] @ mode_energies
                h = np.zeros((idx.size, idx.size))
                position = {int(s): k for k, s in enumerate(idx)}
                for k, s in enumerate(idx.tolist()):
                    bits = [(s >> (n - 1 - b)) & 1 for b in range(n)]
                    h[k, k] = float(np.dot(np.asarray(profile.lambdas), bits))
                    for b in range(n - 1):
                        if bits[b] == 1 and bits[b + 1] == 0:
                            kk = position[s ^ (3 << (n - 2 - b))]
                            h[k, kk] += profile.omegas[b]
                            h[kk, k] += profile.omegas[b]
                scale = max(1.0, float(np.max(np.abs(evals))))
                assert_allclose(np.sort(evals), np.linalg.eigvalsh(h), rtol=0, atol=1e-12 * scale)
                assert np.linalg.norm(h @ evecs - evecs * evals, 2) <= 1e-12 * scale
                assert np.linalg.norm(evecs.T @ evecs - np.eye(idx.size), 2) <= 1e-13


couplings = st.one_of(st.just(0.0), st.floats(-2.0, 2.0, allow_nan=False))
fields = st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def mirror_profiles(draw):
    n = draw(st.integers(2, 7))
    omegas = [draw(couplings) for _ in range(n // 2)]
    lambdas = [draw(fields) for _ in range((n + 1) // 2)]
    return CouplingProfile(
        n, tuple(omegas + omegas[: (n - 1) // 2][::-1]), tuple(lambdas + lambdas[: n // 2][::-1])
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    profile=mirror_profiles(),
    t=st.floats(-10.0, 10.0, allow_nan=False),
    seed=st.integers(0, 2**32 - 1),
)
def test_evolve_matches_dense_propagator_on_signed_chains(profile, t, seed):
    # zero couplings decouple the chain and leave Givens rotations with nothing to zero;
    # program_unitary runs the same evolution off-period on every column
    layout = Layout(profile.n_sites, 1, 1)
    expected = np.kron(oracles.dense_propagator(profile, t), np.eye(4))
    state = random_state(layout, seed=seed)
    assert np.max(np.abs(evolve(profile, state, t).amplitudes - expected @ state.amplitudes)) <= 1e-12
    columns = program_unitary(GateProgram((FreeEvolve(t),), layout), profile)
    assert np.max(np.abs(columns - expected)) <= 1e-12
