"""QFT, Pauli-string evolution, and Trotter composition."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from corechain import (
    Layout,
    PAULI_Z,
    PauliString,
    TrotterPlan,
    UnsupportedConfigurationError,
    ancilla_pauli_program,
    axis_frame,
    cost_of_program,
    direct_pauli_program,
    program_unitary,
    qft_program,
    trotter_program,
    zero_phase_profile,
)

from corechain import dynamics, gates

import oracles


def data_positions_with_parity(program, n_data):
    layout = program.layout
    return [layout.core_position(j + 1) for j in range(1, n_data + 1)]


def extracted_unitary(program, n_data):
    profile = zero_phase_profile(program.layout.core_sites)
    full = program_unitary(program, profile)
    return oracles.data_block(full, program.layout, data_positions_with_parity(program, n_data))


class TestPauliString:
    def test_round_trip(self):
        mask = PauliString.from_string("zxiy")
        assert mask.to_string() == "zxiy"
        assert mask.involved == (1, 2, 4)

    def test_rejects_empty_axes(self):
        with pytest.raises(ValueError):
            PauliString.from_string("iii")

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            PauliString.from_string("za")


class TestAxisFrame:
    def test_all_z_empty(self):
        layout = Layout(3, ancilla_count=1)
        entering, leaving = axis_frame(PauliString.from_string("zz"), layout)
        assert entering == () and leaving == ()

    def test_x_frame_is_hadamard(self):
        layout = Layout(2, ancilla_count=1)
        _, leaving = axis_frame(PauliString.from_string("x"), layout)
        f = leaving[0].matrix
        assert_allclose(f, oracles.H, atol=1e-12)
        assert np.max(np.abs(f @ PAULI_Z @ f.conj().T - oracles.X)) <= 1e-12

    def test_y_frame_conjugation(self):
        layout = Layout(2, ancilla_count=1)
        _, leaving = axis_frame(PauliString.from_string("y"), layout)
        f = leaving[0].matrix
        assert np.max(np.abs(f @ PAULI_Z @ f.conj().T - oracles.Y)) <= 1e-12


class TestQft:
    def test_single_site_is_hadamard(self):
        program = qft_program(1)
        assert program.free_evolution_count == 0
        assert program.local_count == 1
        assert_allclose(program.instructions[0].matrix, oracles.H, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_dft_up_to_bit_reversal(self, n):
        program = qft_program(n)
        profile = zero_phase_profile(n) if n >= 2 else None
        full = program_unitary(program, profile)
        block = oracles.data_block(full, program.layout, list(range(n)))
        fixed = oracles.bit_reversal_matrix(n) @ block
        dft = oracles.dft_matrix(n)
        aligned = oracles.align_global_phase(fixed, dft)
        assert np.max(np.abs(aligned - dft)) <= 1e-8

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_finisher_gives_plain_dft(self, n):
        program = qft_program(n, include_bit_reversal=True)
        full = program_unitary(program, zero_phase_profile(n))
        block = oracles.data_block(full, program.layout, list(range(n)))
        dft = oracles.dft_matrix(n)
        aligned = oracles.align_global_phase(block, dft)
        assert np.max(np.abs(aligned - dft)) <= 1e-8

    def test_pi_phase_chain_via_corrections(self):
        from corechain import christandl_profile

        n = 4  # even-size linear chain carries mirror phase pi
        program = qft_program(n, phi_n=math.pi)
        full = program_unitary(program, christandl_profile(n))
        block = oracles.data_block(full, program.layout, list(range(n)))
        fixed = oracles.bit_reversal_matrix(n) @ block
        dft = oracles.dft_matrix(n)
        aligned = oracles.align_global_phase(fixed, dft)
        assert np.max(np.abs(aligned - dft)) <= 1e-8

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_cost_census(self, n):
        report = cost_of_program(qft_program(n), math.pi)
        assert report.free_evolutions == 4 * (n - 1)
        assert report.swaps == 2 * (n - 1)

    def test_layout_mismatch(self):
        with pytest.raises(ValueError):
            qft_program(3, layout=Layout(4, ancilla_count=1))

    def test_build_checks_each_matrix_once_and_splits_each_target_once(self):
        checks, splits = dynamics._checked_unitary, gates._split
        checks.cache_clear()
        splits.cache_clear()
        # the Hadamard, R(pi/2^k) for k = 1..11, each split's A, B and C, and one
        # alpha gate per fan: 56 at most, where checking every Local made 353
        qft_program(12)
        assert checks.cache_info().misses <= 56
        assert splits.cache_info().misses == 11  # one per distinct target, not one per target (66)
        before = checks.cache_info().misses, splits.cache_info().misses
        qft_program(12)
        assert (checks.cache_info().misses, splits.cache_info().misses) == before  # a rebuild finds every one
        splits.cache_clear()
        terms = tuple((PauliString.from_string(text), 1.0) for text in ("zzx", "xiy", "yzz"))
        trotter_program(TrotterPlan(terms, 0.1, 3))
        assert splits.cache_info().misses == 1  # every term's string gate targets Z


class TestAncillaVariant:
    def test_single_z(self):
        mask = PauliString.from_string("z")
        block = extracted_unitary(ancilla_pauli_program(mask, 0.7), 1)
        target = np.diag([np.exp(-0.7j), np.exp(0.7j)])
        assert np.max(np.abs(oracles.align_global_phase(block, target) - target)) <= 1e-8

    def test_zz_dense_oracle(self):
        import scipy.linalg

        mask = PauliString.from_string("zz")
        block = extracted_unitary(ancilla_pauli_program(mask, 0.3), 2)
        target = scipy.linalg.expm(-0.3j * oracles.pauli_string_matrix("zz"))
        assert np.max(np.abs(oracles.align_global_phase(block, target) - target)) <= 1e-8

    def test_zero_time_identity(self):
        mask = PauliString.from_string("zz")
        block = extracted_unitary(ancilla_pauli_program(mask, 0.0), 2)
        assert np.max(np.abs(block - np.eye(4))) <= 1e-8

    @pytest.mark.parametrize("text", ["z", "zz", "ziz", "zzzz"])
    def test_fixed_cost_eight_evolutions(self, text):
        program = ancilla_pauli_program(PauliString.from_string(text), 0.4)
        assert program.free_evolution_count == 8
        assert program.swap_count == 4

    def test_parity_phases_all_masks_all_inputs(self):
        """z-masks imprint exp(-i (+-1) dt) with the sign set by involved-bit parity."""
        from corechain import StateVector, execute

        dt = 0.37
        for n_data in (1, 2, 3, 4):
            profile = zero_phase_profile(n_data + 1)
            for pattern in range(1, 1 << n_data):
                text = "".join(
                    "z" if (pattern >> (n_data - 1 - j)) & 1 else "i" for j in range(n_data)
                )
                program = ancilla_pauli_program(PauliString.from_string(text), dt)
                layout = program.layout
                for s in range(1 << n_data):
                    bits = "0" + format(s, f"0{n_data}b") + "0"
                    out = execute(program, profile, StateVector.basis(layout, bits))
                    parity = bin(s & pattern).count("1") % 2
                    expected = np.exp(-1j * dt * (-1.0) ** parity)
                    index = int(bits, 2)
                    assert abs(out.amplitudes[index] - expected) <= 1e-8

    def test_mixed_axes_against_oracle(self):
        import scipy.linalg

        rng = np.random.default_rng(77)
        for _ in range(10):
            n_data = int(rng.integers(1, 5))
            axes = rng.choice(["x", "y", "z", "i"], n_data)
            if all(a == "i" for a in axes):
                axes[0] = "x"
            text = "".join(axes)
            dt = float(rng.uniform(-1.0, 1.0))
            mask = PauliString.from_string(text)
            block = extracted_unitary(ancilla_pauli_program(mask, dt), n_data)
            target = scipy.linalg.expm(-1j * dt * oracles.pauli_string_matrix(text))
            assert np.max(np.abs(oracles.align_global_phase(block, target) - target)) <= 1e-8


class TestDirectVariant:
    def test_zz(self):
        import scipy.linalg

        mask = PauliString.from_string("zz")
        block = extracted_unitary(direct_pauli_program(mask, 0.5), 2)
        target = scipy.linalg.expm(-0.5j * oracles.pauli_string_matrix("zz"))
        assert np.max(np.abs(oracles.align_global_phase(block, target) - target)) <= 1e-8

    def test_zero_time_identity(self):
        block = extracted_unitary(direct_pauli_program(PauliString.from_string("zz"), 0.0), 2)
        assert np.max(np.abs(block - np.eye(4))) <= 1e-8

    def test_census_two_evolutions_no_swap(self):
        program = direct_pauli_program(PauliString.from_string("zzz"), 0.4)
        assert program.free_evolution_count == 2
        assert program.swap_count == 0
        assert program.layout.ancilla_count == 0

    def test_rejects_partial_strings(self):
        with pytest.raises(UnsupportedConfigurationError):
            direct_pauli_program(PauliString.from_string("zi"), 0.4)

    @pytest.mark.parametrize("text", ["z", "zz", "xy", "zxz", "yzxy"])
    def test_equals_ancilla_variant(self, text):
        mask = PauliString.from_string(text)
        n_data = mask.n_sites
        direct = extracted_unitary(direct_pauli_program(mask, 0.31), n_data)
        via_ancilla = extracted_unitary(ancilla_pauli_program(mask, 0.31), n_data)
        aligned = oracles.align_global_phase(direct, via_ancilla)
        assert np.max(np.abs(aligned - via_ancilla)) <= 1e-8


class TestTrotter:
    def test_single_term_exact(self):
        import scipy.linalg

        mask = PauliString.from_string("zz")
        plan = TrotterPlan(((mask, 1.0),), dt=0.5, steps=4)
        block = extracted_unitary(trotter_program(plan), 2)
        target = scipy.linalg.expm(-2.0j * oracles.pauli_string_matrix("zz"))
        assert np.max(np.abs(oracles.align_global_phase(block, target) - target)) <= 1e-8

    def test_commuting_terms_exact(self):
        import scipy.linalg

        zz = PauliString.from_string("zz")
        zi = PauliString.from_string("zi")
        plan = TrotterPlan(((zz, 1.0), (zi, 0.5)), dt=0.25, steps=4)
        block = extracted_unitary(trotter_program(plan), 2)
        h = oracles.pauli_string_matrix("zz") + 0.5 * oracles.pauli_string_matrix("zi")
        target = scipy.linalg.expm(-1j * h * 1.0)
        assert np.max(np.abs(oracles.align_global_phase(block, target) - target)) <= 1e-7

    def test_halving_dt_halves_error(self):
        errors = _noncommuting_errors([0.1, 0.05, 0.025])
        assert errors[0] / errors[1] == pytest.approx(2.0, rel=0.5)
        assert errors[1] / errors[2] == pytest.approx(2.0, rel=0.5)

    def test_first_order_slope(self):
        dts = [0.1, 0.05, 0.02, 0.01]
        errors = _noncommuting_errors(dts)
        slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
        assert 0.9 <= slope <= 1.1

    def test_plan_validation(self):
        zz = PauliString.from_string("zz")
        with pytest.raises(ValueError):
            TrotterPlan((), dt=0.1, steps=1)
        with pytest.raises(ValueError):
            TrotterPlan(((zz, 1.0),), dt=0.0, steps=1)
        with pytest.raises(ValueError):
            TrotterPlan(((zz, 1.0), (PauliString.from_string("z"), 1.0)), dt=0.1, steps=1)


def _noncommuting_errors(dts, total=1.0):
    import scipy.linalg

    zz = PauliString.from_string("zz")
    xi = PauliString.from_string("xi")
    h = oracles.pauli_string_matrix("zz") + oracles.pauli_string_matrix("xi")
    target = scipy.linalg.expm(-1j * h * total)
    errors = []
    for dt in dts:
        steps = round(total / dt)
        plan = TrotterPlan(((zz, 1.0), (xi, 1.0)), dt=dt, steps=steps)
        block = extracted_unitary(trotter_program(plan), 2)
        errors.append(np.linalg.norm(block - target, 2))
    return errors
