"""Cost model, concatenation arithmetic, and timing-error robustness."""

import math

import numpy as np
import pytest

from corechain import (
    CostReport,
    CouplingProfile,
    GateProgram,
    InsufficientDataError,
    InvalidCertificateError,
    Layout,
    NonFiniteTimeError,
    PAULI_X,
    StateVector,
    TargetSpec,
    christandl_profile,
    controlled_unitary_program,
    cost_of_program,
    mirror_certificate,
    mirror_map,
    qft_core_census,
    qft_program,
    quadratic_fit_residual,
    random_state,
    reconstruct_profile,
    robustness_fit,
    steane_concat_cost,
    switched_qft_cost,
    switched_transfer_time,
    timing_error,
    zero_phase_profile,
    Spectrum,
)

import oracles


class TestCostOfProgram:
    def test_empty_program(self):
        report = cost_of_program(GateProgram((), Layout(2, ancilla_count=1)), math.pi)
        assert (report.free_evolutions, report.swaps, report.local_ops) == (0, 0, 0)
        assert report.core_time == 0.0

    @pytest.mark.parametrize("n", range(2, 9))
    def test_controlled_gate_is_size_independent(self, n):
        layout = Layout(n, ancilla_count=1)
        program = controlled_unitary_program(TargetSpec(1, {n: PAULI_X}), layout)
        report = cost_of_program(program, math.pi)
        assert report.free_evolutions == 4
        assert report.swaps == 2
        assert report.core_time == pytest.approx(4 * math.pi)

    def test_report_refuses_a_negative_count(self):
        with pytest.raises(ValueError, match="counts must be nonnegative"):
            CostReport(4, -1, 7)

    def test_refuses_core_time_that_overflows(self):
        program = qft_program(3)  # 8 free evolutions
        assert cost_of_program(program, 1e307).core_time == 8e307
        with pytest.raises(NonFiniteTimeError, match=r"got 1e\+308 \* 8"):
            cost_of_program(program, 1e308)


class TestTransferTime:
    def test_two_sites(self):
        report = switched_transfer_time(christandl_profile(2))
        assert report.total_time == pytest.approx(math.pi)
        assert report.lower_bound == pytest.approx(math.pi)

    def test_four_sites(self):
        # omegas are (sqrt(3)/2, 1, sqrt(3)/2): total = 2 pi/sqrt(3) + pi/2
        report = switched_transfer_time(christandl_profile(4))
        assert report.total_time == pytest.approx(2 * math.pi / math.sqrt(3) + math.pi / 2)
        assert report.total_time == pytest.approx(5.198395, abs=1e-5)
        assert report.lower_bound == pytest.approx(3 * math.pi / 2)
        assert report.total_time >= report.lower_bound

    def test_ratio_grows_towards_advantage(self):
        ratio40 = switched_transfer_time(christandl_profile(40)).total_time / math.pi
        assert ratio40 >= 1.9

    @pytest.mark.parametrize("n", [2, 5, 9, 12])
    def test_bound_holds_generally(self, n):
        rng = np.random.default_rng(n)
        gaps = rng.uniform(0.1, 2.0, n - 1)
        profile = reconstruct_profile(Spectrum(tuple(np.concatenate([[0.0], np.cumsum(gaps)]))))
        report = switched_transfer_time(profile)
        assert report.total_time >= report.lower_bound - 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            switched_transfer_time(CouplingProfile(2, (-0.5,), (0.0, 0.0)))


class TestSwitchedQft:
    def test_two_qubits_small(self):
        report = switched_qft_cost(2)
        assert report.switch_events == 2  # one phase interval, one crossing swap

    def test_enumerated_counts(self):
        # brick schedule: C(n,2) swaps + C(n,2) phase intervals
        for n in (2, 4, 8, 16):
            assert switched_qft_cost(n).switch_events == n * (n - 1)

    def test_closed_forms_match_enumeration(self):
        for n in range(1, 201):
            swaps, phases, depth = oracles.switched_qft_schedule(n)
            report = switched_qft_cost(n)
            assert report.switch_events == swaps + phases
            assert report.switched_time == depth * (math.pi / (2.0 * (n / 4.0)) if n > 1 else 0.0)
            assert qft_core_census(n).local_ops == n + sum(3 * (n - x) + 1 for x in range(1, n))

    def test_quadratic_vs_linear_growth(self):
        e4 = switched_qft_cost(4)
        e8 = switched_qft_cost(8)
        assert e8.switch_events / e4.switch_events == pytest.approx(56 / 12)
        assert e8.core_switch_events / e4.core_switch_events == pytest.approx(42 / 18)

    def test_quadratic_fit(self):
        ns = range(4, 17)
        events = [switched_qft_cost(n).switch_events for n in ns]
        _, residual = quadratic_fit_residual(list(ns), events)
        assert residual <= 0.10

    def test_core_side_census(self):
        report = switched_qft_cost(6)
        assert report.free_evolutions == 4 * 5
        assert report.swaps == 2 * 5
        assert report.core_switch_events == 6 * 5

    @pytest.mark.parametrize("n", [15 * 10**306, 10**309, 10**5000], ids=["1.5e307", "1e309", "1e5000"])
    def test_times_that_overflow_are_refused(self, n):
        # past 1.4e307 the core time 4 pi (n - 1) is no float; past 1.8e308 n itself is none
        for cost in (qft_core_census, switched_qft_cost):
            with pytest.raises(NonFiniteTimeError, match="the core time"):
                cost(n)
        assert math.isfinite(switched_qft_cost(14 * 10**306).core_time)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_census_formula_matches_builder(self, n):
        built = cost_of_program(qft_program(n), math.pi)
        formula = qft_core_census(n)
        assert (formula.free_evolutions, formula.swaps, formula.local_ops) == (
            built.free_evolutions,
            built.swaps,
            built.local_ops,
        )


class TestConcatenation:
    def test_level_zero(self):
        cost = steane_concat_cost(0)
        assert cost.targets_per_gate == 1
        assert cost.controlled_gate_count == 6

    def test_level_two(self):
        cost = steane_concat_cost(2)
        assert cost.targets_per_gate == 49
        assert cost.controlled_gate_count == 6

    def test_switched_sevenfold(self):
        for level in range(5):
            a = steane_concat_cost(level)
            b = steane_concat_cost(level + 1)
            assert b.switched_elementary_ops == 7 * a.switched_elementary_ops
            assert b.targets_per_gate == 7 * a.targets_per_gate

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            steane_concat_cost(-1)


class TestTimingError:
    def test_zero_at_zero(self):
        profile = christandl_profile(4)
        cert = mirror_certificate(profile, math.pi)
        state = random_state(Layout(4), seed=0)
        assert timing_error(profile, state, math.pi, cert.phi_n, 0.0) <= 1e-12

    def test_quadratic_ratio(self):
        profile = christandl_profile(4)
        cert = mirror_certificate(profile, math.pi)
        state = random_state(Layout(4), seed=3, core_weight=3)
        e1 = timing_error(profile, state, math.pi, cert.phi_n, 1e-2)
        e2 = timing_error(profile, state, math.pi, cert.phi_n, 5e-3)
        assert e1 / e2 == pytest.approx(4.0, rel=0.1)

    def test_basis_state_still_quadratic(self):
        profile = christandl_profile(4)
        cert = mirror_certificate(profile, math.pi)
        state = StateVector.basis(Layout(4), "1000")
        report = robustness_fit(
            profile, state, math.pi, cert.phi_n, [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
        )
        assert 1.9 <= report.fitted_order <= 2.1

    def test_invalid_certificate_refused(self):
        profile = CouplingProfile(4, (1.0, 1.0, 1.0), (0.0,) * 4)
        with pytest.raises(InvalidCertificateError):
            timing_error(profile, random_state(Layout(4), seed=1), math.pi, 0.0, 1e-2)

    def test_negative_couplings_refused(self):
        # the certificate holds (the spectrum is unchanged), but the closed-form image does not
        base = zero_phase_profile(4)
        profile = CouplingProfile(4, tuple(-w for w in base.omegas), base.lambdas)
        assert mirror_certificate(profile, math.pi).is_valid
        with pytest.raises(InvalidCertificateError, match="smallest coupling"):
            timing_error(profile, random_state(Layout(4), seed=1), math.pi, 0.0, 1e-3)

    def test_phase_must_match_certificate(self):
        profile = christandl_profile(4)  # the certificate's phi_n is pi
        state = random_state(Layout(4), seed=1)
        for phi_n in (0.0, math.pi / 2, math.nan, math.inf):
            with pytest.raises(InvalidCertificateError, match=r"phi_n=\S+ contradicts .* phi_n=3.14159"):
                robustness_fit(profile, state, math.pi, phi_n, [1e-1, 1e-2, 1e-3])
        # the same phase on the unit circle is accepted
        for phi_n in (-math.pi, 3 * math.pi):
            report = robustness_fit(profile, state, math.pi, phi_n, [1e-1, 1e-2, 1e-3])
            assert 1.9 <= report.fitted_order <= 2.1

    def test_global_phase_invariance(self):
        profile = christandl_profile(4)
        cert = mirror_certificate(profile, math.pi)
        state = random_state(Layout(4), seed=5)
        rotated = StateVector(state.layout, np.exp(0.83j) * state.amplitudes)
        a = timing_error(profile, state, math.pi, cert.phi_n, 3e-2)
        b = timing_error(profile, rotated, math.pi, cert.phi_n, 3e-2)
        assert a == pytest.approx(b, rel=1e-9)

    def test_mirror_relabel_invariance(self):
        profile = christandl_profile(4)
        cert = mirror_certificate(profile, math.pi)
        state = random_state(Layout(4), seed=6)
        relabeled = StateVector(
            state.layout, mirror_map(state, 0.0).amplitudes
        )
        a = timing_error(profile, state, math.pi, cert.phi_n, 3e-2)
        b = timing_error(profile, relabeled, math.pi, cert.phi_n, 3e-2)
        assert a == pytest.approx(b, rel=1e-9)


class TestRobustnessFit:
    @pytest.mark.parametrize("n", [4, 5])
    def test_random_state_order_two(self, n):
        profile = christandl_profile(n)
        cert = mirror_certificate(profile, math.pi)
        state = random_state(Layout(n), seed=11)
        report = robustness_fit(profile, state, math.pi, cert.phi_n, [1e-1, 1e-2, 1e-3])
        assert 1.9 <= report.fitted_order <= 2.1

    def test_vacuum_insufficient(self):
        profile = christandl_profile(4)
        cert = mirror_certificate(profile, math.pi)
        state = StateVector.zero(Layout(4))
        with pytest.raises(InsufficientDataError):
            robustness_fit(profile, state, math.pi, cert.phi_n, [1e-1, 1e-2, 1e-3])

    def test_scaled_chain_same_order(self):
        base = christandl_profile(4)
        profile = CouplingProfile(
            4, tuple(2 * w for w in base.omegas), tuple(2 * v for v in base.lambdas)
        )
        tau = math.pi / 2
        cert = mirror_certificate(profile, tau)
        assert cert.is_valid
        state = random_state(Layout(4), seed=12)
        report = robustness_fit(profile, state, tau, cert.phi_n, [1e-1, 1e-2, 1e-3])
        assert 1.9 <= report.fitted_order <= 2.1

    def test_validation(self):
        profile = christandl_profile(4)
        state = random_state(Layout(4), seed=1)
        with pytest.raises(ValueError):
            robustness_fit(profile, state, math.pi, 0.0, [1e-1, 1e-2])  # too few
        with pytest.raises(ValueError):
            robustness_fit(profile, state, math.pi, 0.0, [0.5, 0.05, 0.005])  # too large
        with pytest.raises(ValueError):
            robustness_fit(profile, state, math.pi, 0.0, [1e-1, 9e-2, 8e-2])  # no decade

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nonfinite_delta_t(self, bad):
        profile = christandl_profile(4)
        state = random_state(Layout(4), seed=1)
        with pytest.raises(ValueError, match=f"delta_t samples must be positive, finite.* got {bad}"):
            robustness_fit(profile, state, math.pi, 0.0, [1e-1, bad, 1e-3])

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_errors_match_dense_oracle(self, n):
        # odd gaps certify the chain at pi, with a non-zero mirror phase and non-uniform fields
        rng = np.random.default_rng(n)
        energies = rng.uniform(-3.0, 3.0) + np.concatenate([[0], np.cumsum(rng.choice([1, 3], n - 1))])
        profile = reconstruct_profile(Spectrum(tuple(energies)))
        cert = mirror_certificate(profile, math.pi)
        assert cert.is_valid
        state = random_state(Layout(n), seed=n)
        dts = [1e-1, 3e-2, 1e-2, 1e-3]
        report = robustness_fit(profile, state, math.pi, cert.phi_n, dts)
        image = mirror_map(state, cert.phi_n).amplitudes
        expected = [
            1.0 - abs(np.vdot(image, oracles.dense_propagator(profile, math.pi + dt) @ state.amplitudes)) ** 2
            for dt in dts
        ]
        np.testing.assert_allclose(report.errors, expected, rtol=1e-9, atol=1e-14)
