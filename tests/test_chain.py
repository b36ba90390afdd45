"""Chain construction, certificates, and inverse design."""

import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from corechain import (
    CouplingProfile,
    IllConditionedError,
    InvalidProfileError,
    ReconstructionInfeasibleError,
    Spectrum,
    christandl_profile,
    mirror_certificate,
    reconstruct_profile,
    single_excitation_matrix,
    validate_profile,
    zero_phase_profile,
)

import oracles


def test_christandl_small_values():
    p2 = christandl_profile(2)
    assert_allclose(p2.omegas, [0.5])
    assert_allclose(p2.lambdas, [0.5, 0.5])
    p3 = christandl_profile(3)
    assert_allclose(p3.omegas, [0.7071067811865476, 0.7071067811865476])
    assert_allclose(p3.lambdas, [1.0, 1.0, 1.0])


@pytest.mark.parametrize("n", [2, 3, 5, 8, 12, 20])
def test_christandl_linear_spectrum(n):
    energies = single_excitation_matrix(christandl_profile(n)).eigenvalues()
    assert_allclose(energies, np.arange(n), atol=1e-10)


def test_christandl_max_coupling_quarter_n():
    profile = christandl_profile(20)
    assert max(profile.omegas) == pytest.approx(5.0)


def test_christandl_rejects_tiny():
    with pytest.raises(ValueError):
        christandl_profile(1)


def test_single_excitation_matrix_matches_dense_block():
    profile = christandl_profile(3)
    jacobi = single_excitation_matrix(profile).to_dense()
    dense = oracles.dense_hamiltonian(profile)
    # weight-1 basis indices ordered by site: |100>, |010>, |001>
    idx = [4, 2, 1]
    assert_allclose(jacobi, dense[np.ix_(idx, idx)].real, atol=1e-12)
    assert_allclose(jacobi.imag if np.iscomplexobj(jacobi) else 0.0, 0.0)


def test_single_excitation_zero_couplings():
    profile = CouplingProfile(2, (0.0,), (0.0, 0.0))
    # decoupled sites still yield a (zero) matrix, but the sign diagnostic fires
    assert np.max(np.abs(single_excitation_matrix(profile).to_dense())) == 0.0
    assert not validate_profile(profile).passed
    assert 1 in validate_profile(profile).nonpositive_omegas


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8])
def test_persymmetry(n):
    m = single_excitation_matrix(christandl_profile(n)).to_dense()
    exchange = np.eye(n)[::-1]
    assert np.max(np.abs(m - exchange @ m @ exchange)) <= 1e-12


class TestMirrorCertificate:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_christandl_sound(self, n):
        cert = mirror_certificate(christandl_profile(n), math.pi)
        assert cert.is_valid
        # top single-excitation energy N-1 sets the phase
        expected = 0.0 if (n - 1) % 2 == 0 else math.pi
        assert abs(cert.phi_n - expected) < 1e-9

    @pytest.mark.parametrize("n", range(2, 13))
    def test_zero_phase_profile_sound(self, n):
        cert = mirror_certificate(zero_phase_profile(n), math.pi)
        assert cert.is_valid
        assert abs(cert.phi_n) < 1e-9

    def test_zero_field_chain_has_pi_phase(self):
        base = christandl_profile(3)
        profile = CouplingProfile(3, base.omegas, (0.0, 0.0, 0.0))
        cert = mirror_certificate(profile, math.pi)
        assert cert.is_valid
        assert abs(cert.phi_n - math.pi) < 1e-9

    def test_uniform_chain_incommensurate(self):
        profile = CouplingProfile(4, (1.0, 1.0, 1.0), (0.0,) * 4)
        cert = mirror_certificate(profile, math.pi)
        assert cert.max_deviation > 0.1
        assert not cert.is_valid

    def test_certificate_phase_matches_dynamics(self):
        # the certified phi is the one the dense propagator realizes
        for n in (2, 3, 4):
            profile = christandl_profile(n)
            cert = mirror_certificate(profile, math.pi)
            u = oracles.dense_propagator(profile, math.pi)
            single = u[1 << (n - 1), 1]  # <10...0| U |0...01>
            assert abs(single - np.exp(-1j * cert.phi_n)) < 1e-9

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            mirror_certificate(christandl_profile(3), 0.0)


class TestValidateProfile:
    def test_christandl_passes(self):
        assert validate_profile(christandl_profile(5)).passed

    def test_mirror_violation_residual(self):
        diag = validate_profile(CouplingProfile(3, (1.0, 2.0), (0.0, 0.0, 0.0)))
        assert not diag.passed
        assert diag.mirror_residual_omega == pytest.approx(1.0)

    def test_sign_violation(self):
        diag = validate_profile(CouplingProfile(2, (-1.0,), (0.0, 0.0)))
        assert not diag.passed
        assert diag.nonpositive_omegas == (1,)

    def test_length_mismatch(self):
        diag = validate_profile(CouplingProfile(3, (1.0,), (0.0, 0.0, 0.0)))
        assert not diag.passed
        assert not diag.length_ok

    def test_never_mutates(self):
        profile = CouplingProfile(3, (1.0, 2.0), (0.5, 0.0, 0.5))
        before = (profile.omegas, profile.lambdas)
        validate_profile(profile)
        assert (profile.omegas, profile.lambdas) == before


class TestNonFiniteEntries:
    """NaN and infinite entries are named and refused before any eigensolver sees them."""

    @pytest.mark.parametrize(
        "omegas, lambdas, field, sites",
        [
            ((math.nan, math.nan), (1.0, 1.0, 1.0), "nonfinite_omegas", (1, 2)),
            ((1.0, 1.0), (math.inf, 1.0, math.inf), "nonfinite_lambdas", (1, 3)),
            ((1.0, 1.0), (0.0, math.nan, 0.0), "nonfinite_lambdas", (2,)),
            ((1.0, -math.inf), (0.0, 0.0, 0.0), "nonfinite_omegas", (2,)),
        ],
    )
    def test_diagnosed_and_refused(self, omegas, lambdas, field, sites):
        profile = CouplingProfile(3, omegas, lambdas)
        diag = validate_profile(profile)
        assert getattr(diag, field) == sites
        assert not diag.passed
        assert f"j={list(sites)}" in diag.describe()
        with pytest.raises(InvalidProfileError, match=re.escape(f"j={list(sites)}")):
            mirror_certificate(profile, math.pi)

    def test_finite_profile_reports_none(self):
        diag = validate_profile(christandl_profile(4))
        assert diag.nonfinite_omegas == diag.nonfinite_lambdas == ()

    def test_broken_mirror_is_invalid_profile_error(self):
        with pytest.raises(InvalidProfileError, match="mirror-symmetry"):
            mirror_certificate(CouplingProfile(3, (1.0, 2.0), (0.0, 0.0, 0.0)), math.pi)

    @pytest.mark.parametrize(
        "energies, sites", [((0.0, math.nan, 2.0, 3.0), [2]), ((0.0, 1.0, math.inf), [3])]
    )
    def test_spectrum_refused(self, energies, sites):
        with pytest.raises(ReconstructionInfeasibleError, match=re.escape(f"k={sites}")):
            reconstruct_profile(Spectrum(energies))


class TestReconstruction:
    def test_unit_pair(self):
        profile = reconstruct_profile(Spectrum((0.0, 1.0)))
        assert_allclose(profile.omegas, [0.5], atol=1e-10)
        assert_allclose(profile.lambdas, [0.5, 0.5], atol=1e-10)

    def test_recovers_christandl_3(self):
        profile = reconstruct_profile(Spectrum((0.0, 1.0, 2.0)))
        reference = christandl_profile(3)
        assert_allclose(profile.omegas, reference.omegas, atol=1e-8)
        assert_allclose(profile.lambdas, reference.lambdas, atol=1e-8)

    def test_degenerate_is_infeasible(self):
        with pytest.raises(ReconstructionInfeasibleError):
            reconstruct_profile(Spectrum((0.0, 0.0, 1.0)))

    def test_descending_is_infeasible(self):
        with pytest.raises(ReconstructionInfeasibleError):
            reconstruct_profile(Spectrum((1.0, 0.0)))

    def test_roundtrip_random_spectra(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            gaps = rng.uniform(0.1, 2.0, n - 1)
            energies = rng.uniform(-2.0, 2.0) + np.concatenate([[0.0], np.cumsum(gaps)])
            profile = reconstruct_profile(Spectrum(tuple(energies)))
            assert validate_profile(profile).passed
            assert all(w > 0 for w in profile.omegas)
            back = single_excitation_matrix(profile).eigenvalues()
            scale = max(1.0, float(np.max(np.abs(energies))))
            assert np.max(np.abs(back - energies)) <= 1e-8 * scale

    def test_near_degenerate_still_round_trips(self):
        # a tiny gap just produces a tiny coupling, not a failure
        energies = (0.0, 1e-13, 1.0, 2.0)
        profile = reconstruct_profile(Spectrum(energies))
        back = single_excitation_matrix(profile).eigenvalues()
        assert np.max(np.abs(back - np.array(energies))) <= 1e-8

    def test_ill_conditioned_reports_index(self):
        # an isolated far level underflows its spectral weight and starves the recurrence
        with pytest.raises(IllConditionedError) as err:
            reconstruct_profile(Spectrum((0.0, 1.0, 2.0, 1e200)))
        assert 1 <= err.value.index <= 3
