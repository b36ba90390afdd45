"""Engineered mirror-symmetric XY chains: construction, certification, inverse design.

The chain Hamiltonian is

    H = 1/2 sum_j omega_j (X_j X_{j+1} + Y_j Y_{j+1}) + sum_j lambda_j |1><1|_j

with hbar = 1 and |0> the spin-down state.  H conserves the number of up
spins, and its single-excitation block is the Jacobi matrix with the fields
lambda_j on the diagonal and the couplings omega_j off it.  Mirror symmetry
(omega_j = omega_{N-j}, lambda_j = lambda_{N-j+1}) makes that matrix
persymmetric, and a chain mirror-inverts its register after a period tau
exactly when exp(-i E_k tau) = (-1)^k exp(-i phi) for the ascending
single-excitation eigenvalues E_k and some k-independent phase phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import IllConditionedError, InvalidProfileError, ReconstructionInfeasibleError

MIRROR_TOL = 1e-12
CERTIFICATE_TOL = 1e-9


@dataclass(frozen=True)
class CouplingProfile:
    """Couplings omega_j (j = 1..N-1) and on-site fields lambda_j (j = 1..N).

    Construction is permissive so that diagnostics can be run on broken
    inputs; operations that need a well-formed mirror-symmetric profile call
    :func:`validate_profile` and reject otherwise.
    """

    n_sites: int
    omegas: tuple[float, ...]
    lambdas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "omegas", tuple(float(w) for w in self.omegas))
        object.__setattr__(self, "lambdas", tuple(float(v) for v in self.lambdas))

    def mirror_site(self, site: int) -> int:
        return self.n_sites - site + 1


@dataclass(frozen=True)
class JacobiMatrix:
    """Real symmetric tridiagonal matrix (persymmetric for valid profiles)."""

    diagonal: tuple[float, ...]
    off_diagonal: tuple[float, ...]

    def to_dense(self) -> np.ndarray:
        n = len(self.diagonal)
        m = np.zeros((n, n))
        m[np.arange(n), np.arange(n)] = self.diagonal
        idx = np.arange(n - 1)
        m[idx, idx + 1] = self.off_diagonal
        m[idx + 1, idx] = self.off_diagonal
        return m

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues."""
        return np.linalg.eigvalsh(self.to_dense())


@dataclass(frozen=True)
class Spectrum:
    """Target single-excitation energies, expected strictly increasing."""

    energies: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "energies", tuple(float(e) for e in self.energies))


@dataclass(frozen=True)
class MirrorCertificate:
    """Witness that a chain mirror-inverts after a period `tau`.

    `max_deviation` is the worst |exp(-i E_k tau) - (-1)^k exp(-i phi_n)|
    over the single-excitation spectrum; the certificate holds when it is
    below ``CERTIFICATE_TOL``.
    """

    tau: float
    phi_n: float
    max_deviation: float

    @property
    def is_valid(self) -> bool:
        return self.max_deviation <= CERTIFICATE_TOL


@dataclass(frozen=True)
class ProfileDiagnostics:
    """Result of :func:`validate_profile`; never raised, only reported."""

    length_ok: bool
    mirror_residual_omega: float
    mirror_residual_lambda: float
    nonpositive_omegas: tuple[int, ...]
    nonfinite_omegas: tuple[int, ...] = ()
    nonfinite_lambdas: tuple[int, ...] = ()

    @property
    def passed(self) -> bool:
        return (
            self.length_ok
            and not self.nonpositive_omegas
            and not self.nonfinite_omegas
            and not self.nonfinite_lambdas
            and self.mirror_residual_omega <= MIRROR_TOL
            and self.mirror_residual_lambda <= MIRROR_TOL
        )

    def describe(self) -> str:
        if self.passed:
            return "profile ok"
        problems = []
        if not self.length_ok:
            problems.append("need at least 2 sites, with n_sites - 1 couplings and n_sites fields")
        if self.nonfinite_omegas:
            problems.append(f"non-finite couplings at j={list(self.nonfinite_omegas)}")
        if self.nonfinite_lambdas:
            problems.append(f"non-finite fields at j={list(self.nonfinite_lambdas)}")
        if self.nonpositive_omegas:
            problems.append(f"nonpositive couplings at j={list(self.nonpositive_omegas)}")
        if self.mirror_residual_omega > MIRROR_TOL or self.mirror_residual_lambda > MIRROR_TOL:
            problems.append(
                "mirror-symmetry residuals "
                f"(omega {self.mirror_residual_omega:.3g}, lambda {self.mirror_residual_lambda:.3g})"
            )
        return "; ".join(problems)


def christandl_profile(n_sites: int) -> CouplingProfile:
    """Coupling family omega_j = sqrt(j(N-j))/2 with uniform field (N-1)/2.

    The single-excitation spectrum is exactly {0, 1, ..., N-1}, so the chain
    mirror-inverts at tau = pi.  The mirror phase is (N-1) pi mod 2 pi: zero
    for odd N, pi for even N (see :func:`zero_phase_profile`).
    """
    if n_sites < 2:
        raise ValueError(f"need at least 2 sites, got {n_sites}")
    n = n_sites
    omegas = tuple(math.sqrt(j * (n - j)) / 2.0 for j in range(1, n))
    lambdas = ((n - 1) / 2.0,) * n
    return CouplingProfile(n, omegas, lambdas)


def zero_phase_profile(n_sites: int) -> CouplingProfile:
    """Linear-spectrum chain whose mirror phase vanishes at tau = pi.

    Same couplings as :func:`christandl_profile`; for even N the uniform
    field is raised by one so the topmost single-excitation energy is even,
    which is what sets the global mirror phase.
    """
    profile = christandl_profile(n_sites)
    if n_sites % 2 == 0:
        profile = CouplingProfile(
            n_sites, profile.omegas, tuple(v + 1.0 for v in profile.lambdas)
        )
    return profile


def validate_profile(profile: CouplingProfile) -> ProfileDiagnostics:
    """Diagnose lengths, finiteness, sign convention, and mirror symmetry.  Pure."""
    n = profile.n_sites
    length_ok = n >= 2 and len(profile.omegas) == n - 1 and len(profile.lambdas) == n
    if not length_ok:
        return ProfileDiagnostics(False, math.nan, math.nan, ())
    om = np.asarray(profile.omegas)
    lam = np.asarray(profile.lambdas)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN; the entry is reported on its own
        res_om = float(np.max(np.abs(om - om[::-1]))) if n > 1 else 0.0
        res_lam = float(np.max(np.abs(lam - lam[::-1])))
    bad_signs = tuple(int(j) for j in range(1, n) if profile.omegas[j - 1] <= 0.0)
    return ProfileDiagnostics(
        True, res_om, res_lam, bad_signs, _nonfinite_sites(om), _nonfinite_sites(lam)
    )


def _nonfinite_sites(values: np.ndarray) -> tuple[int, ...]:
    """1-based indices of the NaN or infinite entries."""
    return tuple(int(j) + 1 for j in np.nonzero(~np.isfinite(values))[0])


def require_valid_profile(profile: CouplingProfile) -> None:
    """Reject structurally broken profiles: lengths, non-finite entries, mirror symmetry.

    Sign violations are left to :func:`validate_profile`: a zero or negative
    coupling still defines a Hermitian chain, it just breaks the design-side
    uniqueness convention.  Raises :class:`InvalidProfileError`.
    """
    diag = validate_profile(profile)
    if not replace(diag, nonpositive_omegas=()).passed:
        raise InvalidProfileError(f"invalid coupling profile: {diag.describe()}")


def single_excitation_matrix(profile: CouplingProfile) -> JacobiMatrix:
    """Restriction of the chain Hamiltonian to Hamming-weight-1 states.

    Diagonal lambda_j, off-diagonal omega_j, sites ordered by index.
    """
    require_valid_profile(profile)
    return JacobiMatrix(profile.lambdas, profile.omegas)


def mirror_certificate(profile: CouplingProfile, tau: float) -> MirrorCertificate:
    """Certify exp(-i E_k tau) = (-1)^k exp(-i phi) on the given chain.

    The alternating signs are anchored at the topmost eigenvalue (k = 0 at
    the top): with positive couplings the top eigenvector is the
    mirror-symmetric one, so this phi is exactly the global phase the
    closed-form mirror map acquires.  phi is mapped to (-pi, pi].  An
    incommensurate spectrum never raises; it simply reports a large
    deviation.
    """
    if not 0 < tau < math.inf:  # also refuses NaN
        raise ValueError(f"tau must be positive and finite, got {tau}")
    energies = single_excitation_matrix(profile).eigenvalues()[::-1]  # descending
    if not math.isfinite(float(np.max(np.abs(energies))) * tau):
        raise ValueError(f"tau={tau} overflows the mode phases E_k tau")
    phi = math.remainder(energies[0] * tau, 2.0 * math.pi)
    if phi < -math.pi + 1e-12:  # canonicalize the -pi/+pi boundary
        phi += 2.0 * math.pi
    if abs(phi) < 1e-12:  # numerically zero phases stay exactly zero
        phi = 0.0
    signs = (-1.0) ** np.arange(len(energies))
    deviation = np.abs(np.exp(-1j * energies * tau) - signs * np.exp(-1j * phi))
    return MirrorCertificate(float(tau), float(phi), float(np.max(deviation)))


def mirror_is_closed_form(profile: CouplingProfile, certificate: MirrorCertificate) -> bool:
    """Whether exp(-i H tau) is the closed-form mirror map with phase `certificate.phi_n`.

    The certificate must hold and every coupling must be positive: the phase
    is anchored at the top single-excitation eigenvector, which is the
    mirror-symmetric one only for positive couplings.  A mirror-symmetric
    chain with a negative coupling can pass the certificate and still evolve
    to a different image.
    """
    return certificate.is_valid and min(profile.omegas) > 0.0


def reconstruct_profile(spectrum: Spectrum) -> CouplingProfile:
    """Design the unique mirror-symmetric chain with the given spectrum.

    A persymmetric Jacobi matrix with positive off-diagonals is determined
    by its (necessarily simple) spectrum alone: the squared first components
    of its eigenvectors are proportional to 1/|p'(E_k)| with p the
    characteristic polynomial.  Running the three-term recurrence of the
    polynomials orthogonal under those weights (a Lanczos sweep against
    diag(E), fully reorthogonalized) recovers the matrix entries.
    """
    energies = np.asarray(spectrum.energies, dtype=float)
    n = energies.size
    if n < 2:
        raise ValueError(f"need at least 2 energies, got {n}")
    nonfinite = _nonfinite_sites(energies)
    if nonfinite:
        raise ReconstructionInfeasibleError(
            f"spectrum has non-finite energies at k={list(nonfinite)}"
        )
    if np.any(np.diff(energies) <= 0.0):
        raise ReconstructionInfeasibleError(
            "spectrum must be strictly increasing: chains with positive "
            "couplings have simple single-excitation spectra"
        )

    diffs = energies[:, None] - energies[None, :]
    np.fill_diagonal(diffs, 1.0)
    log_pprime = np.sum(np.log(np.abs(diffs)), axis=1)
    weights = np.exp(-(log_pprime - log_pprime.min()))  # largest weight is 1
    weights /= weights.sum()

    scale = max(1.0, float(np.max(np.abs(energies))))
    breakdown = 1e-12 * scale
    q = np.sqrt(weights)
    basis = np.zeros((n, n))
    alphas = np.zeros(n)
    betas = np.zeros(n - 1)
    for j in range(n):
        basis[:, j] = q
        r = energies * q
        alphas[j] = q @ r
        r = r - alphas[j] * q
        if j > 0:
            r = r - betas[j - 1] * basis[:, j - 1]
        # reorthogonalize twice against everything built so far
        for _ in range(2):
            r = r - basis[:, : j + 1] @ (basis[:, : j + 1].T @ r)
        if j == n - 1:
            break
        beta = float(np.linalg.norm(r))
        if beta <= breakdown:
            raise IllConditionedError(
                f"recurrence broke down at coupling index {j + 1} (norm {beta:.3g})",
                index=j + 1,
            )
        betas[j] = beta
        q = r / beta

    # persymmetry holds in exact arithmetic; enforce it against round-off
    omegas = 0.5 * (betas + betas[::-1])
    lambdas = 0.5 * (alphas + alphas[::-1])
    return CouplingProfile(n, tuple(omegas), tuple(lambdas))
