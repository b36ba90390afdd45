"""Cost accounting and robustness: always-on core versus a fully-switched baseline.

The switched baseline has the same chain geometry but with each pairwise
coupling independently switchable; only disjoint pairs may be on at once,
non-adjacent two-qubit gates are routed by nearest-neighbour swap chains,
and one contiguous on-interval of a single coupling counts as exactly one
switching event.  A pairwise primitive at strength w takes time pi/(2 w).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .chain import CouplingProfile, mirror_certificate, mirror_is_closed_form, require_valid_profile
# unused here, `evolve` stays bound: benchmarks/tracing.py wraps analysis.evolve
from .dynamics import StateVector, evolution_overlaps, evolve, mirror_map  # noqa: F401
from .errors import InsufficientDataError, InvalidCertificateError
from .gates import GateProgram


@dataclass(frozen=True)
class CostReport:
    """Instruction census of a core program, optionally with a switched baseline."""

    free_evolutions: int
    swaps: int
    local_ops: int
    switch_events: int = 0
    core_time: float = 0.0
    switched_time: float = 0.0

    def __post_init__(self):
        if min(self.free_evolutions, self.swaps, self.local_ops, self.switch_events) < 0:
            raise ValueError("counts must be nonnegative")

    @property
    def core_switch_events(self) -> int:
        """Evolution starts plus swaps: the core-side analogue of switching."""
        return self.free_evolutions + self.swaps


def cost_of_program(program: GateProgram, tau: float) -> CostReport:
    """Exact instruction census; core time is tau per free evolution."""
    if not 0 < tau < math.inf:  # also refuses NaN
        raise ValueError(f"tau must be positive and finite, got {tau}")
    free = program.free_evolution_count
    return CostReport(free, program.swap_count, program.local_count, core_time=tau * free)


@dataclass(frozen=True)
class TransferTimeReport:
    """End-to-end state-transfer time on the switched baseline."""

    total_time: float
    lower_bound: float  # (N-1) pi / (2 max_j omega_j)


def switched_transfer_time(profile: CouplingProfile) -> TransferTimeReport:
    """Sequential swap-chain transfer time sum_j pi/(2 omega_j).

    Overlapping pairs cannot run at once, so each hop completes before the
    next starts; the total is bounded below by (N-1) pi/(2 omega_max).  The
    always-on chain covers the same transfer in one period, which for a
    linear-spectrum chain with omega_max ~ N/4 approaches half the switched
    time at large N.
    """
    require_valid_profile(profile)
    if any(w <= 0 for w in profile.omegas):
        raise ValueError("transfer time needs strictly positive couplings")
    total = sum(math.pi / (2.0 * w) for w in profile.omegas)
    bound = (profile.n_sites - 1) * math.pi / (2.0 * max(profile.omegas))
    return TransferTimeReport(total, bound)


def _switched_qft_schedule(n: int) -> tuple[int, int, int]:
    """Enumerate the switched QFT schedule: (swap events, phase events, depth).

    Brick pattern: alternating layers of disjoint adjacent transpositions
    walk every lighter-indexed qubit rightward past every heavier one, so
    each of the C(n,2) control/target pairs meets exactly once; its
    controlled phase is applied at the meeting (one extra on-interval) and
    the crossing swap is one more.  Depth counts layers, phases included.
    """
    order = list(range(n))
    swap_events = 0
    phase_events = 0
    depth = 0
    moved = True
    while moved:
        moved = False
        for start in (0, 1):
            layer_used = False
            for p in range(start, n - 1, 2):
                if order[p] < order[p + 1]:
                    phase_events += 1  # controlled phase between the meeting pair
                    order[p], order[p + 1] = order[p + 1], order[p]
                    swap_events += 1
                    layer_used = True
                    moved = True
            if layer_used:
                depth += 2  # phase layer followed by swap layer
    return swap_events, phase_events, depth


def qft_core_census(n: int) -> CostReport:
    """Closed-form census of the core QFT program.

    One controlled phase fan per control site x costs 4 evolutions, 2 swaps,
    3 locals per target plus the control phase; n Hadamards on top.  The
    formula is pinned to the program builder by tests at executable sizes,
    and lets cost sweeps run past the dense-simulation qubit cap.
    """
    if n < 1:
        raise ValueError(f"need at least 1 qubit, got {n}")
    locals_ = n + sum(3 * (n - x) + 1 for x in range(1, n))
    return CostReport(
        free_evolutions=4 * (n - 1),
        swaps=2 * (n - 1),
        local_ops=locals_,
        core_time=math.pi * 4 * (n - 1),
    )


def switched_qft_cost(n: int) -> CostReport:
    """Compare the QFT on the core against the fully-switched baseline.

    Core side: the program census (4(n-1) evolutions, 2(n-1) swaps).
    Switched side: `switch_events` from the enumerated brick schedule, which
    grows as n(n-1); the core's evolution-plus-swap count grows linearly.
    Times take omega_max = n/4 for the switched baseline, matching the
    linear-spectrum chain's strongest coupling.
    """
    swap_events, phase_events, depth = _switched_qft_schedule(n)
    interval = math.pi / (2.0 * (n / 4.0)) if n > 1 else 0.0
    return replace(
        qft_core_census(n), switch_events=swap_events + phase_events, switched_time=depth * interval
    )


def quadratic_fit_residual(ns, events) -> tuple[float, float]:
    """Least-squares c for events ~ c n^2 and the relative L2 fit residual."""
    ns = np.asarray(ns, dtype=float)
    events = np.asarray(events, dtype=float)
    coeff = float(np.sum(events * ns**2) / np.sum(ns**4))
    residual = float(np.linalg.norm(events - coeff * ns**2) / np.linalg.norm(events))
    return coeff, residual


@dataclass(frozen=True)
class ConcatCost:
    """Code-concatenation arithmetic for syndrome extraction circuits."""

    levels: int
    targets_per_gate: int
    controlled_gate_count: int
    switched_elementary_ops: int


def steane_concat_cost(levels: int) -> ConcatCost:
    """Concatenating a 7-qubit code multiplies targets, not gate applications.

    Syndrome measurement needs six controlled multi-target gates; each
    concatenation level multiplies the targets per gate by 7 while the count
    of such gates stays six.  A fully-switched realization pays per target,
    so its elementary-operation count grows 7-fold per level.
    """
    if levels < 0:
        raise ValueError(f"levels must be nonnegative, got {levels}")
    targets = 7**levels
    return ConcatCost(
        levels=levels,
        targets_per_gate=targets,
        controlled_gate_count=6,
        switched_elementary_ops=6 * targets,
    )


def timing_error(
    profile: CouplingProfile, state: StateVector, tau: float, phi_n: float, delta_t: float
) -> float:
    """Infidelity 1 - |<ideal | evolved(tau + delta_t)>|^2 of one mirror period.

    The ideal image is the closed-form mirror of `state`, so (profile, tau)
    needs a valid mirror certificate and positive couplings.  The result
    vanishes quadratically in delta_t because the leading correction is the
    energy variance of the state.
    """
    return _timing_errors(profile, state, tau, phi_n, [delta_t])[0]


def _timing_errors(profile, state, tau, phi_n, delta_ts) -> list[float]:
    """`timing_error` at every delta_t, from one certificate and one mode transform."""
    certificate = mirror_certificate(profile, tau)
    if not mirror_is_closed_form(profile, certificate):
        raise InvalidCertificateError(
            f"no closed-form mirror at tau={tau}: certificate deviation "
            f"{certificate.max_deviation:.3g}, smallest coupling {min(profile.omegas):.3g}"
        )
    ideal = mirror_map(state, phi_n)
    overlaps = evolution_overlaps(profile, ideal, state, [tau + dt for dt in delta_ts])
    return [max(0.0, 1.0 - float(abs(a)) ** 2) for a in overlaps]


@dataclass(frozen=True)
class RobustnessReport:
    delta_ts: tuple[float, ...]
    errors: tuple[float, ...]
    fitted_order: float


def robustness_fit(
    profile: CouplingProfile, state: StateVector, tau: float, phi_n: float, delta_ts
) -> RobustnessReport:
    """Log-log slope of the timing error over a delta_t sweep.

    Needs at least three samples spanning a decade, all at most 0.1.
    Samples with error below 1e-14 are excluded as numerically empty; if
    fewer than three remain the fit is refused.
    """
    dts = [float(dt) for dt in delta_ts]
    if len(dts) < 3:
        raise ValueError("need at least 3 delta_t samples")
    bad = [dt for dt in dts if not 0 < dt <= 0.1 + 1e-12]  # NaN fails every comparison
    if bad:
        raise ValueError(f"delta_t samples must be positive, finite and at most 1e-1, got {bad[0]}")
    if max(dts) / min(dts) < 10.0 - 1e-9:
        raise ValueError("delta_t samples must span at least a decade")

    errors = _timing_errors(profile, state, tau, phi_n, dts)
    kept = [(dt, e) for dt, e in zip(dts, errors) if e >= 1e-14]
    if len(kept) < 3:
        raise InsufficientDataError(
            f"only {len(kept)} usable samples after excluding vanishing errors"
        )
    log_dt = np.log([dt for dt, _ in kept])
    log_e = np.log([e for _, e in kept])
    slope = float(np.polyfit(log_dt, log_e, 1)[0])
    return RobustnessReport(tuple(dts), tuple(errors), slope)
