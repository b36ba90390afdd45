"""Command-line front end: design chains, certify them, run programs and studies.

Subcommands: design, verify, evolve, gate, qft, hamsim, cost, robustness.
Outputs are deterministic for a fixed configuration (fixed-precision floats,
seeded randomness); JSON artifacts carry a "schema": "1" field.  Exit codes:
0 success, 1 failed check or refused computation, 2 usage error.  Failure
paths print a single `error: ...` line on stderr.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import analysis, applications, chain, dynamics, gates, serialize
from .errors import InvalidCertificateError

SCHEMA = "1"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line diagnostics, exit code 2
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return serialize.loads(fh.read())


def _profile_from_args(args) -> chain.CouplingProfile:
    if getattr(args, "christandl", None) is not None:
        return chain.christandl_profile(args.christandl)
    return serialize.profile_from_dict(_load_json(args.profile))


def _certificate_line(certificate: chain.MirrorCertificate) -> str:
    status = "valid" if certificate.is_valid else "invalid"
    return (
        f"certificate: {status}, phi_n={certificate.phi_n:.12g}, "
        f"max_deviation={certificate.max_deviation:.3e}, tau={certificate.tau:.12g}"
    )


def _with_schema(payload: dict) -> dict:
    return {"schema": SCHEMA, **payload}


def _emit_json(out, payload: dict) -> None:
    """Write the schema-marked payload to `out`, or print it when no file is given."""
    if out:
        serialize.write_json(out, _with_schema(payload))
    else:
        print(serialize.dumps(_with_schema(payload)))


def _write_program(out, program: gates.GateProgram) -> None:
    """Write the schema-marked program to `out`, if a file is given."""
    if out:
        serialize.write_json(out, _with_schema(serialize.program_to_dict(program)))


def _align_phase(actual: np.ndarray, target: np.ndarray) -> np.ndarray:
    flat = np.argmax(np.abs(target))
    pivot = actual.reshape(-1)[flat]
    if abs(pivot) < 1e-12:
        return actual
    reference = target.reshape(-1)[flat]
    return actual * (reference / abs(reference)) * (abs(pivot) / pivot)


def _restricted_unitary(full: np.ndarray, layout: dynamics.Layout, data_positions):
    """Block of `full` on the data positions, all other qubits held in |0>."""
    weights = 1 << (layout.total_qubits - 1 - np.asarray(data_positions))
    indices = dynamics._core_bits(len(data_positions)) @ weights
    return full[np.ix_(indices, indices)]


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_design(args) -> int:
    if (args.christandl is None) == (args.spectrum is None):
        print("error: design needs exactly one of --christandl or --spectrum", file=sys.stderr)
        return 2
    if args.christandl is not None:
        profile = chain.christandl_profile(args.christandl)
    else:
        spectrum = serialize.spectrum_from_dict(_load_json(args.spectrum))
        profile = chain.reconstruct_profile(spectrum)
    certificate = chain.mirror_certificate(profile, args.tau)
    _emit_json(args.out, serialize.profile_to_dict(profile))
    print(_certificate_line(certificate))
    return 0


def _cmd_verify(args) -> int:
    profile = _profile_from_args(args)
    certificate = chain.mirror_certificate(profile, args.tau)
    if args.out:
        serialize.write_json(args.out, _with_schema(serialize.certificate_to_dict(certificate)))
    print(_certificate_line(certificate))
    return 0 if certificate.is_valid else 1


def _cmd_evolve(args) -> int:
    profile = _profile_from_args(args)
    if (args.basis is None) == (args.state is None):
        print("error: evolve needs exactly one of --basis or --state", file=sys.stderr)
        return 2
    if args.state:
        state = serialize.state_from_dict(_load_json(args.state))
    else:
        layout = dynamics.Layout(profile.n_sites)
        state = dynamics.StateVector.basis(layout, args.basis)
    result = dynamics.evolve(profile, state, args.t)
    _emit_json(args.out, serialize.state_to_dict(result))
    return 0


def _print_amplitudes(state: dynamics.StateVector) -> None:
    total = state.layout.total_qubits
    for index in np.nonzero(np.abs(state.amplitudes) > 1e-12)[0]:
        amp = state.amplitudes[index]
        print(f"|{index:0{total}b}>  {amp.real:+.12f}{amp.imag:+.12f}j")


def _cmd_gate(args) -> int:
    profile = _profile_from_args(args)
    n = profile.n_sites
    layout = dynamics.Layout(n, ancilla_count=1)
    tau = args.tau
    simulate = args.run or args.kind == "cat"
    if simulate or args.kind == "w":
        certificate = chain.mirror_certificate(profile, tau)
        if simulate and not certificate.is_valid:
            raise InvalidCertificateError(
                f"gate simulates only certified chains; none at tau={tau:.12g} "
                f"(max_deviation={certificate.max_deviation:.3e})"
            )
    if args.kind == "cat":
        # theta = phi = 0 reflections are X on every site after the control
        reflections = {site: (0.0, 0.0) for site in range(2, n + 1)}
        program = gates.controlled_reflection_program(1, reflections, layout, tau, certificate.phi_n)
        plus = dynamics.apply_local(dynamics.StateVector.zero(layout), 0, gates.HADAMARD)
        final = gates.execute(program, profile, plus)
        ideal = np.zeros(layout.dim, dtype=np.complex128)
        # |00...0>|0> + |01...1>|1>: site 1 emptied, the control's half on the ancilla
        ideal[[0, (1 << n) - 1]] = 1 / math.sqrt(2)
        fidelity = dynamics.fidelity_up_to_global_phase(
            dynamics.StateVector(layout, ideal), final
        )
        print(f"cat fidelity: {fidelity:.12f}")
    elif args.kind == "z":
        program = gates.controlled_z_program(args.x, layout, tau)
    else:  # kind == "w": one phase gate on every non-control site
        targets = {
            site: gates.phase_gate(args.phase) for site in range(1, n + 1) if site != args.x
        }
        program = gates.controlled_unitary_program(
            gates.TargetSpec(args.x, targets), layout, tau, phi_n=certificate.phi_n
        )
    _write_program(args.out, program)
    if args.run and args.kind != "cat":
        bits = args.input if args.input else "0" * layout.total_qubits
        state = dynamics.StateVector.basis(layout, bits)
        _print_amplitudes(gates.execute(program, profile, state))
    return 0


def _dft_matrix(n_qubits: int) -> np.ndarray:
    dim = 1 << n_qubits
    jk = np.outer(np.arange(dim), np.arange(dim))
    return np.exp(2j * math.pi * jk / dim) / math.sqrt(dim)


def _cmd_qft(args) -> int:
    program = applications.qft_program(args.n, include_bit_reversal=args.bit_reversal)
    _write_program(args.out, program)
    if not args.check:
        return 0
    if args.n > 10:
        print(f"error: --check builds a dense unitary and is capped at 10 sites, got {args.n}", file=sys.stderr)
        return 1
    # a 1-site program has no free evolutions, so no chain is consulted
    profile = chain.zero_phase_profile(args.n) if args.n >= 2 else None
    full = gates.program_unitary(program, profile)
    data_positions = [program.layout.core_position(s) for s in range(1, args.n + 1)]
    block = _restricted_unitary(full, program.layout, data_positions)
    if not args.bit_reversal:
        block = block[dynamics._site_reversal(args.n)]
    deviation = float(np.max(np.abs(_align_phase(block, _dft_matrix(args.n)) - _dft_matrix(args.n))))
    print(f"max |Δ| vs DFT: {deviation:.3e}")
    return 0 if deviation <= 1e-8 else 1


def _cmd_hamsim(args) -> int:
    mask = applications.PauliString.from_string(args.mask)
    if args.variant == "direct":
        program = applications.direct_pauli_program(mask, args.dt)
    else:
        program = applications.ancilla_pauli_program(mask, args.dt)
    _write_program(args.out, program)
    if not args.check:
        return 0
    if mask.n_sites > 6:
        print(f"error: --check capped at 6 data sites, got {mask.n_sites}", file=sys.stderr)
        return 1
    profile = chain.zero_phase_profile(program.layout.core_sites)
    full = gates.program_unitary(program, profile)
    data_positions = [program.layout.core_position(s + 1) for s in range(1, mask.n_sites + 1)]
    block = _restricted_unitary(full, program.layout, data_positions)
    # the string squares to the identity, so its exponential is closed-form
    string = mask.dense()
    target = math.cos(args.dt) * np.eye(string.shape[0]) - 1j * math.sin(args.dt) * string
    deviation = float(np.max(np.abs(_align_phase(block, target) - target)))
    print(f"max |Δ| vs exp(-i P dt): {deviation:.3e}")
    return 0 if deviation <= 1e-8 else 1


def _cmd_cost(args) -> int:
    chosen = [bool(args.qft), bool(args.concat), args.program is not None]
    if sum(chosen) != 1:
        print("error: cost needs exactly one of --qft, --concat, --program", file=sys.stderr)
        return 2
    if args.program is not None:
        program = serialize.program_from_dict(_load_json(args.program))
        report = analysis.cost_of_program(program, args.tau)
        _emit_json(args.out, serialize.cost_report_to_dict(report))
        return 0
    if args.concat:
        rows = []
        for level in range(args.levels + 1):
            cc = analysis.steane_concat_cost(level)
            rows.append([cc.levels, cc.targets_per_gate, cc.controlled_gate_count, cc.switched_elementary_ops])
        header = ["levels", "targets_per_gate", "controlled_gate_count", "switched_elementary_ops"]
    else:
        lo, hi = args.n_range
        header = [
            "n",
            "core_free_evolutions",
            "core_swaps",
            "core_local_ops",
            "core_switch_events",
            "switched_switch_events",
            "core_time",
            "switched_time",
        ]
        rows = []
        for n in range(lo, hi + 1):
            report = analysis.switched_qft_cost(n)
            rows.append(
                [
                    n,
                    report.free_evolutions,
                    report.swaps,
                    report.local_ops,
                    report.core_switch_events,
                    report.switch_events,
                    report.core_time,
                    report.switched_time,
                ]
            )
    if args.out:
        serialize.write_csv(args.out, header, rows)
    else:
        print("\n".join(serialize.csv_lines(header, rows)))
    return 0


def _cmd_robustness(args) -> int:
    profile = _profile_from_args(args)
    layout = dynamics.Layout(profile.n_sites)
    state = dynamics.random_state(layout, seed=args.seed, core_weight=args.weight)
    certificate = chain.mirror_certificate(profile, args.tau)
    dts = [float(part) for part in args.dts.split(",")]
    report = analysis.robustness_fit(profile, state, args.tau, certificate.phi_n, dts)
    payload = _with_schema(serialize.robustness_report_to_dict(report))
    if args.out:
        serialize.write_json(args.out, payload)
    if args.csv:
        serialize.write_csv(
            args.csv,
            ["delta_t", "error"],
            [[dt, e] for dt, e in zip(report.delta_ts, report.errors)],
        )
    print(f"fitted_order: {report.fitted_order:.6f}")
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def _build_parser() -> _Parser:
    parser = _Parser(prog="corechain", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="build a chain from a family or a target spectrum")
    p.add_argument("--christandl", type=int, metavar="N")
    p.add_argument("--spectrum", metavar="FILE")
    p.add_argument("--tau", type=float, default=math.pi)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(handler=_cmd_design)

    p = sub.add_parser("verify", help="certify mirror inversion at a given period")
    p.add_argument("--profile", metavar="FILE")
    p.add_argument("--christandl", type=int, metavar="N")
    p.add_argument("--tau", type=float, default=math.pi)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("evolve", help="free-evolve a state under a chain")
    p.add_argument("--profile", metavar="FILE")
    p.add_argument("--christandl", type=int, metavar="N")
    p.add_argument("--basis", metavar="BITS")
    p.add_argument("--state", metavar="FILE")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(handler=_cmd_evolve)

    p = sub.add_parser("gate", help="build (and optionally run) a gate program")
    p.add_argument("--profile", metavar="FILE")
    p.add_argument("--christandl", type=int, metavar="N")
    p.add_argument("--kind", choices=["z", "w", "cat"], default="z")
    p.add_argument("--x", type=int, default=1, help="control site")
    p.add_argument("--phase", type=float, default=math.pi, help="target phase for --kind w")
    p.add_argument("--input", metavar="BITS")
    p.add_argument("--tau", type=float, default=math.pi)
    p.add_argument("--run", action="store_true")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(handler=_cmd_gate)

    p = sub.add_parser("qft", help="build the QFT program and check it against the DFT")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--check", action="store_true")
    p.add_argument("--bit-reversal", action="store_true")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(handler=_cmd_qft)

    p = sub.add_parser("hamsim", help="Pauli-string evolution programs")
    p.add_argument("--mask", required=True, help="axes over the data sites, e.g. zziz")
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--variant", choices=["ancilla", "direct"], default="ancilla")
    p.add_argument("--check", action="store_true")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(handler=_cmd_hamsim)

    p = sub.add_parser("cost", help="cost studies: QFT sweep, concatenation, program census")
    p.add_argument("--qft", action="store_true")
    p.add_argument("--n-range", type=_parse_range, metavar="A..B")
    p.add_argument("--concat", action="store_true")
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--program", metavar="FILE")
    p.add_argument("--tau", type=float, default=math.pi)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(handler=_cmd_cost)

    p = sub.add_parser("robustness", help="timing-error order fit")
    p.add_argument("--profile", metavar="FILE")
    p.add_argument("--christandl", type=int, metavar="N")
    p.add_argument("--n", type=int, help="shorthand for --christandl")
    p.add_argument("--dts", default="1e-1,1e-2,1e-3")
    p.add_argument("--tau", type=float, default=math.pi)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weight", type=int, default=None)
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--csv", metavar="FILE")
    p.set_defaults(handler=_cmd_robustness)

    return parser


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    return int(lo), int(hi)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command in ("verify", "evolve", "gate", "robustness"):
        if getattr(args, "n", None) is not None and args.christandl is None:
            args.christandl = args.n
        if (args.christandl is None) == (getattr(args, "profile", None) is None):
            print("error: need exactly one of --christandl or --profile", file=sys.stderr)
            return 2
    try:
        return args.handler(args)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
