"""Command-line front end: design chains, certify them, run programs and studies.

Subcommands: design, verify, evolve, gate, qft, hamsim, cost, robustness.
Outputs are deterministic for a fixed configuration (fixed-precision floats,
seeded randomness); JSON artifacts carry a "schema": "1" field.  Exit codes:
0 success, 1 failed check or refused computation, 2 usage error.  Failure
paths print a single `error: ...` line on stderr.
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import functools
import math
import sys

import numpy as np

from . import _kernels, analysis, applications, chain, dynamics, gates, serialize
from .errors import SizeLimitError

SCHEMA = "1"


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line diagnostics, exit code 2
        raise SystemExit(_fail(message, 2))


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return serialize.loads(fh.read())


def _profile_from_args(args) -> chain.CouplingProfile:
    if args.christandl is not None:
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


def _write_json(out, payload: dict) -> None:
    """Write the schema-marked payload to `out`, if a file is given."""
    if out:
        serialize.write_json(out, _with_schema(payload))


def _emit_json(out, payload: dict) -> None:
    """Write the schema-marked payload to `out`, or print it when no file is given."""
    if out:
        _write_json(out, payload)
    else:
        print(serialize.dumps(_with_schema(payload)))


def _align_phase(actual: np.ndarray, target: np.ndarray) -> np.ndarray:
    flat = np.argmax(np.abs(target))
    pivot = actual.reshape(-1)[flat]
    if abs(pivot) < 1e-12:
        return actual
    reference = target.reshape(-1)[flat]
    return actual * (reference / abs(reference)) * (abs(pivot) / pivot)


def _check_block(block: np.ndarray, target: np.ndarray, name: str) -> int:
    """Print the largest deviation from `target` up to a global phase; 1 above 1e-8."""
    deviation = float(np.max(np.abs(_align_phase(block, target) - target)))
    print(f"max |Δ| vs {name}: {deviation:.3e}")
    return 0 if deviation <= 1e-8 else 1


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_design(args) -> int:
    if (args.christandl is None) == (args.spectrum is None):
        return _fail("design needs exactly one of --christandl or --spectrum", 2)
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
    _write_json(args.out, serialize.certificate_to_dict(certificate))
    print(_certificate_line(certificate))
    return 0 if certificate.is_valid else 1


def _cmd_evolve(args) -> int:
    profile = _profile_from_args(args)
    if (args.basis is None) == (args.state is None):
        return _fail("evolve needs exactly one of --basis or --state", 2)
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
    if args.kind == "cat":  # always run, so refused on a chain with no closed-form mirror
        program, final = gates.cat_state(profile, args.x, tau)
        m = layout.total_qubits
        ideal = np.zeros(layout.dim, dtype=np.complex128)
        # |0...0>|0> + |every site but x set>|1>: site x emptied, the control's half on the ancilla
        ideal[[0, (1 << m) - 1 - (1 << (m - args.x))]] = 1 / math.sqrt(2)
        fidelity = dynamics.fidelity_up_to_global_phase(dynamics.StateVector(layout, ideal), final)
        _write_json(args.out, serialize.program_to_dict(program))
        print(f"cat fidelity: {fidelity:.12f}")
        return 0
    certificate = chain.mirror_certificate(profile, tau)  # checks the chain and tau even when nothing runs
    if args.run:
        chain.require_closed_form(profile, certificate)
        # a bad --input is refused before the program is written
        state = dynamics.StateVector.basis(layout, args.input or "0" * layout.total_qubits)
    if args.kind == "z":
        program = gates.controlled_z_program(args.x, layout, tau)
    else:  # kind == "w": one phase gate on every non-control site
        targets = {
            site: gates.phase_gate(args.phase) for site in range(1, n + 1) if site != args.x
        }
        program = gates.controlled_unitary_program(
            gates.TargetSpec(args.x, targets), layout, tau, phi_n=certificate.phi_n
        )
    _write_json(args.out, serialize.program_to_dict(program))
    if args.run:
        _print_amplitudes(gates.execute(program, profile, state))
    return 0


def _dft_matrix(n_qubits: int) -> np.ndarray:
    """exp(2 pi i jk / 2^n) / sqrt(2^n), read from one table of the 2^n roots by jk mod 2^n.

    exp of 2 pi jk / 2^n itself rounds angles of up to 2 pi 2^n: at n = 8 that
    reference is off by 1e-14, further from the DFT than the program is.
    """
    dim = 1 << n_qubits
    k = np.arange(dim)
    roots = np.exp(2j * math.pi * k / dim) / math.sqrt(dim)
    return roots[np.outer(k, k) & (dim - 1)]


def _cmd_qft(args) -> int:
    if args.check and args.n > 10:  # refused before the program is written
        return _fail(f"--check builds a dense unitary and is capped at 10 sites, got {args.n}", 1)
    program = applications.qft_program(args.n, include_bit_reversal=args.bit_reversal)
    _write_json(args.out, serialize.program_to_dict(program))
    if not args.check:
        return 0
    # a 1-site program has no free evolutions, so no chain is consulted
    profile = chain.zero_phase_profile(args.n) if args.n >= 2 else None
    block = gates.program_block(program, profile, program.layout.core_position(1), args.n)
    if not args.bit_reversal:  # the output is bit-reversed: reverse the block's rows
        block = _kernels.order(block, range(args.n - 1, -1, -1))
    return _check_block(block, _dft_matrix(args.n), "DFT")


def _cmd_hamsim(args) -> int:
    mask = applications.PauliString.from_string(args.mask)
    if args.check and mask.n_sites > 6:  # refused before the program is written
        return _fail(f"--check capped at 6 data sites, got {mask.n_sites}", 1)
    if args.variant == "direct":
        program = applications.direct_pauli_program(mask, args.dt)
    else:
        program = applications.ancilla_pauli_program(mask, args.dt)
    _write_json(args.out, serialize.program_to_dict(program))
    if not args.check:
        return 0
    profile = chain.zero_phase_profile(program.layout.core_sites)
    # data site j sits on chain site j + 1, after the parity site
    block = gates.program_block(program, profile, program.layout.core_position(2), mask.n_sites)
    # the string squares to the identity, so its exponential is closed-form
    string = mask.dense()
    target = math.cos(args.dt) * np.eye(string.shape[0]) - 1j * math.sin(args.dt) * string
    return _check_block(block, target, "exp(-i P dt)")


# `cost --qft` CSV column -> CostReport attribute
_QFT_COLUMNS = {
    "core_free_evolutions": "free_evolutions",
    "core_swaps": "swaps",
    "core_local_ops": "local_ops",
    "core_switch_events": "core_switch_events",
    "switched_switch_events": "switch_events",
    "core_time": "core_time",
    "switched_time": "switched_time",
}


def _cmd_cost(args) -> int:
    if [bool(args.qft), bool(args.concat), args.program is not None].count(True) != 1:
        return _fail("cost needs exactly one of --qft, --concat, --program", 2)
    if args.tau is not None and args.program is None:
        return _fail("--tau applies to cost --program only", 2)
    if args.program is not None:
        program = serialize.program_from_dict(_load_json(args.program))
        report = analysis.cost_of_program(program, math.pi if args.tau is None else args.tau)
        _emit_json(args.out, serialize.cost_report_to_dict(report))
        return 0
    if args.concat:
        if args.levels < 0:
            return _fail(f"--levels must be nonnegative, got {args.levels}", 2)
        header = [f.name for f in dataclasses.fields(analysis.ConcatCost)]
        # the last level has the largest count; it grows 49-fold per 2 levels, so level 2 limit + 1 never renders
        count = lambda level: analysis.steane_concat_cost(level).switched_elementary_ops  # noqa: E731
        limit = sys.get_int_max_str_digits()  # 0 when `str` renders any integer
        if limit and (args.levels > 2 * limit or count(args.levels) >= 10**limit):
            top = bisect.bisect_left(range(2 * limit + 2), 10**limit, key=count) - 1
            raise SizeLimitError(f"--levels {args.levels} needs over {limit} digits; the largest level that renders is {top}")
        rows = (dataclasses.astuple(analysis.steane_concat_cost(k)) for k in range(args.levels + 1))
    else:
        if args.n_range is None:
            return _fail("cost --qft needs --n-range A..B", 2)
        header = ["n", *_QFT_COLUMNS]
        # the last n has the largest times: one that overflows is refused before the header is written
        analysis.switched_qft_cost(args.n_range[1])
        rows = _qft_cost_rows(*args.n_range)
    if args.out:
        serialize.write_csv(args.out, header, rows)
    else:
        for line in serialize.csv_lines(header, rows):
            print(line)
    return 0


def _qft_cost_rows(first: int, last: int):
    """One `cost --qft` row per n, made as the CSV writer asks for it, so no range is held in memory."""
    for n in range(first, last + 1):
        report = analysis.switched_qft_cost(n)
        yield [n, *(getattr(report, name) for name in _QFT_COLUMNS.values())]


def _cmd_robustness(args) -> int:
    if args.seed < 0:
        return _fail(f"--seed must be nonnegative, got {args.seed}", 1)
    try:
        dts = [float(part) for part in args.dts.split(",")]
    except ValueError:
        return _fail(f"--dts must be comma-separated numbers, got {args.dts!r}", 1)
    profile = _profile_from_args(args)
    layout = dynamics.Layout(profile.n_sites)
    state = dynamics.random_state(layout, seed=args.seed, core_weight=args.weight)
    certificate = chain.mirror_certificate(profile, args.tau)
    report = analysis.robustness_fit(profile, state, args.tau, certificate.phi_n, dts)
    if args.csv:  # written first, so an unwritable CSV leaves no --out file
        serialize.write_csv(args.csv, ["delta_t", "error"], zip(report.delta_ts, report.errors))
    _write_json(args.out, serialize.robustness_report_to_dict(report))
    print(f"fitted_order: {report.fitted_order:.6f}")
    return 0


# ---------------------------------------------------------------------------
# parser wiring


@functools.lru_cache(maxsize=1)  # parse_args leaves the parser unchanged; build it once
def _build_parser() -> _Parser:
    parser = _Parser(prog="corechain", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # the chain a command runs on: exactly one of these, checked in main
    chain_source = argparse.ArgumentParser(add_help=False)
    chain_source.add_argument("--profile", metavar="FILE")
    chain_source.add_argument("--christandl", type=int, metavar="N")
    # the options several commands share; `cost` keeps its own --tau, whose default is None
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", metavar="FILE")
    period = argparse.ArgumentParser(add_help=False)
    period.add_argument("--tau", type=float, default=math.pi)

    p = sub.add_parser("design", parents=[period, out], help="build a chain from a family or a target spectrum")
    p.add_argument("--christandl", type=int, metavar="N")
    p.add_argument("--spectrum", metavar="FILE")
    p.set_defaults(handler=_cmd_design)

    p = sub.add_parser(
        "verify", parents=[chain_source, period, out], help="certify mirror inversion at a given period"
    )
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("evolve", parents=[chain_source, out], help="free-evolve a state under a chain")
    p.add_argument("--basis", metavar="BITS")
    p.add_argument("--state", metavar="FILE")
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(handler=_cmd_evolve)

    p = sub.add_parser(
        "gate", parents=[chain_source, period, out], help="build (and optionally run) a gate program"
    )
    p.add_argument("--kind", choices=["z", "w", "cat"], default="z")
    p.add_argument("--x", type=int, default=1, help="control site")
    p.add_argument("--phase", type=float, default=math.pi, help="target phase for --kind w")
    p.add_argument("--input", metavar="BITS")
    p.add_argument("--run", action="store_true")
    p.set_defaults(handler=_cmd_gate)

    p = sub.add_parser("qft", parents=[out], help="build the QFT program and check it against the DFT")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--check", action="store_true")
    p.add_argument("--bit-reversal", action="store_true")
    p.set_defaults(handler=_cmd_qft)

    p = sub.add_parser("hamsim", parents=[out], help="Pauli-string evolution programs")
    p.add_argument("--mask", required=True, help="axes over the data sites, e.g. zziz")
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--variant", choices=["ancilla", "direct"], default="ancilla")
    p.add_argument("--check", action="store_true")
    p.set_defaults(handler=_cmd_hamsim)

    p = sub.add_parser("cost", parents=[out], help="cost studies: QFT sweep, concatenation, program census")
    p.add_argument("--qft", action="store_true")
    p.add_argument("--n-range", type=_parse_range, metavar="A..B")
    p.add_argument("--concat", action="store_true")
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--program", metavar="FILE")
    p.add_argument("--tau", type=float, help="period of one free evolution (default pi)")
    p.set_defaults(handler=_cmd_cost)

    p = sub.add_parser("robustness", parents=[chain_source, period, out], help="timing-error order fit")
    p.add_argument("--n", type=int, dest="christandl", metavar="N", help="shorthand for --christandl")
    p.add_argument("--dts", default="1e-1,1e-2,1e-3")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weight", type=int, default=None)
    p.add_argument("--csv", metavar="FILE")
    p.set_defaults(handler=_cmd_robustness)

    return parser


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    if not (lo.isdecimal() and hi.isdecimal() and 1 <= int(lo) <= int(hi)):
        raise argparse.ArgumentTypeError(f"expected A..B with 1 <= A <= B, got {text!r}")
    return int(lo), int(hi)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if "profile" in vars(args) and (args.christandl is None) == (args.profile is None):
        return _fail("need exactly one of --christandl or --profile", 2)
    try:
        return args.handler(args)
    except (OSError, ValueError) as exc:
        return _fail(str(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
