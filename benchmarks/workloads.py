"""The three workloads.  Each is one closed-loop client in one process.

A workload is built once per set-up from a seed and a freshly imported
corechain (`cc`, a namespace of its modules).  For op i it offers
`prepare(i)` (input generation, not timed), `op(inputs)` (timed),
`check(result)` (the reference check, not timed; returns a deviation that
must stay at or below `oracles.TOL`, or raises `CheckFailed`) and
`corrupt(result)` (a deliberately wrong result, for the self-test).

Every mix holds 25 or 7 entries, and op i runs entry `order(i)`: each cycle of
`len(mix)` ops visits every entry once, in a seeded order.  The composition
of a run is then the same for every seed, and with 25 or 7 entries the 50th
and 90th latency percentiles fall inside one entry's latencies instead of on
the border between two entries.  Random draws that would change the amount
of work (how many targets, how many x/y axes) are fixed per entry; only
their placement and values are seeded.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re

import numpy as np

import oracles


class CheckFailed(Exception):
    """An op's output does not match its reference."""


def rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng([seed, *path])


def haar_unitary_2x2(g: np.random.Generator) -> np.ndarray:
    z = g.standard_normal((2, 2)) + 1j * g.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def seeded_axes(g: np.random.Generator, length: int, cycle: str) -> str:
    """`length` axes taken round-robin from `cycle`, in a seeded order."""
    return "".join(g.permutation([cycle[k % len(cycle)] for k in range(length)]))


def run_cli(cc, argv: list[str]) -> tuple[int, str]:
    """In-process `corechain` call; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cc.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


class Workload:
    name = ""

    def __init__(self, cc, seed: int, workdir):
        self.cc = cc
        self.seed = seed
        self.workdir = workdir
        self.mix: list = []
        self._orders: dict[int, np.ndarray] = {}

    def order(self, i: int) -> int:
        cycle, k = divmod(i, len(self.mix))
        if cycle not in self._orders:
            self._orders = {cycle: rng(self.seed, 1, cycle).permutation(len(self.mix))}
        return int(self._orders[cycle][k])


class StatePrograms(Workload):
    """`gates.execute` of a prebuilt program on a fresh random state (warm caches)."""

    name = "state_programs"

    def __init__(self, cc, seed, workdir):
        super().__init__(cc, seed, workdir)
        apps, gates, dynamics = cc.applications, cc.gates, cc.dynamics
        g = rng(seed, 0)
        for n in range(8, 13):
            for bit_reversal in (False, True):
                program = apps.qft_program(n, include_bit_reversal=bit_reversal)
                self.mix.append(dict(kind="qft", n=n, bit_reversal=bit_reversal, program=program))
        for n in range(8, 13):
            for _ in range(2):
                control = int(g.integers(1, n + 1))
                others = [s for s in range(1, n + 1) if s != control]
                sites = sorted(int(s) for s in g.choice(others, n // 2, replace=False))
                targets = {s: haar_unitary_2x2(g) for s in sites}
                program = gates.controlled_unitary_program(
                    gates.TargetSpec(control, targets), dynamics.Layout(n, ancilla_count=1)
                )
                self.mix.append(
                    dict(kind="controlled", n=n, control=control, targets=targets, program=program)
                )
        for n_data in range(7, 12):
            terms = tuple(
                (seeded_axes(g, n_data, "xyzi"), float(g.uniform(0.5, 1.5))) for _ in range(2)
            )
            dt, steps = float(g.uniform(0.05, 0.2)), 2
            plan = apps.TrotterPlan(
                tuple((apps.PauliString.from_string(axes), c) for axes, c in terms), dt, steps
            )
            self.mix.append(
                dict(kind="trotter", n=n_data, terms=terms, dt=dt, steps=steps,
                     program=apps.trotter_program(plan))
            )
        for entry in self.mix:
            entry["profile"] = cc.chain.zero_phase_profile(entry["program"].layout.core_sites)
        # warm the eigensystem and period-propagator caches of every chain in the mix
        for profile in {entry["profile"] for entry in self.mix}:
            core = dynamics.Layout(profile.n_sites)
            dynamics.evolve(profile, dynamics.StateVector.zero(core), math.pi)

    def prepare(self, i):
        return self.mix[self.order(i)], [self.seed, 2, i]

    def op(self, inputs):
        entry, state_seed = inputs
        dynamics = self.cc.dynamics
        data = dynamics.random_state(dynamics.Layout(entry["n"]), seed=state_seed)
        layout = entry["program"].layout
        # data qubits sit just above the ancilla; every other qubit starts in |0>
        amps = np.zeros(layout.dim, dtype=np.complex128)
        amps[: 2 * data.amplitudes.size : 2] = data.amplitudes
        state = dynamics.StateVector(layout, amps)
        out = self.cc.gates.execute(entry["program"], entry["profile"], state)
        return entry, data.amplitudes, out.amplitudes

    def check(self, result):
        entry, psi, out = result
        if entry["kind"] == "qft":
            expected = oracles.qft(psi, entry["n"], entry["bit_reversal"])
        elif entry["kind"] == "controlled":
            expected = oracles.controlled_product(psi, entry["n"], entry["control"], entry["targets"])
        else:
            expected = oracles.trotter(psi, entry["terms"], entry["dt"], entry["steps"])
        full = np.zeros_like(out)
        full[: 2 * expected.size : 2] = expected
        return oracles.aligned_deviation(out, full)

    def corrupt(self, result):
        entry, psi, out = result
        out = out.copy()
        out[np.argmax(np.abs(out))] += 1e-6
        return entry, psi, out


_DEVIATION = re.compile(r"max \|Δ\| vs [^:]*: (\S+)")


class DenseChecks(Workload):
    """`corechain` CLI calls that build dense program unitaries and check them."""

    name = "dense_checks"

    def __init__(self, cc, seed, workdir):
        super().__init__(cc, seed, workdir)
        g = rng(seed, 0)
        checks = []
        for n in range(4, 9):
            for finisher in ([], ["--bit-reversal"]):
                checks.append(["qft", "--n", str(n), "--check"] + finisher)
        for length in range(1, 7):
            involved = seeded_axes(g, (length + 1) // 2, "xyz")
            mask = "".join(g.permutation(list(involved + "i" * (length - len(involved)))))
            checks.append(["hamsim", "--mask", mask, "--dt", repr(float(g.uniform(0.1, 1.0))), "--variant", "ancilla", "--check"])
        for length in range(1, 7):
            mask = seeded_axes(g, length, "xyz")
            checks.append(["hamsim", "--mask", mask, "--dt", repr(float(g.uniform(0.1, 1.0))), "--variant", "direct", "--check"])
        # every command writes its own program file, so each `cost --program`
        # entry always reads the same program: the 6-site QFT and the 6-site
        # ancilla hamsim, written in set-up and again by their entry every cycle
        for k, argv in enumerate(checks):
            self.mix.append(("check", argv + ["--out", str(workdir / f"program-{k}.json")]))
        for k in (4, 15):
            _, argv = self.mix[k]
            run_cli(cc, [a for a in argv if a != "--check"])
            self.mix.append(("cost_program", ["cost", "--program", argv[-1], "--out", str(workdir / "cost.json")]))
        self.mix.append(("cost_qft", ["cost", "--qft", "--n-range", "2..12", "--out", str(workdir / "cost.csv")]))
        # warm the caches of every chain the mix evolves: QFT on 4..8 sites, hamsim on 2..7
        dynamics = cc.dynamics
        for n in range(2, 9):
            core = dynamics.Layout(n)
            dynamics.evolve(cc.chain.zero_phase_profile(n), dynamics.StateVector.zero(core), math.pi)

    def prepare(self, i):
        return self.mix[self.order(i)]

    def op(self, inputs):
        kind, argv = inputs
        code, stdout = run_cli(self.cc, argv)
        return kind, argv, code, stdout

    def check(self, result):
        kind, argv, code, stdout = result
        if code != 0:
            raise CheckFailed(f"{' '.join(argv)} exited {code}")
        if kind == "check":
            match = _DEVIATION.search(stdout)
            if match is None:
                raise CheckFailed(f"{' '.join(argv)} printed no deviation")
            return float(match.group(1))
        out = argv[argv.index("--out") + 1]
        if kind == "cost_program":
            with open(argv[argv.index("--program") + 1], encoding="utf-8") as fh:
                ops = [i["op"] for i in json.load(fh)["instructions"]]
            with open(out, encoding="utf-8") as fh:
                report = json.load(fh)
            expected = (ops.count("evolve"), ops.count("swap"), ops.count("local"))
            if (report["free_evolutions"], report["swaps"], report["local_ops"]) != expected:
                raise CheckFailed(f"cost census {report} differs from the program's {expected}")
            return 0.0
        with open(out, encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().split()[1:]]
        # one controlled gate per control site: 4 evolutions and 2 swaps each;
        # the switched brick schedule meets each of the C(n,2) pairs once (phase + swap)
        for n in range(2, 13):
            row = rows[n - 2]
            if [int(v) for v in row[:3]] != [n, 4 * (n - 1), 2 * (n - 1)] or int(row[5]) != n * (n - 1):
                raise CheckFailed(f"cost --qft row {row} is wrong for n={n}")
        return 0.0

    def corrupt(self, result):
        kind, argv, code, stdout = result
        if kind == "check":
            return kind, argv, code, _DEVIATION.sub(lambda m: m.group(0).replace(m.group(1), "1.000e-06"), stdout)
        return kind, argv, 1, stdout


class ChainDesign(Workload):
    """Design, certify and stress a new chain every op through the CLI (cold caches)."""

    name = "chain_design"

    def __init__(self, cc, seed, workdir):
        super().__init__(cc, seed, workdir)
        self.mix = list(range(6, 13))
        self.spectrum = str(workdir / "spectrum.json")
        self.profile = str(workdir / "profile.json")

    def prepare(self, i):
        n = self.mix[self.order(i)]
        g = rng(self.seed, 3, i)
        # odd gaps make exp(-i E_k pi) alternate in sign: the chain certifies at tau = pi
        energies = g.uniform(-3.0, 3.0) + np.concatenate([[0], np.cumsum(g.choice([1, 3], n - 1))])
        lo = 10 ** g.uniform(-3.0, -2.0)
        hi = lo * 10 ** g.uniform(1.0, math.log10(0.1 / lo))
        mid = 10 ** g.uniform(math.log10(lo), math.log10(hi))
        with open(self.spectrum, "w", encoding="utf-8") as fh:
            json.dump({"schema": "1", "energies": [float(e) for e in energies]}, fh)
        dts = ",".join(repr(float(dt)) for dt in (hi, mid, lo))
        return energies, dts, str(int(g.integers(0, 2**31)))

    def op(self, inputs):
        energies, dts, state_seed = inputs
        calls = [
            ["design", "--spectrum", self.spectrum, "--out", self.profile],
            ["verify", "--profile", self.profile],
            ["robustness", "--profile", self.profile, "--dts", dts, "--seed", state_seed],
        ]
        return energies, [(argv, *run_cli(self.cc, argv)) for argv in calls]

    def check(self, result):
        energies, calls = result
        for argv, code, _ in calls:
            if code != 0:
                raise CheckFailed(f"{argv[0]} exited {code}")
        if "certificate: valid" not in calls[1][2]:
            raise CheckFailed("verify did not report a valid certificate")
        order = re.search(r"fitted_order: (\S+)", calls[2][2])
        if order is None or not math.isfinite(float(order.group(1))):
            raise CheckFailed("robustness reported no finite fitted order")
        with open(self.profile, encoding="utf-8") as fh:
            profile = json.load(fh)
        found = oracles.jacobi_eigenvalues(profile["omegas"], profile["lambdas"])
        return float(np.max(np.abs(found - energies)) / max(1.0, np.max(np.abs(energies))))

    def corrupt(self, result):
        with open(self.profile, encoding="utf-8") as fh:
            profile = json.load(fh)
        profile["omegas"][0] += 1e-4
        with open(self.profile, "w", encoding="utf-8") as fh:
            json.dump(profile, fh)
        return result


WORKLOADS = {w.name: w for w in (StatePrograms, DenseChecks, ChainDesign)}
