"""corechain benchmark: three closed-loop workloads, each in its own process.

    python3 benchmarks/run.py --workload state_programs --seed 1 --seconds 35 --trace 0

`--workload all` (the default) runs every workload in turn, each in a child
process so that the `lru_cache`s one workload warms never reach another.
`--trace 0` reports the end-to-end metrics of an untraced timed run;
`--trace 1` reports the per-layer metrics of a traced run.  `--self-test`
corrupts every third result and exits 0 only if exactly those ops are counted
as failures.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import oracles
import tracing
from workloads import WORKLOADS, CheckFailed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".benchmarks-out"
MODULES = ("chain", "dynamics", "gates", "applications", "analysis", "serialize", "cli")
# set-up is repeated and its median reported: at least this many rounds and seconds
SETUP_ROUNDS = 5
SETUP_SECONDS = 1.0
TRACED_CYCLES = 2

UNITS = {
    "ops_per_s": "1/s",
    "latency_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def fresh_corechain() -> SimpleNamespace:
    """Import corechain from this checkout anew, with empty process-wide caches."""
    for name in [m for m in sys.modules if m == "corechain" or m.startswith("corechain.")]:
        del sys.modules[name]
    package = importlib.import_module("corechain")
    if Path(package.__file__).resolve().parent != SRC / "corechain":
        raise ImportError(f"corechain was imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"corechain.{m}") for m in MODULES})


def os_threads() -> int:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def warm_blas() -> None:
    """Pay numpy's one-time BLAS/LAPACK start-up before anything is timed."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((256, 256))
    np.linalg.eigh(a + a.T)
    (a + 1j * a) @ (a - 1j * a)


class Phase:
    """Ops run back to back: one closed-loop client."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.max_deviation = 0.0

    def run(self, workload, first, *, until=None, count=None, tracer=None, corrupt_every=0):
        """Ops from `first` on: `count` of them, or whole cycles of the mix until `until`."""
        cycle = len(workload.mix)
        i = first
        while (perf_counter() < until or (i - first) % cycle) if count is None else (i < first + count):
            inputs = workload.prepare(i)
            if tracer is not None:
                tracer.op = i
            start = perf_counter()
            try:
                result = workload.op(inputs)
            except Exception:
                self.latencies.append(perf_counter() - start)
                self._fail(i, traceback.format_exc())
                i += 1
                continue
            self.latencies.append(perf_counter() - start)
            if corrupt_every and i % corrupt_every == corrupt_every - 1:
                result = workload.corrupt(result)
            try:
                deviation = workload.check(result)
            except CheckFailed as exc:
                self._fail(i, str(exc))
            else:
                self.max_deviation = max(self.max_deviation, deviation)
                if not deviation <= oracles.TOL:
                    self._fail(i, f"deviation {deviation:.3e} above {oracles.TOL:g}")
            i += 1
        return i

    def _fail(self, i, message):
        self.failed += 1
        if self.failed <= 3:
            print(f"op {i} failed: {message.strip()}", file=sys.stderr)

    @property
    def ops_per_s(self) -> float:
        """Completed ops per second of op time (reference checks excluded)."""
        return (len(self.latencies) - self.failed) / sum(self.latencies)


def set_up(workload_cls, seed, workdir, tracer=None):
    """Import corechain, generate inputs, build programs and warm caches."""
    gc.collect()
    start = perf_counter()
    cc = fresh_corechain()
    if tracer is not None:
        tracer.install(cc)
    workload = workload_cls(cc, seed, workdir)
    return workload, perf_counter() - start


def probes(cc, seed) -> dict:
    """The ROADMAP baseline: warm n = 12 QFT execute, and evolve vs mirror_map at 13 qubits."""
    import numpy as np

    dynamics = cc.dynamics
    profile = cc.chain.zero_phase_profile(12)
    program = cc.applications.qft_program(12)
    state = dynamics.random_state(program.layout, seed=[seed, 4])

    def median_time(fn, rounds):
        times = []
        for _ in range(rounds):
            start = perf_counter()
            fn()
            times.append(perf_counter() - start)
        return statistics.median(times)

    cc.gates.execute(program, profile, state)  # warm
    qft = median_time(lambda: cc.gates.execute(program, profile, state), 5)
    evolve = median_time(lambda: dynamics.evolve(profile, state, math.pi), 21)
    mirror = median_time(lambda: dynamics.mirror_map(state, 0.0), 21)
    image = dynamics.evolve(profile, state, math.pi).amplitudes
    gap = float(np.max(np.abs(image - dynamics.mirror_map(state, 0.0).amplitudes)))
    return gap, {
        "probe.qft12_execute_s": (qft, "s"),
        "probe.evolve_13q_s": (evolve, "s"),
        "probe.mirror_map_13q_s": (mirror, "s"),
        "probe.evolve_over_mirror_map": (evolve / mirror, "ratio"),
    }


def run_workload(args) -> int:
    if not (SRC / "corechain" / "__init__.py").is_file():
        print(f"error: no corechain sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    warm_blas()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        return _measure(args, WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def timed_run(args, workload_cls, workdir):
    """Untraced: set-up rounds, then whole cycles of ops for `--seconds`."""
    setups = []
    while len(setups) < SETUP_ROUNDS or sum(setups) < SETUP_SECONDS:
        workload, elapsed = set_up(workload_cls, args.seed, workdir)
        setups.append(elapsed)
    phase = Phase()
    phase.run(workload, 0, until=perf_counter() + args.seconds, corrupt_every=3 if args.self_test else 0)
    deciles = statistics.quantiles(phase.latencies, n=10, method="inclusive")
    metrics = {
        "ops_per_s": phase.ops_per_s,
        "latency_p90_s": deciles[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {k: (v, UNITS[k]) for k, v in metrics.items()}
    # printed, not gated: the median op is a short, interpreter-bound one whose
    # run-to-run spread on a shared 2-CPU machine exceeds any allowed bound
    return workload, phase, metrics, {"latency_p50_s": deciles[4], "setup_rounds_s": setups}


def traced_run(args, workload_cls, workdir):
    """Traced set-up and two cycles of ops, then an untraced reference phase and the probes."""
    tracer = tracing.Tracer()
    workload, _ = set_up(workload_cls, args.seed, workdir, tracer)
    traced_ops = TRACED_CYCLES * len(workload.mix)
    phase = Phase()
    first_untraced = phase.run(workload, 0, count=traced_ops, tracer=tracer)
    caches = tracing.cache_info(workload.cc)  # counted from the fresh import
    tracer.uninstall()
    reference = Phase()
    reference.run(workload, first_untraced, until=perf_counter() + args.seconds)
    metrics = layer_metrics(tracer, caches)
    metrics.update({
        "verify.max_abs_deviation": (phase.max_deviation, "abs"),
        "trace.ops": (traced_ops, "count"),
        "trace.op_s": (sum(phase.latencies), "s"),
        "trace.overhead_ratio": (phase.ops_per_s / reference.ops_per_s, "ratio"),
    })
    probe_gap, probe_metrics = probes(workload.cc, args.seed)
    metrics.update(probe_metrics)
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    phase.latencies += reference.latencies
    phase.failed += reference.failed
    return workload, phase, metrics, {"probe_evolve_vs_mirror_map_gap": probe_gap}


def _measure(args, workload_cls, workdir) -> int:
    threads = os_threads()
    workload, phase, metrics, extra = (traced_run if args.trace else timed_run)(
        args, workload_cls, workdir
    )
    threads = max(threads, os_threads())
    wrappers = tracing.installed_wrappers(workload.cc)
    attempted = len(phase.latencies)
    run = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "samples": attempted,
        "fail_ratio": phase.failed / attempted,
        "max_abs_deviation": phase.max_deviation,
        "wrappers_installed_after_run": wrappers,
        "os_threads_peak": threads,
        "child_processes": 0,
        **extra,
    }
    print("run " + json.dumps(run))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:16s} {name:32s} {value:.6g} {unit}")
    if "latency_p50_s" in extra:
        print(f"{args.workload:16s} {'latency_p50_s':32s} {extra['latency_p50_s']:.6g} s (not gated)")
    print(f"{args.workload:16s} {'fail_ratio':32s} {run['fail_ratio']:.6g} ratio (samples {attempted})")
    if threads > (os.cpu_count() or 1):
        print(f"warning: {threads} threads exceed nproc={os.cpu_count()}", file=sys.stderr)
    if args.self_test:
        corrupted = attempted // 3
        ok = phase.failed == corrupted and attempted >= 3
        print(f"{args.workload}: self-test: {corrupted} corrupted, {phase.failed} counted as failed: "
              f"{'ok' if ok else 'FAILED'}")
        return 0 if ok else 1
    result = {
        "correct": phase.failed == 0 and wrappers == 0 and extra.get("probe_evolve_vs_mirror_map_gap", 0.0) <= oracles.TOL,
        "attempted": attempted,
        "failed": phase.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, caches) -> dict:
    layers = tracer.layers()
    counts = tracer.counts

    def calls(name):
        return layers.get(name, (0, 0.0))[0]

    def self_s(name):
        return layers.get(name, (0, 0.0))[1]

    metrics = {}
    for name in ("gates.execute", "gates.program_unitary", "chain.mirror_certificate",
                 "applications.build", "cli.main"):
        metrics[f"{name}.calls"] = (calls(name), "count")
    for name in ("gates.execute", "gates.program_unitary", "dynamics.evolve", "dynamics.mirror_map",
                 "dynamics.random_state", "chain.reconstruct_profile", "chain.mirror_certificate",
                 "analysis.robustness_fit", "analysis.timing_error", "analysis.cost_of_program",
                 "applications.build", "serialize", "cli.main"):
        metrics[f"{name}.self_s"] = (self_s(name), "s")
    for name in ("gates.amplitude_columns", "gates.instructions.evolve", "gates.instructions.swap",
                 "gates.instructions.local"):
        metrics[name] = (counts[name], "count")
    metrics["serialize.bytes_written"] = (counts["serialize.bytes_written"], "B")
    for key in ("eigensystem", "propagator"):
        metrics[f"dynamics.{key}.builds"] = (caches[key].misses, "count")
        metrics[f"dynamics.{key}.hits"] = (caches[key].hits, "count")
    builds, hits = metrics["dynamics.propagator.builds"][0], metrics["dynamics.propagator.hits"][0]
    metrics["dynamics.propagator.hit_ratio"] = (hits / (hits + builds) if hits + builds else 0.0, "ratio")
    return metrics


def run_all(args) -> int:
    """Each workload in its own child process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.self_test:
            argv.append("--self-test")
        child = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        if args.self_test:
            print("\n".join(lines))
            status = status or child.returncode
            continue
        print(*lines[:-1], sep="\n")
        if child.returncode != 0 or not lines:
            print(f"error: workload {name} exited {child.returncode}", file=sys.stderr)
            return child.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    if not args.self_test:
        print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
