"""latticeqmc benchmark: one closed-loop client per workload.

    python3 perfbench/run.py --workload cbc_fft --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it benchmarks that checkout's ``src``.
Each run sets up nine times in fresh interpreters, spread over the run
(``setup_s`` is the median), makes one untimed warm-up pass over the op
list in cold caches, then repeats whole passes, one op at a time, until
``--seconds`` have elapsed.
Every op's output is checked outside the timed region.

``--trace 0`` prints the end-to-end metrics.  Their times are scaled by a
machine gauge (see ``MachineGauge``) to a nominal machine speed, because
this machine's speed drifts by up to a third over minutes.  ``--trace 1``
alternates an untraced and a traced pass (CLI commands run in-process
through ``cli.main``) and prints the per-layer metrics, each the median over
traced passes of the per-pass total; ``trace.overhead_s`` is traced minus
untraced pass time, and ``warmup_s`` is the traced run's first pass.
``warmup_s`` is a single cold pass, too noisy here to carry a bound, so it
is reported there and in the ``--trace 0`` table, not as an end-to-end
metric.  Spans and the full result are written under ``perfbench/.work``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  No CPU pinning or
cache control is used; BLAS and OpenMP threads are limited to the CPUs this
process may run on.
"""

from __future__ import annotations

import os
import sys


def _limit_threads() -> dict:
    """Cap BLAS/OpenMP threads at the usable CPUs, before numpy is imported."""
    cpus = len(os.sched_getaffinity(0))
    limits = {}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        limit = min(int(current), cpus) if current.isdigit() and int(current) > 0 else cpus
        os.environ[var] = limits[var] = str(limit)
    return limits


THREAD_LIMITS = _limit_threads()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402

import check  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_BATCH = 3  # set-up samples before warm-up, after it and after the loop
IMPORT_REPEATS = 3
WORK_ROOT = workloads.HERE / ".work"

END_TO_END = {"setup_s": "s", "work_per_s": "1/s", "op_s.p50": "s", "peak_rss_mb": "MB",
              "ok_rate": "ratio"}

# Times a fresh interpreter's import of the program plus the workload set-up.
_SETUP_CHILD = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import workloads\n"
    "workloads.setup(sys.argv[2], int(sys.argv[3]), sys.argv[4])\n"
    "print(time.perf_counter() - t0)\n"
)
_IMPORT_CHILD = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import latticeqmc.cli\n"
    "print(time.perf_counter() - t0)\n"
)


def _child_seconds(code: str, *args: str) -> float:
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=workloads.ROOT,
                          env=workloads.program_env(), capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def machine_record() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(line.split(":", 1)[1].strip() for line in fh
                             if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model, "platform": platform.platform(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "fft": "numpy.fft (pocketfft)" if hasattr(numpy.fft, "_pocketfft") else "numpy.fft",
        "thread_limits": THREAD_LIMITS, "cpu_pinning": "none", "cache_control": "none",
    }


class Runner:
    """Runs and checks ops, counting attempts and failed ops."""

    def __init__(self, ctx, cli_in_process: bool, tracer=None):
        self.ctx = ctx
        self.cli_in_process = cli_in_process
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, op, traced: bool = False) -> float:
        """Run one op and check its output; return its wall time."""
        self.attempted += 1
        out, error = None, None
        if traced:
            self.tracer.op = op.key
            self.tracer.active = True
        start = time.perf_counter()
        try:
            out = workloads.run_op(self.ctx, op, self.cli_in_process)
        except Exception:  # an op that raises is a failed op, not a crashed run
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        if traced:
            self.tracer.active = False
        problems = [f"{op.key}: raised {error}"] if error else check.check(self.ctx, op, out)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return elapsed

    def run_pass(self, traced: bool = False) -> list[float]:
        return [self.run(op, traced) for op in self.ctx.ops]


def _median(values) -> float:
    return float(statistics.median(values))


class MachineGauge:
    """A fixed numpy and interpreter kernel, timed between ops.

    This machine's speed drifts by up to a third over minutes, which would
    swamp run-to-run comparisons.  The end-to-end times of a run are scaled
    by NOMINAL_S / (median gauge time of the run), so they read as seconds on
    a machine where the gauge takes NOMINAL_S.  The gauge runs no program
    code, so a change to the program cannot move it; the unscaled values are
    kept in the result file."""

    NOMINAL_S = 0.025

    def __init__(self):
        import numpy

        rng = numpy.random.default_rng(0)
        self._np = numpy
        self._a = rng.random(1 << 19)
        self._b = numpy.empty_like(self._a)
        self._x = rng.random(1 << 17)
        self.samples: list[float] = []

    def sample(self) -> None:
        np, a, b = self._np, self._a, self._b
        start = time.perf_counter()
        for _ in range(6):
            np.multiply(a, 1.0001, out=b)
            np.add(b, a, out=b)
        for _ in range(3):
            np.sin(self._x)
        acc = 0
        for i in range(150_000):
            acc += i * i
        self.samples.append(time.perf_counter() - start)

    @property
    def scale(self) -> float:
        return self.NOMINAL_S / _median(self.samples)


def measure(ctx, seconds: float, gauge: MachineGauge, sample_setup) -> tuple[dict, "Runner",
                                                                              list]:
    """Returns the unscaled end-to-end metrics but set-up's, and (op, seconds)
    samples.  The gauge is sampled around the warm-up and after every op;
    ``sample_setup`` is called after the warm-up and after the loop, so that
    set-up samples straddle the run's slow and fast spells."""
    runner = Runner(ctx, cli_in_process=False)
    gauge.sample()
    warmup_s = sum(runner.run_pass())
    gauge.sample()
    sample_setup()
    samples, work = [], 0.0
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        for op in ctx.ops:
            samples.append((op.key, runner.run(op)))
            gauge.sample()
            work += op.work
    sample_setup()
    times = [t for _, t in samples]
    who = resource.RUSAGE_CHILDREN if ctx.workload == "cli_pipeline" else resource.RUSAGE_SELF
    metrics = {
        "warmup_s": warmup_s,
        "work_per_s": work / sum(times),
        "op_s.p50": _median(times),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "ok_rate": 1.0 - runner.failed / runner.attempted,
    }
    return metrics, runner, samples


def scaled(metrics: dict, scale: float) -> dict:
    """End-to-end times, and the warm-up's, at the gauge's nominal speed."""
    out = dict(metrics)
    for name in ("setup_s", "warmup_s", "op_s.p50"):
        out[name] = metrics[name] * scale
    out["work_per_s"] = metrics["work_per_s"] / scale
    return out


def _traced_pass(runner, tracer, memory: bool) -> tuple[float, dict]:
    first = len(tracer.spans)
    tracer.install(runner.ctx.lib.pkg)
    if memory:
        tracemalloc.start()
    try:
        wall = sum(runner.run_pass(traced=True))
    finally:
        tracemalloc.stop()
        tracer.uninstall()
    return wall, tracing.pass_stats(tracer.spans[first:])


def measure_traced(ctx, seconds: float) -> tuple[dict, "Runner", list]:
    """Alternate untraced and traced passes.  Peak memory comes from one more
    pass under tracemalloc, which slows allocation-heavy code too much to
    time the other passes with it on."""
    tracer = tracing.Tracer()
    runner = Runner(ctx, cli_in_process=True, tracer=tracer)
    warmup_s = sum(runner.run_pass())
    plain, traced, per_pass, empty = [], [], [], set()
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(sum(runner.run_pass()))
        wall, stats = _traced_pass(runner, tracer, memory=False)
        traced.append(wall)
        per_pass.append(tracing.layer_metrics(stats))
        empty.update(tracing.empty_layers(stats, ctx.workload))
    metrics = {name: _median([m[name] for m in per_pass]) for name in tracing.PER_LAYER}
    metrics["warmup_s"] = warmup_s
    if tracing.traces_memory(ctx.workload):
        _, stats = _traced_pass(runner, tracer, memory=True)
        metrics.update(tracing.peak_metrics(stats))
    metrics["trace.overhead_s"] = _median(traced) - _median(plain)
    metrics["cli.import_s"] = (
        _median([_child_seconds(_IMPORT_CHILD) for _ in range(IMPORT_REPEATS)])
        if ctx.workload == "cli_pipeline" else 0.0)
    runner.problems.extend(f"traced run: span {name} recorded no call on {ctx.workload}"
                           for name in sorted(empty))
    return metrics, runner, tracer.dump()


def per_layer_units() -> dict:
    units = {m: tracing.UNITS[stat] for m, (_, stat, *_) in tracing.PER_LAYER.items()}
    units.update({m: unit for m, (unit, *_) in tracing.EXTRA_LAYER.items()})
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        workloads.import_program()
    except workloads.ProgramMissing as exc:
        print(f"cannot benchmark: {exc}", file=sys.stderr)
        return 2

    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        child_args = (str(workloads.HERE), args.workload, str(args.seed), str(workdir))
        setup_times = []

        def sample_setup():
            setup_times.extend(_child_seconds(_SETUP_CHILD, *child_args)
                               for _ in range(SETUP_BATCH))

        spans, samples, unscaled, scale = [], [], None, None
        if args.trace:
            ctx = workloads.setup(args.workload, args.seed, workdir)
            metrics, runner, spans = measure_traced(ctx, args.seconds)
            units = per_layer_units()
        else:
            gauge = MachineGauge()
            sample_setup()
            ctx = workloads.setup(args.workload, args.seed, workdir)
            unscaled, runner, samples = measure(ctx, args.seconds, gauge, sample_setup)
            unscaled["setup_s"] = _median(setup_times)
            scale = gauge.scale
            metrics = scaled(unscaled, scale)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not runner.problems
    result = {"correct": correct, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    machine = machine_record()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK_ROOT / f"result-{tag}.json").write_text(json.dumps(
        {"machine": machine, "ops": [op.key for op in ctx.ops], "op_seconds": samples,
         "gauge_scale": scale, "unscaled": unscaled,
         "problems": runner.problems, **result}, indent=1))
    if spans:
        (WORK_ROOT / f"spans-{tag}.json").write_text(json.dumps(spans))

    print(f"machine {json.dumps(machine)}")
    print(f"workload {args.workload} seed {args.seed} ops {[op.key for op in ctx.ops]}")
    for problem in runner.problems:
        print(f"FAILED {problem}")
    for name, m in result["metrics"].items():
        note = f"  (n={len(samples)})" if name == "op_s.p50" else ""
        print(f"{name:<50} {m['value']:>16.6g} {m['unit']}{note}")
    if not args.trace:
        print(f"{'error_rate':<50} {1.0 - metrics['ok_rate']:>16.6g} ratio")
        print(f"{'warmup_s (no bound; see README)':<50} {metrics['warmup_s']:>16.6g} s")
        print(f"gauge scale {scale:.4f}; unscaled: " + ", ".join(
            f"{name} {unscaled[name]:.6g}" for name in ("setup_s", "warmup_s", "work_per_s",
                                                        "op_s.p50")))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
