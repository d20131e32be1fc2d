"""One benchmark run of one workload, in its own process.

Started by run.py. Loads the csl
package from the checkout's ``src`` tree, runs one untimed warm-up trial and
then timed trials until ``--seconds`` have passed, checks every trial's
outputs, and prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
each trial runs twice on the same inputs, once plain and once traced, in
alternating order; the outputs must match bitwise, and the metrics are the
per-layer ones. Spans are written to ``.perfbench_out/<workload>.spans.jsonl``.
Exits 1 when any check fails and 2 when the package cannot be loaded.
Run it through run.py, which pins the BLAS thread count before numpy loads.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time

import numpy as np

from layers import VECTOR_OPCODES, TraceView, per_layer_metrics, thread_table
from tracer import NAME, NOTE, PHASE, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
MIN_TRIALS = 3


def load_csl():
    """Import csl from this checkout's source tree, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "csl", "__init__.py")):
        print(f"perfbench: no csl source tree under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import csl
    if os.path.dirname(os.path.dirname(os.path.abspath(csl.__file__))) != SRC:
        print(f"perfbench: imported csl from {csl.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return csl


def same_bits(a: dict, b: dict) -> list[str]:
    """Names of the arrays that differ in shape, dtype or any bit."""
    return [key for key in sorted(set(a) | set(b))
            if key not in a or key not in b
            or np.asarray(a[key]).dtype != np.asarray(b[key]).dtype
            or np.asarray(a[key]).shape != np.asarray(b[key]).shape
            or np.asarray(a[key]).tobytes() != np.asarray(b[key]).tobytes()]


def _release_free_heap() -> None:
    """Hand free heap pages back to the OS between trials (glibc only).

    How much freed memory glibc keeps depends on how the threads' earlier
    allocations interleaved, so without this the process's peak resident
    set moved by up to 30% between identical TCP runs.
    """
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass


def _phase(tracer, name) -> None:
    if tracer is not None:
        tracer.phase = name


class Trial:
    """Set-up times, trial time, outputs and ledger deltas of one pass."""

    def __init__(self, workload, inputs, tracer=None):
        clock = time.perf_counter
        self.setups = []
        _phase(tracer, "setup")
        for r in range(workload.setup_repeats):
            start = clock()
            cluster = workload.setup(inputs)
            self.setups.append(clock() - start)
            if r + 1 < workload.setup_repeats:
                cluster.close()
        before = cluster.ledger.copy()
        _phase(tracer, "trial")
        start = clock()
        self.outputs = workload.run(cluster, inputs)
        end = clock()
        _phase(tracer, None)
        self.window = (start, end)
        self.trial_s = end - start
        self.vectors = cluster.ledger.vectors_sent - before.vectors_sent
        self.samples_moved = cluster.ledger.samples_moved - before.samples_moved
        self.rounds = cluster.ledger.rounds - before.rounds


class SpeedProbe:
    """A fixed reference kernel, timed around every trial.

    The shared machine this benchmark was tuned on drifts in speed by 20-30%
    over minutes, and short bursts slow a kernel 2-5 times. The kernel mixes
    the kinds of work the workloads do: vectorised transcendental functions,
    BLAS matrix-vector products in and out of a core's private cache, and a
    Python loop of small numpy calls.
    Each call times REPEATS short runs of it, before and after every trial.
    The median over all runs in a benchmark run is the machine's speed in
    that run, robust to the bursts: the drift is slow next to a run, and
    per-trial probes would add their own noise. trial_s and setup_s are
    median wall times scaled by REFERENCE_S over that median: seconds at the
    reference machine speed. Set-up is scaled by the one-thread kernel and
    the trial by the kernel on as many threads as the workload keeps busy.
    """

    # The kernel's time on one and on two threads at the reference speed.
    REFERENCE_S = {1: 0.0045, 2: 0.012}
    REPEATS = 5

    def __init__(self, threads: int = 1):
        self.threads = threads
        rng = np.random.default_rng(20160524)
        self.u = rng.standard_normal(16384)
        self.a = rng.standard_normal((400, 1000))
        self.v = rng.standard_normal(1000)
        self.small = rng.standard_normal(10)
        # 8 MB: larger than a core's private cache, like the lasso designs,
        # so contention for the shared cache slows it too.
        self.big = rng.standard_normal((1000, 1000))
        self.w = rng.standard_normal(1000)

    def kernel(self) -> float:
        """Wall time of the kernel run once on each of ``threads`` threads at
        once, so a workload that keeps several cores busy is compared with
        the speed of as many cores."""
        start = time.perf_counter()
        if self.threads == 1:
            self._work()
        else:
            workers = [threading.Thread(target=self._work) for _ in range(self.threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        return time.perf_counter() - start

    def _work(self) -> None:
        acc = 0.0
        for _ in range(4):
            acc += float(np.logaddexp(0.0, self.u)[0])
            acc += float((self.a @ self.v)[0])
        acc += float((self.big @ self.w)[0])
        for _ in range(400):
            acc += float(self.small @ self.small)
        if not np.isfinite(acc):
            raise RuntimeError("speed probe produced a non-finite sum")

    def __call__(self) -> list[float]:
        return [self.kernel() for _ in range(self.REPEATS)]


def ledger_problems(workload, trial: Trial) -> list[str]:
    problems = []
    if trial.vectors != workload.expected_vectors:
        problems.append(f"ledger vectors {trial.vectors} != {workload.expected_vectors}")
    if trial.samples_moved != workload.expected_samples_moved:
        problems.append(f"ledger samples_moved {trial.samples_moved} "
                        f"!= {workload.expected_samples_moved}")
    return problems


def median(values):
    return float(statistics.median(values))


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    csl = load_csl()
    from workloads import WORKLOADS
    workload = WORKLOADS[workload_name]
    main_thread = threading.get_ident()

    # Set-up runs on one thread at a time (the interpreter lock serialises
    # the shard encode and decode), the trial on workload.busy_threads.
    probes = {n: SpeedProbe(n) for n in {1, workload.busy_threads}}
    # Warm-up: one untimed trial, so lazy imports and first-call costs are paid.
    for probe in probes.values():
        probe()
    Trial(workload, workload.inputs(seed, 0))

    twin = None
    if workload.transport != "in_process":
        inputs = workload.inputs(seed, 1)
        twin = workload.run(workload.build(inputs, transport="in_process"), inputs)

    tracer = Tracer() if trace else None

    failures: list[str] = []
    attempted = failed = 0
    plain: list[Trial] = []
    traced: dict[int, Trial] = {}
    errors: list[tuple[float, float]] = []
    gen_s: list[float] = []
    start = time.perf_counter()
    trial_id = 0
    while time.perf_counter() - start < seconds or attempted < MIN_TRIALS:
        trial_id += 1
        attempted += 1
        problems: list[str] = []
        try:
            t0 = time.perf_counter()
            inputs = workload.inputs(seed, trial_id)
            gen_s.append(time.perf_counter() - t0)
            if tracer is None:
                before = {n: probe() for n, probe in probes.items()}
                trial = Trial(workload, inputs)
                trial.probe_s = {n: before[n] + probe() for n, probe in probes.items()}
            else:
                trial, traced[trial_id], problems = traced_pair(
                    workload, inputs, tracer, trial_id, seed)
            plain.append(trial)
            problems += ledger_problems(workload, trial)
            if twin is not None and trial_id == 1:
                differ = same_bits(twin, trial.outputs)
                if differ:
                    problems.append("tcp and in-process outputs differ: " + ", ".join(differ))
            check_problems, error, ref_error = workload.check(inputs, trial.outputs)
            problems += check_problems
            errors.append((error, ref_error))
        except csl.CslError as exc:
            problems.append(f"{type(exc).__name__}: {exc}")
        if problems:
            failed += 1
            failures += [f"trial {trial_id}: {p}" for p in problems]
        _release_free_heap()

    for line in failures:
        print(f"FAIL {line}")
    if tracer is None:
        metrics = end_to_end(workload, plain, errors, gen_s)
    else:
        metrics = traced_metrics(workload, tracer, plain, traced, main_thread)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def traced_pair(workload, inputs, tracer, trial_id, seed):
    """A plain and a traced pass on the same inputs, in alternating order.

    Returns (plain pass, traced pass, problems). The traced pass must match
    the plain one bitwise, restore every wrapped name, and on a TCP workload
    pack exactly the frames the protocol prescribes.
    """
    problems = []
    plain = traced = None
    first_span = len(tracer.spans)
    for traced_turn in ((False, True) if trial_id % 2 else (True, False)):
        if not traced_turn:
            plain = Trial(workload, inputs)
            continue
        tracer.trial = trial_id
        tracer.install()
        try:
            tracer.phase = "datagen"
            regenerated = workload.inputs(seed, trial_id)
            traced = Trial(workload, regenerated, tracer)
        finally:
            tracer.phase = None
            unrestored = tracer.restore()
        if unrestored:
            problems.append("tracer left wrapped: " + ", ".join(unrestored))
    differ = same_bits(plain.outputs, traced.outputs)
    if differ:
        problems.append("traced outputs differ: " + ", ".join(differ))
    for field in ("vectors", "samples_moved", "rounds"):
        if getattr(plain, field) != getattr(traced, field):
            problems.append(f"traced ledger {field} differs")
    if workload.transport != "in_process" and "transport.pack_frame" not in tracer.missing_spans:
        frames = [s[NOTE] for s in tracer.spans[first_span:]
                  if s[NAME] == "transport.pack_frame" and s[PHASE] == "trial"]
        vector_bytes = sum(p for op, p in frames if op in VECTOR_OPCODES)
        if len(frames) != workload.expected_frames:
            problems.append(f"{len(frames)} frames packed, expected {workload.expected_frames}")
        if vector_bytes != 8 * workload.d * traced.vectors:
            problems.append(f"{vector_bytes} vector payload bytes for "
                            f"{traced.vectors} ledger vectors of dimension {workload.d}")
    return plain, traced, problems


def end_to_end(workload, trials, errors, gen_s) -> dict:
    def speed(threads):
        probe_s = median([s for t in trials for s in t.probe_s[threads]])
        return SpeedProbe.REFERENCE_S[threads] / probe_s

    trial_speed, setup_speed = speed(workload.busy_threads), speed(1)
    wall_trial_s = [t.trial_s for t in trials]
    wall_setup_s = [s for t in trials for s in t.setups]
    trial_s = [s * trial_speed for s in wall_trial_s]
    setup_s = [s * setup_speed for s in wall_setup_s]
    headline = [e for e, _ in errors]
    # Relative mean squared error: the trials' total squared error of the
    # headline estimator over that of the pooled-data reference on the same
    # data. The per-trial statistical error cancels in the ratio far better
    # than in a median of raw squared errors.
    rel_mse = sum(headline) / sum(r for _, r in errors) if errors else float("nan")
    rows = [
        ("trial_s", median(trial_s), "s", len(trial_s), spread(trial_s)),
        ("setup_s", median(setup_s), "s", len(setup_s), spread(setup_s)),
        ("vectors_per_trial", median([t.vectors for t in trials]), "count", len(trials), None),
        ("est_error", rel_mse, "ratio", len(errors), None),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
         1, None),
    ]
    print(f"workload {workload.name}: {len(trials)} trials")
    for name, value, unit, n, iqr in rows:
        extra = f"  iqr={iqr:.4g}" if iqr is not None else ""
        print(f"  {name:<20} {value:>14.6g} {unit:<6} n={n}{extra}")
    print(f"  {'sq_error':<20} {median(headline):>14.6g} {'sq':<6} n={len(headline)}"
          "  (median headline squared distance to theta*)")
    print(f"  {'datagen_s':<20} {median(gen_s):>14.6g} {'s':<6} n={len(gen_s)}")
    print(f"  {'trial_wall_s':<20} {median(wall_trial_s):>14.6g} {'s':<6} n={len(wall_trial_s)}"
          f"  iqr={spread(wall_trial_s):.4g}")
    print(f"  {'setup_wall_s':<20} {median(wall_setup_s):>14.6g} {'s':<6} n={len(wall_setup_s)}"
          f"  iqr={spread(wall_setup_s):.4g}")
    print(f"  {'speed_factor':<20} {trial_speed:>14.6g} {'ratio':<6} n={len(trials)}"
          f"  (trial; kernel on {workload.busy_threads} thread(s))")
    print(f"  {'setup_speed_factor':<20} {setup_speed:>14.6g} {'ratio':<6} n={len(trials)}"
          "  (set-up; kernel on 1 thread)")
    print("  trial_s samples: " + " ".join(f"{s:.4f}" for s in trial_s))
    return {name: {"value": value, "unit": unit} for name, value, unit, _, _ in rows}


def traced_metrics(workload, tracer, plain, traced, main_thread) -> dict:
    records = {t: {"vectors": tr.vectors, "samples_moved": tr.samples_moved,
                   "setups": len(tr.setups), "window": tr.window}
               for t, tr in traced.items()}
    view = TraceView(tracer.spans, records, main_thread)
    metrics = per_layer_metrics(
        view, tracer.missing_spans, d=workload.d,
        untraced_trial_s=[t.trial_s for t in plain],
        traced_trial_s=[t.trial_s for t in traced.values()],
        traced_setup_s=[s for t in traced.values() for s in t.setups])
    print(f"workload {workload.name}: {len(traced)} traced trials")
    for target in tracer.missing:
        print(f"  MISSING wrap target {target}")
    for name, entry in metrics.items():
        shown = "MISSING" if entry["value"] == -1.0 else f"{entry['value']:.6g}"
        print(f"  {name:<40} {shown:>14} {entry['unit']}")
    print("  self time per thread and layer (median per trial, s):")
    for label, row in thread_table(view).items():
        cells = " ".join(f"{layer}={value:.4f}" for layer, value in row.items() if value)
        print(f"    {label:<9} {cells}")
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR, f"{workload.name}.spans.jsonl"), main_thread)
    return metrics


def environment() -> dict:
    """Machine and numeric-library record for the baseline file."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads_env": {var: os.environ.get(var) for var in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads": openblas_threads(),
        "platform": platform.platform(),
    }


def openblas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--environment", action="store_true",
                        help="print the environment record as JSON and exit")
    args = parser.parse_args(argv)
    if args.environment:
        print(json.dumps(environment()))
        return 0
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
