"""Per-layer metrics from the spans of a traced run.

Counts and times are summed per trial (or per set-up for set-up metrics) and
the median over trials is reported; ratios are taken over the totals of all
traced trials. Time metrics sum over every thread that ran the layer. On
mest_tcp the workers' spans overlap the coordinator's wait in
``transport.recv_wait_s``, so those sums are not shares of the trial; the
per-thread table printed beside them, and ``solvers.newton_coord_s`` and
``solvers.newton_worker_s``, split them by thread.

A metric that reads a span whose wrap target no longer exists reports
``MISSING`` (-1) instead of a zero, and the target is named in the output.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import END, ID, NAME, NOTE, PARENT, PHASE, START, THREAD, TRIAL

MISSING = -1.0

LOSS_SPANS = ("losses.value", "losses.grad", "losses.value_grad", "losses.hessian",
              "losses.per_sample")
VECTOR_OPCODES = (0x02, 0x03, 0x05)  # gradient request, gradient reply, local-min reply
LOAD_SHARD_OPCODE = 0x01
LAYERS = ("cluster", "transport", "losses", "surrogate", "solvers", "estimators",
          "inference", "sparse", "bayes", "datagen")


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class TraceView:
    """Spans of a traced run, indexed for per-trial queries.

    ``trials`` maps trial id to that trial's record from the harness: its
    ledger deltas, set-up count and trial window.
    """

    def __init__(self, spans, trials: dict, main_thread: int):
        self.spans = spans
        self.trials = trials
        self.main_thread = main_thread
        self.by_id = {s[ID]: s for s in spans}
        self.child_time: dict[int, float] = defaultdict(float)
        self.groups: dict[tuple, list] = defaultdict(list)
        for s in spans:
            if s[PARENT] >= 0:
                self.child_time[s[PARENT]] += s[END] - s[START]
            self.groups[(s[TRIAL], s[PHASE], s[NAME])].append(s)

    def select(self, trial, names, phase="trial"):
        if isinstance(names, str):
            names = (names,)
        return [s for name in names for s in self.groups.get((trial, phase, name), ())]

    def self_time(self, s) -> float:
        return s[END] - s[START] - self.child_time[s[ID]]

    def per_trial(self, fn) -> float:
        return _median(fn(t) for t in self.trials)

    def count(self, names, phase="trial") -> float:
        return self.per_trial(lambda t: len(self.select(t, names, phase)))

    def total(self, names, phase="trial", own=False) -> float:
        """Median per trial of the summed span time (self time if ``own``)."""
        measure = self.self_time if own else (lambda s: s[END] - s[START])
        return self.per_trial(lambda t: sum(measure(s) for s in self.select(t, names, phase)))

    def per_setup(self, fn) -> float:
        return self.per_trial(lambda t: fn(t) / self.trials[t]["setups"])

    def everywhere(self, names, phase="trial"):
        return [s for t in self.trials for s in self.select(t, names, phase)]

    def frames(self, t, phase, opcodes=None):
        return [s[NOTE] for s in self.select(t, "transport.pack_frame", phase)
                if s[NOTE] is not None and (opcodes is None or s[NOTE][0] in opcodes)]

    def thread_labels(self):
        labels = {self.main_thread: "coord"}
        for s in sorted(self.spans, key=lambda r: r[START]):
            labels.setdefault(s[THREAD], f"worker-{len(labels)}")
        return labels

    def worker_max(self, names) -> float:
        """Median per trial of the busiest worker thread's summed span time."""
        def busiest(t):
            per_thread = defaultdict(float)
            for s in self.select(t, names):
                if s[THREAD] != self.main_thread:
                    per_thread[s[THREAD]] += s[END] - s[START]
            return max(per_thread.values(), default=0.0)
        return self.per_trial(busiest)


def _unattributed(view: TraceView, t) -> float:
    start, end = view.trials[t]["window"]
    covered = sum(s[END] - s[START] for key, group in view.groups.items()
                  if key[0] == t and key[1] == "trial"
                  for s in group if s[PARENT] < 0 and s[THREAD] == view.main_thread)
    return 1.0 - covered / (end - start)


def _hessians_per_solve(view: TraceView) -> float:
    newton = view.everywhere("solvers.newton")
    hessians = [s for s in view.everywhere("losses.hessian")
                if s[PARENT] >= 0 and view.by_id[s[PARENT]][NAME] == "solvers.newton"]
    return _ratio(len(hessians), len(newton))


def _ledger(view: TraceView, key: str) -> float:
    return view.per_trial(lambda t: view.trials[t][key])


def metric_table(view: TraceView, d: int, untraced_trial_s: list[float],
                 traced_trial_s: list[float], traced_setup_s: list[float],
                 n_missing: int):
    """(name, unit, span names read, thunk) for every per-layer metric."""
    gradient_rounds = ("cluster.gradient_round", "cluster.gradient_vectors_at")
    targets = ("bayes.surrogate_target", "bayes.full_target")
    fista = view.everywhere("sparse.fista")
    chains = view.everywhere("bayes.metropolis")
    loss_spans = view.everywhere(LOSS_SPANS)
    vector_bytes = sum(p for t in view.trials for _, p in view.frames(t, "trial", VECTOR_OPCODES))
    ledger_bytes = 8 * d * sum(view.trials[t]["vectors"] for t in view.trials)
    steps = sum(s[NOTE][0] for s in chains if s[NOTE])
    iters = sum(s[NOTE][0] for s in fista if s[NOTE])
    return [
        ("cluster.setup_s", "s", ["cluster.init"],
         lambda: _median(s[END] - s[START] for s in view.everywhere("cluster.init", "setup"))),
        ("cluster.gradient_rounds", "count", list(gradient_rounds),
         lambda: view.count(gradient_rounds)),
        ("cluster.vectors_sent", "count", [], lambda: _ledger(view, "vectors")),
        ("cluster.samples_moved", "count", [], lambda: _ledger(view, "samples_moved")),
        ("cluster.gradient_round_s", "s", list(gradient_rounds),
         lambda: _median(s[END] - s[START] for s in view.everywhere(gradient_rounds))),
        ("cluster.local_min_round_s", "s", ["cluster.local_minimizer_round"],
         lambda: _median(s[END] - s[START]
                         for s in view.everywhere("cluster.local_minimizer_round"))),
        ("cluster.pooled_shard_s", "s", ["cluster.pooled_shard"],
         lambda: view.total("cluster.pooled_shard")),
        ("transport.shard_load_s", "s", ["transport.load_shard"],
         lambda: view.per_setup(lambda t: sum(
             s[END] - s[START] for s in view.select(t, "transport.load_shard", "setup")))),
        ("transport.shard_encode_s", "s", ["transport.shard_to_csv"],
         lambda: view.per_setup(lambda t: sum(
             s[END] - s[START] for s in view.select(t, "transport.shard_to_csv", "setup")))),
        ("transport.shard_decode_s", "s", ["transport.shard_from_csv"],
         lambda: view.per_setup(lambda t: sum(
             s[END] - s[START] for s in view.select(t, "transport.shard_from_csv", "setup")))),
        ("transport.load_bytes", "bytes", ["transport.pack_frame"],
         lambda: view.per_setup(lambda t: sum(
             p for _, p in view.frames(t, "setup", (LOAD_SHARD_OPCODE,))))),
        ("transport.frames", "count", ["transport.pack_frame"],
         lambda: view.per_trial(lambda t: len(view.frames(t, "trial")))),
        ("transport.vector_bytes", "bytes", ["transport.pack_frame"],
         lambda: view.per_trial(lambda t: sum(
             p for _, p in view.frames(t, "trial", VECTOR_OPCODES)))),
        ("transport.recv_wait_s", "s", ["transport.recv_gradient", "transport.recv_local_min"],
         lambda: view.total(("transport.recv_gradient", "transport.recv_local_min"))),
        ("transport.vector_bytes_per_ledger_byte", "ratio", ["transport.pack_frame"],
         lambda: _ratio(vector_bytes, ledger_bytes)),
        ("losses.value_calls", "count", ["losses.value"], lambda: view.count("losses.value")),
        ("losses.value_s", "s", ["losses.value"], lambda: view.total("losses.value", own=True)),
        ("losses.grad_calls", "count", ["losses.grad"], lambda: view.count("losses.grad")),
        ("losses.grad_s", "s", ["losses.grad"], lambda: view.total("losses.grad", own=True)),
        ("losses.hessian_calls", "count", ["losses.hessian"],
         lambda: view.count("losses.hessian")),
        ("losses.hessian_s", "s", ["losses.hessian"],
         lambda: view.total("losses.hessian", own=True)),
        ("losses.per_sample_s", "s", ["losses.per_sample"],
         lambda: view.total("losses.per_sample", own=True)),
        ("losses.value_grad_calls", "count", ["losses.value_grad"],
         lambda: view.count("losses.value_grad")),
        ("losses.value_grad_s", "s", ["losses.value_grad"],
         lambda: view.total("losses.value_grad", own=True)),
        ("losses.rows_per_s", "1/s", list(LOSS_SPANS),
         lambda: _ratio(sum(s[NOTE] for s in loss_spans if s[NOTE]),
                        sum(view.self_time(s) for s in loss_spans))),
        ("surrogate.builds", "count", ["surrogate.build", "surrogate.build_quadratic"],
         lambda: view.count(("surrogate.build", "surrogate.build_quadratic"))),
        ("surrogate.build_s", "s", ["surrogate.build", "surrogate.build_quadratic"],
         lambda: view.total(("surrogate.build", "surrogate.build_quadratic"), own=True)),
        ("surrogate.value_calls", "count", ["surrogate.value"],
         lambda: view.count("surrogate.value")),
        ("surrogate.value_s", "s", ["surrogate.value"],
         lambda: view.total("surrogate.value", own=True)),
        ("surrogate.value_grad_s", "s", ["surrogate.value_grad"],
         lambda: view.total("surrogate.value_grad", own=True)),
        ("solvers.newton_calls", "count", ["solvers.newton"],
         lambda: view.count("solvers.newton")),
        ("solvers.newton_s", "s", ["solvers.newton"], lambda: view.total("solvers.newton")),
        ("solvers.newton_coord_s", "s", ["solvers.newton"],
         lambda: view.per_trial(lambda t: sum(
             s[END] - s[START] for s in view.select(t, "solvers.newton")
             if s[THREAD] == view.main_thread))),
        ("solvers.newton_worker_s", "s", ["solvers.newton"],
         lambda: view.worker_max("solvers.newton")),
        ("solvers.hessians_per_solve", "ratio", ["solvers.newton", "losses.hessian"],
         lambda: _hessians_per_solve(view)),
        ("estimators.averaging_s", "s", ["estimators.averaging"],
         lambda: view.total("estimators.averaging")),
        ("estimators.ilea_s", "s", ["estimators.ilea"], lambda: view.total("estimators.ilea")),
        ("estimators.one_step_s", "s", ["estimators.one_step"],
         lambda: view.total("estimators.one_step")),
        ("inference.sigma_local_s", "s", ["inference.sigma_local"],
         lambda: view.total("inference.sigma_local")),
        ("inference.sigma_cross_s", "s", ["inference.sigma_cross"],
         lambda: view.total("inference.sigma_cross")),
        ("inference.ci_s", "s", ["inference.ci"], lambda: view.total("inference.ci")),
        ("sparse.fista_calls", "count", ["sparse.fista"], lambda: view.count("sparse.fista")),
        ("sparse.fista_iters", "count", ["sparse.fista"],
         lambda: view.per_trial(lambda t: sum(
             s[NOTE][0] for s in view.select(t, "sparse.fista") if s[NOTE]))),
        ("sparse.fista_s", "s", ["sparse.fista"], lambda: view.total("sparse.fista")),
        ("sparse.fista_us_per_iter", "us", ["sparse.fista"],
         lambda: 1e6 * _ratio(sum(s[END] - s[START] for s in fista), iters)),
        ("sparse.csl_lasso_s", "s", ["sparse.csl_lasso"], lambda: view.total("sparse.csl_lasso")),
        ("sparse.averaging_lasso_s", "s", ["sparse.averaging_lasso"],
         lambda: view.total("sparse.averaging_lasso")),
        ("sparse.unconverged", "ratio", ["sparse.fista"],
         lambda: _ratio(sum(1 for s in fista if s[NOTE] and not s[NOTE][1]), len(fista))),
        ("bayes.steps", "count", ["bayes.metropolis"],
         lambda: view.per_trial(lambda t: sum(
             s[NOTE][0] for s in view.select(t, "bayes.metropolis") if s[NOTE]))),
        ("bayes.metropolis_s", "s", ["bayes.metropolis"],
         lambda: view.total("bayes.metropolis")),
        ("bayes.step_us", "us", ["bayes.metropolis"],
         lambda: 1e6 * _ratio(sum(s[END] - s[START] for s in chains), steps)),
        ("bayes.target_s", "s", list(targets), lambda: view.total(targets)),
        ("bayes.loop_self_s", "s", ["bayes.metropolis"] + list(targets),
         lambda: view.per_trial(lambda t: sum(
             s[END] - s[START] for s in view.select(t, "bayes.metropolis"))
             - sum(s[END] - s[START] for s in view.select(t, targets)))),
        ("bayes.accept_rate", "ratio", ["bayes.metropolis"],
         lambda: _ratio(sum(s[NOTE][1] for s in chains if s[NOTE]), steps)),
        ("datagen.gen_s", "s", ["datagen.gen_logistic", "datagen.gen_sparse_linear"],
         lambda: view.total(("datagen.gen_logistic", "datagen.gen_sparse_linear"), "datagen")),
        ("trace.trial_s", "s", [], lambda: _median(traced_trial_s)),
        ("trace.setup_s", "s", [], lambda: _median(traced_setup_s)),
        ("trace.overhead_frac", "ratio", [],
         lambda: _median(traced_trial_s) / _median(untraced_trial_s) - 1.0),
        ("trace.unattributed_frac", "ratio", [],
         lambda: view.per_trial(lambda t: _unattributed(view, t))),
        ("trace.missing_targets", "count", [], lambda: float(n_missing)),
    ]


def per_layer_metrics(view: TraceView, missing_spans: set[str], **kwargs) -> dict:
    """Every per-layer metric as {name: {"value", "unit"}}."""
    metrics = {}
    for name, unit, reads, thunk in metric_table(view, n_missing=len(missing_spans), **kwargs):
        value = MISSING if missing_spans.intersection(reads) else float(thunk())
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def thread_table(view: TraceView) -> dict[str, dict[str, float]]:
    """Median per trial of each thread's self time in each layer, so that
    worker time is read beside, not as part of, the coordinator's."""
    labels = view.thread_labels()
    table: dict[str, dict[str, float]] = {}
    for thread, label in labels.items():
        row = {}
        for layer in LAYERS:
            row[layer] = view.per_trial(lambda t: sum(
                view.self_time(s) for key, group in view.groups.items()
                if key[0] == t and key[1] == "trial" and key[2].split(".")[0] == layer
                for s in group if s[THREAD] == thread))
        table[label] = row
    return table
