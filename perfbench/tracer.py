"""Outside-in span tracer for the csl benchmark.

The tracer wraps public functions and methods of the csl package from the
outside. A module-level function is replaced in every csl module namespace
that bound it, so ``csl.solvers.loss_value`` and ``csl.losses.loss_value``
are both traced; a method is replaced on its class. Each call records one
span: id, name, start, end, parent span id on the same thread, trial id,
phase and thread. Spans stay in memory until :meth:`Tracer.dump`.

Nothing in the package source changes. :meth:`Tracer.restore` puts every
original object back and reports any name it could not restore.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

# Field positions in a span record.
ID, NAME, START, END, PARENT, TRIAL, PHASE, THREAD, NOTE = range(9)

_FRAME_HEADER_BYTES = 5  # csl.transport frames: 1-byte opcode + 4-byte length


def _rows(args, kwargs, result):
    """Rows of the shard a loss function evaluated: (model, theta, shard)."""
    shard = args[2] if len(args) > 2 else kwargs["shard"]
    return shard.n_samples


def _frame(args, kwargs, result):
    """(opcode, payload bytes) of a packed frame."""
    return args[0], len(result) - _FRAME_HEADER_BYTES


def _fit(args, kwargs, result):
    """(iterations, converged) of a returned SparseEstimate."""
    return result.iterations, bool(result.converged)


def _chain(args, kwargs, result):
    """(steps, accepted steps) of a returned Chain."""
    return int(result.samples.shape[0]), int(result.accepted.sum())


# (span name, defining module, attribute, note taken from the call)
TARGETS = [
    ("cluster.init", "csl.cluster", "Cluster.__init__", None),
    ("cluster.gradient_round", "csl.cluster", "Cluster.gradient_round", None),
    ("cluster.gradient_vectors_at", "csl.cluster", "Cluster.gradient_vectors_at", None),
    ("cluster.local_minimizer_round", "csl.cluster", "Cluster.local_minimizer_round", None),
    ("cluster.pooled_shard", "csl.cluster", "Cluster.pooled_shard", None),
    ("cluster.close", "csl.cluster", "Cluster.close", None),
    ("transport.load_shard", "csl.transport", "WorkerClient.load_shard", None),
    ("transport.recv_gradient", "csl.transport", "WorkerClient.recv_gradient", None),
    ("transport.recv_local_min", "csl.transport", "WorkerClient.recv_local_min", None),
    ("transport.pack_frame", "csl.transport", "pack_frame", _frame),
    ("transport.shard_to_csv", "csl.losses", "shard_to_csv", None),
    ("transport.shard_from_csv", "csl.losses", "shard_from_csv", None),
    ("losses.value", "csl.losses", "loss_value", _rows),
    ("losses.grad", "csl.losses", "loss_gradient", _rows),
    ("losses.value_grad", "csl.losses", "loss_value_gradient", _rows),
    ("losses.hessian", "csl.losses", "loss_hessian", _rows),
    ("losses.per_sample", "csl.losses", "per_sample_gradients", _rows),
    ("surrogate.build", "csl.surrogate", "build_surrogate", None),
    ("surrogate.build_quadratic", "csl.surrogate", "build_quadratic_surrogate", None),
    ("surrogate.value", "csl.surrogate", "surrogate_value", None),
    ("surrogate.value_grad", "csl.surrogate", "surrogate_value_gradient", None),
    ("solvers.newton", "csl.solvers", "newton_minimize", None),
    ("estimators.averaging", "csl.estimators", "averaging_estimator", None),
    ("estimators.ilea", "csl.estimators", "ilea", None),
    ("estimators.one_step", "csl.estimators", "one_step_update", None),
    ("inference.sigma_local", "csl.inference", "sigma_local", None),
    ("inference.sigma_cross", "csl.inference", "sigma_cross", None),
    ("inference.ci", "csl.inference", "confidence_intervals", None),
    ("sparse.fista", "csl.sparse", "fista_l1", _fit),
    ("sparse.local_lasso", "csl.sparse", "local_lasso", None),
    ("sparse.csl_lasso", "csl.sparse", "csl_lasso", None),
    ("sparse.averaging_lasso", "csl.sparse", "averaging_lasso", None),
    ("bayes.run_csl_bayes", "csl.bayes", "run_csl_bayes", None),
    ("bayes.metropolis", "csl.bayes", "metropolis", _chain),
    ("bayes.surrogate_target", "csl.bayes", "surrogate_log_posterior", None),
    ("bayes.full_target", "csl.bayes", "full_log_posterior", None),
    ("bayes.marginal_l1", "csl.bayes", "marginal_l1", None),
    ("datagen.gen_logistic", "csl.datagen", "gen_logistic", None),
    ("datagen.gen_sparse_linear", "csl.datagen", "gen_sparse_linear", None),
]


class Tracer:
    """Wraps the targets on :meth:`install` and records spans while installed.

    ``trial`` and ``phase`` are set by the caller and stamped on every span,
    including spans on worker threads, which carry no parent from the
    coordinator's stack.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.trial = None
        self.phase = None
        self.missing: list[str] = []
        self.missing_spans: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def install(self) -> None:
        namespaces = [mod for name, mod in sorted(sys.modules.items())
                      if name == "csl" or name.startswith("csl.")]
        bound: dict[int, list[tuple[object, str]]] = {}
        for namespace in namespaces:
            for key, value in vars(namespace).items():
                bound.setdefault(id(value), []).append((namespace, key))
        self.missing = []
        self.missing_spans = set()
        for span_name, module_name, attribute, note in self.targets:
            owner = sys.modules.get(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None or leaf not in vars(owner):
                self.missing.append(f"{module_name}.{attribute}")
                self.missing_spans.add(span_name)
                continue
            original = vars(owner)[leaf]
            wrapper = self._wrap(span_name, original, note)
            sites = [(owner, leaf)] if path else bound.get(id(original), [])
            for namespace, key in sites:
                setattr(namespace, key, wrapper)
                self._patched.append((namespace, key, original))

    def restore(self) -> list[str]:
        """Put every wrapped name back; returns the names still not original."""
        patched, self._patched = self._patched, []
        for namespace, key, original in reversed(patched):
            setattr(namespace, key, original)
        return [f"{getattr(ns, '__name__', ns)}.{key}" for ns, key, original in patched
                if vars(ns).get(key) is not original]

    def _wrap(self, span_name, fn, note):
        tracer = self
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            rec = [next(tracer._ids), span_name, 0.0, 0.0,
                   stack[-1][ID] if stack else -1, tracer.trial, tracer.phase,
                   threading.get_ident(), None]
            stack.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                tracer.spans.append(rec)
            if note is not None:
                rec[NOTE] = note(args, kwargs, result)
            return result

        return wrapper

    def dump(self, path, main_thread: int) -> None:
        """Write the spans as JSON lines; threads other than ``main_thread``
        are labelled worker-1, worker-2, ... in order of first appearance."""
        labels = {main_thread: "coord"}
        with open(path, "w", encoding="utf-8") as out:
            for rec in sorted(self.spans, key=lambda r: r[START]):
                thread = labels.setdefault(rec[THREAD], f"worker-{len(labels)}")
                row = rec[:THREAD] + [thread, rec[NOTE]]
                out.write(json.dumps(row) + "\n")
