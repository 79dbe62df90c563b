"""Span tracing of sfdalab from outside the library.

``Tracer`` replaces the listed functions and methods of the program's
modules with wrappers that record one span per call (name, start, end,
parent) and put the originals back on exit. Call sites that imported a
function by name are patched too, because every sfdalab module that
holds a reference to an original gets the wrapper.

Self time of a span is its duration minus the time its child spans
cover; spans nest and never overlap, since the program is single-threaded.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

import checks

# the traced boundaries, by module; functions not listed run inside their
# caller's span (softmax_vjp in backward, parse_data_spec in cli.main, ...)
TRACED = {
    "datasets": ("make_twin_moons", "rotate_dataset", "make_open_set_variant"),
    "model": ("forward", "backward", "sgd_step", "save_checkpoint", "load_checkpoint"),
    "bank": ("MemoryBank.update", "MemoryBank.knn_batch", "MemoryBank.knn_slots",
             "MemoryBank.snapshot"),
    "objectives": ("attract_disperse_loss", "disperse_only_loss", "mi_loss", "bnm_loss",
                   "nc_loss", "cross_entropy_loss"),
    "metrics": ("snd_score", "agreement_ratios", "classification_report"),
    "orchestrator": ("pretrain_source", "adapt", "_record_epoch", "sweep_beta",
                     "save_sweep_csv"),
    "cli": ("main",),
}

# forwards of more rows than this are whole-dataset passes: every
# workload's minibatches are at most 64 rows, its datasets larger
FULL_FORWARD_ROWS = 64

# one knn_batch call in this many is compared against the brute-force oracle
ORACLE_EVERY = 50


class Tracer:
    def __init__(self):
        self.stack = []          # [span index, start ns, child ns]
        self.spans = []          # [name, start ns, end ns, parent index]
        self.keep_spans = True
        self.reset()
        self._restore = []

    def reset(self) -> None:
        """Clear the aggregates; spans already kept stay."""
        self.count = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.incl_ns = defaultdict(int)
        self.knn_entries = 0
        self.snd_entries = 0
        self.dup_rows = 0
        self.knn_calls = 0
        # per round: the current adaptation run (in call order), the KNN
        # calls kept for the oracle and the rows holding the query's own id,
        # each with the index of its adaptation run
        self.start_round()

    def start_round(self) -> None:
        """Forget the previous round's KNN samples and adaptation-run count."""
        self.adapt_index = -1
        self.knn_samples, self.own_id = [], []

    def _span(self, name: str, fn, *args, **kwargs):
        idx = -1
        parent = self.stack[-1][0] if self.stack else -1
        if self.keep_spans:
            idx = len(self.spans)
            self.spans.append([name, 0, 0, parent])
        frame = [idx, time.perf_counter_ns(), 0]
        self.stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            dur = end - frame[1]
            self.count[name] += 1
            self.self_ns[name] += dur - frame[2]
            self.incl_ns[name] += dur
            if self.stack:
                self.stack[-1][2] += dur
            if idx >= 0:
                self.spans[idx][1:3] = frame[1], end

    def _wrapper(self, name: str, fn):
        tracer = self
        if name == "model.forward":
            def wrapper(model, X, *a, **kw):
                kind = "full" if np.shape(X)[0] > FULL_FORWARD_ROWS else "batch"
                return tracer._span(f"model.forward_{kind}", fn, model, X, *a, **kw)
        elif name == "orchestrator.adapt":
            def wrapper(*a, **kw):
                tracer.adapt_index += 1
                return tracer._span(name, fn, *a, **kw)
        elif name == "metrics.snd_score":
            def wrapper(P, *a, **kw):
                tracer.snd_entries += np.shape(P)[0] ** 2
                return tracer._span(name, fn, P, *a, **kw)
        elif name == "bank.MemoryBank.knn_slots":
            def wrapper(bank, queries, *a, **kw):
                tracer.knn_entries += np.shape(queries)[0] * bank.filled
                return tracer._span(name, fn, bank, queries, *a, **kw)
        elif name == "bank.MemoryBank.knn_batch":
            def wrapper(bank, queries, k, exclude_ids=None):
                out = tracer._span(name, fn, bank, queries, k, exclude_ids)
                # a span of its own keeps the checks out of the caller's self time
                tracer._span("trace.checks", tracer._check_knn, bank, queries, k,
                             exclude_ids, out[0])
                return out
        else:
            def wrapper(*a, **kw):
                return tracer._span(name, fn, *a, **kw)
        return wrapper

    def _check_knn(self, bank, queries, k, exclude_ids, ids) -> None:
        """Count repeated-id rows and rows holding the query's own id; keep
        one call in ORACLE_EVERY, with the bank as it stood, for the oracle.
        knn_batch does not change the bank, so its state after the call is
        the state the call saw."""
        sample = self.knn_calls % ORACLE_EVERY == 0
        self.knn_calls += 1
        self.dup_rows += checks.dup_rows(ids)
        if exclude_ids is None:
            return
        excl = np.asarray(exclude_ids, dtype=np.int64).ravel()
        rows = checks.own_id_rows(ids, excl)
        if rows:
            self.own_id.append((self.adapt_index, rows))
        if sample:
            self.knn_samples.append((self.adapt_index, (
                bank.sample_ids.copy(), bank.features.copy(),
                np.array(queries, dtype=np.float64), k, excl.copy(), ids.copy())))

    def __enter__(self):
        mods = {name: mod for name, mod in sys.modules.items()
                if mod is not None and (name == "sfdalab" or name.startswith("sfdalab."))}
        for short, attrs in TRACED.items():
            mod = mods[f"sfdalab.{short}"]
            for attr in attrs:
                owner_name, _, fname = attr.rpartition(".")
                if owner_name:            # a method: patch the class
                    owner = getattr(mod, owner_name)
                    fn = owner.__dict__[fname]
                    self._patch(owner, fname, self._wrapper(f"{short}.{attr}", fn))
                    continue
                fn = getattr(mod, fname)
                wrapper = self._wrapper(f"{short}.{fname}", fn)
                for other in mods.values():   # every module that imported it by name
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            self._patch(other, key, wrapper)
        return self

    def _patch(self, owner, key, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def __exit__(self, *exc):
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)
        return False

    def aggregates(self) -> dict:
        return {"count": dict(self.count), "self_ns": dict(self.self_ns),
                "incl_ns": dict(self.incl_ns), "knn_entries": self.knn_entries,
                "snd_entries": self.snd_entries, "dup_rows": self.dup_rows}


def layer_metrics(agg: dict) -> dict:
    """The per-layer figures, from one ``Tracer.aggregates()`` dict."""
    cnt, own, incl = agg["count"], agg["self_ns"], agg["incl_ns"]

    def s(*names, table=own):
        return sum(table.get(n, 0) for n in names) / 1e9

    losses = [n for n in cnt if n.startswith("objectives.")]
    knn_s = s("bank.MemoryBank.knn_batch", "bank.MemoryBank.knn_slots")
    snd_s = s("metrics.snd_score")
    adapt_s = s("orchestrator.adapt", table=incl)
    eval_s = s("orchestrator._record_epoch", table=incl)
    out = {
        "bank.knn_s": (knn_s, "s"),
        "bank.knn_calls": (cnt.get("bank.MemoryBank.knn_slots", 0), "count"),
        "bank.knn_entries": (agg["knn_entries"], "count"),
        "bank.knn_ns_per_entry": (_per(knn_s, agg["knn_entries"]), "ns"),
        "bank.update_s": (s("bank.MemoryBank.update"), "s"),
        "bank.update_calls": (cnt.get("bank.MemoryBank.update", 0), "count"),
        "bank.snapshot_s": (s("bank.MemoryBank.snapshot"), "s"),
        "bank.dup_neighbor_rows": (agg["dup_rows"], "count"),
        "metrics.snd_s": (snd_s, "s"),
        "metrics.snd_entries": (agg["snd_entries"], "count"),
        "metrics.snd_ns_per_entry": (_per(snd_s, agg["snd_entries"]), "ns"),
        "metrics.agreement_s": (s("metrics.agreement_ratios"), "s"),
        "metrics.report_s": (s("metrics.classification_report"), "s"),
        "model.forward_s": (s("model.forward_batch", "model.forward_full"), "s"),
        "model.forward_batch_s": (s("model.forward_batch"), "s"),
        "model.forward_full_s": (s("model.forward_full"), "s"),
        "model.backward_s": (s("model.backward"), "s"),
        "model.sgd_step_s": (s("model.sgd_step"), "s"),
        "model.checkpoint_io_s": (s("model.save_checkpoint", "model.load_checkpoint"), "s"),
        "objectives.loss_s": (s(*losses), "s"),
        "objectives.loss_calls": (sum(cnt[n] for n in losses), "count"),
        "orchestrator.adapt_s": (adapt_s, "s"),
        "orchestrator.adapt_calls": (cnt.get("orchestrator.adapt", 0), "count"),
        "orchestrator.epoch_eval_s": (eval_s, "s"),
        "orchestrator.loop_s": (adapt_s - eval_s, "s"),
        "orchestrator.self_s": (s("orchestrator.adapt", "orchestrator._record_epoch",
                                  "orchestrator.pretrain_source"), "s"),
        "orchestrator.pretrain_s": (s("orchestrator.pretrain_source", table=incl), "s"),
        "orchestrator.sweep_s": (s("orchestrator.sweep_beta", "orchestrator.save_sweep_csv"), "s"),
        "datasets.generate_s": (s(*[n for n in cnt if n.startswith("datasets.")]), "s"),
        "cli.self_s": (s("cli.main"), "s"),
    }
    return out


def _per(seconds: float, entries: int) -> float:
    return seconds * 1e9 / entries if entries else 0.0


def combine(setup: dict, rounds: dict, n_rounds: int) -> dict:
    """Aggregates of one set-up plus the mean of ``n_rounds`` rounds."""
    out = {}
    for key in ("count", "self_ns", "incl_ns"):
        names = set(setup[key]) | set(rounds[key])
        out[key] = {n: setup[key].get(n, 0) + rounds[key].get(n, 0) / n_rounds for n in names}
    for key in ("knn_entries", "snd_entries", "dup_rows"):
        out[key] = setup[key] + rounds[key] / n_rounds
    return out
