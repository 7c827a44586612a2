"""In-memory span tracer that wraps salsa_opt's layer boundaries from outside.

Nothing in the program is edited. While ``Tracer.patched()`` is active, the
public callables that one layer imports from another are swapped for thin
wrappers that record a span ``[name, start, end, parent]``; on exit every
original is put back. ``Problem.loss_grad`` is wrapped on a copy of the
problem made with ``dataclasses.replace``.

Span names are ``layer.part``. Calls to ``loss_grad`` are split three ways:
the first call after ``batch_for_step`` is the step's base evaluation, any
other call is a trial evaluation of the search, and a call made directly by
``replay_verify`` is a replay evaluation.

Spans are kept in memory for one run and folded into per-name totals by
``flush()``, which the caller invokes between runs. A span's self time is
its duration minus the part of its interval that its direct children cover.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

BASE_EVAL = "problems.base_eval"
TRIAL_EVAL = "problems.trial_eval"
REPLAY_EVAL = "problems.replay_eval"
EVALS = (BASE_EVAL, TRIAL_EVAL, REPLAY_EVAL)
REPLAY = "harness.replay_verify"

# (module, attribute, span name) for every function the tracer swaps. The
# module is where the name is looked up by its caller, not where it is
# defined: harness, line_search, salsa and baselines each hold their own
# binding of what they import.
FUNCTION_PATCHES = (
    ("harness", "run_single", "harness.run_single"),
    ("harness", "replay_verify", REPLAY),
    ("harness", "batch_for_step", "problems.batch_for_step"),
    ("harness", "sls_step", "line_search.step"),
    ("harness", "apply_without_search", "line_search.step"),
    ("harness", "salsa_sgd_step", "salsa.step"),
    ("harness", "salsa_adam_step", "salsa.step"),
    ("harness", "fixed_sgd_step", "baselines.step"),
    ("harness", "fixed_adam_step", "baselines.step"),
    ("line_search", "backtrack", "line_search.backtrack"),
    ("salsa", "salsa_backtrack", "salsa.backtrack"),
    ("problems", "seeded_rng", "core.seeded_rng"),
) + tuple(
    (module, fn, "directions")
    for module, fns in (
        ("line_search", ("sgd_direction", "adam_direction",
                         "adam_update_moments", "preconditioned_grad_norm")),
        ("salsa", ("sgd_direction", "adam_direction", "adam_update_moments",
                   "preconditioned_grad_norm")),
        ("baselines", ("adam_direction", "adam_update_moments")),
    )
    for fn in fns
)

# Methods patched on the class itself (every instance sees them).
METHOD_PATCHES = (
    ("append", "core.trace_append"),
    ("to_csv", "core.to_csv"),
)


def self_times(spans) -> list[float]:
    """Self time of each span in ``spans``.

    Each span is ``(name, start, end, parent_index)`` with ``parent_index``
    -1 for a root. Self time is the span's duration minus the length of the
    union of its direct children's intervals, each clipped to the span.
    """
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


@dataclasses.dataclass
class RunCounts:
    """Span counts of one flushed run, split by whether the span sat
    inside ``replay_verify``."""

    calls: Counter
    calls_in_replay: Counter


class Tracer:
    """Records spans around salsa_opt's layer boundaries.

    ``self_s[name]`` accumulates self seconds, ``calls[name]`` span counts
    (``calls_in_replay[name]`` those inside ``replay_verify``) and
    ``under[(parent, name)]`` counts by direct parent. ``root_s`` is the
    summed duration of root spans, which the self times partition.
    ``counters`` holds values the wrappers read off results: accepted search
    candidates and the frequency controller's interval.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._fresh_batch = False
        self.self_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.calls_in_replay: Counter = Counter()
        self.under: Counter = Counter()
        self.counters: Counter = Counter()
        self.root_s = 0.0
        self._table = None

    # -- recording -----------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        spans, stack = self.spans, self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
        stack.append(len(spans))
        spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    def wrap(self, name, fn, after=None):
        """Return ``fn`` wrapped in a span called ``name``; ``after(args,
        result)`` runs once the span has closed."""
        call = self._call

        def traced(*args, **kwargs):
            result = call(name, fn, args, kwargs)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _batch_done(self, args, result):
        self._fresh_batch = True

    def _ls_accepted(self, args, result):
        if result.backtracks < args[-1].max_backtracks:
            self.counters["line_search.accepted"] += 1

    def _salsa_accepted(self, args, result):
        if result[1] < args[-1].max_backtracks:
            self.counters["salsa.accepted"] += 1

    def _interval(self, args, result):
        self.counters["frequency.L_sum"] += args[0].state.L
        self.counters["frequency.L_n"] += 1

    def traced_problem(self, problem):
        """A copy of ``problem`` whose ``loss_grad`` records eval spans."""
        loss_grad = problem.loss_grad
        spans, stack, call = self.spans, self._stack, self._call

        def traced_loss_grad(*args, **kwargs):
            if stack and spans[stack[-1]][0] == REPLAY:
                name = REPLAY_EVAL
            elif self._fresh_batch:
                name = BASE_EVAL
                self._fresh_batch = False
            else:
                name = TRIAL_EVAL
            return call(name, loss_grad, args, kwargs)

        traced_loss_grad.__wrapped__ = loss_grad
        return dataclasses.replace(problem, loss_grad=traced_loss_grad)

    # -- patching ------------------------------------------------------

    def _patch_table(self):
        from salsa_opt import baselines, core, harness, line_search, problems, salsa
        modules = {"harness": harness, "line_search": line_search,
                   "salsa": salsa, "baselines": baselines,
                   "problems": problems}
        hooks = {"problems.batch_for_step": self._batch_done,
                 "line_search.backtrack": self._ls_accepted,
                 "salsa.backtrack": self._salsa_accepted}
        table = []
        for module, attr, name in FUNCTION_PATCHES:
            owner = modules[module]
            table.append((owner, attr, self.wrap(name, getattr(owner, attr),
                                                 hooks.get(name))))
        for attr, name in METHOD_PATCHES:
            table.append((core.TrainingTrace, attr,
                          self.wrap(name, getattr(core.TrainingTrace, attr))))

        base = harness.FrequencyController
        traced_controller = type("TracedFrequencyController", (base,), {
            "should_search": self.wrap("frequency", base.should_search,
                                       self._interval),
            "record_search": self.wrap("frequency", base.record_search),
            "record_skip": self.wrap("frequency", base.record_skip),
        })
        table.append((harness, "FrequencyController", traced_controller))
        return table

    @contextmanager
    def patched(self):
        """Install every wrapper for the duration of the block."""
        if self._table is None:
            self._table = self._patch_table()
        table = self._table
        originals = [(owner, attr, getattr(owner, attr))
                     for owner, attr, _ in table]
        try:
            for owner, attr, wrapper in table:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------

    def flush(self) -> RunCounts:
        """Fold the recorded spans into the totals and forget them.

        Call only between runs, when no span is open. Returns the span
        counts of the flushed spans.
        """
        if self._stack:
            raise RuntimeError("flush() with open spans")
        spans = self.spans
        calls, in_replay_calls = Counter(), Counter()
        in_replay = [False] * len(spans)
        for i, (name, start, end, parent) in enumerate(spans):
            if parent < 0:
                self.root_s += end - start
                parent_name = None
            else:
                parent_name = spans[parent][0]
                in_replay[i] = parent_name == REPLAY or in_replay[parent]
            calls[name] += 1
            if in_replay[i]:
                in_replay_calls[name] += 1
            self.under[(parent_name, name)] += 1
        for (name, *_), own in zip(spans, self_times(spans)):
            self.self_s[name] += own
        self.calls.update(calls)
        self.calls_in_replay.update(in_replay_calls)
        spans.clear()
        self._fresh_batch = False
        return RunCounts(calls=calls, calls_in_replay=in_replay_calls)


def patched_names():
    """``(owner, attribute)`` of every name the tracer swaps while patched."""
    return [(owner, attr) for owner, attr, _ in Tracer()._patch_table()]
