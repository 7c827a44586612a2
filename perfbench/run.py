"""Step-cost benchmark for salsa_opt.

    python3 perfbench/run.py --workload quad-search --seed 1 --seconds 15 --trace 0

The unit of work is one optimizer step. A workload is a fixed cycle of
``harness.run_single`` calls (each followed by ``TrainingTrace.to_csv``,
and on ``matfac-replay`` by ``harness.replay_verify``); see workloads.py.
The loop is closed with one client: every step waits for the previous one
and runs follow one another in this one process.

Each invocation:

1. with ``--trace 0``, launches setup_probe.py several times, each just
   after a reference import (machine.py), and takes the median
   launch-to-first-step time, scaled by its reference, as ``setup_s``;
2. builds the workload and runs one untimed, traced cycle, which warms
   caches and is the reference every later run must reproduce byte for
   byte, and whose counted calls every later traced run must repeat;
3. with ``--trace 0``, goes round the cycle untraced, run by run, for
   ``--seconds``, then once more traced, so that each entry's counts are
   checked against a traced repeat;
4. with ``--trace 1``, goes round the cycle for ``--seconds`` (and at least
   once) running every entry untraced and traced back to back: the traced
   runs give the per-layer split, the pairs the tracing overhead.

A speed probe (machine.py) runs before and after each timed run, and
after each pair; every reported step time is scaled by it to a reference
machine speed, so that the host's changes of speed stay out of the figures.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line before it
is a JSON object of context rather than metrics: the machine, its speed
against the reference, unscaled timings, sample counts, ``failed_frac``,
the sha256 fingerprint of the reference cycle's CSV traces
and the reasons for any failed run. Exit status is 0 when every check
passed, 1 when a check failed, and 2 when there is no program to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import bootstrap
import machine
import tracer as tracing
from tracer import BASE_EVAL, EVALS, REPLAY, REPLAY_EVAL, TRIAL_EVAL

SETUP_PROBES = 4

# Calls every traced run must make exactly as often as its reference run.
REPEATED_COUNTS = ("core.seeded_rng",) + EVALS


def metric_units(group: str) -> dict:
    """Name -> unit of every metric BENCHMARK.json lists under ``group``
    (``end_to_end`` or ``per_layer``)."""
    doc = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[group]}

@dataclass
class Outcome:
    """What one run of the cycle produced and cost."""

    label: str = ""
    steps: int = 0
    seconds: float = 0.0
    sha: str = ""
    csv_bytes: int = 0
    evals: int = 0
    searched: int = 0
    final_loss: float = math.nan
    probe_before_s: float = math.nan   # speed probe time right before
    probe_s: float = math.nan          # and right after this run
    failures: list = field(default_factory=list)


def run_once(harness, problem, spec, final_smoothed_loss) -> Outcome:
    """Run, serialise and (on replay workloads) verify one RunSpec.

    The clock covers only the calls into the program.
    """
    out = Outcome(label=spec.label)
    start = time.perf_counter()
    try:
        result = harness.run_single(problem, spec.optimizer, spec.run_seed,
                                    spec.epochs, spec.batch_size,
                                    spec.frequency_controller)
        csv = result.trace.to_csv()
        report = None
        if spec.replay:
            report = harness.replay_verify(
                problem, spec.optimizer, spec.run_seed, spec.epochs,
                spec.batch_size, result.trace, spec.frequency_controller)
    except (ValueError, ArithmeticError) as e:
        out.failures.append(f"{spec.label}/{spec.run_seed}: "
                            f"{type(e).__name__}: {e}")
        return out
    out.seconds = time.perf_counter() - start

    records = result.trace.records
    out.steps = len(records)
    out.sha = hashlib.sha256(csv.encode()).hexdigest()
    out.csv_bytes = len(csv)
    out.searched = sum(r.searched for r in records)
    # One base evaluation per step plus backtracks + 1 trials per search.
    out.evals = out.steps + sum(r.backtracks + 1 for r in records if r.searched)
    out.final_loss = final_smoothed_loss(result.trace)
    if not math.isfinite(out.final_loss):
        out.failures.append(f"{spec.label}/{spec.run_seed}: "
                            f"non-finite final loss {out.final_loss}")
    if report is not None and (not report.ok or report.n_checked == 0):
        out.failures.append(f"{spec.label}/{spec.run_seed}: replay_verify "
                            f"ok={report.ok} checked={report.n_checked}")
    return out


def check_counts(spec, out: Outcome, counts, count_ref: dict, index: int):
    """Compare a traced run's counted calls with its trace and with its
    entry's traced reference run."""
    where = f"{spec.label}/{spec.run_seed}"
    step_evals = counts.calls[BASE_EVAL] + counts.calls[TRIAL_EVAL]
    rerun_evals = (counts.calls_in_replay[BASE_EVAL]
                   + counts.calls_in_replay[TRIAL_EVAL])
    if step_evals - rerun_evals != out.evals:
        out.failures.append(f"{where}: counted {step_evals - rerun_evals} "
                            f"loss_grad calls, trace implies {out.evals}")
    if spec.replay:
        # replay_verify re-runs the whole run, then evaluates each step's
        # base point and each searched step's accepted point once more.
        if (rerun_evals != out.evals or counts.calls[REPLAY_EVAL]
                != out.steps + out.searched):
            out.failures.append(f"{where}: replay made {rerun_evals} + "
                                f"{counts.calls[REPLAY_EVAL]} loss_grad calls")
    counted = {name: counts.calls[name] for name in REPEATED_COUNTS}
    if count_ref.setdefault(index, counted) != counted:
        out.failures.append(f"{where}: counted {counted}, "
                            f"{count_ref[index]} on its reference run")


class CycleRunner:
    """Runs the workload's cycle entry by entry, checking every run.

    ``reference`` holds the first full pass, which is traced; each later
    run must reproduce its entry byte for byte. ``count_ref`` holds each
    entry's counts of ``seeded_rng`` and ``loss_grad`` calls in that pass.
    """

    def __init__(self, wl, harness, final_smoothed_loss):
        self.wl = wl
        self.harness = harness
        self.final_smoothed_loss = final_smoothed_loss
        self.reference = None
        self.count_ref = {}

    def run(self, i, problem, tracer=None) -> Outcome:
        spec = self.wl.runs[i]
        out = run_once(self.harness, problem, spec, self.final_smoothed_loss)
        if self.reference is not None and out.sha != self.reference[i].sha:
            out.failures.append(f"{spec.label}/{spec.run_seed}: trace bytes "
                                f"differ from the reference run")
        if tracer is not None:
            counts = tracer.flush()
            if out.steps:
                check_counts(spec, out, counts, self.count_ref, i)
        return out

    def repeat_for(self, seconds, problem=None, tracer=None, min_runs=1,
                   probe=None) -> list[Outcome]:
        """Go round the cycle until ``seconds`` have passed and at least
        ``min_runs`` runs are done; time ``probe`` before the first run and
        after each run."""
        problem = problem or self.wl.problem
        outcomes = []
        before = probe() if probe is not None else math.nan
        start = time.perf_counter()
        for i in itertools.cycle(range(len(self.wl.runs))):
            out = self.run(i, problem, tracer)
            if probe is not None:
                out.probe_before_s, out.probe_s = before, probe()
                before = out.probe_s
            outcomes.append(out)
            if (time.perf_counter() - start >= seconds
                    and len(outcomes) >= min_runs):
                return outcomes

    def paired_for(self, seconds, tracer, probe) -> tuple[list[Outcome],
                                                          list[Outcome]]:
        """Run every entry untraced and traced back to back, round the
        cycle at least once and until ``seconds`` have passed; time
        ``probe`` after each pair.

        Pairing keeps slow drifts of machine speed out of the tracing
        overhead; which half of a pair goes first alternates.
        """
        traced_problem = tracer.traced_problem(self.wl.problem)
        untraced, traced = [], []
        n = len(self.wl.runs)
        start = time.perf_counter()
        for k in itertools.count():
            i = k % n
            for use_tracer in ((False, True) if (k + k // n) % 2 == 0
                               else (True, False)):
                if use_tracer:
                    with tracer.patched():
                        traced.append(self.run(i, traced_problem, tracer))
                else:
                    untraced.append(self.run(i, self.wl.problem))
            untraced[-1].probe_s = traced[-1].probe_s = probe()
            if k + 1 >= n and time.perf_counter() - start >= seconds:
                return untraced, traced


def probe_setup(workload: str, seed: int) -> tuple[list[float],
                                                 list[float]]:
    """Launch-to-first-step seconds of SETUP_PROBES fresh processes, and
    the launch time of the reference import launched just before each."""
    script = str(Path(__file__).with_name("setup_probe.py"))
    samples, reference_s = [], []
    for _ in range(SETUP_PROBES):
        reference_s.append(machine.reference_launch())
        samples.append(machine.time_to_ready(
            [script, "--workload", workload, "--seed", str(seed)]))
    return samples, reference_s


def fingerprint(outcomes: list[Outcome]) -> str:
    """sha256 over the per-run CSV sha256 digests, in run order."""
    h = hashlib.sha256()
    for out in outcomes:
        h.update(out.sha.encode())
    return h.hexdigest()


def step_us_percentiles(runs, seconds) -> tuple[float, float]:
    """Median and 90th percentile of per-run µs/step.

    The median is taken per configuration and averaged over configurations:
    pooled, the median of a two- or four-configuration mix sits in the gap
    between their clusters and jumps with a one-run change in the mix. The
    90th percentile is pooled over all runs; it falls inside the slowest
    configuration's cluster.
    """
    samples = defaultdict(list)
    for o, t in zip(runs, seconds):
        samples[o.label].append(t / o.steps * 1e6)
    pooled = [x for v in samples.values() for x in v]
    return (statistics.fmean(statistics.median(v) for v in samples.values()),
            statistics.quantiles(pooled, n=10)[-1])


def end_to_end(setup, setup_reference_s, timed, reference,
               peak_rss_mb) -> dict:
    """End-to-end metrics; times are at reference machine speed."""
    ran = [o for o in timed if o.steps]
    seconds = machine.to_reference([o.seconds for o in ran],
                                   [o.probe_before_s for o in ran],
                                   [o.probe_s for o in ran])
    p50, p90 = step_us_percentiles(ran, seconds)
    ref_steps = sum(o.steps for o in reference)
    return {
        "setup_s": statistics.median(
            machine.launch_to_reference(setup, setup_reference_s)),
        "steps_per_s": sum(o.steps for o in ran) / sum(seconds),
        "step_us_p50": p50,
        "step_us_p90": p90,
        "evals_per_step": sum(o.evals for o in reference) / ref_steps,
        "searched_frac": sum(o.searched for o in reference) / ref_steps,
        "final_loss": statistics.fmean(o.final_loss for o in reference),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tr, traced, timed, reference) -> dict:
    """Per-layer metrics; times are at reference machine speed, scaled by
    the median speed probe of the phase."""
    steps = sum(o.steps for o in traced)
    scale = 1e6 * machine.REFERENCE_PROBE_S / statistics.median(
        o.probe_s for o in traced)

    def us(name):
        return tr.self_s[name] / steps * scale

    def ratio(num, den):
        return num / den if den else 0.0

    evals = sum(tr.calls[n] for n in EVALS)
    replay_evals = sum(tr.calls_in_replay[n] for n in EVALS)
    traced_us = tr.root_s / steps * scale
    untraced_us = (sum(o.seconds for o in timed)
                   / sum(o.steps for o in timed) * scale)
    return {
        "problems.base_eval.us_per_step": us(BASE_EVAL),
        "problems.trial_eval.us_per_step": us(TRIAL_EVAL),
        "problems.replay_eval.us_per_step": us(REPLAY_EVAL),
        "problems.loss_grad.us_per_call":
            ratio(sum(tr.self_s[n] for n in EVALS), evals) * scale,
        "problems.loss_grad.calls_per_step": evals / steps,
        "problems.batch_for_step.us_per_step": us("problems.batch_for_step"),
        "core.seeded_rng.calls_per_step": tr.calls["core.seeded_rng"] / steps,
        "core.seeded_rng.us_per_step": us("core.seeded_rng"),
        "directions.calls_per_step": tr.calls["directions"] / steps,
        "directions.us_per_step": us("directions"),
        "line_search.step.us_self_per_step": us("line_search.step"),
        "salsa.step.us_self_per_step": us("salsa.step"),
        "baselines.step.us_self_per_step": us("baselines.step"),
        "line_search.backtrack.us_self_per_step": us("line_search.backtrack"),
        "salsa.backtrack.us_self_per_step": us("salsa.backtrack"),
        "line_search.accept_ratio": ratio(
            tr.counters["line_search.accepted"],
            tr.under[("line_search.backtrack", TRIAL_EVAL)]),
        "salsa.accept_ratio": ratio(
            tr.counters["salsa.accepted"],
            tr.under[("salsa.backtrack", TRIAL_EVAL)]),
        "frequency.us_per_step": us("frequency"),
        "frequency.L_mean": ratio(tr.counters["frequency.L_sum"],
                                  tr.counters["frequency.L_n"]),
        "core.trace_append.us_per_step": us("core.trace_append"),
        "core.to_csv.us_per_step": us("core.to_csv"),
        "core.trace_bytes_per_step": (sum(o.csv_bytes for o in reference)
                                      / sum(o.steps for o in reference)),
        "harness.run_single.us_self_per_step": us("harness.run_single"),
        "harness.replay_verify.us_self_per_step": us(REPLAY),
        "harness.replay_verify.evals_per_step": replay_evals / steps,
        "harness.traced_us_per_step": traced_us,
        "harness.untraced_us_per_step": untraced_us,
        "harness.tracing_overhead_frac": traced_us / untraced_us - 1.0,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Step-cost benchmark for salsa_opt.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap.pin_threads()
    try:
        bootstrap.import_program()
    except bootstrap.MissingProgram as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    import numpy as np
    import scipy
    from salsa_opt import final_smoothed_loss, harness

    import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2

    probe = machine.SpeedProbe()
    setup, setup_reference_s = ([], [])
    if args.trace == 0:
        setup, setup_reference_s = probe_setup(args.workload, args.seed)
    wl = workloads.build(args.workload, args.seed)

    runner = CycleRunner(wl, harness, final_smoothed_loss)
    # The reference pass is traced, on a tracer of its own, so that every
    # entry has counts of seeded_rng and loss_grad calls for later traced
    # repeats to match.
    ref_tr = tracing.Tracer()
    with ref_tr.patched():
        reference = runner.repeat_for(0.0, ref_tr.traced_problem(wl.problem),
                                      ref_tr, min_runs=len(wl.runs))
    runner.reference = reference
    tr = tracing.Tracer()
    if args.trace == 0:
        timed = runner.repeat_for(args.seconds, probe=probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # Every run of the cycle once more, traced, so that each entry's
        # counts are compared with its traced reference run.
        with tr.patched():
            traced = runner.repeat_for(0.0, tr.traced_problem(wl.problem), tr,
                                       min_runs=len(wl.runs))
    else:
        timed, traced = runner.paired_for(args.seconds, tr, probe)

    runs = reference + timed + traced
    failures = [f for o in runs for f in o.failures]
    failed = sum(1 for o in runs if o.failures)
    for t in (ref_tr, tr):
        attributed = sum(t.self_s.values())
        if not math.isclose(attributed, t.root_s, rel_tol=1e-9, abs_tol=1e-9):
            failures.append(f"self times sum to {attributed!r} s, root spans "
                            f"to {t.root_s!r} s")

    correct = not failures
    if args.trace == 0:
        values = end_to_end(setup, setup_reference_s, timed, reference,
                            peak_rss_mb)
    else:
        values = per_layer(tr, traced, timed, reference)
    units = metric_units("end_to_end" if args.trace == 0 else "per_layer")
    if set(values) != set(units):
        mismatch = sorted(set(values) ^ set(units))
        raise RuntimeError(f"metrics {mismatch} disagree with BENCHMARK.json")
    ran = [o for o in timed if o.steps]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": machine.machine_info(np, scipy),
        "speed_vs_reference": machine.REFERENCE_PROBE_S / statistics.median(
            o.probe_s for o in ran),
        "unscaled": {
            "setup_s": statistics.median(setup) if setup else None,
            "step_us_p50": step_us_percentiles(
                ran, [o.seconds for o in ran])[0],
            "steps_per_s": (sum(o.steps for o in ran)
                            / sum(o.seconds for o in ran)),
        },
        "runs_per_cycle": len(wl.runs),
        "runs": {"reference": len(reference), "untraced": len(timed),
                 "traced": len(traced)},
        "step_us_samples": dict(Counter(o.label for o in ran)),
        "setup_probes": len(setup),
        "failed_frac": {"value": failed / len(runs), "unit": "frac"},
        "trace_sha256": fingerprint(reference),
        "failures": failures[:10],
    }
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
