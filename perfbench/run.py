"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload static-n100 --seed 1 --seconds 30 --trace 0

``--trace 0`` (the timed run) runs the workload's fixed trial list in a
fixed number of identical passes (as many as ``PASS_SECONDS`` fit in
``--seconds``), one trial at a time through the campaign engine with
``jobs=1``; around each pass it times set-up and resume in fresh
interpreters.  It reports the end-to-end metrics.  Times are CPU seconds
of the process doing the work, scaled to a reference host speed by
:mod:`hostspeed`; the line before the result also gives them unscaled.
``--trace 1`` runs a smaller list once untraced and once under
:mod:`tracer`, and reports the per-layer metrics.  Every trial's row is
checked (see ``README.md``); the last stdout line is the result object.
Run it from the root of a checkout: the program is imported from
``src/``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference.json")

#: Fresh-interpreter starts timed before (set-up) and after (resume)
#: each pass; the medians over all of them are reported.  One more
#: set-up start, before the first, warms the page cache and is discarded.
SETUP_STARTS_PER_PASS = 8
RESUME_STARTS_PER_PASS = 4

#: Nominal CPU seconds of one pass of either workload's list: a timed
#: run makes as many passes as fit in ``--seconds``.
PASS_SECONDS = 18.0

#: The clock every in-process time is read from: CPU seconds of this
#: process (user + system).  It must be the probe's clock, since the
#: probe's samples are placed on it.
cpu_clock = hostspeed.cpu_clock

#: Reads CPU intervals as they are, unscaled by host speed.
RAW = hostspeed.Timeline([])

#: Builds the workload's first scenario in a fresh interpreter: the
#: modules the timed path imports, then one ``Scenario``.  The child runs
#: a host-speed probe and prints its samples as its last line.
SETUP_CODE = """\
import sys
sys.path.append(sys.argv[2])
import hostspeed
probe = hostspeed.SpeedProbe()
probe.start()
import json, os
import repro.exec.manifest, repro.experiments.campaigns
from repro.experiments.scenario import ScenarioConfig, build_scenario
build_scenario(ScenarioConfig.from_dict(json.loads(sys.argv[1])))
probe.stop()
print(probe.dump(), flush=True)
os._exit(0)
"""

#: ``import_s.<package>`` figures the traced run reports.
IMPORT_PACKAGES = (
    "analysis", "core", "exec", "experiments", "faults", "metrics",
    "mobility", "net", "obs", "protocols", "routing", "sim", "traffic",
    "python", "scipy",
)

#: Span name -> per-layer metric reporting the spans' self time per trial.
SELF_TIMES = {
    "sim": "sim.self_s",
    "mobility": "mobility.self_s",
    "net.spatial": "net.spatial.self_s",
    "net.channel": "net.channel.self_s",
    "net.mac": "net.mac.self_s",
    "net.queue": "net.queue.self_s",
    "routing": "routing.self_s",
    "metrics": "metrics.self_s",
    "faults": "faults.self_s",
    "obs": "obs.self_s",
    "traffic": "traffic.self_s",
    "exec.journal": "exec.journal_s",
    "exec.cache": "exec.cache_s",
    "exec.load": "exec.load_s",
    "experiments.build": "experiments.build_s",
}

#: Profiler counters reported as the exact work counts of a trial.
WORK_COUNTERS = {
    "events": "sim.events_dispatched",
    "transmits": "channel.transmits",
    "receptions": "channel.receptions",
    "neighbor_queries": "channel.neighbor_queries",
    "mac_sends": "mac.sends",
    "mac_frames": "mac.frames_rx",
}


# -- program entry points ----------------------------------------------------


class ProfileTap:
    """Wraps ``Scenario.run`` (the only place a campaign still holds the
    scenario and its report) to collect each trial's ``Profiler``
    counters and to check an LDR trial's final tables.

    ``sweeps`` holds the CPU interval ``(start, end)`` of each trial's
    table check, which is the benchmark's work, not the program's: the
    pass takes it off the trial's time.  ``breaches`` holds what each
    check found (``None`` when nothing).  A breach is recorded, not
    raised: raised inside the trial it would make the engine retry and
    quarantine the trial, and the retries would count in the pass's
    time."""

    def __init__(self, scenario_cls):
        self.cls = scenario_cls
        self.counters = []
        self.sweeps = []
        self.breaches = []

    def __enter__(self):
        from repro.routing import LoopError
        from workloads import check_final_tables

        original = self.original = self.cls.run
        counters = self.counters
        sweeps = self.sweeps
        breaches = self.breaches

        def run(scenario):
            report = original(scenario)
            counters.append(dict(report.profile.counters))
            start = cpu_clock()
            try:
                check_final_tables(scenario)
                breaches.append(None)
            except LoopError as err:
                breaches.append("final tables: %s" % err)
            sweeps.append((start, cpu_clock()))
            return report

        self.cls.run = run
        return self

    def __exit__(self, *exc):
        self.cls.run = self.original


def work_totals(counters, journal_records):
    totals = {key: sum(c.get(name, 0) for c in counters)
              for key, name in WORK_COUNTERS.items()}
    totals["journal_records"] = journal_records
    return totals


class Pass:
    """The outcome of one pass over a trial list.

    ``span`` is the CPU interval ``(start, end)`` of the pass, ``sweeps``
    those of its table checks.  Durations are read from them through a
    :class:`hostspeed.Timeline` once the run is over."""

    def __init__(self, labels, trials, span, sweeps, breaches, counters,
                 journal_records, table):
        self.labels = labels
        self.trials = trials
        self.span = span
        self.sweeps = sweeps
        self.breaches = breaches
        self.problems = []
        if len(sweeps) != len(trials):
            self.problems.append("%d trials but %d table checks were timed"
                                 % (len(trials), len(sweeps)))
        self.counters = counters
        self.work = work_totals(counters, journal_records)
        self.table = table

    def seconds(self, timeline):
        """Seconds of the whole pass, less the table checks."""
        return (timeline.scaled(*self.span)
                - sum(timeline.scaled(*sweep) for sweep in self.sweeps))

    def check_served(self, served):
        """Record what is wrong with a re-serve of this pass's store."""
        from workloads import row_digest

        if not served["all_cached"]:
            self.problems.append("a re-run executed trials instead of "
                                 "serving them")
        if served["digests"] != [row_digest(t.row) for t in self.trials]:
            self.problems.append("re-served rows differ from executed rows")
        if served["table"] != self.table:
            self.problems.append("re-rendered churn table differs")


def run_pass(workload, seeds, workdir):
    """Run the trial list once into a fresh store at ``workdir``."""
    from repro.experiments.scenario import Scenario

    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    with ProfileTap(Scenario) as tap:
        start = cpu_clock()
        result, table = workload.run(seeds, workdir)
        span = (start, cpu_clock())
    journal = os.path.join(workdir, "manifest.jsonl")
    journal_records = 0
    if os.path.exists(journal):
        with open(journal, "rb") as fh:
            journal_records = sum(1 for _ in fh)
    trial_list = workload.trials(seeds)
    run = Pass([label for label, _ in trial_list],
               result.trials, span, tap.sweeps, tap.breaches,
               tap.counters, journal_records, table)
    run.anchor_labels = [label for label, config in trial_list
                         if config.seed in workload.anchor_seeds()]
    return run


def serve_store(workload, seeds, workdir):
    """Re-run a finished trial list, served from its store."""
    from workloads import row_digest

    result, table = workload.run(seeds, workdir)
    return {"all_cached": all(t.cached for t in result.trials),
            "table": table,
            "digests": [row_digest(t.row) for t in result.trials]}


#: A resume as a user runs it: a fresh interpreter imports the program,
#: re-serves the finished store, re-renders its output and exits.  It
#: prints what it served, then its host-speed probe's samples.
RESUME_CODE = """\
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import hostspeed
probe = hostspeed.SpeedProbe()
probe.start()
import json
import run, workloads
served = run.serve_store(workloads.WORKLOADS[sys.argv[3]],
                         json.loads(sys.argv[4]), sys.argv[5])
probe.stop()
print(json.dumps(served))
print(probe.dump(), flush=True)
"""


def child_run(cmd, **kwargs):
    """Run ``cmd`` to completion; returns ``(done, CPU seconds it used)``.

    The CPU time (user + system) of the waited-for child comes from
    ``RUSAGE_CHILDREN``; unlike wall time it does not count the time the
    child waited for a CPU that another tenant held."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=120,
                          **kwargs)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    seconds = (after.ru_utime - before.ru_utime
               + after.ru_stime - before.ru_stime)
    return done, seconds


def child_starts(what, cmd, starts, **kwargs):
    """Run ``cmd`` ``starts`` times.  Returns ``[(CPU seconds, probe
    samples)]``, one per start, and the last start's stdout lines and
    stderr."""
    children = []
    for _ in range(starts):
        done, seconds = child_run(cmd, **kwargs)
        if done.returncode != 0:
            raise RuntimeError("%s process failed:\n%s"
                               % (what, done.stderr[-2000:]))
        lines = done.stdout.strip().splitlines()
        children.append((seconds, json.loads(lines[-1])))
    return children, lines, done.stderr


def resume_starts(workload, seeds, workdir, starts):
    """Time ``starts`` resume processes on a finished store; returns them
    (see :func:`child_starts`) and what the last one served."""
    cmd = [sys.executable, "-c", RESUME_CODE, SRC, HERE, workload.name,
           json.dumps(seeds), workdir]
    children, lines, _ = child_starts("resume", cmd, starts)
    return children, json.loads(lines[-2])


# -- checks ------------------------------------------------------------------


def check_pass(seed, run, reference, whole_list):
    """``(failed trial labels, problems)`` for one pass; the churn table
    is pinned for the ``whole_list`` of the default seed only."""
    from workloads import DEFAULT_SEED, row_digest, row_problems

    pinned = dict(reference.get("anchors", {}))
    if seed == DEFAULT_SEED:
        pinned.update(reference.get("default_seed", {}))
    failed = set()
    problems = list(run.problems)
    if whole_list and set(run.anchor_labels) != set(reference.get("anchors",
                                                                 {})):
        problems.append("reference anchors are not the anchor-seed trials")
    if len(run.counters) != len(run.trials):
        problems.append("%d trials ran but %d reports were seen"
                        % (len(run.trials), len(run.counters)))
    if len(run.breaches) != len(run.trials):
        problems.append("%d trials ran but %d final tables were checked"
                        % (len(run.trials), len(run.breaches)))
    for label, trial, breach in zip(run.labels, run.trials, run.breaches):
        if not trial.ok:
            failed.add(label)
            problems.append("%s: %s" % (label, trial.error or "quarantined"))
            continue
        found = row_problems(label, trial.row)
        if breach is not None:
            found.append("%s: %s" % (label, breach))
        want = pinned.get(label)
        if want is not None and row_digest(trial.row) != want:
            found.append("%s: row differs from reference" % label)
        if found:
            failed.add(label)
            problems += found
    if (whole_list and seed == DEFAULT_SEED and "table" in reference
            and run.table != reference["table"]):
        problems.append("churn table differs from reference")
    return failed, problems


def load_reference(name):
    if not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh).get(name, {})


def update_reference(workload, seed, run):
    """Pin this pass's rows (anchors always, the rest at the default
    seed) and, for churn, its table."""
    from workloads import DEFAULT_SEED, row_digest

    data = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            data = json.load(fh)
    digests = {label: row_digest(t.row)
               for label, t in zip(run.labels, run.trials)}
    anchors = set(run.anchor_labels)
    entry = {"anchors": {label: digest for label, digest in digests.items()
                         if label in anchors}}
    if seed == DEFAULT_SEED:
        entry["default_seed"] = {label: digest
                                 for label, digest in digests.items()
                                 if label not in anchors}
        if run.table is not None:
            entry["table"] = run.table
    data[workload.name] = entry
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


# -- measurements ------------------------------------------------------------


def setup_times(config, starts, importtime=False):
    """``starts`` fresh interpreters that import the program and build
    ``config`` (see :func:`child_starts`), and the last one's stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += ["-c", SETUP_CODE, json.dumps(config.to_dict()), HERE]
    children, _, stderr = child_starts("setup", cmd, starts, env=env)
    return children, stderr


def import_seconds(importtime_log):
    """Import self time by ``repro`` subpackage, from ``-X importtime``.

    Each module's self time goes to the nearest enclosing ``repro.<pkg>``
    module (itself included), so third-party imports count against the
    subpackage that pulled them in: scipy shows under ``analysis``.
    """
    nodes = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us = int(fields[0])
        except ValueError:
            continue  # the column header
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        nodes.append((depth, name.strip(), self_us))
    # importtime prints children before their parent: walk backwards so
    # every module is seen after its ancestors.
    totals = {}
    owners = {}
    for depth, name, self_us in reversed(nodes):
        owner = owners.get(depth - 1)
        if name.startswith("repro."):
            owner = name.split(".")[1]
        owners[depth] = owner
        key = owner or ("repro" if name == "repro" else "python")
        totals[key] = totals.get(key, 0) + self_us
        if name.split(".")[0] == "scipy":
            totals["scipy"] = totals.get("scipy", 0) + self_us
    return {key: us / 1e6 for key, us in totals.items()}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- modes -------------------------------------------------------------------


def timed(workload, seed, seconds):
    seeds = workload.scenario_seeds(seed)
    trial_list = workload.trials(seeds)
    config = trial_list[0][1]
    workdir = os.path.join(OUT, "work-%d" % os.getpid())
    # The pass count depends on --seconds only, never on how fast this
    # run goes, so every run of the same length does the same work.
    count = max(1, int(seconds / PASS_SECONDS))
    passes, setup, resume = [], [], []
    probe = hostspeed.SpeedProbe()
    setup_times(config, 1)
    try:
        for _ in range(count):
            setup += setup_times(config, SETUP_STARTS_PER_PASS)[0]
            with probe:
                run = run_pass(workload, seeds, workdir)
            starts, served = resume_starts(workload, seeds, workdir,
                                           RESUME_STARTS_PER_PASS)
            resume += starts
            run.check_served(served)
            passes.append(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    fast = hostspeed.fast_kernel_seconds(
        [k for _, _, k in probe.marks]
        + [k for _, marks in setup + resume for _, _, k in marks])

    def figures(timeline, child):
        return {
            "trials_per_s": sum(len(p.trials) for p in passes)
                            / sum(p.seconds(timeline) for p in passes),
            "setup_s": statistics.median(child(c) for c in setup),
            "peak_rss_mb": peak_rss_mb(),
            "resume_s": statistics.median(child(c) for c in resume),
        }

    metrics = figures(hostspeed.Timeline(probe.marks),
                      lambda c: hostspeed.Timeline(c[1]).scaled(0, c[0]))
    host = {"fast_kernel_us": fast * 1e6,
            "unscaled": figures(RAW, lambda c: c[0])}
    return passes, metrics, host


def traced(workload, seed):
    from tracer import Tracer

    seeds = workload.trace_seeds(seed)
    trial_list = workload.trials(seeds)
    setup_times(trial_list[0][1], 1)
    _, log = setup_times(trial_list[0][1], 1, importtime=True)
    workdir = os.path.join(OUT, "work-%d" % os.getpid())
    tracer = Tracer()
    try:
        plain = run_pass(workload, seeds, workdir)
        plain.check_served(serve_store(workload, seeds, workdir))
        with tracer, tracer.span("bench.pass"):
            spanned = run_pass(workload, seeds, workdir)
            spanned.check_served(serve_store(workload, seeds, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = []
    if [t.row for t in plain.trials] != [t.row for t in spanned.trials]:
        problems.append("traced rows differ from untraced rows")
    counts = tracer.counts
    for name, counter in (("net.channel.transmits", "transmits"),
                          ("net.channel.neighbor_queries",
                           "neighbor_queries")):
        if counts.get(name, 0) != plain.work[counter]:
            problems.append("%s: wrapper saw %d calls, Profiler counted %d"
                            % (name, counts.get(name, 0),
                               plain.work[counter]))

    n = len(plain.trials)
    work = plain.work
    own = tracer.self_times()
    metrics = {}

    def per_trial(name, value):
        metrics[name] = value / n

    def ratio(a, b):
        return a / b if b else 0.0

    for span, metric in SELF_TIMES.items():
        per_trial(metric, own.get(span, 0.0))
    per_trial("sim.events", work["events"])
    metrics["sim.ns_per_event"] = ratio(own.get("sim", 0.0) * 1e9,
                                        work["events"])
    per_trial("mobility.calls", counts["mobility.calls"])
    per_trial("net.spatial.near_calls", counts["net.spatial.near_calls"])
    metrics["net.spatial.candidates_per_call"] = ratio(
        counts["net.spatial.near_calls.items"],
        counts["net.spatial.near_calls"])
    per_trial("net.channel.transmits", work["transmits"])
    per_trial("net.channel.neighbor_queries", work["neighbor_queries"])
    metrics["net.channel.receptions_per_transmit"] = ratio(
        work["receptions"], work["transmits"])
    per_trial("net.mac.sends", work["mac_sends"])
    per_trial("net.mac.frames_in", work["mac_frames"])
    metrics["net.mac.useful_share"] = ratio(work["mac_frames"],
                                            work["receptions"])
    per_trial("net.queue.ops", counts["net.queue.ops"])
    per_trial("net.queue.drops", counts["net.queue.ops.items"])
    per_trial("routing.packets", counts["routing.packets"])
    per_trial("metrics.calls", counts["metrics.calls"])
    per_trial("faults.monitor_calls", counts["faults.monitor_calls"])
    per_trial("obs.events", counts["obs.events"])
    per_trial("obs.bytes_written", counts["obs.traces.items"])
    per_trial("exec.journal_records", work["journal_records"])
    per_trial("exec.cache_puts", counts["exec.cache_puts"])
    imports = import_seconds(log)
    for package in IMPORT_PACKAGES:
        metrics["import_s." + package] = imports.get(package, 0.0)
    metrics["import_s.total"] = sum(
        v for k, v in imports.items() if k != "scipy")
    untraced_rate = n / plain.seconds(RAW)
    traced_rate = n / spanned.seconds(RAW)
    metrics["trace.untraced_trials_per_s"] = untraced_rate
    metrics["trace.traced_trials_per_s"] = traced_rate
    metrics["trace.overhead_x"] = untraced_rate / traced_rate
    metrics["trace.spans_per_trial"] = len(tracer.name_of) / n
    metrics["trace.peak_rss_mb"] = peak_rss_mb()

    stem = os.path.join(OUT, "%s-seed%d-spans.npz" % (workload.name, seed))
    tracer.dump(stem, plain.labels, {
        "workload": workload.name, "seed": seed, "trials": plain.labels,
        "metrics": metrics, "self_s": own, "counts": counts,
        "work": plain.work,
    })
    return [plain, spanned], metrics, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (default: workloads.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true",
                        help="pin this run's rows in reference.json")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no program at %s; run from the root of a "
              "checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(sorted(WORKLOADS))),
              file=sys.stderr)
        return 2
    reference = load_reference(workload.name)
    extra_problems = []
    if args.trace and args.update_reference:
        parser.error("--update-reference pins a timed run (--trace 0)")
    if args.trace:
        passes, metrics, extra_problems = traced(workload, args.seed)
        host = None
    else:
        passes, metrics, host = timed(workload, args.seed, args.seconds)
    if args.update_reference:
        update_reference(workload, args.seed, passes[0])
        reference = load_reference(workload.name)

    failed = set()
    problems = list(extra_problems)
    for run in passes:
        bad, found = check_pass(args.seed, run, reference,
                                whole_list=not args.trace)
        failed |= {(id(run), label) for label in bad}
        problems += found
        if run.work != passes[0].work:
            problems.append("work counts differ between passes")
    attempted = sum(len(p.trials) for p in passes)
    for problem in problems[:20]:
        print("perfbench: FAIL " + problem, file=sys.stderr)
    print(json.dumps({"workload": workload.name, "seed": args.seed,
                      "passes": len(passes), "work": passes[0].work,
                      "host": host}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit(name)}
            for name, value in metrics.items()
        },
    }))
    return 0


def unit(name):
    """The unit of a reported metric, from its name."""
    if name.endswith("trials_per_s"):
        return "1/s"
    if name.endswith("_s") or name.startswith("import_s."):
        return "s"
    return {"peak_rss_mb": "MB", "trace.peak_rss_mb": "MB",
            "sim.ns_per_event": "ns", "net.mac.useful_share": "ratio",
            "obs.bytes_written": "bytes", "trace.overhead_x": "x",
            }.get(name, "count")


if __name__ == "__main__":
    sys.exit(main())
