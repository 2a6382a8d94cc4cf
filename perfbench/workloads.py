"""Workload definitions: the fixed trial list each workload runs.

Every workload is a list of trials built from two blocks of scenario
seeds: the *anchor* block (the same scenario seeds in every run, whatever
``--seed`` says) and the *seeded* block (scenario seeds drawn from
``--seed``).  The anchors damp the seed-to-seed swing in work per trial
(one static N=100 trial ranges over 2x in events across seeds) so a run
can be compared with a run on another seed; the seeded block keeps the
inputs a function of ``--seed``.  Within a run the list is executed as
identical passes.

The simulator only ever receives the :class:`ScenarioConfig` objects built
here; nothing in ``src/`` knows about the benchmark.
"""

import hashlib
import json
import os
import random

from repro.exec import CampaignEngine, ResultCache
from repro.experiments.campaigns import (
    Campaign,
    aggregate_churn,
    churn_grid,
    format_churn,
    node_scenario,
    run_churn,
)
from repro.routing import LoopChecker

#: ``--seed`` whose trial rows (and churn table) are pinned in
#: ``reference.json``.
DEFAULT_SEED = 1

#: First scenario seed of the seeded block; anchors use 1, 2, ...
SEEDED_BASE = 1000


class Workload:
    """A named trial list: ``anchors`` fixed seeds + ``seeded`` drawn ones.

    Why each workload exists is recorded in ``BENCHMARK.json`` and
    ``README.md``.  Subclasses define ``trials(seeds)`` and
    ``run(seeds, store, progress)``, which executes the list into the
    campaign store at ``store`` -- or, when the store already holds the
    finished list, serves it from there -- and returns ``(result, table)``.
    """

    def __init__(self, name, anchors, seeded):
        self.name = name
        self.anchors = anchors
        self.seeded = seeded

    def anchor_seeds(self):
        """The scenario seeds every run shares, whatever ``--seed`` says."""
        return range(1, self.anchors + 1)

    def scenario_seeds(self, seed):
        """Anchor seeds followed by the seeded block for ``seed``."""
        rng = random.Random("%s:%d" % (self.name, seed))
        drawn = rng.sample(range(SEEDED_BASE, 10 * SEEDED_BASE), self.seeded)
        return list(self.anchor_seeds()) + drawn

    def trace_seeds(self, seed):
        """The (smaller) seed list of a traced run: the first seeded seed."""
        return self.scenario_seeds(seed)[self.anchors:self.anchors + 1]


class SimWorkload(Workload):
    """Independent trials alternating LDR and AODV per scenario seed."""

    def __init__(self, name, anchors, seeded, **config):
        super().__init__(name, anchors, seeded)
        self.config = config

    def trials(self, seeds):
        """``[(label, ScenarioConfig)]`` alternating LDR and AODV."""
        out = []
        for scenario_seed in seeds:
            for protocol in ("ldr", "aodv"):
                out.append((
                    "%s/s%d" % (protocol, scenario_seed),
                    node_scenario(seed=scenario_seed, protocol=protocol,
                                  **self.config),
                ))
        return out

    def run(self, seeds, store, progress=None):
        """The list through an unjournaled engine with a result cache."""
        engine = CampaignEngine(
            jobs=1, cache=ResultCache(os.path.join(store, "cache")),
            progress=progress)
        return engine.run([config for _, config in self.trials(seeds)]), None


class ChurnCampaign(Campaign):
    """The scaled churn campaign over an explicit scenario-seed list."""

    def __init__(self, seed_list, **knobs):
        super().__init__(trials=len(seed_list), **knobs)
        self.seed_list = list(seed_list)

    def seeds(self):
        return self.seed_list


class ChurnWorkload(Workload):
    """The journaled churn grid (5 fault plans x LDR/AODV/DSR x seeds)."""

    duration = 10.0
    num_nodes = 20

    def campaign(self, seeds, journal=None, progress=None):
        return ChurnCampaign(
            seeds, duration=self.duration, num_nodes_small=self.num_nodes,
            jobs=1, journal=journal, progress=progress,
            trace_dir=None if journal is None else "traces", trace_gzip=True,
        )

    def trials(self, seeds):
        """``[(label, ScenarioConfig)]`` in the campaign's grid order."""
        labels, configs = churn_grid(self.campaign(seeds))
        return [
            ("%s/%s/s%d" % (fault, protocol, config.seed), config)
            for (fault, protocol), config in zip(labels, configs)
        ]

    def run(self, seeds, store, progress=None):
        """``run_churn`` journaled at ``store``, and its rendered table."""
        grid, result, manifest = run_churn(
            self.campaign(seeds, journal=store, progress=progress))
        manifest.close()
        return result, format_churn(aggregate_churn(grid, result))


WORKLOADS = {
    w.name: w for w in (
        SimWorkload(
            "static-n100", anchors=20, seeded=1,
            num_nodes=100, num_flows=10, pause_time=60.0, duration=60.0,
        ),
        ChurnWorkload(
            "churn-journal", anchors=10, seeded=1,
        ),
    )
}


def row_digest(row):
    """A short, stable digest of one trial's result row."""
    text = json.dumps(row, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def check_final_tables(scenario):
    """Theorems 2 and 4 on an LDR trial's final routing tables.

    Walks every node's successor chain toward every node and checks the
    label ordering along it; raises
    :class:`~repro.routing.loopcheck.LoopError` on a loop or an ordering
    breach, which fails the trial.  The simulation workload runs without
    the online checker (it would dominate an LDR trial's time), so this
    end-of-run sweep is its safety check; the churn trials also carry
    the online invariant monitor.
    """
    if scenario.config.protocol != "ldr":
        return
    live = [p for p in scenario.protocols.values() if p is not None]
    LoopChecker(live, check_ordering=True).check_all(sorted(scenario.nodes))


def row_problems(label, row):
    """Safety checks on one row.

    An LDR trial must show no loop and no safety-invariant violation
    (Theorems 2 and 4: loops, label ordering, sequence-number ownership,
    activity of crashed nodes).  The monitor's ``reconvergence`` audit is
    a liveness check against a scaled time bound, not a theorem, so it is
    reported in the row but fails no trial.  No trial may deliver more
    packets than it originated.
    """
    problems = []
    if label.split("/")[-2] == "ldr":
        if row["loop_violations"]:
            problems.append("%s: loop_violations=%d"
                            % (label, row["loop_violations"]))
        for kind, count in sorted(row["invariant_breakdown"].items()):
            if kind != "reconvergence":
                problems.append("%s: invariant %s x%d" % (label, kind, count))
    if row["data_delivered"] > row["data_originated"]:
        problems.append("%s: delivered %d > originated %d" % (
            label, row["data_delivered"], row["data_originated"]))
    return problems
