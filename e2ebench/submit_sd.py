"""``submit-sd``: ``PStorM.submit`` over the Table 6.1 suite in the SD state.

Each round sets up a fresh daemon and ``remember()``s all 56 entries,
so every entry has a stored profile of its own (the paper's SD content
state).  The timed part then alternates a submit and a ``remember()``:
every entry is submitted once and remembered once per round, each in a
seeded order, so every round does the same work.  Each entry is always
submitted with the same seed (its position): the seed picks the sampled
task, whose cost would otherwise change a run's work from seed to seed.
``--seed`` draws the orders and the profiles the remembers write.
"""

from __future__ import annotations

import gc
import random
import time

from harness import RunState
from measure import geomean, peak_rss_mb

#: Submit-sd's restart probe: a fixed Table 6.1 entry.
RESTART_ENTRY = 0
#: Restarts after every round, so the samples spread over the run.
RESTARTS_PER_ROUND = 8


def config_in_space(config) -> bool:
    from repro.hadoop.config import CONFIGURATION_SPACE

    for spec in CONFIGURATION_SPACE:
        value = getattr(config, spec.attribute)
        if spec.clamp(value) != value:
            return False
        if spec.kind != "bool" and not spec.low <= value <= spec.high:
            return False
    return True


def run(state: RunState, wrappers) -> None:
    from repro.core.pstorm import PStorM
    from repro.core.store import ProfileStore
    from repro.hadoop.cluster import ec2_cluster
    from repro.hadoop.config import JobConfiguration
    from repro.hadoop.engine import HadoopEngine
    from repro.starfish.whatif import WhatIfEngine
    from repro.workloads.benchmark import standard_benchmark

    entries = standard_benchmark()
    rng = random.Random(state.seed)
    setup_seeds = [rng.randrange(1 << 30) for __ in entries]
    checker = HadoopEngine(ec2_cluster())
    whatif = WhatIfEngine(checker.cluster)
    default = JobConfiguration()
    default_runtime: dict[int, float] = {}

    def check(position: int, result) -> None:
        """The output checks of one submit, outside the timed part."""
        entry = entries[position]
        key = entry.key
        outcome = result.outcome
        state.check(result.matched and not result.degraded, f"{key}: submit missed")
        state.check(
            outcome.map_match.job_id == key,
            f"{key}: map side matched {outcome.map_match.job_id}",
        )
        if outcome.reduce_match is not None:
            state.check(
                outcome.reduce_match.job_id == key,
                f"{key}: reduce side matched {outcome.reduce_match.job_id}",
            )
        state.check(config_in_space(result.config), f"{key}: tuned config out of bounds")
        if outcome.profile is not None:
            data_bytes = entry.dataset.nominal_bytes
            tuned = whatif.predict(outcome.profile, result.config, data_bytes)
            baseline = whatif.predict(outcome.profile, default, data_bytes)
            state.check(
                tuned.runtime_seconds <= baseline.runtime_seconds * (1 + 1e-9),
                f"{key}: tuned config predicted slower than the default",
            )
        if position not in default_runtime:
            default_runtime[position] = checker.run_job(
                entry.job, entry.dataset, default, seed=position
            ).runtime_seconds
        state.speedups.append(default_runtime[position] / result.runtime_seconds)

    def restart(store) -> None:
        """A fresh daemon over *store*, to its first answered submit."""
        probe = entries[RESTART_ENTRY]
        state.attempted += 1
        gc.collect()
        started = time.perf_counter()
        try:
            restarted = PStorM(HadoopEngine(ec2_cluster()), store)
            answer = restarted.submit(probe.job, probe.dataset, seed=RESTART_ENTRY)
        except Exception as exc:  # noqa: BLE001 — counted, the run goes on
            state.note_failure(f"restart: {type(exc).__name__}: {exc}")
            return
        state.restarts.append(time.perf_counter() - started)
        state.check(
            answer.outcome.map_match.job_id == probe.key,
            f"restart submit of {probe.key} matched {answer.outcome.map_match.job_id}",
        )

    def one_round(index: int) -> None:
        started = time.perf_counter()
        daemon = PStorM(HadoopEngine(ec2_cluster()), ProfileStore())
        for position, entry in enumerate(entries):
            daemon.remember(entry.job, entry.dataset, seed=setup_seeds[position])
        state.setups.append(time.perf_counter() - started)

        submit_order = rng.sample(range(len(entries)), len(entries))
        remember_order = rng.sample(range(len(entries)), len(entries))
        results = []
        with state.timed_phase():
            for submitted, remembered in zip(submit_order, remember_order):
                entry = entries[submitted]
                result = state.read(daemon.submit, entry.job, entry.dataset, seed=submitted)
                if result is not None:
                    results.append((submitted, result))
                entry = entries[remembered]
                state.write(
                    daemon.remember, entry.job, entry.dataset,
                    seed=rng.randrange(1 << 30),
                )
        state.peak_rss_mb = max(state.peak_rss_mb, peak_rss_mb())
        for position, result in results:
            check(position, result)
        for __ in range(RESTARTS_PER_ROUND):
            restart(daemon.store)

    state.run_rounds(one_round, min_rounds=2, wrappers=wrappers)

    if state.speedups:
        state.check(geomean(state.speedups) > 1.0, "tuned_speedup is not above 1")
