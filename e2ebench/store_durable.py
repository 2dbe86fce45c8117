"""``store-durable``: puts and match probes on a durable, sharded store.

The inputs — a full profile, static features and 1-task-sample features
for each of the 56 Table 6.1 entries — are produced by the simulator
before set-up, so hadoop and the tuners do no work in the timed part.

Each round opens a fresh durable ``ProfileStore`` in a temporary
directory (2 region servers, a split threshold low enough that regions
split) and puts one copy of every entry: the set-up.  The timed steps
then put every entry once more, in a seeded order, under fresh job ids,
each put followed by ``PROBES_PER_PUT`` ``ProfileMatcher.match_job``
probes of seeded entries.  The round ends with ``snapshot()``,
``TAIL_PUTS`` more puts (so a WAL tail exists), a reopen of the
directory and a first probe: the restart.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time

from harness import RunState
from layers import counter_totals
from measure import geomean, peak_rss_mb

NUM_REGION_SERVERS = 2
#: Rows per region before it splits.  One put writes three rows, so a
#: round's ~380 rows make several splits.
SPLIT_THRESHOLD = 64
PROBES_PER_PUT = 3
TAIL_PUTS = 14


def _close(store) -> None:
    """Shut the store's region stores down (syncs and closes each WAL)."""
    from repro.core.store import TABLE_NAME

    for region, __ in store.hbase.catalog.regions_of(TABLE_NAME):
        region.store.close()


def run(state: RunState, wrappers) -> None:
    from repro.core.matcher import ProfileMatcher
    from repro.core.store import ProfileStore
    from repro.experiments.common import ExperimentContext, collect_suite
    from repro.hadoop.cluster import ec2_cluster
    from repro.starfish.cbo import CostBasedOptimizer
    from repro.starfish.whatif import WhatIfEngine

    rng = random.Random(state.seed)
    started = time.perf_counter()
    records = list(
        collect_suite(
            ExperimentContext.create(), seed=rng.randrange(1 << 30)
        ).values()
    )
    state.inputs_seconds = time.perf_counter() - started
    count = len(records)
    replayed: list[float] = []
    reopen_rebuilds: list[float] = []
    readback: dict[str, object] = {}

    def probe(matcher, position: int, copies: dict[int, list[str]]) -> None:
        record = records[position]
        outcome = state.read(matcher.match_job, record.features)
        if outcome is None:
            return
        state.check(
            outcome.map_match.job_id in copies[position],
            f"{record.key}: map side matched {outcome.map_match.job_id}",
        )
        if record.features.has_reduce:
            reduce_id = outcome.reduce_match.job_id if outcome.reduce_match else None
            state.check(
                reduce_id in copies[position],
                f"{record.key}: reduce side matched {reduce_id}",
            )

    def one_round(index: int) -> None:
        data_dir = tempfile.mkdtemp(prefix="store-durable-", dir=state.work_dir)
        try:
            run_round(index, data_dir)
        finally:
            shutil.rmtree(data_dir, ignore_errors=True)

    def run_round(index: int, data_dir: str) -> None:
        acked: dict[str, int] = {}
        copies: dict[int, list[str]] = {position: [] for position in range(count)}

        def put(store, position: int, timed: bool) -> None:
            record = records[position]
            job_id = f"r{index}-{len(acked):04d}"
            if timed:
                stored = state.write(store.put, record.full_profile, record.static, job_id)
            else:
                stored = store.put(record.full_profile, record.static, job_id)
            if stored is not None:
                acked[stored] = position
                copies[position].append(stored)

        started = time.perf_counter()
        store = ProfileStore(
            data_dir=data_dir,
            num_region_servers=NUM_REGION_SERVERS,
            split_threshold=SPLIT_THRESHOLD,
        )
        matcher = ProfileMatcher(store)
        for position in range(count):
            put(store, position, timed=False)
        state.setups.append(time.perf_counter() - started)

        order = rng.sample(range(count), count)
        probes = [rng.randrange(count) for __ in range(count * PROBES_PER_PUT)]
        tail = rng.sample(range(count), TAIL_PUTS)
        restart_probe = rng.randrange(count)
        with state.timed_phase():
            for step, position in enumerate(order):
                put(store, position, timed=True)
                for target in probes[step * PROBES_PER_PUT:(step + 1) * PROBES_PER_PUT]:
                    probe(matcher, target, copies)
        state.attempted += 1
        try:
            store.snapshot()
        except Exception as exc:  # noqa: BLE001 — counted, the run goes on
            state.note_failure(f"snapshot: {type(exc).__name__}: {exc}")
        with state.timed_phase():
            for position in tail:
                put(store, position, timed=True)
        _close(store)

        before = counter_totals()
        state.attempted += 1
        started = time.perf_counter()
        try:
            reopened = ProfileStore(data_dir=data_dir)
            outcome = ProfileMatcher(reopened).match_job(
                records[restart_probe].features
            )
        except Exception as exc:  # noqa: BLE001 — counted, the run goes on
            state.note_failure(f"reopen: {type(exc).__name__}: {exc}")
            return
        state.restarts.append(time.perf_counter() - started)
        after = counter_totals()
        if state.tracing:
            replayed.append(
                after["wal_replayed_records_total"] - before["wal_replayed_records_total"]
            )
            reopen_rebuilds.append(
                after["pstorm_matcher_index_rebuilds_total"]
                - before["pstorm_matcher_index_rebuilds_total"]
            )
        state.check(
            outcome.map_match.job_id in copies[restart_probe],
            f"first probe after reopen matched {outcome.map_match.job_id}",
        )

        # Every acknowledged put survives the restart, byte for byte.
        stored_ids = set(reopened.job_ids())
        state.check(
            stored_ids == set(acked),
            f"round {index}: reopened store holds {len(stored_ids)} ids, "
            f"{len(acked)} puts were acknowledged",
        )
        for job_id in sorted(stored_ids & set(acked)):
            expected = records[acked[job_id]].full_profile.to_dict()
            state.check(
                reopened.get_profile(job_id).to_dict() == expected,
                f"{job_id}: profile read back after reopen differs",
            )
        for position in range(count):
            readback[records[position].key] = reopened.get_profile(copies[position][0])
        _close(reopened)

    state.run_rounds(one_round, min_rounds=1, wrappers=wrappers)
    state.peak_rss_mb = peak_rss_mb()
    if replayed:
        state.layer_extra["hbase.wal_replayed_records"] = sum(replayed) / len(replayed)
        state.layer_extra["core.match_index.rebuilds_at_reopen"] = sum(
            reopen_rebuilds
        ) / len(reopen_rebuilds)
        state.layer_extra["core.match_index.rebuilds"] = (
            state.counters["pstorm_matcher_index_rebuilds_total"] - sum(reopen_rebuilds)
        ) / max(1, state.traced_rounds)

    # Quality of what the store hands back after a restart: the CBO's
    # predicted speedup on each entry's profile as read back.
    cbo = CostBasedOptimizer(WhatIfEngine(ec2_cluster()))
    for record in records:
        profile = readback.get(record.key)
        if profile is None:
            continue
        result = cbo.optimize(profile, record.entry.dataset.nominal_bytes)
        state.speedups.append(
            result.default_predicted_runtime / result.predicted_runtime
        )
    if state.speedups:
        state.check(geomean(state.speedups) >= 1.0, "tuned_speedup is below 1")
