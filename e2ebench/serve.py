"""``serve-processes``: ``TuningService`` on the process backend under bursts.

One load generator drives a service with ``WORKERS`` worker processes
whose store holds all 8 ``loadgen_zoo()`` entries from set-up.  The load
is a closed loop of bursts: ``BURST`` requests (the 8 keys round-robin,
each ``BURST // 8`` times) are sent at once, and the next burst goes
only after all are answered.  Before every burst one
``TuningService.remember()`` rewrites a key's profile and invalidates
its cached results.  A round is 8 bursts and remembers every key once,
so every round does the same work.

Admission is opened wide so nothing is shed.  Each key is always asked
with the same seed, so a cached answer and a fresh one must agree;
``--seed`` draws the order of the remembers and the profiles they write.
"""

from __future__ import annotations

import gc
import multiprocessing
import random
import threading
import time

from harness import RunState
from measure import geomean, peak_rss_mb

#: One worker: with the load generator's process it fills the 2 cores the
#: bounds were set on.  Two workers made three busy processes on 2 cores,
#: and the figures measured the scheduler (ten-seed spreads up to 0.27).
WORKERS = 1
BURST = 32
SETUPS = 3
RESTARTS = 15
#: Seconds to wait for any one answer before counting it failed.
ANSWER_TIMEOUT = 60.0


def _config():
    from repro.serving.admission import TenantPolicy
    from repro.serving.service import ServiceConfig

    return ServiceConfig(
        workers=WORKERS,
        queue_capacity=4 * BURST,
        default_tenant=TenantPolicy(rate_per_second=1e9, burst=1e9),
        backend="processes",
    )


def run(state: RunState, wrappers) -> None:
    from repro.core.pstorm import PStorM
    from repro.core.store import ProfileStore
    from repro.hadoop.cluster import ec2_cluster
    from repro.hadoop.config import JobConfiguration
    from repro.hadoop.engine import HadoopEngine
    from repro.serving.loadgen import loadgen_zoo
    from repro.serving.service import TuningService
    from repro.tuners import TunerContext

    zoo = loadgen_zoo()
    keys = [f"{job.name}@{dataset.name}" for job, dataset in zoo]
    rng = random.Random(state.seed)
    # A miss costs what sampling the key's job costs, which depends on
    # the sample's seed; with only 8 keys, drawing those seeds per run
    # would change a run's work from seed to seed.
    request_seeds = list(range(len(zoo)))
    setup_seeds = [rng.randrange(1 << 30) for __ in zoo]
    #: (burst it precedes, key index, seed) of every remember, in order,
    #: for the in-process reference.
    remembered: list[tuple[int, int, int]] = []
    #: (burst, key index, traced, response) of every answered request.
    answers: list[tuple[int, int, bool, object]] = []
    spawn_seconds: list[float] = []

    def start(service) -> None:
        started = time.perf_counter()
        service.start()
        spawn_seconds.append(time.perf_counter() - started)

    def send_burst(target) -> list[tuple[int, object, float]]:
        """Send one burst at once; (key index, response, latency) per answer."""
        order = [position % len(zoo) for position in range(BURST)]
        # Completion times come from done-callbacks, which may run after
        # result() has returned to this thread: each slot signals its own.
        finished = [0.0] * BURST
        signalled = [threading.Event() for __ in range(BURST)]
        sent = time.perf_counter()

        def done(future, slot: int) -> None:
            finished[slot] = time.perf_counter() - sent
            signalled[slot].set()

        futures = []
        for slot, position in enumerate(order):
            job, dataset = zoo[position]
            state.attempted += 1
            future = target.submit_request(job, dataset, seed=request_seeds[position])
            future.add_done_callback(lambda f, slot=slot: done(f, slot))
            futures.append((slot, position, future))
        answered = []
        for slot, position, future in futures:
            try:
                response = future.result(timeout=ANSWER_TIMEOUT)
            except Exception as exc:  # noqa: BLE001 — counted, the run goes on
                state.note_failure(f"request: {type(exc).__name__}: {exc}")
                continue
            if not response.ok:
                state.note_failure(
                    f"request {keys[position]}: {response.status} "
                    f"{response.shed_reason or response.error}"
                )
                continue
            signalled[slot].wait(ANSWER_TIMEOUT)
            answered.append((position, response, finished[slot]))
        return answered

    service = None
    for __ in range(SETUPS):
        if service is not None:
            state.check(service.stop(), "a worker hung at shutdown")
        gc.collect()
        started = time.perf_counter()
        service = TuningService(store=ProfileStore(), config=_config())
        for position, (job, dataset) in enumerate(zoo):
            service.remember(job, dataset, seed=setup_seeds[position])
        start(service)
        # One untimed burst fills the result cache, so the first timed
        # round starts warm like every later one.
        warm = send_burst(service)
        state.setups.append(time.perf_counter() - started)
        state.check(
            all(r.result.outcome.map_match.job_id == keys[p] for p, r, __ in warm),
            "a warm-up answer did not match its own profile",
        )

    bursts = 0

    def burst(traced: bool) -> None:
        nonlocal bursts
        for position, response, latency in send_burst(service):
            state.reads.append(latency)
            answers.append((bursts, position, traced, response))
        bursts += 1

    def one_round(index: int) -> None:
        traced = state.tracing
        with state.timed_phase():
            # A remember before every burst, so every burst of every
            # round (the first included) follows an invalidation.
            for position in rng.sample(range(len(zoo)), len(zoo)):
                job, dataset = zoo[position]
                seed = rng.randrange(1 << 30)
                if state.write(service.remember, job, dataset, seed=seed) is not None:
                    remembered.append((bursts, position, seed))
                burst(traced)

    state.run_rounds(one_round, min_rounds=1, wrappers=wrappers)
    state.peak_rss_mb = peak_rss_mb(
        child.pid for child in multiprocessing.active_children()
    )
    state.check(service.stop(), "a worker hung at shutdown")

    # Restart: a new service over the same store (workers spawned
    # afresh), to its first answer.
    probe_job, probe_dataset = zoo[0]
    for __ in range(RESTARTS):
        state.attempted += 1
        gc.collect()
        started = time.perf_counter()
        restarted = TuningService(store=service.store, config=_config())
        try:
            start(restarted)
            response = restarted.submit_request(
                probe_job, probe_dataset, seed=request_seeds[0]
            ).result(timeout=ANSWER_TIMEOUT)
            elapsed = time.perf_counter() - started
        except Exception as exc:  # noqa: BLE001 — counted, the run goes on
            state.note_failure(f"restart: {type(exc).__name__}: {exc}")
            continue
        finally:
            state.check(restarted.stop(), "a worker hung at shutdown")
        state.restarts.append(elapsed)
        state.check(
            response.ok and response.result.outcome.map_match.job_id == keys[0],
            "first request after restart did not match its own profile",
        )

    # The reference: an in-process PStorM over a store that received the
    # same remember() writes, asked the same questions after each burst.
    # Its sample of each key is taken once (sampling never reads the
    # store), and past the first burst it prices only the hit path's
    # match and tuner calls, skipping the tuned run, which does not
    # change the config; the first burst checks that shortcut against a
    # whole PStorM.submit for every key.
    reference = PStorM(HadoopEngine(ec2_cluster()), ProfileStore())
    for position, (job, dataset) in enumerate(zoo):
        reference.remember(job, dataset, seed=setup_seeds[position])
    presampled, __ = reference.prepare_batch(
        [(job, dataset, None, request_seeds[p]) for p, (job, dataset) in enumerate(zoo)]
    )

    def reference_config(position: int) -> dict:
        job, dataset = zoo[position]
        features = presampled[position][1]
        outcome = reference.matcher.match_job(features)
        state.check(
            outcome.matched, f"{keys[position]}: reference probe found nothing"
        )
        if not outcome.matched:
            return {}
        decision = reference.tuner_impl.optimize(
            outcome.profile,
            data_bytes=dataset.nominal_bytes,
            context=TunerContext(
                features=features, outcome=outcome, data_bytes=dataset.nominal_bytes
            ),
        )
        return decision.best_config.to_dict()

    by_burst: dict[int, list[tuple[int, object]]] = {}
    for burst_index, position, __, response in answers:
        by_burst.setdefault(burst_index, []).append((position, response))
    writes = iter(remembered)
    pending = next(writes, None)
    for burst_index in range(bursts):
        while pending is not None and pending[0] <= burst_index:
            job, dataset = zoo[pending[1]]
            reference.remember(job, dataset, seed=pending[2])
            pending = next(writes, None)
        expected = {position: reference_config(position) for position in range(len(zoo))}
        if burst_index == 0:
            for position, (job, dataset) in enumerate(zoo):
                whole = reference.submit(job, dataset, seed=request_seeds[position])
                state.check(
                    whole.config.to_dict() == expected[position],
                    f"{keys[position]}: reference shortcut disagrees with submit",
                )
        for position, response in by_burst.get(burst_index, ()):
            result = response.result
            state.check(
                result.outcome.map_match.job_id == keys[position],
                f"burst {burst_index}: {keys[position]} matched "
                f"{result.outcome.map_match.job_id}",
            )
            state.check(
                result.config.to_dict() == expected[position],
                f"burst {burst_index}: {keys[position]} answer differs from "
                "the in-process reference",
            )

    engine = HadoopEngine(ec2_cluster())
    default_runtime = [
        engine.run_job(job, dataset, JobConfiguration(), seed=request_seeds[p]).runtime_seconds
        for p, (job, dataset) in enumerate(zoo)
    ]
    state.speedups.extend(
        default_runtime[position] / response.result.runtime_seconds
        for __, position, __, response in answers
    )
    if state.speedups:
        state.check(geomean(state.speedups) > 1.0, "tuned_speedup is not above 1")

    traced_answers = [response for __, __, traced, response in answers if traced]
    if traced_answers:
        state.layer_extra["serving.cache_hit_ratio"] = sum(
            r.cache_hit for r in traced_answers
        ) / len(traced_answers)
        state.layer_extra["serving.queue_wait_ms"] = 1e3 * sum(
            r.wait_seconds for r in traced_answers
        ) / len(traced_answers)
        state.traced_reads = len(traced_answers)
    if spawn_seconds:
        state.layer_extra["serving.procpool.spawn_ms"] = 1e3 * sum(spawn_seconds) / len(
            spawn_seconds
        )
