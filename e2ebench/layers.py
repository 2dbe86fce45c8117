"""The program's layer entry points and the per-layer metrics built on them.

Layer names are the program's module names.  Every per-layer metric is
computed from the traced rounds of a run only (see ``harness``).
"""

from __future__ import annotations

from typing import Any

from measure import bytes_per_op, read_wchar
from spans import EntryPoint, Recorder, Span, Wrappers, layer_totals

#: Per-layer metrics, in report order, with their units.
PER_LAYER_UNITS: dict[str, str] = {
    "hadoop.run_job.self_ms": "ms",
    "hadoop.partition_fractions_ms": "ms",
    "hadoop.run_jobs_per_submit": "count",
    "starfish.sample.self_ms": "ms",
    "core.features_ms": "ms",
    "core.pstorm.submit.self_ms": "ms",
    "starfish.profile_job_ms": "ms",
    "core.store.put_ms": "ms",
    "core.matcher.probe_ms": "ms",
    "core.matcher.stage1_survivors": "count",
    "tuners.optimize_ms": "ms",
    "tuners.evaluations_per_submit": "count",
    "observability.snapshot_ms": "ms",
    "hbase.bytes_written_per_put": "bytes",
    "hbase.wal_appends_per_put": "count",
    "hbase.wal_syncs_per_put": "count",
    "hbase.flushes": "count",
    "hbase.compactions": "count",
    "hbase.region_splits": "count",
    "core.match_index.rebuilds": "count",
    "core.store.snapshot_ms": "ms",
    "hbase.wal_replayed_records": "count",
    "core.match_index.rebuilds_at_reopen": "count",
    "serving.cache_hit_ratio": "ratio",
    "serving.queue_wait_ms": "ms",
    "serving.remember_ms": "ms",
    "serving.procpool.publish_ms": "ms",
    "serving.procpool.dispatches": "count",
    "serving.procpool.miss_roundtrip_ms": "ms",
    "serving.procpool.spawn_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.accounted_pct": "%",
}

#: Program counters (default metrics registry) read at round boundaries.
COUNTERS = (
    "wal_appends_total",
    "wal_syncs_total",
    "lsm_flushes_total",
    "lsm_compactions_total",
    "hbase_region_splits_total",
    "pstorm_matcher_index_rebuilds_total",
    "wal_replayed_records_total",
)


def counter_totals() -> dict[str, float]:
    """Current value of each counter in :data:`COUNTERS`, summed over labels."""
    from repro.observability import get_registry

    totals = dict.fromkeys(COUNTERS, 0.0)
    for instrument in get_registry(None).collect():
        if instrument.kind == "counter" and instrument.name in totals:
            totals[instrument.name] += instrument.value
    return totals


def _record_stage1(span: Span, args: tuple, kwargs: dict, outcome: Any) -> None:
    span.attrs["stage1"] = outcome.map_match.funnel.get("dynamic", 0)


def _record_evaluations(span: Span, args: tuple, kwargs: dict, decision: Any) -> None:
    span.attrs["evaluations"] = decision.evaluations


def _wchar_before(span: Span, args: tuple, kwargs: dict) -> None:
    span.attrs["wchar_start"] = read_wchar()


def _wchar_after(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["wchar"] = read_wchar() - span.attrs.pop("wchar_start")


def _record_dispatch(span: Span, args: tuple, kwargs: dict) -> None:
    span.attrs["requests"] = list(args[2])


def _record_finish(span: Span, args: tuple, kwargs: dict) -> None:
    span.attrs["request"] = args[1]["request_id"]


def wrappers(recorder: Recorder) -> Wrappers:
    """Wrappers for every layer entry point the benchmark times."""
    from repro.core import pstorm as pstorm_module
    from repro.core.matcher import ProfileMatcher
    from repro.core.pstorm import PStorM
    from repro.core.shm_index import SharedIndexPublisher
    from repro.core.store import ProfileStore
    from repro.hadoop import engine as engine_module
    from repro.hadoop.engine import HadoopEngine
    from repro.serving.procpool import ProcessPoolFrontend
    from repro.serving.service import TuningService
    from repro.starfish.profiler import StarfishProfiler
    from repro.starfish.sampler import Sampler
    from repro.tuners.adapters import CboTuner

    return Wrappers(
        recorder,
        [
            EntryPoint(engine_module, "partition_fractions", "hadoop.partition_fractions"),
            EntryPoint(HadoopEngine, "run_job", "hadoop.run_job"),
            EntryPoint(Sampler, "collect", "starfish.sample"),
            EntryPoint(StarfishProfiler, "profile_job", "starfish.profile_job"),
            EntryPoint(pstorm_module, "extract_job_features", "core.features"),
            EntryPoint(pstorm_module, "registry_to_dict", "observability.snapshot"),
            EntryPoint(PStorM, "submit", "core.pstorm.submit"),
            EntryPoint(PStorM, "remember", "core.pstorm.remember"),
            EntryPoint(
                ProfileMatcher, "match_job", "core.matcher.probe", after=_record_stage1
            ),
            EntryPoint(
                CboTuner, "optimize", "tuners.optimize", after=_record_evaluations
            ),
            EntryPoint(
                ProfileStore,
                "put",
                "core.store.put",
                before=_wchar_before,
                after=_wchar_after,
            ),
            EntryPoint(ProfileStore, "snapshot", "core.store.snapshot"),
            EntryPoint(TuningService, "remember", "serving.remember"),
            EntryPoint(SharedIndexPublisher, "publish", "serving.procpool.publish"),
            EntryPoint(
                ProcessPoolFrontend,
                "_dispatch_task",
                "serving.procpool.dispatch",
                before=_record_dispatch,
            ),
            EntryPoint(
                ProcessPoolFrontend,
                "_finish_entry",
                "serving.procpool.finish",
                before=_record_finish,
            ),
        ],
    )


def _side(root_name: str) -> str:
    """Which operation caused a span, from its outermost ancestor.

    Service workers and the process pool's threads start their own
    trees, so their roots count as reads; anything else (set-up work,
    restarts) belongs to no timed operation.
    """
    if root_name == "op.write":
        return "write"
    if root_name == "op.read" or root_name.startswith("serving."):
        return "read"
    return "other"


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def per_layer_metrics(
    spans: list[Span],
    reads: int,
    writes: int,
    rounds: int,
    counters: dict[str, float],
    extra: dict[str, float],
) -> dict[str, float]:
    """Per-layer metrics from the spans and counter deltas of traced rounds.

    Times and counts on the submit path are per read operation (a
    submit, a probe or a request); those on the remember path are per
    write operation.  Counter-based figures are per traced round unless
    the name says otherwise.
    """
    totals = layer_totals(spans, _side)

    def per_read(name: str, field: str = "total_seconds") -> float:
        entry = totals.get(("read", name))
        if entry is None or reads == 0:
            return 0.0
        return getattr(entry, field) / reads

    def per_write(name: str) -> float:
        entry = totals.get(("write", name))
        if entry is None or writes == 0:
            return 0.0
        return entry.total_seconds / writes

    def named(name: str) -> list[Span]:
        return [span for span in spans if span.name == name]

    puts = named("core.store.put")
    put_count = len(puts)
    probes = [s.attrs["stage1"] for s in named("core.matcher.probe") if "stage1" in s.attrs]
    evaluations = sum(s.attrs.get("evaluations", 0) for s in named("tuners.optimize"))
    dispatched: dict[int, float] = {}
    for span in named("serving.procpool.dispatch"):
        for request in span.attrs["requests"]:
            dispatched.setdefault(request, span.start)
    roundtrips = [
        span.start - dispatched[span.attrs["request"]]
        for span in named("serving.procpool.finish")
        if span.attrs["request"] in dispatched
    ]
    read_roots = named("op.read")
    read_root_time = sum(span.duration for span in read_roots)
    read_root_self = (
        totals[("read", "op.read")].self_seconds if read_roots else 0.0
    )

    metrics = {
        "hadoop.run_job.self_ms": 1e3 * per_read("hadoop.run_job", "self_seconds"),
        "hadoop.partition_fractions_ms": 1e3 * per_read("hadoop.partition_fractions"),
        "hadoop.run_jobs_per_submit": per_read("hadoop.run_job", "count"),
        "starfish.sample.self_ms": 1e3
        * (
            per_read("starfish.sample", "self_seconds")
            + per_read("starfish.profile_job", "self_seconds")
        ),
        "core.features_ms": 1e3 * per_read("core.features"),
        "core.pstorm.submit.self_ms": 1e3
        * per_read("core.pstorm.submit", "self_seconds"),
        "starfish.profile_job_ms": 1e3 * per_write("starfish.profile_job"),
        "core.store.put_ms": 1e3 * per_write("core.store.put"),
        "core.matcher.probe_ms": 1e3 * per_read("core.matcher.probe"),
        "core.matcher.stage1_survivors": _mean(probes),
        "tuners.optimize_ms": 1e3 * per_read("tuners.optimize"),
        "tuners.evaluations_per_submit": evaluations / reads if reads else 0.0,
        "observability.snapshot_ms": 1e3 * per_read("observability.snapshot"),
        "hbase.bytes_written_per_put": bytes_per_op(
            [span.attrs["wchar"] for span in puts if "wchar" in span.attrs]
        ),
        "hbase.wal_appends_per_put": (
            counters["wal_appends_total"] / put_count if put_count else 0.0
        ),
        "hbase.wal_syncs_per_put": (
            counters["wal_syncs_total"] / put_count if put_count else 0.0
        ),
        "hbase.flushes": counters["lsm_flushes_total"] / rounds,
        "hbase.compactions": counters["lsm_compactions_total"] / rounds,
        "hbase.region_splits": counters["hbase_region_splits_total"] / rounds,
        "core.match_index.rebuilds": counters["pstorm_matcher_index_rebuilds_total"]
        / rounds,
        "core.store.snapshot_ms": 1e3
        * _mean([span.duration for span in named("core.store.snapshot")]),
        "serving.remember_ms": 1e3 * per_write("serving.remember"),
        "serving.procpool.publish_ms": 1e3
        * _mean([s.duration for s in named("serving.procpool.publish")]),
        "serving.procpool.dispatches": (
            len(named("serving.procpool.dispatch")) / reads if reads else 0.0
        ),
        "serving.procpool.miss_roundtrip_ms": 1e3 * _mean(roundtrips),
        "trace.accounted_pct": (
            100.0 * (1.0 - read_root_self / read_root_time) if read_root_time else 0.0
        ),
    }
    metrics.update(extra)
    return {name: float(metrics.get(name, 0.0)) for name in PER_LAYER_UNITS}
