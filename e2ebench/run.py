"""End-to-end wall-clock benchmark of the PStorM reproduction.

Run from the repository root:

    python3 e2ebench/run.py --workload submit-sd --seed 1 --seconds 15 --trace 0

prints a metadata line and then, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
separate traced run (its spans are written under ``.e2ebench_out/``).
``--repeat N`` runs the workload N times in fresh processes, seeds
``seed .. seed+N-1``, and prints each metric's median and quartiles.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("submit-sd", "store-durable", "serve-processes")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "read_p50_ms": "ms",
    "read_p90_ms": "ms",
    "write_mean_ms": "ms",
    "restart_s": "s",
    "tuned_speedup": "x",
    "peak_rss_mb": "MB",
}


def _load_program() -> None:
    """Import the program from this checkout's ``src`` and nowhere else."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources under {source}")
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}")


def _end_to_end(state) -> dict[str, float]:
    from measure import geomean, median, summarize

    reads = summarize(state.reads)
    ops_per_s, write_mean = state.round_medians()
    if "p90" not in reads:
        raise RuntimeError(
            f"only {len(state.reads)} read samples: too few for a p90"
        )
    return {
        "setup_s": median(state.setups),
        "ops_per_s": ops_per_s,
        "read_p50_ms": 1e3 * reads["p50"],
        "read_p90_ms": 1e3 * reads["p90"],
        "write_mean_ms": 1e3 * write_mean,
        "restart_s": median(state.restarts),
        "tuned_speedup": geomean(state.speedups),
        "peak_rss_mb": state.peak_rss_mb,
    }


def run_once(args: argparse.Namespace) -> int:
    _load_program()
    import harness
    import layers
    from measure import host_metadata

    out_dir = ROOT / ".e2ebench_out"
    out_dir.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    state = harness.RunState(
        seed=args.seed,
        seconds=float(args.seconds),
        traced=bool(args.trace),
        work_dir=work_dir,
    )
    wrappers = layers.wrappers(state.recorder) if args.trace else None
    try:
        if args.workload == "submit-sd":
            import submit_sd

            submit_sd.run(state, wrappers)
        elif args.workload == "store-durable":
            import store_durable

            store_durable.run(state, wrappers)
        else:
            import serve

            serve.run(state, wrappers)
    finally:
        harness.stop_children()
        shutil.rmtree(work_dir, ignore_errors=True)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **host_metadata(ROOT),
        "rounds": len(state.rounds),
        "round_seconds": [
            [round_[0], round_[1]] for round_ in state.rounds
        ],
        "setup_seconds": state.setups,
        "restart_seconds": state.restarts,
        "samples": {
            "read": len(state.reads),
            "write": len(state.writes),
            "setup": len(state.setups),
            "restart": len(state.restarts),
        },
        "inputs_s": state.inputs_seconds,
    }
    print(json.dumps({"meta": meta}), flush=True)
    for problem in state.problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if args.trace:
        state.layer_extra["trace.overhead_pct"] = state.trace_overhead_pct()
        values = layers.per_layer_metrics(
            state.recorder.spans,
            reads=state.traced_reads,
            writes=state.traced_writes,
            rounds=max(1, state.traced_rounds),
            counters=state.counters,
            extra=state.layer_extra,
        )
        units = layers.PER_LAYER_UNITS
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(
            json.dumps({"meta": meta, "spans": [s.to_dict() for s in state.recorder.spans]})
        )
    else:
        values = _end_to_end(state)
        units = END_TO_END_UNITS
    result = {
        "correct": not state.problems,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


def run_repeat(args: argparse.Namespace) -> int:
    from measure import repeat_summary

    results = []
    for seed in range(args.seed, args.seed + args.repeat):
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        completed = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, check=False
        )
        sys.stderr.write(completed.stderr)
        if completed.returncode != 0:
            print(f"seed {seed}: exit code {completed.returncode}", file=sys.stderr)
            return 1
        last = json.loads(completed.stdout.strip().splitlines()[-1])
        print(json.dumps({"seed": seed, **last}), flush=True)
        results.append(
            {name: metric["value"] for name, metric in last["metrics"].items()}
        )
    print(json.dumps({"workload": args.workload, "repeat": args.repeat,
                      "summary": repeat_summary(results)}), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run N times in fresh processes and summarize")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if args.repeat:
        return run_repeat(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
