"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload trace-stream --seed 1 --seconds 20
    python3 perfbench/run.py --workload gemm-fp16 --trace 1
    python3 perfbench/run.py --workload all

One run makes the workload's inputs from ``--seed``, runs one cold pass,
then repeats timed passes for ``--seconds`` seconds (and at least
``MIN_PASSES`` of them), checking every pass against the program's own
oracles and the first pass's digest, and once per run against the
reference path.  Every timed sample of ``--trace 0`` (pass or fresh
interpreter) sits between two runs of a fixed calibration kernel; its
CPU time is scaled by theirs to a reference host speed (see
``calibration.py``), so the end-to-end times follow neither the time
the host takes the CPU away nor its changes of speed.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates traced and untraced passes and prints the
per-layer metrics from the spans.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A full record (host facts, input properties, sample counts) goes on the
line before it and into ``perfbench/out/``; the traced run also writes
its spans there.  The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import typing as _t

from calibration import REFERENCE_S, calibrate, scale
from spans import Tracer, covered_seconds, no_span, self_times

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: The tail percentile keeps this many passes beyond it ...
TAIL_BEYOND = 10
#: ... so an untraced run times at least this many passes.
MIN_PASSES = TAIL_BEYOND + 1
#: Traced and untraced passes each, at least, in a traced run.
MIN_TRACED = 5
#: A run stops at this many times ``--seconds`` even short of the
#: minimum pass counts, so a much slower program still ends in time.
MAX_STRETCH = 4
#: Fresh interpreters timed for ``setup_s``.
SETUP_SAMPLES = 7

END_TO_END = {
    "requests_per_s": "1/s",
    "pass_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Self times of the spans the workloads open, by span name.
SPAN_METRICS = {
    "memsys.trace.parse_s": "memsys.trace.parse",
    "memsys.replay_s": "memsys.replay",
    "pimexec.parse_s": "pimexec.parse",
    "pimexec.setup_s": "pimexec.setup",
    "pimexec.execute_s": "pimexec.execute",
    "nn.generate_s": "nn.generate",
    "nn.build_s": "nn.build",
    "nn.check_s": "nn.check",
    "telemetry.metrics_s": "telemetry.metrics",
    "telemetry.timeseries_s": "telemetry.timeseries",
    "telemetry.energy_s": "telemetry.energy",
    "telemetry.report_s": "telemetry.report",
}
#: Replay phases read from the ``PhaseProfiler`` replay fills; they
#: break ``memsys.replay_s`` down and are not spans of their own.
PHASE_METRICS = {
    "memsys.decode_s": "decode",
    "memsys.certificate_s": "certificate",
    "memsys.tier_execute_s": "tier-execute",
    "memsys.stats_gather_s": "stats-gather",
}
TELEMETRY_SPANS = (
    "telemetry.metrics",
    "telemetry.timeseries",
    "telemetry.energy",
    "telemetry.report",
)
#: Input properties, from the reference replay's request stream.
PROPERTY_METRICS = {
    "requests": "count",
    "host_requests": "count",
    "ab_requests": "count",
    "pim_requests": "count",
    "write_share": "ratio",
    "mode_switches": "count",
    "timestamped": "flag",
}

PER_LAYER = {
    **{name: "s" for name in SPAN_METRICS},
    **{name: "s" for name in PHASE_METRICS},
    "memsys.trace.lines_per_s": "1/s",
    "memsys.host_us_per_request": "us",
    "memsys.replay_share": "ratio",
    "memsys.vectorized_share": "ratio",
    "pimexec.us_per_command": "us",
    "telemetry.derive_share": "ratio",
    **{f"memsys.{name}": unit for name, unit in PROPERTY_METRICS.items()},
    "memsys.row_hits": "count",
    "memsys.row_conflicts": "count",
    "memsys.row_hit_rate": "ratio",
    "memsys.makespan_ns": "sim-ns",
    "memsys.sustained_gbps": "sim-Gbit/s",
    "telemetry.energy_pj": "sim-pJ",
    "nn.records": "count",
    "bench.tracing_overhead": "ratio",
    "bench.span_coverage": "ratio",
}


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def tail(samples: _t.Sequence[float]) -> _t.Tuple[float, float]:
    """``(value, percentile)`` at the highest percentile that keeps
    ``TAIL_BEYOND`` samples beyond it (nearest rank)."""
    if len(samples) <= TAIL_BEYOND:
        raise ValueError(
            f"{len(samples)} samples leave no percentile with "
            f"{TAIL_BEYOND} beyond it"
        )
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / len(ordered)


# ----------------------------------------------------------------------
# host facts and set-up time
# ----------------------------------------------------------------------
def git_commit() -> _t.Optional[str]:
    """The checked-out commit, read from ``.git`` (``None`` outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_facts() -> _t.Dict[str, _t.Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def _children_cpu() -> float:
    """User plus system seconds of every child process waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_seconds(
    modules: _t.Sequence[str],
) -> _t.Tuple[_t.List[float], _t.List[float]]:
    """Wall times of fresh interpreters importing ``modules``, and
    their CPU times scaled to the reference host speed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import " + ", ".join(modules)
    samples: _t.List[float] = []
    scaled: _t.List[float] = []
    before = calibrate()
    for _ in range(SETUP_SAMPLES):
        cpu_start = _children_cpu()
        start = time.perf_counter()
        # a captured stdout makes run() block on the pipe until the child
        # exits; without it, run() polls the child with sleeps of up to
        # 50 ms and the samples come out in 50 ms steps
        subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            stdout=subprocess.PIPE,
            check=True,
            timeout=120,
        )
        samples.append(time.perf_counter() - start)
        cpu = _children_cpu() - cpu_start
        after = calibrate()
        scaled.append(scale(cpu, before, after))
        before = after
    return samples, scaled


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
class PassLog:
    """Timed passes of one run, their failures and their digests."""

    def __init__(self, workload: _t.Any, inputs: _t.Any) -> None:
        self.workload = workload
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.problems: _t.List[str] = []
        self.first: _t.Any = None
        self.first_pass_s = float("nan")
        self.untraced: _t.List[float] = []
        #: CPU seconds of the ``untraced`` passes; the same scaled to
        #: the reference host speed, and the calibration CPU times they
        #: were scaled by (``--trace 0`` only).
        self.untraced_cpu: _t.List[float] = []
        self.scaled: _t.List[float] = []
        self.calibrations: _t.List[float] = []
        #: ``(pass id, seconds, outcome)`` of every good traced pass.
        self.traced: _t.List[_t.Tuple[int, float, _t.Any]] = []
        self.tracer = Tracer()
        #: First digest seen per set of digest fields.
        self.digests: _t.Dict[_t.Tuple[str, ...], dict] = {}

    def run(self, traced: bool, timed: bool = True) -> None:
        """One pass; a raise or a failed check counts as a failed pass."""
        from workloads import digest

        self.attempted += 1
        pass_id = self.attempted
        gc.collect()
        try:
            cpu_start = time.process_time()
            start = time.perf_counter()
            if traced:
                with self.tracer.span("pass", pass_id=pass_id):
                    outcome = self.workload.run_pass(
                        self.inputs, self.tracer.span, True
                    )
            else:
                outcome = self.workload.run_pass(self.inputs, no_span, False)
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu_start
            problems = self.workload.check(self.inputs, outcome)
            fields = digest(outcome)
            first = self.digests.setdefault(tuple(sorted(fields)), fields)
            if fields != first:
                problems.append(f"pass {pass_id}: digest differs from pass 1")
        except Exception:  # one pass must not end the run
            traceback.print_exc()
            problems = [f"pass {pass_id} raised"]
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            return
        if self.first is None:
            self.first = outcome
        if not timed:
            self.first_pass_s = wall
        elif traced:
            self.traced.append((pass_id, wall, outcome))
        else:
            self.untraced.append(wall)
            self.untraced_cpu.append(cpu)

    def measure(self, seconds: float, trace: bool) -> None:
        """A cold pass, then passes until ``seconds`` have gone by.

        Without tracing, the calibration kernel runs after the cold pass
        and after every pass, so each timed pass sits between two runs
        of it and is scaled by them.
        """
        self.run(traced=False, timed=False)
        if not trace:
            self.calibrations.append(calibrate())
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if trace:
                done = min(len(self.untraced), len(self.traced))
                enough = done >= MIN_TRACED
            else:
                enough = len(self.untraced) >= MIN_PASSES
            if elapsed >= seconds and (
                enough or elapsed >= MAX_STRETCH * seconds
            ):
                return
            if self.failed == self.attempted > 4 * MIN_PASSES:
                return  # every pass fails: nothing left to measure
            timed = len(self.untraced)
            self.run(traced=False)
            if trace:
                self.run(traced=True)
                continue
            self.calibrations.append(calibrate())
            if len(self.untraced) > timed:
                self.scaled.append(
                    scale(self.untraced_cpu[-1], *self.calibrations[-2:])
                )

    def check_reference(self, reference: _t.Any) -> None:
        """Every digest kind against the reference path's digest."""
        self.problems.extend(reference.problems)
        for fields in self.digests.values():
            expected = {k: reference.digest.get(k) for k in fields}
            if fields != expected:
                differ = sorted(k for k in fields if fields[k] != expected[k])
                self.problems.append(
                    f"digest differs from the reference path in {differ}"
                )
        if self.problems and self.failed == 0:
            # the passes agreed with each other, so all of them are wrong
            self.failed = self.attempted


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def pass_tail(samples: _t.Sequence[float]) -> _t.Tuple[float, float]:
    """:func:`tail`, or the slowest pass when too few passes ran."""
    if len(samples) <= TAIL_BEYOND:
        return max(samples), 100.0
    return tail(samples)


def end_to_end(
    log: PassLog, setup_scaled: _t.List[float], peak_rss_mb: float
) -> _t.Dict[str, float]:
    return {
        "requests_per_s": log.first.stats.n_requests
        / statistics.median(log.scaled),
        "pass_s_tail": pass_tail(log.scaled)[0],
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": peak_rss_mb,
    }


def per_pass_layers(log: PassLog) -> _t.List[_t.Dict[str, float]]:
    """Per-layer values of every traced pass."""
    from workloads import vectorized_share

    spans = log.tracer.spans
    selfs = self_times(spans)
    by_pass: _t.Dict[int, _t.Dict[str, float]] = {}
    roots: _t.Dict[int, int] = {}
    for index, span in enumerate(spans):
        if span.parent is None:
            roots[span.pass_id] = index
        else:
            named = by_pass.setdefault(span.pass_id, {})
            named[span.name] = named.get(span.name, 0.0) + selfs[index]
    rows = []
    for pass_id, _, outcome in log.traced:
        root = spans[roots[pass_id]]
        named = by_pass.get(pass_id, {})
        row = {
            metric: named.get(name, 0.0)
            for metric, name in SPAN_METRICS.items()
        }
        phases = outcome.phases
        row.update(
            {
                metric: phases.get(name, 0.0)
                for metric, name in PHASE_METRICS.items()
            }
        )
        parse_s = row["memsys.trace.parse_s"]
        replay_s = row["memsys.replay_s"]
        execute_s = row["pimexec.execute_s"]
        row["memsys.trace.lines_per_s"] = (
            outcome.lines / parse_s if parse_s > 0 else 0.0
        )
        row["memsys.host_us_per_request"] = (
            1e6 * replay_s / outcome.stats.n_requests
        )
        row["memsys.replay_share"] = replay_s / root.duration
        row["memsys.vectorized_share"] = vectorized_share(outcome)
        row["pimexec.us_per_command"] = (
            1e6 * execute_s / outcome.commands if outcome.commands else 0.0
        )
        row["telemetry.derive_share"] = (
            sum(named.get(name, 0.0) for name in TELEMETRY_SPANS)
            / root.duration
        )
        children = [
            (s.start, s.end)
            for s in spans
            if s.parent == roots[pass_id]
        ]
        row["bench.span_coverage"] = (
            covered_seconds(children, root.start, root.end) / root.duration
        )
        rows.append(row)
    return rows


def per_layer(log: PassLog, reference: _t.Any) -> _t.Dict[str, float]:
    rows = per_pass_layers(log)
    metrics = {
        name: statistics.median(row[name] for row in rows) for name in rows[0]
    }
    for name in PROPERTY_METRICS:
        metrics[f"memsys.{name}"] = reference.properties[name]
    stats = log.first.stats
    metrics.update(
        {
            "memsys.row_hits": stats.row_hits,
            "memsys.row_conflicts": stats.row_conflicts,
            "memsys.row_hit_rate": stats.row_hit_rate,
            "memsys.makespan_ns": stats.makespan_ns,
            "memsys.sustained_gbps": stats.sustained_bits_per_sec / 1e9,
            "telemetry.energy_pj": float(reference.digest["energy_pj"]),
            "nn.records": log.first.records,
            "bench.tracing_overhead": statistics.median(
                wall for _, wall, _ in log.traced
            )
            / statistics.median(log.untraced)
            - 1.0,
        }
    )
    return metrics


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    setup, setup_scaled = (
        ([], []) if trace else setup_seconds(workload.entry_modules)
    )
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        inputs = workload.prepare(seed, pathlib.Path(workdir))
        log = PassLog(workload, inputs)
        log.measure(seconds, trace)
        peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        reference = workload.reference(inputs)
    log.check_reference(reference)
    correct = not log.problems
    record: _t.Dict[str, _t.Any] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": correct,
        "attempted": log.attempted,
        "failed": log.failed,
        "problems": log.problems[:20],
        "host": host_facts(),
        "first_pass_s": log.first_pass_s,
        "untraced_passes": len(log.untraced),
        "traced_passes": len(log.traced),
        "inputs": reference.properties,
        "digest": log.digests and next(iter(log.digests.values())),
        "reference_digest": reference.digest,
        "engine": log.first.engine if log.first is not None else None,
        "peak_rss_mb": peak_rss_mb,
    }
    metrics: _t.Dict[str, float] = {}
    if correct and not trace:
        metrics = end_to_end(log, setup_scaled, peak_rss_mb)
        value, percentile = pass_tail(log.scaled)
        record["calibration_reference_s"] = REFERENCE_S
        record["pass_s_tail"] = {
            "value": value,
            "percentile": percentile,
            "samples": len(log.scaled),
            "beyond": TAIL_BEYOND,
            "scaled": True,
        }
        record["pass_s_median"] = statistics.median(log.scaled)
        record["pass_s_median_wall"] = statistics.median(log.untraced)
        record["requests_per_s_wall"] = (
            log.first.stats.n_requests / record["pass_s_median_wall"]
        )
        record["pass_samples_s"] = log.untraced
        record["pass_cpu_s"] = log.untraced_cpu
        record["pass_scaled_s"] = log.scaled
        record["calibration_cpu_s"] = log.calibrations
        record["setup_samples_s"] = setup
        record["setup_scaled_s"] = setup_scaled
    elif correct:
        metrics = per_layer(log, reference)
        if log.first.telemetry is None:
            record["traced_replay_telemetry"] = (
                "traced passes attach a ReplayTelemetry to read the "
                "replay phases; untraced passes replay without one"
            )
        log.tracer.write(OUT / f"{name}-seed{seed}.spans.json")
    units = PER_LAYER if trace else END_TO_END
    record["metrics"] = {
        key: {"value": metrics[key], "unit": units[key]} for key in metrics
    }
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n"
    )
    return record


def print_metrics(metrics: _t.Dict[str, _t.Dict[str, _t.Any]]) -> None:
    for metric, entry in metrics.items():
        print(f"  {metric:30s} {entry['value']:.6g} {entry['unit']}")


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own process, one table at the end."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        completed = subprocess.run(
            [
                sys.executable, str(pathlib.Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            stdout=subprocess.PIPE,
            text=True,
            timeout=900,
        )
        lines = completed.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = {
                "correct": False, "attempted": 1, "failed": 1, "metrics": {}
            }
        results[name]["exit"] = completed.returncode
    for name, result in results.items():
        print(
            f"{name}: correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']}"
        )
        print_metrics(result["metrics"])
    summary = {
        "correct": all(
            r["correct"] and r["exit"] == 0 for r in results.values()
        ),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}:{metric}": entry
            for name, r in results.items()
            for metric, entry in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def parse_args(argv: _t.Optional[_t.Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Stage-traced benchmark of the repro user paths."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv: _t.Optional[_t.Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"no repro package under {SRC}: run from a checkout of the "
            "repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; available: "
            f"{', '.join(WORKLOADS)}, all",
            file=sys.stderr,
        )
        return 2
    record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    print(
        f"{args.workload} seed={args.seed}: {record['attempted']} passes, "
        f"{record['failed']} failed"
    )
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    if "pass_s_tail" in record:
        tail_stats = record["pass_s_tail"]
        print(
            f"  pass seconds at reference speed: median "
            f"{record['pass_s_median']:.6g}, "
            f"p{tail_stats['percentile']:.0f} {tail_stats['value']:.6g} "
            f"over {tail_stats['samples']} passes "
            f"(wall median {record['pass_s_median_wall']:.6g})"
        )
    print_metrics(record["metrics"])
    print("record: " + json.dumps(record, default=str))
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
