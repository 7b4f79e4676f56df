"""Tests of the benchmark's own machinery (not of ``repro``).

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, covered_seconds, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class TestMetricNames:
    def test_every_name_and_unit_follows_the_grammar(self, spec):
        names = [w["name"] for w in spec["workloads"]]
        for group in ("end_to_end", "per_layer"):
            for metric in spec[group]:
                names.append(metric["name"])
                assert UNIT.fullmatch(metric["unit"]), metric
        for name in names:
            assert NAME.fullmatch(name), name
        assert len(names) == len(set(names))

    def test_spec_matches_what_the_run_prints(self, spec):
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
            run.END_TO_END
        )
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
            run.PER_LAYER
        )
        assert [w["name"] for w in spec["workloads"]] == list(
            workloads.WORKLOADS
        )

    def test_bounds(self, spec):
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        assert all(0 < b <= 0.25 for b in bounds.values())
        assert bounds["setup_s"] == max(bounds.values())


class TestSelfTime:
    def test_self_time_is_span_minus_union_of_children(self):
        spans = [
            Span("root", 1, None, 0.0, 10.0),
            Span("a", 1, 0, 1.0, 4.0),
            Span("b", 1, 0, 3.0, 6.0),  # overlaps a: union is [1, 6]
            Span("c", 1, 0, 8.0, 12.0),  # runs past its parent's end
            Span("a.child", 1, 1, 2.0, 3.0),
        ]
        selfs = self_times(spans)
        assert selfs[0] == pytest.approx(10.0 - 5.0 - 2.0)
        assert selfs[1] == pytest.approx(3.0 - 1.0)
        assert selfs[2] == pytest.approx(3.0)
        assert selfs[4] == pytest.approx(1.0)

    def test_union_merges_touching_and_nested_intervals(self):
        assert covered_seconds([(0, 1), (1, 2), (0.5, 0.7)]) == 2
        assert covered_seconds([]) == 0

    def test_tracer_nests_spans_and_inherits_the_pass_id(self):
        tracer = Tracer()
        with tracer.span("pass", pass_id=7):
            with tracer.span("layer"):
                with tracer.span("inner"):
                    pass
        root, layer, inner = tracer.spans
        assert (root.parent, layer.parent, inner.parent) == (None, 0, 1)
        assert {s.pass_id for s in tracer.spans} == {7}
        assert root.start <= layer.start <= inner.end <= root.end
        selfs = self_times(tracer.spans)
        assert selfs[0] == pytest.approx(root.duration - layer.duration)


class TestTail:
    @pytest.mark.parametrize("n", [11, 12, 19, 40, 97])
    def test_keeps_ten_samples_beyond_at_the_highest_percentile(self, n):
        samples = [float(i) for i in range(n)][::-1]
        value, percentile = run.tail(samples)
        assert sum(s > value for s in samples) == run.TAIL_BEYOND
        assert percentile == pytest.approx(100.0 * (n - 10) / n)

    def test_too_few_samples_have_no_tail(self):
        with pytest.raises(ValueError):
            run.tail([1.0] * run.TAIL_BEYOND)


class _Fake:
    """A workload whose passes succeed unless told to raise."""

    raise_on = ()

    def __init__(self):
        self.calls = 0

    def run_pass(self, inputs, span, traced):
        self.calls += 1
        if self.calls in self.raise_on:
            raise RuntimeError("boom")
        with span("layer"):
            pass
        return object()

    def check(self, inputs, outcome):
        return []


class TestFailedPasses:
    def test_a_perturbed_digest_is_a_failed_pass(self, monkeypatch):
        digests = iter(
            [{"makespan_ns": "1.0"}, {"makespan_ns": "1.5"},
             {"makespan_ns": "1.0"}]
        )
        monkeypatch.setattr(workloads, "digest", lambda o: next(digests))
        log = run.PassLog(_Fake(), None)
        for _ in range(3):
            log.run(traced=False)
        assert (log.attempted, log.failed) == (3, 1)
        assert len(log.untraced) == 2
        assert "digest differs" in log.problems[0]

    def test_a_raising_pass_is_a_failed_pass(self, monkeypatch):
        monkeypatch.setattr(workloads, "digest", lambda o: {"x": 1})
        fake = _Fake()
        fake.raise_on = (2,)
        log = run.PassLog(fake, None)
        for _ in range(3):
            log.run(traced=True)
        assert (log.attempted, log.failed) == (3, 1)
        assert len(log.traced) == 2

    def test_a_reference_mismatch_fails_every_pass(self, monkeypatch):
        monkeypatch.setattr(workloads, "digest", lambda o: {"x": 1})
        log = run.PassLog(_Fake(), None)
        log.run(traced=False)
        log.run(traced=False)
        log.check_reference(workloads.Reference({"x": 2}, {}, []))
        assert log.failed == log.attempted == 2


class TestCalibration:
    def test_a_sample_on_a_host_at_half_speed_reads_half(self):
        ref = run.REFERENCE_S
        assert run.scale(0.8, 2 * ref, 2 * ref) == pytest.approx(0.4)
        assert run.scale(0.8, ref, 3 * ref) == pytest.approx(0.4)

    def test_each_pass_is_scaled_by_the_kernel_runs_around_it(
        self, monkeypatch
    ):
        monkeypatch.setattr(workloads, "digest", lambda o: {"x": 1})
        kernel = iter(run.REFERENCE_S * (1 + i % 3) for i in range(100))
        monkeypatch.setattr(run, "calibrate", lambda: next(kernel))
        monkeypatch.setattr(run, "MAX_STRETCH", 1e9)
        log = run.PassLog(_Fake(), None)
        log.measure(1e-9, trace=False)
        cal = log.calibrations
        assert len(log.scaled) == len(log.untraced_cpu) == run.MIN_PASSES
        assert len(cal) == len(log.scaled) + 1
        for i, (cpu, scaled) in enumerate(zip(log.untraced_cpu, log.scaled)):
            assert scaled == pytest.approx(
                cpu * run.REFERENCE_S / (0.5 * (cal[i] + cal[i + 1]))
            )

    def test_a_traced_run_does_not_calibrate(self, monkeypatch):
        monkeypatch.setattr(workloads, "digest", lambda o: {"x": 1})
        monkeypatch.setattr(run, "calibrate", pytest.fail)
        monkeypatch.setattr(run, "MAX_STRETCH", 1e9)
        log = run.PassLog(_Fake(), None)
        log.measure(1e-9, trace=True)
        assert log.scaled == [] and len(log.traced) == run.MIN_TRACED


def test_input_properties_count_mode_switches():
    from repro.memsys import Op

    ops = [Op.AB, Op.PIM, Op.READ, Op.WRITE, Op.PIM, Op.READ]
    props = workloads.input_properties(
        np.array([op.code for op in ops]), timestamped=False
    )
    assert props["mode_switches"] == 3
    assert (props["host_requests"], props["ab_requests"]) == (3, 1)
    assert props["write_share"] == pytest.approx(1 / 6)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gemm-fp16",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
