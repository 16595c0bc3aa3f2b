"""Self-tests for the benchmark's own code (not part of the repository's tests).

    python3 -m pytest bench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from qw3 import find_roots, lambda0_adjudicate, serialize_field  # noqa: E402


def test_wide_fields_are_deterministic_per_seed():
    first = [serialize_field(f) for f in workloads.wide_fields(7)]
    again = [serialize_field(f) for f in workloads.wide_fields(7)]
    other = [serialize_field(f) for f in workloads.wide_fields(8)]
    assert first == again
    assert first != other
    assert [len(f["defects"]) for f in first] == list(workloads.WIDE_SIZES)


def test_oracle_reproduces_one_defect_fourier_3pi_12():
    preset = workloads.Preset("one-defect", 1)
    field = preset.field()
    mine = sorted(r.lam for r in find_roots(field).records + lambda0_adjudicate(field))
    dense = oracle.dense_point_spectrum(field)
    assert len(dense.resolved) == len(mine) == 4
    spurious, missed = oracle.match_phases(mine, dense.resolved, tol=1e-9)
    assert spurious == [] and missed == []


def test_larger_boxes_confirm_a_root_the_first_box_lacks_and_no_other(monkeypatch):
    # with 8 tail sites the first box cuts off the slowest-decaying
    # eigenvector of one-defect Fourier at 3pi/12 too far to place its phase
    monkeypatch.setattr(oracle, "TAIL", 8)
    field = workloads.Preset("one-defect", 1).field()
    lam = min(r.lam for r in find_roots(field).records + lambda0_adjudicate(field))
    first = oracle.dense_point_spectrum(field)
    spurious, _ = oracle.match_phases([lam], first.resolved)
    assert oracle.match_phases(spurious, first.cut, oracle.CUT_MATCH_TOL)[0] == [lam]
    assert oracle.confirm_phase(field, lam)
    assert not oracle.confirm_phase(field, lam + 1e-3)


def test_presets_check_flags_a_wrong_expected_count(tmp_path, monkeypatch):
    w = workloads.Presets(seed=0, out=tmp_path)
    job = workloads.Preset("one-defect", 1)
    output = w.run(job)
    assert not w.check(job, output).failed

    for wrong_counts in ((3, 5, 6, 6), (3, 3, 6, 6)):
        monkeypatch.setitem(workloads.EXPECTED_COUNTS, "one-defect", wrong_counts)
        verdict = w.check(job, output)
        assert verdict.failed and verdict.wrong


@pytest.mark.parametrize("key", ["end_to_end", "per_layer"])
def test_benchmark_json_names_what_the_benchmark_prints(key):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec[key]}
    if key == "per_layer":
        assert declared == spans.LAYER_UNITS
    else:
        assert declared == {"setup_s": "s", "job_cost.mean": "cal", "peak_rss_mb": "MB"}


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.span("cli.main", lambda: tracer.span("spectral.chi", lambda: sum(range(10**5))))
    m = tracer.layer_metrics(rounds=1)
    a = tracer.arrays()
    total = float(a["end"][0] - a["start"][0])
    child = float(a["end"][1] - a["start"][1])
    assert m["cli.main.calls"] == 1 and m["spectral.chi.calls"] == 1
    assert m["cli.self_s"] == pytest.approx(total - child)
    assert np.all(a["parent"] == [-1, 0])
