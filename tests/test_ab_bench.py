import importlib.util
import json
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "ab_bench", Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

COST = {"job_cost.mean": "lower"}


def result(tmp_path, side, seed, cost, failed=0, attempted=600):
    """A run's record as bench/run.py writes it, read back by ab_bench."""
    path = tmp_path / f"{side}-{seed}.json"
    path.write_text(json.dumps({
        "meta": {"seed": seed, "git_sha": side}, "correct": True,
        "attempted": attempted, "failed": failed,
        "metrics": {"job_cost.mean": {"value": cost, "unit": "cal"}}, "jobs": []}))
    return ab_bench.read_result(path)


def pairs(tmp_path, parent, change):
    return [(result(tmp_path, "parent", s, p), result(tmp_path, "change", s, c))
            for s, (p, c) in enumerate(zip(parent, change), start=1)]


PARENT = [13.2, 13.4, 13.3, 13.5, 13.1, 13.3, 13.4, 13.2, 13.3, 13.4]


def test_a_pair_keeps_the_run_record(tmp_path):
    r = result(tmp_path, "parent", 7, 13.25, failed=480, attempted=720)
    assert r == {"seed": 7, "commit": "parent", "correct": True, "failed": 480,
                 "attempted": 720, "metrics": {"job_cost.mean": 13.25}}


def test_ties_are_no_wins(tmp_path):
    m = ab_bench.summarize(pairs(tmp_path, PARENT, PARENT), COST)["metrics"]["job_cost.mean"]
    assert (m["wins"], m["pairs"], m["median_gap"], m["gain"]) == (0, 10, 0.0, False)
    # nine clear wins and one tie still make the gain
    change = [12.2] * 9 + [PARENT[9]]
    m = ab_bench.summarize(pairs(tmp_path, PARENT, change), COST)["metrics"]["job_cost.mean"]
    assert (m["wins"], m["gain"]) == (9, True)


def test_a_gain_needs_nine_of_ten_pairs(tmp_path):
    nine = [12.2] * 9 + [13.6]
    m = ab_bench.summarize(pairs(tmp_path, PARENT, nine), COST)["metrics"]["job_cost.mean"]
    assert (m["wins"], m["gain"]) == (9, True)
    eight = [12.2] * 8 + [13.6] * 2
    m = ab_bench.summarize(pairs(tmp_path, PARENT, eight), COST)["metrics"]["job_cost.mean"]
    assert (m["wins"], m["gain"]) == (8, False)


def test_a_gap_inside_the_parents_quartile_spread_is_no_gain(tmp_path):
    m = ab_bench.summarize(pairs(tmp_path, PARENT, [p - 0.1 for p in PARENT]),
                           COST)["metrics"]["job_cost.mean"]
    q1, q3 = m["parent_quartiles"]
    assert m["wins"] == 10 and 0 < m["median_gap"] < q3 - q1
    assert not m["gain"]
    m = ab_bench.summarize(pairs(tmp_path, PARENT, [p - 0.3 for p in PARENT]),
                           COST)["metrics"]["job_cost.mean"]
    assert m["median_gap"] > q3 - q1 and m["gain"]


def test_a_higher_is_better_metric_wins_upwards(tmp_path):
    m = ab_bench.summarize(pairs(tmp_path, PARENT, [p + 1 for p in PARENT]),
                           {"job_cost.mean": "higher"})["metrics"]["job_cost.mean"]
    assert (m["wins"], m["gain"]) == (10, True)


def test_failed_shares_compare_as_fractions(tmp_path):
    equal = [(result(tmp_path, "parent", 1, 2.0, 480, 720),
              result(tmp_path, "change", 1, 2.0, 464, 696)),
             (result(tmp_path, "parent", 2, 1.0, 0, 600),
              result(tmp_path, "change", 2, 1.0, 0, 592))]
    assert ab_bench.summarize(equal, COST)["failed_share_equal"]
    more = equal + [(result(tmp_path, "parent", 3, 1.0, 0, 600),
                     result(tmp_path, "change", 3, 1.0, 1, 600))]
    assert not ab_bench.summarize(more, COST)["failed_share_equal"]


VERDICT = """# /parent
presets   fields=8 records=25
# /change
presets   fields=8 records=26
# verdict
presets   differs
cli       equal
gained    presets field 3 lambda=1.25 (checkout 1)
lost      presets field 5 lambda=2.5 (checkout 1)
"""


def parity_stub(monkeypatch, tmp_path, code):
    """Stub the parity run (returncode code, VERDICT's lines) and the timed runs;
    returns the list of what was run, in order."""
    ran, real_run = [], ab_bench.subprocess.run

    def run(cmd, **kwargs):
        if Path(cmd[1]).name != "parity_hash.py":  # platform.platform() asks uname
            return real_run(cmd, **kwargs)
        assert cmd[2] == "--tolerant"
        ran.append(("parity", *cmd[3:]))
        return ab_bench.subprocess.CompletedProcess(cmd, code, VERDICT)

    def run_once(checkout, workload, seed, seconds):
        ran.append((checkout.name, seed))
        return {"seed": seed, "commit": checkout.name, "correct": True, "failed": 0,
                "attempted": 600, "metrics": {"job_cost.mean": 1.0}}

    monkeypatch.setattr(ab_bench.subprocess, "run", run)
    monkeypatch.setattr(ab_bench, "run_once", run_once)
    monkeypatch.setattr(ab_bench, "ROOT", tmp_path)
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "end_to_end": [{"name": "job_cost.mean", "better": "lower"}]}))
    return ran


def test_parity_that_differs_stops_before_any_timing(monkeypatch, tmp_path, capsys):
    ran = parity_stub(monkeypatch, tmp_path, 1)
    argv = ["ab_bench", str(tmp_path / "parent"), str(tmp_path / "change"),
            "--workload", "presets", "--seeds", "1-2", "--parity"]
    assert ab_bench.main(argv) == 1
    assert ran == [("parity", str(tmp_path / "parent"), str(tmp_path / "change"))]
    assert capsys.readouterr().out.splitlines() == [
        "parity: tools/parity_hash.py --tolerant exited 1; nothing timed", "presets   differs",
        "gained    presets field 3 lambda=1.25 (checkout 1)",
        "lost      presets field 5 lambda=2.5 (checkout 1)"]
    assert not list(tmp_path.glob("BENCH_*.json"))


def test_parity_that_holds_goes_on_to_the_pairs(monkeypatch, tmp_path, capsys):
    ran = parity_stub(monkeypatch, tmp_path, 0)
    argv = ["ab_bench", str(tmp_path / "parent"), str(tmp_path / "change"),
            "--workload", "presets", "--seeds", "1-2"]
    assert ab_bench.main(argv) == 0  # no --parity: no parity run
    assert ran == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2)]
    assert not json.loads((tmp_path / "BENCH_presets.json").read_text())["parity"]
    ran.clear()
    capsys.readouterr()
    assert ab_bench.main([*argv, "--parity"]) == 0
    assert ran[0][0] == "parity" and len(ran) == 5
    assert capsys.readouterr().out.splitlines()[0] == "parity: equal"
    assert json.loads((tmp_path / "BENCH_presets.json").read_text())["parity"]
