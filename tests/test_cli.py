import json

import numpy as np
import pytest

from qw3.cli import main
from qw3.coin import (CoinField, CoinMatrix, field_one_defect, make_fourier, make_grover,
                      parse_field_config, phase_scale, serialize_field)
from qw3.evolution import StateVector, apply_u


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_validate_ok(capsys):
    assert main(["validate", "--model", "one-defect", "--theta", "0.2618"]) == 0
    out = capsys.readouterr().out
    assert "1 defect site(s)" in out
    assert "degenerate phases" in out


def test_validate_counts_distinct_coins_equating_signed_zeros(tmp_path, capsys):
    f, g = make_fourier(), make_grover()
    # the same Grover coin written with -0.0 imaginary parts
    m = g.mat.copy()
    m.imag = -0.0
    g_neg = CoinMatrix(m)
    assert np.signbit(g_neg.mat.imag).all() and np.array_equal(g_neg.mat, g.mat)
    field = CoinField(g, f, -2, 2, (f, g_neg, phase_scale(f, 0.3), g))
    assert np.signbit(parse_field_config(serialize_field(field)).defects[1].mat.imag).all()
    cfg = tmp_path / "field.json"
    cfg.write_text(json.dumps(serialize_field(field)))
    assert main(["validate", "--config", str(cfg)]) == 0
    assert "4 defect site(s), 3 distinct coin(s)" in capsys.readouterr().out


def test_validate_rejects_non_finite_theta(capsys):
    # --model builds its config and names the coin's place, as a config file does
    for model, place in (("one-defect", "origin"), ("two-phase", "right"), ("homogeneous", "coin")):
        assert main(["validate", "--model", model, "--theta", "inf"]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: {place}: phase must be finite, got inf\n")


def test_validate_requires_model_or_config():
    assert main(["validate"]) == 2


def test_scan_csv_and_sidecars(tmp_path):
    out = tmp_path / "scan.csv"
    code = main(
        ["scan", "--model", "one-defect", "--theta", "0.2617993877991494",
         "--grid", "1000", "--out", str(out)]
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["lambda", "abs_chi", "in_lambda", "near_lambda0"]
    assert len(rows) == 1000
    in_arc = [r for r in rows if r[2] == "1"]
    assert in_arc and all(r[1] != "" for r in in_arc)
    sidecar = json.loads((tmp_path / "scan.csv.lambda0.json").read_text())
    assert len(sidecar["lambda0"]) == 2
    manifest = json.loads((tmp_path / "scan.csv.manifest.json").read_text())
    assert manifest["command"] == "scan"
    assert manifest["version"]
    assert len(manifest["config_digest"]) == 64


def test_roots_one_defect_count(tmp_path):
    out = tmp_path / "roots.json"
    theta = 11 * np.pi / 12
    code = main(
        ["roots", "--model", "one-defect", "--theta", repr(theta), "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["records"]) == 6
    assert doc["diagnostics"] == []
    for r in doc["records"]:
        assert r["source"] == "chi-root"
        assert r["op_residual"] <= 1e-8
        assert np.hypot(*r["zeta_right"]) < 1.0
        assert np.hypot(*r["zeta_left"]) > 1.0


def test_roots_two_phase_count(tmp_path):
    out = tmp_path / "roots.json"
    theta = 11 * np.pi / 12
    code = main(
        ["roots", "--model", "two-phase", "--theta", repr(theta), "--out", str(out)]
    )
    assert code == 0
    assert len(json.loads(out.read_text())["records"]) == 3


def test_roots_homogeneous_grover(tmp_path):
    out = tmp_path / "roots.json"
    code = main(["roots", "--model", "homogeneous", "--coin", "grover", "--out", str(out)])
    assert code == 0
    records = json.loads(out.read_text())["records"]
    assert len(records) == 1
    assert records[0]["source"] == "lambda0-compact"
    assert abs(records[0]["lambda"]) < 1e-12


def test_roots_reports_a_rejected_degenerate_phase(tmp_path, monkeypatch):
    # a negative tolerance rejects the one degenerate-phase candidate
    monkeypatch.setattr("qw3.spectral.RESIDUAL_TOL", -1.0)
    out = tmp_path / "roots.json"
    code = main(["roots", "--model", "homogeneous", "--coin", "grover", "--out", str(out)])
    assert code == 3
    doc = json.loads(out.read_text())
    assert doc["records"] == []
    assert [d["kind"] for d in doc["diagnostics"]] == ["residual-violation"]


def test_roots_writes_a_nan_residual_as_null(tmp_path, monkeypatch):
    monkeypatch.setattr("qw3.spectral.operator_residual",
                        lambda field, lams, psis: np.full(len(psis), np.nan))
    out = tmp_path / "roots.json"
    code = main(["roots", "--model", "one-defect", "--theta", "0.2617993877991494",
                 "--out", str(out)])
    assert code == 3

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    doc = json.loads(out.read_text(), parse_constant=refuse)
    assert doc["records"] == []
    assert [(d["kind"], d["op_residual"]) for d in doc["diagnostics"]] == [
        ("residual-violation", None)] * 3


@pytest.mark.parametrize("value", [float("inf"), -float("inf")])
def test_roots_writes_an_infinite_residual_as_null(tmp_path, monkeypatch, value):
    # inf fails the certificate and -inf passes it; either is written as null
    monkeypatch.setattr("qw3.spectral.operator_residual",
                        lambda field, lams, psis: np.full(len(psis), value))
    out = tmp_path / "roots.json"
    code = main(["roots", "--model", "one-defect", "--theta", "0.2617993877991494",
                 "--out", str(out)])

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    doc = json.loads(out.read_text(), parse_constant=refuse)
    written = doc["diagnostics"] if value > 0 else doc["records"]
    assert (code, [r["op_residual"] for r in written]) == (3 if value > 0 else 0, [None] * 3)
    assert not (doc["records"] if value > 0 else doc["diagnostics"])


def test_scan_trace_shows_root_dips(tmp_path):
    # the masked |chi| trace dips toward zero once per eigenvalue and
    # nowhere else (spurious local minima sit orders of magnitude higher)
    def dip_count(model):
        out = tmp_path / f"{model}.csv"
        assert main(["scan", "--model", model, "--theta", "0.2617993877991494",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        vals = [float(r[1]) if r[2] == "1" and r[1] else None for r in rows]
        n = len(vals)
        dips = 0
        for i in range(n):
            trio = vals[(i - 1) % n], vals[i], vals[(i + 1) % n]
            if any(v is None for v in trio):
                continue
            if trio[1] <= trio[0] and trio[1] <= trio[2] and trio[1] < 0.05:
                dips += 1
        return dips

    assert dip_count("one-defect") == 3
    assert dip_count("two-phase") == 0


def test_eigvec_roundtrip_through_simulator(tmp_path):
    theta = repr(3 * np.pi / 12)
    roots_path = tmp_path / "roots.json"
    assert main(["roots", "--model", "one-defect", "--theta", theta,
                 "--grid", "2000", "--out", str(roots_path)]) == 0
    rec = json.loads(roots_path.read_text())["records"][0]
    vec_path = tmp_path / "vec.csv"
    assert main(["eigvec", "--model", "one-defect", "--theta", theta,
                 "--grid", "2000", "--lambda", repr(rec["lambda"]),
                 "--out", str(vec_path)]) == 0
    header, rows = read_csv(vec_path)
    assert header == ["x", "re1", "im1", "re2", "im2", "re3", "im3", "site_norm"]
    xs = [int(r[0]) for r in rows]
    amps = np.array(
        [[complex(float(r[1]), float(r[2])), complex(float(r[3]), float(r[4])),
          complex(float(r[5]), float(r[6]))] for r in rows]
    )
    norms = np.array([float(r[7]) for r in rows])
    assert abs((norms**2).sum() - 1.0) <= 1e-10
    # re-imported vector satisfies the eigen-equation under the simulator
    psi = StateVector(xs[0], xs[-1], amps)
    field = field_one_defect(make_fourier(), phase_scale(make_fourier(), float(theta)))
    pad = np.zeros((psi.hi - psi.lo + 5, 3), dtype=complex)
    pad[2:-2] = psi.amps
    padded = StateVector(psi.lo - 2, psi.hi + 2, pad)
    stepped = apply_u(field, padded)
    assert np.linalg.norm(stepped.amps - np.exp(1j * rec["lambda"]) * pad) <= 1e-8
    # geometric decay on the right tail matches the reported rate
    rate = np.hypot(*rec["zeta_right"])
    tail = norms[(np.array(xs) > 3) & (norms > 1e-9)]
    assert np.abs(tail[1:] / tail[:-1] - rate).max() < 1e-6


def test_eigvec_rejects_non_root(tmp_path, capsys):
    code = main(["eigvec", "--model", "one-defect", "--theta", "0.7853981633974483",
                 "--grid", "2000", "--lambda", "1.23", "--out", str(tmp_path / "v.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "not an accepted root" in err and "nearest roots" in err


def test_evolve_t0_delta(tmp_path):
    out = tmp_path / "ev.csv"
    assert main(["evolve", "--model", "homogeneous", "--t", "0",
                 "--window", "8", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["x", "prob"]
    probs = {int(r[0]): float(r[1]) for r in rows}
    assert abs(probs[0] - 1.0) < 1e-12
    assert all(v == 0.0 for x, v in probs.items() if x != 0)


def test_evolve_trajectory_rows(tmp_path):
    out = tmp_path / "tr.csv"
    assert main(["evolve", "--model", "homogeneous", "--t", "3",
                 "--window", "10", "--trajectory", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["t", "x", "prob"]
    assert len(rows) == 4 * 21


def test_evolve_window_too_small_exit3(tmp_path, capsys):
    code = main(["evolve", "--model", "homogeneous", "--t", "50",
                 "--window", "10", "--out", str(tmp_path / "e.csv")])
    assert code == 3
    assert "half-width" in capsys.readouterr().err


def test_evolve_rejects_negative_time_and_empty_window(tmp_path, capsys):
    # configuration errors (exit 2), unlike a window too small for the run (exit 3)
    out = tmp_path / "e.csv"
    base = ["evolve", "--model", "homogeneous", "--out", str(out)]
    assert main(base + ["--t", "-1"]) == 2
    assert "configuration error: --t must be at least 0, got -1" in capsys.readouterr().err
    assert main(base + ["--t", "3", "--window", "0"]) == 2
    assert "configuration error: --window must be at least 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_and_errors(tmp_path, capsys):
    cfg = tmp_path / "field.json"
    cfg.write_text(json.dumps({
        "model": "one-defect",
        "bulk": {"preset": "fourier"},
        "origin": {"preset": "fourier", "phase": 0.2618},
    }))
    assert main(["validate", "--config", str(cfg)]) == 0

    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["validate", "--config", str(bad)]) == 2
    assert "configuration error" in capsys.readouterr().err

    eye = [[[float(i == j), 0.0] for j in range(3)] for i in range(3)]
    degenerate = tmp_path / "deg.json"
    degenerate.write_text(json.dumps({"model": "homogeneous", "coin": {"rows": eye}}))
    assert main(["validate", "--config", str(degenerate)]) == 2


def test_validate_rejects_a_rows_int_past_float_range(tmp_path, capsys):
    rows = [[[10**400 if i == j == 0 else float(i == j), 0] for j in range(3)] for i in range(3)]
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({"model": "one-defect", "bulk": {"preset": "fourier"},
                               "origin": {"rows": rows}}))
    assert main(["validate", "--config", str(cfg)]) == 2
    assert "origin: rows entry too large for a float" in capsys.readouterr().err


def test_scan_deterministic_bytes(tmp_path):
    args = ["scan", "--model", "two-phase", "--theta", "0.7853981633974483",
            "--grid", "1200"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_roots_deterministic_bytes(tmp_path):
    args = ["roots", "--model", "one-defect", "--theta", "0.2617993877991494",
            "--grid", "1500"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_demo_fig1(tmp_path):
    out = tmp_path / "fig1.csv"
    assert main(["demo", "fig1", "--theta-index", "0", "--grid", "1000",
                 "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["lambda", "abs_chi", "in_lambda", "near_lambda0"]
    assert len(rows) == 1000


@pytest.mark.parametrize("argv", [
    pytest.param(["scan", "--model", "one-defect", "--grid", "0"], id="scan-grid-0"),
    pytest.param(["scan", "--model", "one-defect", "--grid", "-5"], id="scan-grid-negative"),
    pytest.param(["demo", "fig1", "--grid", "-3"], id="demo-fig1-grid-negative"),
    pytest.param(["demo", "fig2", "--grid", "-3"], id="demo-fig2-grid-negative"),
])
def test_scan_rejects_empty_grid(tmp_path, capsys, argv):
    out = tmp_path / "scan.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert "configuration error: --grid must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    pytest.param(["roots", "--grid", "0"], "--grid must be at least 1000, got 0",
                 id="roots-grid-0"),
    pytest.param(["roots", "--refine-tol", "0"], "--refine-tol must be positive, got 0.0",
                 id="roots-refine-tol-0"),
    pytest.param(["eigvec", "--lambda", "1.0", "--grid", "10"],
                 "--grid must be at least 1000, got 10", id="eigvec-grid-10"),
])
def test_search_flags_are_configuration_errors(tmp_path, capsys, argv, message):
    # find_roots' own ValueError would be reported as a numerical error (exit 3)
    out = tmp_path / "out"
    assert main(argv + ["--model", "one-defect", "--out", str(out)]) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_scan_threaded_matches_serial(tmp_path, monkeypatch):
    # the scan no longer runs a thread pool: a leftover QW3_THREADS setting
    # must be ignored and leave the one-defect scan byte-identical
    serial, threaded = tmp_path / "s.csv", tmp_path / "t.csv"
    args = ["scan", "--model", "one-defect", "--theta", "0.9", "--grid", "1100"]
    assert main(args + ["--out", str(serial)]) == 0
    monkeypatch.setenv("QW3_THREADS", "4")
    assert main(args + ["--out", str(threaded)]) == 0
    assert serial.read_bytes() == threaded.read_bytes()


def test_eigvec_matches_phase_modulo_two_pi(tmp_path, capsys):
    model = ["--model", "one-defect", "--theta", repr(np.pi / 12)]
    roots_path = tmp_path / "roots.json"
    assert main(["roots", *model, "--out", str(roots_path)]) == 0
    lam = json.loads(roots_path.read_text())["records"][0]["lambda"]
    csvs = []
    for k, shift in enumerate((0.0, 2 * np.pi, -2 * np.pi)):
        out = tmp_path / f"v{k}.csv"
        assert main(["eigvec", *model, f"--lambda={lam + shift!r}", "--out", str(out)]) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1] == csvs[2]
    code = main(["eigvec", *model, f"--lambda={lam + 2 * np.pi + 1e-3!r}",
                 "--out", str(tmp_path / "miss.csv")])
    assert code == 2
    # the hint names the root that is nearest on the circle first
    assert f"nearest roots: {lam:.17g}" in capsys.readouterr().err


def test_roots_config_error_exit2(tmp_path, capsys):
    cfg = tmp_path / "field.json"
    cfg.write_text(json.dumps({"model": "ring"}))
    assert main(["roots", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
    assert "configuration error: unknown model 'ring'" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_main_reuses_its_parser_after_a_rejected_call(tmp_path, capsys):
    # one argparse tree serves every main() call of a process, and a call
    # argparse rejects leaves nothing behind for the next one
    from qw3.cli import _build_parser

    assert _build_parser() is _build_parser()
    args = ["roots", "--model", "one-defect", "--theta", "0.2617993877991494", "--grid", "1000"]
    assert main(args + ["--out", str(tmp_path / "a.json")]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["roots", "--model", "one-defect", "--grid", "many", "--out", "x.json"])
    assert exc.value.code == 2 and "invalid int value: 'many'" in capsys.readouterr().err
    assert main(args + ["--out", str(tmp_path / "b.json")]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    a, b = (json.loads((tmp_path / f"{n}.json.manifest.json").read_text()) for n in "ab")
    assert a.pop("wall_time_s") >= 0 and b.pop("wall_time_s") >= 0 and a == b


def test_unreadable_config_is_a_configuration_error(tmp_path, capsys):
    missing, binary = tmp_path / "missing.json", tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    for path in (missing, binary, tmp_path):
        assert main(["roots", "--config", str(path), "--out", str(tmp_path / "r.json")]) == 2
        assert f"configuration error: cannot read --config {path}: " in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("argv", [
    ["roots", "--model", "one-defect"],
    ["eigvec", "--model", "one-defect", "--lambda", "1.0"],
    ["scan", "--model", "one-defect"],
    ["evolve", "--model", "one-defect"],
    ["demo", "fig1"],
    ["demo", "fig2"],
], ids=["roots", "eigvec", "scan", "evolve", "demo-scan", "demo-evolve"])
def test_out_in_a_missing_directory_fails_before_any_work(tmp_path, capsys, monkeypatch, argv):
    def computed(*args, **kwargs):
        raise AssertionError("computed before checking --out")

    for name in ("find_roots", "chi_batch", "evolve", "lambda0_set"):
        monkeypatch.setattr(f"qw3.cli.{name}", computed)
    out = tmp_path / "no" / "such" / "x.out"
    assert main(argv + ["--out", str(out)]) == 2
    assert (f"configuration error: --out {out}: no directory {out.parent}"
            in capsys.readouterr().err)


def test_evolve_rejects_bad_initial_spinor(tmp_path, capsys):
    base = ["evolve", "--model", "homogeneous", "--t", "3", "--out", str(tmp_path / "e.csv")]
    assert main(base + ["--psi0", "0", "0", "0", "0", "0", "0"]) == 2
    assert "--psi0 must be a nonzero spinor" in capsys.readouterr().err
    assert main(base + ["--psi0-site", "99"]) == 2
    assert "--psi0-site 99 outside the window [-9, 9]" in capsys.readouterr().err
    for bad in ("nan", "inf"):
        assert main(base + ["--psi0", bad, "0", "0", "0", "0", "0"]) == 2
        assert "--psi0 entries must be finite" in capsys.readouterr().err


def test_evolve_normalises_a_huge_initial_spinor(tmp_path):
    # the plain norm of this spinor overflows to inf
    out = tmp_path / "e.csv"
    assert main(["evolve", "--model", "homogeneous", "--t", "3", "--out", str(out),
                 "--psi0", "1e308", "0", "1e308", "0", "0", "0"]) == 0
    header, rows = read_csv(out)
    assert abs(sum(float(r[1]) for r in rows) - 1.0) <= 1e-12


def test_evolve_custom_initial_spinor_conserves_norm(tmp_path):
    out = tmp_path / "e.csv"
    assert main(["evolve", "--model", "one-defect", "--theta", "0.7854", "--t", "20",
                 "--psi0", "1", "0", "0", "0.5", "0", "-2", "--psi0-site", "1",
                 "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["x", "prob"]
    assert abs(sum(float(r[1]) for r in rows) - 1.0) <= 1e-12


def test_demo_fig2(tmp_path):
    out = tmp_path / "fig2.csv"
    assert main(["demo", "fig2", "--theta-index", "1", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["x", "prob"]
    assert len(rows) == 2 * 106 + 1
    assert abs(sum(float(r[1]) for r in rows) - 1.0) <= 1e-12
