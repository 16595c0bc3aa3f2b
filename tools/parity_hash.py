#!/usr/bin/env python3
"""sha256 digests of qw3's spectral output, to compare two checkouts bit for bit.

    python3 tools/parity_hash.py [--wide-seeds LIST] [--tolerant] <checkout> [<checkout> ...]

For each checkout, imports its `src/qw3` and its `bench/workloads.py` and
prints one digest per group of fields, with the counts behind it:

  presets    the paper's eight headline fields (one-defect and two-phase)
  wide-3, wide-5, wide-101
             the benchmark's wide-windows fields for seeds 3, 5 and 101
  grover     13 fields with degenerate phases: one-defect and two-phase
             Grover at the four theta, a Fourier bulk with a Grover defect
             at the four theta, and homogeneous Grover
  chains     12 fields whose degenerate-phase records come from constraint
             chains: an interior compact chain, the compact bump on either
             side, a chain between geometric tails, a compact chain through
             a dressed Fourier defect, a chain from a geometric left tail to
             a Grover break, and the parity image of each
  cli        `qw3 roots` through `qw3.cli.main`, all in one process, on the
             eight presets and on the wide-windows fields of seeds 3 and 101
             (as `--config` files)
  dynamics   the simulator on the eight presets, as the dynamics workload runs
             it: every `evolve` distribution to t = 800 and the
             `time_averaged_origin` to T = 1600, each on a window of the
             horizon + 6; and `qw3 evolve --trajectory` on the first preset
  files      the CLI writers that `cli` leaves out: `qw3 scan` on the eight
             presets and `qw3 demo fig1` to `fig4`

`--wide-seeds LIST` adds the wide-windows fields of the seeds in LIST, a
comma list of seeds and ranges A-B such as `1-60,1193434553`: one
`wide-<seed>` group for each seed not listed above, and their `--config`
jobs to the cli group.

A digest covers, per field: every find_roots and lambda0_adjudicate record
(lambda, abs chi, both zetas, op_residual, eigenvector window and
amplitudes, source), both diagnostics lists, chi_batch at grid 4000
(values, in_lambda, near_lambda0) and lambda0_set; per distribution: its
window, time and probabilities; per CLI job: the exit code, the output
file's bytes, its `.lambda0.json` sidecar's if it writes one, and its
manifest without `wall_time_s`. Two checkouts agree bit for bit on a group
iff its digests match. Each checkout runs in its own process.

Given two or more checkouts, it ends with a verdict: one `equal` or
`differs` line per group, and exit code 1 if any group differs (or is
missing from a checkout).

`--tolerant` compares what a change that moves record bits on purpose must
keep, in place of digests, on every group but `dynamics` and `files`, which
it compares by digest still. Per field (per job in `cli`): the record
count; each lambda, matched to one of the first checkout's within
10 * refine_tol (1e-11) on the circle; the diagnostic kinds and their
counts; and every op_residual against its checkout's RESIDUAL_TOL. After
the verdict it lists each root gained or lost against the first checkout as
(group, field, lambda), and each residual over its bound.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

GRID = 4000
REFINE_TOL = 1e-12
WIDE_SEEDS = (3, 5, 101)


def _dressed_fourier(a: float, b: float, c: float, d: float):
    """P1 F P2 with diagonal phases P1 = diag(e^{ia}, e^{ib}, 1), P2 = diag(e^{ic}, e^{id}, 1)."""
    import numpy as np
    from qw3.coin import CoinMatrix, make_fourier

    p1, p2 = (np.diag(np.exp(1j * np.array([u, v, 0.0]))) for u, v in ((a, b), (c, d)))
    return CoinMatrix(p1 @ make_fourier().mat @ p2)


def _mirrored(field):
    """The parity image C'(y) = S C(-y) S, S swapping components 1 and 3."""
    import numpy as np
    from qw3.coin import CoinField, CoinMatrix

    swap13 = np.eye(3)[[2, 1, 0]]

    def swap(coin):
        return CoinMatrix(swap13 @ coin.mat @ swap13)

    lo, hi = min(0, 1 - field.x_plus), 1 - field.x_minus
    return CoinField(swap(field.c_plus), swap(field.c_minus), lo, hi,
                     tuple(swap(field.lookup(-y)) for y in range(lo, hi)))


def _chain_fields():
    import numpy as np
    from qw3.coin import CoinField, field_two_phase, make_fourier, make_grover, phase_scale

    fourier, grover = make_fourier(), make_grover()
    on_arc = phase_scale(fourier, np.pi / 2)  # on its arcs at Grover's phase 0
    fields = [
        CoinField(fourier, fourier, -1, 1, (grover, grover)),
        field_two_phase(fourier, grover),
        field_two_phase(grover, fourier),
        CoinField(on_arc, on_arc, -1, 1, (grover, grover)),
        CoinField(fourier, fourier, 0, 1, (_dressed_fourier(
            5.858085580270765, -1.6891355485845025, 5.606373191873271, -0.7964822673645127),)),
        CoinField(on_arc, on_arc, -1, 1, (_dressed_fourier(
            4.438801706953552, 1.5895826446822559, -0.52093826782183, 0.0007723091275153356),
            grover)),
    ]
    return fields + [_mirrored(f) for f in fields]


def _groups(extra_seeds):
    from qw3 import (field_homogeneous, field_one_defect, field_two_phase, make_fourier,
                     make_grover, phase_scale)
    from workloads import PRESETS, THETAS, wide_fields

    yield "presets", [p.field() for p in PRESETS]
    for seed in [*WIDE_SEEDS, *(s for s in extra_seeds if s not in WIDE_SEEDS)]:
        yield f"wide-{seed}", wide_fields(seed)
    grover, fourier = make_grover(), make_fourier()
    fields = [build(grover, phase_scale(grover, t))
              for build in (field_one_defect, field_two_phase) for t in THETAS]
    fields += [field_one_defect(fourier, phase_scale(grover, t)) for t in THETAS]
    yield "grover", fields + [field_homogeneous(grover)]
    yield "chains", _chain_fields()


def _record_bytes(r) -> bytes:
    import numpy as np

    head = np.array([r.lam, r.chi_residual, r.op_residual], dtype=np.float64)
    zetas = np.array([r.zeta_left, r.zeta_right], dtype=np.complex128)
    window = np.array([r.eigvec.lo, r.eigvec.hi], dtype=np.int64)
    return (head.tobytes() + zetas.tobytes() + window.tobytes()
            + np.ascontiguousarray(r.eigvec.amps, dtype=np.complex128).tobytes()
            + r.source.encode())


def _spectrum(lams, residuals, kinds) -> dict:
    """What --tolerant compares of one field: its records' phases and op_residuals
    and its diagnostics' kinds."""
    return {"lambda": list(lams), "op_residual": list(residuals), "kinds": dict(Counter(kinds))}


def _print_group(name: str, h, size: str, counts: Counter, spectra: list[dict],
                 tolerant: bool) -> None:
    """One group's line: its spectra as JSON if tolerant, else its digest, size and counts."""
    from qw3.spectral import RESIDUAL_TOL

    if tolerant:
        print(f"{name} {json.dumps({'residual_tol': RESIDUAL_TOL, 'fields': spectra})}", flush=True)
    else:
        summary = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        print(f"{name:9s} {h.hexdigest()}  {size} {summary}", flush=True)


def _digest_checkout(extra_seeds, tolerant: bool) -> None:
    import numpy as np
    from qw3.spectral import chi_batch, find_roots, lambda0_adjudicate, lambda0_set

    lams = np.arange(GRID) * (2.0 * np.pi / GRID)
    for name, fields in _groups(extra_seeds):
        h, counts, spectra = hashlib.sha256(), Counter(), []
        for field in fields:
            scan = find_roots(field, grid_n=GRID, refine_tol=REFINE_TOL)
            lambda0_diagnostics: list[dict] = []
            records = scan.records + lambda0_adjudicate(field, lambda0_diagnostics)
            diagnostics = scan.diagnostics + lambda0_diagnostics
            spectra.append(_spectrum((r.lam for r in records), (r.op_residual for r in records),
                                     (d["kind"] for d in diagnostics)))
            for r in records:
                h.update(_record_bytes(r))
                counts[r.source] += 1
            for d in diagnostics:
                h.update(json.dumps(d, sort_keys=True).encode())
                counts[d["kind"]] += 1
            values, in_lambda, near = chi_batch(field, lams)
            h.update(values.tobytes() + in_lambda.tobytes() + near.tobytes())
            h.update(np.array(lambda0_set(field), dtype=np.float64).tobytes())
        _print_group(name, h, f"fields={len(fields)}", counts, spectra, tolerant)
    _digest_cli(extra_seeds, tolerant)
    _digest_dynamics()
    _digest_files()


def _digest_cli(extra_seeds, tolerant: bool) -> None:
    """The cli group: every `qw3 roots` job through one process's `qw3.cli.main`."""
    from workloads import PRESETS, field_json, wide_fields

    h, counts, spectra = hashlib.sha256(), Counter(), []
    with tempfile.TemporaryDirectory() as tmp:
        jobs = [p.cli_args() for p in PRESETS]
        for seed in [3, 101, *(s for s in extra_seeds if s not in (3, 101))]:
            for i, field in enumerate(wide_fields(seed)):
                config = Path(tmp, f"wide-{seed}-{i}.json")
                config.write_text(field_json(field), encoding="utf-8")
                jobs.append(["--config", str(config)])
        out = Path(tmp, "roots.json")
        for argv in jobs:
            code = _cli_job(h, ["roots", *argv, "--grid", str(GRID)], out)
            counts[f"exit{code}"] += 1
            doc = json.loads(out.read_text())
            spectra.append(_spectrum((r["lambda"] for r in doc["records"]),
                                     (r["op_residual"] for r in doc["records"]),
                                     (d["kind"] for d in doc["diagnostics"])))
    _print_group("cli", h, f"jobs={len(jobs)}", counts, spectra, tolerant)


def _cli_job(h, argv: list[str], out: Path) -> int:
    """Run `qw3 <argv> --out out` in this process; hash its exit code, the
    file's bytes, its `.lambda0.json` sidecar's if there is one, and its
    manifest without `wall_time_s`."""
    from qw3.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--out", str(out)])
    manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
    del manifest["wall_time_s"]
    h.update(b"%d" % code + out.read_bytes())
    if (sidecar := out.with_name(out.name + ".lambda0.json")).exists():
        h.update(sidecar.read_bytes())
    h.update(json.dumps(manifest, sort_keys=True).encode())
    return code


def _digest_dynamics() -> None:
    """The dynamics group: the simulator on the presets, at the benchmark's horizons."""
    import numpy as np
    from qw3.evolution import default_initial_state, evolve, time_averaged_origin
    from workloads import AVERAGE_T, EVOLVE_T, PRESETS

    h = hashlib.sha256()
    psi_evolve = default_initial_state(EVOLVE_T + 6)
    psi_average = default_initial_state(AVERAGE_T + 6)
    for preset in PRESETS:
        field = preset.field()
        for d in evolve(field, psi_evolve, EVOLVE_T):
            h.update(np.array([d.lo, d.hi, d.time], dtype=np.int64).tobytes() + d.probs.tobytes())
        h.update(np.float64(time_averaged_origin(field, psi_average, AVERAGE_T)).tobytes())
    with tempfile.TemporaryDirectory() as tmp:
        code = _cli_job(h, ["evolve", *PRESETS[0].cli_args(), "--trajectory"],
                        Path(tmp, "evolve.csv"))
    print(f"{'dynamics':9s} {h.hexdigest()}  presets={len(PRESETS)} evolve_t={EVOLVE_T} "
          f"average_t={AVERAGE_T} trajectory_exit={code}", flush=True)


def _digest_files() -> None:
    """The files group: `qw3 scan` on the presets and the four `qw3 demo` figures,
    each job with its own output file."""
    from workloads import PRESETS

    h, codes = hashlib.sha256(), Counter()
    jobs = [["scan", *p.cli_args(), "--grid", str(GRID)] for p in PRESETS]
    jobs += [["demo", f"fig{k}"] for k in range(1, 5)]
    with tempfile.TemporaryDirectory() as tmp:
        for k, argv in enumerate(jobs):
            codes[f"exit{_cli_job(h, argv, Path(tmp, f'{k}.csv'))}"] += 1
    summary = " ".join(f"{k}={v}" for k, v in sorted(codes.items()))
    print(f"{'files':9s} {h.hexdigest()}  jobs={len(jobs)} {summary}", flush=True)


def _seed_range(text: str) -> list[int]:
    """The seeds of a comma list of seeds and ranges A-B, in order, each once."""
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        if not (span := range(int(first), int(last or first) + 1)):
            raise ValueError(f"empty seed range {part}")
        seeds += span
    return list(dict.fromkeys(seeds))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("checkouts", nargs="+", metavar="checkout")
    parser.add_argument("--wide-seeds", type=_seed_range, default=[], metavar="LIST",
                        help="also digest the wide-windows fields of these seeds, "
                        "a comma list of seeds and ranges A-B")
    parser.add_argument("--tolerant", action="store_true",
                        help="compare counts, phases within 10 * refine_tol, diagnostic kinds "
                        "and residual bounds, not digests")
    parser.add_argument("--inside", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv[1:])
    if args.inside:
        root = Path(args.checkouts[0]).resolve()
        sys.path[:0] = [str(root / "src"), str(root / "bench")]
        _digest_checkout(args.wide_seeds, args.tolerant)
        return 0
    flags = [f"--wide-seeds={','.join(map(str, args.wide_seeds))}"] if args.wide_seeds else []
    flags += ["--tolerant"] if args.tolerant else []
    runs: list[dict] = []
    for checkout in args.checkouts:
        print(f"# {checkout}", flush=True)
        runs.append({})
        with subprocess.Popen([sys.executable, __file__, "--inside", *flags, checkout],
                              stdout=subprocess.PIPE, text=True) as proc:
            for line in proc.stdout:
                name, value = line.split(None, 1)
                if args.tolerant and value.startswith("{"):  # else a digest group's line
                    value = json.loads(value)
                    records = sum(len(field["lambda"]) for field in value["fields"])
                    line = f"{name:9s} fields={len(value['fields'])} records={records}\n"
                print(line, end="", flush=True)
                runs[-1][name] = value if isinstance(value, dict) else value.split()[0]
        if proc.returncode:
            return proc.returncode
    if len(runs) < 2:
        return 0
    return tolerant_verdict(runs, 10 * REFINE_TOL) if args.tolerant else verdict(runs)


def verdict(runs: list[dict[str, str]]) -> int:
    """Print, per group, whether every checkout's digest is the first's; 1 if any differs."""
    print("# verdict", flush=True)
    names = list(dict.fromkeys(name for run in runs for name in run))
    differs = [name for name in names if len({run.get(name) for run in runs}) > 1]
    for name in names:
        print(f"{name:9s} {'differs' if name in differs else 'equal'}", flush=True)
    return 1 if differs else 0


def _unmatched(lams: list[float], others: list[float], tol: float) -> list[float]:
    """The phases of lams that no phase of others lies within tol of, on the circle;
    each phase of others is matched at most once."""
    free, out = list(others), []
    for lam in lams:
        near = [k for k, x in enumerate(free) if abs(math.remainder(lam - x, math.tau)) <= tol]
        if near:
            del free[near[0]]
        else:
            out.append(lam)
    return out


def tolerant_verdict(runs: list[dict[str, dict]], tol: float) -> int:
    """Print, per group, whether every checkout's spectra agree with the first's:
    per field the record count, each lambda within tol, the diagnostic kinds and
    their counts, and every op_residual within its checkout's residual_tol; a
    group given as a digest string (dynamics, files), whether the digests match.
    Then list each root lost or gained against the first checkout, and each
    residual over its bound; 1 if any group differs."""
    print("# verdict", flush=True)
    names = list(dict.fromkeys(name for run in runs for name in run))
    notes, differs = [], set()
    for name in names:
        group = [run.get(name) for run in runs]
        if any(isinstance(g, str) for g in group):
            if len(set(map(str, group))) > 1:
                differs.add(name)
            continue
        if None in group or any(len(g["fields"]) != len(group[0]["fields"]) for g in group):
            differs.add(name)
            continue
        for c, run in enumerate(runs):
            bound = run[name]["residual_tol"]
            for k, (first, field) in enumerate(zip(runs[0][name]["fields"], run[name]["fields"])):
                lost = _unmatched(first["lambda"], field["lambda"], tol)
                gained = _unmatched(field["lambda"], first["lambda"], tol)
                over = [(lam, res) for lam, res in zip(field["lambda"], field["op_residual"])
                        if not (res is not None and res <= bound)]  # None: a cli file's NaN
                notes += [f"lost      {name} field {k} lambda={lam!r} (checkout {c})"
                          for lam in lost]
                notes += [f"gained    {name} field {k} lambda={lam!r} (checkout {c})"
                          for lam in gained]
                notes += [f"residual  {name} field {k} lambda={lam!r} op_residual={res!r} "
                          f"(checkout {c})" for lam, res in over]
                if (lost or gained or over or len(first["lambda"]) != len(field["lambda"])
                        or first["kinds"] != field["kinds"]):
                    differs.add(name)
    for name in names:
        print(f"{name:9s} {'differs' if name in differs else 'equal'}", flush=True)
    for note in notes:
        print(note, flush=True)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
