#!/usr/bin/env python3
"""sha256 digests of qw3's spectral output, to compare two checkouts bit for bit.

    python3 tools/parity_hash.py [--wide-seeds LIST] <checkout> [<checkout> ...]

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

`--wide-seeds LIST` adds the wide-windows fields of the seeds in LIST, a
comma list of seeds and ranges A-B such as `1-60,1193434553`: one
`wide-<seed>` group for each seed not listed above, and their `--config`
jobs to the cli group.

A digest covers, per field: every find_roots and lambda0_adjudicate record
(lambda, abs chi, both zetas, op_residual, eigenvector window and
amplitudes, source), both diagnostics lists, chi_batch at grid 4000
(values, in_lambda, near_lambda0) and lambda0_set; per distribution: its
window, time and probabilities; per cli job: the exit code, the output
file's bytes and its manifest without `wall_time_s`. Two
checkouts agree bit for bit on a group iff its digests match. Each checkout
runs in its own process.

Given two or more checkouts, it ends with a verdict: one `equal` or
`differs` line per group, and exit code 1 if any group differs (or is
missing from a checkout).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

GRID = 4000
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


def _digest_checkout(extra_seeds) -> None:
    import numpy as np
    from qw3.spectral import chi_batch, find_roots, lambda0_adjudicate, lambda0_set

    lams = np.arange(GRID) * (2.0 * np.pi / GRID)
    for name, fields in _groups(extra_seeds):
        h, counts = hashlib.sha256(), Counter()
        for field in fields:
            scan = find_roots(field, grid_n=GRID)
            lambda0_diagnostics: list[dict] = []
            lambda0 = lambda0_adjudicate(field, lambda0_diagnostics)
            for r in scan.records + lambda0:
                h.update(_record_bytes(r))
                counts[r.source] += 1
            for d in scan.diagnostics + lambda0_diagnostics:
                h.update(json.dumps(d, sort_keys=True).encode())
                counts[d["kind"]] += 1
            values, in_lambda, near = chi_batch(field, lams)
            h.update(values.tobytes() + in_lambda.tobytes() + near.tobytes())
            h.update(np.array(lambda0_set(field), dtype=np.float64).tobytes())
        summary = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        print(f"{name:9s} {h.hexdigest()}  fields={len(fields)} {summary}", flush=True)
    _digest_cli(extra_seeds)
    _digest_dynamics()


def _digest_cli(extra_seeds) -> None:
    """The cli group: every `qw3 roots` job through one process's `qw3.cli.main`."""
    from workloads import PRESETS, field_json, wide_fields

    h, counts = hashlib.sha256(), Counter()
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
    summary = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"{'cli':9s} {h.hexdigest()}  jobs={len(jobs)} {summary}", flush=True)


def _cli_job(h, argv: list[str], out: Path) -> int:
    """Run `qw3 <argv> --out out` in this process; hash its exit code, the
    file's bytes and its manifest without `wall_time_s`."""
    from qw3.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--out", str(out)])
    manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
    del manifest["wall_time_s"]
    h.update(b"%d" % code + out.read_bytes())
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
    parser.add_argument("--inside", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv[1:])
    if args.inside:
        root = Path(args.checkouts[0]).resolve()
        sys.path[:0] = [str(root / "src"), str(root / "bench")]
        _digest_checkout(args.wide_seeds)
        return 0
    seeds = [f"--wide-seeds={','.join(map(str, args.wide_seeds))}"] if args.wide_seeds else []
    runs: list[dict[str, str]] = []
    for checkout in args.checkouts:
        print(f"# {checkout}", flush=True)
        runs.append({})
        with subprocess.Popen([sys.executable, __file__, "--inside", *seeds, checkout],
                              stdout=subprocess.PIPE, text=True) as proc:
            for line in proc.stdout:
                print(line, end="", flush=True)
                name, digest = line.split()[:2]
                runs[-1][name] = digest
        if proc.returncode:
            return proc.returncode
    return verdict(runs) if len(runs) > 1 else 0


def verdict(runs: list[dict[str, str]]) -> int:
    """Print, per group, whether every checkout's digest is the first's; 1 if any differs."""
    print("# verdict", flush=True)
    names = list(dict.fromkeys(name for run in runs for name in run))
    differs = [name for name in names if len({run.get(name) for run in runs}) > 1]
    for name in names:
        print(f"{name:9s} {'differs' if name in differs else 'equal'}", flush=True)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
