#!/usr/bin/env python3
"""sha256 digests of qw3's spectral output, to compare two checkouts bit for bit.

    python3 tools/parity_hash.py <checkout> [<checkout> ...]

For each checkout, imports its `src/qw3` and its `bench/workloads.py` and
prints one digest per group of fields, with the counts behind it:

  presets    the paper's eight headline fields (one-defect and two-phase)
  wide-3, wide-5, wide-101
             the benchmark's wide-windows fields for seeds 3, 5 and 101
  grover     13 fields with degenerate phases: one-defect and two-phase
             Grover at the four theta, a Fourier bulk with a Grover defect
             at the four theta, and homogeneous Grover

A digest covers, per field: every find_roots and lambda0_adjudicate record
(lambda, abs chi, both zetas, op_residual, eigenvector window and
amplitudes, source), both diagnostics lists, and chi_batch at grid 4000
(values, in_lambda, near_lambda0). Two checkouts agree bit for bit on a
group iff its digests match. Each checkout runs in its own process.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

GRID = 4000
WIDE_SEEDS = (3, 5, 101)


def _groups():
    from qw3 import (field_homogeneous, field_one_defect, field_two_phase, make_fourier,
                     make_grover, phase_scale)
    from workloads import PRESETS, THETAS, wide_fields

    yield "presets", [p.field() for p in PRESETS]
    for seed in WIDE_SEEDS:
        yield f"wide-{seed}", wide_fields(seed)
    grover, fourier = make_grover(), make_fourier()
    fields = [build(grover, phase_scale(grover, t))
              for build in (field_one_defect, field_two_phase) for t in THETAS]
    fields += [field_one_defect(fourier, phase_scale(grover, t)) for t in THETAS]
    yield "grover", fields + [field_homogeneous(grover)]


def _record_bytes(r) -> bytes:
    import numpy as np

    head = np.array([r.lam, r.chi_residual, r.op_residual], dtype=np.float64)
    zetas = np.array([r.zeta_left, r.zeta_right], dtype=np.complex128)
    window = np.array([r.eigvec.lo, r.eigvec.hi], dtype=np.int64)
    return (head.tobytes() + zetas.tobytes() + window.tobytes()
            + np.ascontiguousarray(r.eigvec.amps, dtype=np.complex128).tobytes()
            + r.source.encode())


def _digest_checkout() -> None:
    import numpy as np
    from qw3.spectral import chi_batch, find_roots, lambda0_adjudicate

    lams = np.arange(GRID) * (2.0 * np.pi / GRID)
    for name, fields in _groups():
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
        summary = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        print(f"{name:9s} {h.hexdigest()}  fields={len(fields)} {summary}", flush=True)


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[1] == "--inside":
        root = Path(argv[2]).resolve()
        sys.path[:0] = [str(root / "src"), str(root / "bench")]
        _digest_checkout()
        return 0
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    for checkout in argv[1:]:
        print(f"# {checkout}", flush=True)
        code = subprocess.call([sys.executable, __file__, "--inside", checkout])
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
