"""Span recorder and per-layer metrics for the traced benchmark run.

The program is traced from outside: `Tracer.install` rebinds the names that
callers look up at call time (module globals of qw3.cli, qw3.spectral and
qw3.evolution) to timing wrappers, and `restore` puts the originals back.
Nothing under src/ changes. A name that a later version no longer has is
skipped, so its span reads zero and the benchmark keeps running.

Each span records its name, start, end, parent span and the job it belongs
to. Spans are kept in flat arrays in memory and written out once, at the end.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# (module, attribute looked up by callers, span name). Private helpers are
# the stage boundaries inside find_roots, which no public function marks.
WRAPPED = (
    ("qw3.cli", "main", "cli.main"),
    ("qw3.cli", "parse_field_config", "coin.parse_field_config"),
    ("qw3.cli", "find_roots", "spectral.find_roots"),
    ("qw3.cli", "lambda0_adjudicate", "spectral.lambda0_adjudicate"),
    ("qw3.spectral", "_grid_samples", "spectral.scan"),
    ("qw3.spectral", "_golden_min", "spectral.refine"),
    ("qw3.spectral", "_make_record", "spectral.certify"),
    ("qw3.spectral", "chi", "spectral.chi"),
    ("qw3.spectral", "asymptotic_spectrum", "spectral.asymptotic_spectrum"),
    ("qw3.spectral", "build_eigenvector", "spectral.build_eigenvector"),
    ("qw3.spectral", "operator_residual", "spectral.operator_residual"),
    ("qw3.spectral", "lambda0_set", "spectral.lambda0_set"),
    ("qw3.spectral", "transfer_at", "transfer.transfer_at"),
    ("qw3.spectral", "iota_inverse", "transfer.iota_inverse"),
    ("qw3.spectral", "eig2", "linalg.eig2"),
    ("qw3.spectral", "apply_u", "evolution.apply_u"),
    ("qw3.evolution", "evolve", "evolution.evolve"),
    ("qw3.evolution", "time_averaged_origin", "evolution.time_averaged_origin"),
)

# Stages that own the chi calls made beneath them.
STAGES = ("spectral.scan", "spectral.refine")

# Minimum traffic of one walk step at one site: the 3x3 complex coin and the
# three complex amplitudes read, three amplitudes written. Computed, not
# measured: it ignores caches and temporaries.
BYTES_PER_SITE_STEP = 9 * 16 + 3 * 16 + 3 * 16

DIAGNOSTIC_KINDS = ("refine-nonconverged", "shallow-root", "marginal-decay",
                    "residual-violation")

# Per-layer metrics and their units, in report order; BENCHMARK.json lists
# the same names.
LAYER_UNITS = {
    "spectral.scan.s": "s",
    "spectral.scan.chi_calls": "count",
    "spectral.chi.calls": "count",
    "spectral.chi.self_s": "s",
    "spectral.asymptotic_spectrum.calls": "count",
    "spectral.asymptotic_spectrum.s": "s",
    "spectral.refine.s": "s",
    "spectral.refine.brackets": "count",
    "spectral.refine.chi_calls": "count",
    "spectral.refine.accept_ratio": "ratio",
    "spectral.certify.s": "s",
    "spectral.build_eigenvector.s": "s",
    "spectral.eigvec_sites": "count",
    "spectral.operator_residual.s": "s",
    "spectral.lambda0_adjudicate.s": "s",
    "spectral.lambda0.phases": "count",
    "spectral.lambda0.records": "count",
    "spectral.roots_certified": "count",
    "spectral.diagnostics": "count",
    **{f"spectral.diagnostics.{k}": "count" for k in DIAGNOSTIC_KINDS},
    "transfer.transfer_at.calls": "count",
    "transfer.transfer_at.s": "s",
    "transfer.iota_inverse.calls": "count",
    "transfer.iota_inverse.s": "s",
    "linalg.eig2.calls": "count",
    "linalg.eig2.s": "s",
    "evolution.evolve.s": "s",
    "evolution.time_averaged_origin.s": "s",
    "evolution.site_steps": "count",
    "evolution.site_steps_per_s": "1/s",
    "evolution.bytes_moved": "bytes",
    "evolution.apply_u.calls": "count",
    "evolution.apply_u.s": "s",
    "coin.parse_field_config.calls": "count",
    "coin.parse_field_config.s": "s",
    "cli.main.calls": "count",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.spans": "count",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory spans plus counters fed by hooks on wrapped calls."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.job_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.names[self.name_id[self._stack[-1]]] if self._stack else None

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named name and return its result."""
        nid = self._nid(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def install(self, modules: dict[str, object]) -> None:
        for mod_name, attr, span_name in WRAPPED:
            module = modules[mod_name]
            original = getattr(module, attr, None)
            if original is None:
                continue
            hook = _HOOKS.get(span_name)
            setattr(module, attr, self._wrapper(span_name, original, hook))
            self._undo.append((module, attr, original))

    def _wrapper(self, name, original, hook):
        def traced(*args, **kwargs):
            result = self.span(name, original, *args, **kwargs)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    def restore(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "job": np.frombuffer(self.job, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics per traced round (see bench/README.md)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        parent = a["parent"]
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child

        # nearest enclosing stage of every span (parents precede children)
        stage_ids = [self._name_ids[s] for s in STAGES if s in self._name_ids]
        stage = np.full(len(dur), -1, dtype=np.int64)
        name_id = a["name_id"]
        for i in range(len(dur)):
            if name_id[i] in stage_ids:
                stage[i] = name_id[i]
            elif parent[i] >= 0:
                stage[i] = stage[parent[i]]

        def mask(name: str) -> np.ndarray:
            nid = self._name_ids.get(name)
            return name_id == nid if nid is not None else np.zeros(len(dur), bool)

        def calls(name: str) -> float:
            return float(mask(name).sum()) / rounds

        def total(name: str) -> float:
            return float(dur[mask(name)].sum()) / rounds

        def own(name: str) -> float:
            return float(self_time[mask(name)].sum()) / rounds

        def chi_under(stage_name: str) -> float:
            sid = self._name_ids.get(stage_name)
            if sid is None:
                return 0.0
            return float((mask("spectral.chi") & (stage == sid)).sum()) / rounds

        c = self.counts
        brackets = calls("spectral.refine")
        sim_s = total("evolution.evolve") + total("evolution.time_averaged_origin")
        site_steps = c["site_steps"] / rounds
        m = {
            "spectral.scan.s": total("spectral.scan"),
            "spectral.scan.chi_calls": chi_under("spectral.scan"),
            "spectral.chi.calls": calls("spectral.chi"),
            "spectral.chi.self_s": own("spectral.chi"),
            "spectral.asymptotic_spectrum.calls": calls("spectral.asymptotic_spectrum"),
            "spectral.asymptotic_spectrum.s": total("spectral.asymptotic_spectrum"),
            "spectral.refine.s": total("spectral.refine"),
            "spectral.refine.brackets": brackets,
            "spectral.refine.chi_calls": chi_under("spectral.refine"),
            "spectral.refine.accept_ratio": (
                calls("spectral.certify") / brackets if brackets else 0.0
            ),
            "spectral.certify.s": total("spectral.certify"),
            "spectral.build_eigenvector.s": total("spectral.build_eigenvector"),
            "spectral.eigvec_sites": c["eigvec_sites"] / rounds,
            "spectral.operator_residual.s": total("spectral.operator_residual"),
            "spectral.lambda0_adjudicate.s": total("spectral.lambda0_adjudicate"),
            "spectral.lambda0.phases": c["lambda0_phases"] / rounds,
            "spectral.lambda0.records": c["lambda0_records"] / rounds,
            "spectral.roots_certified": c["roots_certified"] / rounds,
            "spectral.diagnostics": c["diagnostics"] / rounds,
            **{f"spectral.diagnostics.{k}": c[f"diagnostics.{k}"] / rounds
               for k in DIAGNOSTIC_KINDS},
            "transfer.transfer_at.calls": calls("transfer.transfer_at"),
            "transfer.transfer_at.s": total("transfer.transfer_at"),
            "transfer.iota_inverse.calls": calls("transfer.iota_inverse"),
            "transfer.iota_inverse.s": total("transfer.iota_inverse"),
            "linalg.eig2.calls": calls("linalg.eig2"),
            "linalg.eig2.s": total("linalg.eig2"),
            "evolution.evolve.s": total("evolution.evolve"),
            "evolution.time_averaged_origin.s": total("evolution.time_averaged_origin"),
            "evolution.site_steps": site_steps,
            "evolution.site_steps_per_s": site_steps * rounds / sim_s if sim_s else 0.0,
            "evolution.bytes_moved": site_steps * BYTES_PER_SITE_STEP,
            "evolution.apply_u.calls": calls("evolution.apply_u"),
            "evolution.apply_u.s": total("evolution.apply_u"),
            "coin.parse_field_config.calls": calls("coin.parse_field_config"),
            "coin.parse_field_config.s": total("coin.parse_field_config"),
            "cli.main.calls": calls("cli.main"),
            "cli.self_s": own("cli.main"),
            "cli.bytes_written": c["bytes_written"] / rounds,
            "trace.spans": len(dur) / rounds,
        }
        return m


# --- hooks: counters read off the arguments and results of wrapped calls ----


def _on_find_roots(tr: Tracer, args, kwargs, scan) -> None:
    tr.counts["roots_certified"] += len(scan.records)
    tr.counts["diagnostics"] += len(scan.diagnostics)
    for d in scan.diagnostics:
        tr.counts[f"diagnostics.{d.get('kind')}"] += 1


def _on_lambda0_adjudicate(tr: Tracer, args, kwargs, records) -> None:
    tr.counts["roots_certified"] += len(records)
    tr.counts["lambda0_records"] += len(records)


def _on_lambda0_set(tr: Tracer, args, kwargs, angles) -> None:
    if tr.current() == "spectral.lambda0_adjudicate":
        tr.counts["lambda0_phases"] += len(angles)


def _on_build_eigenvector(tr: Tracer, args, kwargs, psi) -> None:
    tr.counts["eigvec_sites"] += psi.hi - psi.lo + 1


def _steps_hook(tr: Tracer, args, kwargs, result) -> None:
    psi0, steps = args[1], args[2]
    tr.counts["site_steps"] += (psi0.hi - psi0.lo + 1) * steps


def _on_main(tr: Tracer, args, kwargs, code) -> None:
    argv = args[0] if args else kwargs.get("argv")
    if argv and "--out" in argv:
        out = Path(argv[argv.index("--out") + 1])
        for p in (out, out.with_name(out.name + ".manifest.json")):
            if p.is_file():
                tr.counts["bytes_written"] += p.stat().st_size


_HOOKS = {
    "spectral.find_roots": _on_find_roots,
    "spectral.lambda0_adjudicate": _on_lambda0_adjudicate,
    "spectral.lambda0_set": _on_lambda0_set,
    "spectral.build_eigenvector": _on_build_eigenvector,
    "evolution.evolve": _steps_hook,
    "evolution.time_averaged_origin": _steps_hook,
    "cli.main": _on_main,
}
