"""Command-line front end: scans, root finding, eigenvector export, evolution.

Data go to CSV, structured records to JSON; every output artifact gets a
.manifest.json sidecar recording the command, parameters, version, wall time
and a digest of the resolved coin configuration. Identical inputs produce
byte-identical data files. Exit codes: 0 success, 2 configuration error,
3 numerical-validity error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .coin import CoinField, PRESETS, ConfigError, parse_field_config, serialize_field
from .evolution import SimulationError, StateVector, _distributions, default_initial_state
from .linalg import TAU, angle_dist
from .spectral import (
    EigenvalueRecord,
    chi_batch,
    find_roots,
    lambda0_adjudicate,
    lambda0_set,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

THETA_PRESETS = (np.pi / 12, 3 * np.pi / 12, 7 * np.pi / 12, 11 * np.pi / 12)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _config_digest(field: CoinField) -> str:
    canonical = json.dumps(serialize_field(field), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _write_manifest(out: Path, command: str, params: dict, field: CoinField,
                    started: float) -> None:
    manifest = {"command": command, "parameters": params, "version": __version__,
                "wall_time_s": time.perf_counter() - started,
                "config_digest": _config_digest(field)}
    _write_atomic(out.with_name(out.name + ".manifest.json"),
                  json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _resolve_field(args: argparse.Namespace) -> CoinField:
    if args.config is not None:
        try:
            return parse_field_config(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read --config {args.config}: {exc}") from None
    if args.model is None:
        raise ConfigError("provide either --config or --model")
    base, shifted = ({"preset": args.coin, "phase": phase} for phase in (0.0, args.theta))
    coins = {"one-defect": {"bulk": base, "origin": shifted},
             "two-phase": {"left": base, "right": shifted}}.get(args.model, {"coin": shifted})
    return parse_field_config({"model": args.model, **coins})


def _out_path(args: argparse.Namespace) -> Path:
    """--out, checked before any work is done: its directory must exist."""
    if not (out := Path(args.out)).parent.is_dir():
        raise ConfigError(f"--out {out}: no directory {out.parent}")
    return out


def _record_json(r: EigenvalueRecord) -> dict:
    return {
        "lambda": r.lam,
        "abs_chi": r.chi_residual,
        "zeta_left": [r.zeta_left.real, r.zeta_left.imag],
        "zeta_right": [r.zeta_right.real, r.zeta_right.imag],
        "op_residual": r.op_residual,
        "source": r.source,
    }


def _null_non_finite(doc):
    """doc with each NaN or infinite float replaced by None, which JSON writes as null."""
    if isinstance(doc, dict):
        return {k: _null_non_finite(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_null_non_finite(v) for v in doc]
    return None if isinstance(doc, float) and not math.isfinite(doc) else doc


def _at_least(flag: str, value, least) -> None:
    if not value >= least:
        raise ConfigError(f"{flag} must be at least {least}, got {value}")


def _all_records(field: CoinField, grid: int, refine_tol: float):
    _at_least("--grid", grid, 1000)  # not find_roots' ValueError: that exits 3
    if not refine_tol > 0:
        raise ConfigError(f"--refine-tol must be positive, got {refine_tol}")
    scan = find_roots(field, grid_n=grid, refine_tol=refine_tol)
    records = scan.records + lambda0_adjudicate(field, scan.diagnostics)
    return sorted(records, key=lambda r: r.lam), scan.diagnostics


def cmd_validate(args: argparse.Namespace) -> int:
    field = _resolve_field(args)
    # adding 0.0 turns -0.0 into 0.0, so the bytes compare as array_equal does
    coins = len({m.tobytes() for m in field.coin_table + 0.0})
    print(f"coin field ok: window [{field.x_minus}, {field.x_plus}), "
          f"{len(field.defects)} defect site(s), {coins} distinct coin(s)")
    angles = lambda0_set(field)
    print("degenerate phases: " + (", ".join(_fmt(a) for a in angles) or "none"))
    return EXIT_OK


def cmd_scan(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    _at_least("--grid", args.grid, 1)
    out = _out_path(args)
    field = _resolve_field(args)
    lams = np.arange(args.grid) * (TAU / args.grid)
    values, in_lambda, near = chi_batch(field, lams)
    lines = ["lambda,abs_chi,in_lambda,near_lambda0"]
    for lam, value, inside, at_lambda0 in zip(lams, values, in_lambda, near):
        abs_chi = "" if np.isnan(value) else _fmt(abs(value))
        lines.append(f"{_fmt(lam)},{abs_chi},{int(inside)},{int(at_lambda0)}")
    _write_atomic(out, "\n".join(lines) + "\n")
    _write_atomic(out.with_name(out.name + ".lambda0.json"),
                  json.dumps({"lambda0": lambda0_set(field)}, sort_keys=True) + "\n")
    _write_manifest(out, "scan", {"grid": args.grid}, field, started)
    return EXIT_OK


def cmd_roots(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    out = _out_path(args)
    field = _resolve_field(args)
    records, diagnostics = _all_records(field, args.grid, args.refine_tol)
    doc = _null_non_finite({"records": [_record_json(r) for r in records],
                            "diagnostics": diagnostics})
    _write_atomic(out, json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n")
    _write_manifest(out, "roots", {"grid": args.grid, "refine_tol": args.refine_tol}, field,
                    started)
    print(f"{len(records)} eigenvalue(s) written to {out}")
    return EXIT_NUMERICAL if diagnostics else EXIT_OK


def cmd_eigvec(args: argparse.Namespace) -> int:
    if not math.isfinite(args.lam):  # before the root search, which cannot match it
        raise ConfigError(f"--lambda must be finite, got {args.lam}")
    started = time.perf_counter()
    out = _out_path(args)
    field = _resolve_field(args)
    records, _ = _all_records(field, args.grid, args.refine_tol)
    matches = [r for r in records if angle_dist(r.lam, args.lam) <= args.refine_tol]
    if not matches:
        nearest = sorted(records, key=lambda r: angle_dist(r.lam, args.lam))[:3]
        hint = ", ".join(_fmt(r.lam) for r in nearest) or "none found"
        print(f"error: lambda={_fmt(args.lam)} is not an accepted root; "
              f"nearest roots: {hint}", file=sys.stderr)
        return EXIT_CONFIG
    psi = matches[0].eigvec
    lines = ["x,re1,im1,re2,im2,re3,im3,site_norm"]
    for x, a, norm in zip(range(psi.lo, psi.hi + 1), psi.amps, psi.site_norms()):
        lines.append(",".join([str(x), *(_fmt(v) for c in a for v in (c.real, c.imag)),
                               _fmt(norm)]))
    _write_atomic(out, "\n".join(lines) + "\n")
    _write_manifest(out, "eigvec", {"grid": args.grid, "refine_tol": args.refine_tol,
                                    "lambda": args.lam}, field, started)
    return EXIT_OK


def _initial_state(args: argparse.Namespace, half_width: int) -> StateVector:
    psi = default_initial_state(half_width)
    if args.psi0 is not None or args.psi0_site:
        comps = (psi.amps[-psi.lo].copy() if args.psi0 is None  # the default spinor
                 else np.array([complex(*args.psi0[k : k + 2]) for k in (0, 2, 4)]))
        if not np.isfinite(comps.view(float)).all():
            raise ConfigError("--psi0 entries must be finite")
        big = np.abs(comps.view(float)).max()
        if big == 0:
            raise ConfigError("--psi0 must be a nonzero spinor")
        # scaled exactly, by a power of two near 1/big, so the norm cannot overflow
        comps = np.ldexp(comps.view(float), -np.frexp(big)[1]).view(complex)
        n = np.linalg.norm(comps)
        if not psi.lo <= args.psi0_site <= psi.hi:
            raise ConfigError(f"--psi0-site {args.psi0_site} outside the window "
                              f"[{psi.lo}, {psi.hi}]")
        psi.amps[:] = 0.0
        psi.amps[args.psi0_site - psi.lo] = comps / n
    return psi


def cmd_evolve(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    _at_least("--t", args.t, 0)
    if args.window is not None:
        _at_least("--window", args.window, 1)
    out = _out_path(args)
    field = _resolve_field(args)
    half_width = args.window if args.window is not None else args.t + 6
    psi0 = _initial_state(args, half_width)
    lines = ["t,x,prob" if args.trajectory else "x,prob"]
    for dist in _distributions(field, psi0, args.t):  # one at a time; only rows are kept
        if args.trajectory or dist.time == args.t:
            t = f"{dist.time}," if args.trajectory else ""
            lines += [f"{t}{x},{_fmt(p)}" for x, p in zip(range(dist.lo, dist.hi + 1), dist.probs)]
    _write_atomic(out, "\n".join(lines) + "\n")
    _write_manifest(out, "evolve", {"t": args.t, "window": half_width,
                                    "trajectory": bool(args.trajectory)}, field, started)
    return EXIT_OK


def cmd_demo(args: argparse.Namespace) -> int:
    _at_least("--grid", args.grid, 1)  # for every figure, though only the scans read it
    model = "one-defect" if args.figure in ("fig1", "fig2") else "two-phase"
    vars(args).update(config=None, coin="fourier", theta=THETA_PRESETS[args.theta_index],
                      model=model)
    if args.figure in ("fig1", "fig3"):
        return cmd_scan(args)
    vars(args).update(t=100, window=None, trajectory=False, psi0=None, psi0_site=0)
    return cmd_evolve(args)


class _Parser(argparse.ArgumentParser):
    """argparse reads a one-dash token other than a plain decimal (-1e-3, -inf) as an
    option; here every number is a value, for each flag and each --psi0 entry alike."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)  # a number: a value, so None (no option)
        except ValueError:
            return super()._parse_optional(arg_string)


@functools.cache  # built on the first main() call, then reused by every later one
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qw3", description="Spectral analysis and simulation "
                     "of three-state quantum walks on the integer lattice.")
    parser.add_argument("--version", action="version", version=f"qw3 {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="PATH", help="coin field config (JSON)")
        p.add_argument("--model", choices=("one-defect", "two-phase", "homogeneous"),
                       help="preset model built from --coin and --theta")
        p.add_argument("--coin", choices=sorted(PRESETS), default="fourier")
        p.add_argument("--theta", type=float, default=0.0,
                       help="phase of the defect/right-half coin (presets only)")

    def add_search_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--grid", type=int, default=4000)
        p.add_argument("--refine-tol", type=float, default=1e-12, dest="refine_tol",
                       help="stop refining a root once its secant step is this small (rad)")

    p = sub.add_parser("validate", help="check a configuration and report its shape")
    add_model_flags(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("scan", help="tabulate |chi| over a phase grid (CSV)")
    add_model_flags(p)
    p.add_argument("--grid", type=int, default=4000)
    p.add_argument("--out", required=True, metavar="PATH")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("roots", help="locate and certify all eigenvalues (JSON)")
    add_model_flags(p)
    add_search_flags(p)
    p.add_argument("--out", required=True, metavar="PATH")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("eigvec", help="export one eigenvector (CSV)")
    add_model_flags(p)
    add_search_flags(p)
    p.add_argument("--lambda", type=float, required=True, dest="lam",
                   help="eigenphase of an accepted root")
    p.add_argument("--out", required=True, metavar="PATH")
    p.set_defaults(func=cmd_eigvec)

    p = sub.add_parser("evolve", help="run the walk and export the distribution (CSV)")
    add_model_flags(p)
    p.add_argument("--t", type=int, default=100)
    p.add_argument("--window", type=int, help="window half-width (default t + 6)")
    p.add_argument("--trajectory", action="store_true",
                   help="emit all time steps, not just the final one")
    p.add_argument("--psi0", type=float, nargs=6, metavar="V",
                   help="initial spinor re1 im1 re2 im2 re3 im3 (normalized)")
    p.add_argument("--psi0-site", type=int, default=0, dest="psi0_site")
    p.add_argument("--out", required=True, metavar="PATH")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("demo", help="regenerate one figure's data")
    p.add_argument("figure", choices=("fig1", "fig2", "fig3", "fig4"))
    p.add_argument("--theta-index", type=int, choices=(0, 1, 2, 3), default=0,
                   dest="theta_index")
    p.add_argument("--grid", type=int, default=4000)
    p.add_argument("--out", required=True, metavar="PATH")
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SimulationError, ValueError) as exc:
        print(f"numerical-validity error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
