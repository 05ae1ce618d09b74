"""File-driven command line front end.

Exit codes: 0 success, 1 domain failure (assumption/design/integration) or
a request too large to allocate, 2 I/O or format failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from .errors import ConsensusError, FileFormatError
from .fileio import load_graph, load_schedule, write_trajectory_csv
from .graph import Decomposition, SignedGraph, suggest_decomposition, verify_assumption
from .protocol import contraction_factor, design_fixed, design_switching, verify_design
from .simulate import convergence_report, integrate_fixed, integrate_switching


def _parse_v1(spec: str, g: SignedGraph) -> Decomposition:
    if spec.strip().lower() == "auto":
        return suggest_decomposition(g)
    try:
        ids = [int(tok) for tok in spec.replace(" ", "").split(",") if tok]
    except ValueError as exc:
        raise FileFormatError(f"cannot parse V1 list {spec!r}") from exc
    return Decomposition.of(g, ids)


def _parse_theta(spec: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in spec.replace(" ", "").split(",") if tok])
    except ValueError as exc:
        raise FileFormatError(f"cannot parse theta {spec!r}") from exc


def _graph_args(args: argparse.Namespace) -> List[Path]:
    paths = [Path(args.graph)] if args.graph else []
    paths += [Path(p) for p in args.graphs or []]
    if not paths:
        raise FileFormatError("no graph file given (use --graph or --graphs)")
    return paths


def _single_graph(args: argparse.Namespace) -> SignedGraph:
    if not args.graph:
        raise FileFormatError("no graph file given (use --graph)")
    return load_graph(args.graph)


def _single_delta(args: argparse.Namespace) -> Optional[float]:
    if not args.delta:
        return None
    if len(args.delta) > 1:
        raise FileFormatError(f"got {len(args.delta)} --delta values for one graph")
    return args.delta[0]


def _v1_specs(spec: str, count: int) -> List[str]:
    parts = [p for p in spec.split(";") if p.strip()]
    if len(parts) == 1:
        return parts * count
    if len(parts) != count:
        raise FileFormatError(f"got {len(parts)} V1 lists for {count} graphs")
    return parts


def cmd_check(args: argparse.Namespace) -> int:
    g = _single_graph(args)
    dec = _parse_v1(args.v1, g)
    report = verify_assumption(g, dec)
    if args.json:
        print(json.dumps({
            "pathCover": report.path_cover,
            "dominance": report.dominance,
            "pathFailures": list(report.path_failures),
            "dominanceFailures": list(report.dominance_failures),
            "v1": sorted(dec.v1),
        }))
    else:
        print(f"V1 = {sorted(dec.v1)}")
        print(f"path cover: {'ok' if report.path_cover else 'FAIL'}"
              + (f" (vertices {list(report.path_failures)})" if report.path_failures else ""))
        print(f"dominance:  {'ok' if report.dominance else 'FAIL'}"
              + (f" (vertices {list(report.dominance_failures)})" if report.dominance_failures else ""))
    return 0 if report.ok else 1


def cmd_design(args: argparse.Namespace) -> int:
    g = _single_graph(args)
    dec = _parse_v1(args.v1, g)
    theta = _parse_theta(args.theta)
    design = design_fixed(g, dec, theta, margin=args.margin, delta=_single_delta(args))
    report = verify_design(g, design)
    payload = {
        "design": design.to_dict(),
        "spectral": report.spectral_dict(),
        "specOk": report.spec_ok,
        "nullOk": report.null_ok,
        "equilibriumResidual": report.equilibrium_residual,
    }
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"C = {design.bound_c:.4f}  delta = {design.delta:.4f}")
        print(f"x0 = {np.array2string(design.x0, precision=4)}")
        print(f"min real part = {report.min_real_part:.4f}  "
              f"specOk = {report.spec_ok}  nullOk = {report.null_ok}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "design.json").write_text(json.dumps(design.to_dict(), indent=2) + "\n")
        (out / "spectral.json").write_text(
            json.dumps(report.spectral_dict(), indent=2) + "\n"
        )
    return 0 if report.spec_ok else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise FileFormatError(f"--seed must be a non-negative integer, got {args.seed}")
    paths = _graph_args(args)
    graphs = {k: load_graph(p) for k, p in enumerate(paths)}
    v1s = _v1_specs(args.v1, len(paths))
    decs = {k: _parse_v1(v1s[k], graphs[k]) for k in graphs}
    theta = _parse_theta(args.theta)
    rng = np.random.default_rng(args.seed)
    first = graphs[0]
    x_init = rng.uniform(-5.0, 5.0, first.n * first.d)

    if len(paths) > 1:
        if not args.schedule:
            raise FileFormatError("switching simulation needs --schedule")
        schedule = load_schedule(args.schedule)
        for gid in schedule.graph_ids:
            if not 0 <= gid < len(paths):
                raise FileFormatError(
                    f"schedule file {args.schedule}: pattern entry {gid} is not an index into"
                    f" --graphs (0..{len(paths) - 1})"
                )
        deltas: Optional[Dict[int, float]] = None
        if args.delta:
            if len(args.delta) not in (1, len(paths)):
                raise FileFormatError("give one --delta per graph (or a single one)")
            vals = args.delta * len(paths) if len(args.delta) == 1 else args.delta
            deltas = dict(enumerate(vals))
        sdesign = design_switching(
            graphs, decs, theta, alpha=schedule.alpha, margin=args.margin, deltas=deltas
        )
        contraction = contraction_factor(sdesign, graphs)
        traj = integrate_switching(schedule, sdesign, graphs, x_init, h=args.h, horizon=args.T)
        lam: Optional[float] = contraction.factor
    else:
        if args.schedule:
            raise FileFormatError(
                "--schedule needs a switching run, and a switching run needs two or more graphs"
            )
        design = design_fixed(first, decs[0], theta, margin=args.margin, delta=_single_delta(args))
        traj = integrate_fixed(first, design, x_init, h=args.h, horizon=args.T)
        lam = None

    report = convergence_report(traj, theta)
    summary = dict(report.to_dict(), Lambda=lam, seed=args.seed)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_trajectory_csv(traj, out / "trajectory.csv")
        (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ntconsensus",
        description="Check, design, and simulate nonzero-consensus protocols "
        "on signed matrix-weighted networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, theta: bool = True) -> None:
        p.add_argument("--graph", help="graph JSON file")
        p.add_argument("--v1", default="auto",
                       help="comma-separated V1 list, 'auto', or ';'-separated lists per graph")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if theta:
            p.add_argument("--theta", required=True, help="comma-separated target state")
            p.add_argument("--margin", type=float, default=0.1,
                           help="coupling margin above the bound C")
            p.add_argument("--delta", type=float, action="append",
                           help="explicit coupling coefficient (repeatable per graph)")
            p.add_argument("--out", help="output directory")

    p_check = sub.add_parser("check", help="verify the decomposition requirements")
    common(p_check, theta=False)

    p_design = sub.add_parser("design", help="synthesize and verify a coupling design")
    common(p_design)

    p_sim = sub.add_parser("simulate", help="integrate the closed loop and judge convergence")
    common(p_sim)
    p_sim.add_argument("--graphs", nargs="+", help="graph files for a switching run")
    p_sim.add_argument("--schedule", help="schedule JSON file")
    p_sim.add_argument("--h", type=float, default=1e-3, help="integration step")
    p_sim.add_argument("--T", type=float, default=20.0, help="horizon")
    p_sim.add_argument("--seed", type=int, default=42, help="seed for the initial state")
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on the first call and reused: parse_args
    keeps no state between calls (``--delta`` appends to a fresh list)."""
    return build_parser()


def _join_signed_values(argv: List[str]) -> List[str]:
    """argv with ``--theta V`` and ``--delta V`` spelled ``--theta=V`` and
    ``--delta=V`` where V starts with a single minus sign: argparse takes a
    separate -1,2,3 or -1e3 for an option and reports a missing value."""
    joined: List[str] = []
    for arg in argv:
        if joined and joined[-1] in ("--theta", "--delta") and arg.startswith("-") \
                and not arg.startswith("--") and arg != "-h":
            joined[-1] = f"{joined[-1]}={arg}"
        else:
            joined.append(arg)
    return joined


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(_join_signed_values(sys.argv[1:] if argv is None else argv))
    # looked up per call rather than stored on the parser, so that a
    # cmd_* rebound on this module after the first call is the one that runs
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsensusError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # NumPy's, for an array that a graph's n or d makes too large
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
