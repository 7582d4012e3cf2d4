"""Command-line front end.

Subcommands: curvature, flat, girth, gen, experiment.  JSON output is an
envelope {command, version, input_digest, results, timing_seconds}; the
results payload is byte-deterministic for identical inputs, timing is not
part of that contract.  CSV output is the bare table with no envelope.

Exit codes: 0 ok, 2 malformed input or ambiguous config, 3 not an edge,
4 no formula applies under --method formula, 5 verification mismatch.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from contextlib import nullcontext
from operator import attrgetter
from typing import TextIO

from . import __version__
from .curvature import curvature_bounds, curvature_of_core, result_to_dict
from .errors import (
    GraphInputError,
    NotAnEdgeError,
    NotApplicableError,
    RegimeUndeterminedError,
    VerificationError,
)
from .graph import Graph, generate_family, girth, parse_edge_list, write_edge_list
from .randgraph import (
    ExperimentConfig,
    canonical_regime_params,
    run_experiment,
)
from .rationals import format_rational
from .ricciflat import flatness_with_classification
from .transport import DEFAULT_ORACLE_CAP
from .graph import core_neighborhood


def _oracle_cap() -> int:
    raw = os.environ.get("RICCI_ORACLE_CAP")
    if raw is None:
        return DEFAULT_ORACLE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise GraphInputError(f"RICCI_ORACLE_CAP must be an integer, got {raw!r}")
    if not 2 <= cap <= DEFAULT_ORACLE_CAP:
        raise GraphInputError(f"RICCI_ORACLE_CAP must be from 2 to {DEFAULT_ORACLE_CAP}")
    return cap


def _load_graph(path: str) -> tuple[Graph, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise GraphInputError(f"cannot read {path}: {exc}")
    digest = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        raise GraphInputError(f"{path} is not a UTF-8 edge list")
    return parse_edge_list(text), digest


def _open_out(path: str) -> TextIO:
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise GraphInputError(f"cannot write {path}: {exc}")


def _write_text(fh: TextIO, text: str) -> None:
    """Write text to a file from _open_out; a failed write exits 2 like a failed open."""
    try:
        fh.write(text)
        fh.flush()
    except OSError as exc:
        raise GraphInputError(f"cannot write {fh.name}: {exc}")


def _emit_json(command: str, digest: str, results, started: float) -> None:
    envelope = {
        "command": command,
        "version": __version__,
        "input_digest": digest,
        "results": results,
        "timing_seconds": round(time.monotonic() - started, 3),
    }
    sys.stdout.write(json.dumps(envelope, sort_keys=True, indent=2) + "\n")


def cmd_curvature(args) -> int:
    started = time.monotonic()
    cap = _oracle_cap()
    g, digest = _load_graph(args.graph)
    if args.all:
        edges = list(g.edges())
    else:
        u, v = args.edge
        edges = [(u, v)]
    # CSV keeps one finished line per edge, not the edge's dict; everything is
    # written at the end, so a failing edge (exit 4 or 5) prints nothing.
    csv = args.format == "csv"
    payload = ["u,v,kappa,kappa_float,method,bounds"] if csv else []
    for u, v in edges:
        core = core_neighborhood(g, u, v)
        result = curvature_of_core(core, method=args.method, verify=args.verify, cap=cap)
        bounds = curvature_bounds(g, u, v, core=core)
        if csv:
            row = result_to_dict(result)
            cell = ";".join(
                f"{bp.source}={format_rational(bp.lower)}..{format_rational(bp.upper)}"
                for bp in sorted(bounds, key=attrgetter("source"))
            )
            payload.append(f"{u},{v},{row['kappa']},{row['kappa_float']},{row['method']},{cell}")
        else:
            payload.append(result_to_dict(result, bounds))
    if csv:
        sys.stdout.write("\n".join(payload) + "\n")
    else:
        _emit_json("curvature", digest, payload, started)
    return 0


def cmd_flat(args) -> int:
    started = time.monotonic()
    cap = _oracle_cap()
    g, digest = _load_graph(args.graph)
    report = flatness_with_classification(g, cap=cap)
    payload = {
        "is_flat": report.is_flat,
        "witness_edge": list(report.witness_edge) if report.witness_edge else None,
        "classification": report.classification,
    }
    if report.component_reports is not None:
        payload["components"] = [
            {
                "is_flat": sub.is_flat,
                "witness_edge": list(sub.witness_edge) if sub.witness_edge else None,
            }
            for sub in report.component_reports
        ]
    _emit_json("flat", digest, payload, started)
    return 0


def cmd_girth(args) -> int:
    started = time.monotonic()
    g, digest = _load_graph(args.graph)
    value = girth(g)
    payload = {"girth": value if value is not None else "infinite"}
    _emit_json("girth", digest, payload, started)
    return 0


def cmd_gen(args) -> int:
    started = time.monotonic()
    try:
        params = tuple(int(tok) for tok in args.params.split(",")) if args.params else ()
    except ValueError:
        raise GraphInputError(f"--params must be comma-separated integers, got {args.params!r}")
    g = generate_family(args.family, params)
    text = write_edge_list(g)
    digest = hashlib.sha256(f"{args.family}:{args.params}".encode()).hexdigest()
    if args.out:
        with _open_out(args.out) as fh:
            _write_text(fh, text)
        payload = {
            "family": args.family,
            "params": list(params),
            "vertices": g.vertex_count,
            "edges": g.edge_count,
            "written": args.out,
        }
        _emit_json("gen", digest, payload, started)
    else:
        sys.stdout.write(text)
    return 0


def cmd_experiment(args) -> int:
    started = time.monotonic()
    model = args.model
    if args.n is not None and args.p is not None:
        n, p = args.n, args.p
    elif args.regime and args.n is None and args.p is None:
        n, p = canonical_regime_params(model, args.regime)
    else:
        raise GraphInputError("provide --regime alone, or both --n and --p")
    config = ExperimentConfig(
        model=model,
        n=n,
        p=p,
        replicates=args.replicates,
        seed=args.seed,
        regime=args.regime,
        workers=args.workers,
    )
    # --out is opened before any replicate runs, so an unwritable path costs
    # no sampling or solving.
    with _open_out(args.out) if args.out else nullcontext() as out:
        report = run_experiment(config)
        if out is not None:
            _write_text(out, report.to_csv())
    digest = hashlib.sha256(
        json.dumps(
            {
                "model": model,
                "n": n,
                "p": float(p),
                "replicates": args.replicates,
                "seed": args.seed,
                "regime": args.regime,
            },
            sort_keys=True,
        ).encode()
    ).hexdigest()
    if args.format == "csv":
        sys.stdout.write(report.to_csv())
    else:
        _emit_json("experiment", digest, report.to_json_dict(), started)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riccigraph",
        description="Exact Ollivier curvature of graph edges, flatness classifiers, "
        "and seeded random-graph experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("curvature", help="curvature of one edge or all edges")
    c.add_argument("--graph", required=True, help="edge-list file")
    group = c.add_mutually_exclusive_group(required=True)
    group.add_argument("--edge", nargs=2, type=int, metavar=("U", "V"))
    group.add_argument("--all", action="store_true")
    c.add_argument("--method", choices=["auto", "lp", "formula"], default="auto")
    c.add_argument("--format", choices=["json", "csv"], default="json")
    c.add_argument("--verify", action="store_true", help="re-check every formula answer "
                   "through the LP (an --method lp answer is always certified)")
    c.set_defaults(func=cmd_curvature)

    f = sub.add_parser("flat", help="Ricci-flatness report")
    f.add_argument("--graph", required=True)
    f.set_defaults(func=cmd_flat)

    gi = sub.add_parser("girth", help="length of the shortest cycle")
    gi.add_argument("--graph", required=True)
    gi.set_defaults(func=cmd_girth)

    ge = sub.add_parser("gen", help="generate a named family graph")
    ge.add_argument("--family", required=True)
    ge.add_argument("--params", default="", help="comma-separated integers, e.g. 8 or 3,4")
    ge.add_argument("--out", help="write edge list here instead of stdout")
    ge.set_defaults(func=cmd_gen)

    e = sub.add_parser("experiment", help="seeded curvature ensemble at a marked edge")
    e.add_argument("--model", choices=["gnp", "bipartite"], required=True)
    e.add_argument("--regime", choices=list("abcdef"))
    e.add_argument("--n", type=int)
    e.add_argument("--p", type=float)
    e.add_argument("--replicates", type=int, default=100)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--workers", type=int, default=1)
    e.add_argument("--out", help="write the per-replicate CSV here")
    e.add_argument("--format", choices=["json", "csv"], default="json")
    e.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphInputError, RegimeUndeterminedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotAnEdgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NotApplicableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
