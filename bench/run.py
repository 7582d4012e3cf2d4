"""riccigraph benchmark: one CLI workload per invocation, one child process per command.

    python3 bench/run.py --workload sparse_gnp_all --seed 7 --seconds 50 --trace 0

Set-up (input generation plus a fresh interpreter importing riccigraph and
loading the input) runs SETUP_REPS times and is reported as `setup_s`.
Then commands run one after another, each in a fresh interpreter, until
--seconds have passed.  With --trace 0 the last line reports the end-to-end
metrics; with --trace 1 untraced and traced commands alternate and the last
line reports the per-layer metrics.  Outputs are checked after the timed
commands: every payload must match the first byte for byte, the first must
match the reference digest at the default seed, and a seeded sample of
edges or replicates is recomputed with ricci_lp.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from tracing import SPANS, span_name
from workloads import DEFAULT_SEED, WORKLOADS, edge_path, params

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPS = 7
RUN_LIMIT_S = 170.0  # every child is killed past this point of the run
SAMPLE = {"curvature": 8, "experiment": 2}
METHODS = ("tree_girth6", "bipartite", "girth5", "lp")

END_TO_END = (
    # name, unit, better, bound
    ("items_per_s", "items/s", "higher", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric printed under --trace 1, as (name, unit, better)."""
    out = []
    for module, qualname, _, _ in SPANS:
        name = span_name(module, qualname)
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.s", "s", "lower"),
                (f"{name}.self_s", "s", "lower")]
    out += [
        ("graph.neighbor_partition.calls_per_item", "calls/item", "lower"),
        ("transport.solve_transportation.cells", "count", "lower"),
        ("transport.w1_dual_oracle.calls_per_lp_edge", "calls/edge", "lower"),
    ]
    out += [(f"curvature.method.{m}", "count", "lower" if m == "lp" else "higher")
            for m in METHODS]
    out += [("cli.main.s", "s", "lower"), ("cli.tracing_overhead_s", "s", "lower")]
    return out


def payload_rows(workload, text: str):
    """(sha256 of the results payload, [(key, kappa, method)]) from one command's stdout.

    JSON output is hashed on its `results` value only, because the envelope's
    timing_seconds varies by design; CSV output has no envelope and is hashed whole.
    """
    if workload.fmt == "json":
        results = json.loads(text)["results"]
        blob = json.dumps(results, sort_keys=True, indent=2)
        rows = [(tuple(r["edge"]), r["kappa"], r["method"]) for r in results]
    else:
        blob = text
        rows = []
        for r in csv.DictReader(io.StringIO(text)):
            key = (int(r["u"]), int(r["v"])) if workload.kind == "curvature" else int(r["index"])
            rows.append((key, r["kappa"], r["method"]))
    return hashlib.sha256(blob.encode()).hexdigest(), rows


def verify(workload, scale: str, seed: int, digest: str, rows, workdir: str) -> list[str]:
    """Independent checks of one payload; returns the mismatches found."""
    from riccigraph.curvature import ricci_lp
    from riccigraph.graph import parse_edge_list
    from riccigraph.randgraph import (DEFAULT_SIZE_BUDGET, canonical_regime_params,
                                      replicate_seed, sample_bipartite, sample_gnp)
    from riccigraph.rationals import format_rational
    from riccigraph.transport import DEFAULT_ORACLE_CAP

    cap = int(dict(workload.env).get("RICCI_ORACLE_CAP", DEFAULT_ORACLE_CAP))
    errors = []
    if seed == DEFAULT_SEED:
        reference = json.loads((BENCH_DIR / "reference.json").read_text())
        expected = reference.get(scale, {}).get(workload.name)
        if digest != expected:
            errors.append(f"payload sha256 {digest} != reference {expected}")
    if workload.kind == "curvature":
        with open(edge_path(workdir, workload), encoding="utf-8") as fh:
            g = parse_edge_list(fh.read())
        keys = list(g.edges())
    else:
        p = params(workload, scale)
        n, prob = canonical_regime_params(p["model"], p["regime"])
        keys = list(range(p["replicates"]))
    if [key for key, _, _ in rows] != keys:
        return errors + [f"payload rows do not list the {len(keys)} expected items in order"]
    picked = sorted(random.Random(seed).sample(range(len(rows)), min(SAMPLE[workload.kind], len(rows))))
    for i in picked:
        key, kappa, method = rows[i]
        if workload.kind == "curvature":
            expected = format_rational(ricci_lp(g, *key, cap=cap).kappa)
        else:
            rseed = replicate_seed(seed, key)
            if p["model"] == "gnp":
                a, b = 0, 1
                h = sample_gnp(n, prob, rseed, (a, b))
            else:
                a, b = 0, n
                h = sample_bipartite(n, n, prob, rseed, (a, b))
            if h.degree(a) * h.degree(b) > DEFAULT_SIZE_BUDGET:
                expected = ""  # the CLI records the replicate as a skip, without kappa
            else:
                expected = format_rational(ricci_lp(h, a, b).kappa)
        method_ok = method == "skip" if expected == "" else method in METHODS
        if kappa != expected or not method_ok:
            errors.append(f"item {key}: payload kappa {kappa!r} ({method}), ricci_lp gives {expected!r}")
    return errors


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # same set/dict layout in every child
    return env


def _child(args: list[str], started: float) -> subprocess.CompletedProcess:
    timeout = max(1.0, RUN_LIMIT_S - (perf_counter() - started))
    return subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), *args],
                          cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                          timeout=timeout)


def machine_info(seed: int) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def measure(name: str, seed: int, seconds: float, trace: bool, scale: str = "full",
            corrupt=None) -> dict:
    """One benchmark run; returns the result object and the human-readable report.

    `corrupt`, when given, rewrites each command's output before it is
    checked; the self-test uses it to show that a bad payload is caught.
    """
    workload = WORKLOADS[name]
    started = perf_counter()
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    common = [name, scale, str(seed), str(workdir)]
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            t0 = perf_counter()
            proc = _child(["setup", *common], started)
            setup_times.append(perf_counter() - t0)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up failed:\n{proc.stderr}")

        deadline = perf_counter() + seconds
        commands = []  # one dict per command: rc, wall_s, peak_rss_mb, spans, traced, digest
        first_rows = None
        # trace mode alternates plain and traced commands and needs two traced
        # ones to show that the exact counts repeat
        while len(commands) < (4 if trace else 1) or perf_counter() < deadline:
            traced = trace and len(commands) % 2 == 1
            out = workdir / "out.txt"
            try:
                proc = _child(["run", *common, str(out), "1" if traced else "0"], started)
            except subprocess.TimeoutExpired:
                commands.append({"rc": None, "traced": traced, "digest": None})
                break
            cmd = {"rc": proc.returncode, "traced": traced, "digest": None}
            if proc.returncode == 0:
                cmd.update(json.loads(proc.stdout.splitlines()[-1]))
                text = out.read_text(encoding="utf-8")
                if corrupt is not None:
                    text = corrupt(text)
                try:
                    cmd["digest"], rows = payload_rows(workload, text)
                except (ValueError, KeyError) as exc:
                    cmd["parse_error"] = str(exc)
                else:
                    if first_rows is None:
                        first_rows = rows
            else:
                cmd["stderr"] = proc.stderr[-2000:]
            commands.append(cmd)

        # Correctness, outside the timed commands.
        ok = [c for c in commands if c["rc"] == 0 and c["digest"] is not None]
        errors = []
        if not ok:
            errors.append("no command produced a readable payload")
        else:
            ref_digest = ok[0]["digest"]
            errors += verify(workload, scale, seed, ref_digest, first_rows, str(workdir))
        traced_cmds = [c for c in ok if c["traced"]]
        counts = [_exact_counts(c["spans"]) for c in traced_cmds]
        if any(cnt != counts[0] for cnt in counts):
            errors.append("span counts differ between traced commands")
        for module, qualname, reached_by, _ in SPANS if traced_cmds else ():
            span = span_name(module, qualname)
            if name in reached_by and traced_cmds[0]["spans"][span]["calls"] == 0:
                errors.append(f"span {span} recorded no call")
        failed = sum(1 for c in commands
                     if errors or c["rc"] != 0 or c["digest"] != ok[0]["digest"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    methods = Counter(method for _, _, method in first_rows) if ok else Counter()
    items = len(first_rows) if ok else 0
    if trace:
        metrics = _layer_metrics(ok, items, methods)
    else:
        metrics = _end_to_end_metrics(ok, items, setup_times)
    result = {"correct": not errors and failed == 0, "attempted": len(commands),
              "failed": failed, "metrics": metrics}
    report = {"machine": machine_info(seed), "workload": name, "scale": scale,
              "payload_sha256": ok[0]["digest"] if ok else None, "items": items,
              "walls": [c["wall_s"] for c in ok],
              "commands": len(commands), "error_rate": failed / len(commands),
              "errors": errors + [c.get("stderr") or c.get("parse_error") for c in commands
                                  if c.get("stderr") or c.get("parse_error")]}
    if trace and ok:
        report["exact_counts"] = _exact_counts(traced_cmds[0]["spans"]) if traced_cmds else {}
        report["exact_counts"].update({f"curvature.method.{m}": methods[m] for m in METHODS})
    return {"result": result, "report": report}


def _exact_counts(spans: dict) -> dict:
    counts = {}
    for span, stat in sorted(spans.items()):
        counts[f"{span}.calls"] = stat["calls"]
        if stat["extra"]:
            counts[f"{span}.cells"] = stat["extra"]
    return counts


def _end_to_end_metrics(ok, items: int, setup_times) -> dict:
    # Medians over the whole run.  On the reference machine the host's speed
    # drifts in phases of tens of seconds to minutes, so a run's fastest
    # command depends on whether the run caught a fast phase; the median of
    # 50 s of commands moved less from run to run (README).
    units = {n: u for n, u, _, _ in END_TO_END}
    values = {"setup_s": statistics.median(setup_times)}
    if ok:
        wall = statistics.median(c["wall_s"] for c in ok)
        values.update({"items_per_s": items / wall, "wall_s": wall,
                       "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in ok)})
    return {n: {"value": values[n], "unit": units[n]} for n, _, _, _ in END_TO_END if n in values}


def _layer_metrics(ok, items: int, methods: Counter) -> dict:
    """Span figures of the fastest traced command, so that self times add up."""
    traced = [c for c in ok if c["traced"]]
    plain = [c for c in ok if not c["traced"]]
    if not traced or not plain:
        return {}
    best = min(traced, key=lambda c: c["wall_s"])
    spans = best["spans"]
    values = {}
    for span, stat in spans.items():
        values.update({f"{span}.calls": stat["calls"], f"{span}.s": stat["s"],
                       f"{span}.self_s": stat["self_s"]})
    values["graph.neighbor_partition.calls_per_item"] = (
        spans["graph.neighbor_partition"]["calls"] / items)
    values["transport.solve_transportation.cells"] = spans["transport.solve_transportation"]["extra"]
    values["transport.w1_dual_oracle.calls_per_lp_edge"] = (
        spans["transport.w1_dual_oracle"]["calls"] / methods["lp"] if methods["lp"] else 0.0)
    for m in METHODS:
        values[f"curvature.method.{m}"] = methods[m]
    values["cli.main.s"] = best["wall_s"]
    values["cli.tracing_overhead_s"] = best["wall_s"] - min(c["wall_s"] for c in plain)
    return {n: {"value": values[n], "unit": u} for n, u, _ in per_layer_metrics()}


def print_report(out: dict) -> None:
    report, result = out["report"], out["result"]
    print("# machine " + json.dumps(report["machine"], sort_keys=True))
    print(f"# workload {report['workload']} ({report['scale']}): {report['items']} items, "
          f"{report['commands']} commands, error_rate {report['error_rate']:.4f}, "
          f"payload sha256 {report['payload_sha256']}")
    for err in report["errors"]:
        print(f"# error: {err}")
    print("# command walls (s) " + " ".join(f"{w:.4f}" for w in report["walls"]))
    if "exact_counts" in report:
        print("# exact counts " + json.dumps(report["exact_counts"], sort_keys=True))
    for metric, entry in result["metrics"].items():
        print(f"{metric:48s} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "riccigraph" / "cli.py").is_file():
        print(f"error: riccigraph sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_report(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
