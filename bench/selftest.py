"""Self-test of the benchmark on tiny inputs (Q_3, G(60, m=177), 2 replicates).

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its unit
in both modes on every workload, that every traced span is reached where
tracing.SPANS says it is, that a corrupted payload is counted as a failure,
that the benchmark refuses to run where the riccigraph sources are missing,
and that tracing leaves no module holding an untraced function.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import run
from workloads import DEFAULT_SEED, WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def check_printed(name: str, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", name, "--seed",
         str(DEFAULT_SEED), "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    check(proc.returncode == 0, f"{name} trace={trace} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name}: result keys {set(result)}")
    errors = [line for line in lines if line.startswith("# error")]
    check(result["correct"] and result["failed"] == 0, f"{name} trace={trace}: {errors}")
    expected = SPEC["per_layer" if trace else "end_to_end"]
    got = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
    check(got == {m["name"]: m["unit"] for m in expected},
          f"{name} trace={trace}: printed metrics differ from BENCHMARK.json")
    for m in expected:
        value = result["metrics"][m["name"]]["value"]
        check(isinstance(value, (int, float)), f"{name}: {m['name']} is not a number")
        pattern = rf"^{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}$"
        check(any(re.match(pattern, line) for line in lines),
              f"{name}: no report line for {m['name']} in {m['unit']}")


def corrupt_first_kappa(text: str) -> str:
    # JSON "kappa": "p/q" or the CSV kappa column: append a digit to the first numerator
    return re.sub(r'("kappa": "|\n[^,\n]*,[^,\n]*,)(-?\d+)', r"\g<1>\g<2>1", text, count=1)


def corrupt_every_kappa(text: str) -> str:
    return re.sub(r'("kappa": ")(-?[\d/]+)', r'\g<1>9/7', text)


def check_corruption() -> None:
    # At the default seed the reference digest catches any changed byte.
    out = run.measure("sparse_gnp_all", DEFAULT_SEED, 0, False, "tiny", corrupt=corrupt_first_kappa)
    result = out["result"]
    check(not result["correct"] and result["failed"] == result["attempted"] >= 1,
          f"corrupted CSV payload at the default seed not reported: {result}")
    # At another seed there is no digest; the recomputed sample must catch it.
    out = run.measure("cube_all", DEFAULT_SEED + 1, 0, False, "tiny", corrupt=corrupt_every_kappa)
    result = out["result"]
    check(not result["correct"] and result["failed"] == result["attempted"] >= 1,
          f"corrupted JSON payload at another seed not reported: {result}")
    check(any("ricci_lp gives" in e for e in out["report"]["errors"]),
          "recomputation did not flag the corrupted kappa")


def check_missing_sources() -> None:
    bare = run.ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cube_all", "--seed",
                               "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a benchmark run is using it
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"run without sources exited {proc.returncode} printing {proc.stdout!r}")


def check_rebinding() -> None:
    """After install, no riccigraph module may still hold an unwrapped original."""
    import importlib

    import tracing

    importlib.import_module("riccigraph.cli")  # imports every module on the CLI path
    originals = {}
    for module, qualname, _, _ in tracing.SPANS:
        if "." not in qualname:
            originals[id(getattr(importlib.import_module(f"riccigraph.{module}"), qualname))] = qualname
    tracing.install(tracing.Tracer())
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "riccigraph" or mod_name.startswith("riccigraph."):
            for key, value in vars(mod).items():
                check(id(value) not in originals, f"{mod_name}.{key} still binds the untraced function")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    for name in WORKLOADS:
        for trace in (0, 1):
            check_printed(name, trace)
            print(f"ok  {name} trace={trace}")
    check_corruption()
    print("ok  corrupted payloads are failures")
    check_missing_sources()
    print("ok  no result without the riccigraph sources")
    check_rebinding()  # last: it patches riccigraph inside this process
    print("ok  every binding of a traced function is rebound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
