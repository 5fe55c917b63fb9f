"""Benchmark of the currsub package: one workload per process.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                           [--smoke] [--inject-fault OP]

Run from the root of a source checkout; the package is imported from
``src/`` and the Lc tool from ``tools/`` of the same checkout. Workloads
are defined in ``workloads.py`` and described in ``README.md``.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` measures the same loop untraced for half the time and
traced for the other half, and reports the per-layer metrics, the
command-line start-up costs and the tracing overhead. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it, prefixed
``perfbench``, records the environment and the details behind the
numbers. Generated inputs, spans and results go to ``.perfbench_out/``.

``--smoke`` shrinks every op for a quick self-test; ``--inject-fault OP``
corrupts the output of op number OP before its check, to show that a
wrong output is counted as failed.
"""

from __future__ import annotations

import argparse
import time

T_START = time.perf_counter()

import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import layertrace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LC_TOOL = ROOT / "tools" / "simulate_lc_critical_values.py"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("estimate_batch", "montecarlo", "cli_estimate", "lc_table")
# A seed kept out of development runs, for confirming later claims.
HELD_OUT_SEED = 7919
SETUP_REPS = 3
CLI_PROBES = 5

E2E_UNITS = {
    "throughput": "items/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import currsub.cli; "
    "print(time.perf_counter() - t)"
)


def per_layer_units(layers) -> dict[str, str]:
    units = {}
    for layer in layers:
        units[f"{layer}.calls"] = "calls/op"
        units[f"{layer}.self_ms"] = "ms/op"
    units["unitroot.adf_test.fits_per_test"] = "fits/test"
    units["unitroot.adf_test.useful_fit_ratio"] = "ratio"
    units["tools.simulate_lc_chunk.bytes_computed"] = "bytes/op"
    units["op.traced_ms"] = "ms/op"
    units["op.unattributed_ms"] = "ms/op"
    units["cli.interpreter_ms"] = "ms"
    units["cli.import_ms"] = "ms"
    units["trace.overhead_frac"] = "frac"
    return units


def parse_args(argv):
    parser = argparse.ArgumentParser(description="currsub benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny ops for the self-test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--inject-fault", type=int, default=-1, metavar="OP",
        help="corrupt the output of op number OP before it is checked",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def measure(wl, seconds: float, fault: int, tracer=None, min_ops: int = 1) -> dict:
    """Closed loop of ops until ``seconds`` of wall time have gone."""
    latencies = []
    failed = 0
    deadline = time.perf_counter() + seconds
    while len(latencies) < min_ops or time.perf_counter() < deadline:
        i = len(latencies)
        if tracer is not None:
            tracer.op = i
            span = tracer.begin("op")
        start = time.perf_counter()
        try:
            out = wl.run_op(i)
            ok = True
        except Exception:  # an op that raises counts as failed; keep going
            traceback.print_exc()
            ok = False
        latencies.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.end(span)
            tracer.op = -1
        if ok:
            if i == fault:
                out = wl.corrupt(out)
            ok = wl.check(i, out)
        if not ok:
            print(f"perfbench: op {i} of {wl.name} failed", file=sys.stderr)
            failed += 1
    return {
        "ops": len(latencies),
        "failed": failed,
        "throughput": (len(latencies) - failed) * wl.items_per_op / sum(latencies),
        "latencies": latencies,
    }


def latency_summary(latencies: list[float]) -> dict:
    """p50 always; p90 only when at least ten samples lie above it."""
    out = {"n_ops": len(latencies), "p50_ms": 1000.0 * statistics.median(latencies)}
    if len(latencies) >= 100:
        out["p90_ms"] = 1000.0 * statistics.quantiles(latencies, n=10)[8]
    else:
        out["p90_ms"] = None
        out["p90_note"] = f"not reported: {len(latencies)} ops leave fewer than 10 above p90"
    return out


def run_setup_only(args, env: dict) -> float:
    """Set-up time of a fresh process: interpreter start to inputs built and warm."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=120, capture_output=True, text=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def probe_cli(env: dict, n: int) -> tuple[float, float]:
    """Median wall time of a bare interpreter and in-process time of ``import currsub.cli``."""
    bare, imports = [], []
    for _ in range(n):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True, timeout=60)
        bare.append(time.perf_counter() - start)
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, cwd=ROOT, check=True, timeout=60, capture_output=True, text=True,
        )
        imports.append(float(proc.stdout))
    return 1000.0 * statistics.median(bare), 1000.0 * statistics.median(imports)


def code_fingerprint() -> str:
    digest = hashlib.sha256()
    for base in (SRC, LC_TOOL.parent, HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "none (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unresolved ({ref})"


def blas_info(np) -> tuple[str, object]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        name = "unknown"
    threads: object = os.environ.get("OPENBLAS_NUM_THREADS", "unknown")
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, fn()
    return name, threads


def environment(np, args, fingerprint: str) -> dict:
    blas, blas_threads = blas_info(np)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "code_fingerprint": fingerprint,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def check_counts(name: str, counts: dict, fingerprint: str, smoke: bool) -> str | None:
    """Compare exact counts with the last run of the same code; None if they agree."""
    path = OUT_DIR / f"counts_{name}{'_smoke' if smoke else ''}.json"
    try:
        previous = json.loads(path.read_text())
    except (OSError, ValueError):
        previous = None
    if previous is not None and previous.get("fingerprint") == fingerprint:
        if previous["counts"] != counts:
            diff = sorted(k for k in counts if counts[k] != previous["counts"].get(k))
            return f"exact counts differ from the previous run of this code: {diff}"
        return None
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"fingerprint": fingerprint, "counts": counts}, indent=1))
    tmp.replace(path)
    return None


def child_environment() -> dict:
    """Environment for spawned interpreters: this checkout's package first."""
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def e2e_metrics(args, wl, ctx: dict, detail: dict) -> tuple[dict, int, int]:
    run = measure(wl, args.seconds, args.inject_fault)
    # The command-line workload's memory is that of the processes it
    # spawns, read before the set-up processes below become children too.
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli_estimate" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    setup_reps = [run_setup_only(args, ctx["child_env"]) for _ in range(SETUP_REPS)]
    metrics = {
        "throughput": run["throughput"],
        "latency_p50_ms": 1000.0 * statistics.median(run["latencies"]),
        "setup_s": statistics.median(setup_reps),
        "peak_rss_mb": peak_rss_mb,
    }
    detail["setup"]["fresh_process_reps_s"] = setup_reps
    detail["latency"] = latency_summary(run["latencies"])
    detail["throughput_unit"] = f"{wl.item}/s"
    detail["peak_rss_of"] = "spawned processes" if usage == resource.RUSAGE_CHILDREN else "this process"
    return metrics, run["ops"], run["failed"]


def layer_run(args, wl, ctx: dict, detail: dict, errors: list) -> tuple[dict, int, int]:
    untraced = measure(wl, args.seconds / 2.0, args.inject_fault)
    tracer = layertrace.Tracer()
    tracer.install(layertrace.package_modules(ctx["lctool"]))
    wl.tracer = tracer
    try:
        traced = measure(wl, args.seconds / 2.0, args.inject_fault, tracer, min_ops=2)
    finally:
        tracer.uninstall()
        wl.tracer = None
    spans_path = OUT_DIR / f"spans_{args.workload}.csv"
    tracer.write_csv(str(spans_path))

    op_counts = layertrace.counts_by_op(tracer.spans, tracer.events)
    metrics = layertrace.layer_metrics(tracer.spans, op_counts)
    interpreter_ms, import_ms = probe_cli(ctx["child_env"], 2 if args.smoke else CLI_PROBES)
    metrics["cli.interpreter_ms"] = interpreter_ms
    metrics["cli.import_ms"] = import_ms
    metrics["trace.overhead_frac"] = 1.0 - traced["throughput"] / untraced["throughput"]

    per_op = list(op_counts.values())
    if any(counts != per_op[0] for counts in per_op[1:]):
        errors.append("exact counts differ between ops of this run")
    exact = {k: v for k, v in metrics.items() if k.endswith(".calls")}
    for name in ("unitroot.adf_test.fits_per_test", layertrace.LC_BYTES):
        exact[name] = metrics[name]
    mismatch = check_counts(args.workload, exact, ctx["fingerprint"], args.smoke)
    if mismatch:
        errors.append(mismatch)
    attributed = sum(v for k, v in metrics.items() if k.endswith(".self_ms"))
    detail["traced"] = {
        "untraced_ops": untraced["ops"],
        "traced_ops": traced["ops"],
        "untraced_throughput": untraced["throughput"],
        "traced_throughput": traced["throughput"],
        "self_time_residual_ms": metrics["op.traced_ms"] - attributed - metrics["op.unattributed_ms"],
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "exact_counts_per_op": per_op[0],
        "bytes_computed_note": "computed from array shapes, not measured",
    }
    attempted = untraced["ops"] + traced["ops"]
    return metrics, attempted, untraced["failed"] + traced["failed"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "currsub" / "__init__.py").is_file() or not LC_TOOL.is_file():
        print(
            f"error: no currsub sources under {ROOT}: expected src/currsub/ and "
            f"{LC_TOOL.relative_to(ROOT)}; run from a source checkout",
            file=sys.stderr,
        )
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))
    t_import = time.perf_counter()
    import numpy as np

    import currsub.cli  # noqa: F401  (the import a command-line user pays)
    import workloads

    lctool = workloads.load_lc_tool(str(ROOT))
    import_s = time.perf_counter() - t_import
    if Path(currsub.cli.__file__).resolve().parent != SRC / "currsub":
        print(f"error: imported currsub from {currsub.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    data_dir = OUT_DIR / "data"
    data_dir.mkdir(exist_ok=True)
    ctx = {
        "root": str(ROOT),
        "out_dir": str(OUT_DIR),
        "data_dir": str(data_dir),
        "child_env": child_environment(),
        "cli_child": str(HERE / "cli_child.py"),
        "lctool": lctool,
    }
    wl = workloads.WORKLOADS[args.workload](ctx, args.seed, args.smoke)
    if args.setup_only:
        print(json.dumps({"setup_s": time.perf_counter() - T_START}))
        return 0
    ctx["fingerprint"] = code_fingerprint()

    detail = {
        "workload": args.workload,
        "item": wl.item,
        "items_per_op": wl.items_per_op,
        # Generated datasets replaced because the pipeline refused them.
        "skipped_draws": getattr(wl, "skipped_draws", 0),
        "smoke": args.smoke,
        "setup": {
            "this_process_s": time.perf_counter() - t_import,
            "this_process_import_s": import_s,
        },
    }
    errors: list[str] = []
    if args.trace == 0:
        metrics, attempted, failed = e2e_metrics(args, wl, ctx, detail)
        units = E2E_UNITS
    else:
        metrics, attempted, failed = layer_run(args, wl, ctx, detail, errors)
        units = per_layer_units(layertrace.LAYERS)

    detail["failed_frac"] = failed / attempted
    detail["errors"] = errors
    detail["env"] = environment(np, args, ctx["fingerprint"])
    for message in errors:
        print(f"perfbench: error: {message}", file=sys.stderr)
    correct = failed == 0 and not errors
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"detail": detail, "result": result}
    (OUT_DIR / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print("perfbench " + json.dumps(detail))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
