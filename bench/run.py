"""Benchmark runner for reluphase: one workload, one seed, a fixed time.

    python3 bench/run.py --workload planar-campaign --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  Each pass runs in a fresh interpreter
(bench/passrun.py) with the package imported from ``src/``, one pass at a
time, until ``--seconds`` have passed and at least three untraced passes
are done.  End-to-end metrics are medians over the untraced passes, with
their quartiles.

The same pass can run up to twice as slow for seconds to minutes at a time
on a shared host, in CPU time too, so the raw times of one run say as much
about the host as about the program.  ``wall_ref_s`` and ``setup_s`` are
therefore rescaled by a fixed calibration unit run between the calls of each
pass (bench/calibrate.py): each is the time at the host speed where that
unit takes ``calibrate.REFERENCE_S``.  The raw times are ``wall_s`` and
``setup_raw_s``.  With ``--trace 1`` traced passes alternate with the
untraced ones; per-layer metrics are medians over the traced passes, and
the tracing overhead is the traced minus the untraced median wall_ref_s.

Every pass hashes its semantic results (per-seed stop reason and
converged_at, first_hold, sweep means, the Lipschitz maximum, the Monte
Carlo estimates).  All passes of a run must agree, and must match the
reference stored in bench/reference.json for the seed when there is one;
a pass that raises or disagrees counts its calls as failed operations.

stdout ends with one JSON line: correct, attempted, failed and the metrics
BENCHMARK.json lists (end_to_end without tracing, per_layer with it).  The
full result, with the environment record, goes to .bench_out/results/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("planar-campaign", "train-sweep", "landscape-mc")
END_TO_END_UNITS = {
    "wall_s": "s",
    "wall_ref_s": "s",
    "setup_s": "s",
    "setup_raw_s": "s",
    "runs_per_s": "1/s",
    "iters_per_s": "1/s",
    "snapshots_per_s": "1/s",
    "pairs_per_s": "1/s",
    "mc_sets_per_s": "1/s",
    "run_ms_p50": "ms",
    "run_ms_p90": "ms",
    "peak_rss_mb": "MiB",
    "failed_frac": "ratio",
}
MIN_UNTRACED = 3
MIN_TRACED = 2
DEADLINE_S = 140.0  # start no pass after this; every run must end within 180 s


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_s"):
        return "s"
    if last.startswith("us_per"):
        return "us"
    if last == "flops_per_call":
        return "flop"
    if last in ("bytes", "bytes_per_call"):
        return "B"
    if last in ("share", "flip_ratio") or last.endswith("_frac"):
        return "ratio"
    return "count"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def git_commit(root: str) -> str | None:
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path) as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(root, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def spawn_pass(root: str, args, traced: bool, index: int, timeout: float) -> dict:
    out = os.path.join(root, ".bench_out")
    cmd = [
        sys.executable,
        os.path.join(BENCH_DIR, "passrun.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", "tiny" if args.tiny else "full",
        "--trace", "1" if traced else "0",
        "--out", os.path.join(out, "work"),
    ]
    if traced:
        cmd += ["--spans", os.path.join(out, "spans", f"{args.workload}-seed{args.seed}-pass{index}.jsonl")]
    t0 = perf_counter()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], cwd=root, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"error": f"pass timed out after {timeout:.0f} s", "trace": int(traced)}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}", "trace": int(traced)}
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny passes, for the self-test")
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "reluphase", "__init__.py")):
        print(f"no reluphase source under {root}/src; run from the root of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    with open(os.path.join(BENCH_DIR, "reference.json")) as fh:
        reference = None if args.tiny else json.load(fh)["digests"].get(args.workload, {}).get(str(args.seed))
    for sub in ("work", "spans", "results"):
        os.makedirs(os.path.join(root, ".bench_out", sub), exist_ok=True)

    passes: list[dict] = []
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        untraced = sum(1 for p in passes if not p["trace"])
        traced = len(passes) - untraced
        enough = untraced >= MIN_UNTRACED and (not args.trace or traced >= MIN_TRACED)
        if (enough and elapsed >= args.seconds) or elapsed >= DEADLINE_S:
            break
        want_trace = bool(args.trace) and traced < untraced
        passes.append(spawn_pass(root, args, want_trace, len(passes), max(5.0, 170.0 - elapsed)))

    good = [p for p in passes if "error" not in p]
    consensus = Counter(p["digest"] for p in good).most_common(1)[0][0] if good else None
    expected = reference or consensus
    attempted = failed = 0
    for p in passes:
        if "error" in p:
            attempted += 1
            failed += 1
            continue
        attempted += len(p["calls"])
        if p["digest"] != expected:
            failed += len(p["calls"])
    # Timings come from every finished pass; wrong results show in failed.
    untraced_good = [p for p in good if not p["trace"]]
    traced_good = [p for p in good if p["trace"]]
    for p in passes:
        if "error" in p:
            print(f"pass failed: {p['error']}", file=sys.stderr)
    if not untraced_good:
        print("no untraced pass finished", file=sys.stderr)
        return 1

    end_to_end: dict[str, dict] = {}
    for name, unit in END_TO_END_UNITS.items():
        if name in ("setup_s", "setup_raw_s", "peak_rss_mb"):
            values = [p[name] for p in untraced_good]
        elif name == "failed_frac":
            values = [failed / attempted]
        else:
            values = [p["metrics"][name] for p in untraced_good if name in p["metrics"]]
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        end_to_end[name] = {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}

    per_layer: dict[str, dict] = {}
    if traced_good:
        names = dict.fromkeys(name for p in traced_good for name in p["layers"])
        for name in names:
            q1, med, q3 = quartiles([p["layers"][name] for p in traced_good if name in p["layers"]])
            per_layer[name] = {"value": med, "unit": layer_unit(name), "q1": q1, "q3": q3, "n": len(traced_good)}
        per_layer["trace.wall_s"] = {
            "value": statistics.median(p["metrics"]["wall_s"] for p in traced_good), "unit": "s", "n": len(traced_good)
        }
        # The overhead compares rescaled times, so a change of host speed
        # between the traced and untraced passes does not count as overhead.
        traced_wall = statistics.median(p["metrics"]["wall_ref_s"] for p in traced_good)
        plain_wall = end_to_end["wall_ref_s"]["value"]
        per_layer["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
        per_layer["trace.overhead_frac"] = {"value": (traced_wall - plain_wall) / plain_wall, "unit": "ratio"}

    first = good[0]
    sample = untraced_good[0]
    env = {
        "git_commit": git_commit(root),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        **first["env"],
    }
    digests = sorted({p["digest"] for p in good})
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": "tiny" if args.tiny else "full",
        "env": env,
        "digest": consensus,
        "reference": reference,
        "digests_seen": digests,
        "digest_by_mode": {
            mode: sorted({p["digest"] for p in good if p["trace"] == flag})
            for mode, flag in (("untraced", 0), ("traced", 1))
        },
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "absent_layers": traced_good[0]["absent_layers"] if traced_good else [],
        "passes": passes,
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    result_path = os.path.join(root, ".bench_out", "results", tag + ".json")
    with open(result_path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}, seed {args.seed}: {len(untraced_good)} untraced passes"
          + (f", {len(traced_good)} traced" if args.trace else "")
          + f"; a pass makes {len(sample['calls'])} calls and {sample['runs']} runs"
          + f" ({sample['iterations']} iterations)")
    for name, unit in END_TO_END_UNITS.items():
        if name in end_to_end:
            m = end_to_end[name]
            print(f"  {name:<16} {unit:<6} {m['value']:<14.6g} [{m['q1']:.6g}, {m['q3']:.6g}] n={m['n']}")
        else:
            print(f"  {name:<16} {unit:<6} absent")
    print(f"  failed_frac base: {failed} failed of {attempted} operations (command calls)")
    if "run_ms_p50" in end_to_end:
        print(f"  run latency samples per pass: {sample['run_samples']}"
              + ("" if "run_ms_p90" in end_to_end else " (p90 needs 100)"))
    agree = "all passes agree" if len(digests) == 1 else f"passes disagree: {digests}"
    if reference is None:
        check = "no stored reference for this seed"
    else:
        check = "matches the stored reference" if consensus == reference else f"reference is {reference}"
    print(f"  digest {consensus} ({agree}; {check})")
    for name, m in per_layer.items():
        computed = "  (computed from array shapes, not measured)" if name.endswith(("flops_per_call", "bytes_per_call")) else ""
        print(f"  {name:<52} {m['unit']:<6} {m['value']:.6g}{computed}")
    if result["absent_layers"]:
        print(f"  absent layers: {', '.join(result['absent_layers'])}")
    print(f"  result file: {os.path.relpath(result_path, root)}")

    listed = declared["per_layer"] if args.trace else declared["end_to_end"]
    source = per_layer if args.trace else end_to_end
    metrics = {
        m["name"]: {"value": source[m["name"]]["value"], "unit": m["unit"]}
        for m in listed
        if m["name"] in source
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
