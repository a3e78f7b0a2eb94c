"""gpnorm benchmark: one workload, one seed, one result line.

Usage (from the root of a checkout; standard library only, nothing to
install):

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Workloads: ``certify``, ``arith_long``, ``norm_interval`` (see
``perfbench/README.md``).  The inputs are generated here from ``--seed`` and
handed to a fresh worker process that imports ``gpnorm`` from ``src/``.

With ``--trace 0`` the run reports the end-to-end metrics: set-up time as
the median over several fresh interpreters, then throughput, latency, the
failure share and peak memory of one closed-loop run of ``--seconds``.
Times are scaled to a reference CPU speed (see ``speed.py``).
With ``--trace 1`` it reports per-layer metrics from a fixed request list
run under the span tracer.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench_work"
GENERATORS = {"certify": inputs.certify_inputs, "arith_long": inputs.arith_inputs,
              "norm_interval": inputs.norm_inputs}
# Fresh interpreters timed for setup_s before and again after the measured
# run (which adds one more), so that the median spans the whole run.
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150
UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
         "failed_ratio": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def write_inputs(workload: str, seed: int, workdir: Path) -> None:
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    data = GENERATORS[workload](seed)
    (workdir / "inputs.json").write_text(json.dumps(data))
    if workload == "certify":
        for k, item in enumerate(data["pool"]):
            (workdir / f"p{k:03d}.json").write_text(json.dumps(item["presentation"]))


def run_worker(workload: str, workdir: Path, mode: str, seconds: float):
    """Run a worker to the end; return its stdout lines after the
    ``ready`` and ``kernel_ms`` lines, and the time from spawn to ``ready``
    (both ends read the same system-wide monotonic clock) scaled to the
    reference speed by the kernel time the worker measured right after."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--dir", str(workdir), "--mode", mode, "--seconds", str(seconds)]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{mode} worker timed out") from None
    lines = out.splitlines()
    if (proc.returncode != 0 or len(lines) < 2 or not lines[0].startswith("ready ")
            or not lines[1].startswith("kernel_ms ")):
        raise BenchError(f"{mode} worker failed with exit code {proc.returncode}")
    raw = float(lines[0].split()[1]) - t0
    return lines[2:], raw * speed.REFERENCE_MS / float(lines[1].split()[1])


def end_to_end(workload: str, workdir: Path, seconds: float):
    setups = [run_worker(workload, workdir, "setup", 0)[1] for _ in range(SETUP_PROBES)]
    lines, ready = run_worker(workload, workdir, "run", seconds)
    setups.append(ready)
    setups += [run_worker(workload, workdir, "setup", 0)[1] for _ in range(SETUP_PROBES)]
    r = json.loads(lines[-1])
    correct = r["attempted"] - r["failed"]
    metrics = {
        "ops_per_s": correct / r["wall_s"],
        "op_p50_ms": r["op_p50_ms"],
        "op_p90_ms": r["op_p90_ms"],
        # Share of the distinct requests (pool items) that failed, plus one
        # pseudo-failure: never 0, independent of how many times the loop
        # went round the pool, and doubled by a single failing request.
        "failed_ratio": (r["failed_items"] + 1) / (r["items"] + 1),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": r["peak_rss_mb"],
    }
    print(f"# {workload}: {r['attempted']} requests, {r['failed']} failed, "
          f"{r['above_p90']} latencies above p90; {r['raw_wall_s']:.2f} s of wall time, "
          f"{r['wall_s']:.2f} s at the reference speed ({r['attempted'] / r['raw_wall_s']:.4g} "
          f"requests/s unscaled); setup_s is the median of {len(setups)} fresh interpreters")
    return r, {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}


def per_layer(workload: str, workdir: Path):
    lines, _ = run_worker(workload, workdir, "trace", 0)
    r = json.loads(lines[-1])
    print(f"# {workload}: {r['attempted'] // 2} listed requests, untraced "
          f"{r['wall_s']:.2f} s, traced {r['traced_wall_s']:.2f} s, {r['spans']} spans "
          f"written to {workdir / 'spans.bin'}")
    print(f"# bindings wrapped per function: {json.dumps(r['bindings'])}")
    if "tampered" in r:
        print(f"# tampered: {r['tampered']}")

    def unit(name):
        return ("ms" if name.endswith("_ms") else "ratio" if name.endswith("_ratio")
                else "count")

    return r, {k: {"value": v, "unit": unit(k)} for k, v in r["metrics"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "gpnorm" / "cli.py").is_file():
        print(f"perfbench: no gpnorm sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    workdir = WORK / args.workload
    try:
        write_inputs(args.workload, args.seed, workdir)
        if args.trace:
            r, metrics = per_layer(args.workload, workdir)
        else:
            r, metrics = end_to_end(args.workload, workdir, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": r["failed"] == 0, "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
