"""cliquecomm benchmark: closed-loop workloads over the library and the CLI.

Usage (from the repository root):

    python3 bench/run.py --workload paley-certify --seed 1 --seconds 40 --trace 0

Workloads: paley-certify, protocol-search, reconstruct-sim, cli-files
(see bench/README.md).  One client, one process, one operation at a time.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics setup_s, wall_norm and peak_rss_mb; with --trace 1 it holds
the per-layer metrics of a traced run instead.  `correct` is false, and
`failed` counts them, when any operation raised or failed its check.  The
full record (environment, every pass, failures) goes to
bench/out/<workload>-seed<seed>-trace<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paley-certify", "protocol-search", "reconstruct-sim", "cli-files")

# Set-up is timed this many times, each in a fresh process; the last of
# them goes on to run the workload.
SETUP_REPEATS = 5
# Every run, set-up included, must end well inside three minutes.
DEADLINE_S = 170.0
# One thread for BLAS and OpenMP: the workloads are one client doing one
# operation at a time, and a fixed count keeps runs comparable.
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env():
    env = dict(os.environ)
    env.update({var: THREADS for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Worker:
    """A worker process in its own session, so that it and every CLI child
    it starts can be killed together if the deadline passes."""

    def __init__(self, argv, env, deadline):
        self.proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                                     text=True, start_new_session=True)
        self.timer = threading.Timer(max(deadline - time.monotonic(), 0.0), self.kill)
        self.timer.daemon = True
        self.timer.start()
        self.killed = False

    def kill(self):
        self.killed = True
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def readline(self):
        return self.proc.stdout.readline()

    def finish(self):
        """Read the rest of stdout and reap; returns (lines, exit code)."""
        rest = self.proc.stdout.read().splitlines()
        self.proc.stdout.close()
        self.proc.wait()
        self.timer.cancel()
        return rest, self.proc.returncode


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description="cliquecomm benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "cliquecomm" / "__init__.py").is_file():
        fail(f"no cliquecomm sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    load_at_start = os.getloadavg()
    env = child_env()
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]

    # a terminated run stops its worker too, through the finally below
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    setups = []
    worker = None
    try:
        for i in range(SETUP_REPEATS):
            last = i == SETUP_REPEATS - 1
            start = time.perf_counter()
            worker = Worker(argv if last else argv + ["--setup-only"], env, deadline)
            ready = worker.readline()
            setups.append(time.perf_counter() - start)
            if not last or ready != "ready\n":
                _, code = worker.finish()
                if ready != "ready\n" or code != 0:
                    fail(f"set-up of {args.workload} failed (exit {code})")
        lines, code = worker.finish()
    finally:
        if worker is not None and worker.proc.returncode is None:
            worker.kill()
            worker.proc.wait()
            worker.timer.cancel()
    if worker.killed:
        fail(f"{args.workload} overran the {DEADLINE_S:.0f} s deadline")
    if code != 0 or not lines:
        fail(f"{args.workload} worker failed (exit {code})")
    run = json.loads(lines[-1])

    passes = len(run["walls"])
    attempted = run["attempted"]
    failed = len(run["failures"])
    # A workload that runs its commands in children of the worker (cli-files)
    # peaks in the largest of those children, each read by os.wait4.
    peak_rss_mb = run["child_peak_rss_mb"] or run["peak_rss_mb"]
    # The bounded pass time is wall_norm, not wall_s: on a shared host the
    # speed of a core drifts by more than the bound within minutes, and the
    # reference kernel timed during the pass drifts with it.
    end_to_end = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_norm": (statistics.median(w / r for w, r in zip(run["walls"], run["refs"])),
                      "ref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    wall_s = statistics.median(run["walls"])
    if args.trace:
        layer = {name: statistics.median(p[name] for p in run["layer_passes"])
                 for name in run["layer_passes"][0]}
        layer["trace.overhead_ratio"] = (statistics.median(run["traced_walls"])
                                         / statistics.median(run["walls"]))
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in layer.items()}
    else:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in end_to_end.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": passes, "ops_per_pass": run["ops_per_pass"],
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "failures": run["failures"][:50], "setups_s": setups, "walls_s": run["walls"],
        "refs_s": run["refs"],
        "traced_walls_s": run["traced_walls"], "metrics": metrics,
        "env": {**run["versions"], "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)),
                "loadavg_at_start": load_at_start,
                **{var: env[var] for var in THREAD_VARS + ("PYTHONHASHSEED",)}},
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    for name, (value, unit) in end_to_end.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} wall_s {wall_s:.6g} s (median pass time, not bounded)")
    print(f"{args.workload} reference {statistics.median(run['refs']) * 1000:.4g} ms"
          " (median over passes of the pass's median kernel time)")
    print(f"{args.workload} fail_ratio {failed}/{attempted} = {failed / attempted:.6g}"
          f" over {passes} pass(es) of {run['ops_per_pass']} operations")
    for line in run["failures"][:10]:
        print(f"{args.workload} FAILED {line}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    main()
