#!/usr/bin/env python3
"""The repo benchmark: the experiment matrix end to end, and each layer on its own.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload matrix-live|replay-fused \
        --seed N --seconds S --trace 0|1

Builds the program's own `make_tables` (the `bench` package) and the
`perfbench` layer profiler (perfbench/Cargo.toml) into $CARGO_TARGET_DIR
(default .bench_build). Runs the workload for about S seconds, checks every
output against the digests pinned in perfbench/digests.json, and prints one
JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones. Each
`make_tables` run gets a fresh process and a fresh working directory under
.perfbench_runs/, which is removed at exit. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("matrix-live", "replay-fused")
CELLS = 20
# make_tables prints this on stderr when set-up is done and the matrix starts.
READY = b"running the experiment matrix"
# Each matrix-live sweep is followed by this many set-up samples: make_tables
# started as for a sweep and stopped with SIGTERM once it is ready. Spreading
# them over the whole run, not bunching them at its end, lets their median
# ride out the host's second-to-second swings in process start-up time.
SETUPS_PER_SWEEP = 8
# replay-fused captures its trace cache this many times; setup_s is the median.
CAPTURES = 2
CHILD_TIMEOUT_S = 170
# The end-to-end times are scaled to a host on which `perfbench reference`
# takes this long. The host's speed wanders by a quarter or more over minutes
# and the program's times follow it; the reference follows it too, so the
# scaled times keep what the program itself changes. See perfbench/README.md.
REFERENCE_MS = 140.0


def build():
    """Build make_tables and the layer profiler; return both binaries."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    for args in (["-p", "bench", "--bin", "make_tables"],
                 ["--manifest-path", os.path.join(HERE, "Cargo.toml")]):
        if subprocess.run(cargo + args, env=env, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            raise SystemExit("perfbench: build failed")
    release = os.path.join(target, "release")
    return os.path.join(release, "make_tables"), os.path.join(release, "perfbench")


def wait(proc):
    """Reap `proc`; return its exit code and peak RSS in KiB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def make_tables(binary, cwd, *flags, stop_when_ready=False):
    """Run `make_tables table1 --size small` in `cwd`; time its set-up and sweep.

    With `stop_when_ready`, it is sent SIGTERM as soon as set-up is done,
    and only the set-up time is kept.
    """
    os.makedirs(cwd)
    cmd = [binary, "table1", "--size", "small", *flags]
    if not stop_when_ready:
        cmd += ["--metrics", "metrics.json"]
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        ready = None
        for line in proc.stderr:
            if line.startswith(READY):
                ready = time.perf_counter()
                break
        if stop_when_ready and ready is not None:
            proc.send_signal(signal.SIGTERM)
        rest = proc.stderr.read()
        code, rss_kb = wait(proc)
        exited = time.perf_counter()
    finally:
        killer.cancel()
        proc.stderr.close()
    expected = 130 if stop_when_ready else 0
    if ready is None or code != expected:
        sys.stderr.write(rest.decode(errors="replace"))
        raise SystemExit(f"perfbench: make_tables {' '.join(flags)} exited with {code}")
    out = {"setup_s": ready - spawned, "sweep_s": exited - ready, "peak_rss_kb": rss_kb}
    if not stop_when_ready:
        with open(os.path.join(cwd, "metrics.json")) as f:
            out["report"] = json.load(f)
    return out


def profiler(binary, *args):
    """Run one layer-profiler subcommand in a fresh process; return its JSON line."""
    out = subprocess.run([binary, *map(str, args)], cwd=ROOT, stdout=subprocess.PIPE,
                         timeout=CHILD_TIMEOUT_S)
    if out.returncode != 0:
        raise SystemExit(f"perfbench: `{args[0]}` exited with {out.returncode}")
    return json.loads(out.stdout.decode().strip().splitlines()[-1])


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def host_stamp(calib):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), model)
    except OSError:
        pass
    return {"cpu_model": model, "nproc": os.cpu_count(), "calib_ms": calib["calib_ms"],
            "pool_workers": calib["pool_workers"]}


class Tally:
    """Operations attempted and failed; the first failure is kept for the log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first = None

    def add(self, attempted, failed, why):
        self.attempted += attempted
        self.failed += failed
        if failed and self.first is None:
            self.first = why


def counter(out, name):
    return out["report"]["metrics"]["counters"].get(name, 0)


def checked_sweep(bins, run_dir, name, tally, pinned, *flags):
    """One sweep; checks its matrix.json and its retired count."""
    cwd = os.path.join(run_dir, name)
    out = make_tables(bins[0], cwd, *flags)
    digest = sha256(os.path.join(cwd, "results", "matrix.json"))
    # Each cell is either emulated or replayed from the trace cache.
    retired = counter(out, "instructions_retired") + counter(out, "trace_records_replayed")
    bad = []
    if digest != pinned["matrix_sha256"]:
        bad.append(f"matrix.json sha256 {digest} != pinned {pinned['matrix_sha256']}")
    if retired != pinned["retired"]:
        bad.append(f"retired {retired} != pinned {pinned['retired']}")
    # A wrong matrix fails every cell in it.
    tally.add(CELLS, CELLS if bad else 0, "; ".join(bad))
    return out


def sweeps_for(seconds, run):
    """Run sweeps for `seconds` (at least one).

    A sweep is started only if a typical one, the median so far, still ends
    within `seconds`, so a run does not overrun its time by most of a sweep.
    """
    outs, took, start = [], [], time.monotonic()
    while not outs or time.monotonic() - start + statistics.median(took) <= seconds:
        began = time.monotonic()
        outs.append(run(len(outs)))
        took.append(time.monotonic() - began)
    return outs


def reference(bins, refs):
    """Time the fixed reference workload once; keep its wall time in ms."""
    refs.append(profiler(bins[1], "reference")["reference_ms"])


def end_to_end(outs, setups, refs):
    """Median set-up and sweep times, scaled to the reference host speed."""
    setup_s = statistics.median(setups)
    sweep_s = statistics.median(o["sweep_s"] for o in outs)
    scale = REFERENCE_MS / statistics.median(refs)
    detail = {"sweep_s": [o["sweep_s"] for o in outs], "setups": len(setups),
              "reference_ms": refs, "unscaled": {"setup_s": setup_s, "sweep_s": sweep_s}}
    metrics = {
        "setup_s": setup_s * scale,
        "sweep_s": sweep_s * scale,
        "peak_rss_mb": statistics.median(o["peak_rss_kb"] for o in outs) / 1024,
    }
    return metrics, detail


def traced(bins, run_dir, out, workers, *flags):
    """The layer profile after one checked sweep `out`."""
    spans = out["report"]["spans"]
    cell_us = sum(s["dur_us"] for s in spans if s["name"].startswith("cell:"))
    matrix_us = next(s["dur_us"] for s in spans if s["name"] == "matrix")
    start = time.monotonic()
    layers = profiler(bins[1], "layers", "--dir", run_dir, *flags)
    layers["core.pool_busy_frac"] = cell_us / (workers * matrix_us)
    layers["bench.trace_overhead_s"] = time.monotonic() - start
    return layers, {"traced_sweep_s": out["sweep_s"]}


def run_matrix_live(bins, run_dir, args, pinned, tally, workers):
    if args.trace:
        out = checked_sweep(bins, run_dir, "sweep", tally, pinned)
        matrix = os.path.join(run_dir, "sweep", "results", "matrix.json")
        return traced(bins, run_dir, out, workers, "--matrix", matrix, "--serve", "matrix")
    setups, refs = [], []

    def sweep_then_setups(i):
        reference(bins, refs)
        out = checked_sweep(bins, run_dir, f"sweep-{i}", tally, pinned)
        setups.append(out["setup_s"])
        for k in range(SETUPS_PER_SWEEP):
            cwd = os.path.join(run_dir, f"setup-{i}-{k}")
            setups.append(make_tables(bins[0], cwd, stop_when_ready=True)["setup_s"])
        return out

    outs = sweeps_for(args.seconds, sweep_then_setups)
    reference(bins, refs)
    return end_to_end(outs, setups, refs)


def run_replay_fused(bins, run_dir, args, pinned, tally, workers):
    # Set-up: capture the trace cache from scratch, CAPTURES times.
    captures, refs = [], []
    traces = os.path.join(run_dir, "traces")
    flags = ("--fusion", "--trace-dir", traces)
    for k in range(1 if args.trace else CAPTURES):
        if not args.trace:
            reference(bins, refs)
        shutil.rmtree(traces, ignore_errors=True)
        out = checked_sweep(bins, run_dir, f"capture-{k}", tally, pinned, *flags)
        captures.append(out["setup_s"] + out["sweep_s"])
    if args.trace:
        out = checked_sweep(bins, run_dir, "replay", tally, pinned, *flags)
        matrix = os.path.join(run_dir, "replay", "results", "matrix.json")
        return traced(bins, run_dir, out, workers, "--matrix", matrix, "--replay-dir", traces,
                      "--serve", "fusion")

    def replay(i):
        reference(bins, refs)
        return checked_sweep(bins, run_dir, f"replay-{i}", tally, pinned, *flags)

    outs = sweeps_for(args.seconds, replay)
    reference(bins, refs)
    emulated = sum(1 for o in outs if counter(o, "instructions_retired") != 0)
    if emulated:
        tally.add(0, CELLS * emulated, f"{emulated} timed sweep(s) emulated instead of replaying the trace cache")
    return end_to_end(outs, captures, refs)


RUNNERS = {"matrix-live": run_matrix_live, "replay-fused": run_replay_fused}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(HERE, "digests.json")) as f:
        pinned = json.load(f)[args.workload]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    bins = build()
    run_dir = os.path.join(ROOT, ".perfbench_runs", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    tally = Tally()
    try:
        host = host_stamp(profiler(bins[1], "calibrate"))
        values, detail = RUNNERS[args.workload](bins, run_dir, args, pinned, tally, host["pool_workers"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))
        except OSError:
            pass  # another run is still using it

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    correct = tally.failed == 0 and tally.attempted > 0
    print("# host " + json.dumps(host))
    print("# detail " + json.dumps(dict(detail, workload=args.workload, seed=args.seed, trace=args.trace,
                                        first_failure=tally.first)))
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
