#!/usr/bin/env python3
"""Host-clock benchmark of the ASC reproduction.

    python3 hostbench/run.py --workload <spec-cpu|syscall-cold|fleet-warm>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `hostbench` package (release),
then starts repetitions of the workload, each in a fresh process, until
`--seconds` have passed (at least MIN_REPS of them). Every repetition sets
up, runs the workload's guest processes to exit, and checks each against
its unauthenticated reference run.

With `--trace 0` the result carries the end-to-end metrics: times are
summed from the fastest observation of each fixed segment of work (see
`best_total_s`), memory is a median. With `--trace 1` untraced and
traced repetitions alternate: the result carries the per-layer metrics,
medians over the traced repetitions, and `bench.trace_overhead_pct`
compares the two kinds. A human-readable table goes to stderr; the last line of stdout is
one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`. See README.md for what each workload and metric is for.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("spec-cpu", "syscall-cold", "fleet-warm")
MIN_REPS = 3
REP_TIMEOUT_S = 150

END_TO_END = [
    ("setup_s", "s"),
    ("guest_mips", "Minstr/s"),
    ("verified_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("vc_overhead_pct", "%"),
]

PER_LAYER = [
    ("vm.ns_per_instr", "ns"),
    ("vm.load_us_p50", "us"),
    ("vm.load_us_p99", "us"),
    ("kernel.traps", "count"),
    ("kernel.trap_ns_p50", "ns"),
    ("kernel.trap_ns_p99", "ns"),
    ("kernel.trap_share", "ratio"),
    ("verify.verified", "count"),
    ("verify.added_ns_per_call", "ns"),
    ("verify.vc_per_call", "cycles"),
    ("crypto.aes_blocks", "count"),
    ("crypto.blocks_per_verified", "blocks"),
    ("crypto.ns_per_block", "ns"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.stale_misses", "count"),
    ("cache.scrubs", "count"),
    ("cache.probes_per_verified", "ratio"),
    ("sched.slices", "count"),
    ("sched.slice_us_p50", "us"),
    ("sched.slice_us_p99", "us"),
    ("sched.batch_fill", "calls"),
    ("installer.install_ms", "ms"),
    ("installer.sites", "count"),
    ("installer.rewrite_rate", "ratio"),
    ("build.ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds the benchmark binary and returns its path."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--message-format=json-render-diagnostics",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"hostbench: build failed ({proc.returncode})")
    for line in proc.stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg.get("executable") \
                and msg["target"]["name"] == "hostbench":
            return msg["executable"]
    sys.exit("hostbench: cargo reported no hostbench executable")


def repetition(exe, workload, seed, trace):
    """Runs one repetition in a fresh process and returns its JSON object."""
    try:
        proc = subprocess.run(
            [exe, workload, str(seed), str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"hostbench: {workload} repetition timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"hostbench: {workload} repetition failed ({proc.returncode})")
    return json.loads(lines[-1])


def best_total_s(reps, key):
    """Sum over segments of each segment's fastest time across `reps`.

    A segment (one program's set-up, one solo job, or a fixed run of
    scheduler steps) does identical work in every repetition of a run, and
    the shared host's interference only ever slows it down, so its fastest
    time is the best estimate of the code's own cost.
    """
    columns = list(zip(*(r[key] for r in reps)))
    if len(columns) != len(reps[0][key]):
        sys.exit(f"hostbench: repetitions disagree on the number of {key}")
    return sum(min(c) for c in columns) / 1e9


def end_to_end(reps):
    first = reps[0]
    phase_s = best_total_s(reps, "phase_segments_ns")
    return {
        "setup_s": best_total_s(reps, "setup_segments_ns"),
        "guest_mips": first["instret"] / phase_s / 1e6,
        "verified_per_s": first["verified"] / phase_s,
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
        # Virtual clock: identical in every repetition (the fingerprint
        # check in main enforces it).
        "vc_overhead_pct": (first["enf_cycles"] - first["ref_cycles"])
        / first["ref_cycles"] * 100.0,
    }


def per_layer(untraced, traced):
    metrics = {
        name: median(r["layers"][name] for r in traced)
        for name, _ in PER_LAYER if name != "bench.trace_overhead_pct"
    }
    plain = best_total_s(untraced, "phase_segments_ns")
    metrics["bench.trace_overhead_pct"] = \
        (best_total_s(traced, "phase_segments_ns") - plain) / plain * 100.0
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running repetition.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("hostbench: terminated"))

    exe = build()
    reps = []
    start = time.monotonic()
    # Traced runs alternate untraced and traced repetitions, so both kinds
    # see the same machine conditions.
    kinds = (0, 1) if args.trace else (0,)
    while len(reps) < MIN_REPS * len(kinds) or time.monotonic() - start < args.seconds:
        trace = kinds[len(reps) % len(kinds)]
        reps.append(repetition(exe, args.workload, args.seed, trace))

    untraced = [r for r in reps if r["trace"] == 0]
    traced = [r for r in reps if r["trace"] == 1]
    attempted = sum(r["jobs"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    # Same seed, same work: every repetition, traced or not, must build the
    # same binaries and count the same cycles, calls, AES blocks and cache
    # events. A difference means tracing or set-up changed the work.
    deterministic = len({r["fingerprint"] for r in reps}) == 1
    if not deterministic:
        log("hostbench: repetitions disagree on work counters or binaries")

    if args.trace:
        values, units = per_layer(untraced, traced), PER_LAYER
    else:
        values, units = end_to_end(untraced), END_TO_END
    log(f"{args.workload} seed {args.seed}: {len(reps)} repetitions, "
        f"{attempted} guest processes, error_rate {failed / attempted:g}")
    for name, unit in units:
        log(f"  {name:<28} {values[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": deterministic and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }))


if __name__ == "__main__":
    main()
