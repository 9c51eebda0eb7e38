#!/usr/bin/env python3
"""Alternating parent/change pairs of the host-clock benchmark.

    python3 scripts/ab_pairs.py --parent <rev> --change <rev|worktree>
                                --workload <w> [--workload <w> ...]
                                [--pairs 10] [--seconds 35] [--trace 0]
                                [--metric NAME]

Run from inside the repository. Exports each side into its own fresh
directory under a new temporary directory, removed at the end (`git
archive` of the revision, or the tracked and untracked files of the
working tree for `worktree`), builds `hostbench` there with
its own CARGO_TARGET_DIR and runs `hostbench/run.py` there, as in a
fresh checkout of each commit: the build directory feeds the crate
metadata hashes, and with them where the interpreter loop lands. Both
sides build with `-C llvm-args=-align-all-functions=6` added to any
RUSTFLAGS already set, so every function, the interpreter loop
included, starts on a 64-byte boundary whatever the directory.

The pairs run seeds 21, 22, ... and the last one the held-out seed
424242 (so 10 pairs run 21-29 and 424242). The parent runs first in the
first pair, the change in the second, and so on.

Before the pairs it prints the size of each build's `Machine<H>::run`
and the byte offset at which it starts in its 64-byte cache line, and
whether the build left `Machine<H>::step` out of line. For
each workload it prints every pair, then each metric's median and
quartiles on both sides, the ratio and the pairs the change won, and
the verdict of the rule a claimed gain must meet on the compared metric:
at least 9 of 10 pairs won, and medians further apart than the
parent's quartile spread. The compared metric is the one each workload
isolates unless --metric names another: an end-to-end metric of
BENCHMARK.json untraced, a per-layer one traced (--trace 1). Traced runs (--trace 1) also compare the five
work counters CI pins; untraced runs mark whether both sides read the
same `vc_overhead_pct` bit for bit (`vc identical` or `vc DIFFER`) and
count the identical pairs under each workload's summary. Exits nonzero
if any run is not `correct` or has failed operations.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from statistics import median, quantiles

FIRST_SEED = 21
HELD_OUT_SEED = 424242
WORKLOADS = ("spec-cpu", "syscall-cold", "fleet-warm")
# The metric each workload isolates, untraced and traced (the default verdict).
METRIC = {
    (0, "spec-cpu"): "guest_mips",
    (0, "syscall-cold"): "verified_per_s",
    (0, "fleet-warm"): "guest_mips",
    (1, "spec-cpu"): "vm.ns_per_instr",
    (1, "syscall-cold"): "verify.added_ns_per_call",
    (1, "fleet-warm"): "vm.ns_per_instr",
}
WORK_COUNTERS = ("kernel.traps", "verify.verified", "crypto.aes_blocks",
                 "cache.evictions", "verify.vc_per_call")
# The virtual-clock metric, exact on both sides unless the change moves it.
VC_METRIC = "vc_overhead_pct"
# Placement out of the pair: 2^6-byte alignment for every function.
ALIGN_FUNCTIONS = "-C llvm-args=-align-all-functions=6"


def log(msg=""):
    print(msg, flush=True)


def git(*args, **kw):
    return subprocess.run(["git", *args], check=True, stdout=subprocess.PIPE, **kw).stdout


def export(rev, dest):
    """Writes `rev`, or the working tree for `worktree`, into `dest`."""
    os.makedirs(dest)
    if rev == "worktree":
        files = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
        for name in files.decode().split("\0"):
            if name and os.path.isfile(name):
                os.makedirs(os.path.join(dest, os.path.dirname(name)), exist_ok=True)
                shutil.copy2(name, os.path.join(dest, name))
        return "worktree"
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    archive = subprocess.Popen(["git", "archive", commit], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit(f"ab_pairs: git archive {rev} failed")
    return commit[:12]


def env_for(side_dir):
    """The build and run environment of one side: its own target
    directory, and every function aligned to its 64-byte cache line."""
    rustflags = " ".join(f for f in (os.environ.get("RUSTFLAGS"), ALIGN_FUNCTIONS) if f)
    return dict(os.environ, CARGO_TARGET_DIR=os.path.join(side_dir, "target"),
                RUSTFLAGS=rustflags)


def build(side_dir):
    """Builds the side's hostbench and returns the binary's path."""
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "hostbench/Cargo.toml"],
        cwd=side_dir, env=env_for(side_dir), check=True,
    )
    return os.path.join(side_dir, "target", "release", "hostbench")


def run_placements(exe):
    """Address, size and cache-line offset of each `Machine<H>::run`, and
    whether `Machine<H>::step` was left out of line (it is meant to be
    inlined into the loops that call it once per instruction)."""
    try:
        out = subprocess.run(["nm", "-C", "-S", exe], check=True,
                             stdout=subprocess.PIPE, text=True).stdout
    except (OSError, subprocess.CalledProcessError) as e:
        return f"nm failed: {e}"
    found, steps = [], []
    for line in out.splitlines():
        parts = line.split(maxsplit=3)
        if len(parts) == 4 and parts[3].endswith("Machine<H>::run"):
            addr, size = int(parts[0], 16), int(parts[1], 16)
            found.append(f"{parts[3]} at {addr:#x}, {size} bytes, offset {addr % 64}")
        if len(parts) == 4 and parts[3].endswith("Machine<H>::step"):
            steps.append(f"{parts[3]} ({int(parts[1], 16)} bytes)")
    found = found or ["no Machine<H>::run symbol"]
    found.append(f"OUT-OF-LINE {', '.join(steps)}" if steps
                 else "no out-of-line Machine<H>::step")
    return "; ".join(found)


def run_once(side_dir, workload, seed, seconds, trace):
    """One `hostbench/run.py` run; returns its JSON result."""
    proc = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=side_dir, env=env_for(side_dir), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit(f"ab_pairs: {workload} seed {seed} in {side_dir} failed ({proc.returncode})")
    return json.loads(lines[-1])


def ratio(change, parent):
    """change / parent to four places, or '-' when the parent reads 0
    (the trap metrics on `fleet-warm`, say)."""
    return f"{change / parent:.4f}" if parent else "-"


def spread(values):
    """Median and quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return median(values), q1, q3


def directions(side_dir, trace=None):
    """Whether a larger value is better, per metric, from BENCHMARK.json;
    only the metrics a run at `trace` reports, if given."""
    with open(os.path.join(side_dir, "BENCHMARK.json")) as f:
        bench = json.load(f)
    kinds = {None: ("end_to_end", "per_layer"), 0: ("end_to_end",), 1: ("per_layer",)}
    return {m["name"]: m["better"] == "higher"
            for kind in kinds[trace] for m in bench[kind]}


def compare(workload, metric, pairs, higher):
    """Prints each metric's medians, quartiles and pairs won, then the
    verdict on `metric`."""
    log(f"{workload}: median [quartiles] per side, change / parent, pairs the change won")
    for name, unit in ((n, m["unit"]) for n, m in pairs[0][1]["metrics"].items()):
        parent = [p["metrics"][name]["value"] for _, p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, _, c in pairs]
        won = sum((c > p) if higher[name] else (c < p) for p, c in zip(parent, change))
        (pm, pq1, pq3), (cm, cq1, cq3) = spread(parent), spread(change)
        log(f"  {name:<26} {pm:.6g} [{pq1:.6g}, {pq3:.6g}]  ->  {cm:.6g} [{cq1:.6g}, "
            f"{cq3:.6g}] {unit}  {ratio(cm, pm)}  {won}/{len(pairs)}")
        if name == metric:
            verdict = (won, pm, cm, pq3 - pq1)
    won, pm, cm, iqr = verdict
    if len(pairs) < 10:
        rule = "too few pairs for the 9-of-10 rule"
    elif won >= 0.9 * len(pairs) and abs(cm - pm) > iqr:
        rule = "9-of-10 rule met"
    else:
        rule = "9-of-10 rule not met"
    log(f"  {metric} ({'higher' if higher[metric] else 'lower'} is better): change won "
        f"{won}/{len(pairs)} pairs, median ratio {ratio(cm, pm)}, medians differ by "
        f"{abs(cm - pm):.6g} against the parent's quartile spread {iqr:.6g}: {rule}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision")
    parser.add_argument("--change", required=True, help="git revision or 'worktree'")
    parser.add_argument("--workload", required=True, action="append", choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--metric", help="the verdict metric, a name in BENCHMARK.json")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    # On SIGTERM, unwind through subprocess.run, which kills the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("ab_pairs: terminated"))

    os.chdir(git("rev-parse", "--show-toplevel").decode().strip())
    if args.metric is not None and args.metric not in directions(".", args.trace):
        parser.error(f"--metric {args.metric} is not among the metrics BENCHMARK.json "
                     f"reports at --trace {args.trace}: "
                     + ", ".join(sorted(directions(".", args.trace))))
    workdir = tempfile.mkdtemp(prefix="ab_pairs-")
    try:
        sides = {}
        for side in ("parent", "change"):
            side_dir = os.path.join(workdir, side)
            name = export(getattr(args, side), side_dir)
            log(f"{side}: {name} in {side_dir}")
            exe = build(side_dir)
            log(f"  {run_placements(exe)}")
            sides[side] = side_dir
        higher = directions(sides["change"])
        seeds = [FIRST_SEED + i for i in range(args.pairs - 1)] + [HELD_OUT_SEED]
        bad = 0
        for workload in args.workload:
            metric = args.metric or METRIC[(args.trace, workload)]
            log(f"\n{workload}: {args.pairs} pairs, {args.seconds:g} s per run, "
                f"trace {args.trace}")
            pairs = []
            vc_identical = 0
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                result = {}
                for side in order:
                    result[side] = run_once(sides[side], workload, seed,
                                            args.seconds, args.trace)
                    if not result[side]["correct"] or result[side]["failed"]:
                        bad += 1
                        log(f"  NOT CORRECT: {side} seed {seed}: {result[side]}")
                p = result["parent"]["metrics"][metric]["value"]
                c = result["change"]["metrics"][metric]["value"]
                if args.trace:
                    same = all(result["parent"]["metrics"][k] == result["change"]["metrics"][k]
                               for k in WORK_COUNTERS)
                    mark = "  work counters " + ("match" if same else "DIFFER")
                else:
                    parent_vc, change_vc = (float(result[side]["metrics"][VC_METRIC]["value"])
                                            for side in ("parent", "change"))
                    same = parent_vc.hex() == change_vc.hex()
                    vc_identical += same
                    mark = "  vc " + ("identical" if same else "DIFFER")
                log(f"  pair {i + 1:>2} seed {seed:<6} parent {p:<12.6g} change {c:<12.6g} "
                    f"ratio {ratio(c, p)}  ({order[0]} first){mark}")
                pairs.append((seed, result["parent"], result["change"]))
            compare(workload, metric, pairs, higher)
            if not args.trace:
                log(f"  {VC_METRIC} identical bit for bit in {vc_identical}/{len(pairs)} pairs")
        if bad:
            sys.exit(f"ab_pairs: {bad} runs not correct or with failed operations")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
