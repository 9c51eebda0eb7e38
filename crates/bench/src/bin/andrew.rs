//! Regenerates the §4.3 multiprogram (Andrew-style) benchmark: a series of
//! routine file-manipulation tasks — creation, copying, permission checks,
//! archival, compression, sorting, moving, deleting — performed by
//! general-purpose tools over a shared filesystem, run once with original
//! binaries and once with authenticated ones.
//!
//! The paper reports ≈12,000 system calls per iteration and a 0.96%
//! execution-time increase (259.66s → 262.14s).

use asc_bench::perf::{andrew_iteration, andrew_tools};
use asc_bench::sim_seconds;
use asc_kernel::{FileSystem, KernelOptions, Personality};
use asc_workloads::tools::setup_corpus;

const PERSONALITY: Personality = Personality::Linux;

/// Runs `iterations` iterations over one shared filesystem; returns
/// (cycles, syscalls).
fn measure(iterations: u32, authenticated: bool) -> (u64, u64) {
    let tools = andrew_tools(authenticated);
    let opts = if authenticated {
        KernelOptions::enforcing(PERSONALITY)
    } else {
        KernelOptions::plain(PERSONALITY)
    };
    let mut fs = FileSystem::new();
    setup_corpus(&mut fs);
    let mut total_cycles = 0;
    let mut total_syscalls = 0;
    for _ in 0..iterations {
        let (c, s, _, next_fs) = andrew_iteration(&tools, fs, &opts);
        total_cycles += c;
        total_syscalls += s;
        fs = next_fs;
    }
    (total_cycles, total_syscalls)
}

fn main() {
    asc_bench::cli::reject_args("andrew");
    let iterations = 5;
    let (orig_cycles, orig_calls) = measure(iterations, false);
    let (auth_cycles, auth_calls) = measure(iterations, true);
    let overhead = (auth_cycles as f64 - orig_cycles as f64) / orig_cycles as f64 * 100.0;
    println!("Andrew-style multiprogram benchmark ({iterations} iterations)");
    println!(
        "  original:      {:>10.4} sim-seconds  ({} syscalls/iter)",
        sim_seconds(orig_cycles),
        orig_calls / iterations as u64
    );
    println!(
        "  authenticated: {:>10.4} sim-seconds  ({} syscalls/iter)",
        sim_seconds(auth_cycles),
        auth_calls / iterations as u64
    );
    println!("  overhead:      {overhead:.2}%   (paper: 0.96%, ~12,000 syscalls/iter)");
}
