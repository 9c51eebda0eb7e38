//! Regenerates Table 4: per-system-call cost of authentication.
//!
//! Methodology mirrors the paper: each system call executes in a tight
//! loop (the paper used 10,000 iterations and `rdtsc`; the simulator's
//! cycle counter is exact, so 1,000 iterations suffice), the loop overhead
//! is measured separately and subtracted, and the experiment runs once
//! with the unmodified binary and once with the installed binary. As in
//! the paper, the authenticated binaries here are built *without* control
//! flow policies.

use asc_bench::bench_key;
use asc_installer::{Installer, InstallerOptions};
use asc_kernel::{FileSystem, KernelOptions, Personality};
use asc_workloads::Guest;

const N: u32 = 1000;

struct Case {
    name: &'static str,
    /// Paper Table 4 original / authenticated cycles for comparison.
    paper: (u64, u64),
    /// Assembly for one loop body iteration (argument setup + call).
    body: &'static str,
    /// One-time setup before the loop.
    setup: &'static str,
    /// Extra data/bss sections.
    data: &'static str,
}

const CASES: &[Case] = &[
    Case {
        name: "getpid()",
        paper: (1141, 5045),
        setup: "",
        body: "
            movi r0, 20
            syscall
        ",
        data: "",
    },
    Case {
        name: "gettimeofday()",
        paper: (1395, 5703),
        setup: "",
        body: "
            movi r1, tvbuf
            movi r2, 0
            movi r0, 78
            syscall
        ",
        data: "
            .bss
        tvbuf: .space 16
        ",
    },
    Case {
        name: "read(4096)",
        paper: (7324, 10013),
        setup: "
            movi r0, 5          ; open(\"/bigfile\", O_RDONLY)
            movi r1, bigpath
            movi r2, 0
            movi r3, 0
            syscall
            mov r6, r0
        ",
        body: "
            mov r1, r6
            movi r2, iobuf
            movi r3, 4096
            movi r0, 3
            syscall
        ",
        data: "
            .rodata
        bigpath: .asciz \"/bigfile\"
            .bss
        iobuf: .space 4096
        ",
    },
    Case {
        name: "write(4096)",
        paper: (39479, 40396),
        setup: "
            movi r0, 5          ; open(\"/out\", O_WRONLY|O_CREAT|O_TRUNC)
            movi r1, outpath
            movi r2, 0x241
            movi r3, 0x1b6
            syscall
            mov r6, r0
        ",
        body: "
            mov r1, r6
            movi r2, iobuf
            movi r3, 4096
            movi r0, 4
            syscall
        ",
        data: "
            .rodata
        outpath: .asciz \"/out\"
            .bss
        iobuf: .space 4096
        ",
    },
    Case {
        name: "brk()",
        paper: (1155, 5083),
        setup: "
            movi r0, 45
            movi r1, 0
            syscall
            mov r6, r0          ; current break
        ",
        body: "
            mov r1, r6
            movi r0, 45
            syscall
        ",
        data: "",
    },
];

fn program(case: &Case, empty_loop: bool) -> String {
    let body = if empty_loop { "" } else { case.body };
    format!(
        "
            .text
            .entry main
        main:
        {setup}
            movi r4, 0
        loop:
        {body}
            addi r4, r4, 1
            movi r5, {N}
            bne r4, r5, loop
            movi r1, 0
            movi r0, 1
            syscall
        {data}
        ",
        setup = case.setup,
        data = case.data,
    )
}

fn fixture_fs() -> FileSystem {
    let mut fs = FileSystem::new();
    fs.write_file("/bigfile", vec![0x41; (N as usize + 1) * 4096])
        .expect("fixture file writes into the fresh in-memory filesystem");
    fs
}

/// Runs a program and returns total cycles plus the kernel's statistics.
/// `cache` additionally enables the verified-call cache (warm fast path).
fn run_measured(src: &str, authenticated: bool, cache: bool) -> (u64, asc_kernel::KernelStats) {
    let binary = asc_asm::assemble(src).expect("micro-benchmark source assembles");
    let (guest, opts) = if authenticated {
        let installer = Installer::new(
            bench_key(),
            // Per the paper: microbenchmarks measure authenticated calls
            // WITHOUT control flow policies.
            InstallerOptions::new(Personality::Linux).without_control_flow(),
        );
        let (auth, _) = installer
            .install(&binary, "micro")
            .expect("installer authenticates the plain binary");
        let opts = KernelOptions {
            verify_cache: cache,
            ..KernelOptions::enforcing(Personality::Linux)
        };
        (Guest::installed(auth, &bench_key()), opts)
    } else {
        (
            Guest::plain(binary),
            KernelOptions::plain(Personality::Linux),
        )
    };
    let mut machine = guest
        .boot(opts, fixture_fs(), &[])
        .expect("authenticated binary fits in guest memory");
    let outcome = machine.run(10_000_000_000);
    assert!(
        outcome.is_success(),
        "micro case failed: {outcome:?} alerts={:?}",
        machine.handler().alerts()
    );
    let cycles = machine.cycles();
    (cycles, *machine.into_handler().stats())
}

fn run_cycles(src: &str, authenticated: bool) -> u64 {
    run_measured(src, authenticated, false).0
}

fn main() {
    asc_bench::cli::reject_args("table4");
    println!("Table 4: Effect of authentication (cycles per call, {N} iterations)");
    println!("Auth(warm) = same loop with the verified-call cache enabled.");
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>9} | paper: {:>8} {:>8} {:>8}",
        "System Call", "Original", "Authent.", "Auth(warm)", "Ovhd%", "orig", "auth", "ovhd%"
    );
    let mut warm_stats_sum = (0u64, 0u64); // (cold cycles/call, warm cycles/call) maxima
    for case in CASES {
        // Loop overhead: the same loop with an empty body.
        let loop_only = run_cycles(&program(case, true), false);
        let orig = run_cycles(&program(case, false), false);
        let auth = run_cycles(&program(case, false), true);
        let (warm, warm_stats) = run_measured(&program(case, false), true, true);
        // The final exit syscall appears in all variants; the subtraction
        // removes it along with the loop scaffold.
        let per_orig = (orig - loop_only) / N as u64;
        let per_auth = (auth.saturating_sub(loop_only)) / N as u64;
        let per_warm = (warm.saturating_sub(loop_only)) / N as u64;
        let ovhd = (per_auth as f64 - per_orig as f64) / per_orig as f64 * 100.0;
        let paper_ovhd = (case.paper.1 as f64 - case.paper.0 as f64) / case.paper.0 as f64 * 100.0;
        println!(
            "{:<16} {:>10} {:>10} {:>10} {:>9.1} | {:>14} {:>8} {:>8.1}",
            case.name, per_orig, per_auth, per_warm, ovhd, case.paper.0, case.paper.1, paper_ovhd
        );
        warm_stats_sum.0 = warm_stats_sum
            .0
            .max(warm_stats.cold_verify_cycles_per_call());
        warm_stats_sum.1 = warm_stats_sum
            .1
            .max(warm_stats.warm_verify_cycles_per_call());
    }
    // The measurement-overhead rows of the paper's table.
    let loop_cost = run_cycles(&program(&CASES[0], true), false) / N as u64;
    println!("{:<16} {:>10}", "loop cost", loop_cost);
    println!(
        "verify cycles/call: cold <= {}, warm <= {} (measured AES blocks; cache hits skip \
         the CMAC recomputation)",
        warm_stats_sum.0, warm_stats_sum.1
    );
}
