//! Regenerates Table 2: per-syscall comparison of the bison policies on
//! OpenBSD — which calls the static-analysis (ASC) policy permits versus
//! the trained Systrace policy (with fsread/fswrite aliases expanded).

use std::collections::BTreeSet;

use asc_bench::bench_key;
use asc_installer::{Installer, InstallerOptions};
use asc_kernel::{KernelOptions, Personality};
use asc_monitors::{trace_names, train};
use asc_workloads::{build, program, Guest};

/// The paper's Table 2 rows, for the comparison column.
fn paper_row(name: &str) -> Option<(&'static str, &'static str)> {
    Some(match name {
        "__syscall" => ("yes", "NO"),
        "close" => ("NO", "yes"),
        "fcntl" => ("yes", "NO"),
        "fstatfs" => ("yes", "NO"),
        "getdirentries" => ("yes", "NO"),
        "getpid" => ("yes", "NO"),
        "gettimeofday" => ("yes", "NO"),
        "kill" => ("yes", "NO"),
        "madvise" => ("yes", "NO"),
        "mkdir" => ("NO", "yes (fswrite)"),
        "mmap" => ("NO", "yes"),
        "nanosleep" => ("yes", "NO"),
        "readlink" => ("NO", "yes (fsread)"),
        "rmdir" => ("NO", "yes (fswrite)"),
        "sendto" => ("yes", "NO"),
        "sigaction" => ("yes", "NO"),
        "socket" => ("yes", "NO"),
        "sysconf" => ("yes", "NO"),
        "uname" => ("yes", "NO"),
        "unlink" => ("NO", "yes (fswrite)"),
        "writev" => ("yes", "NO"),
        _ => return None,
    })
}

fn main() {
    asc_bench::cli::reject_args("table2");
    let personality = Personality::OpenBsd;
    let spec = program("bison").expect("name appears in the asc_workloads program registry");
    let binary = build(spec, personality).expect("registered workload source compiles and links");

    // ASC policy via static analysis.
    let installer = Installer::new(bench_key(), InstallerOptions::new(personality));
    let (policy, _, warnings) = installer
        .generate_policy(&binary, "bison")
        .expect("installer lifts and analyzes the plain binary");
    let asc: BTreeSet<String> = policy
        .distinct_syscalls()
        .iter()
        .map(|&nr| personality.name_of(nr).to_string())
        .collect();

    // Systrace policy via training.
    let run = Guest::plain(binary).run(spec, KernelOptions::plain(personality));
    assert!(
        run.outcome.is_success(),
        "training run failed: {:?}",
        run.outcome
    );
    let systrace = train("bison", [trace_names(&run.kernel)]);
    let systrace_permitted = systrace.permitted();

    println!("Table 2: Comparison of policies for bison (OpenBSD)");
    println!(
        "{:<16} {:<6} {:<16} | paper: {:<6} Systrace",
        "System call", "ASC", "Systrace", "ASC"
    );
    let mut all: BTreeSet<String> = asc.union(&systrace_permitted).cloned().collect();
    // Also include rows the paper lists (e.g. mmap, which our ASC policy
    // sees as __syscall).
    for (name, _) in ["mmap", "close"]
        .iter()
        .map(|n| (n.to_string(), ()))
        .collect::<Vec<_>>()
    {
        all.insert(name);
    }
    let mut agree = 0;
    let mut total_diff = 0;
    for name in &all {
        let in_asc = asc.contains(name);
        let in_st = systrace_permitted.contains(name);
        if in_asc == in_st {
            agree += 1;
            continue; // the paper's table lists only the differences
        }
        total_diff += 1;
        let st_label = match systrace.permit_reason(name) {
            Some("trained") => "yes".to_string(),
            Some(alias) => format!("yes ({alias})"),
            None => "NO".to_string(),
        };
        let paper = paper_row(name)
            .map(|(a, s)| format!("{a:<6} {s}"))
            .unwrap_or_else(|| "(not listed)".to_string());
        println!(
            "{:<16} {:<6} {:<16} | {:<7} {}",
            name,
            if in_asc { "yes" } else { "NO" },
            st_label,
            "",
            paper
        );
    }
    println!();
    println!("{total_diff} differing syscalls, {agree} in agreement.");
    println!(
        "Disassembly warnings reported to the administrator: {}",
        warnings
            .iter()
            .filter(|w| w.contains("disassemble"))
            .count()
    );
}
