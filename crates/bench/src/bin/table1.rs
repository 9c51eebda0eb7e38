//! Regenerates Table 1: number of distinct system calls permitted in ASC
//! policies (generated by static analysis on both personalities) versus
//! Systrace policies (generated by training plus the conventional
//! fsread/fswrite hand edit).

use asc_bench::bench_key;
use asc_installer::{Installer, InstallerOptions};
use asc_kernel::{KernelOptions, Personality};
use asc_monitors::{trace_names, train};
use asc_workloads::{build, program, Guest};

const PROGRAMS: &[(&str, (usize, usize, usize))] = &[
    // (name, (paper ASC Linux, paper ASC OpenBSD, paper Systrace OpenBSD))
    ("bison", (31, 31, 24)),
    ("calc", (54, 51, 24)),
    ("screen", (67, 63, 55)),
];

fn asc_policy_count(name: &str, personality: Personality) -> usize {
    let spec = program(name).expect("name appears in the asc_workloads program registry");
    let binary = build(spec, personality).unwrap_or_else(|e| panic!("{name}: {e}"));
    let installer = Installer::new(bench_key(), InstallerOptions::new(personality));
    let (policy, _, _) = installer
        .generate_policy(&binary, name)
        .expect("installer lifts and analyzes the plain binary");
    policy.distinct_syscalls().len()
}

fn systrace_policy_count(name: &str, personality: Personality) -> usize {
    let spec = program(name).expect("name appears in the asc_workloads program registry");
    let binary = build(spec, personality).unwrap_or_else(|e| panic!("{name}: {e}"));
    // Training: observe the canonical run (the published policies came
    // from repeated ordinary runs; our workloads are deterministic, so one
    // run sees everything training would).
    let run = Guest::plain(binary).run(spec, KernelOptions::plain(personality));
    assert!(
        run.outcome.is_success(),
        "{name} training run failed: {:?}",
        run.outcome
    );
    let policy = train(name, [trace_names(&run.kernel)]);
    policy.entry_count()
}

fn main() {
    asc_bench::cli::reject_args("table1");
    println!("Table 1: Number of system calls in policies");
    println!(
        "{:<10} {:>11} {:>13} {:>16} | paper: {:>5} {:>5} {:>8}",
        "Program", "ASC(Linux)", "ASC(OpenBSD)", "Systrace(OBSD)", "L", "OB", "Systrace"
    );
    for (name, paper) in PROGRAMS {
        let asc_linux = asc_policy_count(name, Personality::Linux);
        let asc_bsd = asc_policy_count(name, Personality::OpenBsd);
        let systrace = systrace_policy_count(name, Personality::OpenBsd);
        println!(
            "{:<10} {:>11} {:>13} {:>16} | {:>12} {:>5} {:>8}",
            name, asc_linux, asc_bsd, systrace, paper.0, paper.1, paper.2
        );
    }
}
