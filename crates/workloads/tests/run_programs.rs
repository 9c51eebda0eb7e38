//! Every registered workload must build and run to successful completion
//! on the personalities it targets — these are the paper's benchmark
//! inputs, so a crash here invalidates every downstream experiment.

use asc_kernel::{KernelOptions, Personality};
use asc_vm::RunOutcome;
use asc_workloads::{build, program, programs, Guest};

fn run_ok(name: &str, personality: Personality) -> asc_kernel::Kernel {
    let spec = program(name).expect("registered");
    let binary = build(spec, personality).unwrap_or_else(|e| panic!("{name}: {e}"));
    let run = Guest::plain(binary).run(spec, KernelOptions::plain(personality));
    let (outcome, kernel) = (run.outcome, run.kernel);
    assert_eq!(
        outcome,
        RunOutcome::Exited(0),
        "{name} on {personality:?}: stdout={:?} stderr={:?}",
        String::from_utf8_lossy(kernel.stdout()),
        String::from_utf8_lossy(kernel.stderr()),
    );
    kernel
}

#[test]
fn bison_runs_both_personalities() {
    let kernel = run_ok("bison", Personality::Linux);
    let out = String::from_utf8_lossy(kernel.stdout()).to_string();
    assert!(out.contains("rules: 6"), "{out}");
    assert!(kernel
        .fs()
        .read_file("/home/parser.out")
        .unwrap()
        .starts_with(b"table\n"));
    run_ok("bison", Personality::OpenBsd);
}

#[test]
fn calc_runs_both_personalities() {
    let kernel = run_ok("calc", Personality::Linux);
    let out = String::from_utf8_lossy(kernel.stdout()).to_string();
    // 12345678 * 87654321 = 1082152022374638
    assert!(out.contains("1082152022374638"), "{out}");
    assert!(out.contains("1000"), "{out}"); // 999 + 1
    run_ok("calc", Personality::OpenBsd);
}

#[test]
fn screen_runs_both_personalities() {
    let kernel = run_ok("screen", Personality::Linux);
    let out = String::from_utf8_lossy(kernel.stdout()).to_string();
    assert!(out.contains("created window 1"), "{out}");
    assert!(out.contains("windows: 1"), "{out}");
    assert!(out.contains("detached"), "{out}");
    run_ok("screen", Personality::OpenBsd);
}

#[test]
fn tar_archives_and_verifies() {
    let kernel = run_ok("tar", Personality::Linux);
    let out = String::from_utf8_lossy(kernel.stdout()).to_string();
    assert!(out.contains("archived 3 files, verified 3"), "{out}");
    run_ok("tar", Personality::OpenBsd);
}

#[test]
fn perf_suite_runs() {
    for name in [
        "gzip-spec",
        "crafty",
        "mcf",
        "vpr",
        "twolf",
        "gcc",
        "vortex",
        "pyramid",
        "gzip",
    ] {
        let kernel = run_ok(name, Personality::Linux);
        assert!(!kernel.stdout().is_empty(), "{name} produced output");
    }
}

#[test]
fn gzip_output_is_smaller_and_nonempty() {
    let kernel = run_ok("gzip", Personality::Linux);
    let original = kernel.fs().read_file("/home/input.dat").unwrap().len();
    let compressed = kernel.fs().read_file("/home/input.gz").unwrap().len();
    assert!(compressed > 0);
    assert!(compressed < original, "{compressed} < {original}");
}

#[test]
fn victim_runs_benignly() {
    let kernel = run_ok("victim", Personality::Linux);
    assert_eq!(kernel.exec_requests(), &["/bin/ls".to_string()]);
}

#[test]
fn cpu_programs_make_few_syscalls_and_syscall_programs_many() {
    let cpu = run_ok("mcf", Personality::Linux);
    let sys = run_ok("pyramid", Personality::Linux);
    assert!(
        cpu.stats().syscalls < 60,
        "mcf should be CPU-bound: {} syscalls",
        cpu.stats().syscalls
    );
    assert!(
        sys.stats().syscalls > 200,
        "pyramid should be syscall-bound: {} syscalls",
        sys.stats().syscalls
    );
}

#[test]
fn all_registered_programs_have_distinct_names() {
    let mut names: Vec<_> = programs().iter().map(|p| p.name).collect();
    names.sort_unstable();
    let before = names.len();
    names.dedup();
    assert_eq!(names.len(), before);
}

#[test]
fn builds_are_byte_identical() {
    // Two builds in one process must agree byte for byte, symbol table
    // included: the assembler emits symbols in a fixed order, not in its
    // label map's per-instance hash order.
    let spec = program("bison").expect("registered");
    let first = build(spec, Personality::Linux).expect("builds");
    let second = build(spec, Personality::Linux).expect("builds");
    assert!(!first.symbols().is_empty(), "the workload exports symbols");
    assert_eq!(first.to_bytes(), second.to_bytes());
}
