//! Personality-divergence tests: the OS-specific behaviours that drive
//! the paper's cross-OS policy results.

use asc_asm::assemble;
use asc_kernel::{Kernel, KernelOptions, Personality, SyscallId};
use asc_vm::{Machine, RunOutcome};

fn run_on(src: &str, personality: Personality) -> (RunOutcome, Kernel) {
    let binary = assemble(src).expect("assembles");
    let mut kernel = Kernel::new(KernelOptions::plain(personality));
    kernel.set_brk(binary.highest_addr());
    let mut machine = Machine::load(&binary, kernel).expect("loads");
    let outcome = machine.run(10_000_000);
    (outcome, machine.into_handler())
}

#[test]
fn sysconf_is_a_syscall_only_on_openbsd() {
    let src = "
        .text
        .entry main
    main:
        movi r0, 161          ; OpenBSD sysconf nr
        movi r1, 0            ; _SC_PAGESIZE
        syscall
        mov r1, r0
        movi r0, 1
        syscall
    ";
    let (outcome, kernel) = run_on(src, Personality::OpenBsd);
    assert_eq!(outcome, RunOutcome::Exited(4096));
    assert_eq!(kernel.trace()[0].id, SyscallId::Sysconf);
    // The same number on Linux is not a syscall -> ENOSYS.
    let (outcome, _) = run_on(src, Personality::Linux);
    assert_eq!(outcome, RunOutcome::Exited((-38i32) as u32));
}

#[test]
fn alarm_nice_pause_are_libc_functions_on_openbsd() {
    // Their Linux numbers mean nothing (or something else) on OpenBSD.
    for id in [SyscallId::Alarm, SyscallId::Nice, SyscallId::Pause] {
        assert!(
            Personality::Linux.nr(id).is_some(),
            "{id:?} is a Linux syscall"
        );
        assert!(
            Personality::OpenBsd.nr(id).is_none(),
            "{id:?} is OpenBSD libc"
        );
    }
}

#[test]
fn same_number_different_call() {
    // Number 38 is rename on Linux but stat on OpenBSD — using a policy
    // across operating systems would permit the wrong call (Table 1's
    // portability point).
    assert_eq!(Personality::Linux.name_of(38), "rename");
    assert_eq!(Personality::OpenBsd.name_of(38), "stat");
    // And exercised at runtime:
    let src = "
        .text
        .entry main
    main:
        movi r0, 38
        movi r1, p
        movi r2, st
        syscall
        mov r1, r0
        movi r0, 1
        syscall
        .rodata
    p: .asciz \"/etc/motd\"
        .bss
    st: .space 16
    ";
    let (outcome, kernel) = run_on(src, Personality::OpenBsd);
    assert_eq!(outcome, RunOutcome::Exited(0), "stat succeeds");
    assert_eq!(kernel.trace()[0].id, SyscallId::Stat);
    let (outcome, kernel) = run_on(src, Personality::Linux);
    // rename("/etc/motd", <stat buffer as path>) fails on path parsing.
    assert_ne!(outcome, RunOutcome::Exited(0));
    assert_eq!(kernel.trace()[0].id, SyscallId::Rename);
}

#[test]
fn double_indirection_is_rejected() {
    // __syscall(__syscall, ...) must not recurse.
    let src = "
        .text
        .entry main
    main:
        movi r0, 198
        movi r1, 198
        syscall
        mov r1, r0
        movi r0, 1
        syscall
    ";
    let (outcome, _) = run_on(src, Personality::OpenBsd);
    assert_eq!(outcome, RunOutcome::Exited((-38i32) as u32)); // ENOSYS
}

#[test]
fn uname_sysname_differs() {
    let src = "
        .text
        .entry main
    main:
        movi r0, NR
        movi r1, buf
        syscall
        movi r12, buf
        ldb r1, [r12+3]       ; 4th byte: 'L' in SVMLinux, 'B' in SVMBSD
        movi r0, 1
        syscall
        .bss
    buf: .space 32
    ";
    let linux = src.replace("NR", "122");
    let bsd = src.replace("NR", "164");
    assert_eq!(
        run_on(&linux, Personality::Linux).0,
        RunOutcome::Exited(b'L' as u32)
    );
    assert_eq!(
        run_on(&bsd, Personality::OpenBsd).0,
        RunOutcome::Exited(b'B' as u32)
    );
}

#[test]
fn bsd_close_quirk_still_works_at_runtime() {
    // The un-disassemblable close stub must still *run* correctly (the
    // quirk defeats static analysis, not execution).
    let spec = asc_workloads::program("bison").expect("registered");
    let binary = asc_workloads::build(spec, Personality::OpenBsd).expect("builds");
    let run =
        asc_workloads::Guest::plain(binary).run(spec, KernelOptions::plain(Personality::OpenBsd));
    assert!(run.outcome.is_success());
    assert!(
        run.kernel.trace().iter().any(|t| t.id == SyscallId::Close),
        "close executed at runtime despite being invisible to analysis"
    );
}
