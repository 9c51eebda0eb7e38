//! Stale-slot cases for predecoded text. In every case the instruction
//! under test has already executed once, so its decoded form is cached;
//! the next execution must still behave exactly like a cold fetch and
//! decode of the bytes and page flags that are there now.

use asc_asm::assemble;
use asc_isa::{DecodeError, Instruction, Opcode, Reg};
use asc_object::{Binary, Section, SectionFlags};
use asc_vm::{
    Machine, MemFault, PageFlags, RunOutcome, StepOutcome, SyscallHandler, TrapContext,
    TrapOutcome, DEFAULT_STACK_SIZE, PAGE_SIZE,
};

/// `exit(r1)`.
const EXIT: u32 = 1;
/// Kernel write of the pending patch bytes at `r2` (the way `read()` into
/// a buffer ignores page protection).
const PATCH: u32 = 2;
/// `protect(r2, r3)` with the pending flags.
const PROTECT: u32 = 3;

#[derive(Debug, Default)]
struct TestKernel {
    patch: Vec<u8>,
    flags: PageFlags,
}

impl SyscallHandler for TestKernel {
    fn syscall(&mut self, ctx: &mut TrapContext<'_>) -> TrapOutcome {
        match ctx.reg(Reg::R0) {
            EXIT => TrapOutcome::Exit(ctx.reg(Reg::R1)),
            PATCH => {
                let patch = std::mem::take(&mut self.patch);
                ctx.mem.kwrite(ctx.reg(Reg::R2), &patch).expect("patch");
                TrapOutcome::Continue
            }
            PROTECT => {
                let (addr, len) = (ctx.reg(Reg::R2), ctx.reg(Reg::R3));
                ctx.mem.protect(addr, len, self.flags);
                TrapOutcome::Continue
            }
            nr => TrapOutcome::Kill(format!("unknown syscall {nr}")),
        }
    }
}

fn build(src: &str) -> Binary {
    assemble(src).expect("assembles")
}

fn load(binary: &Binary, kernel: TestKernel) -> Machine<TestKernel> {
    Machine::load(binary, kernel).expect("loads")
}

fn addr(binary: &Binary, label: &str) -> u32 {
    binary.symbol(label).expect("label").addr
}

/// Adds 1 to r1 three times at `target`, then exits with r1.
const LOOP: &str = "
    .text
main:
    movi r1, 0
    movi r2, 3
    movi r3, 0
loop:
target:
    addi r1, r1, 1
    addi r2, r2, -1
    bne r2, r3, loop
    movi r0, 1
    syscall
";

/// Instructions retired when `LOOP` is back at `target` after one pass.
const ONE_PASS: u64 = 6;

fn warm_loop() -> (Binary, Machine<TestKernel>) {
    let binary = build(LOOP);
    let mut m = load(&binary, TestKernel::default());
    assert_eq!(m.run_until_instret(ONE_PASS, 1_000), StepOutcome::Running);
    assert_eq!(m.pc(), addr(&binary, "target"));
    (binary, m)
}

#[test]
fn a_opcode_flipped_between_steps_runs_the_new_instruction() {
    let (binary, mut m) = warm_loop();
    let target = addr(&binary, "target");
    // Flip the opcode byte, as the fault campaign does: `addi r1, r1, 1`
    // becomes `muli r1, r1, 1`, so the two passes left keep r1 at 1.
    let flip = Opcode::Addi as u8 ^ Opcode::Muli as u8;
    let byte = m.mem().kread(target, 1).unwrap()[0];
    m.mem_mut().kwrite(target, &[byte ^ flip]).unwrap();
    assert_eq!(m.run(1_000), RunOutcome::Exited(1));

    // A write that touches only the last byte of the warm instruction.
    let (_, mut m) = warm_loop();
    m.mem_mut().kwrite(target + 7, &[0x01]).unwrap();
    assert_eq!(m.run(1_000), RunOutcome::Exited(1 + 2 * 0x0100_0001));
}

#[test]
fn b_kernel_write_into_text_during_a_trap_is_seen_next_time() {
    let binary = build(
        "
        .text
    main:
        movi r1, 0
        movi r4, 2
        movi r5, 0
    loop:
    target:
        addi r1, r1, 1
        movi r0, 2          ; PATCH: rewrites `target` once
        movi r2, target
        syscall
        addi r4, r4, -1
        bne r4, r5, loop
        movi r0, 1
        syscall
    ",
    );
    let kernel = TestKernel {
        patch: Instruction::addi(Reg::R1, Reg::R1, 100).encode().to_vec(),
        ..TestKernel::default()
    };
    assert_eq!(load(&binary, kernel).run(1_000), RunOutcome::Exited(101));
}

#[test]
fn c_protect_away_exec_faults_like_a_cold_fetch() {
    let (binary, mut m) = warm_loop();
    let text = binary.section_by_name(".text").unwrap();
    let (start, len) = (text.addr, text.mem_size);
    m.mem_mut().protect(start, len, PageFlags::RW);
    let pc = m.pc();
    let cold = m.mem().fetch(pc).unwrap_err();
    assert_eq!(
        cold,
        MemFault::NoExec {
            addr: pc / PAGE_SIZE * PAGE_SIZE
        }
    );
    assert_eq!(m.run(1_000), RunOutcome::Fault(cold));
    assert_eq!((m.pc(), m.instret()), (pc, ONE_PASS));
}

#[test]
fn c_page_made_writable_drops_every_slot_on_it() {
    // The protected byte is `main`, not `target`; the page turns RWX, so
    // the guest's own store (which has no write barrier) rewrites `target`
    // on the same page and the next call must run the new immediate.
    let binary = build(
        "
        .text
    main:
        movi r1, 0
        call bump           ; warm while the page is RX
        movi r0, 3          ; PROTECT [main, main+1) RWX
        movi r2, main
        movi r3, 1
        syscall
        call bump           ; run again on the RWX page
        movi r4, target
        movi r5, 100
        stw [r4+4], r5
        call bump
        movi r0, 1
        syscall
    bump:
    target:
        addi r1, r1, 1
        ret
    ",
    );
    assert_eq!(
        addr(&binary, "main") / PAGE_SIZE,
        addr(&binary, "target") / PAGE_SIZE
    );
    let kernel = TestKernel {
        flags: PageFlags::RWX,
        ..TestKernel::default()
    };
    assert_eq!(load(&binary, kernel).run(1_000), RunOutcome::Exited(102));
}

#[test]
fn d_corrupted_warm_instruction_fails_like_a_cold_decode() {
    for (offset, byte, error) in [
        (0, 0xff, DecodeError::BadOpcode(0xff)),
        (1, 0x77, DecodeError::BadRegister(0x77)),
        (3, 0x10, DecodeError::BadRegister(0x10)),
    ] {
        let (binary, mut m) = warm_loop();
        let target = addr(&binary, "target");
        m.mem_mut().kwrite(target + offset, &[byte]).unwrap();
        let cold = Instruction::decode(m.mem().fetch(target).unwrap()).unwrap_err();
        assert_eq!(cold, error);
        assert_eq!(
            m.run(1_000),
            RunOutcome::BadInstruction {
                pc: target,
                error: cold
            }
        );
        assert_eq!(m.instret(), ONE_PASS);
    }
}

#[test]
fn e_rewritten_stack_shellcode_runs_its_new_bytes() {
    let binary = build(
        "
        .text
    main:
        movi r1, 0
        addi r4, sp, -64
        movi r5, code_a
        call copy
        callr r4            ; r1 += 1
        callr r4            ; again, so the stack code has run before
        movi r5, code_b
        call copy
        callr r4            ; r1 += 100
        movi r0, 1
        syscall
    copy:                   ; 16 bytes from [r5] to [r4]
        ldw r6, [r5]
        stw [r4], r6
        ldw r6, [r5+4]
        stw [r4+4], r6
        ldw r6, [r5+8]
        stw [r4+8], r6
        ldw r6, [r5+12]
        stw [r4+12], r6
        ret
    code_a:
        addi r1, r1, 1
        ret
    code_b:
        addi r1, r1, 100
        ret
    ",
    );
    assert_eq!(
        load(&binary, TestKernel::default()).run(10_000),
        RunOutcome::Exited(102)
    );
}

#[test]
fn f_misaligned_pc_decodes_the_misaligned_bytes() {
    // The immediate of the aligned `movi r1` holds the first half of
    // `jr r6`; decoded at `gadget + 4`, the bytes read `jr r6, <next>`.
    let jr = Instruction::jr(Reg::R6).encode();
    let imm = u32::from_le_bytes(jr[..4].try_into().unwrap());
    let binary = build(&format!(
        "
        .text
    main:
        movi r5, gadget
        movi r6, gadget
    gadget:
        movi r1, {imm}
        addi r7, r7, 1
        jr r5
    "
    ));
    let gadget = addr(&binary, "gadget");
    let mut m = load(&binary, TestKernel::default());
    // Two passes through `gadget`, so all three of its slots are warm.
    assert_eq!(m.run_until_instret(8, 1_000), StepOutcome::Running);
    assert_eq!(m.pc(), gadget);
    let misaligned = Instruction::decode(m.mem().fetch(gadget + 4).unwrap()).unwrap();
    assert_eq!((misaligned.op, misaligned.rs1), (Opcode::Jr, Reg::R6));

    m.set_reg(Reg::R5, gadget + 4);
    assert_eq!(m.run_until_instret(11, 1_000), StepOutcome::Running);
    assert_eq!(m.pc(), gadget + 4);
    // The misaligned `jr r6` goes back to `gadget` ...
    m.set_reg(Reg::R1, 0);
    assert_eq!(m.step(), StepOutcome::Running);
    assert_eq!(m.pc(), gadget);
    assert_eq!(m.reg(Reg::R1), 0);
    // ... where the aligned `movi r1` is still what runs.
    assert_eq!(m.step(), StepOutcome::Running);
    assert_eq!((m.pc(), m.reg(Reg::R1)), (gadget + 8, imm));
}

#[test]
fn g_second_binary_in_the_same_memory_leaves_no_slot_behind() {
    // Loops through `movi r1, 1` and `jr r5` while r5 holds `main`.
    let first = build(
        "
        .text
    main:
        movi r1, 1
        jr r5
    ",
    );
    let entry = first.entry();
    let warm = || {
        let mut m = load(&first, TestKernel::default());
        m.set_reg(Reg::R5, entry);
        assert_eq!(m.run_until_instret(4, 1_000), StepOutcome::Running);
        assert_eq!(m.pc(), entry);
        m
    };
    let exit_2 = build(
        "
        .text
    main:
        movi r1, 2
        movi r0, 1
        syscall
    ",
    );
    assert_eq!(exit_2.entry(), entry);

    // New code at the same address.
    let mut m = warm();
    m.mem_mut().load(&exit_2, DEFAULT_STACK_SIZE).unwrap();
    assert_eq!(m.run(1_000), RunOutcome::Exited(2));

    // New code at a new address, reached from the first binary's text,
    // which stays mapped with its old bytes.
    let moved = PAGE_SIZE * 4;
    let mut at_moved = Binary::new(moved);
    let code = exit_2.section_by_name(".text").unwrap();
    at_moved.push_section(Section::new(
        ".text",
        moved,
        code.data.clone(),
        SectionFlags::RX,
    ));
    let mut m = warm();
    m.mem_mut().load(&at_moved, DEFAULT_STACK_SIZE).unwrap();
    m.set_reg(Reg::R5, moved);
    assert_eq!(m.run(1_000), RunOutcome::Exited(2));

    // The same bytes at the same address, now in a data section.
    let text = first.section_by_name(".text").unwrap();
    let mut data_only = Binary::new(entry);
    data_only.push_section(Section::new(
        ".data",
        text.addr,
        text.data.clone(),
        SectionFlags::RW,
    ));
    let mut m = warm();
    m.mem_mut().load(&data_only, DEFAULT_STACK_SIZE).unwrap();
    assert_eq!(
        m.run(1_000),
        RunOutcome::Fault(MemFault::NoExec {
            addr: entry / PAGE_SIZE * PAGE_SIZE
        })
    );
}
