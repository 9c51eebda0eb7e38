//! A memory that takes a dropped memory's buffer reads zero on every page
//! it maps: pages the dropped memory wrote through the kernel and through
//! guest stores, pages it mapped and then unmapped, its stack, and pages
//! a memory in between never mapped. Loaded sections read their exact
//! bytes with a zero tail, and memories of other sizes work beside
//! recycled ones.

use asc_asm::assemble;
use asc_isa::Reg;
use asc_object::{Binary, Section, SectionFlags};
use asc_vm::{
    Machine, Memory, PageFlags, RunOutcome, SyscallHandler, TrapContext, TrapOutcome,
    DEFAULT_STACK_SIZE, PAGE_SIZE,
};

const PAGES: u32 = 32;
const SIZE: u32 = PAGES * PAGE_SIZE;
const STACK: u32 = 4 * PAGE_SIZE;

/// Text, data with a zero tail, and bss over two pages; no section starts
/// or ends on a page boundary except the text's start.
fn binary() -> Binary {
    let mut b = Binary::new(0x1000);
    b.push_section(Section::new(
        ".text",
        0x1000,
        vec![0xAA; 100],
        SectionFlags::RX,
    ));
    let mut data = Section::new(".data", 0x2010, vec![1, 2, 3, 4, 5], SectionFlags::RW);
    data.mem_size = 0x40;
    b.push_section(data);
    b.push_section(Section::zeroed(".bss", 0x3800, 0x1000, SectionFlags::RW));
    b
}

/// What a memory of `size` bytes that loaded `b` must hold: the sections'
/// data, and zero everywhere else.
fn image(b: &Binary, size: u32) -> Vec<u8> {
    let mut out = vec![0; size as usize];
    for s in b.sections() {
        out[s.addr as usize..][..s.data.len()].copy_from_slice(&s.data);
    }
    out
}

/// Writes nonzero bytes over all of `m` through the kernel and through
/// guest stores, then unmaps four pages, which keep those bytes.
fn scribble(m: &mut Memory) {
    m.protect(0, m.size(), PageFlags::RWX);
    m.kwrite(0, &vec![0xEE; m.size() as usize]).unwrap();
    for page in (0..m.size()).step_by(PAGE_SIZE as usize) {
        m.write_u32(page + 8, 0xDEAD_BEEF).unwrap();
        m.write_u8(page + PAGE_SIZE - 1, 0x77).unwrap();
    }
    m.protect(0x8000, 4 * PAGE_SIZE, PageFlags::NONE);
}

/// A scribbled-over memory of `size` bytes, dropped.
fn drop_scribbled(size: u32) {
    let mut m = Memory::new(size);
    m.load(&binary(), STACK).unwrap();
    scribble(&mut m);
}

/// Asserts that `[start, end)` of `m` reads `want[start..end]`, naming the
/// first byte that does not.
fn assert_reads(m: &Memory, want: &[u8], start: u32, end: u32) {
    let got = m.kread(start, end - start).expect("mapped");
    if let Some(i) = (0..got.len()).find(|&i| got[i] != want[start as usize + i]) {
        let at = start as usize + i;
        panic!("byte {at:#x} reads {:#x}, want {:#x}", got[i], want[at]);
    }
}

/// Maps every page of `m` one at a time, each through an address inside
/// it, and asserts that all of `m` reads `want`.
fn map_all_and_assert(m: &mut Memory, want: &[u8]) {
    for page in (0..m.size()).step_by(PAGE_SIZE as usize) {
        if !m.flags_at(page).mapped() {
            m.protect(page + 0x123, 1, PageFlags::R);
        }
    }
    assert_reads(m, want, 0, m.size());
}

#[test]
fn a_recycled_memory_reads_zero_on_every_page_it_maps() {
    drop_scribbled(SIZE);
    let b = binary();
    let want = image(&b, SIZE);
    let mut m = Memory::new(SIZE);
    m.load(&b, STACK).unwrap();
    // The loaded pages, before anything else is mapped: exact section
    // bytes, a zero `.data` tail and `.bss`, and zero around them.
    assert_reads(&m, &want, 0x1000, 0x5000);
    assert_reads(&m, &want, SIZE - STACK, SIZE);
    map_all_and_assert(&mut m, &want);
}

#[test]
fn a_page_no_later_memory_mapped_is_zeroed_when_one_does() {
    drop_scribbled(SIZE);
    // This memory maps only the binary's pages and the stack; the others
    // keep the first memory's bytes into the next drop.
    let mut m = Memory::new(SIZE);
    m.load(&binary(), STACK).unwrap();
    drop(m);
    let mut m = Memory::new(SIZE);
    map_all_and_assert(&mut m, &vec![0; SIZE as usize]);
}

#[test]
fn a_page_remapped_in_one_life_keeps_its_bytes() {
    drop_scribbled(SIZE);
    let mut m = Memory::new(SIZE);
    m.protect(0x6000, PAGE_SIZE, PageFlags::RW);
    m.write_u32(0x6010, 0x1234_5678).unwrap();
    m.protect(0x6000, PAGE_SIZE, PageFlags::NONE);
    m.protect(0x6000, PAGE_SIZE, PageFlags::R);
    assert_eq!(m.read_u32(0x6010), Ok(0x1234_5678));
    assert_eq!(m.read_u32(0x6008), Ok(0));
}

#[test]
fn memories_of_other_sizes_work_beside_recycled_ones() {
    drop_scribbled(SIZE);
    drop_scribbled(2 * SIZE);
    let b = binary();
    // `SIZE + 1` rounds up to one page more than either dropped buffer.
    for size in [2 * SIZE, SIZE + 1, SIZE, 2 * SIZE, SIZE] {
        let mut m = Memory::new(size);
        assert_eq!(m.size(), size.div_ceil(PAGE_SIZE) * PAGE_SIZE);
        m.load(&b, STACK).unwrap();
        let want = image(&b, m.size());
        map_all_and_assert(&mut m, &want);
        scribble(&mut m);
    }
}

/// `exit(r1)` for any call.
#[derive(Debug)]
struct Exit;

impl SyscallHandler for Exit {
    fn syscall(&mut self, ctx: &mut TrapContext<'_>) -> TrapOutcome {
        TrapOutcome::Exit(ctx.reg(Reg::R1))
    }
}

#[test]
fn a_guest_loaded_after_another_finds_a_zero_stack_and_bss() {
    // Stores a word in `.bss` and pushes one on the stack, then exits.
    let b = assemble(
        "
        .text
    main:
        movi r1, 0x5a5a5a5a
        movi r2, cell
        stw [r2], r1
        push r1
        movi r0, 1
        syscall
        .bss
    cell: .space 4
    ",
    )
    .expect("assembles");
    let cell = b.symbol("cell").expect("label").addr;
    let mut first = Machine::load(&b, Exit).expect("loads");
    let sp = first.reg(Reg::SP);
    assert_eq!(first.run(1_000), RunOutcome::Exited(0x5a5a_5a5a));
    assert_eq!(first.mem().kread_u32(cell), Ok(0x5a5a_5a5a));
    assert_eq!(first.mem().kread_u32(sp - 4), Ok(0x5a5a_5a5a));
    drop(first);
    let second = Machine::load(&b, Exit).expect("loads");
    let top = second.mem().size();
    assert_eq!(second.mem().kread_u32(cell), Ok(0));
    let stack = second
        .mem()
        .kread(top - DEFAULT_STACK_SIZE, DEFAULT_STACK_SIZE)
        .unwrap();
    assert!(stack.iter().all(|&b| b == 0));
}
