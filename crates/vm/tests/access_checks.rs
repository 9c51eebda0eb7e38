//! Every `Memory` accessor against a reference model rebuilt from the
//! public `size()` and `flags_at()`: a page walk that checks the range
//! against the end of memory and then each page in order, and a C-string
//! scan that reads one byte at a time. Each accessor must return the same
//! `Ok` value, or the same `MemFault` kind and address, on seeded memories
//! with a mix of page flags, at page boundaries, at the end of memory and
//! at the end of the address space.

use asc_testkit::{check, Rng};
use asc_vm::{MemFault, Memory, PageFlags, PAGE_SIZE};

const PAGES: u32 = 16;

/// The reference check: `OutOfRange { addr }` if the range runs past
/// memory, else `fault` of the first page without the flag.
fn walk(
    m: &Memory,
    addr: u32,
    len: u32,
    allowed: fn(PageFlags) -> bool,
    fault: fn(u32) -> MemFault,
) -> Result<(), MemFault> {
    if u64::from(addr) + u64::from(len) > u64::from(m.size()) {
        return Err(MemFault::OutOfRange { addr });
    }
    if len == 0 {
        return Ok(());
    }
    for page in addr / PAGE_SIZE..=(addr + len - 1) / PAGE_SIZE {
        if !allowed(m.flags_at(page * PAGE_SIZE)) {
            return Err(fault(page * PAGE_SIZE));
        }
    }
    Ok(())
}

fn no_read(addr: u32) -> MemFault {
    MemFault::NoRead { addr }
}

fn no_write(addr: u32) -> MemFault {
    MemFault::NoWrite { addr }
}

fn no_exec(addr: u32) -> MemFault {
    MemFault::NoExec { addr }
}

/// The reference C-string read: one mapped-byte check per byte.
fn cstr(m: &Memory, bytes: &[u8], addr: u32, max: u32) -> Result<Vec<u8>, MemFault> {
    for i in 0..max {
        let at = addr + i;
        walk(m, at, 1, PageFlags::mapped, no_read)?;
        if bytes[at as usize] == 0 {
            return Ok(bytes[addr as usize..at as usize].to_vec());
        }
    }
    Err(MemFault::NoRead { addr: addr + max })
}

/// A memory of `PAGES` pages with seeded flags and contents, and a copy of
/// its bytes. Some pages hold no NUL, so string scans cross pages.
fn memory(rng: &mut Rng) -> (Memory, Vec<u8>) {
    let flags = [
        PageFlags::NONE,
        PageFlags::R,
        PageFlags::RW,
        PageFlags::RX,
        PageFlags::RWX,
    ];
    let mut m = Memory::new(PAGES * PAGE_SIZE);
    let mut bytes = Vec::new();
    m.protect(0, m.size(), PageFlags::RWX);
    for _ in 0..PAGES {
        let nul_one_in = *rng.pick(&[0, 16, 600]);
        bytes.extend((0..PAGE_SIZE).map(|_| {
            let b = rng.byte();
            if nul_one_in != 0 && rng.chance(1, nul_one_in) {
                0
            } else {
                b.max(1)
            }
        }));
    }
    m.kwrite(0, &bytes).expect("all mapped");
    for page in 0..PAGES {
        m.protect(page * PAGE_SIZE, PAGE_SIZE, *rng.pick(&flags));
    }
    (m, bytes)
}

/// Page boundaries ±8 (the end of memory among them), the last page, the
/// end of the address space, and a few random addresses.
fn addresses(m: &Memory, rng: &mut Rng) -> Vec<u32> {
    let mut out = Vec::new();
    for page in 0..=PAGES {
        let boundary = page * PAGE_SIZE;
        out.extend((0..=16).map(|k| (boundary + k).wrapping_sub(8)));
    }
    out.extend((0..8).map(|_| rng.range_u32(m.size() - PAGE_SIZE, m.size())));
    out.extend((0..=8).map(|k| u32::MAX - k));
    out.extend((0..8).map(|_| rng.range_u32(0, m.size())));
    out
}

fn lengths(rng: &mut Rng) -> Vec<u32> {
    let mut out = vec![0, 1, 2, 3, 4, 8, 4095, 4096, 4097, 8192];
    out.extend((0..3).map(|_| rng.range_u32(5, 3 * PAGE_SIZE)));
    out
}

#[test]
fn every_access_faults_as_the_page_walk_does() {
    check(0x0A5C_4E51, 16, |rng| {
        let (m, bytes) = memory(rng);
        let word =
            |a: u32| u32::from_le_bytes(bytes[a as usize..a as usize + 4].try_into().unwrap());
        let lens = lengths(rng);
        for addr in addresses(&m, rng) {
            let at = |len: u32| addr as usize..addr as usize + len as usize;
            let read = walk(&m, addr, 1, PageFlags::readable, no_read);
            assert_eq!(
                m.read_u8(addr),
                read.map(|()| bytes[addr as usize]),
                "read_u8 {addr:#x}"
            );
            let read = walk(&m, addr, 4, PageFlags::readable, no_read);
            assert_eq!(
                m.read_u32(addr),
                read.map(|()| word(addr)),
                "read_u32 {addr:#x}"
            );
            let mapped = walk(&m, addr, 4, PageFlags::mapped, no_read);
            assert_eq!(
                m.kread_u32(addr),
                mapped.map(|()| word(addr)),
                "kread_u32 {addr:#x}"
            );
            let exec = walk(&m, addr, 8, PageFlags::executable, no_exec);
            assert_eq!(
                m.fetch(addr),
                exec.map(|()| &bytes[at(8)]),
                "fetch {addr:#x}"
            );

            let mut w = m.clone();
            let expect = walk(&m, addr, 1, PageFlags::writable, no_write);
            assert_eq!(w.write_u8(addr, 0x5A), expect, "write_u8 {addr:#x}");
            if expect.is_ok() {
                assert_eq!(w.kread(addr, 1), Ok(&[0x5A][..]));
            }
            let mut w = m.clone();
            let expect = walk(&m, addr, 4, PageFlags::writable, no_write);
            assert_eq!(
                w.write_u32(addr, 0xA5C0_FFEE),
                expect,
                "write_u32 {addr:#x}"
            );
            if expect.is_ok() {
                assert_eq!(w.kread_u32(addr), Ok(0xA5C0_FFEE));
            }

            let kread = walk(&m, addr, u32::MAX, PageFlags::mapped, no_read);
            assert_eq!(
                m.kread(addr, u32::MAX),
                kread.map(|()| &[][..]),
                "kread {addr:#x} max"
            );
            for &len in &lens {
                let kread = walk(&m, addr, len, PageFlags::mapped, no_read);
                assert_eq!(
                    m.kread(addr, len),
                    kread.map(|()| &bytes[at(len)]),
                    "kread {addr:#x}+{len}"
                );
                let data = vec![0xC3; len as usize];
                let mut w = m.clone();
                let expect = walk(&m, addr, len, PageFlags::mapped, no_write);
                assert_eq!(w.kwrite(addr, &data), expect, "kwrite {addr:#x}+{len}");
                if expect.is_ok() {
                    assert_eq!(w.kread(addr, len), Ok(&data[..]));
                }
                assert_eq!(
                    m.kread_cstr(addr, len).map(|s| s.to_vec()),
                    cstr(&m, &bytes, addr, len),
                    "kread_cstr {addr:#x} max {len}"
                );
            }
            assert_eq!(
                m.kread_cstr(addr, u32::MAX).map(|s| s.to_vec()),
                cstr(&m, &bytes, addr, u32::MAX),
                "kread_cstr {addr:#x} max {}",
                u32::MAX
            );
        }
    });
}
