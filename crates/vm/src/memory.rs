//! Flat byte-addressable memory with page-granular protection, the
//! predecoded text the interpreter fetches through, and the process-wide
//! free list that recycles a dropped memory's buffer.

use std::ops::Range;
use std::sync::{Mutex, PoisonError};

use asc_isa::{DecodeError, Instruction, INSTR_LEN};
use asc_object::{Binary, SectionFlags};

/// Page size for protection granularity.
pub const PAGE_SIZE: u32 = 0x1000;

/// The bits of [`PageFlags`], and the masks [`Memory::check`] tests
/// against them: an access passes if its page has any bit of the mask.
const READ: u8 = 1;
const WRITE: u8 = 2;
const EXEC: u8 = 4;
const MAPPED: u8 = READ | WRITE | EXEC;

/// Per-page access permissions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct PageFlags(u8);

impl PageFlags {
    /// No access (unmapped).
    pub const NONE: PageFlags = PageFlags(0);
    /// Readable.
    pub const R: PageFlags = PageFlags(READ);
    /// Readable + writable.
    pub const RW: PageFlags = PageFlags(READ | WRITE);
    /// Readable + executable.
    pub const RX: PageFlags = PageFlags(READ | EXEC);
    /// Readable + writable + executable (the stack).
    pub const RWX: PageFlags = PageFlags(READ | WRITE | EXEC);

    /// Whether reads are allowed.
    pub fn readable(self) -> bool {
        self.0 & READ != 0
    }

    /// Whether writes are allowed.
    pub fn writable(self) -> bool {
        self.0 & WRITE != 0
    }

    /// Whether instruction fetch is allowed.
    pub fn executable(self) -> bool {
        self.0 & EXEC != 0
    }

    /// Whether the page is mapped at all.
    pub fn mapped(self) -> bool {
        self.0 & MAPPED != 0
    }

    /// Converts section flags to page flags.
    pub fn from_section(flags: SectionFlags) -> PageFlags {
        let mut bits = 0;
        if flags.contains(SectionFlags::READ) {
            bits |= READ;
        }
        if flags.contains(SectionFlags::WRITE) {
            bits |= WRITE;
        }
        if flags.contains(SectionFlags::EXEC) {
            bits |= EXEC;
        }
        PageFlags(bits)
    }
}

/// An access violation or out-of-range access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemFault {
    /// Address beyond the end of physical memory.
    OutOfRange {
        /// The faulting address.
        addr: u32,
    },
    /// Read from a non-readable or unmapped page.
    NoRead {
        /// The faulting address.
        addr: u32,
    },
    /// Write to a non-writable or unmapped page.
    NoWrite {
        /// The faulting address.
        addr: u32,
    },
    /// Instruction fetch from a non-executable or unmapped page.
    NoExec {
        /// The faulting address.
        addr: u32,
    },
}

impl std::fmt::Display for MemFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemFault::OutOfRange { addr } => write!(f, "address {addr:#x} out of range"),
            MemFault::NoRead { addr } => write!(f, "read fault at {addr:#x}"),
            MemFault::NoWrite { addr } => write!(f, "write fault at {addr:#x}"),
            MemFault::NoExec { addr } => write!(f, "exec fault at {addr:#x}"),
        }
    }
}

impl std::error::Error for MemFault {}

/// What a page of a [`Memory`]'s buffer may hold.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Residue {
    /// Every byte is zero.
    Zero,
    /// An earlier memory's bytes, zeroed when this memory first maps the
    /// page.
    Stale,
    /// This memory's bytes: it has mapped the page or loaded into it.
    Own,
}

/// The buffers of the process's dropped memories, each with its pages'
/// residues (`Zero` or `Stale`), shared by all of its threads. They are
/// never freed: once glibc has freed one, it serves later buffers from
/// its heap, where `calloc` zeroes every page and makes it resident.
static FREE: Mutex<Vec<(Vec<u8>, Vec<Residue>)>> = Mutex::new(Vec::new());

/// The free list. No code that can panic runs while it is locked, so a
/// poisoned lock still guards a whole list.
fn free_list() -> std::sync::MutexGuard<'static, Vec<(Vec<u8>, Vec<Residue>)>> {
    FREE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Takes the most recently dropped buffer of `len` bytes, with its pages'
/// residues, from the free list.
fn take_free(len: usize) -> Option<(Vec<u8>, Vec<Residue>)> {
    let mut free = free_list();
    let i = free.iter().rposition(|(bytes, _)| bytes.len() == len)?;
    Some(free.swap_remove(i))
}

/// The simulated physical memory of one process.
pub struct Memory {
    bytes: Vec<u8>,
    pages: Vec<PageFlags>,
    /// What each page's bytes may hold. A mapped page is always `Own`, so
    /// no access can see a byte an earlier memory left.
    residue: Vec<Residue>,
    /// Predecoded text: slot `i` caches the decode of the instruction at
    /// `slot_base + 8 * i`, over the span of the loaded binary's
    /// executable, non-writable sections. A slot is `Some` only while its
    /// 8 bytes sit on a page that is executable and not writable, and
    /// neither those bytes nor that page's flags have changed since it was
    /// filled. Only [`Memory::kwrite`], [`Memory::protect`] and
    /// [`Memory::load`] can change either on such a page, and each clears
    /// the slots it touches.
    slots: Vec<Option<Instruction>>,
    /// Start of the slot span; a multiple of [`INSTR_LEN`].
    slot_base: u32,
}

impl std::fmt::Debug for Memory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mapped = self.pages.iter().filter(|p| p.mapped()).count();
        f.debug_struct("Memory")
            .field("size", &self.bytes.len())
            .field("mapped_pages", &mapped)
            .finish()
    }
}

impl Clone for Memory {
    /// A copy in a buffer taken from the free list when one of the same
    /// size is there, so that clones, which are dropped like any
    /// memory, cannot grow the list.
    fn clone(&self) -> Memory {
        let bytes = match take_free(self.bytes.len()) {
            Some((mut bytes, _)) => {
                bytes.copy_from_slice(&self.bytes);
                bytes
            }
            None => self.bytes.clone(),
        };
        Memory {
            bytes,
            pages: self.pages.clone(),
            residue: self.residue.clone(),
            slots: self.slots.clone(),
            slot_base: self.slot_base,
        }
    }
}

impl Drop for Memory {
    /// Returns the buffer to the free list, every page this memory owned
    /// now stale.
    fn drop(&mut self) {
        let bytes = std::mem::take(&mut self.bytes);
        let mut residue = std::mem::take(&mut self.residue);
        for r in residue.iter_mut().filter(|r| **r == Residue::Own) {
            *r = Residue::Stale;
        }
        free_list().push((bytes, residue));
    }
}

impl Memory {
    /// Creates fully unmapped memory of `size` bytes (rounded up to a whole
    /// number of pages) that reads zero on every page it maps.
    ///
    /// It takes the buffer of a dropped memory of the same size from the
    /// process's free list if there is one, else a new zeroed buffer. A
    /// page of a taken buffer that still holds the dropped memory's bytes
    /// is zeroed when [`Memory::protect`] first maps it or
    /// [`Memory::load`] first loads into it, so a memory costs resident
    /// pages only where some guest has mapped them.
    pub fn new(size: u32) -> Memory {
        let pages = size.div_ceil(PAGE_SIZE) as usize;
        let len = pages * PAGE_SIZE as usize;
        let (bytes, residue) =
            take_free(len).unwrap_or_else(|| (vec![0; len], vec![Residue::Zero; pages]));
        Memory {
            bytes,
            pages: vec![PageFlags::NONE; pages],
            residue,
            slots: Vec::new(),
            slot_base: 0,
        }
    }

    /// Total size in bytes.
    pub fn size(&self) -> u32 {
        self.bytes.len() as u32
    }

    /// Loads a binary's sections and maps their pages; maps a stack of
    /// `stack_size` bytes (RWX — see crate docs) at the top of memory.
    /// Sizes the predecoded text to the span of the binary's executable,
    /// non-writable sections, every slot empty.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault::OutOfRange`] if any section or the stack does not
    /// fit. It carries the first address past the section, saturated at
    /// `u32::MAX`, or the top of memory for the stack.
    pub fn load(&mut self, binary: &Binary, stack_size: u32) -> Result<(), MemFault> {
        let mut text: Option<(u32, u32)> = None;
        for section in binary.sections() {
            let end = u64::from(section.addr) + u64::from(section.mem_size);
            if end > u64::from(self.size()) {
                return Err(MemFault::OutOfRange {
                    addr: section.addr.saturating_add(section.mem_size),
                });
            }
            let start = section.addr as usize;
            let page = PAGE_SIZE as usize;
            self.own(start / page..(end as usize).div_ceil(page));
            self.bytes[start..start + section.data.len()].copy_from_slice(&section.data);
            // Zero-fill the bss tail.
            for b in &mut self.bytes[start + section.data.len()..end as usize] {
                *b = 0;
            }
            let flags = PageFlags::from_section(section.flags);
            self.protect(section.addr, section.mem_size, flags);
            if flags.executable() && !flags.writable() {
                let (lo, hi) = text.unwrap_or((section.addr, section.end()));
                text = Some((lo.min(section.addr), hi.max(section.end())));
            }
        }
        let stack_base = self
            .size()
            .checked_sub(stack_size)
            .ok_or(MemFault::OutOfRange { addr: self.size() })?;
        self.protect(stack_base, stack_size, PageFlags::RWX);
        let (lo, hi) = text.unwrap_or_default();
        self.slot_base = lo - lo % INSTR_LEN as u32;
        self.slots = vec![None; (hi - self.slot_base).div_ceil(INSTR_LEN as u32) as usize];
        Ok(())
    }

    /// Initial stack pointer (top of memory, 16-byte aligned).
    pub fn initial_sp(&self) -> u32 {
        self.size() & !0xf
    }

    /// Sets protection for the pages covering `[addr, addr+len)`, clamped
    /// to the last page of memory. A mapped page that this memory had
    /// neither mapped nor loaded into before reads zero; any other page
    /// keeps its bytes.
    pub fn protect(&mut self, addr: u32, len: u32, flags: PageFlags) {
        if len == 0 {
            return;
        }
        let page = u64::from(PAGE_SIZE);
        let first = u64::from(addr) / page;
        let end = ((u64::from(addr) + u64::from(len) - 1) / page + 1).min(self.pages.len() as u64);
        if let Some(pages) = self.pages.get_mut(first as usize..end as usize) {
            pages.fill(flags);
            // New flags can make a page writable or non-executable, so every
            // slot on a touched page goes, not just those in the range.
            self.forget(first * page, end * page);
            if flags.mapped() {
                self.own(first as usize..end as usize);
            }
        }
    }

    /// Makes the pages of `span` this memory's own, zeroing each that
    /// still holds a dropped memory's bytes.
    fn own(&mut self, span: Range<usize>) {
        let page = PAGE_SIZE as usize;
        for (p, residue) in span.clone().zip(&mut self.residue[span]) {
            if *residue == Residue::Stale {
                self.bytes[p * page..(p + 1) * page].fill(0);
            }
            *residue = Residue::Own;
        }
    }

    /// Clears the predecoded slots whose instruction bytes overlap
    /// `[start, end)`.
    fn forget(&mut self, start: u64, end: u64) {
        let base = u64::from(self.slot_base);
        let len = INSTR_LEN as u64;
        let first = start.saturating_sub(base) / len;
        let end = end
            .saturating_sub(base)
            .div_ceil(len)
            .min(self.slots.len() as u64);
        if let Some(slots) = self.slots.get_mut(first as usize..end as usize) {
            slots.fill(None);
        }
    }

    /// Protection flags of the page containing `addr`.
    pub fn flags_at(&self, addr: u32) -> PageFlags {
        self.pages
            .get((addr / PAGE_SIZE) as usize)
            .copied()
            .unwrap_or(PageFlags::NONE)
    }

    /// Checks that `[addr, addr + len)` lies inside memory and that each of
    /// its pages has a bit of `need`. The error is `OutOfRange { addr }` if
    /// the range runs past memory, else `fault` of the first failing page's
    /// start.
    // `Machine<H>::run` is generic, so it is compiled in the caller's crate;
    // `#[inline]` here and on the accessors lets every guest load and store
    // inline this one-page lookup, and the walk stays a call.
    #[inline]
    fn check(
        &self,
        addr: u32,
        len: u32,
        need: u8,
        fault: fn(u32) -> MemFault,
    ) -> Result<(), MemFault> {
        if len != 0 && len <= PAGE_SIZE - addr % PAGE_SIZE {
            // One page. Memory is a whole number of pages, so a page inside
            // the table puts the whole range inside memory.
            let page = addr / PAGE_SIZE;
            return match self.pages.get(page as usize) {
                Some(flags) if flags.0 & need != 0 => Ok(()),
                Some(_) => Err(fault(page * PAGE_SIZE)),
                None => Err(MemFault::OutOfRange { addr }),
            };
        }
        self.check_pages(addr, len, need, fault)
    }

    /// [`Memory::check`] for an empty range or one that straddles a page
    /// boundary: the range against the end of memory, then page by page.
    fn check_pages(
        &self,
        addr: u32,
        len: u32,
        need: u8,
        fault: fn(u32) -> MemFault,
    ) -> Result<(), MemFault> {
        if addr as u64 + len as u64 > self.size() as u64 {
            return Err(MemFault::OutOfRange { addr });
        }
        if len == 0 {
            return Ok(());
        }
        let first = addr / PAGE_SIZE;
        let last = (addr + len - 1) / PAGE_SIZE;
        for p in first..=last {
            if self.pages[p as usize].0 & need == 0 {
                return Err(fault(p * PAGE_SIZE));
            }
        }
        Ok(())
    }

    /// User-mode byte read.
    #[inline]
    pub fn read_u8(&self, addr: u32) -> Result<u8, MemFault> {
        self.check(addr, 1, READ, |a| MemFault::NoRead { addr: a })?;
        Ok(self.bytes[addr as usize])
    }

    /// User-mode byte write.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, value: u8) -> Result<(), MemFault> {
        self.check(addr, 1, WRITE, |a| MemFault::NoWrite { addr: a })?;
        self.bytes[addr as usize] = value;
        Ok(())
    }

    /// User-mode 32-bit read (little-endian, unaligned allowed).
    #[inline]
    pub fn read_u32(&self, addr: u32) -> Result<u32, MemFault> {
        self.check(addr, 4, READ, |a| MemFault::NoRead { addr: a })?;
        let i = addr as usize;
        Ok(u32::from_le_bytes(
            self.bytes[i..i + 4].try_into().expect("4 bytes"),
        ))
    }

    /// User-mode 32-bit write.
    #[inline]
    pub fn write_u32(&mut self, addr: u32, value: u32) -> Result<(), MemFault> {
        self.check(addr, 4, WRITE, |a| MemFault::NoWrite { addr: a })?;
        let i = addr as usize;
        self.bytes[i..i + 4].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Instruction fetch: returns the 8 instruction bytes at `pc`.
    pub fn fetch(&self, pc: u32) -> Result<&[u8], MemFault> {
        self.check(pc, INSTR_LEN as u32, EXEC, |a| MemFault::NoExec { addr: a })?;
        Ok(&self.bytes[pc as usize..pc as usize + INSTR_LEN])
    }

    /// [`Memory::fetch`] followed by [`Instruction::decode`], with the same
    /// result, answered from the predecoded slot when it is filled.
    // `Machine::step` is generic, so it is compiled in the caller's crate;
    // `#[inline]` lets it inline this hit path, and the miss stays a call.
    #[inline]
    pub(crate) fn fetch_decoded(
        &mut self,
        pc: u32,
    ) -> Result<Result<Instruction, DecodeError>, MemFault> {
        let offset = pc.wrapping_sub(self.slot_base);
        if offset.is_multiple_of(INSTR_LEN as u32) {
            if let Some(&Some(instr)) = self.slots.get((offset / INSTR_LEN as u32) as usize) {
                return Ok(Ok(instr));
            }
        }
        self.decode_and_fill(pc)
    }

    /// The miss path of [`Memory::fetch_decoded`]. It fills the slot only
    /// for an aligned `pc` inside the span whose page is not writable: the
    /// RWX stack and misaligned entry points into text are decoded on
    /// every fetch.
    fn decode_and_fill(&mut self, pc: u32) -> Result<Result<Instruction, DecodeError>, MemFault> {
        let decoded = Instruction::decode(self.fetch(pc)?);
        let offset = pc.wrapping_sub(self.slot_base);
        if let Ok(instr) = decoded {
            if offset.is_multiple_of(INSTR_LEN as u32) && !self.flags_at(pc).writable() {
                if let Some(slot) = self.slots.get_mut((offset / INSTR_LEN as u32) as usize) {
                    *slot = Some(instr);
                }
            }
        }
        Ok(decoded)
    }

    /// Kernel-mode read: bounds-checked but ignores page protection
    /// (the kernel may read any mapped user memory).
    #[inline]
    pub fn kread(&self, addr: u32, len: u32) -> Result<&[u8], MemFault> {
        self.check(addr, len, MAPPED, |a| MemFault::NoRead { addr: a })?;
        Ok(&self.bytes[addr as usize..(addr + len) as usize])
    }

    /// Kernel-mode 32-bit read.
    #[inline]
    pub fn kread_u32(&self, addr: u32) -> Result<u32, MemFault> {
        let b = self.kread(addr, 4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Kernel-mode write: bounds-checked but ignores page protection (the
    /// kernel updates the policy state inside the application's `.asc`
    /// section and fills output buffers).
    #[inline]
    pub fn kwrite(&mut self, addr: u32, data: &[u8]) -> Result<(), MemFault> {
        self.check(addr, data.len() as u32, MAPPED, |a| MemFault::NoWrite {
            addr: a,
        })?;
        self.bytes[addr as usize..addr as usize + data.len()].copy_from_slice(data);
        self.forget(u64::from(addr), u64::from(addr) + data.len() as u64);
        Ok(())
    }

    /// Kernel-mode read of a NUL-terminated string, capped at `max` bytes:
    /// lends the bytes before the terminator. It tests each page's flags
    /// once, then scans that page's bytes, and answers as a byte-by-byte
    /// [`Memory::kread`] would.
    ///
    /// # Errors
    ///
    /// Faults if the string runs off mapped memory or exceeds `max` bytes
    /// without a terminator (the kernel defends itself against unterminated
    /// strings, as real kernels must): `OutOfRange` at the first byte past
    /// memory, `NoRead` at the start of the first unmapped page, or
    /// `NoRead` at `addr + max`.
    pub fn kread_cstr(&self, addr: u32, max: u32) -> Result<&[u8], MemFault> {
        let page = u64::from(PAGE_SIZE);
        let limit = u64::from(addr) + u64::from(max);
        let mut at = u64::from(addr);
        while at < limit {
            let Some(flags) = self.pages.get((at / page) as usize) else {
                return Err(MemFault::OutOfRange { addr: at as u32 });
            };
            if !flags.mapped() {
                return Err(MemFault::NoRead {
                    addr: (at - at % page) as u32,
                });
            }
            let stop = limit.min(at - at % page + page);
            let scanned = &self.bytes[at as usize..stop as usize];
            if let Some(n) = scanned.iter().position(|&b| b == 0) {
                return Ok(&self.bytes[addr as usize..at as usize + n]);
            }
            at = stop;
        }
        Err(MemFault::NoRead { addr: limit as u32 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asc_object::{Section, SectionFlags};

    fn mem_with_binary() -> Memory {
        let mut b = Binary::new(0x1000);
        b.push_section(Section::new(
            ".text",
            0x1000,
            vec![0xAA; 64],
            SectionFlags::RX,
        ));
        b.push_section(Section::new(
            ".data",
            0x2000,
            vec![1, 2, 3, 4],
            SectionFlags::RW,
        ));
        b.push_section(Section::zeroed(".bss", 0x3000, 32, SectionFlags::RW));
        let mut m = Memory::new(1 << 20);
        m.load(&b, 0x4000).unwrap();
        m
    }

    #[test]
    fn load_and_protection() {
        let m = mem_with_binary();
        assert_eq!(m.read_u8(0x1000).unwrap(), 0xAA);
        assert_eq!(m.read_u32(0x2000).unwrap(), 0x04030201);
        assert_eq!(m.read_u8(0x3000).unwrap(), 0);
        // text not writable
        let mut m2 = m.clone();
        assert_eq!(
            m2.write_u8(0x1000, 0),
            Err(MemFault::NoWrite { addr: 0x1000 })
        );
        // data not executable
        assert_eq!(m.fetch(0x2000), Err(MemFault::NoExec { addr: 0x2000 }));
        // text executable
        assert!(m.fetch(0x1000).is_ok());
        // unmapped page
        assert_eq!(m.read_u8(0x9000), Err(MemFault::NoRead { addr: 0x9000 }));
    }

    #[test]
    fn stack_is_rwx() {
        let m = mem_with_binary();
        let sp = m.initial_sp();
        let stack_page = sp - 8;
        assert!(m.flags_at(stack_page).writable());
        assert!(m.flags_at(stack_page).executable());
    }

    #[test]
    fn out_of_range() {
        let m = mem_with_binary();
        assert!(matches!(
            m.read_u32(m.size() - 2),
            Err(MemFault::OutOfRange { .. })
        ));
        let mut m2 = m.clone();
        assert!(matches!(
            m2.write_u32(m.size(), 1),
            Err(MemFault::OutOfRange { .. })
        ));
    }

    #[test]
    fn kernel_access_ignores_protection() {
        let mut m = mem_with_binary();
        // Kernel can write into .text (e.g. nothing stops it), and read .data.
        m.kwrite(0x1000, &[1, 2, 3]).unwrap();
        assert_eq!(m.kread(0x1000, 3).unwrap(), &[1, 2, 3]);
        // But not unmapped pages.
        assert!(m.kwrite(0x9000, &[0]).is_err());
    }

    #[test]
    fn kread_cstr() {
        let mut m = mem_with_binary();
        m.kwrite(0x2000, b"hi\0").unwrap();
        assert_eq!(m.kread_cstr(0x2000, 100).unwrap(), b"hi");
        // Unterminated within cap:
        m.kwrite(0x2000, &[b'x'; 4]).unwrap();
        assert!(m.kread_cstr(0x2000, 3).is_err());
    }

    #[test]
    fn unaligned_word_access() {
        let mut m = mem_with_binary();
        m.write_u32(0x2001, 0xdead_beef).unwrap();
        assert_eq!(m.read_u32(0x2001).unwrap(), 0xdead_beef);
    }

    #[test]
    fn protect_past_4gib_clamps_to_the_last_page() {
        let mut m = mem_with_binary();
        let last = m.size() - PAGE_SIZE;
        m.protect(last, u32::MAX, PageFlags::R);
        assert_eq!(m.flags_at(last), PageFlags::R);
        assert_eq!(m.flags_at(last - PAGE_SIZE), PageFlags::RWX);
        let before = m.pages.clone();
        m.protect(u32::MAX, 2, PageFlags::R);
        assert_eq!(m.pages, before);
    }

    #[test]
    fn clones_dropped_in_a_loop_leave_one_buffer_on_the_free_list() {
        // A size no other test here uses: the list is the process's.
        const SIZE: usize = 37 * PAGE_SIZE as usize;
        let mut m = Memory::new(SIZE as u32);
        m.protect(0x2000, 1, PageFlags::RW);
        m.write_u8(0x2000, 1).unwrap();
        for _ in 0..100 {
            let mut c = m.clone();
            c.write_u8(0x2000, 9).unwrap();
            assert_eq!(m.read_u8(0x2000), Ok(1));
        }
        let listed = free_list()
            .iter()
            .filter(|(bytes, _)| bytes.len() == SIZE)
            .count();
        assert_eq!(listed, 1);
    }

    #[test]
    fn cross_page_check() {
        let m = mem_with_binary();
        // A 4-byte read straddling the .bss page into unmapped space.
        let boundary = 0x3000 + 0x1000 - 2;
        assert!(m.read_u32(boundary).is_err());
        // Whereas straddling two mapped readable pages succeeds.
        assert!(m.read_u32(0x1000 + 0x1000 - 2).is_ok());
    }
}
