//! The in-memory model of a SOF binary.

/// Access permissions of a loaded section.
///
/// `Exec`-but-writable combinations are representable on purpose: the
/// simulated machine predates NX-style protections (the paper's attacks
/// execute shellcode from a stack buffer), and sections like `.asc` must be
/// writable so the kernel can update the policy state inside the
/// application's address space.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SectionFlags(u8);

impl SectionFlags {
    /// Readable.
    pub const READ: SectionFlags = SectionFlags(1);
    /// Writable.
    pub const WRITE: SectionFlags = SectionFlags(2);
    /// Executable.
    pub const EXEC: SectionFlags = SectionFlags(4);
    /// Read + execute (code).
    pub const RX: SectionFlags = SectionFlags(1 | 4);
    /// Read + write (data).
    pub const RW: SectionFlags = SectionFlags(1 | 2);
    /// Read only (constants).
    pub const RO: SectionFlags = SectionFlags(1);

    /// Raw bits.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Reconstructs from raw bits (extra bits are masked off).
    pub fn from_bits(bits: u8) -> SectionFlags {
        SectionFlags(bits & 0x7)
    }

    /// Whether all flags in `other` are set.
    pub fn contains(self, other: SectionFlags) -> bool {
        self.0 & other.0 == other.0
    }
}

impl std::ops::BitOr for SectionFlags {
    type Output = SectionFlags;
    fn bitor(self, rhs: SectionFlags) -> SectionFlags {
        SectionFlags(self.0 | rhs.0)
    }
}

/// A named, loadable region of the binary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Section {
    /// Section name (".text", ".data", ...).
    pub name: String,
    /// Load address of the first byte.
    pub addr: u32,
    /// Initialised contents. For `.bss`-style sections this may be shorter
    /// than [`Section::mem_size`].
    pub data: Vec<u8>,
    /// Total size in memory; bytes beyond `data.len()` are zero-filled at
    /// load time. Always `>= data.len()`.
    pub mem_size: u32,
    /// Access permissions.
    pub flags: SectionFlags,
}

impl Section {
    /// A fully initialised section (`mem_size == data.len()`).
    pub fn new(name: impl Into<String>, addr: u32, data: Vec<u8>, flags: SectionFlags) -> Section {
        let mem_size = data.len() as u32;
        Section {
            name: name.into(),
            addr,
            data,
            mem_size,
            flags,
        }
    }

    /// A zero-filled section of `size` bytes with no initialised data.
    pub fn zeroed(name: impl Into<String>, addr: u32, size: u32, flags: SectionFlags) -> Section {
        Section {
            name: name.into(),
            addr,
            data: Vec::new(),
            mem_size: size,
            flags,
        }
    }

    /// Address one past the last byte, saturating at `u32::MAX` for a
    /// section that reaches past 4 GiB (the loader rejects such a
    /// section as out of range).
    pub fn end(&self) -> u32 {
        self.addr.saturating_add(self.mem_size)
    }

    /// Whether `addr` falls inside this section.
    pub fn contains_addr(&self, addr: u32) -> bool {
        addr >= self.addr && addr < self.end()
    }
}

/// Kind of a symbol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SymbolKind {
    /// A function entry point.
    Func,
    /// A data object.
    Object,
}

/// A named address in the binary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Symbol {
    /// Symbol name.
    pub name: String,
    /// Address the name refers to.
    pub addr: u32,
    /// Function or data.
    pub kind: SymbolKind,
}

/// Marks a 4-byte little-endian field that stores an address into the
/// binary and therefore must be fixed up whenever the installer moves code
/// or data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Relocation {
    /// Index of the section containing the field.
    pub section: u32,
    /// Byte offset of the field within that section's data.
    pub offset: u32,
}

/// A complete SOF binary.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Binary {
    entry: u32,
    sections: Vec<Section>,
    symbols: Vec<Symbol>,
    relocations: Vec<Relocation>,
    /// Installer-assigned program identifier (0 = unassigned). Used for the
    /// Frankenstein countermeasure: folded into basic block ids so
    /// predecessor sets never match blocks of another program.
    program_id: u16,
    /// Whether the installer has rewritten this binary with authenticated
    /// system calls.
    authenticated: bool,
    /// Whether the binary carries (possibly empty) relocation information.
    /// The assembler sets this; stripping clears it. Mirrors the paper's
    /// PLTO requirement that inputs be relocatable.
    relocatable: bool,
}

impl Binary {
    /// An empty binary with the given entry point.
    pub fn new(entry: u32) -> Binary {
        Binary {
            entry,
            ..Binary::default()
        }
    }

    /// Entry-point address.
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// Sets the entry-point address.
    pub fn set_entry(&mut self, entry: u32) {
        self.entry = entry;
    }

    /// The sections, in load order.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Mutable access to the sections (used by the installer's rewriter).
    pub fn sections_mut(&mut self) -> &mut [Section] {
        &mut self.sections
    }

    /// Appends a section and returns its index.
    pub fn push_section(&mut self, section: Section) -> u32 {
        self.sections.push(section);
        (self.sections.len() - 1) as u32
    }

    /// Looks up a section by name.
    pub fn section_by_name(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// Index of a section by name.
    pub fn section_index(&self, name: &str) -> Option<u32> {
        self.sections
            .iter()
            .position(|s| s.name == name)
            .map(|i| i as u32)
    }

    /// The section containing `addr`, if any.
    pub fn section_at(&self, addr: u32) -> Option<&Section> {
        self.sections.iter().find(|s| s.contains_addr(addr))
    }

    /// The symbols.
    pub fn symbols(&self) -> &[Symbol] {
        &self.symbols
    }

    /// Adds a symbol.
    pub fn push_symbol(&mut self, symbol: Symbol) {
        self.symbols.push(symbol);
    }

    /// Looks up a symbol by name.
    pub fn symbol(&self, name: &str) -> Option<&Symbol> {
        self.symbols.iter().find(|s| s.name == name)
    }

    /// The relocations.
    pub fn relocations(&self) -> &[Relocation] {
        &self.relocations
    }

    /// Adds a relocation.
    pub fn push_relocation(&mut self, relocation: Relocation) {
        self.relocations.push(relocation);
    }

    /// Drops all relocations (the installer's output is non-relocatable).
    pub fn strip_relocations(&mut self) {
        self.relocations.clear();
        self.relocatable = false;
    }

    /// Marks the binary as carrying relocation information (the assembler
    /// calls this even when no relocations were needed).
    pub fn set_relocatable(&mut self, value: bool) {
        self.relocatable = value;
    }

    /// Whether the binary carries relocation information.
    pub fn is_relocatable(&self) -> bool {
        self.relocatable || !self.relocations.is_empty()
    }

    /// Reads the 4-byte field a relocation points at.
    ///
    /// # Panics
    ///
    /// Panics if the relocation is out of bounds (malformed binary).
    pub fn reloc_value(&self, reloc: Relocation) -> u32 {
        let data = &self.sections[reloc.section as usize].data;
        let off = reloc.offset as usize;
        u32::from_le_bytes(data[off..off + 4].try_into().expect("4 bytes"))
    }

    /// Installer-assigned program id (0 if not installed).
    pub fn program_id(&self) -> u16 {
        self.program_id
    }

    /// Sets the program id.
    pub fn set_program_id(&mut self, id: u16) {
        self.program_id = id;
    }

    /// Whether the installer has authenticated this binary.
    pub fn is_authenticated(&self) -> bool {
        self.authenticated
    }

    /// Marks the binary as authenticated.
    pub fn set_authenticated(&mut self, value: bool) {
        self.authenticated = value;
    }

    /// Address one past the highest section byte (conventional initial
    /// program break).
    pub fn highest_addr(&self) -> u32 {
        self.sections
            .iter()
            .map(Section::end)
            .max()
            .unwrap_or(super::LOAD_BASE)
    }

    /// Checks structural invariants: sections sorted by address and
    /// non-overlapping, relocations in bounds, `mem_size >= data.len()`.
    pub fn validate(&self) -> Result<(), String> {
        for w in self.sections.windows(2) {
            // In `u64`: a section reaching past 4 GiB overlaps any successor.
            if u64::from(w[1].addr) < u64::from(w[0].addr) + u64::from(w[0].mem_size) {
                return Err(format!(
                    "sections `{}` and `{}` overlap or are unsorted",
                    w[0].name, w[1].name
                ));
            }
        }
        for s in &self.sections {
            if (s.mem_size as usize) < s.data.len() {
                return Err(format!("section `{}` mem_size smaller than data", s.name));
            }
        }
        for (i, r) in self.relocations.iter().enumerate() {
            let Some(sec) = self.sections.get(r.section as usize) else {
                return Err(format!(
                    "relocation {i} references missing section {}",
                    r.section
                ));
            };
            if r.offset as usize + 4 > sec.data.len() {
                return Err(format!("relocation {i} out of bounds in `{}`", sec.name));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Binary {
        let mut b = Binary::new(0x1000);
        b.push_section(Section::new(
            ".text",
            0x1000,
            vec![0u8; 32],
            SectionFlags::RX,
        ));
        b.push_section(Section::new(
            ".data",
            0x2000,
            vec![1, 2, 3, 4],
            SectionFlags::RW,
        ));
        b.push_section(Section::zeroed(".bss", 0x3000, 64, SectionFlags::RW));
        b.push_symbol(Symbol {
            name: "main".into(),
            addr: 0x1000,
            kind: SymbolKind::Func,
        });
        b.push_symbol(Symbol {
            name: "helper".into(),
            addr: 0x1010,
            kind: SymbolKind::Func,
        });
        b.push_relocation(Relocation {
            section: 0,
            offset: 4,
        });
        b
    }

    #[test]
    fn section_lookup() {
        let b = sample();
        assert_eq!(b.section_by_name(".data").unwrap().addr, 0x2000);
        assert!(b.section_by_name(".asc").is_none());
        assert_eq!(b.section_at(0x1010).unwrap().name, ".text");
        assert_eq!(b.section_at(0x3030).unwrap().name, ".bss");
        assert!(b.section_at(0x5000).is_none());
        assert_eq!(b.section_index(".bss"), Some(2));
    }

    #[test]
    fn validation_catches_overlap() {
        let mut b = sample();
        b.push_section(Section::new(".bad", 0x2002, vec![0; 8], SectionFlags::RW));
        assert!(b.validate().is_err());
        assert!(sample().validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_reloc() {
        let mut b = sample();
        b.push_relocation(Relocation {
            section: 0,
            offset: 30,
        });
        assert!(b.validate().is_err());
        let mut b2 = sample();
        b2.push_relocation(Relocation {
            section: 9,
            offset: 0,
        });
        assert!(b2.validate().is_err());
    }

    #[test]
    fn highest_addr_and_flags() {
        let b = sample();
        assert_eq!(b.highest_addr(), 0x3000 + 64);
        assert!(SectionFlags::RX.contains(SectionFlags::EXEC));
        assert!(!SectionFlags::RO.contains(SectionFlags::WRITE));
        assert_eq!((SectionFlags::READ | SectionFlags::WRITE), SectionFlags::RW);
    }
}
