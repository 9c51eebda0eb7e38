//! The two-pass assembler.

use std::collections::HashMap;

use asc_isa::{Instruction, Opcode, Reg, INSTR_LEN};
use asc_object::{sections, Binary, Relocation, Section, SectionFlags, Symbol, SymbolKind};

use crate::lexer::{tokenize, AsmError, Line};

/// Page size used for section alignment (sections get distinct protection).
const PAGE: u32 = 0x1000;

/// Which of the four output sections an item was placed in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Sec {
    Text,
    Rodata,
    Data,
    Bss,
}

impl Sec {
    fn name(self) -> &'static str {
        match self {
            Sec::Text => sections::TEXT,
            Sec::Rodata => sections::RODATA,
            Sec::Data => sections::DATA,
            Sec::Bss => sections::BSS,
        }
    }

    fn flags(self) -> SectionFlags {
        match self {
            Sec::Text => SectionFlags::RX,
            Sec::Rodata => SectionFlags::RO,
            Sec::Data | Sec::Bss => SectionFlags::RW,
        }
    }

    const ALL: [Sec; 4] = [Sec::Text, Sec::Rodata, Sec::Data, Sec::Bss];
}

/// An operand expression: a constant or a symbol reference plus offset.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Expr {
    Num(i64),
    Sym(String, i64),
}

/// A placed item awaiting encoding.
#[derive(Clone, Debug)]
enum Item {
    Instr { line: usize, instr: ProtoInstr },
    Word { line: usize, expr: Expr },
    Byte { line: usize, expr: Expr },
    Ascii(Vec<u8>),
    Space(u32),
}

/// An instruction whose immediate may still reference a label.
#[derive(Clone, Debug)]
struct ProtoInstr {
    op: Opcode,
    rd: Reg,
    rs1: Reg,
    rs2: Reg,
    imm: Expr,
}

/// The assembler. Use [`assemble`] or [`assemble_many`] for the common
/// cases; the builder form exists so callers can assemble multiple sources
/// while controlling the entry symbol.
#[derive(Debug, Default)]
pub struct Assembler {
    sources: Vec<String>,
    entry_symbol: Option<String>,
}

/// Assembles a single source file into a relocatable binary.
///
/// # Errors
///
/// Returns an [`AsmError`] carrying the offending line on any syntax or
/// resolution failure.
pub fn assemble(source: &str) -> Result<Binary, AsmError> {
    let mut a = Assembler::new();
    a.push_source(source);
    a.finish()
}

/// Assembles several sources as one unit (shared label namespace), in order.
/// This is the "static linking" step of the toolchain: guest programs pass
/// their compiled code plus the mini-libc here.
///
/// # Errors
///
/// Returns an [`AsmError`] on any syntax or resolution failure. Line numbers
/// refer to the concatenation of the sources.
pub fn assemble_many<S: AsRef<str>>(sources: &[S]) -> Result<Binary, AsmError> {
    let mut a = Assembler::new();
    for s in sources {
        a.push_source(s.as_ref());
    }
    a.finish()
}

impl Assembler {
    /// A fresh assembler.
    pub fn new() -> Assembler {
        Assembler::default()
    }

    /// Adds a source file (appended to the unit).
    pub fn push_source(&mut self, source: &str) -> &mut Assembler {
        self.sources.push(source.to_string());
        self
    }

    /// Overrides the entry symbol (default: the `.entry` directive, else
    /// `main`, else the start of `.text`).
    pub fn entry_symbol(&mut self, name: impl Into<String>) -> &mut Assembler {
        self.entry_symbol = Some(name.into());
        self
    }

    /// Runs both passes and produces the binary.
    ///
    /// # Errors
    ///
    /// Returns an [`AsmError`] on any syntax or resolution failure.
    pub fn finish(&self) -> Result<Binary, AsmError> {
        let joined = self.sources.join("\n");
        let lines = tokenize(&joined)?;
        Pass::run(lines, self.entry_symbol.clone())
    }
}

struct Pass {
    items: HashMap<Sec, Vec<Item>>,
    offsets: HashMap<Sec, u32>,
    labels: HashMap<String, (Sec, u32)>,
    globals: Vec<String>,
    consts: HashMap<String, i64>,
    entry_directive: Option<String>,
}

fn parse_reg(s: &str, line: usize) -> Result<Reg, AsmError> {
    s.parse::<Reg>()
        .map_err(|e| AsmError::new(line, e.to_string()))
}

fn parse_int(s: &str) -> Option<i64> {
    let s = s.trim();
    if let Some(rest) = s.strip_prefix("'") {
        // character literal 'c' or '\n'
        let body = rest.strip_suffix('\'')?;
        let c = match body {
            "\\n" => b'\n',
            "\\t" => b'\t',
            "\\0" => 0,
            "\\\\" => b'\\',
            "\\'" => b'\'',
            _ => {
                let mut chars = body.chars();
                let c = chars.next()?;
                if chars.next().is_some() || !c.is_ascii() {
                    return None;
                }
                c as u8
            }
        };
        return Some(c as i64);
    }
    let (neg, body) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s.strip_prefix('+').unwrap_or(s)),
    };
    let value = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).ok()?
    } else {
        body.parse::<i64>().ok()?
    };
    Some(if neg { -value } else { value })
}

impl Pass {
    fn run(lines: Vec<Line>, entry_override: Option<String>) -> Result<Binary, AsmError> {
        let mut p = Pass {
            items: Sec::ALL.iter().map(|&s| (s, Vec::new())).collect(),
            offsets: Sec::ALL.iter().map(|&s| (s, 0)).collect(),
            labels: HashMap::new(),
            globals: Vec::new(),
            consts: HashMap::new(),
            entry_directive: None,
        };
        let mut cur = Sec::Text;
        for line in &lines {
            cur = p.handle_line(line, cur)?;
        }
        p.emit(entry_override)
    }

    fn offset(&mut self, sec: Sec) -> &mut u32 {
        self.offsets.get_mut(&sec).expect("all sections present")
    }

    fn push_item(&mut self, sec: Sec, item: Item, size: u32) {
        self.items
            .get_mut(&sec)
            .expect("all sections present")
            .push(item);
        *self.offset(sec) += size;
    }

    fn parse_expr(&self, s: &str, line: usize) -> Result<Expr, AsmError> {
        let s = s.trim();
        if let Some(n) = parse_int(s) {
            return Ok(Expr::Num(n));
        }
        if let Some(&n) = self.consts.get(s) {
            return Ok(Expr::Num(n));
        }
        // name, name+N, name-N
        let (name, off) = if let Some(plus) = s.rfind('+') {
            (&s[..plus], parse_int(&s[plus + 1..]))
        } else if let Some(minus) = s.rfind('-').filter(|&i| i > 0) {
            (&s[..minus], parse_int(&s[minus + 1..]).map(|n| -n))
        } else {
            (s, Some(0))
        };
        let name = name.trim();
        let off = off.ok_or_else(|| AsmError::new(line, format!("bad expression `{s}`")))?;
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '$' || c == '.')
        {
            return Err(AsmError::new(line, format!("bad expression `{s}`")));
        }
        if let Some(&n) = self.consts.get(name) {
            return Ok(Expr::Num(n + off));
        }
        Ok(Expr::Sym(name.to_string(), off))
    }

    /// Parses `[reg]`, `[reg+N]`, `[reg-N]`.
    fn parse_mem(&self, s: &str, line: usize) -> Result<(Reg, i32), AsmError> {
        let body = s
            .strip_prefix('[')
            .and_then(|x| x.strip_suffix(']'))
            .ok_or_else(|| AsmError::new(line, format!("expected memory operand, got `{s}`")))?
            .trim();
        let split = body.find(['+', '-']);
        let (reg_s, off) = match split {
            Some(i) => {
                let off_str = &body[i..];
                let off = parse_int(off_str)
                    .or_else(|| {
                        self.consts.get(off_str[1..].trim()).map(|&c| {
                            if off_str.starts_with('-') {
                                -c
                            } else {
                                c
                            }
                        })
                    })
                    .ok_or_else(|| AsmError::new(line, format!("bad offset `{off_str}`")))?;
                (&body[..i], off)
            }
            None => (body, 0),
        };
        let reg = parse_reg(reg_s.trim(), line)?;
        let off =
            i32::try_from(off).map_err(|_| AsmError::new(line, "memory offset out of range"))?;
        Ok((reg, off))
    }

    fn handle_line(&mut self, line: &Line, cur: Sec) -> Result<Sec, AsmError> {
        for label in &line.labels {
            let off = *self.offset(cur);
            if self.labels.insert(label.clone(), (cur, off)).is_some() {
                return Err(AsmError::new(
                    line.number,
                    format!("duplicate label `{label}`"),
                ));
            }
        }
        let Some(op) = &line.op else { return Ok(cur) };
        let n = line.number;
        let ops = &line.operands;
        match op.as_str() {
            ".text" => return Ok(Sec::Text),
            ".rodata" => return Ok(Sec::Rodata),
            ".data" => return Ok(Sec::Data),
            ".bss" => return Ok(Sec::Bss),
            ".global" | ".globl" => {
                let name = ops
                    .first()
                    .ok_or_else(|| AsmError::new(n, ".global needs a symbol"))?;
                self.globals.push(name.clone());
            }
            ".entry" => {
                let name = ops
                    .first()
                    .ok_or_else(|| AsmError::new(n, ".entry needs a symbol"))?;
                self.entry_directive = Some(name.clone());
            }
            ".equ" => {
                if ops.len() != 2 {
                    return Err(AsmError::new(n, ".equ needs `name, value`"));
                }
                let value = match self.parse_expr(&ops[1], n)? {
                    Expr::Num(v) => v,
                    Expr::Sym(..) => return Err(AsmError::new(n, ".equ value must be a constant")),
                };
                self.consts.insert(ops[0].clone(), value);
            }
            ".word" => {
                for operand in ops {
                    let expr = self.parse_expr(operand, n)?;
                    self.push_item(cur, Item::Word { line: n, expr }, 4);
                }
            }
            ".byte" => {
                for operand in ops {
                    let expr = self.parse_expr(operand, n)?;
                    self.push_item(cur, Item::Byte { line: n, expr }, 1);
                }
            }
            ".ascii" | ".asciz" => {
                let lit = ops
                    .first()
                    .ok_or_else(|| AsmError::new(n, "string directive needs a literal"))?;
                let mut bytes = parse_string(lit, n)?;
                if op == ".asciz" {
                    bytes.push(0);
                }
                let len = bytes.len() as u32;
                self.push_item(cur, Item::Ascii(bytes), len);
            }
            ".space" | ".skip" => {
                let size = match self.parse_expr(
                    ops.first()
                        .ok_or_else(|| AsmError::new(n, ".space needs a size"))?,
                    n,
                )? {
                    Expr::Num(v) if v >= 0 => v as u32,
                    _ => {
                        return Err(AsmError::new(
                            n,
                            ".space size must be a non-negative constant",
                        ))
                    }
                };
                self.push_item(cur, Item::Space(size), size);
            }
            ".align" => {
                let to = match self.parse_expr(
                    ops.first()
                        .ok_or_else(|| AsmError::new(n, ".align needs a value"))?,
                    n,
                )? {
                    Expr::Num(v) if v > 0 && (v & (v - 1)) == 0 => v as u32,
                    _ => return Err(AsmError::new(n, ".align needs a power of two")),
                };
                self.align(cur, to);
            }
            directive if directive.starts_with('.') => {
                return Err(AsmError::new(n, format!("unknown directive `{directive}`")));
            }
            mnemonic => {
                if cur != Sec::Text {
                    return Err(AsmError::new(n, "instructions only allowed in .text"));
                }
                let instr = self.parse_instr(mnemonic, ops, n)?;
                self.push_item(Sec::Text, Item::Instr { line: n, instr }, INSTR_LEN as u32);
            }
        }
        Ok(cur)
    }

    fn align(&mut self, sec: Sec, to: u32) {
        let off = *self.offset(sec);
        let pad = (to - off % to) % to;
        if pad > 0 {
            self.push_item(sec, Item::Space(pad), pad);
        }
    }

    fn parse_instr(
        &self,
        mnemonic: &str,
        ops: &[String],
        n: usize,
    ) -> Result<ProtoInstr, AsmError> {
        use Opcode::*;
        let zero = Reg::R0;
        let num0 = Expr::Num(0);
        let arity = |want: usize| -> Result<(), AsmError> {
            if ops.len() != want {
                Err(AsmError::new(
                    n,
                    format!("`{mnemonic}` expects {want} operand(s), got {}", ops.len()),
                ))
            } else {
                Ok(())
            }
        };
        let proto = |op, rd, rs1, rs2, imm| ProtoInstr {
            op,
            rd,
            rs1,
            rs2,
            imm,
        };
        let alu3 = |op| -> Result<ProtoInstr, AsmError> {
            arity(3)?;
            Ok(proto(
                op,
                parse_reg(&ops[0], n)?,
                parse_reg(&ops[1], n)?,
                parse_reg(&ops[2], n)?,
                num0.clone(),
            ))
        };
        let alui = |op| -> Result<ProtoInstr, AsmError> {
            arity(3)?;
            Ok(proto(
                op,
                parse_reg(&ops[0], n)?,
                parse_reg(&ops[1], n)?,
                zero,
                self.parse_expr(&ops[2], n)?,
            ))
        };
        let branch = |op| -> Result<ProtoInstr, AsmError> {
            arity(3)?;
            Ok(proto(
                op,
                zero,
                parse_reg(&ops[0], n)?,
                parse_reg(&ops[1], n)?,
                self.parse_expr(&ops[2], n)?,
            ))
        };
        match mnemonic {
            "nop" => {
                arity(0)?;
                Ok(proto(Nop, zero, zero, zero, num0))
            }
            "halt" => {
                arity(0)?;
                Ok(proto(Halt, zero, zero, zero, num0))
            }
            "ret" => {
                arity(0)?;
                Ok(proto(Ret, zero, zero, zero, num0))
            }
            "syscall" => {
                arity(0)?;
                Ok(proto(Syscall, zero, zero, zero, num0))
            }
            "movi" => {
                arity(2)?;
                Ok(proto(
                    Movi,
                    parse_reg(&ops[0], n)?,
                    zero,
                    zero,
                    self.parse_expr(&ops[1], n)?,
                ))
            }
            "mov" => {
                arity(2)?;
                Ok(proto(
                    Mov,
                    parse_reg(&ops[0], n)?,
                    parse_reg(&ops[1], n)?,
                    zero,
                    num0,
                ))
            }
            "add" => alu3(Add),
            "sub" => alu3(Sub),
            "mul" => alu3(Mul),
            "divu" => alu3(Divu),
            "remu" => alu3(Remu),
            "and" => alu3(And),
            "or" => alu3(Or),
            "xor" => alu3(Xor),
            "shl" => alu3(Shl),
            "shr" => alu3(Shr),
            "addi" => alui(Addi),
            "andi" => alui(Andi),
            "ori" => alui(Ori),
            "xori" => alui(Xori),
            "shli" => alui(Shli),
            "shri" => alui(Shri),
            "muli" => alui(Muli),
            "ldw" | "ldb" => {
                arity(2)?;
                let (rs1, off) = self.parse_mem(&ops[1], n)?;
                let op = if mnemonic == "ldw" { Ldw } else { Ldb };
                Ok(proto(
                    op,
                    parse_reg(&ops[0], n)?,
                    rs1,
                    zero,
                    Expr::Num(off as i64),
                ))
            }
            "stw" | "stb" => {
                arity(2)?;
                let (rs1, off) = self.parse_mem(&ops[0], n)?;
                let op = if mnemonic == "stw" { Stw } else { Stb };
                Ok(proto(
                    op,
                    zero,
                    rs1,
                    parse_reg(&ops[1], n)?,
                    Expr::Num(off as i64),
                ))
            }
            "push" => {
                arity(1)?;
                Ok(proto(Push, zero, parse_reg(&ops[0], n)?, zero, num0))
            }
            "pop" => {
                arity(1)?;
                Ok(proto(Pop, parse_reg(&ops[0], n)?, zero, zero, num0))
            }
            "jmp" => {
                arity(1)?;
                Ok(proto(Jmp, zero, zero, zero, self.parse_expr(&ops[0], n)?))
            }
            "jr" => {
                arity(1)?;
                Ok(proto(Jr, zero, parse_reg(&ops[0], n)?, zero, num0))
            }
            "call" => {
                arity(1)?;
                Ok(proto(Call, zero, zero, zero, self.parse_expr(&ops[0], n)?))
            }
            "callr" => {
                arity(1)?;
                Ok(proto(Callr, zero, parse_reg(&ops[0], n)?, zero, num0))
            }
            "beq" => branch(Beq),
            "bne" => branch(Bne),
            "blt" => branch(Blt),
            "bge" => branch(Bge),
            "bltu" => branch(Bltu),
            "bgeu" => branch(Bgeu),
            other => Err(AsmError::new(n, format!("unknown mnemonic `{other}`"))),
        }
    }

    fn emit(self, entry_override: Option<String>) -> Result<Binary, AsmError> {
        // Lay out sections page-aligned, in canonical order, skipping empties.
        let mut base = asc_object::LOAD_BASE;
        let mut sec_addr: HashMap<Sec, u32> = HashMap::new();
        let mut sec_index: HashMap<Sec, u32> = HashMap::new();
        let mut binary = Binary::new(0);
        for sec in Sec::ALL {
            let size = self.offsets[&sec];
            if size == 0 {
                continue;
            }
            sec_addr.insert(sec, base);
            let index = if sec == Sec::Bss {
                binary.push_section(Section::zeroed(sec.name(), base, size, sec.flags()))
            } else {
                binary.push_section(Section::new(
                    sec.name(),
                    base,
                    Vec::with_capacity(size as usize),
                    sec.flags(),
                ))
            };
            sec_index.insert(sec, index);
            base = (base + size).div_ceil(PAGE) * PAGE;
        }

        // Resolve an expression to a value, reporting whether it is an
        // address (needs a relocation).
        let resolve = |expr: &Expr, line: usize| -> Result<(u32, bool), AsmError> {
            match expr {
                Expr::Num(v) => Ok((*v as u32, false)),
                Expr::Sym(name, off) => {
                    let (sec, sec_off) = self
                        .labels
                        .get(name)
                        .ok_or_else(|| AsmError::new(line, format!("undefined symbol `{name}`")))?;
                    let addr = sec_addr[sec] as i64 + *sec_off as i64 + off;
                    Ok((addr as u32, true))
                }
            }
        };

        // Encode items.
        for sec in Sec::ALL {
            let Some(&index) = sec_index.get(&sec) else {
                continue;
            };
            let items = &self.items[&sec];
            if sec == Sec::Bss {
                for item in items {
                    if !matches!(item, Item::Space(_)) {
                        return Err(AsmError::new(0, ".bss may only contain .space/.align"));
                    }
                }
                continue;
            }
            let mut data = Vec::with_capacity(self.offsets[&sec] as usize);
            let mut relocs = Vec::new();
            for item in items {
                match item {
                    Item::Instr { line, instr } => {
                        let (imm, is_addr) = resolve(&instr.imm, *line)?;
                        if is_addr {
                            relocs.push(Relocation {
                                section: index,
                                offset: data.len() as u32 + 4,
                            });
                        }
                        let encoded = Instruction {
                            op: instr.op,
                            rd: instr.rd,
                            rs1: instr.rs1,
                            rs2: instr.rs2,
                            imm,
                        }
                        .encode();
                        data.extend_from_slice(&encoded);
                    }
                    Item::Word { line, expr } => {
                        let (value, is_addr) = resolve(expr, *line)?;
                        if is_addr {
                            relocs.push(Relocation {
                                section: index,
                                offset: data.len() as u32,
                            });
                        }
                        data.extend_from_slice(&value.to_le_bytes());
                    }
                    Item::Byte { line, expr } => {
                        let (value, is_addr) = resolve(expr, *line)?;
                        if is_addr {
                            return Err(AsmError::new(*line, ".byte cannot hold an address"));
                        }
                        data.push(value as u8);
                    }
                    Item::Ascii(bytes) => data.extend_from_slice(bytes),
                    Item::Space(size) => data.extend(std::iter::repeat_n(0u8, *size as usize)),
                }
            }
            let section = &mut binary.sections_mut()[index as usize];
            section.mem_size = data.len() as u32;
            section.data = data;
            for r in relocs {
                binary.push_relocation(r);
            }
        }

        // Symbols, in (address, name) order so the binary is a pure
        // function of the source, not of the label map's iteration order.
        // Labels starting with '.' are local (assembler-internal or
        // compiler-generated) and are not exported.
        let mut symbols: Vec<Symbol> = self
            .labels
            .iter()
            .filter(|(name, _)| !name.starts_with('.'))
            .filter_map(|(name, (sec, off))| {
                let kind = if *sec == Sec::Text {
                    SymbolKind::Func
                } else {
                    SymbolKind::Object
                };
                Some(Symbol {
                    name: name.clone(),
                    addr: sec_addr.get(sec)? + off,
                    kind,
                })
            })
            .collect();
        symbols.sort_by(|a, b| (a.addr, &a.name).cmp(&(b.addr, &b.name)));
        for symbol in symbols {
            binary.push_symbol(symbol);
        }

        // Entry point.
        let entry_name = entry_override
            .or(self.entry_directive)
            .unwrap_or_else(|| "main".to_string());
        let entry = match binary.symbol(&entry_name) {
            Some(sym) => sym.addr,
            None => sec_addr
                .get(&Sec::Text)
                .copied()
                .unwrap_or(asc_object::LOAD_BASE),
        };
        binary.set_entry(entry);
        binary.set_relocatable(true);
        binary
            .validate()
            .map_err(|e| AsmError::new(0, format!("internal layout error: {e}")))?;
        Ok(binary)
    }
}

fn parse_string(lit: &str, line: usize) -> Result<Vec<u8>, AsmError> {
    let body = lit
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| AsmError::new(line, "expected string literal"))?;
    let mut out = Vec::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            let esc = chars
                .next()
                .ok_or_else(|| AsmError::new(line, "dangling escape in string"))?;
            out.push(match esc {
                'n' => b'\n',
                't' => b'\t',
                'r' => b'\r',
                '0' => 0,
                '\\' => b'\\',
                '"' => b'"',
                other => return Err(AsmError::new(line, format!("unknown escape `\\{other}`"))),
            });
        } else if c.is_ascii() {
            out.push(c as u8);
        } else {
            return Err(AsmError::new(line, "non-ASCII character in string"));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asc_isa::Instruction as I;

    fn text_instrs(b: &Binary) -> Vec<Instruction> {
        let text = b.section_by_name(".text").unwrap();
        text.data
            .chunks_exact(INSTR_LEN)
            .map(|c| Instruction::decode(c).unwrap())
            .collect()
    }

    #[test]
    fn hello_layout() {
        let b = assemble(
            r#"
            .text
            .entry main
        main:
            movi r1, msg
            movi r2, 6
            movi r0, 4      ; SYS_write-ish
            syscall
            halt
            .rodata
        msg: .asciz "hello"
            .data
        ptr: .word msg
            .bss
        buf: .space 32
        "#,
        )
        .unwrap();
        assert_eq!(b.sections().len(), 4);
        let text = b.section_by_name(".text").unwrap();
        assert_eq!(text.addr, 0x1000);
        assert_eq!(text.data.len(), 5 * INSTR_LEN);
        let rodata = b.section_by_name(".rodata").unwrap();
        assert_eq!(rodata.addr, 0x2000);
        assert_eq!(rodata.data, b"hello\0");
        let instrs = text_instrs(&b);
        assert_eq!(instrs[0], I::movi(Reg::R1, 0x2000));
        // Two relocations: movi r1, msg and ptr: .word msg.
        assert_eq!(b.relocations().len(), 2);
        let data = b.section_by_name(".data").unwrap();
        assert_eq!(&data.data[..4], &0x2000u32.to_le_bytes());
        assert_eq!(b.entry(), b.symbol("main").unwrap().addr);
        assert_eq!(
            b.symbol("buf").unwrap().addr,
            b.section_by_name(".bss").unwrap().addr
        );
    }

    #[test]
    fn equ_and_char_literals() {
        let b = assemble(
            "
            .equ SYS_EXIT, 1
            .text
        main:
            movi r0, SYS_EXIT
            movi r1, 'A'
            syscall
        ",
        )
        .unwrap();
        let instrs = text_instrs(&b);
        assert_eq!(instrs[0].imm, 1);
        assert_eq!(instrs[1].imm, 65);
        assert!(b.relocations().is_empty());
    }

    #[test]
    fn memory_operands_and_negative_offsets() {
        let b = assemble(
            "
            .text
        main:
            addi sp, sp, -16
            stw [sp+4], r1
            ldw r2, [sp+4]
            ldb r3, [r2]
            stb [fp-1], r3
            ret
        ",
        )
        .unwrap();
        let instrs = text_instrs(&b);
        assert_eq!(instrs[0].simm(), -16);
        assert_eq!(instrs[1], I::stw(Reg::SP, 4, Reg::R1));
        assert_eq!(instrs[3], I::ldb(Reg::R3, Reg::R2, 0));
        assert_eq!(instrs[4], I::stb(Reg::FP, -1, Reg::R3));
    }

    #[test]
    fn branches_and_calls_relocate() {
        let b = assemble(
            "
            .text
        main:
            movi r1, 0
        loop:
            addi r1, r1, 1
            movi r2, 10
            bne r1, r2, loop
            call helper
            halt
        helper:
            ret
        ",
        )
        .unwrap();
        let instrs = text_instrs(&b);
        let loop_addr = b.symbol("loop").unwrap().addr;
        let helper_addr = b.symbol("helper").unwrap().addr;
        assert_eq!(instrs[3].imm, loop_addr);
        assert_eq!(instrs[4].imm, helper_addr);
        assert_eq!(b.relocations().len(), 2);
        for r in b.relocations() {
            let v = b.reloc_value(*r);
            assert!(v == loop_addr || v == helper_addr);
        }
    }

    #[test]
    fn errors_report_lines() {
        let err = assemble("\n\n  bogus r1\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("bogus"));
        assert!(assemble("movi r0")
            .unwrap_err()
            .message
            .contains("expects 2"));
        assert!(assemble("jmp nowhere\n")
            .unwrap_err()
            .message
            .contains("undefined symbol"));
        assert!(assemble("a: halt\na: halt\n")
            .unwrap_err()
            .message
            .contains("duplicate"));
        assert!(assemble(".data\nx: movi r0, 1\n")
            .unwrap_err()
            .message
            .contains("only allowed in .text"));
        assert!(assemble(".bss\n.word 5\n").is_err());
    }

    #[test]
    fn assemble_many_links_symbols_across_sources() {
        let prog = "
            .text
        main:
            call libfn
            halt
        ";
        let lib = "
            .text
        libfn:
            movi r0, 42
            ret
        ";
        let b = assemble_many(&[prog, lib]).unwrap();
        let instrs = text_instrs(&b);
        assert_eq!(instrs[0].imm, b.symbol("libfn").unwrap().addr);
    }

    #[test]
    fn word_alignment() {
        let b = assemble(
            "
            .text
        main: halt
            .data
        s: .byte 1
            .align 4
        w: .word 0x11223344
        ",
        )
        .unwrap();
        let w = b.symbol("w").unwrap().addr;
        assert_eq!(w % 4, 0);
        let data = b.section_by_name(".data").unwrap();
        let off = (w - data.addr) as usize;
        assert_eq!(&data.data[off..off + 4], &0x11223344u32.to_le_bytes());
    }

    #[test]
    fn label_plus_offset() {
        let b = assemble(
            "
            .text
        main:
            movi r1, table+8
            halt
            .data
        table: .space 16
        ",
        )
        .unwrap();
        let instrs = text_instrs(&b);
        assert_eq!(instrs[0].imm, b.symbol("table").unwrap().addr + 8);
        assert_eq!(b.relocations().len(), 1);
    }
}
