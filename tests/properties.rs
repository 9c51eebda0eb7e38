//! Property-based tests across crate boundaries: encoding round trips,
//! cryptographic tamper-evidence, pattern soundness, and the assembler/
//! disassembler agreement. Cases are drawn from `asc-testkit`'s seeded
//! generator so the suite is deterministic and dependency-free.

use asc::core::{encode_call, EncodedArg, EncodedCall, Pattern, PolicyDescriptor};
use asc::crypto::{AuthenticatedString, CapabilitySet, Cmac, MacKey};
use asc::isa::{Instruction, Opcode, Reg};
use asc::object::{Binary, Relocation, Section, SectionFlags, Symbol, SymbolKind};
use asc_testkit::{check, Rng};
use std::collections::BTreeSet;

fn random_instruction(rng: &mut Rng) -> Instruction {
    Instruction {
        op: Opcode::from_byte(rng.range_u32(0, 39) as u8).expect("in range"),
        rd: Reg::new(rng.range_u32(0, 16) as u8),
        rs1: Reg::new(rng.range_u32(0, 16) as u8),
        rs2: Reg::new(rng.range_u32(0, 16) as u8),
        imm: rng.next_u32(),
    }
}

#[test]
fn instruction_encode_decode_roundtrip() {
    check(0x150a, 256, |rng| {
        let instr = random_instruction(rng);
        let decoded = Instruction::decode(&instr.encode()).unwrap();
        assert_eq!(decoded, instr);
    });
}

#[test]
fn cmac_distinguishes_messages() {
    check(0xc3ac, 64, |rng| {
        let a = rng.bytes(0, 200);
        let b = rng.bytes(0, 200);
        let key = MacKey::from_seed(1);
        let ma = key.mac(&a);
        let mb = key.mac(&b);
        assert_eq!(a == b, ma == mb);
    });
}

#[test]
fn cmac_block_count_formula() {
    check(0xb10c, 128, |rng| {
        let len = rng.range_usize(0, 5000);
        let blocks = Cmac::blocks_for_len(len);
        assert_eq!(blocks, std::cmp::max(1, len.div_ceil(16)) as u64);
    });
}

#[test]
fn authenticated_string_tamper_evident() {
    check(0x7a3e, 64, |rng| {
        let contents = rng.bytes(1, 100);
        let key = MacKey::from_seed(7);
        let s = AuthenticatedString::build(&key, contents);
        assert!(s.verify(&key));
        let mut bytes = s.to_bytes();
        // Any byte after the length field must be covered.
        let idx = rng.range_usize(4, bytes.len());
        bytes[idx] ^= 1;
        let parsed = AuthenticatedString::parse(&bytes).unwrap();
        assert!(!parsed.verify(&key), "flip at {idx} must be detected");
    });
}

#[test]
fn capability_set_roundtrip() {
    check(0xca55, 64, |rng| {
        let values: BTreeSet<u32> = (0..rng.range_usize(0, 50))
            .map(|_| rng.next_u32())
            .collect();
        let set: CapabilitySet = values.iter().copied().collect();
        assert!(set.iter().eq(values.iter().copied()), "sorted order");
        let key = MacKey::from_seed(0xca55);
        assert_eq!(CapabilitySet::open(&set.seal(&key), &key), Ok(set.clone()));
        for v in &values {
            assert!(set.contains(*v));
        }
        assert_eq!(set.len(), values.len());
    });
}

#[test]
fn encoded_call_mac_tamper_evident() {
    check(0xeca1, 64, |rng| {
        let nr = rng.next_u32() as u16;
        let site = rng.next_u32();
        let block = rng.next_u32();
        let imm = rng.next_u32();
        let delta = rng.range_u32(1, u32::MAX);
        let key = MacKey::from_seed(3);
        let call = EncodedCall {
            syscall_nr: nr,
            descriptor: PolicyDescriptor::new()
                .with_call_site()
                .with_immediate_arg(0),
            call_site: site,
            block_id: block,
            args: [
                Some(EncodedArg::Immediate(imm)),
                None,
                None,
                None,
                None,
                None,
            ],
            pred_set: None,
            lb_ptr: None,
        };
        let mac = call.mac(&key);
        let mut tampered = call;
        tampered.args[0] = Some(EncodedArg::Immediate(imm.wrapping_add(delta)));
        assert_ne!(tampered.mac(&key), mac);
        let mut moved = call;
        moved.call_site = site.wrapping_add(delta);
        assert_ne!(moved.mac(&key), mac);
    });
}

#[test]
fn encoding_is_deterministic_and_injective_on_args() {
    check(0x13c7, 128, |rng| {
        let a = rng.next_u32();
        // Mix equal and unequal pairs.
        let b = if rng.chance(1, 4) { a } else { rng.next_u32() };
        let mk = |v| EncodedCall {
            syscall_nr: 1,
            descriptor: PolicyDescriptor::new().with_immediate_arg(0),
            call_site: 0,
            block_id: 0,
            args: [Some(EncodedArg::Immediate(v)), None, None, None, None, None],
            pred_set: None,
            lb_ptr: None,
        };
        assert_eq!(encode_call(&mk(a)) == encode_call(&mk(b)), a == b);
    });
}

#[test]
fn pattern_hint_soundness() {
    check(0x9a77, 64, |rng| {
        let prefix = rng.lowercase(0, 7);
        let choice = *rng.pick(&["foo", "bar", "qux"]);
        let middle = rng.lowercase(0, 9);
        let suffix = rng.lowercase(0, 7);
        // Build an input that matches pattern  prefix{foo,bar,qux}*suffix.
        let pattern = Pattern::parse(&format!("{prefix}{{foo,bar,qux}}*{suffix}")).unwrap();
        let input = format!("{prefix}{choice}{middle}{suffix}");
        let hint = pattern.produce_hint(input.as_bytes());
        assert!(hint.is_some(), "matching input must produce a hint");
        assert!(pattern.match_with_hint(input.as_bytes(), &hint.unwrap()));
        // A hint-carrying claim about a non-matching input must not pass
        // unless the input genuinely matches.
        let bad = format!("{prefix}z{choice}{middle}{suffix}X");
        if let Some(h) = pattern.produce_hint(bad.as_bytes()) {
            assert!(pattern.match_with_hint(bad.as_bytes(), &h));
        }
    });
}

#[test]
fn sof_roundtrip() {
    check(0x50f0, 64, |rng| {
        let entry = rng.next_u32();
        let text = rng.bytes(0, 256);
        let data = rng.bytes(0, 128);
        let nsyms = rng.range_usize(0, 5);
        let mut b = Binary::new(entry);
        b.set_relocatable(true);
        let ti = b.push_section(Section::new(
            ".text",
            0x1000,
            text.clone(),
            SectionFlags::RX,
        ));
        b.push_section(Section::new(".data", 0x8000, data, SectionFlags::RW));
        for i in 0..nsyms {
            b.push_symbol(Symbol {
                name: format!("sym{i}"),
                addr: 0x1000 + i as u32,
                kind: if i % 2 == 0 {
                    SymbolKind::Func
                } else {
                    SymbolKind::Object
                },
            });
        }
        if text.len() >= 4 {
            b.push_relocation(Relocation {
                section: ti,
                offset: 0,
            });
        }
        let parsed = Binary::from_bytes(&b.to_bytes()).unwrap();
        assert_eq!(parsed, b);
    });
}

#[test]
fn sof_parser_never_panics() {
    check(0x50f1, 128, |rng| {
        let bytes = rng.bytes(0, 300);
        let _ = Binary::from_bytes(&bytes);
    });
}

#[test]
fn assembler_roundtrips_constants() {
    check(0xa53b, 32, |rng| {
        let v = rng.next_u32();
        let src = format!(".text\nmain:\n    movi r3, {v}\n    halt\n");
        let b = asc::asm::assemble(&src).unwrap();
        let text = b.section_by_name(".text").unwrap();
        let i = Instruction::decode(&text.data[..8]).unwrap();
        assert_eq!(i, Instruction::movi(Reg::R3, v));
    });
}

#[test]
fn compiled_expressions_match_host_arithmetic() {
    // Differential test: random expression trees evaluated by the guest
    // must agree with host evaluation.
    let mut rng = Rng::new(42);
    for _ in 0..25 {
        let a: u32 = rng.range_u32(0, 1000);
        let b: u32 = rng.range_u32(1, 1000);
        let c: u32 = rng.range_u32(0, 1000);
        let shift: u32 = rng.range_u32(0, 8);
        let expr = format!("(({a} + {b}) * {c} ^ ({a} >> {shift})) % 251 + ({b} / 7) % 64");
        let host = ((a.wrapping_add(b).wrapping_mul(c)) ^ (a >> shift)) % 251 + (b / 7) % 64;
        let src = format!("fn main() {{ return {expr}; }}");
        let binary = asc::workloads::build_source(&src, asc::kernel::Personality::Linux).unwrap();
        let mut kernel = asc::kernel::Kernel::new(asc::kernel::KernelOptions::plain(
            asc::kernel::Personality::Linux,
        ));
        kernel.set_brk(binary.highest_addr());
        let mut machine = asc::vm::Machine::load(&binary, kernel).unwrap();
        let outcome = machine.run(1_000_000);
        assert_eq!(outcome, asc::vm::RunOutcome::Exited(host), "{expr}");
    }
}
