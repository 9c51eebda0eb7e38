//! Enumerates the verifier-trusted artifacts of an installed binary.
//!
//! The installer rewrites every system-call site into a prologue of
//! `movi` loads (string-argument pointers, then `R7` = policy
//! descriptor, `R8` = block id, `R9` = predecessor-set pointer, `R10` =
//! policy-state pointer, `R11` = call-MAC slot) followed by the
//! `syscall` trap. Scanning `.text` for those prologues recovers, from
//! the binary alone, the exact set of memory locations the kernel's
//! verifier will read — which is precisely the fault-injection surface.

use std::collections::{BTreeMap, BTreeSet};

use asc_crypto::AS_HEADER_LEN;
use asc_isa::{Instruction, Opcode, INSTR_LEN};
use asc_object::{sections, Binary};

/// An authenticated blob (string or predecessor set) in `.asc`.
///
/// The pointer aims at the contents; the `len ‖ mac` header occupies
/// the 20 bytes below `contents_addr`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Blob {
    /// Address of the blob contents.
    pub contents_addr: u32,
    /// Contents length in bytes (including any trailing NUL).
    pub len: u32,
}

/// Every verifier-trusted artifact found in an installed binary.
#[derive(Clone, Debug, Default)]
pub struct Inventory {
    /// First address of the `.asc` section.
    pub asc_start: u32,
    /// One past the last initialised `.asc` byte.
    pub asc_end: u32,
    /// Address of the 20-byte `lastBlock ‖ lbMAC` policy-state cell.
    pub state_cell: Option<u32>,
    /// Addresses of the 16-byte call-MAC slots (one per site).
    pub mac_slots: Vec<u32>,
    /// Authenticated string-argument blobs (deduplicated).
    pub string_blobs: Vec<Blob>,
    /// Predecessor-set blobs with at least one entry.
    pub pred_blobs: Vec<Blob>,
    /// Addresses of the 4-byte immediate fields of rewritten `movi`
    /// instructions whose loaded value the verifier trusts.
    pub imm_fields: Vec<u32>,
    /// `(address, opcode byte)` of every decodable non-`syscall`
    /// instruction *outside* rewritten prologues — where a gadget-jump
    /// fault can plant a raw `syscall` the installer never registered.
    pub gadget_targets: Vec<(u32, u8)>,
    /// Addresses of the `movi` instructions *inside* rewritten
    /// prologues — where a stub-smuggle fault traps one instruction
    /// early, adjacent to (but distinct from) the registered site pc.
    pub prologue_movis: Vec<u32>,
    /// Number of authenticated call sites found.
    pub sites: usize,
}

/// Scans an installed binary's `.text` for authenticated call
/// prologues and returns the artifact inventory.
///
/// A site counts as authenticated when its contiguous pre-`syscall`
/// `movi` run loads both `R7` (descriptor) and `R11` (MAC slot inside
/// `.asc`); unrewritten sites are skipped. Blob lengths are read back
/// from the authenticated-string headers in the `.asc` section data.
pub fn scan(binary: &Binary) -> Inventory {
    let (Some(text), Some(asc)) = (
        binary.section_by_name(sections::TEXT),
        binary.section_by_name(sections::ASC),
    ) else {
        return Inventory::default();
    };
    let asc_start = asc.addr;
    let asc_end = asc.addr + asc.data.len() as u32;
    let in_asc = |addr: u32| addr >= asc_start && addr < asc_end;
    // Reads a blob's length out of the `len ‖ mac` header below the
    // contents pointer; rejects pointers whose header or contents fall
    // outside the initialised section data.
    let blob_len = |contents: u32| -> Option<u32> {
        let header = contents.checked_sub(AS_HEADER_LEN as u32)?;
        if !in_asc(contents) || header < asc_start {
            return None;
        }
        let off = (header - asc_start) as usize;
        let len = u32::from_le_bytes(asc.data[off..off + 4].try_into().ok()?);
        (len > 0 && contents.checked_add(len)? <= asc_end).then_some(len)
    };

    let mut inv = Inventory {
        asc_start,
        asc_end,
        ..Inventory::default()
    };
    let mut mac_slots = BTreeSet::new();
    let mut strings = BTreeMap::new();
    let mut preds = BTreeMap::new();
    let mut imms = BTreeSet::new();
    let mut prologue_offsets: BTreeSet<usize> = BTreeSet::new();

    let data = &text.data;
    let mut i = 0;
    while i + INSTR_LEN <= data.len() {
        let is_syscall = Instruction::decode(&data[i..i + INSTR_LEN])
            .map(|instr| instr.op == Opcode::Syscall)
            .unwrap_or(false);
        if is_syscall {
            // Walk back over the contiguous movi run. Scanning backwards,
            // the first movi seen per destination register is the latest
            // one executed, which is the value live at the trap.
            let mut loads: BTreeMap<usize, (u32, u32)> = BTreeMap::new();
            let mut run_offsets = Vec::new();
            let mut j = i;
            while j >= INSTR_LEN {
                j -= INSTR_LEN;
                match Instruction::decode(&data[j..j + INSTR_LEN]) {
                    Ok(instr) if instr.op == Opcode::Movi => {
                        let imm_field = text.addr + j as u32 + 4;
                        run_offsets.push(j);
                        loads
                            .entry(instr.rd.index())
                            .or_insert((instr.imm, imm_field));
                    }
                    _ => break,
                }
            }
            if let (Some(&(mac_addr, r11_field)), Some(&(_, r7_field))) =
                (loads.get(&11), loads.get(&7))
            {
                if in_asc(mac_addr) {
                    inv.sites += 1;
                    prologue_offsets.extend(run_offsets.iter().copied());
                    mac_slots.insert(mac_addr);
                    imms.insert(r7_field);
                    imms.insert(r11_field);
                    if let Some(&(_, field)) = loads.get(&8) {
                        imms.insert(field);
                    }
                    if let Some(&(pred_ptr, field)) = loads.get(&9) {
                        if pred_ptr != 0 {
                            imms.insert(field);
                            if let Some(len) = blob_len(pred_ptr) {
                                preds.insert(pred_ptr, len);
                            }
                        }
                    }
                    if let Some(&(lb_ptr, field)) = loads.get(&10) {
                        if lb_ptr != 0 {
                            inv.state_cell = Some(lb_ptr);
                            imms.insert(field);
                        }
                    }
                    for arg in 1..=6 {
                        if let Some(&(ptr, field)) = loads.get(&arg) {
                            if let Some(len) = blob_len(ptr) {
                                strings.insert(ptr, len);
                                imms.insert(field);
                            }
                        }
                    }
                }
            }
        }
        i += INSTR_LEN;
    }

    // Second sweep: every other decodable instruction is somewhere a
    // single opcode-byte flip can plant an unregistered `syscall`.
    let mut i = 0;
    while i + INSTR_LEN <= data.len() {
        if let Ok(instr) = Instruction::decode(&data[i..i + INSTR_LEN]) {
            if instr.op != Opcode::Syscall {
                let addr = text.addr + i as u32;
                if prologue_offsets.contains(&i) {
                    inv.prologue_movis.push(addr);
                } else {
                    inv.gadget_targets.push((addr, data[i]));
                }
            }
        }
        i += INSTR_LEN;
    }

    inv.mac_slots = mac_slots.into_iter().collect();
    inv.string_blobs = strings
        .into_iter()
        .map(|(contents_addr, len)| Blob { contents_addr, len })
        .collect();
    inv.pred_blobs = preds
        .into_iter()
        .map(|(contents_addr, len)| Blob { contents_addr, len })
        .collect();
    inv.imm_fields = imms.into_iter().collect();
    inv
}

#[cfg(test)]
mod tests {
    use super::*;
    use asc_installer::{Installer, InstallerOptions};
    use asc_kernel::Personality;

    #[test]
    fn scan_finds_every_artifact_kind() {
        let spec = asc_workloads::program("bison").expect("registered");
        let plain = asc_workloads::build(spec, Personality::Linux).expect("builds");
        let installer = Installer::new(
            crate::campaign_key(),
            InstallerOptions::new(Personality::Linux).with_program_id(0x0FA0),
        );
        let (auth, report) = installer.install(&plain, spec.name).expect("installs");

        let inv = scan(&auth);
        assert_eq!(
            inv.sites,
            report.policy.policies.len(),
            "one prologue per authenticated site"
        );
        assert_eq!(inv.mac_slots.len(), inv.sites, "one MAC slot per site");
        assert!(inv.state_cell.is_some(), "control flow is on by default");
        assert!(!inv.pred_blobs.is_empty(), "non-entry sites have preds");
        assert!(
            !inv.string_blobs.is_empty(),
            "bison opens fixture files by literal path"
        );
        assert!(inv.imm_fields.len() >= 2 * inv.sites);
        assert!(
            !inv.prologue_movis.is_empty(),
            "rewritten prologues yield stub-smuggle targets"
        );
        assert!(
            !inv.gadget_targets.is_empty(),
            "non-prologue text yields gadget-jump targets"
        );
        let prologue: std::collections::BTreeSet<u32> =
            inv.prologue_movis.iter().copied().collect();
        for (addr, opcode) in &inv.gadget_targets {
            assert!(
                !prologue.contains(addr),
                "gadget targets must exclude prologues"
            );
            assert_ne!(
                *opcode,
                asc_isa::Opcode::Syscall as u8,
                "gadget targets are non-syscall instructions"
            );
        }
        for blob in inv.string_blobs.iter().chain(&inv.pred_blobs) {
            assert!(blob.contents_addr >= inv.asc_start + AS_HEADER_LEN as u32);
            assert!(blob.contents_addr + blob.len <= inv.asc_end);
        }

        let unauth = scan(&plain);
        assert_eq!(unauth.sites, 0, "plain binary has no .asc prologues");
    }
}
