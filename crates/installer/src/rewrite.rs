//! The binary rewriting pass: plan (analysis + policy generation) and
//! install (relayout + authenticated-call insertion + MAC computation).

use std::collections::{BTreeSet, HashMap};

use asc_analysis::ir::{IrInstr, IrItem, Unit};
use asc_analysis::ProgramAnalysis;
use asc_core::{ArgPolicy, EncodedArg, EncodedCall, ProgramPolicy, SyscallPolicy, MAX_ARGS};
use asc_isa::{Instruction, Reg, INSTR_LEN};
use asc_object::{sections, Binary, Section, SectionFlags};
use asc_trace::{Event, EventKind, Severity, SpanId, TraceSink};

use crate::ascdata::AscBuilder;
use crate::classify::{classify_site, CoverageStats, PrecisionStats};
use crate::metapolicy::{PolicyTemplate, TemplateHole};
use crate::{InstallError, InstallReport, Installer};

const PAGE: u32 = 0x1000;

/// Installer-pass span ids (the installer runs outside the simulated
/// machine, so passes are identified positionally rather than by clock).
const SPAN_ANALYSIS: u64 = 0;
const SPAN_CLASSIFICATION: u64 = 1;
const SPAN_REWRITE: u64 = 2;

/// Emits one pass-completion event (no-op when the sink is disabled).
fn emit_pass(sink: &mut dyn TraceSink, span: u64, pass: &str, counters: Vec<(String, u64)>) {
    if !sink.enabled() {
        return;
    }
    sink.record(Event {
        span: SpanId(span),
        at_cycles: 0,
        severity: Severity::Info,
        kind: EventKind::InstallerPass {
            pass: pass.to_string(),
            counters,
        },
    });
}

/// Everything decided about one syscall site before rewriting.
#[derive(Clone, Debug)]
pub(crate) struct SitePlan {
    /// Item index in the post-inlining unit.
    item_index: usize,
    nr: u16,
    args: Vec<ArgPolicy>,
    block: u32,
    preds: BTreeSet<u32>,
}

/// The result of the planning phase.
pub(crate) struct Plan {
    pub unit: Unit,
    pub sites: Vec<SitePlan>,
    pub policy: ProgramPolicy,
    pub stats: CoverageStats,
    pub precision: PrecisionStats,
    pub warnings: Vec<String>,
    pub templates: Vec<PolicyTemplate>,
    pub inlined: Vec<(String, usize)>,
}

/// Runs analysis and policy generation (no rewriting). The returned
/// policy is keyed by *input* call-site addresses.
pub(crate) fn plan(
    installer: &Installer,
    binary: &Binary,
    program: &str,
    sink: &mut dyn TraceSink,
) -> Result<Plan, InstallError> {
    let opts = installer.options();
    let unit = Unit::lift(binary).map_err(|e| InstallError::Lift(e.to_string()))?;
    let analysis = ProgramAnalysis::run(unit);
    let mut warnings = analysis.warnings.clone();
    let inlined = analysis.inlined_stubs.clone();
    emit_pass(
        sink,
        SPAN_ANALYSIS,
        "analysis",
        vec![
            (
                "syscall_sites".to_string(),
                analysis.syscall_sites().len() as u64,
            ),
            ("inlined_stubs".to_string(), inlined.len() as u64),
            ("warnings".to_string(), warnings.len() as u64),
        ],
    );

    let mut policy = ProgramPolicy::new(program, opts.personality.name());
    policy.undisassembled_regions = warnings
        .iter()
        .filter(|w| w.contains("could not disassemble"))
        .count();
    let mut stats = CoverageStats::default();
    let mut precision = PrecisionStats {
        discovered: analysis.syscall_sites().len(),
        undisassembled_regions: policy.undisassembled_regions,
        ..PrecisionStats::default()
    };
    let mut templates = Vec::new();
    let mut sites = Vec::new();
    let mut distinct = BTreeSet::new();

    for site in analysis.syscall_sites() {
        // Inlined syscall instructions carry no original address of their
        // own; attribute them to the nearest preceding original address
        // (the inlined call site), which also keeps policy keys unique.
        let orig_addr = (0..=site.item_index)
            .rev()
            .find_map(|i| match &analysis.unit().items[i] {
                IrItem::Instr(instr) => instr.orig_addr,
                IrItem::Raw { orig_addr, .. } => Some(*orig_addr),
            });
        let Some((nr, mut args, spec)) = classify_site(
            binary,
            opts.personality,
            site,
            opts.capability_tracking,
            &mut stats,
        ) else {
            precision.unknown_nr += 1;
            warnings.push(format!(
                "syscall at {:#x}: number not statically determined; \
                 call left unauthenticated (will be blocked at runtime)",
                orig_addr.unwrap_or(0)
            ));
            continue;
        };
        distinct.insert(nr);

        // Metapolicy: apply fills, record remaining holes.
        if let Some(mp) = &opts.metapolicy {
            if let Some(id) = opts.personality.id(nr) {
                let required = mp.required_for(id);
                let mut holes = Vec::new();
                for i in 0..spec.nargs as usize {
                    if required & (1 << i) != 0 && !args[i].is_constrained() {
                        if let Some(fill) = mp.fill_for(spec.name, i) {
                            args[i] = fill.clone();
                            if matches!(
                                fill,
                                ArgPolicy::StringLit(_)
                                    | ArgPolicy::Immediate(_)
                                    | ArgPolicy::ImmediateAddr(_)
                            ) {
                                stats.auth += 1;
                            }
                        } else {
                            holes.push(TemplateHole { arg: i });
                        }
                    }
                }
                if !holes.is_empty() {
                    warnings.push(format!(
                        "metapolicy: `{}` at {:#x} needs hand-specified arguments {:?}",
                        spec.name,
                        orig_addr.unwrap_or(0),
                        holes.iter().map(|h| h.arg).collect::<Vec<_>>()
                    ));
                    templates.push(PolicyTemplate {
                        call_site: orig_addr.unwrap_or(0),
                        syscall: spec.name.to_string(),
                        holes,
                    });
                }
            }
        }

        // Pattern policies: the installer can generate the runtime
        // hint-producing code itself for `prefix*` patterns (the common
        // temp-file case). Other pattern shapes would need richer
        // generated matchers; downgrade those with a warning.
        for (i, a) in args.iter_mut().enumerate() {
            if let ArgPolicy::Pattern(p) = a {
                if prefix_star(p).is_none() {
                    warnings.push(format!(
                        "pattern `{p}` on `{}` arg {i} is not of the supported \
                         `prefix*` form; left unconstrained in the rewritten binary",
                        spec.name
                    ));
                    *a = ArgPolicy::Any;
                }
            }
        }

        precision.rewritten += 1;
        precision.pred_sites += 1;
        precision.pred_entries += site.predecessors.len();
        for i in 0..spec.nargs as usize {
            if spec.out_mask & (1 << i) != 0 {
                continue;
            }
            precision.input_args += 1;
            if matches!(args[i], ArgPolicy::Any) {
                precision.unknown_args += 1;
            }
        }

        let mut sp = SyscallPolicy::new(nr, orig_addr.unwrap_or(0), site.block);
        sp.args = args.clone();
        if opts.control_flow {
            sp.predecessors = Some(site.predecessors.iter().copied().collect());
        }
        sp.returns_capability = opts.capability_tracking && spec.returns_fd;
        sp.revokes_capability = opts.capability_tracking && spec.closes_fd;
        policy.insert(sp);

        sites.push(SitePlan {
            item_index: site.item_index,
            nr,
            args,
            block: site.block,
            preds: site.predecessors.iter().copied().collect(),
        });
    }
    stats.calls = distinct.len();
    policy.warnings = warnings.clone();
    emit_pass(
        sink,
        SPAN_CLASSIFICATION,
        "classification",
        vec![
            ("sites".to_string(), stats.sites as u64),
            ("calls".to_string(), stats.calls as u64),
            ("args".to_string(), stats.args as u64),
            ("out_params".to_string(), stats.out_params as u64),
            ("auth".to_string(), stats.auth as u64),
            ("multi_value".to_string(), stats.multi_value as u64),
            ("fds".to_string(), stats.fds as u64),
            ("templates".to_string(), templates.len() as u64),
        ],
    );

    Ok(Plan {
        unit: analysis.into_unit(),
        sites,
        policy,
        stats,
        precision,
        warnings,
        templates,
        inlined,
    })
}

/// If `pattern` has the supported `prefix*` shape (a literal followed by
/// exactly one trailing `*`), returns the prefix.
fn prefix_star(pattern: &str) -> Option<&str> {
    let prefix = pattern.strip_suffix('*')?;
    (!prefix.contains(['*', '{', '}'])).then_some(prefix)
}

/// Runtime block id: program id folded into the high bits when the
/// Frankenstein countermeasure is enabled. Block 0 (program start) stays 0
/// so the initial policy state is program-independent.
fn runtime_block(installer: &Installer, block: u32) -> u32 {
    let opts = installer.options();
    if opts.unique_block_ids && block != 0 {
        ((opts.program_id as u32) << 16) | (block & 0xffff)
    } else {
        block
    }
}

/// Full installation.
pub(crate) fn install(
    installer: &Installer,
    binary: &Binary,
    program: &str,
    sink: &mut dyn TraceSink,
) -> Result<(Binary, InstallReport), InstallError> {
    let opts = installer.options().clone();
    let key = installer.key();
    let plan = plan(installer, binary, program, sink)?;
    let Plan {
        unit,
        sites,
        stats,
        precision,
        warnings,
        templates,
        inlined,
        ..
    } = plan;

    // --- 1. Sizes and layout. ---
    // Per site: one MOVI per string-constant argument + the five
    // authenticated-call argument loads.
    let per_site_inserts: Vec<usize> = sites
        .iter()
        .map(|s| {
            let strings = s
                .args
                .iter()
                .filter(|a| matches!(a, ArgPolicy::StringLit(_)))
                .count();
            let patterns = s
                .args
                .iter()
                .filter(|a| matches!(a, ArgPolicy::Pattern(_)))
                .count();
            // 10 instructions of generated hint code per pattern argument
            // plus one extras-pointer load when any pattern exists.
            5 + strings + patterns * 10 + usize::from(patterns > 0)
        })
        .collect();
    let total_inserts: usize = per_site_inserts.iter().sum();
    let old_text_len: usize = unit
        .items
        .iter()
        .map(|it| match it {
            IrItem::Instr(_) => INSTR_LEN,
            IrItem::Raw { bytes, .. } => bytes.len(),
        })
        .sum();
    let new_text_len = old_text_len + total_inserts * INSTR_LEN;

    let text_base = unit.text_addr();
    let mut next = align_up(text_base + new_text_len as u32);
    // New addresses for the non-text sections, in their original order.
    let mut section_delta: Vec<(String, u32, u32, i64)> = Vec::new(); // (name, old_addr, old_size, delta)
    for s in binary.sections() {
        if s.name == sections::TEXT {
            continue;
        }
        section_delta.push((
            s.name.clone(),
            s.addr,
            s.mem_size,
            next as i64 - s.addr as i64,
        ));
        next = align_up(next + s.mem_size);
    }
    let asc_base = next;

    let remap_data = |addr: u32| -> u32 {
        for (_, old, size, delta) in &section_delta {
            if addr >= *old && addr < *old + *size {
                return (addr as i64 + delta) as u32;
            }
        }
        addr
    };

    // --- 2. Build the .asc section (addresses only; MACs patched later). ---
    let mut asc = AscBuilder::new(asc_base);
    let lb_ptr = asc.add_policy_state(key);
    struct PatternArg {
        arg: usize,
        /// Pattern AS contents `(addr, len, mac)`.
        tuple: (u32, u32, asc_crypto::Mac),
        /// Address of this argument's extras entry.
        slot: u32,
        /// Length of the literal prefix (for the generated hint code).
        prefix_len: u32,
    }
    struct SiteAsc {
        pred_tuple: Option<(u32, u32, asc_crypto::Mac)>,
        string_args: Vec<(usize, u32, u32, asc_crypto::Mac)>, // (arg, addr, len, mac)
        pattern_args: Vec<PatternArg>,
        mac_slot: u32,
    }
    let mut site_asc = Vec::with_capacity(sites.len());
    for site in &sites {
        let pred_tuple = if opts.control_flow {
            let mut bytes = Vec::new();
            let mut runtime_preds: Vec<u32> = site
                .preds
                .iter()
                .map(|&p| runtime_block(installer, p))
                .collect();
            runtime_preds.sort_unstable();
            runtime_preds.dedup();
            for p in &runtime_preds {
                bytes.extend_from_slice(&p.to_le_bytes());
            }
            Some(asc.add_string(key, &bytes))
        } else {
            None
        };
        let mut string_args = Vec::new();
        let mut pattern_args = Vec::new();
        for (i, a) in site.args.iter().enumerate() {
            match a {
                ArgPolicy::StringLit(s) => {
                    let mut contents = s.clone();
                    contents.push(0); // arguments are NUL-terminated C strings
                    let (addr, len, mac) = asc.add_string(key, &contents);
                    string_args.push((i, addr, len, mac));
                }
                ArgPolicy::Pattern(p) => {
                    let prefix = prefix_star(p).expect("validated in plan");
                    let tuple = asc.add_string(key, p.as_bytes());
                    pattern_args.push(PatternArg {
                        arg: i,
                        tuple,
                        slot: 0, // assigned below, consecutively
                        prefix_len: prefix.len() as u32,
                    });
                }
                _ => {}
            }
        }
        // Extras entries must be consecutive (the kernel walks them from
        // R12 in argument order).
        for pa in &mut pattern_args {
            pa.slot = asc.reserve_pattern_extra(pa.tuple.0);
        }
        let mac_slot = asc.reserve_mac();
        site_asc.push(SiteAsc {
            pred_tuple,
            string_args,
            pattern_args,
            mac_slot,
        });
    }

    // --- 3. Splice in the authenticated-call argument loads. ---
    let site_by_item: HashMap<usize, usize> = sites
        .iter()
        .enumerate()
        .map(|(si, s)| (s.item_index, si))
        .collect();
    let mut new_items: Vec<IrItem> = Vec::with_capacity(unit.items.len() + total_inserts);
    let mut site_new_index: Vec<usize> = vec![0; sites.len()];
    // Internal branches of generated code: (branch item, target item),
    // patched once final addresses exist.
    let mut branch_patches: Vec<(usize, usize)> = Vec::new();
    let synth = |instr: Instruction| {
        IrItem::Instr(IrInstr {
            orig_addr: None,
            instr,
            imm_is_addr: false,
        })
    };
    for (idx, item) in unit.items.iter().enumerate() {
        if let Some(&si) = site_by_item.get(&idx) {
            let site = &sites[si];
            let sa = &site_asc[si];
            let descriptor = site_descriptor(&opts, site);
            let block_id = runtime_block(installer, site.block);
            let IrItem::Instr(sys_instr) = item else {
                unreachable!("sites are instrs")
            };
            let first_insert = new_items.len();

            // Generated hint code per pattern argument (§5.1): compute
            // strlen(arg) - prefix_len and store it in the extras entry.
            // Scratch: R11, R12, LR (all reloaded/unused below).
            for pa in &sa.pattern_args {
                use asc_isa::Opcode;
                let ri = Reg::args()[pa.arg];
                let base = new_items.len();
                new_items.push(synth(Instruction::movi(Reg::R11, 0)));
                new_items.push(synth(Instruction::mov(Reg::R12, ri)));
                new_items.push(synth(Instruction::ldb(Reg::LR, Reg::R12, 0))); // loop head
                new_items.push(synth(Instruction::branch(
                    Opcode::Beq,
                    Reg::LR,
                    Reg::R11,
                    0,
                )));
                new_items.push(synth(Instruction::addi(Reg::R12, Reg::R12, 1)));
                new_items.push(synth(Instruction::jmp(0)));
                new_items.push(synth(Instruction::alu(Opcode::Sub, Reg::R12, Reg::R12, ri)));
                new_items.push(synth(Instruction::addi(
                    Reg::R12,
                    Reg::R12,
                    -(pa.prefix_len as i32),
                )));
                new_items.push(synth(Instruction::movi(Reg::LR, pa.slot)));
                new_items.push(synth(Instruction::stw(Reg::LR, 8, Reg::R12)));
                branch_patches.push((base + 3, base + 6)); // beq -> after loop
                branch_patches.push((base + 5, base + 2)); // jmp -> loop head
            }

            let mut loads: Vec<(Reg, u32)> = Vec::new();
            for (arg, addr, _, _) in &sa.string_args {
                loads.push((Reg::args()[*arg], *addr));
            }
            if let Some(first_extra) = sa.pattern_args.first() {
                loads.push((Reg::R12, first_extra.slot));
            }
            loads.push((Reg::R7, descriptor.bits()));
            loads.push((Reg::R8, block_id));
            loads.push((Reg::R9, sa.pred_tuple.map(|(a, _, _)| a).unwrap_or(0)));
            loads.push((Reg::R10, if opts.control_flow { lb_ptr } else { 0 }));
            loads.push((Reg::R11, sa.mac_slot));
            for (reg, imm) in &loads {
                new_items.push(synth(Instruction::movi(*reg, *imm)));
            }
            new_items.push(synth(sys_instr.instr));
            site_new_index[si] = new_items.len() - 1;
            // The first inserted instruction inherits the syscall's
            // address so branches that targeted the call land on the
            // prologue.
            if let IrItem::Instr(first) = &mut new_items[first_insert] {
                first.orig_addr = sys_instr.orig_addr;
            }
        } else {
            new_items.push(item.clone());
        }
    }

    // --- 4. Emit text; build the address map. ---
    let mut text = Vec::with_capacity(new_text_len);
    let mut addr_map: HashMap<u32, u32> = HashMap::new();
    let mut new_addr_of: Vec<u32> = Vec::with_capacity(new_items.len());
    let mut addr_imm_offsets: Vec<usize> = Vec::new();
    for item in &new_items {
        let addr = text_base + text.len() as u32;
        new_addr_of.push(addr);
        match item {
            IrItem::Instr(i) => {
                if let Some(orig) = i.orig_addr {
                    addr_map.insert(orig, addr);
                }
                if i.imm_is_addr {
                    addr_imm_offsets.push(text.len() + 4);
                }
                text.extend_from_slice(&i.instr.encode());
            }
            IrItem::Raw { orig_addr, bytes } => {
                addr_map.insert(*orig_addr, addr);
                text.extend_from_slice(bytes);
            }
        }
    }
    debug_assert_eq!(text.len(), new_text_len);

    let remap = |addr: u32| -> u32 {
        if let Some(&n) = addr_map.get(&addr) {
            n
        } else {
            remap_data(addr)
        }
    };

    // Fix address immediates in text.
    for off in addr_imm_offsets {
        let old = u32::from_le_bytes(text[off..off + 4].try_into().expect("4 bytes"));
        text[off..off + 4].copy_from_slice(&remap(old).to_le_bytes());
    }

    // Fix the internal branches of installer-generated code.
    for (branch_item, target_item) in branch_patches {
        let off = (new_addr_of[branch_item] - text_base) as usize + 4;
        text[off..off + 4].copy_from_slice(&new_addr_of[target_item].to_le_bytes());
    }

    // --- 5. Assemble the output binary. ---
    let mut out = Binary::new(remap(binary.entry()));
    out.push_section(Section::new(
        sections::TEXT,
        text_base,
        text,
        SectionFlags::RX,
    ));
    let text_index = binary.section_index(sections::TEXT).expect("lift checked");
    for s in binary.sections() {
        if s.name == sections::TEXT {
            continue;
        }
        let new_addr = remap_data(s.addr);
        let mut data = s.data.clone();
        // Remap relocated fields inside this section (e.g. `.word label`
        // pointing into text or into a moved section).
        for r in binary.relocations() {
            if r.section == text_index {
                continue;
            }
            let rs = &binary.sections()[r.section as usize];
            if rs.name != s.name {
                continue;
            }
            let off = r.offset as usize;
            let old = u32::from_le_bytes(data[off..off + 4].try_into().expect("4 bytes"));
            data[off..off + 4].copy_from_slice(&remap(old).to_le_bytes());
        }
        out.push_section(Section {
            name: s.name.clone(),
            addr: new_addr,
            mem_size: s.mem_size,
            data,
            flags: s.flags,
        });
    }

    // --- 6. Compute call MACs now that call sites are final. ---
    let mut final_policy = ProgramPolicy::new(program, opts.personality.name());
    final_policy.warnings = warnings.clone();
    for (si, site) in sites.iter().enumerate() {
        let sa = &site_asc[si];
        let call_site = new_addr_of[site_new_index[si]];
        let descriptor = site_descriptor(&opts, site);
        let mut args = [None; MAX_ARGS];
        for (i, a) in site.args.iter().enumerate() {
            args[i] = match a {
                ArgPolicy::Immediate(c) => Some(EncodedArg::Immediate(*c)),
                ArgPolicy::ImmediateAddr(c) => {
                    // The constant is an address into the input binary;
                    // the rewritten program materialises the *remapped*
                    // address at runtime.
                    Some(EncodedArg::Immediate(remap(*c)))
                }
                ArgPolicy::StringLit(_) => {
                    let (_, addr, len, mac) = sa
                        .string_args
                        .iter()
                        .find(|(arg, ..)| *arg == i)
                        .expect("string arg recorded");
                    Some(EncodedArg::AuthString {
                        addr: *addr,
                        len: *len,
                        mac: *mac,
                    })
                }
                ArgPolicy::Capability => Some(EncodedArg::Capability),
                ArgPolicy::Pattern(_) => {
                    let pa = sa
                        .pattern_args
                        .iter()
                        .find(|pa| pa.arg == i)
                        .expect("pattern arg recorded");
                    let (addr, len, mac) = pa.tuple;
                    Some(EncodedArg::Pattern { addr, len, mac })
                }
                ArgPolicy::Any => None,
            };
        }
        let encoded = EncodedCall {
            syscall_nr: site.nr,
            descriptor,
            call_site,
            block_id: runtime_block(installer, site.block),
            args,
            pred_set: sa.pred_tuple,
            lb_ptr: opts.control_flow.then_some(lb_ptr),
        };
        asc.patch_mac(sa.mac_slot, &encoded.mac(key));

        // Final (output-keyed) policy entry, with address constants
        // remapped to their output locations.
        let mut sp = SyscallPolicy::new(site.nr, call_site, runtime_block(installer, site.block));
        sp.args = site
            .args
            .iter()
            .map(|a| match a {
                ArgPolicy::ImmediateAddr(c) => ArgPolicy::ImmediateAddr(remap(*c)),
                other => other.clone(),
            })
            .collect();
        if opts.control_flow {
            sp.predecessors = Some(
                site.preds
                    .iter()
                    .map(|&p| runtime_block(installer, p))
                    .collect(),
            );
        }
        final_policy.insert(sp);
    }
    let asc_bytes = asc.into_bytes();
    emit_pass(
        sink,
        SPAN_REWRITE,
        "rewrite",
        vec![
            ("sites_rewritten".to_string(), sites.len() as u64),
            ("asc_bytes".to_string(), asc_bytes.len() as u64),
            ("warnings".to_string(), warnings.len() as u64),
        ],
    );
    let asc_len = asc_bytes.len() as u32;
    out.push_section(Section::new(
        sections::ASC,
        asc_base,
        asc_bytes,
        SectionFlags::RW,
    ));

    // The SFIP flow policy: project every site's predecessor set down to
    // syscall-number edges and append the MAC-authenticated digraph after
    // `.asc`. Site predecessors are computed unconditionally (only the
    // per-call pred-set *check* is gated on `control_flow`), so the flow
    // tier is available even for binaries installed without it.
    let flow_sites: Vec<(u16, u32, BTreeSet<u32>)> = sites
        .iter()
        .map(|s| (s.nr, s.block, s.preds.clone()))
        .collect();
    let flow = asc_analysis::syscall_graph::flow_digraph(&flow_sites);
    let flow_bytes = flow.seal(key);
    emit_pass(
        sink,
        SPAN_REWRITE,
        "flow-digraph",
        vec![
            ("flow_edges".to_string(), flow.len() as u64),
            ("flow_bytes".to_string(), flow_bytes.len() as u64),
        ],
    );
    let flow_addr = align_up(asc_base + asc_len);
    let flow_len = flow_bytes.len() as u32;
    out.push_section(Section::new(
        sections::ASCFLOW,
        flow_addr,
        flow_bytes,
        SectionFlags::RO,
    ));

    // Origin privilege: the exact set of final pcs whose `SYSCALL` this
    // installation rewrote, MAC-authenticated like the flow digraph. The
    // kernel refuses any trap from a pc outside the set, so a raw
    // `SYSCALL` gadget (data-in-text, un-disassembled stub, injected
    // code) kills before the MAC path ever runs. No separate pass event:
    // the registry is a byproduct of the rewrite pass reported above.
    let registry: asc_core::SiteRegistry = (0..sites.len())
        .map(|si| new_addr_of[site_new_index[si]])
        .collect();
    out.push_section(Section::new(
        sections::ASCSITES,
        align_up(flow_addr + flow_len),
        registry.seal(key),
        SectionFlags::RO,
    ));

    // --- 7. Symbols, flags. ---
    for sym in binary.symbols() {
        out.push_symbol(asc_object::Symbol {
            name: sym.name.clone(),
            addr: remap(sym.addr),
            kind: sym.kind,
        });
    }
    out.set_program_id(opts.program_id);
    out.set_authenticated(true);
    out.set_relocatable(false);
    out.validate().map_err(InstallError::Lift)?;

    let report = InstallReport {
        policy: final_policy,
        stats,
        precision,
        inlined,
        warnings,
        templates,
    };
    Ok((out, report))
}

fn site_descriptor(opts: &crate::InstallerOptions, site: &SitePlan) -> asc_core::PolicyDescriptor {
    let mut sp = SyscallPolicy::new(site.nr, 0, 0);
    sp.args = site.args.clone();
    if opts.control_flow {
        sp.predecessors = Some(site.preds.iter().copied().collect());
    }
    sp.descriptor()
}

fn align_up(addr: u32) -> u32 {
    addr.div_ceil(PAGE) * PAGE
}
