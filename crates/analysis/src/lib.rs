//! Static binary analysis — the PLTO analogue.
//!
//! The trusted installer needs exactly the pipeline the paper describes in
//! §4.1, and this crate provides it:
//!
//! 1. [`ir`] — disassemble the binary into an instruction-level IR that
//!    remembers original addresses and relocation marks, and can be
//!    re-emitted after rewriting (PLTO's read/transform/write cycle).
//!    Regions that fail to disassemble are preserved opaquely and
//!    *reported* — the OpenBSD `close` effect of Table 2.
//! 2. [`mod@cfg`] — divide the program into basic blocks and build the control
//!    flow graph.
//! 3. [`callgraph`] — build the call graph, identify system call *stubs*
//!    (small straight-line functions that trap), and inline them into
//!    their callers so each call site can carry its own policy.
//! 4. [`dataflow`] — constant propagation / reaching definitions over each
//!    function to classify syscall arguments as String / Immediate /
//!    Unknown (plus the multi-value and syscall-return refinements that
//!    Table 3's `mv` and `fds` columns count).
//! 5. [`syscall_graph`] — project the interprocedural CFG onto system
//!    calls to compute, for every call, the set of calls that can
//!    immediately precede it (the control-flow policy).
//!
//! # Example
//!
//! ```
//! let binary = asc_asm::assemble("
//!     .text
//! main:
//!     movi r0, 20     ; SYS_getpid
//!     syscall
//!     movi r0, 1      ; SYS_exit
//!     movi r1, 0
//!     syscall
//! ")?;
//! let unit = asc_analysis::ir::Unit::lift(&binary)?;
//! let analysis = asc_analysis::ProgramAnalysis::run(unit);
//! assert_eq!(analysis.syscall_sites().len(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod ir;
pub mod syscall_graph;

use cfg::{BlockId, Cfg};
use dataflow::Value;
use ir::Unit;

/// A discovered system call site with its analysis results.
#[derive(Clone, Debug)]
pub struct SyscallSite {
    /// Index of the `syscall` instruction in the unit's item list.
    pub item_index: usize,
    /// Basic block containing (ending with) the call.
    pub block: BlockId,
    /// Constant-propagated value of `R0` (the syscall number).
    pub nr: Value,
    /// Constant-propagated values of `R1..=R6`.
    pub args: [Value; 6],
    /// Blocks whose system calls may immediately precede this one
    /// (block 0 = program start).
    pub predecessors: std::collections::BTreeSet<BlockId>,
}

/// The full analysis of one program: the lifted unit plus every derived
/// artefact the installer consumes.
#[derive(Debug)]
pub struct ProgramAnalysis {
    unit: Unit,
    cfg: Cfg,
    sites: Vec<SyscallSite>,
    /// Functions that were inlined (name, number of call sites inlined).
    pub inlined_stubs: Vec<(String, usize)>,
    /// Human-readable warnings (undisassembled regions, unknown syscall
    /// numbers) for the administrator, mirroring "PLTO always reports when
    /// it cannot completely disassemble a binary".
    pub warnings: Vec<String>,
}

impl ProgramAnalysis {
    /// Runs the full pipeline: stub inlining, CFG, constant propagation,
    /// syscall identification, and the syscall graph.
    pub fn run(mut unit: Unit) -> ProgramAnalysis {
        let mut warnings = unit.lift_warnings.clone();
        let inlined_stubs = callgraph::inline_stubs(&mut unit);
        let cfg = Cfg::build(&unit);
        let consts = dataflow::propagate(&unit, &cfg);
        let pred_sets = syscall_graph::predecessor_sets(&unit, &cfg);

        let mut sites = Vec::new();
        for (idx, item) in unit.items.iter().enumerate() {
            let ir::IrItem::Instr(instr) = item else {
                continue;
            };
            if instr.instr.op != asc_isa::Opcode::Syscall {
                continue;
            }
            let block = cfg.block_of(idx).expect("every instr is in a block");
            let env = consts.at(idx);
            let nr = env.reg(asc_isa::Reg::R0);
            if !matches!(nr, Value::Const(_)) {
                warnings.push(format!(
                    "syscall at item {idx}: number not statically determined ({nr:?})"
                ));
            }
            let args = [
                env.reg(asc_isa::Reg::R1),
                env.reg(asc_isa::Reg::R2),
                env.reg(asc_isa::Reg::R3),
                env.reg(asc_isa::Reg::R4),
                env.reg(asc_isa::Reg::R5),
                env.reg(asc_isa::Reg::R6),
            ];
            let predecessors = pred_sets.get(&block).cloned().unwrap_or_default();
            sites.push(SyscallSite {
                item_index: idx,
                block,
                nr,
                args,
                predecessors,
            });
        }
        ProgramAnalysis {
            unit,
            cfg,
            sites,
            inlined_stubs,
            warnings,
        }
    }

    /// The (post-inlining) unit.
    pub fn unit(&self) -> &Unit {
        &self.unit
    }

    /// The control-flow graph.
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// All discovered syscall sites.
    pub fn syscall_sites(&self) -> &[SyscallSite] {
        &self.sites
    }

    /// Consumes the analysis, returning the unit for rewriting.
    pub fn into_unit(self) -> Unit {
        self.unit
    }
}

/// Renders a human-readable disassembly listing of a binary's text
/// section, annotating syscall sites, function symbols, and opaque
/// regions — the toolchain's `objdump -d` analogue. Works on both
/// relocatable inputs and installed (non-relocatable) outputs.
pub fn disassembly(binary: &asc_object::Binary) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let Some(text) = binary.section_by_name(".text") else {
        return "<no .text section>".to_string();
    };
    let mut off = 0usize;
    while off + asc_isa::INSTR_LEN <= text.data.len() {
        let addr = text.addr + off as u32;
        if let Some(sym) = binary
            .symbols()
            .iter()
            .find(|s| s.addr == addr && s.kind == asc_object::SymbolKind::Func)
        {
            let _ = writeln!(out, "\n{}:", sym.name);
        }
        match asc_isa::Instruction::decode(&text.data[off..off + asc_isa::INSTR_LEN]) {
            Ok(i) => {
                let marker = if i.op == asc_isa::Opcode::Syscall {
                    "  <== syscall"
                } else {
                    ""
                };
                let _ = writeln!(out, "  {addr:#08x}: {i}{marker}");
            }
            Err(_) => {
                let bytes = &text.data[off..off + asc_isa::INSTR_LEN];
                let _ = writeln!(out, "  {addr:#08x}: <not valid code: {bytes:02x?}>");
            }
        }
        off += asc_isa::INSTR_LEN;
    }
    out
}
