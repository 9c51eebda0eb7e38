//! Constant propagation / reaching definitions over the interprocedural
//! CFG.
//!
//! This is the analysis that determines system call arguments (§4.1): each
//! argument register at a syscall site is classified as a single known
//! constant, a small set of possible constants (Table 3's `mv` column), a
//! value that came back from a previous system call (the `fds` column), or
//! unknown. Values flow along CFG edges — including call and return edges,
//! context-insensitively — so constants reach syscall stubs from their
//! callers even before inlining.

use std::collections::BTreeMap;

use asc_isa::{Opcode, Reg};

use crate::cfg::{Cfg, EdgeKind};
use crate::ir::{IrItem, Unit};

/// Maximum distinct constants tracked before giving up to [`Value::Unknown`].
const MAX_CONSTS: usize = 4;

/// The abstract value of a register.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// No definition reaches here yet (lattice top).
    Undefined,
    /// Exactly this constant.
    Const(u32),
    /// Exactly this constant, and it is an *address* (it originates from a
    /// relocated immediate). The distinction matters to the installer:
    /// address constants must be remapped when the rewriter moves
    /// sections, plain numbers must not.
    Addr(u32),
    /// One of a small set of constants (multi-value, §5's `mv` statistic).
    Consts(Vec<u32>),
    /// The return value of some earlier system call (candidate file
    /// descriptor for capability tracking).
    SyscallRet,
    /// Statically unknown (lattice bottom).
    Unknown,
}

impl Value {
    /// Lattice join.
    pub fn join(&self, other: &Value) -> Value {
        use Value::*;
        match (self, other) {
            (Undefined, x) | (x, Undefined) => x.clone(),
            (Unknown, _) | (_, Unknown) => Unknown,
            (Addr(a), Addr(b)) if a == b => Addr(*a),
            // Joining distinct addresses (or an address with a number)
            // cannot be represented remappably.
            (Addr(_), _) | (_, Addr(_)) => Unknown,
            (Const(a), Const(b)) if a == b => Const(*a),
            (Const(a), Const(b)) => Consts(vec![*a.min(b), *a.max(b)]),
            (Consts(s), Const(c)) | (Const(c), Consts(s)) => {
                let mut s = s.clone();
                if !s.contains(c) {
                    s.push(*c);
                    s.sort_unstable();
                }
                if s.len() > MAX_CONSTS {
                    Unknown
                } else {
                    Consts(s)
                }
            }
            (Consts(a), Consts(b)) => {
                let mut s = a.clone();
                for c in b {
                    if !s.contains(c) {
                        s.push(*c);
                    }
                }
                s.sort_unstable();
                if s.len() > MAX_CONSTS {
                    Unknown
                } else {
                    Consts(s)
                }
            }
            (SyscallRet, SyscallRet) => SyscallRet,
            (SyscallRet, _) | (_, SyscallRet) => Unknown,
        }
    }

    /// The single constant (number or address), if exactly one.
    pub fn as_const(&self) -> Option<u32> {
        match self {
            Value::Const(c) | Value::Addr(c) => Some(*c),
            _ => None,
        }
    }

    /// Whether this is an address constant.
    pub fn is_addr(&self) -> bool {
        matches!(self, Value::Addr(_))
    }
}

/// Maximum abstract-stack depth tracked before poisoning.
const MAX_STACK: usize = 64;

/// The abstract machine state at a program point: the register file, the
/// expression stack (values moved by `push`/`pop` — the guest compiler
/// passes arguments this way), and the frame slots written through
/// `[fp±imm]` (where locals live).
///
/// Frame tracking assumes scalar frame slots are only accessed via
/// fp-relative addressing — true for compiler-generated code, where the
/// address of a scalar local is never taken. Byte stores through fp
/// invalidate overlapping slots; stores through computed pointers are
/// assumed not to alias scalar slots (a program violating that is
/// self-corrupting, and a mis-predicted constant can only make its own
/// policy stricter than its actual behaviour).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Env {
    regs: [Value; Reg::COUNT],
    stack: Vec<Value>,
    /// False once the stack model lost sync (unbalanced paths, overflow).
    stack_ok: bool,
    frame: BTreeMap<i32, Value>,
    /// False while the env is still lattice-top (no path has reached it):
    /// the first join must copy the incoming env wholesale, or the empty
    /// top stack/frame would wrongly meet real ones.
    seen: bool,
}

impl Env {
    fn top() -> Env {
        Env {
            regs: std::array::from_fn(|_| Value::Undefined),
            stack: Vec::new(),
            stack_ok: true,
            frame: BTreeMap::new(),
            seen: false,
        }
    }

    fn bottom() -> Env {
        Env {
            regs: std::array::from_fn(|_| Value::Unknown),
            stack: Vec::new(),
            stack_ok: false,
            frame: BTreeMap::new(),
            seen: true,
        }
    }

    /// Entry state: registers unknown, but the stack model is live.
    fn entry() -> Env {
        Env {
            stack_ok: true,
            ..Env::bottom()
        }
    }

    /// The value of a register.
    pub fn reg(&self, r: Reg) -> Value {
        self.regs[r.index()].clone()
    }

    /// The tracked value of frame slot `[fp + off]`, if any.
    pub fn frame_slot(&self, off: i32) -> Value {
        self.frame.get(&off).cloned().unwrap_or(Value::Unknown)
    }

    fn set(&mut self, r: Reg, v: Value) {
        self.regs[r.index()] = v;
    }

    fn poison_stack(&mut self) {
        self.stack.clear();
        self.stack_ok = false;
    }

    fn join_with(&mut self, other: &Env) -> bool {
        if !self.seen {
            *self = other.clone();
            self.seen = true;
            return true;
        }
        let mut changed = false;
        for i in 0..Reg::COUNT {
            let joined = self.regs[i].join(&other.regs[i]);
            if joined != self.regs[i] {
                self.regs[i] = joined;
                changed = true;
            }
        }
        // Stack: pointwise join when both models agree on depth.
        if self.stack_ok {
            if !other.stack_ok || self.stack.len() != other.stack.len() {
                self.poison_stack();
                changed = true;
            } else {
                for (a, b) in self.stack.iter_mut().zip(&other.stack) {
                    let j = a.join(b);
                    if j != *a {
                        *a = j;
                        changed = true;
                    }
                }
            }
        }
        // Frame: keys absent in `other` mean Unknown there -> drop them.
        let keys: Vec<i32> = self.frame.keys().copied().collect();
        for k in keys {
            match other.frame.get(&k) {
                Some(v) => {
                    let j = self.frame[&k].join(v);
                    if matches!(j, Value::Unknown) {
                        self.frame.remove(&k);
                        changed = true;
                    } else if j != self.frame[&k] {
                        self.frame.insert(k, j);
                        changed = true;
                    }
                }
                None => {
                    self.frame.remove(&k);
                    changed = true;
                }
            }
        }
        changed
    }

    /// The env a callee sees across a call edge: registers flow, but the
    /// callee has its own frame and an empty expression stack.
    fn for_call_edge(&self) -> Env {
        Env {
            regs: self.regs.clone(),
            stack: Vec::new(),
            stack_ok: true,
            frame: BTreeMap::new(),
            seen: true,
        }
    }

    /// The env after "some callee ran and returned" (call-summary edge):
    /// caller-saved registers are clobbered, the frame and expression
    /// stack survive (callees cannot address the caller's frame).
    fn for_call_summary(&self) -> Env {
        let mut out = self.clone();
        for r in 0..=12u8 {
            out.set(Reg::new(r), Value::Unknown);
        }
        out.set(Reg::LR, Value::Unknown);
        out
    }
}

fn eval_binop(op: Opcode, a: u32, b: u32) -> u32 {
    match op {
        Opcode::Add | Opcode::Addi => a.wrapping_add(b),
        Opcode::Sub => a.wrapping_sub(b),
        Opcode::Mul | Opcode::Muli => a.wrapping_mul(b),
        Opcode::Divu => a.checked_div(b).unwrap_or(0),
        Opcode::Remu => a.checked_rem(b).unwrap_or(0),
        Opcode::And | Opcode::Andi => a & b,
        Opcode::Or | Opcode::Ori => a | b,
        Opcode::Xor | Opcode::Xori => a ^ b,
        Opcode::Shl | Opcode::Shli => a.wrapping_shl(b & 31),
        Opcode::Shr | Opcode::Shri => a.wrapping_shr(b & 31),
        _ => unreachable!("not a binop"),
    }
}

/// Applies one instruction's transfer function to `env`.
fn transfer(item: &IrItem, env: &mut Env) {
    use Opcode::*;
    let IrItem::Instr(ins) = item else {
        // Opaque region: clobber everything.
        *env = Env::bottom();
        return;
    };
    let i = &ins.instr;
    match i.op {
        Nop | Halt | Jmp | Jr | Beq | Bne | Blt | Bge | Bltu | Bgeu | Ret => {}
        Movi => env.set(
            i.rd,
            if ins.imm_is_addr {
                Value::Addr(i.imm)
            } else {
                Value::Const(i.imm)
            },
        ),
        Mov => {
            if i.rd == Reg::FP {
                // `mov fp, sp`: a new frame begins (function prologue).
                env.frame.clear();
            }
            if i.rd == Reg::SP {
                // `mov sp, fp`: the stack is rewound past our model
                // (function epilogue).
                env.poison_stack();
            }
            let v = env.reg(i.rs1);
            env.set(i.rd, v);
        }
        Add | Sub | Mul | Divu | Remu | And | Or | Xor | Shl | Shr => {
            let (lhs, rhs) = (env.reg(i.rs1), env.reg(i.rs2));
            let v = match (lhs.as_const(), rhs.as_const()) {
                (Some(a), Some(b)) => {
                    let r = eval_binop(i.op, a, b);
                    // Address arithmetic keeps address-ness: addr ± number
                    // is an address; addr - addr is a number.
                    match (i.op, lhs.is_addr(), rhs.is_addr()) {
                        (Add, true, false) | (Add, false, true) | (Sub, true, false) => {
                            Value::Addr(r)
                        }
                        (_, false, false) => Value::Const(r),
                        (Sub, true, true) => Value::Const(r),
                        _ => Value::Unknown,
                    }
                }
                _ => Value::Unknown,
            };
            env.set(i.rd, v);
        }
        Addi | Andi | Ori | Xori | Shli | Shri | Muli => {
            let lhs = env.reg(i.rs1);
            let v = match lhs.as_const() {
                Some(a) => {
                    let r = eval_binop(i.op, a, i.imm);
                    match (i.op, lhs.is_addr()) {
                        (Addi, true) => Value::Addr(r),
                        (_, false) => Value::Const(r),
                        _ => Value::Unknown,
                    }
                }
                None => Value::Unknown,
            };
            env.set(i.rd, v);
        }
        Ldw => {
            let v = if i.rs1 == Reg::FP {
                env.frame_slot(i.simm())
            } else {
                Value::Unknown
            };
            env.set(i.rd, v);
        }
        Ldb => env.set(i.rd, Value::Unknown),
        Stw => {
            if i.rs1 == Reg::FP {
                let v = env.reg(i.rs2);
                if matches!(v, Value::Unknown | Value::Undefined) {
                    env.frame.remove(&i.simm());
                } else {
                    env.frame.insert(i.simm(), v);
                }
            }
        }
        Stb => {
            if i.rs1 == Reg::FP {
                // A byte store invalidates any word slot it overlaps.
                let k = i.simm();
                let stale: Vec<i32> = env
                    .frame
                    .keys()
                    .copied()
                    .filter(|&s| s <= k && k < s + 4)
                    .collect();
                for s in stale {
                    env.frame.remove(&s);
                }
            }
        }
        Push => {
            if env.stack_ok {
                let v = env.reg(i.rs1);
                env.stack.push(v);
                if env.stack.len() > MAX_STACK {
                    env.poison_stack();
                }
            }
        }
        Pop => {
            let v = if env.stack_ok {
                env.stack.pop().unwrap_or(Value::Unknown)
            } else {
                Value::Unknown
            };
            env.set(i.rd, v);
        }
        Call | Callr => {
            // Register/frame effects are modelled by the call-summary and
            // call edges in `propagate`, not here.
        }
        Syscall => {
            // The kernel writes the return value into R0; all other
            // registers are preserved by the trap handler.
            env.set(Reg::R0, Value::SyscallRet);
        }
    }
}

/// The computed environments: one per item, representing the state
/// *before* the item executes.
#[derive(Debug)]
pub struct ConstMap {
    envs: Vec<Env>,
}

impl ConstMap {
    /// Environment before item `idx`.
    pub fn at(&self, idx: usize) -> &Env {
        &self.envs[idx]
    }
}

/// Runs the fixpoint over the CFG and returns per-item environments.
pub fn propagate(unit: &Unit, cfg: &Cfg) -> ConstMap {
    let nblocks = cfg.blocks().len();
    let mut block_in: Vec<Env> = vec![Env::top(); nblocks + 1];
    let mut block_out: Vec<Env> = vec![Env::top(); nblocks + 1];

    // Entry block: registers hold loader values (unknown) but the stack
    // model starts live.
    if nblocks > 0 {
        block_in[1] = Env::entry();
    }

    let mut worklist: Vec<u32> = (1..=nblocks as u32).collect();
    while let Some(bid) = worklist.pop() {
        // Never evaluate a block whose in-state no path has reached yet:
        // a transfer over lattice-top would fabricate state (e.g. a wrong
        // stack depth) that poisons successors permanently.
        if bid != 1 && !block_in[bid as usize].seen {
            continue;
        }
        let block = cfg.block(bid).expect("valid id");
        let mut env = block_in[bid as usize].clone();
        for idx in block.start..block.end {
            transfer(&unit.items[idx], &mut env);
        }
        if env != block_out[bid as usize] {
            block_out[bid as usize] = env.clone();
            for (kind, succ) in cfg.succ_edges(bid) {
                let edge_env = match kind {
                    EdgeKind::Flow => env.clone(),
                    EdgeKind::Call => env.for_call_edge(),
                    EdgeKind::CallSummary => env.for_call_summary(),
                    // Return edges are replaced by call-summary edges in
                    // this analysis: context-insensitive return flow
                    // would smear one callee's exit state over every
                    // caller's frame model.
                    EdgeKind::Return => continue,
                };
                if block_in[succ as usize].join_with(&edge_env) && !worklist.contains(&succ) {
                    worklist.push(succ);
                }
            }
        }
    }

    // Final pass: record the env before every item.
    let mut envs = vec![Env::top(); unit.items.len()];
    for block in cfg.blocks() {
        let mut env = block_in[block.id as usize].clone();
        for idx in block.start..block.end {
            envs[idx] = env.clone();
            transfer(&unit.items[idx], &mut env);
        }
    }
    ConstMap { envs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asc_asm::assemble;

    fn analyze(src: &str) -> (Unit, Cfg, ConstMap) {
        let unit = Unit::lift(&assemble(src).unwrap()).unwrap();
        let cfg = Cfg::build(&unit);
        let consts = propagate(&unit, &cfg);
        (unit, cfg, consts)
    }

    fn syscall_env(unit: &Unit, consts: &ConstMap, nth: usize) -> Env {
        let idx = unit
            .items
            .iter()
            .enumerate()
            .filter(|(_, it)| matches!(it, IrItem::Instr(i) if i.instr.op == Opcode::Syscall))
            .map(|(i, _)| i)
            .nth(nth)
            .expect("syscall exists");
        consts.at(idx).clone()
    }

    #[test]
    fn straight_line_constants() {
        let (unit, _, consts) = analyze(
            "
            .text
        main:
            movi r0, 5
            movi r1, 0x2000
            movi r2, 3
            addi r2, r2, 2
            syscall
        ",
        );
        let env = syscall_env(&unit, &consts, 0);
        assert_eq!(env.reg(Reg::R0), Value::Const(5));
        assert_eq!(env.reg(Reg::R1), Value::Const(0x2000));
        assert_eq!(env.reg(Reg::R2), Value::Const(5));
    }

    #[test]
    fn branch_join_produces_multi_value() {
        let (unit, _, consts) = analyze(
            "
            .text
        main:
            beq r5, r6, other
            movi r2, 1
            jmp call
        other:
            movi r2, 2
        call:
            movi r0, 5
            syscall
        ",
        );
        let env = syscall_env(&unit, &consts, 0);
        assert_eq!(env.reg(Reg::R2), Value::Consts(vec![1, 2]));
        assert_eq!(env.reg(Reg::R0), Value::Const(5));
    }

    #[test]
    fn too_many_constants_degrade_to_unknown() {
        let (unit, _, consts) = analyze(
            "
            .text
        main:
            beq r5, r6, a
            movi r2, 1
            jmp done
        a:
            beq r5, r7, b
            movi r2, 2
            jmp done
        b:
            beq r5, r8, c
            movi r2, 3
            jmp done
        c:
            beq r5, r9, d
            movi r2, 4
            jmp done
        d:
            movi r2, 5
        done:
            movi r0, 5
            syscall
        ",
        );
        let env = syscall_env(&unit, &consts, 0);
        assert_eq!(env.reg(Reg::R2), Value::Unknown);
    }

    #[test]
    fn syscall_return_tracked_for_fd_flow() {
        let (unit, _, consts) = analyze(
            "
            .text
        main:
            movi r0, 5          ; open
            movi r1, 0x2000
            syscall
            mov r4, r0          ; fd
            movi r0, 3          ; read
            mov r1, r4
            movi r2, 0x3000
            movi r3, 64
            syscall
            halt
        ",
        );
        let env = syscall_env(&unit, &consts, 1);
        assert_eq!(
            env.reg(Reg::R1),
            Value::SyscallRet,
            "fd arg traced to open return"
        );
        assert_eq!(env.reg(Reg::R0), Value::Const(3));
        assert_eq!(env.reg(Reg::R3), Value::Const(64));
    }

    #[test]
    fn constants_flow_into_callees() {
        // Pre-inlining, the stub sees its caller's constant arguments via
        // the interprocedural edges.
        let (unit, _, consts) = analyze(
            "
            .text
        main:
            movi r1, 42
            call stub
            halt
        stub:
            movi r0, 20
            syscall
            ret
        ",
        );
        let env = syscall_env(&unit, &consts, 0);
        assert_eq!(env.reg(Reg::R1), Value::Const(42));
    }

    #[test]
    fn two_callers_join_arguments() {
        let (unit, _, consts) = analyze(
            "
            .text
        main:
            movi r1, 1
            call stub
            movi r1, 2
            call stub
            halt
        stub:
            movi r0, 20
            syscall
            ret
        ",
        );
        let env = syscall_env(&unit, &consts, 0);
        assert_eq!(env.reg(Reg::R1), Value::Consts(vec![1, 2]));
    }

    #[test]
    fn loads_are_unknown() {
        let (unit, _, consts) = analyze(
            "
            .text
        main:
            movi r2, 0x2000
            ldw r1, [r2]
            movi r0, 4
            syscall
        ",
        );
        let env = syscall_env(&unit, &consts, 0);
        assert_eq!(env.reg(Reg::R1), Value::Unknown);
    }

    #[test]
    fn join_laws() {
        use Value::*;
        assert_eq!(Const(1).join(&Const(1)), Const(1));
        assert_eq!(Const(2).join(&Const(1)), Consts(vec![1, 2]));
        assert_eq!(Consts(vec![1, 2]).join(&Const(3)), Consts(vec![1, 2, 3]));
        assert_eq!(SyscallRet.join(&SyscallRet), SyscallRet);
        assert_eq!(SyscallRet.join(&Const(1)), Unknown);
        assert_eq!(Undefined.join(&Const(9)), Const(9));
        assert_eq!(Unknown.join(&Const(9)), Unknown);
        // Commutativity on a few samples.
        let samples = [
            Undefined,
            Const(1),
            Const(2),
            Consts(vec![1, 2]),
            SyscallRet,
            Unknown,
        ];
        for a in &samples {
            for b in &samples {
                assert_eq!(a.join(b), b.join(a), "{a:?} vs {b:?}");
            }
        }
    }
}
