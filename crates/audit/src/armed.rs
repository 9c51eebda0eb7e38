//! Trap-time faults and the handler that arms one on a kernel.
//!
//! The production kernel holds no fault state. [`ArmedKernel`] wraps a
//! [`Kernel`] with at most one armed [`TrapFault`] and fires it through the
//! kernel's one fault seam, the verify-stage hook of [`Kernel::trap_with`].

use asc_kernel::{Kernel, VerifyInputs};
use asc_sched::KernelHandler;
use asc_vm::{SyscallHandler, TrapContext, TrapOutcome};

/// A kernel-side fault a campaign can arm: when trap number `at_trap`
/// (1-based, counted over all trapped system calls) arrives, `action` is
/// applied once, before verification.
#[derive(Clone, Copy, Debug)]
pub struct TrapFault {
    /// Which trap fires the fault (compared against `KernelStats::syscalls`
    /// once it counts the arriving trap).
    pub at_trap: u64,
    /// What to corrupt.
    pub action: FaultAction,
}

/// The kernel-side state a [`TrapFault`] corrupts. These model faults in
/// what the *kernel* trusts beyond raw user memory: the trapped register
/// values it reads, its anti-replay counter, and its verified-call cache.
#[derive(Clone, Copy, Debug)]
pub enum FaultAction {
    /// XOR `mask` into the verifier's copy of the register selected by
    /// `index` (the `AuthCallRegs` field order: 0 = syscall number,
    /// 1–6 = arguments, 7 = descriptor, 8 = block id, 9 = predecessor-set
    /// pointer, 10 = state pointer, 11 = MAC pointer, 12 = hint pointer).
    /// Only the copy handed to the verifier is corrupted — the machine's
    /// real register file is untouched, so a *benign* outcome stays
    /// possible when the verifier provably ignores the register.
    XorReg {
        /// Register index (0–12) as listed above.
        index: u8,
        /// XOR mask (forced to 1 if zero).
        mask: u32,
    },
    /// Skew the memory checker's anti-replay counter by `delta`.
    SkewCounter {
        /// Signed counter shift.
        delta: i64,
    },
    /// Corrupt one byte of one verified-call cache entry
    /// (`VerifyCache::corrupt_entry_for_fault`).
    CorruptCache {
        /// Deterministic entry/byte selector.
        selector: u64,
        /// XOR mask (forced to 1 if zero).
        mask: u8,
    },
    /// Shift the cached state entry's epoch into the future
    /// (`VerifyCache::skew_state_epoch_for_fault`), which the next check
    /// must scrub.
    SkewCacheEpoch {
        /// Epoch shift (forced to at least 1).
        delta: u64,
    },
}

impl FaultAction {
    /// Corrupts the verifier's register copy, the anti-replay counter, or
    /// this pid's cache wherever it currently lives.
    pub fn apply(self, inputs: &mut VerifyInputs<'_>) {
        match self {
            FaultAction::XorReg { index, mask } => {
                let mask = if mask == 0 { 1 } else { mask };
                let regs = &mut *inputs.regs;
                match index {
                    0 => regs.nr ^= mask,
                    1..=6 => regs.args[index as usize - 1] ^= mask,
                    7 => regs.pol_des ^= mask,
                    8 => regs.block_id ^= mask,
                    9 => regs.pred_set_ptr ^= mask,
                    10 => regs.lb_ptr ^= mask,
                    11 => regs.call_mac_ptr ^= mask,
                    _ => regs.hint_ptr ^= mask,
                }
            }
            FaultAction::SkewCounter { delta } => inputs.checker.skew_counter_for_fault(delta),
            FaultAction::CorruptCache { selector, mask } => {
                inputs.with_cache(|c| c.corrupt_entry_for_fault(selector, mask));
            }
            FaultAction::SkewCacheEpoch { delta } => {
                inputs.with_cache(|c| c.skew_state_epoch_for_fault(delta));
            }
        }
    }
}

/// A [`Kernel`] with at most one armed [`TrapFault`]. The fault fires once,
/// on the trap whose `KernelStats::syscalls` count equals its `at_trap`,
/// and only where an enforcing kernel runs its verify stage; with nothing
/// armed the handler behaves exactly as the bare kernel.
#[derive(Debug)]
pub struct ArmedKernel {
    kernel: Kernel,
    fault: Option<TrapFault>,
}

impl ArmedKernel {
    /// Wraps `kernel` with `fault` armed (or nothing armed).
    pub fn new(kernel: Kernel, fault: Option<TrapFault>) -> ArmedKernel {
        ArmedKernel { kernel, fault }
    }

    /// Arms `fault`, replacing any fault still armed.
    pub fn arm(&mut self, fault: TrapFault) {
        self.fault = Some(fault);
    }
}

impl SyscallHandler for ArmedKernel {
    fn syscall(&mut self, ctx: &mut TrapContext<'_>) -> TrapOutcome {
        let trap = self.kernel.stats().syscalls + 1;
        let fault = &mut self.fault;
        self.kernel.trap_with(ctx, |inputs| {
            if let Some(f) = fault.take_if(|f| f.at_trap == trap) {
                f.action.apply(inputs);
            }
        })
    }
}

impl KernelHandler for ArmedKernel {
    fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.kernel
    }
}
