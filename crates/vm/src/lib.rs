//! The SVM32 virtual machine: memory with page-level protection, the CPU
//! interpreter, and deterministic cycle accounting.
//!
//! The VM executes SOF binaries instruction by instruction. System calls
//! trap to a [`SyscallHandler`] — the simulated kernel lives in
//! `asc-kernel` and implements that trait; this crate knows nothing about
//! syscall semantics or policies.
//!
//! Cycle accounting plays the role of the Pentium `rdtsc` counter in the
//! paper's measurements: every instruction charges its
//! [`asc_isa::base_cycles`] cost and the kernel charges trap, handler, and
//! verification costs through [`TrapContext::charge`].
//!
//! Instruction fetch goes through predecoded text: [`Memory`] decodes each
//! instruction of the binary's executable, non-writable sections once, and
//! drops a cached decode whenever a kernel write, a protection change or a
//! load touches it. Caching never changes what executes or what it costs on
//! the cycle clock.
//!
//! A load or store that stays inside one page is checked with one lookup
//! of that page's flags. The accessors are `#[inline]`, so the
//! interpreter loop, which is compiled in the crate that names its trap
//! handler, tests the flag in place; a range that crosses a page takes the
//! page walk. Either way an access faults with the same kind and address.
//!
//! A dropped [`Memory`] returns its buffer to a per-thread free list, and
//! [`Memory::new`] and `clone` take one of the same size from it before
//! allocating. A recycled page is zeroed when the new memory first maps
//! it, so every page a guest can reach reads zero until it writes there,
//! and resident host memory is the pages some guest has mapped, not the
//! full size of every guest's memory.
//!
//! Page protection is deliberately period-accurate: section permissions are
//! honoured (no writes to `.text`), but the *stack is executable*, because
//! the paper's threat model includes classic stack-smashing shellcode and
//! system call monitoring is explicitly not a defence against the overflow
//! itself, only against what the compromised process can do afterwards.

mod machine;
mod memory;

pub use machine::{Machine, RunOutcome, StepOutcome, SyscallHandler, TrapContext, TrapOutcome};
pub use memory::{MemFault, Memory, PageFlags, PAGE_SIZE};

/// Default memory size (8 MiB).
pub const DEFAULT_MEM_SIZE: u32 = 8 << 20;

/// Default stack size (256 KiB), mapped at the top of memory.
pub const DEFAULT_STACK_SIZE: u32 = 256 << 10;
