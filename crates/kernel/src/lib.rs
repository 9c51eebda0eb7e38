//! The simulated operating system kernel.
//!
//! Plays the role of the modified Linux kernel in the paper's prototype:
//! a software trap handler that, for installed (authenticated) binaries,
//! verifies every system call's MAC, string integrity, and control-flow
//! policy before dispatching — and kills the process on any violation,
//! logging an administrator alert (fail-stop semantics).
//!
//! Substrates included because the experiments need them:
//!
//! * [`abi`] — syscall numbering for two OS personalities (Linux-like and
//!   OpenBSD-like) including the `__syscall` indirection quirk;
//! * [`fs`] — an in-memory filesystem with symlinks and normalisation;
//! * [`cost`] — the deterministic cycle model calibrated to Table 4;
//! * ~85 implemented system calls (see `calls.rs`).
//!
//! # Example
//!
//! ```
//! use asc_kernel::{Kernel, KernelOptions, Personality};
//!
//! let mut kernel = Kernel::new(KernelOptions::plain(Personality::Linux));
//! kernel.set_stdin(b"hello".to_vec());
//! assert_eq!(kernel.stdout(), b"");
//! ```

pub mod abi;
mod alert;
mod batch;
mod calls;
pub mod cost;
pub mod fs;
mod kernel;
pub mod metrics;
mod record;

pub use abi::{spec, Personality, SyscallId, SyscallSpec, SPECS};
pub use alert::Alert;
pub use batch::BatchStats;
pub use calls::{oflags, MAX_FILE_SIZE};
pub use cost::CostModel;
pub use fs::{FileSystem, FsError, Inode, InodeId, InodeKind};
pub use kernel::{
    FdKind, Kernel, KernelOptions, KernelStats, OpenFile, TraceEntry, VerifyInputs, VerifyTier,
};
pub use metrics::{KernelMetrics, VERIFY_PATHS};

pub use asc_core::{CacheStats, FlowGraph, SiteRegistry, FLOW_START};
pub use asc_trace::ReasonCode;
