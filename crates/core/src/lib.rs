//! The paper's core contribution as a library: authenticated system call
//! policies, the policy descriptor, encoded policies/calls, the call MAC,
//! and the kernel-side verification algorithm.
//!
//! The division of labour mirrors the paper exactly:
//!
//! * the **trusted installer** (`asc-installer`) builds a
//!   [`SyscallPolicy`] per call site, encodes it with [`encoding`], MACs it
//!   with the installation key, and embeds descriptor + MAC + authenticated
//!   strings in the binary;
//! * the **kernel** (`asc-kernel`) reconstructs the encoding from the
//!   *runtime* values at trap time and runs [`verify::verify_call`], the
//!   one verification entry point, which implements the three checks of
//!   §3.4 (call MAC, string integrity, control flow) plus the §5
//!   extensions (argument patterns with proof hints, capability tracking
//!   bits) on bytes lent from process memory, without copying them;
//! * the **application** holds all of this data but, lacking the key,
//!   cannot forge any of it.
//!
//! The SFIP tier's digraph ([`FlowGraph`]) and the origin check's
//! registry ([`SiteRegistry`]) are instances of [`asc_crypto::SortedSet`];
//! the installer writes their sealed form into the `.ascflow` and
//! `.ascsites` sections.
//!
//! # Example: the policy from §3.1
//!
//! ```
//! use asc_core::{ArgPolicy, SyscallPolicy};
//!
//! // open("/dev/console", 5) from one call site.
//! let policy = SyscallPolicy::new(5 /* SYS_open */, 0x806c462, 17 /* block */)
//!     .with_arg(0, ArgPolicy::StringLit(b"/dev/console".to_vec()))
//!     .with_arg(1, ArgPolicy::Immediate(5))
//!     .with_predecessors([12u32]);
//! let des = policy.descriptor();
//! assert!(des.call_site_constrained());
//! assert!(des.control_flow_constrained());
//! assert!(des.arg_is_string(0));
//! assert!(des.arg_is_immediate(1));
//! ```

pub mod cache;
pub mod descriptor;
pub mod encoding;
pub mod flow;
pub mod json;
pub mod pattern;
pub mod policy;
pub mod sites;
pub mod verify;

pub use cache::{mix64, pid_shard, CacheStats, SharedVerifyCache, VerifyCache};
pub use descriptor::PolicyDescriptor;
pub use encoding::{encode_call, EncodedArg, EncodedCall, Encoding};
pub use flow::{FlowGraph, FLOW_START};
pub use pattern::{match_pattern, produce_hint, Pattern, PatternError};
pub use policy::{ArgPolicy, ProgramPolicy, SyscallPolicy, MAX_ARGS};
pub use sites::SiteRegistry;
pub use verify::{verify_call, AuthCallRegs, UserMemory, VerifyOutcome, Violation};
