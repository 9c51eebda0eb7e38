//! Cryptographic substrate for the authenticated-system-calls reproduction.
//!
//! The paper's prototype links Gladman's AES library into the kernel and uses
//! AES-CBC-OMAC (OMAC1, a.k.a. CMAC) for every message authentication code.
//! This crate reimplements that stack from scratch:
//!
//! * [`aes::Aes128`] — the block cipher: AES-NI rounds where the CPU has
//!   them, chosen once per key, and otherwise table-driven word-wise
//!   rounds like Gladman's (FIPS-197 vectors and a byte-wise reference
//!   check both in tests);
//! * [`cmac::Cmac`] — OMAC1, chained in words (RFC 4493 vectors in tests);
//! * [`key::MacKey`] — the installation key shared by installer and kernel;
//! * [`authstring::AuthenticatedString`] — the `{length, MAC, string}`
//!   representation of string constants (§3.2);
//! * [`memcheck::MemoryChecker`] — the online memory checker keeping the
//!   control-flow policy state (`lastBlock`/`lbMAC`) in untrusted memory;
//! * [`set::SortedSet`] — the sorted set of fixed-width entries, with its
//!   canonical bytes and its MAC-sealed form, that holds the capability
//!   set, the SFIP flow digraph and the origin-site registry;
//! * [`authdict`] — the authenticated dictionary used for capability
//!   (file-descriptor) tracking policies (§5.3).
//!
//! # Example
//!
//! ```
//! use asc_crypto::{AuthenticatedString, MacKey};
//!
//! let key = MacKey::from_seed(1);
//! let s = AuthenticatedString::build(&key, b"/dev/console".to_vec());
//! assert!(s.verify(&key));
//! ```

pub mod aes;
pub mod authdict;
pub mod authstring;
pub mod cmac;
pub mod key;
pub mod memcheck;
pub mod set;

pub use aes::Aes128;
pub use authdict::{AuthDict, CapabilitySet};
pub use authstring::{AuthenticatedString, ParseAsError, AS_HEADER_LEN};
pub use cmac::{Cmac, Mac, MAC_LEN};
pub use key::MacKey;
pub use memcheck::{MemoryChecker, PolicyState, POLICY_STATE_LEN};
pub use set::{Entry, SealError, SortedSet};
