//! # asc — Authenticated System Calls
//!
//! A full reproduction of *"System Call Monitoring Using Authenticated
//! System Calls"* (Rajagopalan, Hiltunen, Jim, Schlichting; DSN 2005 /
//! TDSC 2006) as a Rust workspace. This facade crate re-exports every
//! component; see the individual crates for details and `DESIGN.md` for the
//! system inventory.
//!
//! * [`crypto`] — AES-128, CMAC/OMAC1, authenticated strings, the online
//!   memory checker, authenticated dictionaries.
//! * [`isa`] — the SVM32 instruction set the simulated programs run on.
//! * [`object`] — the relocatable SOF binary format (the ELF analogue).
//! * [`asm`] — the assembler.
//! * [`lang`] — a small C-like language compiled to SVM32 assembly.
//! * [`analysis`] — the PLTO-analogue static analyses (CFG, call graph,
//!   stub inlining, reaching definitions, syscall graph).
//! * [`core`] — the paper's contribution: policies, descriptors, encoded
//!   policies/calls, and verification logic.
//! * [`installer`] — the trusted installer (policy generation + rewriting).
//! * [`kernel`] — the simulated kernel with ASC checking in its trap
//!   handler.
//! * [`vm`] — the SVM32 interpreter with cycle accounting.
//! * [`monitors`] — baseline monitors (Systrace-like trained user-space
//!   monitor; in-kernel table monitor).
//! * [`sched`] — the deterministic multi-process scheduler (time-slicing
//!   N machines on the shared virtual cycle clock), with the always-on
//!   forensic flight recorder.
//! * [`audit`] — on-kill forensic bundles and deterministic
//!   replay-to-kill.
//! * [`metrics`] — dimensional counters/gauges/histograms with snapshot
//!   delta/merge algebra (observability, never cost-model input).
//! * [`sentinel`] — continuous fleet-health monitoring: windowed
//!   telemetry, anomaly detectors, health reports.
//! * [`faults`] — seeded fault-injection campaigns, including the
//!   detection-latency campaign the sentinel is measured by.
//! * [`attacks`] — the attack harness (shellcode, mimicry, non-control-data,
//!   Frankenstein).
//! * [`workloads`] — guest programs and benchmark suites.
//!
//! # Example: the whole pipeline in ten lines
//!
//! ```
//! use asc::crypto::MacKey;
//! use asc::installer::{Installer, InstallerOptions};
//! use asc::kernel::{FileSystem, KernelOptions, Personality};
//! use asc::workloads::Guest;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let binary = asc::workloads::build_source(
//!     r#"fn main() { write(1, "hi\n", 3); return 0; }"#,
//!     Personality::Linux,
//! )?;
//! let key = MacKey::from_seed(2005);
//! let installer = Installer::new(key.clone(), InstallerOptions::new(Personality::Linux));
//! let (authenticated, _report) = installer.install(&binary, "hi")?;
//! let guest = Guest::installed(authenticated, &key);
//! let opts = KernelOptions::enforcing(Personality::Linux);
//! let mut machine = guest.boot(opts, FileSystem::new(), b"")?;
//! assert!(machine.run(10_000_000).is_success());
//! assert_eq!(machine.handler().stdout(), b"hi\n");
//! # Ok(()) }
//! ```

pub use asc_analysis as analysis;
pub use asc_asm as asm;
pub use asc_attacks as attacks;
pub use asc_audit as audit;
pub use asc_core as core;
pub use asc_crypto as crypto;
pub use asc_faults as faults;
pub use asc_installer as installer;
pub use asc_isa as isa;
pub use asc_kernel as kernel;
pub use asc_lang as lang;
pub use asc_metrics as metrics;
pub use asc_monitors as monitors;
pub use asc_object as object;
pub use asc_sched as sched;
pub use asc_sentinel as sentinel;
pub use asc_trace as trace;
pub use asc_vm as vm;
pub use asc_workloads as workloads;
