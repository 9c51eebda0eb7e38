//! The trusted installer (§3.3, Fig. 2).
//!
//! Run by the security administrator with the MAC key, the installer
//! reads a relocatable binary, runs the PLTO-style analyses from
//! `asc-analysis`, generates a [`asc_core::ProgramPolicy`], and rewrites
//! the binary so every system call is an *authenticated* system call:
//!
//! * syscall stubs are inlined so each call site carries its own policy;
//! * string-constant arguments become authenticated strings in a new
//!   `.asc` section, and the argument register is repointed at the AS
//!   contents;
//! * five argument loads (`R7..=R11`: descriptor, block id, predecessor
//!   set, policy-state pointer, call MAC pointer) are inserted before each
//!   `syscall` instruction;
//! * the `.asc` section additionally holds the per-program policy-state
//!   cell (`lastBlock ‖ lbMAC`) initialised for counter 0, every
//!   predecessor-set AS, and every 16-byte call MAC;
//! * all code and data are re-laid-out (text grows), every relocated
//!   address is fixed up, and the output binary is marked authenticated
//!   and stripped of relocations — matching the paper's non-relocatable,
//!   statically linked output.
//!
//! # Example
//!
//! ```
//! use asc_crypto::MacKey;
//! use asc_installer::{Installer, InstallerOptions};
//! use asc_kernel::Personality;
//!
//! let binary = asc_asm::assemble("
//!     .text
//! main:
//!     movi r0, 20    ; getpid
//!     syscall
//!     movi r0, 1     ; exit
//!     movi r1, 0
//!     syscall
//! ")?;
//! let installer = Installer::new(MacKey::from_seed(7), InstallerOptions::new(Personality::Linux));
//! let (authenticated, report) = installer.install(&binary, "demo")?;
//! assert!(authenticated.is_authenticated());
//! assert_eq!(report.policy.sites(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod ascdata;
mod classify;
mod metapolicy;
mod rewrite;

pub use classify::{CoverageStats, PrecisionStats};
pub use metapolicy::{Metapolicy, MetapolicyRule, PolicyTemplate, TemplateHole};

use asc_core::ProgramPolicy;
use asc_crypto::MacKey;
use asc_kernel::Personality;
use asc_metrics::Registry;
use asc_object::Binary;
use asc_trace::{Event, EventKind, NullSink, TraceSink};

/// Installer configuration.
#[derive(Clone, Debug)]
pub struct InstallerOptions {
    /// Target OS personality (affects syscall identification and argument
    /// classification).
    pub personality: Personality,
    /// Emit control-flow (predecessor set) policies. On by default; the
    /// paper's microbenchmarks also measure calls without them.
    pub control_flow: bool,
    /// Transform string-constant arguments into authenticated strings.
    pub authenticate_strings: bool,
    /// Fold a per-program id into basic block ids (§5.5's Frankenstein
    /// countermeasure).
    pub unique_block_ids: bool,
    /// Program id used when `unique_block_ids` is set.
    pub program_id: u16,
    /// Mark fd-typed arguments whose value flows from an earlier syscall
    /// return as tracked capabilities (§5.3). Requires a kernel with
    /// capability tracking enabled.
    pub capability_tracking: bool,
    /// Optional metapolicy (§5.2): minimum constraints per syscall.
    pub metapolicy: Option<Metapolicy>,
}

impl InstallerOptions {
    /// Defaults: full policies (control flow + strings + unique block
    /// ids), no capability tracking, no metapolicy.
    pub fn new(personality: Personality) -> InstallerOptions {
        InstallerOptions {
            personality,
            control_flow: true,
            authenticate_strings: true,
            unique_block_ids: true,
            program_id: 1,
            capability_tracking: false,
            metapolicy: None,
        }
    }

    /// Disables control-flow policies (Table 4 microbenchmark variant).
    #[must_use]
    pub fn without_control_flow(mut self) -> InstallerOptions {
        self.control_flow = false;
        self
    }

    /// Sets the program id.
    #[must_use]
    pub fn with_program_id(mut self, id: u16) -> InstallerOptions {
        self.program_id = id;
        self
    }

    /// Enables capability tracking policies.
    #[must_use]
    pub fn with_capability_tracking(mut self) -> InstallerOptions {
        self.capability_tracking = true;
        self
    }

    /// Attaches a metapolicy.
    #[must_use]
    pub fn with_metapolicy(mut self, mp: Metapolicy) -> InstallerOptions {
        self.metapolicy = Some(mp);
        self
    }
}

/// What an installation produced besides the binary.
#[derive(Clone, Debug)]
pub struct InstallReport {
    /// The generated program policy (keyed by *output* call-site address).
    pub policy: ProgramPolicy,
    /// Table 3-style argument coverage statistics.
    pub stats: CoverageStats,
    /// B-Side-style precision statistics: discovered vs rewritten sites,
    /// unknown-argument rate, pred-set over-approximation.
    pub precision: PrecisionStats,
    /// Stubs inlined, with per-stub site counts.
    pub inlined: Vec<(String, usize)>,
    /// Warnings for the administrator (undisassembled regions, syscalls
    /// with statically unknown numbers, metapolicy holes).
    pub warnings: Vec<String>,
    /// Metapolicy templates awaiting hand completion (§5.2). Empty when no
    /// metapolicy was supplied or all requirements were met statically.
    pub templates: Vec<PolicyTemplate>,
}

/// Installation errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InstallError {
    /// The input binary could not be lifted.
    Lift(String),
    /// The input binary is already authenticated.
    AlreadyAuthenticated,
}

impl std::fmt::Display for InstallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstallError::Lift(e) => write!(f, "cannot lift binary: {e}"),
            InstallError::AlreadyAuthenticated => write!(f, "binary is already authenticated"),
        }
    }
}

impl std::error::Error for InstallError {}

/// The trusted installer: holds the MAC key and configuration.
pub struct Installer {
    key: MacKey,
    options: InstallerOptions,
}

impl std::fmt::Debug for Installer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Installer")
            .field("options", &self.options)
            .finish()
    }
}

impl Installer {
    /// Creates an installer with the administrator-provided key.
    pub fn new(key: MacKey, options: InstallerOptions) -> Installer {
        Installer { key, options }
    }

    /// The configuration.
    pub fn options(&self) -> &InstallerOptions {
        &self.options
    }

    /// Policy generation only: analysis without rewriting. This is the
    /// mode the paper ported to OpenBSD for the Table 1/2 comparisons
    /// ("the policy generation portion of the installer has been ported").
    ///
    /// # Errors
    ///
    /// [`InstallError::Lift`] if the binary cannot be disassembled.
    pub fn generate_policy(
        &self,
        binary: &Binary,
        program: &str,
    ) -> Result<(ProgramPolicy, CoverageStats, Vec<String>), InstallError> {
        self.generate_policy_traced(binary, program, &mut NullSink)
    }

    /// [`Installer::generate_policy`] with flight-recorder telemetry: each
    /// pass (analysis, classification) emits an
    /// [`asc_trace::EventKind::InstallerPass`] event with its coverage
    /// counters into `sink`.
    ///
    /// # Errors
    ///
    /// [`InstallError::Lift`] if the binary cannot be disassembled.
    pub fn generate_policy_traced(
        &self,
        binary: &Binary,
        program: &str,
        sink: &mut dyn TraceSink,
    ) -> Result<(ProgramPolicy, CoverageStats, Vec<String>), InstallError> {
        let plan = rewrite::plan(self, binary, program, sink)?;
        Ok((plan.policy, plan.stats, plan.warnings))
    }

    /// Full installation: policy generation plus binary rewriting.
    ///
    /// # Errors
    ///
    /// [`InstallError`] on lift failure or double installation.
    pub fn install(
        &self,
        binary: &Binary,
        program: &str,
    ) -> Result<(Binary, InstallReport), InstallError> {
        self.install_traced(binary, program, &mut NullSink)
    }

    /// [`Installer::install`] with flight-recorder telemetry: the
    /// analysis, classification, and rewrite passes each emit an
    /// [`asc_trace::EventKind::InstallerPass`] event with coverage
    /// counters into `sink`.
    ///
    /// # Errors
    ///
    /// [`InstallError`] on lift failure or double installation.
    pub fn install_traced(
        &self,
        binary: &Binary,
        program: &str,
        sink: &mut dyn TraceSink,
    ) -> Result<(Binary, InstallReport), InstallError> {
        if binary.is_authenticated() {
            return Err(InstallError::AlreadyAuthenticated);
        }
        rewrite::install(self, binary, program, sink)
    }

    /// [`Installer::install`] with metrics: each pass (analysis,
    /// classification, rewrite) records its wall-clock duration into the
    /// `asc_installer_pass_us{pass=...}` histogram and its coverage
    /// counters into `asc_installer_coverage{pass=...,counter=...}` gauges.
    /// Durations are the only wall-clock metric in the stack (the installer
    /// runs outside the simulated machine, so there is no virtual clock to
    /// stamp); the perf-trajectory gate therefore never compares them.
    ///
    /// # Errors
    ///
    /// [`InstallError`] on lift failure or double installation.
    pub fn install_metered(
        &self,
        binary: &Binary,
        program: &str,
        registry: &mut Registry,
    ) -> Result<(Binary, InstallReport), InstallError> {
        let mut capture = PassCapture::new();
        let result = self.install_traced(binary, program, &mut capture)?;
        capture.fold_into(registry);
        Ok(result)
    }

    pub(crate) fn key(&self) -> &MacKey {
        &self.key
    }
}

/// One captured installer pass: name, coverage counters, and duration in
/// microseconds.
type CapturedPass = (String, Vec<(String, u64)>, u64);

/// A trace sink that keeps only the installer-pass events, stamping each
/// with the wall-clock time elapsed since the previous pass completed —
/// i.e. the duration of the pass itself, since passes run back to back.
struct PassCapture {
    passes: Vec<CapturedPass>,
    last: std::time::Instant,
}

impl PassCapture {
    fn new() -> PassCapture {
        PassCapture {
            passes: Vec::new(),
            last: std::time::Instant::now(),
        }
    }

    fn fold_into(self, registry: &mut Registry) {
        for (pass, counters, micros) in self.passes {
            let duration = registry.histogram("asc_installer_pass_us", &[("pass", &pass)]);
            registry.observe(duration, micros);
            for (counter, value) in counters {
                let gauge = registry.gauge(
                    "asc_installer_coverage",
                    &[("pass", &pass), ("counter", &counter)],
                );
                registry.set(gauge, value as f64);
            }
        }
    }
}

impl TraceSink for PassCapture {
    fn record(&mut self, event: Event) {
        if let EventKind::InstallerPass { pass, counters } = event.kind {
            let now = std::time::Instant::now();
            let micros = now.duration_since(self.last).as_micros() as u64;
            self.last = now;
            self.passes.push((pass, counters, micros));
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}
