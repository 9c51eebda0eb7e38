//! Guest workloads: the analogue programs the experiments run.
//!
//! The paper evaluates on real Unix programs (bison, calc, screen, tar for
//! policy experiments; a SPECint-2000 subset plus syscall-heavy tools for
//! performance; an Andrew-style multiprogram benchmark). The analogues
//! here are written in the guest language (`asc-lang`), linked against the
//! per-personality mini-libc, and engineered to have the same *profile*:
//! which system calls they reference, which of those training inputs
//! exercise, and their CPU-vs-syscall balance.
//!
//! # Example
//!
//! ```
//! use asc_kernel::{KernelOptions, Personality};
//! use asc_workloads::{build, program, Guest};
//!
//! let spec = program("bison").expect("registered");
//! let guest = Guest::plain(build(spec, Personality::Linux)?);
//! let report = guest.run(spec, KernelOptions::plain(Personality::Linux));
//! assert!(report.outcome.is_success());
//! # Ok::<(), asc_workloads::BuildError>(())
//! ```

pub mod hostile;
pub mod libc;
mod programs;
pub mod tools;

pub use programs::{program, programs, ProgramKind, ProgramSpec};

use asc_crypto::{Entry, MacKey, SealError, SortedSet};
use asc_kernel::{FileSystem, FlowGraph, Kernel, KernelOptions, Personality, SiteRegistry};
use asc_object::{sections, Binary};
use asc_vm::{Machine, MemFault, RunOutcome};

/// Errors building a workload.
#[derive(Clone, Debug)]
pub enum BuildError {
    /// Guest-language compilation failed.
    Compile(String),
    /// Assembly failed.
    Assemble(String),
    /// Unresolved symbols at link time.
    Link(Vec<String>),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Compile(e) => write!(f, "compile error: {e}"),
            BuildError::Assemble(e) => write!(f, "assemble error: {e}"),
            BuildError::Link(missing) => write!(f, "unresolved symbols: {missing:?}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Compiles guest-language source and links it with the helpers and the
/// personality's libc into a relocatable binary.
///
/// # Errors
///
/// [`BuildError`] on compile, link, or assemble failures.
pub fn build_source(source: &str, personality: Personality) -> Result<Binary, BuildError> {
    let mut full = String::from(source);
    full.push_str(libc::HELPERS);
    let asm = asc_lang::compile(&full).map_err(|e| BuildError::Compile(e.to_string()))?;
    let stubs = libc::link_stubs(&asm, personality).map_err(BuildError::Link)?;
    asc_asm::assemble_many(&[asm.as_str(), stubs.as_str()])
        .map_err(|e| BuildError::Assemble(e.to_string()))
}

/// Builds a registered workload.
///
/// # Errors
///
/// [`BuildError`] on compile, link, or assemble failures.
pub fn build(spec: &ProgramSpec, personality: Personality) -> Result<Binary, BuildError> {
    build_source(spec.source, personality)
}

/// Cycle budget large enough for every workload.
pub const RUN_BUDGET: u64 = 3_000_000_000;

/// Full measurement record from a run (the `rdtsc`-style numbers the
/// performance tables consume).
pub struct RunReport {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// The kernel (trace, stats, captured output).
    pub kernel: Kernel,
    /// Total simulated cycles (user + kernel + verification).
    pub cycles: u64,
    /// Instructions retired.
    pub instret: u64,
}

/// A binary ready to boot, and the one place a harness turns a binary
/// into a running kernel (DESIGN.md §20).
///
/// An installed guest also holds a [`MacKey::shared_schedule`] handle to
/// its installation key and the binary's `.ascsites` registry and
/// `.ascflow` digraph, each parsed and MAC-checked once, here, rather
/// than once per boot. A fleet therefore builds its guests before it
/// reads its AES meter at rest, and every process it spawns shares them.
pub struct Guest {
    binary: Binary,
    installed: Option<Installed>,
}

/// What every enforcing kernel booted from one installed binary shares.
struct Installed {
    key: MacKey,
    /// Fail-closed, as [`site_registry_for`] decides.
    sites: Option<SiteRegistry>,
    /// Only the flow tiers need it; they panic on the error.
    flow: Result<FlowGraph, ArtifactError>,
}

impl Guest {
    /// An unauthenticated binary; it boots only under plain options.
    pub fn plain(binary: Binary) -> Guest {
        Guest {
            binary,
            installed: None,
        }
    }

    /// An installer-produced binary and the key it was installed under.
    pub fn installed(binary: Binary, key: &MacKey) -> Guest {
        let key = key.shared_schedule();
        let installed = Installed {
            sites: site_registry_for(&binary, &key),
            flow: try_set_of(&binary, sections::ASCFLOW, &key),
            key,
        };
        Guest {
            binary,
            installed: Some(installed),
        }
    }

    /// The binary this guest boots.
    pub fn binary(&self) -> &Binary {
        &self.binary
    }

    /// Builds a kernel over `fs` and `stdin` and loads the binary into a
    /// machine. An enforcing boot installs a handle to the key, the site
    /// registry when the binary carries `.ascsites`, and the digraph under
    /// a flow tier. Observers attach afterwards through
    /// [`Machine::handler_mut`]; a fault harness wraps the kernel with
    /// [`Machine::map_handler`].
    ///
    /// # Errors
    ///
    /// The [`MemFault`] of a binary that does not fit in guest memory.
    ///
    /// # Panics
    ///
    /// On an enforcing boot of a plain guest, and on a flow tier for a
    /// binary without an authentic `.ascflow` digraph.
    pub fn boot(
        &self,
        opts: KernelOptions,
        fs: FileSystem,
        stdin: &[u8],
    ) -> Result<Machine<Kernel>, MemFault> {
        let (enforce, tier) = (opts.enforce, opts.verify_tier);
        let mut kernel = Kernel::with_fs(opts, fs);
        kernel.set_stdin(stdin);
        if enforce {
            let installed = self
                .installed
                .as_ref()
                .expect("an enforcing boot needs an installed guest");
            kernel.set_key(installed.key.shared_schedule());
            if let Some(sites) = &installed.sites {
                kernel.set_site_registry(sites.clone());
            }
            if tier.checks_flow() {
                match &installed.flow {
                    Ok(flow) => kernel.set_flow_graph(flow.clone()),
                    Err(e) => panic!("authenticated binary has a sound policy set: {e}"),
                }
            }
        }
        // The break is set once the load has proved every section fits.
        let mut machine = Machine::load(&self.binary, kernel)?;
        machine.handler_mut().set_brk(self.binary.highest_addr());
        Ok(machine)
    }

    /// Boots a registered workload over its fixture files and stdin and
    /// runs it to completion within [`RUN_BUDGET`].
    ///
    /// # Panics
    ///
    /// As [`Guest::boot`], and if the binary does not fit in memory.
    pub fn run(&self, spec: &ProgramSpec, opts: KernelOptions) -> RunReport {
        let mut machine = self
            .boot(opts, spec.fs(), spec.stdin)
            .expect("workload fits in memory");
        let outcome = machine.run(RUN_BUDGET);
        RunReport {
            outcome,
            cycles: machine.cycles(),
            instret: machine.instret(),
            kernel: machine.into_handler(),
        }
    }
}

/// Errors loading a policy-artifact section (`.ascflow` / `.ascsites`)
/// out of an installed binary. Every failure is structured: a missing
/// section, a truncated payload, and a MAC mismatch are distinguishable,
/// and [`try_set_of`] never panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArtifactError {
    /// The binary carries no section with the given name.
    Missing(&'static str),
    /// The named section is present but truncated or rejected by its MAC.
    Rejected(&'static str, SealError),
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Missing(name) => write!(f, "binary carries no {name} section"),
            ArtifactError::Rejected(name, e) => write!(f, "{name}: {e}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

/// Opens the MAC-sealed set in an installed binary's section `name`
/// under `key`: the syscall-transition digraph of `.ascflow` (a
/// [`FlowGraph`]) or the rewritten-site registry of `.ascsites` (a
/// [`SiteRegistry`]).
///
/// # Errors
///
/// [`ArtifactError`] when the section is missing, truncated, or rejected
/// by its MAC under `key`.
pub fn try_set_of<T: Entry>(
    binary: &Binary,
    name: &'static str,
    key: &MacKey,
) -> Result<SortedSet<T>, ArtifactError> {
    let section = binary
        .section_by_name(name)
        .ok_or(ArtifactError::Missing(name))?;
    SortedSet::open(&section.data, key).map_err(|e| ArtifactError::Rejected(name, e))
}

/// [`try_set_of`] for a set the caller cannot run without.
fn sound_set_of<T: Entry>(binary: &Binary, name: &'static str, key: &MacKey) -> SortedSet<T> {
    try_set_of(binary, name, key)
        .unwrap_or_else(|e| panic!("authenticated binary has a sound policy set: {e}"))
}

/// The MAC-authenticated syscall-transition digraph of an installed
/// binary's `.ascflow` section (the flow tiers' policy).
///
/// # Panics
///
/// If the section is missing or its MAC does not verify under `key` —
/// both mean the binary was not produced by this installer/key pair, so
/// there is no sound digraph to enforce.
pub fn flow_graph_of(binary: &Binary, key: &MacKey) -> FlowGraph {
    sound_set_of(binary, sections::ASCFLOW, key)
}

/// The MAC-authenticated rewritten-site registry of an installed binary's
/// `.ascsites` section (the origin-privilege policy).
///
/// # Panics
///
/// If the section is missing or its MAC does not verify under `key`.
pub fn sites_of(binary: &Binary, key: &MacKey) -> SiteRegistry {
    sound_set_of(binary, sections::ASCSITES, key)
}

/// The site registry an enforcing kernel should run `binary` under.
/// Authentic registry → enforced; no `.ascsites` section at all →
/// `None` (pre-registry binaries keep the historical behaviour); present
/// but truncated or MAC-rejected → an *empty* registry, so every trap
/// fail-stops rather than silently dropping origin enforcement
/// (fail-closed).
pub fn site_registry_for(binary: &Binary, key: &MacKey) -> Option<SiteRegistry> {
    match try_set_of(binary, sections::ASCSITES, key) {
        Ok(sites) => Some(sites),
        Err(ArtifactError::Missing(_)) => None,
        Err(_) => Some(SiteRegistry::new()),
    }
}
