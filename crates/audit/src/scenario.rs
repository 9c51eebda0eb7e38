//! Scenario descriptions and the canonical runners replay shares with the
//! harnesses that capture bundles.
//!
//! A [`Scenario`] is everything needed to reproduce a run from seeds: the
//! workload(s), the OS personality, the verification tier, the
//! installation-key seed, the armed fault, and — for fleets — the
//! scheduler's policy seed and slicing parameters. The runners here are
//! the *single* implementation both sides use: the fault campaign and the
//! audit benchmark capture bundles through them, and [`crate::replay`]
//! re-runs them, so capture and replay cannot drift apart.

use std::collections::BTreeSet;

use asc_core::CacheStats;
use asc_crypto::MacKey;
use asc_installer::{Installer, InstallerOptions};
use asc_kernel::{Alert, KernelOptions, KernelStats, Personality, TraceEntry, VerifyTier};
use asc_sched::{KernelHandler, Pid, RecorderConfig, SchedConfig, SchedPolicy, Scheduler};
use asc_trace::{Event, RingSink};
use asc_vm::{Machine, Memory, RunOutcome, StepOutcome};
use asc_workloads::{build, program, Guest, ProgramSpec, RUN_BUDGET};

use asc_core::json::Value;

use crate::armed::{ArmedKernel, FaultAction, TrapFault};
use crate::{field, hex64, num, str_field, u64_field};

/// Ring capacity for bundle span capture: the victim's last events.
pub const BUNDLE_SPAN_CAPACITY: usize = 32;

/// A fault to arm on a run, exactly as the campaign plans them.
#[derive(Clone, Copy, Debug)]
pub enum AuditFault {
    /// XOR one byte of guest memory once `at_instret` instructions retire.
    Mem {
        /// Retired-instruction count at which the flip lands.
        at_instret: u64,
        /// Guest address of the flipped byte.
        addr: u32,
        /// XOR mask (nonzero).
        mask: u8,
    },
    /// A trap-time fault armed on the kernel's handler (register
    /// corruption, counter skew, cache poisoning — see [`TrapFault`]).
    Trap(TrapFault),
}

impl AuditFault {
    /// Serializes the fault for a bundle.
    pub fn to_value(&self) -> Value {
        match self {
            AuditFault::Mem {
                at_instret,
                addr,
                mask,
            } => Value::Object(vec![
                ("type".into(), Value::Str("mem".into())),
                ("at_instret".into(), num(*at_instret)),
                ("addr".into(), num(u64::from(*addr))),
                ("mask".into(), num(u64::from(*mask))),
            ]),
            AuditFault::Trap(tf) => {
                let action = match tf.action {
                    FaultAction::XorReg { index, mask } => Value::Object(vec![
                        ("type".into(), Value::Str("xor-reg".into())),
                        ("index".into(), num(u64::from(index))),
                        ("mask".into(), num(u64::from(mask))),
                    ]),
                    FaultAction::SkewCounter { delta } => Value::Object(vec![
                        ("type".into(), Value::Str("skew-counter".into())),
                        ("delta".into(), Value::Num(delta as f64)),
                    ]),
                    FaultAction::CorruptCache { selector, mask } => Value::Object(vec![
                        ("type".into(), Value::Str("corrupt-cache".into())),
                        ("selector".into(), hex64(selector)),
                        ("mask".into(), num(u64::from(mask))),
                    ]),
                    FaultAction::SkewCacheEpoch { delta } => Value::Object(vec![
                        ("type".into(), Value::Str("skew-cache-epoch".into())),
                        ("delta".into(), num(delta)),
                    ]),
                };
                Value::Object(vec![
                    ("type".into(), Value::Str("trap".into())),
                    ("at_trap".into(), num(tf.at_trap)),
                    ("action".into(), action),
                ])
            }
        }
    }

    /// Parses a fault serialized by [`AuditFault::to_value`].
    pub fn from_value(value: &Value) -> Result<AuditFault, String> {
        match str_field(value, "type")?.as_str() {
            "mem" => Ok(AuditFault::Mem {
                at_instret: u64_field(value, "at_instret")?,
                addr: u64_field(value, "addr")? as u32,
                mask: u64_field(value, "mask")? as u8,
            }),
            "trap" => {
                let action_value = field(value, "action")?;
                let action = match str_field(action_value, "type")?.as_str() {
                    "xor-reg" => FaultAction::XorReg {
                        index: u64_field(action_value, "index")? as u8,
                        mask: u64_field(action_value, "mask")? as u32,
                    },
                    "skew-counter" => {
                        let delta = field(action_value, "delta")?;
                        let delta = match delta.as_u64() {
                            Some(n) => n as i64,
                            None => {
                                let text = delta.to_pretty();
                                text.trim()
                                    .parse::<i64>()
                                    .map_err(|e| format!("bad delta: {e}"))?
                            }
                        };
                        FaultAction::SkewCounter { delta }
                    }
                    "corrupt-cache" => FaultAction::CorruptCache {
                        selector: u64_field(action_value, "selector")?,
                        mask: u64_field(action_value, "mask")? as u8,
                    },
                    "skew-cache-epoch" => FaultAction::SkewCacheEpoch {
                        delta: u64_field(action_value, "delta")?,
                    },
                    other => return Err(format!("unknown fault action {other:?}")),
                };
                Ok(AuditFault::Trap(TrapFault {
                    at_trap: u64_field(value, "at_trap")?,
                    action,
                }))
            }
            other => Err(format!("unknown fault type {other:?}")),
        }
    }
}

fn personality_to_str(p: Personality) -> &'static str {
    p.name()
}

fn personality_from_str(name: &str) -> Result<Personality, String> {
    match name {
        "linux" => Ok(Personality::Linux),
        "openbsd" => Ok(Personality::OpenBsd),
        other => Err(format!("unknown personality {other:?}")),
    }
}

/// `name`, if it names a registered workload.
fn registered(name: String) -> Result<String, String> {
    match program(&name) {
        Some(_) => Ok(name),
        None => Err(format!("unknown workload {name:?}")),
    }
}

fn tier_from_str(name: &str) -> Result<VerifyTier, String> {
    match name {
        "flow-only" => Ok(VerifyTier::FlowOnly),
        "mac" => Ok(VerifyTier::Mac),
        "mac+flow" => Ok(VerifyTier::MacPlusFlow),
        other => Err(format!("unknown verify tier {other:?}")),
    }
}

/// The scenario a bundle reproduces.
#[derive(Clone, Debug)]
pub enum Scenario {
    /// One process, one kernel (the fault campaign's shape).
    Solo(SoloScenario),
    /// A scheduled fleet with a seeded interleaving.
    Fleet(FleetScenario),
}

impl Scenario {
    /// Serializes the scenario for a bundle.
    pub fn to_value(&self) -> Value {
        match self {
            Scenario::Solo(s) => s.to_value(),
            Scenario::Fleet(f) => f.to_value(),
        }
    }

    /// Parses a scenario serialized by [`Scenario::to_value`].
    pub fn from_value(value: &Value) -> Result<Scenario, String> {
        match str_field(value, "kind")?.as_str() {
            "solo" => Ok(Scenario::Solo(SoloScenario::from_value(value)?)),
            "fleet" => Ok(Scenario::Fleet(FleetScenario::from_value(value)?)),
            other => Err(format!("unknown scenario kind {other:?}")),
        }
    }
}

/// A single-process enforcing run: workload, install identity, tier, and
/// the armed fault.
#[derive(Clone, Debug)]
pub struct SoloScenario {
    /// Registered workload name.
    pub workload: String,
    /// OS personality for build and kernel.
    pub personality: Personality,
    /// Verification tier.
    pub tier: VerifyTier,
    /// Installer program id.
    pub program_id: u16,
    /// Seed of the installation MAC key ([`MacKey::from_seed`]).
    pub key_seed: u64,
    /// The armed fault, if any.
    pub fault: Option<AuditFault>,
}

impl SoloScenario {
    /// Serializes the scenario.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("kind".into(), Value::Str("solo".into())),
            ("workload".into(), Value::Str(self.workload.clone())),
            (
                "personality".into(),
                Value::Str(personality_to_str(self.personality).into()),
            ),
            ("tier".into(), Value::Str(self.tier.name().into())),
            ("program_id".into(), num(u64::from(self.program_id))),
            ("key_seed".into(), hex64(self.key_seed)),
            (
                "fault".into(),
                self.fault
                    .as_ref()
                    .map(AuditFault::to_value)
                    .unwrap_or(Value::Null),
            ),
        ])
    }

    /// Parses a scenario serialized by [`SoloScenario::to_value`].
    pub fn from_value(value: &Value) -> Result<SoloScenario, String> {
        let fault = match field(value, "fault")? {
            Value::Null => None,
            v => Some(AuditFault::from_value(v)?),
        };
        Ok(SoloScenario {
            workload: registered(str_field(value, "workload")?)?,
            personality: personality_from_str(&str_field(value, "personality")?)?,
            tier: tier_from_str(&str_field(value, "tier")?)?,
            program_id: u64_field(value, "program_id")? as u16,
            key_seed: u64_field(value, "key_seed")?,
            fault,
        })
    }

    /// The kernel options of the run: [`scenario_options`] for this
    /// scenario's personality and tier.
    pub fn options(&self) -> KernelOptions {
        scenario_options(self.personality, self.tier)
    }

    /// Builds and installs the workload, reproducing the artifacts the
    /// scenario originally ran (same key seed, program id, personality ⇒
    /// same authenticated binary, bit for bit).
    ///
    /// # Panics
    ///
    /// Panics on harness preconditions: unknown workload, build or
    /// install failure.
    pub fn prepare(&self) -> (&'static ProgramSpec, Guest) {
        let spec =
            program(&self.workload).unwrap_or_else(|| panic!("unknown workload {}", self.workload));
        let plain =
            build(spec, self.personality).unwrap_or_else(|e| panic!("{}: {e}", self.workload));
        let key = MacKey::from_seed(self.key_seed);
        let installer = Installer::new(
            key.clone(),
            InstallerOptions::new(self.personality).with_program_id(self.program_id),
        );
        let (auth, _) = installer
            .install(&plain, spec.name)
            .unwrap_or_else(|e| panic!("{}: {e}", self.workload));
        (spec, Guest::installed(auth, &key))
    }

    /// Prepares and runs the scenario once (replay path; harnesses that
    /// run many faults against one binary hold its [`Guest`] and call
    /// [`run_solo`]).
    pub fn run(&self) -> SoloRun {
        let (spec, guest) = self.prepare();
        run_solo(spec, &guest, self.options(), self.fault.as_ref())
    }
}

/// The kernel options of every scenario run, captured or replayed:
/// enforcing under `tier` with the verified-call cache.
pub fn scenario_options(personality: Personality, tier: VerifyTier) -> KernelOptions {
    KernelOptions::enforcing(personality)
        .with_verify_cache()
        .with_tier(tier)
}

/// Everything observable about one solo run, as captured for bundles and
/// the campaign oracle.
#[derive(Clone, Debug)]
pub struct SoloRun {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Machine cycles at the end (for kills: the kill cycle).
    pub cycles: u64,
    /// Instructions retired.
    pub instret: u64,
    /// Captured standard output.
    pub stdout: Vec<u8>,
    /// Captured standard error.
    pub stderr: Vec<u8>,
    /// The dispatched-syscall trace.
    pub trace: Vec<TraceEntry>,
    /// Structured administrator alerts.
    pub alerts: Vec<Alert>,
    /// Digest of the final filesystem tree.
    pub fs_digest: u64,
    /// The kernel's aggregate counters.
    pub stats: KernelStats,
    /// The verified-call cache's counters.
    pub cache: CacheStats,
    /// The in-kernel anti-replay counter's final value.
    pub policy_counter: u64,
    /// The last ring events (capacity [`BUNDLE_SPAN_CAPACITY`]), oldest
    /// first — the bundle's span log.
    pub spans: Vec<Event>,
    /// Events the span ring discarded (exact).
    pub ring_dropped: u64,
}

impl SoloRun {
    /// Captures the observables of a run that ended in `outcome` from its
    /// machine, with an empty span log: [`run_solo`] adds what its ring
    /// kept.
    pub fn capture<H: KernelHandler>(outcome: RunOutcome, machine: &Machine<H>) -> SoloRun {
        let kernel = machine.handler().kernel();
        SoloRun {
            outcome,
            cycles: machine.cycles(),
            instret: machine.instret(),
            stdout: kernel.stdout().to_vec(),
            stderr: kernel.stderr().to_vec(),
            trace: kernel.trace().to_vec(),
            alerts: kernel.alerts().to_vec(),
            fs_digest: kernel.fs().digest(),
            stats: *kernel.stats(),
            cache: kernel.cache_stats(),
            policy_counter: kernel.policy_counter(),
            spans: Vec::new(),
            ring_dropped: 0,
        }
    }
}

/// XORs `mask` into the guest byte at `addr` through the kernel's
/// physical access path, so page protections do not interfere. Returns
/// whether the byte was mapped, and so flipped.
pub fn flip_byte(mem: &mut Memory, addr: u32, mask: u8) -> bool {
    let Ok(&[byte]) = mem.kread(addr, 1) else {
        return false;
    };
    mem.kwrite(addr, &[byte ^ mask]).is_ok()
}

/// The canonical solo runner: `guest` booted for `spec` under `opts` (in
/// practice [`scenario_options`]) with a bounded span ring attached, an
/// optional armed fault, and full observable capture. Bundle capture
/// (`asc-faults`) and [`crate::replay`] both run through here, so they
/// cannot diverge.
pub fn run_solo(
    spec: &ProgramSpec,
    guest: &Guest,
    opts: KernelOptions,
    fault: Option<&AuditFault>,
) -> SoloRun {
    let trap_fault = match fault {
        Some(AuditFault::Trap(tf)) => Some(*tf),
        _ => None,
    };
    let mut machine = guest
        .boot(opts, spec.fs(), spec.stdin)
        .expect("workload fits in memory")
        .map_handler(|kernel| ArmedKernel::new(kernel, trap_fault));
    machine
        .handler_mut()
        .kernel_mut()
        .set_trace_sink(Box::new(RingSink::new(BUNDLE_SPAN_CAPACITY)));
    let outcome = match fault {
        Some(&AuditFault::Mem {
            at_instret,
            addr,
            mask,
        }) => match machine.run_until_instret(at_instret, RUN_BUDGET) {
            StepOutcome::Done(outcome) => outcome, // finished before the flip
            StepOutcome::Running => {
                flip_byte(machine.mem_mut(), addr, mask);
                machine.run(RUN_BUDGET)
            }
        },
        Some(AuditFault::Trap(_)) | None => machine.run(RUN_BUDGET),
    };
    let ring = machine
        .handler_mut()
        .kernel_mut()
        .take_trace_sink()
        .expect("span ring attached above")
        .into_any()
        .downcast::<RingSink>()
        .expect("sink is the span ring");
    SoloRun {
        spans: ring.events().cloned().collect(),
        ring_dropped: ring.dropped_events(),
        ..SoloRun::capture(outcome, &machine)
    }
}

/// A scheduled fleet scenario: per-pid workloads, a seeded interleaving,
/// and an optional trap fault armed on one pid.
#[derive(Clone, Debug)]
pub struct FleetScenario {
    /// Workload name per pid (pid `i + 1` runs `procs[i]`).
    pub procs: Vec<String>,
    /// OS personality.
    pub personality: Personality,
    /// Verification tier (all kernels).
    pub tier: VerifyTier,
    /// Seed of the shared installation key.
    pub key_seed: u64,
    /// Program id of the first distinct workload; the `i`-th distinct
    /// workload (in order of first appearance) installs as `base + i`.
    pub program_id_base: u16,
    /// Scheduler policy seed ([`SchedPolicy::SeededRandom`]).
    pub sched_seed: u64,
    /// Retired-instruction quantum per slice.
    pub slice_instrs: u64,
    /// Per-process cycle budget.
    pub budget_cycles: u64,
    /// Kernel batch-window depth, if batching.
    pub batch_depth: Option<usize>,
    /// A trap fault armed on one pid's kernel before the run.
    pub fault: Option<(Pid, TrapFault)>,
}

impl FleetScenario {
    /// Serializes the scenario.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("kind".into(), Value::Str("fleet".into())),
            (
                "procs".into(),
                Value::Array(self.procs.iter().map(|w| Value::Str(w.clone())).collect()),
            ),
            (
                "personality".into(),
                Value::Str(personality_to_str(self.personality).into()),
            ),
            ("tier".into(), Value::Str(self.tier.name().into())),
            ("key_seed".into(), hex64(self.key_seed)),
            (
                "program_id_base".into(),
                num(u64::from(self.program_id_base)),
            ),
            ("sched_seed".into(), hex64(self.sched_seed)),
            ("slice_instrs".into(), num(self.slice_instrs)),
            ("budget_cycles".into(), num(self.budget_cycles)),
            (
                "batch_depth".into(),
                self.batch_depth
                    .map(|d| num(d as u64))
                    .unwrap_or(Value::Null),
            ),
            (
                "fault".into(),
                self.fault
                    .as_ref()
                    .map(|(pid, tf)| {
                        Value::Object(vec![
                            ("pid".into(), num(u64::from(*pid))),
                            ("trap".into(), AuditFault::Trap(*tf).to_value()),
                        ])
                    })
                    .unwrap_or(Value::Null),
            ),
        ])
    }

    /// Parses a scenario serialized by [`FleetScenario::to_value`].
    pub fn from_value(value: &Value) -> Result<FleetScenario, String> {
        let procs = field(value, "procs")?
            .as_array()
            .ok_or("procs is not an array")?
            .iter()
            .map(|v| {
                let name = v.as_str().ok_or("proc entry is not a string")?;
                registered(name.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let batch_depth = match field(value, "batch_depth")? {
            Value::Null => None,
            v => Some(parse_usize(v)?),
        };
        let fault = match field(value, "fault")? {
            Value::Null => None,
            v => {
                let pid = u64_field(v, "pid")? as Pid;
                match AuditFault::from_value(field(v, "trap")?)? {
                    AuditFault::Trap(tf) => Some((pid, tf)),
                    AuditFault::Mem { .. } => return Err("fleet faults must be trap faults".into()),
                }
            }
        };
        let scenario = FleetScenario {
            procs,
            personality: personality_from_str(&str_field(value, "personality")?)?,
            tier: tier_from_str(&str_field(value, "tier")?)?,
            key_seed: u64_field(value, "key_seed")?,
            program_id_base: u64_field(value, "program_id_base")? as u16,
            sched_seed: u64_field(value, "sched_seed")?,
            slice_instrs: u64_field(value, "slice_instrs")?,
            budget_cycles: u64_field(value, "budget_cycles")?,
            batch_depth,
            fault,
        };
        // A zero quantum never retires an instruction, so no slice would
        // ever end the victim's run.
        if scenario.slice_instrs == 0 {
            return Err("slice_instrs must be positive".into());
        }
        if let Some((pid, _)) = scenario.fault {
            scenario.check_pid("fault", pid)?;
        }
        // The i-th distinct workload installs as `program_id_base + i`.
        let distinct = scenario.procs.iter().collect::<BTreeSet<_>>().len();
        if usize::from(scenario.program_id_base) + distinct > usize::from(u16::MAX) + 1 {
            return Err(format!(
                "program ids from {} for {distinct} workloads pass {}",
                scenario.program_id_base,
                u16::MAX
            ));
        }
        Ok(scenario)
    }

    /// Whether `pid` names one of the fleet's processes.
    pub(crate) fn check_pid(&self, what: &str, pid: Pid) -> Result<(), String> {
        if pid == 0 || pid as usize > self.procs.len() {
            return Err(format!(
                "{what} pid {pid} is not one of the fleet's {} processes",
                self.procs.len()
            ));
        }
        Ok(())
    }

    /// Builds, installs, and spawns the fleet (shared verify cache, one
    /// [`ArmedKernel`] per pid, the fault armed on its pid's), without
    /// running any slice.
    ///
    /// # Panics
    ///
    /// Panics on harness preconditions: unknown workload, build/install
    /// failure, fault pid out of range.
    pub fn build(&self) -> Scheduler<ArmedKernel> {
        let key = MacKey::from_seed(self.key_seed);
        let mut built: Vec<(&str, &'static ProgramSpec, Guest)> = Vec::new();
        for name in &self.procs {
            if built.iter().any(|(n, ..)| n == name) {
                continue;
            }
            let spec = program(name).unwrap_or_else(|| panic!("unknown workload {name}"));
            let plain = build(spec, self.personality).unwrap_or_else(|e| panic!("{name}: {e}"));
            let program_id = self.program_id_base + built.len() as u16;
            let installer = Installer::new(
                key.clone(),
                InstallerOptions::new(self.personality).with_program_id(program_id),
            );
            let (auth, _) = installer
                .install(&plain, spec.name)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            built.push((name, spec, Guest::installed(auth, &key)));
        }
        let mut sched = Scheduler::with_shared_cache(SchedConfig {
            policy: SchedPolicy::SeededRandom(self.sched_seed),
            slice_instrs: self.slice_instrs,
            budget_cycles: self.budget_cycles,
            batch_depth: self.batch_depth,
        });
        if let Some((pid, _)) = self.fault {
            self.check_pid("fault", pid)
                .unwrap_or_else(|e| panic!("{e}"));
        }
        let opts = scenario_options(self.personality, self.tier);
        for (pid, name) in (1..).zip(&self.procs) {
            let (_, spec, guest) = built.iter().find(|(n, ..)| n == name).expect("built above");
            let fault = self.fault.filter(|(p, _)| *p == pid).map(|(_, tf)| tf);
            let machine = guest
                .boot(opts.clone(), spec.fs(), spec.stdin)
                .expect("workload fits in memory")
                .map_handler(|kernel| ArmedKernel::new(kernel, fault));
            sched.spawn(name, machine);
        }
        sched
    }

    /// Builds the fleet and runs it to completion, optionally with the
    /// flight recorder attached (attachment is perturbation-free, so the
    /// run is bit-identical either way).
    pub fn run(&self, recorder: Option<RecorderConfig>) -> Scheduler<ArmedKernel> {
        let mut sched = self.build();
        if let Some(cfg) = recorder {
            sched.attach_recorder(cfg);
        }
        sched.run();
        sched
    }

    /// Builds the fleet and steps the seeded interleaving only until
    /// `victim` stops being runnable (the replay-to-kill path). Returns
    /// the scheduler frozen at that point.
    pub fn run_to_kill(&self, victim: Pid) -> Scheduler<ArmedKernel> {
        let mut sched = self.build();
        while sched.process(victim).state().is_runnable() {
            if sched.step().is_none() {
                break;
            }
        }
        sched
    }
}

fn parse_usize(value: &Value) -> Result<usize, String> {
    value
        .as_u64()
        .map(|n| n as usize)
        .ok_or_else(|| "expected a number".to_string())
}
