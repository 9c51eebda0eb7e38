//! Syscall-origin privilege, property-tested end to end.
//!
//! The installer records the exact pc set it rewrote in the binary's
//! authenticated `.ascsites` section; the kernel fail-stops any trap
//! from outside that set before the flow and MAC paths, under every
//! tier. These tests pin the two directions of that contract on the
//! benign workloads:
//!
//! * **sufficiency** — under every tier × cache mode, every trap a
//!   clean run produces originates from a registered pc, so origin
//!   enforcement never costs a benign program its life;
//! * **exactness** — the registry is precisely the rewritten-site set,
//!   not an over-approximation: every registered pc holds a real
//!   `SYSCALL` opcode, the count matches the installer's own precision
//!   accounting, and removing any *hit* pc from the registry turns the
//!   clean run into an attributed `unrewritten-site` kill (every entry
//!   is load-bearing).

use asc::crypto::MacKey;
use asc::installer::{Installer, InstallerOptions};
use asc::isa::Opcode;
use asc::kernel::{Kernel, KernelOptions, Personality, ReasonCode, SiteRegistry, VerifyTier};
use asc::object::Binary;
use asc::vm::{Machine, RunOutcome};
use asc::workloads::{build, flow_graph_of, program, sites_of, Guest, ProgramSpec, RUN_BUDGET};
use asc_testkit::{check, Rng};

const PERSONALITY: Personality = Personality::Linux;
const WORKLOADS: [&str; 3] = ["bison", "calc", "tar"];

fn install(name: &str, key: &MacKey, program_id: u16) -> (&'static ProgramSpec, Binary, usize) {
    let spec = program(name).expect("workload is registered");
    let plain = build(spec, PERSONALITY).expect("workload builds");
    let installer = Installer::new(
        key.clone(),
        InstallerOptions::new(PERSONALITY).with_program_id(program_id),
    );
    let (auth, report) = installer.install(&plain, name).expect("workload installs");
    (spec, auth, report.precision.rewritten)
}

/// Runs `auth` under an explicit registry (instead of the one
/// [`Guest::boot`] loads from `.ascsites`), mirroring the enforcing
/// kernel configuration of the measurement path.
fn run_with_registry(
    spec: &ProgramSpec,
    auth: &Binary,
    key: &MacKey,
    tier: VerifyTier,
    cached: bool,
    registry: SiteRegistry,
) -> (RunOutcome, Kernel) {
    let mut kernel = Kernel::with_fs(options(tier, cached), spec.fs());
    kernel.set_stdin(spec.stdin.to_vec());
    if tier.checks_flow() {
        kernel.set_flow_graph(flow_graph_of(auth, key));
    }
    kernel.set_site_registry(registry);
    kernel.set_key(key.clone());
    kernel.set_brk(auth.highest_addr());
    let mut machine = Machine::load(auth, kernel).expect("workload fits in memory");
    let outcome = machine.run(RUN_BUDGET);
    (outcome, machine.into_handler())
}

fn options(tier: VerifyTier, cached: bool) -> KernelOptions {
    let opts = KernelOptions::enforcing(PERSONALITY).with_tier(tier);
    if cached {
        opts.with_verify_cache()
    } else {
        opts
    }
}

/// Every benign trap comes from a registered site, under every tier and
/// both cache modes, for any install key / program id — and the
/// registry is exact: its size matches the installer's rewritten-site
/// count and every registered pc holds a `SYSCALL` opcode in the
/// installed text.
#[test]
fn benign_traps_all_originate_from_registered_sites() {
    check(0x0819_517E, 36, |rng: &mut Rng| {
        let name = *rng.pick(&WORKLOADS);
        let tier = *rng.pick(&VerifyTier::ALL);
        let cached = rng.chance(1, 2);
        let key = MacKey::from_seed(rng.next_u64());
        let program_id = rng.range_u32(1, 0xFFFF) as u16;
        let (spec, auth, rewritten) = install(name, &key, program_id);

        let registry = sites_of(&auth, &key);
        assert!(!registry.is_empty(), "{name}: no sites registered");
        // Exact, not merely sufficient: one registry entry per site the
        // installer rewrote, and each entry points at a real `SYSCALL`.
        assert_eq!(
            registry.len(),
            rewritten,
            "{name}: registry size diverges from the installer's count"
        );
        for pc in registry.iter() {
            let section = auth
                .section_at(pc)
                .unwrap_or_else(|| panic!("{name}: registered pc {pc:#x} is unmapped"));
            let byte = section.data[(pc - section.addr) as usize];
            assert_eq!(
                byte,
                Opcode::Syscall as u8,
                "{name}: registered pc {pc:#x} does not hold a SYSCALL opcode"
            );
        }

        let report = Guest::installed(auth, &key).run(spec, options(tier, cached));
        assert_eq!(
            report.outcome,
            RunOutcome::Exited(0),
            "{name} under {} (cached={cached}): alerts={:?}",
            tier.name(),
            report.kernel.alerts()
        );
        assert!(report.kernel.alerts().is_empty(), "{name}: spurious alerts");
        assert!(!report.kernel.trace().is_empty(), "{name}: no traps at all");
        for entry in report.kernel.trace() {
            assert!(
                registry.contains(entry.site),
                "{name} under {} (cached={cached}): trap for syscall {} came from \
                 unregistered pc {:#x}",
                tier.name(),
                entry.raw_nr,
                entry.site
            );
        }
    });
}

/// Every registered pc is load-bearing: deleting any pc the run
/// actually traps from flips the clean exit into a fail-stop
/// `unrewritten-site` kill at that pc — so the registry cannot shrink
/// (the benign program dies) any more than it can grow (the MAC fails).
#[test]
fn removing_a_hit_site_turns_the_clean_run_into_an_origin_kill() {
    check(0x0819_0B1A, 32, |rng: &mut Rng| {
        let name = *rng.pick(&WORKLOADS);
        let tier = *rng.pick(&VerifyTier::ALL);
        let cached = rng.chance(1, 2);
        let key = MacKey::from_seed(rng.next_u64());
        let (spec, auth, _) = install(name, &key, 0x0B1A);

        // A clean run's trace tells us which sites are actually hit.
        let full = sites_of(&auth, &key);
        let report = Guest::installed(auth.clone(), &key).run(spec, options(tier, false));
        assert_eq!(report.outcome, RunOutcome::Exited(0), "{name}: clean run");
        let hit: Vec<u32> = {
            let mut pcs: Vec<u32> = report.kernel.trace().iter().map(|t| t.site).collect();
            pcs.sort_unstable();
            pcs.dedup();
            pcs
        };
        let victim = *rng.pick(&hit);
        let narrowed: SiteRegistry = full.iter().filter(|&pc| pc != victim).collect();
        assert_eq!(narrowed.len(), full.len() - 1);

        let (outcome, kernel) = run_with_registry(spec, &auth, &key, tier, cached, narrowed);
        assert!(
            matches!(outcome, RunOutcome::Killed(_)),
            "{name} under {} minus site {victim:#x}: expected a kill, got {outcome:?}",
            tier.name()
        );
        let alert = kernel.alerts().last().expect("fail-stop kill alerts");
        assert_eq!(alert.reason(), ReasonCode::UnrewrittenSite, "{alert}");
        assert!(
            alert.to_string().contains(&format!("{victim:#x}")),
            "kill is attributed to the deregistered pc: {alert}"
        );
    });
}

/// The fail-closed floor: an *empty* registry (what the loader installs
/// when `.ascsites` is present but tampered) kills the very first trap
/// under every tier, before any side effect — stdout, trace, and the
/// filesystem stay untouched.
#[test]
fn empty_registry_kills_the_first_trap_before_any_side_effect() {
    for name in WORKLOADS {
        let key = MacKey::from_seed(0x0819_FA11);
        let (spec, auth, _) = install(name, &key, 0x0F11);
        for &tier in &VerifyTier::ALL {
            let pristine = spec.fs().digest();
            let (outcome, kernel) =
                run_with_registry(spec, &auth, &key, tier, false, SiteRegistry::new());
            assert!(
                matches!(outcome, RunOutcome::Killed(_)),
                "{name} under {}: empty registry must kill, got {outcome:?}",
                tier.name()
            );
            let alert = kernel.alerts().last().expect("kill alerts");
            assert_eq!(alert.reason(), ReasonCode::UnrewrittenSite, "{alert}");
            assert!(kernel.stdout().is_empty(), "{name}: output escaped");
            assert!(kernel.trace().is_empty(), "{name}: a call was dispatched");
            assert_eq!(kernel.fs().digest(), pristine, "{name}: fs mutated");
            assert_eq!(kernel.stats().verified, 0, "{name}: AES work was spent");
        }
    }
}
