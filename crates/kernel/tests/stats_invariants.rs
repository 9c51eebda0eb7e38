//! Seeded property test over [`asc_kernel::KernelStats`]: whatever a
//! workload does, the counter relations the reports rely on must hold.
//!
//! The kernel also carries `debug_assert!`s for the same relations in the
//! trap handler; this test exercises them across randomized inputs and
//! cache configurations (tests build with debug assertions on).

use asc_crypto::MacKey;
use asc_installer::{Installer, InstallerOptions};
use asc_kernel::{FaultAction, Kernel, KernelOptions, KernelStats, Personality, TrapFault};
use asc_vm::{Machine, RunOutcome, StepOutcome};
use asc_workloads::{Guest, RUN_BUDGET};

const PERSONALITY: Personality = Personality::Linux;

/// Guest whose syscall mix depends on stdin: each input byte selects a
/// different call (write / getpid / open+close / uid probes), so random
/// inputs produce varied hot/cold and repeat patterns.
const GUEST: &str = r#"
fn main() {
    var buf[64];
    let n = read(0, buf, 64);
    var i = 0;
    while (i < n) {
        let c = buf[i];
        if (c == 119) {
            write(1, "w", 1);
        }
        if (c == 103) {
            getpid();
        }
        if (c == 111) {
            let fd = open("/etc/motd", 0, 0);
            close(fd);
        }
        if (c == 117) {
            getuid();
            geteuid();
        }
        i = i + 1;
    }
    return 0;
}
"#;

/// Deterministic xorshift64* generator (no external RNG crates).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

fn check_invariants(stats: &KernelStats, cached: bool, label: &str) {
    assert!(
        stats.verified <= stats.syscalls,
        "{label}: verified {} > syscalls {}",
        stats.verified,
        stats.syscalls
    );
    assert!(
        stats.warm_aes_blocks <= stats.verify_aes_blocks,
        "{label}: warm AES blocks {} > total {}",
        stats.warm_aes_blocks,
        stats.verify_aes_blocks
    );
    assert!(
        stats.warm_verify_cycles <= stats.verify_cycles,
        "{label}: warm verify cycles {} > total {}",
        stats.warm_verify_cycles,
        stats.verify_cycles
    );
    // Holds here only because nothing poisons the cache; see
    // `poisoned_cache_hits_and_fallbacks_may_exceed_verified_calls`.
    assert!(
        stats.cache_hits + stats.cache_fallbacks <= stats.verified,
        "{label}: {} hits + {} fallbacks > {} verified",
        stats.cache_hits,
        stats.cache_fallbacks,
        stats.verified
    );
    assert!(
        stats.verify_cycles <= stats.kernel_cycles,
        "{label}: verify cycles {} > kernel cycles {}",
        stats.verify_cycles,
        stats.kernel_cycles
    );
    assert_eq!(
        stats.cold_verified(),
        stats.verified - stats.cache_hits,
        "{label}"
    );
    if !cached {
        assert_eq!(stats.cache_hits, 0, "{label}: hits without a cache");
        assert_eq!(
            stats.warm_aes_blocks, 0,
            "{label}: warm AES without a cache"
        );
        assert_eq!(
            stats.warm_verify_cycles, 0,
            "{label}: warm cycles without a cache"
        );
        assert_eq!(
            stats.cache_fallbacks, 0,
            "{label}: fallbacks without a cache"
        );
    }
}

#[test]
fn stats_invariants_hold_across_random_workloads() {
    let key = MacKey::from_seed(0x57A7_51F7);
    let plain = asc_workloads::build_source(GUEST, PERSONALITY).expect("guest builds");
    let installer = Installer::new(
        key.clone(),
        InstallerOptions::new(PERSONALITY).with_program_id(7),
    );
    let (auth, _) = installer.install(&plain, "statsprop").expect("installs");

    let mut rng = Rng(0xDEC0_DE5E_ED00_0001);
    let alphabet = [b'w', b'g', b'o', b'u', b'x'];
    for trial in 0..24 {
        let len = rng.below(60) as usize;
        let stdin: Vec<u8> = (0..len)
            .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize])
            .collect();
        let cached = rng.below(2) == 1;
        let opts = if cached {
            KernelOptions::enforcing(PERSONALITY).with_verify_cache()
        } else {
            KernelOptions::enforcing(PERSONALITY)
        };
        let mut kernel = Kernel::new(opts);
        kernel.set_key(key.clone());
        kernel.set_stdin(stdin.clone());
        kernel.set_brk(auth.highest_addr());
        let mut machine = Machine::load(&auth, kernel).expect("loads");
        let outcome = machine.run(100_000_000);
        let kernel = machine.into_handler();
        assert!(
            outcome.is_success(),
            "trial {trial}: {outcome:?} (alerts: {:?})",
            kernel.alerts()
        );
        let label = format!("trial {trial} (cached={cached}, stdin={stdin:?})");
        check_invariants(kernel.stats(), cached, &label);
    }
}

#[test]
fn absorb_sums_every_counter() {
    let mut a = KernelStats {
        syscalls: 10,
        verified: 8,
        verify_aes_blocks: 40,
        verify_cycles: 4000,
        kernel_cycles: 9000,
        cache_hits: 5,
        warm_aes_blocks: 5,
        warm_verify_cycles: 500,
        cache_fallbacks: 1,
        cache_scrubs: 1,
    };
    let b = a;
    a.absorb(&b);
    assert_eq!(a.syscalls, 20);
    assert_eq!(a.verified, 16);
    assert_eq!(a.verify_aes_blocks, 80);
    assert_eq!(a.verify_cycles, 8000);
    assert_eq!(a.kernel_cycles, 18000);
    assert_eq!(a.cache_hits, 10);
    assert_eq!(a.warm_aes_blocks, 10);
    assert_eq!(a.warm_verify_cycles, 1000);
    assert_eq!(a.cache_fallbacks, 2);
    assert_eq!(a.cache_scrubs, 2);
}

/// A poisoned cache entry degrades to the cold path, and fallbacks are
/// counted per check: one verified call can add both a hit (its call MAC)
/// and a fallback (a stale blob or state entry). So hits plus fallbacks
/// may exceed verified calls, and the kernel must not assert otherwise.
/// One cache byte is poisoned before every trap from the second on.
#[test]
fn poisoned_cache_hits_and_fallbacks_may_exceed_verified_calls() {
    let spec = asc_workloads::program("gzip-spec").expect("registered");
    let key = MacKey::from_seed(0x57A7_51F7);
    let plain = asc_workloads::build(spec, PERSONALITY).expect("builds");
    let installer = Installer::new(key.clone(), InstallerOptions::new(PERSONALITY));
    let (auth, _) = installer.install(&plain, spec.name).expect("installs");
    let reference = Guest::plain(plain).run(spec, KernelOptions::plain(PERSONALITY));

    let opts = KernelOptions::enforcing(PERSONALITY).with_verify_cache();
    let mut machine = Guest::installed(auth, &key)
        .boot(opts, spec.fs(), spec.stdin)
        .expect("fits in memory");
    let outcome = loop {
        let traps = machine.handler().stats().syscalls;
        if traps >= 1 {
            machine.handler_mut().arm_fault(TrapFault {
                at_trap: traps + 1,
                action: FaultAction::CorruptCache {
                    selector: traps.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    mask: 1,
                },
            });
        }
        if let StepOutcome::Done(outcome) = machine.step() {
            break outcome;
        }
        assert!(machine.cycles() < RUN_BUDGET, "run budget exhausted");
    };
    let kernel = machine.handler();
    assert_eq!(
        outcome,
        RunOutcome::Exited(0),
        "alerts: {:?}",
        kernel.alerts()
    );
    assert_eq!(kernel.stdout(), reference.kernel.stdout());
    let stats = kernel.stats();
    assert!(
        stats.cache_hits + stats.cache_fallbacks > stats.verified,
        "the case is reached: {stats:?}"
    );
}
