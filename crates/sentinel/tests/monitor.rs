//! Sentinel integration: windows partition the run's cumulative counters
//! exactly, a clean fleet reports healthy, and attached metrics feed the
//! windowed p99.

use asc_installer::{Installer, InstallerOptions};
use asc_kernel::{Kernel, KernelMetrics, KernelOptions, Personality, VerifyTier};
use asc_sched::{SchedConfig, SchedPolicy, Scheduler};
use asc_sentinel::{Detector, Sentinel, SentinelConfig, Series};
use asc_vm::Machine;
use asc_workloads::{build, program, Guest, ProgramSpec, RUN_BUDGET};

use asc_crypto::MacKey;

const PERSONALITY: Personality = Personality::Linux;
const WORKLOADS: [&str; 3] = ["bison", "calc", "tar"];

fn key() -> MacKey {
    MacKey::from_seed(0x5E17_11E1)
}

fn machine_for(spec: &ProgramSpec, program_id: u16, with_metrics: bool) -> Machine<Kernel> {
    let plain = build(spec, PERSONALITY).expect("workload builds");
    let installer = Installer::new(
        key(),
        InstallerOptions::new(PERSONALITY).with_program_id(program_id),
    );
    let (auth, _) = installer.install(&plain, spec.name).expect("installs");
    let opts = KernelOptions::enforcing(PERSONALITY)
        .with_verify_cache()
        .with_tier(VerifyTier::MacPlusFlow);
    let mut machine = Guest::installed(auth, &key())
        .boot(opts, spec.fs(), spec.stdin)
        .expect("workload fits in guest memory");
    if with_metrics {
        machine
            .handler_mut()
            .set_metrics(Box::new(KernelMetrics::new()));
    }
    machine
}

fn spawn_fleet(with_metrics: bool) -> Scheduler {
    let mut sched = Scheduler::with_shared_cache(SchedConfig {
        policy: SchedPolicy::SeededRandom(0x5E17_0001),
        slice_instrs: 2_000,
        budget_cycles: RUN_BUDGET,
        batch_depth: Some(8),
    });
    for (i, name) in WORKLOADS.iter().enumerate() {
        let spec = program(name).expect("workload is registered");
        sched.spawn(
            spec.name,
            machine_for(spec, 0x5E00 + i as u16, with_metrics),
        );
    }
    sched
}

/// Sum-of-windows identity: because every window is a delta of the same
/// cumulative readings, the windows partition the run — their sums equal
/// the final aggregate counters exactly, and their spans tile the clock.
#[test]
fn windows_partition_the_run_exactly() {
    let mut sched = spawn_fleet(false);
    let sentinel = Sentinel::drive(&mut sched, SentinelConfig::new(200_000));
    let windows = sentinel.windows();
    assert!(
        windows.len() >= 4,
        "expected several windows, got {}",
        windows.len()
    );
    assert_eq!(sentinel.windows_total(), windows.len() as u64);

    let agg = sched.aggregate_stats();
    let sum = |f: fn(&asc_sentinel::WindowSample) -> u64| windows.iter().map(f).sum::<u64>();
    assert_eq!(sum(|w| w.syscalls), agg.syscalls, "syscalls partition");
    assert_eq!(sum(|w| w.verified), agg.verified, "verified partition");
    assert_eq!(
        sum(|w| w.verify_cycles),
        agg.verify_cycles,
        "cycles partition"
    );
    assert_eq!(sum(|w| w.warm_hits), agg.cache_hits, "warm hits partition");
    let batch = sched.batch_stats();
    assert_eq!(
        sum(|w| w.batch_windows),
        batch.windows,
        "batch windows partition"
    );
    assert_eq!(
        sum(|w| w.batch_drained),
        batch.drained,
        "batch drains partition"
    );
    let probes = sched
        .shared_cache()
        .map(|c| c.borrow().probes())
        .unwrap_or(0);
    assert_eq!(sum(|w| w.probes), probes, "probes partition");

    // Window spans tile the clock with no gaps or overlaps, ending at
    // the final clock.
    let mut cursor = windows[0].start;
    for w in windows {
        assert_eq!(
            w.start, cursor,
            "window {} opens where the last closed",
            w.index
        );
        assert!(w.end > w.start, "window {} spans time", w.index);
        cursor = w.end;
    }
    assert_eq!(
        cursor,
        sched.clock(),
        "final window closes at the final clock"
    );
}

/// A clean enforcing fleet keeps the whole default detector suite quiet:
/// the report is healthy, with zero firings on every quiet-SLO verdict.
#[test]
fn clean_fleet_reports_healthy() {
    let mut sched = spawn_fleet(false);
    let sentinel = Sentinel::drive(&mut sched, SentinelConfig::new(200_000));
    let report = sentinel.report();
    assert!(
        report.healthy(),
        "clean fleet fired detectors: {:?}",
        report.events
    );
    assert!(report.events.is_empty());
    assert_eq!(report.verdicts.len(), Detector::default_suite().len());
    for v in &report.verdicts {
        assert!(v.quiet_slo && v.pass && v.fired == 0, "{v:?}");
    }
    // The report round-trips through JSON.
    let value = report.to_value();
    let parsed = asc_core::json::Value::parse(&value.to_pretty()).expect("report JSON parses");
    assert_eq!(parsed, value);
}

/// With `KernelMetrics` attached, windows carry the histogram-derived
/// p99 of per-call verify cycles; without, the field is absent — and
/// attachment changes no other field of any window.
#[test]
fn metrics_attachment_feeds_p99_without_changing_windows() {
    let mut bare = spawn_fleet(false);
    let bare_sentinel = Sentinel::drive(&mut bare, SentinelConfig::new(200_000));
    let mut metered = spawn_fleet(true);
    let metered_sentinel = Sentinel::drive(&mut metered, SentinelConfig::new(200_000));

    assert_eq!(
        bare_sentinel.windows().len(),
        metered_sentinel.windows().len()
    );
    let mut saw_p99 = false;
    for (b, m) in bare_sentinel
        .windows()
        .iter()
        .zip(metered_sentinel.windows())
    {
        assert_eq!(b.verify_p99, None, "no registry, no p99");
        let mut m_stripped = m.clone();
        m_stripped.verify_p99 = None;
        assert_eq!(&m_stripped, b, "metrics changed a window delta");
        if m.verified > 0 {
            let p99 = m.verify_p99.expect("verified window has a p99");
            assert!(p99 > 0);
            saw_p99 = true;
            assert_eq!(Series::VerifyP99.value(m), Some(p99 as f64));
        }
    }
    assert!(saw_p99, "no window verified anything");
}

/// The retained tail is bounded while totals and events keep counting.
#[test]
fn retained_tail_is_bounded() {
    let mut sched = spawn_fleet(false);
    let sentinel = Sentinel::drive(&mut sched, SentinelConfig::new(100_000).with_max_windows(3));
    assert!(sentinel.windows_total() > 3);
    assert_eq!(sentinel.windows().len(), 3);
    let last = sentinel.windows().last().expect("tail kept");
    assert_eq!(
        last.index,
        sentinel.windows_total() - 1,
        "indices stay monotone"
    );
}
