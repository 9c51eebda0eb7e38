//! The flight-recorder stream of each enforced-trap exit, pinned event by
//! event. A verified call opens its span, reports every check at `Info`
//! with the cycles the cost model charged for it, and closes with
//! `TrapExit`. A killed call is charged no verification cycles: each of
//! its checks reports 0 cycles, the failed one at `Warn`, and the span
//! closes with `Kill`. An origin kill runs no check at all.

use asc_crypto::MacKey;
use asc_installer::{Installer, InstallerOptions};
use asc_kernel::{
    CostModel, FlowGraph, Kernel, KernelOptions, Personality, ReasonCode, SiteRegistry, VerifyTier,
};
use asc_trace::{CheckKind, Event, EventKind, RingSink, Severity};
use asc_vm::Machine;

const PERSONALITY: Personality = Personality::Linux;

/// Opens and closes a file, then reads the stale descriptor: verified
/// calls throughout without capability tracking, a capability kill on the
/// `read` with it.
const GUEST: &str = r#"
fn main() {
    let fd = open("/etc/motd", 0, 0);
    close(fd);
    var buf[16];
    read(fd, buf, 16);
    return 0;
}
"#;

fn key() -> MacKey {
    MacKey::from_seed(0x7_2ACE)
}

/// Runs the installed guest under `opts` (plus `setup`) with a ring sink
/// large enough to keep every event, and returns the events split into
/// spans, in order.
fn spans(opts: KernelOptions, setup: impl FnOnce(&mut Kernel)) -> Vec<Vec<Event>> {
    let plain = asc_workloads::build_source(GUEST, PERSONALITY).expect("guest builds");
    let installer = Installer::new(
        key(),
        InstallerOptions::new(PERSONALITY).with_capability_tracking(),
    );
    let (auth, _) = installer.install(&plain, "traceexits").expect("installs");
    let mut kernel = Kernel::new(opts);
    kernel.set_key(key());
    kernel.set_brk(auth.highest_addr());
    kernel.set_trace_sink(Box::new(RingSink::new(4096)));
    setup(&mut kernel);
    let mut machine = Machine::load(&auth, kernel).expect("loads");
    machine.run(10_000_000);
    let ring = machine
        .into_handler()
        .take_trace_sink()
        .expect("sink attached")
        .into_any()
        .downcast::<RingSink>()
        .expect("ring sink");
    assert_eq!(ring.dropped_events(), 0, "the ring kept every event");
    let mut spans: Vec<Vec<Event>> = Vec::new();
    for event in ring.events() {
        match spans.last_mut() {
            Some(span) if span[0].span == event.span => span.push(event.clone()),
            _ => spans.push(vec![event.clone()]),
        }
    }
    spans
}

fn is_enter(event: &Event) -> bool {
    matches!(event.kind, EventKind::TrapEnter { .. }) && event.severity == Severity::Info
}

fn kill_reason(event: &Event) -> ReasonCode {
    match event.kind {
        EventKind::Kill { reason, .. } if event.severity == Severity::Alert => reason,
        ref other => panic!("span closes with a kill alert, got {other:?}"),
    }
}

#[test]
fn verified_calls_report_priced_checks_then_trap_exit() {
    let cost = CostModel::default();
    let spans = spans(KernelOptions::enforcing(PERSONALITY), |_| {});
    assert!(spans.len() >= 4, "open, close, read and exit all trap");
    for span in &spans {
        assert!(is_enter(&span[0]), "{span:?}");
        let (exit, checks) = span[1..].split_last().expect("span closes");
        assert!(!checks.is_empty(), "a verified call runs checks: {span:?}");
        let mut check_cycles = 0;
        for event in checks {
            let EventKind::Check { record, cycles } = event.kind else {
                panic!("only checks between enter and exit: {span:?}");
            };
            assert!(record.passed, "{span:?}");
            assert_eq!(event.severity, Severity::Info, "{span:?}");
            assert_eq!(cycles, cost.check_cost_of(&record), "{span:?}");
            check_cycles += cycles;
        }
        let EventKind::TrapExit {
            verified,
            verify_cycles,
            fixed_cycles,
            ..
        } = exit.kind
        else {
            panic!("span closes with TrapExit: {span:?}");
        };
        assert!(verified);
        assert_eq!(exit.severity, Severity::Info);
        assert_eq!(verify_cycles, fixed_cycles + check_cycles, "{span:?}");
        assert!(verify_cycles > 0, "costs are charged: {span:?}");
    }
}

#[test]
fn unrewritten_site_kill_runs_no_check() {
    let spans = spans(KernelOptions::enforcing(PERSONALITY), |kernel| {
        kernel.set_site_registry(SiteRegistry::new())
    });
    assert_eq!(spans.len(), 1, "the first trap dies: {spans:?}");
    let span = &spans[0];
    assert_eq!(span.len(), 2, "enter then kill, nothing between: {span:?}");
    assert!(is_enter(&span[0]));
    assert_eq!(kill_reason(&span[1]), ReasonCode::UnrewrittenSite);
}

#[test]
fn bad_flow_edge_kill_reports_one_unpriced_warning() {
    let opts = KernelOptions::enforcing(PERSONALITY).with_tier(VerifyTier::MacPlusFlow);
    let spans = spans(opts, |kernel| kernel.set_flow_graph(FlowGraph::new()));
    assert_eq!(spans.len(), 1, "the first trap dies: {spans:?}");
    let span = &spans[0];
    assert_eq!(span.len(), 3, "enter, the flow check, kill: {span:?}");
    assert!(is_enter(&span[0]));
    let EventKind::Check { record, cycles } = span[1].kind else {
        panic!("the flow check is reported: {span:?}");
    };
    assert_eq!(record.kind, CheckKind::FlowEdge);
    assert!(!record.passed);
    assert_eq!(span[1].severity, Severity::Warn);
    assert_eq!(cycles, 0, "a killed call is charged no verify cycles");
    assert_eq!(kill_reason(&span[2]), ReasonCode::BadFlowEdge);
}

#[test]
fn mac_suite_kill_reports_passed_checks_then_the_failed_one_unpriced() {
    let opts = KernelOptions {
        capability_tracking: true,
        ..KernelOptions::enforcing(PERSONALITY)
    };
    let spans = spans(opts, |_| {});
    let (span, verified) = spans.split_last().expect("traps were traced");
    assert_eq!(verified.len(), 2, "open and close verify: {spans:?}");
    assert!(is_enter(&span[0]));
    let (kill, checks) = span[1..].split_last().expect("span closes");
    let (failed, passed) = checks.split_last().expect("the suite ran");
    assert!(
        !passed.is_empty(),
        "checks pass before the failure: {span:?}"
    );
    for event in passed {
        let EventKind::Check { record, cycles } = event.kind else {
            panic!("only checks between enter and kill: {span:?}");
        };
        assert!(record.passed);
        assert_eq!(event.severity, Severity::Info);
        assert_eq!(cycles, 0, "a killed call is charged no verify cycles");
    }
    let EventKind::Check { record, cycles } = failed.kind else {
        panic!("the failed check is reported: {span:?}");
    };
    assert_eq!(record.kind, CheckKind::Capability { arg: 0 });
    assert!(!record.passed);
    assert_eq!(failed.severity, Severity::Warn);
    assert_eq!(cycles, 0);
    assert_eq!(kill_reason(kill), ReasonCode::CapabilityViolation);
}
