//! Fault-injection campaign regression tests (reduced-trial versions
//! of the `faults` bench binary's full campaign).

use asc_faults::{run_campaign, CampaignConfig, FaultClass};

#[test]
fn hardened_campaign_has_no_silent_corruption() {
    let report = run_campaign(&CampaignConfig::new(0x0A5C_F417, 3));
    assert_eq!(
        report.rows.len(),
        3 * FaultClass::ALL_EXTENDED.len(),
        "every class (including the origin classes) ran against every workload"
    );
    let problems = report.problems();
    assert!(problems.is_empty(), "campaign failed:\n{problems:#?}");
    assert_eq!(report.total_silent(), 0);
    assert_eq!(report.total_crashed(), 0);
    assert!(
        report.total_killed() > 0,
        "no fault ever provoked a fail-stop kill"
    );
    // The counter skew corrupts verification state consumed by the very
    // trap it fires on, so (apart from saturation no-ops at counter
    // zero) it must kill; and cache corruption must only ever degrade.
    for row in &report.rows {
        if row.class == FaultClass::EpochCounter {
            assert!(
                row.killed > 0,
                "{}: counter skew never killed",
                row.workload
            );
        }
        if row.class.cache_degradation() {
            assert_eq!(row.killed, 0, "{}: cache fault killed", row.workload);
        }
    }
    // The origin classes (gadget-jump, stub-smuggle) provoke kills, and
    // report.problems() — asserted empty above — already requires every
    // one of those kills to be an attributed unrewritten-site fail-stop.
    let origin_kills: u32 = report
        .rows
        .iter()
        .filter(|row| row.class.origin_violation())
        .map(|row| row.killed)
        .sum();
    assert!(origin_kills > 0, "no origin fault ever provoked a kill");
    // Kills are classified by structured reason code, not substring
    // scraping: every killed trial is tallied under a ReasonCode and a
    // sample Alert survives for the report.
    for row in &report.rows {
        let tallied: u32 = row.kill_reasons.iter().map(|(_, n)| n).sum();
        assert_eq!(
            tallied,
            row.killed,
            "{} / {}: kill tally does not match reason codes {:?}",
            row.workload,
            row.class.name(),
            row.kill_reasons
        );
        if row.killed > 0 {
            let alert = row
                .sample_alert
                .as_ref()
                .expect("killed rows carry a sample alert");
            assert!(
                row.kill_reasons.iter().any(|(r, _)| *r == alert.reason()),
                "sample alert reason {:?} missing from tally {:?}",
                alert.reason(),
                row.kill_reasons
            );
        }
    }
    // Graceful degradation is observable in the kernel statistics.
    let degraded: u64 = report
        .rows
        .iter()
        .filter(|row| row.class.cache_degradation())
        .map(|row| row.cache_fallbacks + row.cache_scrubs)
        .sum();
    assert!(degraded > 0, "cache faults never exercised the fallbacks");
}

#[test]
fn campaign_is_deterministic_per_seed() {
    let mut cfg = CampaignConfig::new(0xDE7E_3213, 2);
    cfg.workloads = vec!["calc".into()];
    let summarize = |cfg: &CampaignConfig| {
        run_campaign(cfg)
            .rows
            .iter()
            .map(|r| (r.class.name(), r.killed, r.benign, r.crashed, r.silent))
            .collect::<Vec<_>>()
    };
    assert_eq!(summarize(&cfg), summarize(&cfg));
    let mut other = cfg.clone();
    other.seed ^= 1;
    // Not a hard invariant of the design, but with these trial counts a
    // different seed picks different faults; equality here would hint
    // the seed is being ignored.
    assert_ne!(summarize(&cfg), summarize(&other));
}
