//! Continuous fleet-health monitoring for the ASC stack.
//!
//! The fail-stop contract tells an operator that a process died, and the
//! audit bundles tell them why — this crate answers the question between
//! kills: *is the fleet healthy right now?* A [`Sentinel`] attaches to a
//! running [`Scheduler`] and, on slice boundaries, samples every
//! cumulative counter the stack exposes — kernel statistics, per-reason
//! alert counts, shared-cache behaviour and probe counters, batched
//! trap-path counters, and the four per-path verify-cycles histograms
//! of any attached [`asc_kernel::KernelMetrics`] (summed over the fleet
//! per path and windowed with [`asc_metrics::Histogram::diff`], so the
//! p99 does not depend on how the registries are labelled) — into
//! bounded per-window [`WindowSample`]s on the shared virtual clock. A
//! [`Detector`] suite ([`DetectorKind::Threshold`],
//! [`DetectorKind::Ratio`] floors, seeded [`DetectorKind::Ewma`] drift)
//! evaluates each window and emits structured [`HealthEvent`]s with
//! reason codes and firing cycles, aggregated into a [`HealthReport`]
//! with per-detector SLO verdicts.
//!
//! Like the flight recorder and the metrics registry, the sentinel obeys
//! the **no-perturbation rule**: [`Sentinel::observe`] takes the
//! scheduler by shared reference, so monitoring *cannot* feed back into
//! the cost model — charged cycles, statistics, interleaving, and stdout
//! are bit-identical with or without a sentinel attached. Detection
//! latency is therefore an honest measurement: the virtual-clock gap
//! between a fault's arming cycle and the first [`HealthEvent`].

mod detector;
mod report;
mod window;

pub use detector::{Detector, DetectorKind, HealthEvent};
pub use report::{HealthReport, SloVerdict};
pub use window::{Series, WindowSample};

use std::collections::BTreeMap;

use asc_kernel::{BatchStats, KernelStats};
use asc_metrics::Histogram;
use asc_sched::Scheduler;

use detector::DetectorState;

/// Sentinel configuration: window geometry and the detector suite.
#[derive(Clone, Debug)]
pub struct SentinelConfig {
    /// Window length on the shared virtual clock. Windows close on the
    /// first observation at or past each boundary, so slices should be
    /// shorter than windows for the geometry to be meaningful.
    pub window_cycles: u64,
    /// Retained window tail (older samples are dropped; totals and
    /// detector state are unaffected).
    pub max_windows: usize,
    /// The detector suite evaluated on every closed window.
    pub detectors: Vec<Detector>,
}

impl SentinelConfig {
    /// A config with the [`Detector::default_suite`] and a 256-window
    /// retained tail.
    pub fn new(window_cycles: u64) -> SentinelConfig {
        SentinelConfig {
            window_cycles,
            max_windows: 256,
            detectors: Detector::default_suite(),
        }
    }

    /// Replaces the detector suite.
    pub fn with_detectors(mut self, detectors: Vec<Detector>) -> SentinelConfig {
        self.detectors = detectors;
        self
    }

    /// Bounds the retained window tail.
    pub fn with_max_windows(mut self, max_windows: usize) -> SentinelConfig {
        self.max_windows = max_windows.max(1);
        self
    }
}

/// Cumulative fleet-wide readings at one point on the virtual clock;
/// two of these bracket a window and their difference is the sample.
#[derive(Clone, Debug)]
struct Cumulative {
    stats: KernelStats,
    batch: BatchStats,
    probes: u64,
    alerts: BTreeMap<&'static str, u64>,
    /// Fleet-summed `asc_verify_cycles` histograms, one per cache path
    /// (empty when no kernel has a metrics registry).
    verify_cycles: [Histogram; 4],
}

impl Cumulative {
    /// Reads every cumulative counter through shared references only.
    fn read(sched: &Scheduler) -> Cumulative {
        let mut alerts: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut verify_cycles: [Histogram; 4] = Default::default();
        for proc in sched.processes() {
            for alert in proc.kernel().alerts() {
                *alerts.entry(alert.reason().code()).or_insert(0) += 1;
            }
            if let Some(m) = proc.kernel().metrics() {
                for (fleet, h) in verify_cycles.iter_mut().zip(m.verify_cycles()) {
                    fleet.merge(h);
                }
            }
        }
        let probes = sched
            .shared_cache()
            .map(|cache| cache.borrow().probes())
            .unwrap_or(0);
        Cumulative {
            stats: sched.aggregate_stats(),
            batch: sched.batch_stats(),
            probes,
            alerts,
            verify_cycles,
        }
    }

    /// The window delta `self − earlier` (saturating: a killed process's
    /// dropped cache namespace can only lower a cumulative reading, and
    /// a clamped zero is the honest floor for a window that lost state).
    fn delta(&self, earlier: &Cumulative, index: u64, start: u64, end: u64) -> WindowSample {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        let alerts: Vec<(&'static str, u64)> = self
            .alerts
            .iter()
            .filter_map(|(code, &n)| {
                let was = earlier.alerts.get(code).copied().unwrap_or(0);
                (n > was).then_some((*code, n - was))
            })
            .collect();
        let alerts_total = alerts.iter().map(|(_, n)| n).sum();
        let verify_p99 = {
            let mut window = Histogram::new();
            for (now, was) in self.verify_cycles.iter().zip(&earlier.verify_cycles) {
                window.merge(&now.diff(was));
            }
            (window.count() > 0).then(|| window.quantile(0.99))
        };
        WindowSample {
            index,
            start,
            end,
            syscalls: d(self.stats.syscalls, earlier.stats.syscalls),
            verified: d(self.stats.verified, earlier.stats.verified),
            verify_cycles: d(self.stats.verify_cycles, earlier.stats.verify_cycles),
            warm_hits: d(self.stats.cache_hits, earlier.stats.cache_hits),
            cache_fallbacks: d(self.stats.cache_fallbacks, earlier.stats.cache_fallbacks),
            cache_scrubs: d(self.stats.cache_scrubs, earlier.stats.cache_scrubs),
            probes: d(self.probes, earlier.probes),
            alerts,
            alerts_total,
            batch_windows: d(self.batch.windows, earlier.batch.windows),
            batch_drained: d(self.batch.drained, earlier.batch.drained),
            verify_p99,
            live: 0,
        }
    }
}

/// The fleet-health monitor: windowed telemetry plus a detector suite
/// over one [`Scheduler`].
///
/// Lifecycle: [`Sentinel::attach`] captures the baseline, the drive loop
/// calls [`Sentinel::observe`] after every scheduler step (cheap — one
/// clock comparison — until a window boundary passes), and
/// [`Sentinel::finish`] closes the final partial window. Or use
/// [`Sentinel::drive`] to run a scheduler to completion under
/// observation.
#[derive(Clone, Debug)]
pub struct Sentinel {
    config: SentinelConfig,
    states: Vec<DetectorState>,
    windows: Vec<WindowSample>,
    windows_total: u64,
    events: Vec<HealthEvent>,
    baseline: Cumulative,
    window_start: u64,
    next_boundary: u64,
}

impl Sentinel {
    /// Attaches to `sched`, capturing the baseline at the current clock.
    ///
    /// # Panics
    ///
    /// Panics if `config.window_cycles` is zero.
    pub fn attach(sched: &Scheduler, config: SentinelConfig) -> Sentinel {
        assert!(config.window_cycles > 0, "window_cycles must be positive");
        let clock = sched.clock();
        let next_boundary = (clock / config.window_cycles + 1) * config.window_cycles;
        Sentinel {
            states: config
                .detectors
                .iter()
                .map(|_| DetectorState::default())
                .collect(),
            baseline: Cumulative::read(sched),
            window_start: clock,
            next_boundary,
            config,
            windows: Vec::new(),
            windows_total: 0,
            events: Vec::new(),
        }
    }

    /// One observation: closes a window (samples, evaluates detectors)
    /// iff the clock has reached the next boundary. Call after every
    /// scheduler step; between boundaries this is one comparison.
    pub fn observe(&mut self, sched: &Scheduler) {
        let clock = sched.clock();
        if clock < self.next_boundary {
            return;
        }
        self.close_window(sched, clock);
        self.next_boundary = (clock / self.config.window_cycles + 1) * self.config.window_cycles;
    }

    /// Closes the final partial window, if any time has elapsed since the
    /// last close. Call once when the run ends.
    pub fn finish(&mut self, sched: &Scheduler) {
        let clock = sched.clock();
        if clock > self.window_start {
            self.close_window(sched, clock);
        }
    }

    /// Runs `sched` to completion under observation and returns the
    /// sentinel with its final window closed.
    pub fn drive(sched: &mut asc_sched::Scheduler, config: SentinelConfig) -> Sentinel {
        let mut sentinel = Sentinel::attach(sched, config);
        while sched.step().is_some() {
            sentinel.observe(sched);
        }
        sentinel.finish(sched);
        sentinel
    }

    fn close_window(&mut self, sched: &Scheduler, clock: u64) {
        let current = Cumulative::read(sched);
        let mut sample =
            current.delta(&self.baseline, self.windows_total, self.window_start, clock);
        sample.live = sched
            .processes()
            .iter()
            .filter(|p| p.state().is_runnable())
            .count() as u64;
        for (det, state) in self.config.detectors.iter().zip(self.states.iter_mut()) {
            if let Some(event) = state.evaluate(det, &sample) {
                self.events.push(event);
            }
        }
        self.windows.push(sample);
        if self.windows.len() > self.config.max_windows {
            self.windows.remove(0);
        }
        self.windows_total += 1;
        self.baseline = current;
        self.window_start = clock;
    }

    /// The retained window tail, oldest first.
    pub fn windows(&self) -> &[WindowSample] {
        &self.windows
    }

    /// Total windows closed (including any no longer retained).
    pub fn windows_total(&self) -> u64 {
        self.windows_total
    }

    /// Every detector firing so far, in firing order.
    pub fn events(&self) -> &[HealthEvent] {
        &self.events
    }

    /// The first health event whose firing cycle is at or after `clock` —
    /// the detection a fault armed at `clock` is matched against.
    pub fn first_event_at_or_after(&self, clock: u64) -> Option<&HealthEvent> {
        self.events.iter().find(|e| e.fired_clock >= clock)
    }

    /// The aggregated report: retained windows, events, SLO verdicts.
    pub fn report(&self) -> HealthReport {
        let verdicts = self
            .config
            .detectors
            .iter()
            .zip(self.states.iter())
            .map(|(det, state)| SloVerdict {
                detector: det.name.clone(),
                fired: state.fired,
                quiet_slo: det.quiet_slo,
                pass: !det.quiet_slo || state.fired == 0,
            })
            .collect();
        HealthReport {
            windows: self.windows.clone(),
            windows_total: self.windows_total,
            events: self.events.clone(),
            verdicts,
        }
    }
}
