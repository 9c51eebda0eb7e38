//! The aggregated [`HealthReport`]: retained windows, every detector
//! firing, and per-detector SLO verdicts.

use asc_core::json::Value;

use crate::detector::HealthEvent;
use crate::window::WindowSample;

/// One detector's SLO verdict over a whole run.
#[derive(Clone, Debug, PartialEq)]
pub struct SloVerdict {
    /// Detector name.
    pub detector: String,
    /// Times it fired.
    pub fired: u64,
    /// Whether the detector was a quiet-SLO guard (must not fire when
    /// healthy) or a detection signal.
    pub quiet_slo: bool,
    /// Verdict: quiet-SLO detectors pass iff they never fired; signal
    /// detectors always pass (their firings are measurements).
    pub pass: bool,
}

/// The aggregated health report for one monitored run.
#[derive(Clone, Debug, PartialEq)]
pub struct HealthReport {
    /// Retained window tail (bounded by the sentinel's `max_windows`).
    pub windows: Vec<WindowSample>,
    /// Total windows closed, including any no longer retained.
    pub windows_total: u64,
    /// Every detector firing, in firing order.
    pub events: Vec<HealthEvent>,
    /// Per-detector SLO verdicts.
    pub verdicts: Vec<SloVerdict>,
}

impl HealthReport {
    /// True when every quiet-SLO detector stayed quiet.
    pub fn healthy(&self) -> bool {
        self.verdicts.iter().all(|v| v.pass)
    }

    /// Renders as an [`asc_core::json`] object.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "windows_total".to_string(),
                Value::Num(self.windows_total as f64),
            ),
            (
                "windows".to_string(),
                Value::Array(self.windows.iter().map(|w| w.to_value()).collect()),
            ),
            (
                "events".to_string(),
                Value::Array(self.events.iter().map(|e| e.to_value()).collect()),
            ),
            (
                "verdicts".to_string(),
                Value::Array(
                    self.verdicts
                        .iter()
                        .map(|v| {
                            Value::Object(vec![
                                ("detector".to_string(), Value::Str(v.detector.clone())),
                                ("fired".to_string(), Value::Num(v.fired as f64)),
                                ("quiet_slo".to_string(), Value::Bool(v.quiet_slo)),
                                ("pass".to_string(), Value::Bool(v.pass)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("healthy".to_string(), Value::Bool(self.healthy())),
        ])
    }
}
