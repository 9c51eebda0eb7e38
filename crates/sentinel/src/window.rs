//! Windowed fleet telemetry: one [`WindowSample`] per virtual-clock
//! window, holding the *delta* of every cumulative counter the stack
//! exposes, plus the derived [`Series`] the detectors evaluate.

use asc_core::json::Value;

/// One closed telemetry window: what the fleet did between two points on
/// the shared virtual clock. All counter fields are deltas over the
/// window; ratios are derived on demand through [`Series::value`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WindowSample {
    /// Zero-based window number since attachment (monotone even when the
    /// retained tail is bounded).
    pub index: u64,
    /// Virtual clock when the window opened.
    pub start: u64,
    /// Virtual clock when the window closed (the firing cycle for any
    /// detector that triggers on this window).
    pub end: u64,
    /// Syscalls trapped fleet-wide this window.
    pub syscalls: u64,
    /// Calls that went through ASC verification this window.
    pub verified: u64,
    /// Verification cycles charged this window (cold + warm).
    pub verify_cycles: u64,
    /// Verifications served warm from the verified-call cache.
    pub warm_hits: u64,
    /// Stale/poisoned cache entries that degraded to the cold path.
    pub cache_fallbacks: u64,
    /// Poisoned state entries scrubbed for claiming a future epoch.
    pub cache_scrubs: u64,
    /// Shared-cache shard probes (0 without a shared cache).
    pub probes: u64,
    /// Alerts raised this window, by stable reason code, sorted; only
    /// nonzero deltas appear.
    pub alerts: Vec<(&'static str, u64)>,
    /// Total alerts raised this window.
    pub alerts_total: u64,
    /// Batch windows opened by the batched trap path this window.
    pub batch_windows: u64,
    /// Calls drained through batched verification this window.
    pub batch_drained: u64,
    /// Windowed p99 of per-call verify cycles: each cache path's
    /// fleet-summed `asc_verify_cycles` histogram minus its reading at
    /// the last close, merged over the four paths. `None` when no
    /// registry is attached or nothing verified this window.
    pub verify_p99: Option<u64>,
    /// Runnable processes when the window closed (a level, not a delta).
    pub live: u64,
}

impl WindowSample {
    /// Renders as an [`asc_core::json`] object (health dashboards, audit
    /// bundle embedding).
    pub fn to_value(&self) -> Value {
        let alerts = self
            .alerts
            .iter()
            .map(|(code, n)| {
                Value::Object(vec![
                    ("reason".to_string(), Value::Str(code.to_string())),
                    ("count".to_string(), Value::Num(*n as f64)),
                ])
            })
            .collect();
        let mut fields = vec![
            ("window".to_string(), Value::Num(self.index as f64)),
            ("start".to_string(), Value::Num(self.start as f64)),
            ("end".to_string(), Value::Num(self.end as f64)),
            ("syscalls".to_string(), Value::Num(self.syscalls as f64)),
            ("verified".to_string(), Value::Num(self.verified as f64)),
            (
                "verify_cycles".to_string(),
                Value::Num(self.verify_cycles as f64),
            ),
            ("warm_hits".to_string(), Value::Num(self.warm_hits as f64)),
            (
                "cache_fallbacks".to_string(),
                Value::Num(self.cache_fallbacks as f64),
            ),
            (
                "cache_scrubs".to_string(),
                Value::Num(self.cache_scrubs as f64),
            ),
            ("probes".to_string(), Value::Num(self.probes as f64)),
            ("alerts".to_string(), Value::Array(alerts)),
            (
                "alerts_total".to_string(),
                Value::Num(self.alerts_total as f64),
            ),
            (
                "batch_windows".to_string(),
                Value::Num(self.batch_windows as f64),
            ),
            (
                "batch_drained".to_string(),
                Value::Num(self.batch_drained as f64),
            ),
            ("live".to_string(), Value::Num(self.live as f64)),
        ];
        if let Some(p99) = self.verify_p99 {
            fields.push(("verify_p99".to_string(), Value::Num(p99 as f64)));
        }
        Value::Object(fields)
    }
}

/// A derived per-window time series a detector can watch. Each series
/// reduces a [`WindowSample`] to one number; series whose denominator is
/// zero this window are *not evaluable* and detectors skip them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Series {
    /// Alerts raised per window (any nonzero burst is operator-visible).
    AlertRate,
    /// Warm cache hits / verified calls.
    WarmHitRatio,
    /// Verify cycles / verified calls.
    VerifyCyclesPerCall,
    /// Stale-entry fallbacks per window.
    CacheFallbacks,
    /// Epoch scrubs per window.
    CacheScrubs,
    /// Shared-cache shard probes / syscalls.
    ProbesPerCall,
    /// Calls drained per batch window (batched trap-path fill).
    BatchFill,
    /// Windowed p99 verify cycles (needs attached metrics registries).
    VerifyP99,
}

impl Series {
    /// Stable kebab-case name (reports, JSON export).
    pub fn name(self) -> &'static str {
        match self {
            Series::AlertRate => "alert-rate",
            Series::WarmHitRatio => "warm-hit-ratio",
            Series::VerifyCyclesPerCall => "verify-cycles-per-call",
            Series::CacheFallbacks => "cache-fallbacks",
            Series::CacheScrubs => "cache-scrubs",
            Series::ProbesPerCall => "probes-per-call",
            Series::BatchFill => "batch-fill",
            Series::VerifyP99 => "verify-p99",
        }
    }

    /// How many underlying observations back this series' reading over
    /// `sample` — what a detector's `min_samples` gate compares against.
    /// Count-style series (alerts, fallbacks, scrubs) return `u64::MAX`:
    /// they are exact counts, meaningful at any traffic level, and must
    /// stay evaluable in the quiet window where a fault killed the fleet.
    pub fn samples(self, sample: &WindowSample) -> u64 {
        match self {
            Series::AlertRate | Series::CacheFallbacks | Series::CacheScrubs => u64::MAX,
            Series::WarmHitRatio | Series::VerifyCyclesPerCall | Series::VerifyP99 => {
                sample.verified
            }
            Series::ProbesPerCall => sample.syscalls,
            Series::BatchFill => sample.batch_windows,
        }
    }

    /// The series' value over `sample`, or `None` when it is not
    /// evaluable this window (zero denominator, or no metrics attached).
    pub fn value(self, sample: &WindowSample) -> Option<f64> {
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                None
            } else {
                Some(num as f64 / den as f64)
            }
        };
        match self {
            Series::AlertRate => Some(sample.alerts_total as f64),
            Series::WarmHitRatio => ratio(sample.warm_hits, sample.verified),
            Series::VerifyCyclesPerCall => ratio(sample.verify_cycles, sample.verified),
            Series::CacheFallbacks => Some(sample.cache_fallbacks as f64),
            Series::CacheScrubs => Some(sample.cache_scrubs as f64),
            Series::ProbesPerCall => ratio(sample.probes, sample.syscalls),
            Series::BatchFill => ratio(sample.batch_drained, sample.batch_windows),
            Series::VerifyP99 => sample.verify_p99.map(|v| v as f64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WindowSample {
        WindowSample {
            index: 3,
            start: 1000,
            end: 2000,
            syscalls: 50,
            verified: 40,
            verify_cycles: 8000,
            warm_hits: 30,
            cache_fallbacks: 2,
            cache_scrubs: 1,
            probes: 100,
            alerts: vec![("bad-call-mac", 2)],
            alerts_total: 2,
            batch_windows: 5,
            batch_drained: 40,
            verify_p99: Some(400),
            live: 8,
        }
    }

    #[test]
    fn series_reduce_the_sample() {
        let s = sample();
        assert_eq!(Series::AlertRate.value(&s), Some(2.0));
        assert_eq!(Series::WarmHitRatio.value(&s), Some(0.75));
        assert_eq!(Series::VerifyCyclesPerCall.value(&s), Some(200.0));
        assert_eq!(Series::ProbesPerCall.value(&s), Some(2.0));
        assert_eq!(Series::BatchFill.value(&s), Some(8.0));
        assert_eq!(Series::VerifyP99.value(&s), Some(400.0));
    }

    #[test]
    fn zero_denominators_are_not_evaluable() {
        let empty = WindowSample::default();
        assert_eq!(Series::WarmHitRatio.value(&empty), None);
        assert_eq!(Series::VerifyCyclesPerCall.value(&empty), None);
        assert_eq!(Series::ProbesPerCall.value(&empty), None);
        assert_eq!(Series::BatchFill.value(&empty), None);
        assert_eq!(Series::VerifyP99.value(&empty), None);
        // Count series are always evaluable: zero is a healthy reading.
        assert_eq!(Series::AlertRate.value(&empty), Some(0.0));
        assert_eq!(Series::CacheFallbacks.value(&empty), Some(0.0));
    }

    #[test]
    fn sample_renders_to_json() {
        let v = sample().to_value();
        let text = v.to_pretty();
        assert!(text.contains("\"verify_p99\""), "{text}");
        assert!(text.contains("bad-call-mac"), "{text}");
        let parsed = Value::parse(&text).expect("window JSON parses");
        assert_eq!(parsed, v);
    }
}
