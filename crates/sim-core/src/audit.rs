//! Runtime conservation-law auditing.
//!
//! The simulator is built from hand-rolled incremental data structures
//! (token buckets, per-pod service accumulators, a deduplicating trace
//! warehouse). Each maintains a quantity that is *conserved* by
//! construction: requests are injected exactly once and leave exactly once,
//! CPU service delivered can never exceed capacity × elapsed, a retry
//! budget spends only the tokens it earned. This module defines those laws as
//! checkable [`Invariant`]s and a tiny [`AuditSink`] seam through which
//! components report [`Violation`]s at runtime.
//!
//! The module itself is always compiled (it is a few dozen lines and has no
//! dependencies); the *call sites* in downstream crates are gated behind
//! their `audit` cargo feature so that production builds carry zero audit
//! state and zero per-event checks. Auditing is strictly observational: it
//! never mutates simulation state, draws randomness, or reorders events, so
//! a run with auditing enabled is byte-identical to one without.

use std::fmt;

/// A conservation law checked by the audit layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// Every injected request is either completed, dropped (with a recorded
    /// reason), or still in flight: `injected = completed + dropped + in_flight`.
    RequestConservation,
    /// Busy CPU time delivered by a pod never exceeds its capacity integral
    /// (`limit × elapsed`, pressure-adjusted), and useful work never exceeds
    /// busy time.
    CpuTimeConservation,
    /// Retry-budget tokens obey the earn/spend ledger exactly:
    /// `tokens = cap + earned - clipped - spent` and never exceed the cap.
    RetryBudget,
    /// Events are dispatched in non-decreasing timestamp order.
    EventMonotonicity,
    /// Telemetry ingest is idempotent: the trace warehouse never stores two
    /// traces with the same root span id (network retransmits must be
    /// deduplicated, not double-counted).
    TelemetryIdempotence,
}

impl Invariant {
    /// All invariants, in reporting order.
    pub const ALL: [Invariant; 5] = [
        Invariant::RequestConservation,
        Invariant::CpuTimeConservation,
        Invariant::RetryBudget,
        Invariant::EventMonotonicity,
        Invariant::TelemetryIdempotence,
    ];

    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Invariant::RequestConservation => "request_conservation",
            Invariant::CpuTimeConservation => "cpu_time_conservation",
            Invariant::RetryBudget => "retry_budget",
            Invariant::EventMonotonicity => "event_monotonicity",
            Invariant::TelemetryIdempotence => "telemetry_idempotence",
        }
    }

    fn index(self) -> usize {
        match self {
            Invariant::RequestConservation => 0,
            Invariant::CpuTimeConservation => 1,
            Invariant::RetryBudget => 2,
            Invariant::EventMonotonicity => 3,
            Invariant::TelemetryIdempotence => 4,
        }
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single observed breach of an [`Invariant`].
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which law was broken.
    pub invariant: Invariant,
    /// Simulated time (nanoseconds since run start) at which the check fired.
    pub at_nanos: u64,
    /// Human-readable description with the offending quantities.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] t={}ns: {}",
            self.invariant.name(),
            self.at_nanos,
            self.detail
        )
    }
}

/// Receiver for audit violations.
///
/// Components that check invariants take `&mut dyn AuditSink` so callers
/// decide the policy (count, log, panic). Checks must only *report* through
/// the sink — never alter simulation state based on what they find.
pub trait AuditSink {
    /// Record one violation.
    fn record(&mut self, violation: Violation);
}

/// An [`AuditSink`] that counts violations per invariant and keeps the first
/// few full [`Violation`] records for diagnostics.
#[derive(Debug, Clone, Default)]
pub struct CountingSink {
    counts: [u64; Invariant::ALL.len()],
    first: Vec<Violation>,
}

impl CountingSink {
    /// How many full violation records are retained (counts are unbounded).
    pub const MAX_DETAILS: usize = 8;

    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total violations recorded across all invariants.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Violations recorded for one invariant.
    pub fn count(&self, invariant: Invariant) -> u64 {
        self.counts[invariant.index()]
    }

    /// The first [`Self::MAX_DETAILS`] violations, in arrival order.
    pub fn violations(&self) -> &[Violation] {
        &self.first
    }

    /// One-line per-invariant report, e.g. for asserting zero violations.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for inv in Invariant::ALL {
            let c = self.count(inv);
            if c > 0 {
                out.push_str(&format!("{}={} ", inv.name(), c));
            }
        }
        if out.is_empty() {
            out.push_str("clean");
        }
        for v in &self.first {
            out.push('\n');
            out.push_str(&format!("  {v}"));
        }
        out
    }
}

impl AuditSink for CountingSink {
    fn record(&mut self, violation: Violation) {
        self.counts[violation.invariant.index()] += 1;
        if self.first.len() < Self::MAX_DETAILS {
            self.first.push(violation);
        }
    }
}

/// A queryable, serializable snapshot of a [`CountingSink`] — the audit
/// layer's *verdict* on a finished run. Where [`CountingSink::summary`]
/// renders for humans, `AuditReport` is for machinery: the scenario fuzzer
/// treats it as an oracle, diffing `clean` and the per-invariant counts
/// across runs and embedding the whole report in shrunken reproducers.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AuditReport {
    /// True iff no invariant fired.
    pub clean: bool,
    /// Total violations across all invariants.
    pub total: u64,
    /// `(invariant name, count)` for every invariant with a non-zero
    /// count, in [`Invariant::ALL`] order.
    pub counts: Vec<(String, u64)>,
    /// The first few violations, rendered (`[name] t=...ns: detail`).
    pub details: Vec<String>,
}

impl CountingSink {
    /// The sink's verdict as a structured [`AuditReport`].
    pub fn report(&self) -> AuditReport {
        AuditReport {
            clean: self.total() == 0,
            total: self.total(),
            counts: Invariant::ALL
                .iter()
                .filter(|&&inv| self.count(inv) > 0)
                .map(|&inv| (inv.name().to_string(), self.count(inv)))
                .collect(),
            details: self.first.iter().map(|v| v.to_string()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sink_counts_and_caps_details() {
        let mut sink = CountingSink::new();
        assert_eq!(sink.total(), 0);
        assert_eq!(sink.summary(), "clean");
        for i in 0..20 {
            sink.record(Violation {
                invariant: Invariant::RequestConservation,
                at_nanos: i,
                detail: format!("v{i}"),
            });
        }
        sink.record(Violation {
            invariant: Invariant::EventMonotonicity,
            at_nanos: 99,
            detail: "clock ran backwards".into(),
        });
        assert_eq!(sink.total(), 21);
        assert_eq!(sink.count(Invariant::RequestConservation), 20);
        assert_eq!(sink.count(Invariant::EventMonotonicity), 1);
        assert_eq!(sink.count(Invariant::RetryBudget), 0);
        assert_eq!(sink.violations().len(), CountingSink::MAX_DETAILS);
        let s = sink.summary();
        assert!(s.contains("request_conservation=20"), "{s}");
        assert!(s.contains("event_monotonicity=1"), "{s}");
    }

    #[test]
    fn report_is_queryable_and_round_trips() {
        let mut sink = CountingSink::new();
        assert!(sink.report().clean);
        assert_eq!(sink.report().total, 0);
        sink.record(Violation {
            invariant: Invariant::RetryBudget,
            at_nanos: 5,
            detail: "tokens 51 > cap 50".into(),
        });
        sink.record(Violation {
            invariant: Invariant::RetryBudget,
            at_nanos: 9,
            detail: "tokens 52 > cap 50".into(),
        });
        let report = sink.report();
        assert!(!report.clean);
        assert_eq!(report.total, 2);
        assert_eq!(report.counts, vec![("retry_budget".to_string(), 2)]);
        assert_eq!(report.details.len(), 2);
        assert!(report.details[0].contains("tokens 51"), "{report:?}");
        let json = serde_json::to_string(&report).unwrap();
        let back: AuditReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn violation_display_is_informative() {
        let v = Violation {
            invariant: Invariant::CpuTimeConservation,
            at_nanos: 1_000,
            detail: "busy 2.0 > cap 1.0".into(),
        };
        let s = format!("{v}");
        assert!(s.contains("cpu_time_conservation"), "{s}");
        assert!(s.contains("t=1000ns"), "{s}");
        assert!(s.contains("busy 2.0"), "{s}");
    }
}
