//! Deterministic fault injection: timed crash, pressure and blackout events.
//!
//! A [`FaultSchedule`] is a list of sim-clock-stamped fault events built
//! before a run and installed with [`World::install_faults`]. Each event
//! rides the world's ordinary event queue, so faults interleave with
//! arrivals and completions in a fully deterministic order — the same seed
//! and schedule always reproduce the same run, byte for byte, regardless of
//! host parallelism.
//!
//! Five fault families cover the paper's unmodelled failure regimes:
//!
//! * **Replica crash** ([`FaultKind::ReplicaCrash`]): abruptly kills one
//!   ready replica of a service (requests with open frames on it are
//!   aborted, see [`World::fail_replica`]) and optionally restarts it after
//!   a delay via [`World::recover_replica`] — the restarted pod pays normal
//!   container start-up before taking traffic.
//! * **Node CPU pressure** ([`FaultKind::CpuPressure`]): for a window,
//!   every replica placed on the node delivers only `factor` of its CPU
//!   limit (noisy neighbours / host throttling), implemented by
//!   [`cluster::PsCpu::set_pressure`]. Replicas scheduled onto the node
//!   mid-window inherit the pressure; the window's end restores full
//!   capacity.
//! * **Telemetry blackout** ([`FaultKind::TelemetryBlackout`]): the
//!   monitoring pipeline goes dark for a window. In [`BlackoutMode::Drop`]
//!   per-replica completion samples and warehouse traces in the window are
//!   lost; in [`BlackoutMode::Lag`] they are buffered and delivered, in
//!   order, when the window ends (a trace the warehouse's sampler will drop
//!   is only counted, not held). Requests themselves are unaffected — only
//!   the controller's view of them is — and the end-to-end client log keeps
//!   recording, since it models the experiment harness rather than the
//!   cluster's monitoring stack.
//! * **Network partition** ([`FaultKind::Partition`]): with a network
//!   installed (see `World::install_network`), messages between two
//!   services are dropped in both directions for a window; messages
//!   already in flight still arrive. Without a network the fault is
//!   logged and ignored.
//! * **Slow link** ([`FaultKind::LinkSlow`]): with a network installed,
//!   sampled latencies between two services are multiplied by a factor
//!   for a window (congestion or a flapping NIC rather than a clean cut).
//!
//! Schedules are validated when installed: inverted windows (`end <
//! start` from the `*_between` builders) and overlapping crash windows on
//! the same service are rejected with a typed [`FaultScheduleError`]
//! instead of silently producing a nonsensical run.
//!
//! [`World::install_faults`]: crate::World::install_faults
//! [`World::fail_replica`]: crate::World::fail_replica
//! [`World::recover_replica`]: crate::World::recover_replica

use cluster::NodeId;
use sim_core::{SimDuration, SimTime};
use std::fmt;
use telemetry::ServiceId;

/// What happens to telemetry samples produced during a blackout window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlackoutMode {
    /// Samples in the window are lost.
    Drop,
    /// Samples are buffered and delivered in order when the window ends
    /// (a lagging collector rather than a dead one).
    Lag,
}

/// One injectable fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Kill one ready replica of `service` (the longest-lived one, for
    /// determinism); optionally start a replacement after `restart_after`.
    ReplicaCrash {
        /// The service losing a replica.
        service: ServiceId,
        /// Delay until a replacement pod is created (`None`: no restart).
        restart_after: Option<SimDuration>,
    },
    /// Shrink the CPU actually deliverable on `node` to `factor` of each
    /// hosted replica's limit for `duration`.
    CpuPressure {
        /// The afflicted node.
        node: NodeId,
        /// Fraction of the limit still deliverable, in `(0, 1]`.
        factor: f64,
        /// How long the pressure window lasts.
        duration: SimDuration,
    },
    /// Withhold telemetry samples for `duration`.
    TelemetryBlackout {
        /// Whether withheld samples are lost or delivered late.
        mode: BlackoutMode,
        /// How long the blackout window lasts.
        duration: SimDuration,
    },
    /// Drop all messages between `a` and `b` (both directions) for
    /// `duration`. Requires an installed network; otherwise logged and
    /// ignored.
    Partition {
        /// One side of the cut.
        a: ServiceId,
        /// The other side.
        b: ServiceId,
        /// How long the partition window lasts.
        duration: SimDuration,
    },
    /// Multiply sampled latencies between `a` and `b` (both directions)
    /// by `factor` for `duration`. Requires an installed network;
    /// otherwise logged and ignored.
    LinkSlow {
        /// One side of the degraded link.
        a: ServiceId,
        /// The other side.
        b: ServiceId,
        /// Latency multiplier, `> 0` (overlapping windows stack
        /// multiplicatively).
        factor: f64,
        /// How long the slow window lasts.
        duration: SimDuration,
    },
}

/// A fault with its injection instant.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires on the sim clock.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A structurally invalid [`FaultSchedule`], detected by
/// [`FaultSchedule::validate`] (which `World::install_faults` runs before
/// accepting the schedule).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultScheduleError {
    /// A `*_between` builder was given a window that ends before it
    /// starts.
    InvertedWindow {
        /// Which fault family the window belongs to.
        kind: &'static str,
        /// The window's start.
        start: SimTime,
        /// The (earlier) end.
        end: SimTime,
    },
    /// Two crash windows of the same service overlap: the second crash
    /// would fire while the first one's replica is still down (or at the
    /// very same instant), double-killing capacity the schedule's author
    /// almost certainly did not intend.
    OverlappingCrashWindows {
        /// The doubly-crashed service.
        service: ServiceId,
        /// The earlier `[crash, restart]` window.
        first: (SimTime, SimTime),
        /// The overlapping later window.
        second: (SimTime, SimTime),
    },
    /// Two telemetry blackout windows overlap (or touch). The world keeps
    /// a single blackout state, so the first window's end would cut the
    /// second window short — found by the scenario fuzzer and rejected
    /// here rather than silently mis-modelled.
    OverlappingBlackoutWindows {
        /// The earlier `[start, end]` window.
        first: (SimTime, SimTime),
        /// The overlapping later window.
        second: (SimTime, SimTime),
    },
    /// Two CPU-pressure windows on the same node overlap (or touch). The
    /// per-node pressure factor is a single scalar, so the first window's
    /// end would lift the second window's pressure early.
    OverlappingPressureWindows {
        /// The doubly-pressured node.
        node: NodeId,
        /// The earlier `[start, end]` window.
        first: (SimTime, SimTime),
        /// The overlapping later window.
        second: (SimTime, SimTime),
    },
    /// A fault window extends past the run horizon given to
    /// [`FaultSchedule::validate_within`]: the fault would fire but its
    /// end (restart, pressure lift, blackout end) would never be applied,
    /// leaving the run in a half-faulted state the schedule's author
    /// cannot have reasoned about.
    WindowBeyondHorizon {
        /// Which fault family the window belongs to.
        kind: &'static str,
        /// The window's start.
        start: SimTime,
        /// The window's end, past the horizon.
        end: SimTime,
        /// The run horizon.
        horizon: SimTime,
    },
}

impl fmt::Display for FaultScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultScheduleError::InvertedWindow { kind, start, end } => write!(
                f,
                "inverted {kind} window: ends at {} ns before starting at {} ns",
                end.as_nanos(),
                start.as_nanos()
            ),
            FaultScheduleError::OverlappingCrashWindows {
                service,
                first,
                second,
            } => write!(
                f,
                "overlapping crash windows on {service}: [{}, {}] ns and [{}, {}] ns",
                first.0.as_nanos(),
                first.1.as_nanos(),
                second.0.as_nanos(),
                second.1.as_nanos()
            ),
            FaultScheduleError::OverlappingBlackoutWindows { first, second } => write!(
                f,
                "overlapping telemetry blackout windows: [{}, {}] ns and [{}, {}] ns",
                first.0.as_nanos(),
                first.1.as_nanos(),
                second.0.as_nanos(),
                second.1.as_nanos()
            ),
            FaultScheduleError::OverlappingPressureWindows {
                node,
                first,
                second,
            } => write!(
                f,
                "overlapping cpu-pressure windows on node {}: [{}, {}] ns and [{}, {}] ns",
                node.0,
                first.0.as_nanos(),
                first.1.as_nanos(),
                second.0.as_nanos(),
                second.1.as_nanos()
            ),
            FaultScheduleError::WindowBeyondHorizon {
                kind,
                start,
                end,
                horizon,
            } => write!(
                f,
                "{kind} window [{}, {}] ns extends past the run horizon {} ns",
                start.as_nanos(),
                end.as_nanos(),
                horizon.as_nanos()
            ),
        }
    }
}

impl std::error::Error for FaultScheduleError {}

/// A deterministic, sim-clock-driven schedule of fault events.
///
/// # Example
///
/// ```
/// use microsim::{BlackoutMode, FaultSchedule};
/// use cluster::NodeId;
/// use sim_core::{SimDuration, SimTime};
/// use telemetry::ServiceId;
///
/// let schedule = FaultSchedule::new()
///     .crash(SimTime::from_secs(60), ServiceId(1), Some(SimDuration::from_secs(10)))
///     .cpu_pressure(SimTime::from_secs(120), NodeId(0), 0.5, SimDuration::from_secs(30))
///     .telemetry_blackout(SimTime::from_secs(120), BlackoutMode::Drop,
///                         SimDuration::from_secs(30));
/// assert_eq!(schedule.events().len(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
    /// Raw `(start, end, kind)` windows recorded by the `*_between`
    /// builders, kept verbatim (no saturation) so [`FaultSchedule::validate`]
    /// can reject inversions the duration-form events cannot express.
    windows: Vec<(SimTime, SimTime, &'static str)>,
}

impl FaultSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Adds a replica crash at `at`, optionally restarted `restart_after`
    /// later.
    pub fn crash(
        mut self,
        at: SimTime,
        service: ServiceId,
        restart_after: Option<SimDuration>,
    ) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::ReplicaCrash {
                service,
                restart_after,
            },
        });
        self
    }

    /// Adds a CPU-pressure window on `node` starting at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not in `(0, 1]`.
    pub fn cpu_pressure(
        mut self,
        at: SimTime,
        node: NodeId,
        factor: f64,
        duration: SimDuration,
    ) -> Self {
        assert!(
            factor > 0.0 && factor <= 1.0 && factor.is_finite(),
            "pressure factor must be in (0, 1]"
        );
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::CpuPressure {
                node,
                factor,
                duration,
            },
        });
        self
    }

    /// Adds a telemetry blackout window starting at `at`.
    pub fn telemetry_blackout(
        mut self,
        at: SimTime,
        mode: BlackoutMode,
        duration: SimDuration,
    ) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::TelemetryBlackout { mode, duration },
        });
        self
    }

    /// Adds a partition window between `a` and `b` starting at `at`.
    pub fn partition(
        mut self,
        at: SimTime,
        a: ServiceId,
        b: ServiceId,
        duration: SimDuration,
    ) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::Partition { a, b, duration },
        });
        self
    }

    /// Adds a partition window between `a` and `b` spanning `[at, until]`.
    /// An inverted window (`until < at`) is recorded but rejected by
    /// [`FaultSchedule::validate`].
    pub fn partition_between(
        mut self,
        at: SimTime,
        until: SimTime,
        a: ServiceId,
        b: ServiceId,
    ) -> Self {
        self.windows.push((at, until, "partition"));
        self.partition(at, a, b, until.saturating_since(at))
    }

    /// Adds a slow-link window between `a` and `b` starting at `at`.
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is positive and finite.
    pub fn slow_link(
        mut self,
        at: SimTime,
        a: ServiceId,
        b: ServiceId,
        factor: f64,
        duration: SimDuration,
    ) -> Self {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "slow-link factor must be positive and finite"
        );
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::LinkSlow {
                a,
                b,
                factor,
                duration,
            },
        });
        self
    }

    /// Adds a CPU-pressure window on `node` spanning `[at, until]`. An
    /// inverted window (`until < at`) is recorded but rejected by
    /// [`FaultSchedule::validate`].
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not in `(0, 1]`.
    pub fn cpu_pressure_between(
        mut self,
        at: SimTime,
        until: SimTime,
        node: NodeId,
        factor: f64,
    ) -> Self {
        self.windows.push((at, until, "cpu-pressure"));
        self.cpu_pressure(at, node, factor, until.saturating_since(at))
    }

    /// Adds a telemetry blackout spanning `[at, until]`. An inverted
    /// window (`until < at`) is recorded but rejected by
    /// [`FaultSchedule::validate`].
    pub fn telemetry_blackout_between(
        mut self,
        at: SimTime,
        until: SimTime,
        mode: BlackoutMode,
    ) -> Self {
        self.windows.push((at, until, "telemetry-blackout"));
        self.telemetry_blackout(at, mode, until.saturating_since(at))
    }

    /// Checks the schedule for structural mistakes: inverted `*_between`
    /// windows, and overlapping crash windows on the same service,
    /// overlapping telemetry blackout windows, or overlapping CPU-pressure
    /// windows on the same node. Run automatically by
    /// `World::install_faults`.
    ///
    /// The overlap rules all exist for the same reason: each of these
    /// fault families is applied through a single piece of world state (a
    /// downed replica, the global blackout flag, a per-node pressure
    /// scalar), so a second overlapping window would be silently truncated
    /// or double-applied instead of composing.
    ///
    /// # Errors
    ///
    /// Returns the first [`FaultScheduleError`] found.
    pub fn validate(&self) -> Result<(), FaultScheduleError> {
        for &(start, end, kind) in &self.windows {
            if end < start {
                return Err(FaultScheduleError::InvertedWindow { kind, start, end });
            }
        }
        // A crash window spans [at, at + restart_after] (a restart-less
        // crash is the degenerate instant window [at, at]). Two windows on
        // the same service may not overlap — the second would fire while
        // the first replica is still down.
        let mut crashes: Vec<(ServiceId, SimTime, SimTime)> = self
            .events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::ReplicaCrash {
                    service,
                    restart_after,
                } => Some((
                    service,
                    e.at,
                    e.at + restart_after.unwrap_or(SimDuration::ZERO),
                )),
                _ => None,
            })
            .collect();
        crashes.sort_unstable();
        for pair in crashes.windows(2) {
            let (sa, a_start, a_end) = pair[0];
            let (sb, b_start, b_end) = pair[1];
            if sa == sb && b_start <= a_end {
                return Err(FaultScheduleError::OverlappingCrashWindows {
                    service: sa,
                    first: (a_start, a_end),
                    second: (b_start, b_end),
                });
            }
        }
        // The blackout flag is global: overlapping (or touching) windows
        // would end each other early.
        let mut blackouts: Vec<(SimTime, SimTime)> = self
            .events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::TelemetryBlackout { duration, .. } => Some((e.at, e.at + duration)),
                _ => None,
            })
            .collect();
        blackouts.sort_unstable();
        for pair in blackouts.windows(2) {
            if pair[1].0 <= pair[0].1 {
                return Err(FaultScheduleError::OverlappingBlackoutWindows {
                    first: pair[0],
                    second: pair[1],
                });
            }
        }
        // The pressure factor is one scalar per node: same rule, per node.
        let mut pressures: Vec<(u32, SimTime, SimTime)> = self
            .events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::CpuPressure { node, duration, .. } => {
                    Some((node.0, e.at, e.at + duration))
                }
                _ => None,
            })
            .collect();
        pressures.sort_unstable();
        for pair in pressures.windows(2) {
            let (na, a_start, a_end) = pair[0];
            let (nb, b_start, b_end) = pair[1];
            if na == nb && b_start <= a_end {
                return Err(FaultScheduleError::OverlappingPressureWindows {
                    node: NodeId(na),
                    first: (a_start, a_end),
                    second: (b_start, b_end),
                });
            }
        }
        Ok(())
    }

    /// [`FaultSchedule::validate`] plus the horizon rule: every fault must
    /// fire strictly before `horizon`, and every window it opens (crash →
    /// restart, pressure, blackout, partition, slow link) must close at or
    /// before `horizon` — a window straddling the end of the run would
    /// leave the world half-faulted with no record of the end ever being
    /// applied. This is the single gate a scenario generator should trust:
    /// a schedule that passes for its run horizon must neither panic the
    /// world nor trip the audit layer.
    ///
    /// # Errors
    ///
    /// Returns the first [`FaultScheduleError`] found.
    pub fn validate_within(&self, horizon: SimTime) -> Result<(), FaultScheduleError> {
        self.validate()?;
        for e in &self.events {
            let (kind, end) = match e.kind {
                FaultKind::ReplicaCrash { restart_after, .. } => {
                    ("crash", e.at + restart_after.unwrap_or(SimDuration::ZERO))
                }
                FaultKind::CpuPressure { duration, .. } => ("cpu-pressure", e.at + duration),
                FaultKind::TelemetryBlackout { duration, .. } => {
                    ("telemetry-blackout", e.at + duration)
                }
                FaultKind::Partition { duration, .. } => ("partition", e.at + duration),
                FaultKind::LinkSlow { duration, .. } => ("slow-link", e.at + duration),
            };
            if e.at >= horizon || end > horizon {
                return Err(FaultScheduleError::WindowBeyondHorizon {
                    kind,
                    start: e.at,
                    end,
                    horizon,
                });
            }
        }
        Ok(())
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn valid_schedule_passes_validation() {
        let s = FaultSchedule::new()
            .crash(t(10), ServiceId(1), Some(SimDuration::from_secs(5)))
            .crash(t(16), ServiceId(1), None)
            .crash(t(12), ServiceId(2), Some(SimDuration::from_secs(60)))
            .cpu_pressure_between(t(20), t(30), NodeId(0), 0.5)
            .partition_between(t(40), t(50), ServiceId(1), ServiceId(2))
            .telemetry_blackout_between(t(40), t(45), BlackoutMode::Lag)
            .slow_link(
                t(60),
                ServiceId(0),
                ServiceId(1),
                4.0,
                SimDuration::from_secs(5),
            );
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn inverted_window_is_rejected() {
        let s = FaultSchedule::new().partition_between(t(50), t(40), ServiceId(0), ServiceId(1));
        assert_eq!(
            s.validate(),
            Err(FaultScheduleError::InvertedWindow {
                kind: "partition",
                start: t(50),
                end: t(40),
            })
        );
        let s = FaultSchedule::new().cpu_pressure_between(t(2), t(1), NodeId(0), 1.0);
        assert!(matches!(
            s.validate(),
            Err(FaultScheduleError::InvertedWindow {
                kind: "cpu-pressure",
                ..
            })
        ));
        let s = FaultSchedule::new().telemetry_blackout_between(t(2), t(1), BlackoutMode::Drop);
        assert!(matches!(
            s.validate(),
            Err(FaultScheduleError::InvertedWindow {
                kind: "telemetry-blackout",
                ..
            })
        ));
    }

    #[test]
    fn overlapping_crash_windows_on_one_service_are_rejected() {
        // Second crash fires while the first replica is still down.
        let s = FaultSchedule::new()
            .crash(t(10), ServiceId(1), Some(SimDuration::from_secs(10)))
            .crash(t(15), ServiceId(1), Some(SimDuration::from_secs(10)));
        assert_eq!(
            s.validate(),
            Err(FaultScheduleError::OverlappingCrashWindows {
                service: ServiceId(1),
                first: (t(10), t(20)),
                second: (t(15), t(25)),
            })
        );
        // Same instant, even without restarts, is a double-kill.
        let s =
            FaultSchedule::new()
                .crash(t(10), ServiceId(1), None)
                .crash(t(10), ServiceId(1), None);
        assert!(matches!(
            s.validate(),
            Err(FaultScheduleError::OverlappingCrashWindows { .. })
        ));
        // Overlap across *different* services is fine.
        let s = FaultSchedule::new()
            .crash(t(10), ServiceId(1), Some(SimDuration::from_secs(10)))
            .crash(t(15), ServiceId(2), Some(SimDuration::from_secs(10)));
        assert_eq!(s.validate(), Ok(()));
        // Back-to-back (restart strictly before the next crash) is fine.
        let s = FaultSchedule::new()
            .crash(t(10), ServiceId(1), Some(SimDuration::from_secs(4)))
            .crash(t(15), ServiceId(1), None);
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn overlapping_blackout_windows_are_rejected() {
        // The blackout flag is global state: touching windows end each other
        // early, so even mixed modes may not overlap.
        let s = FaultSchedule::new()
            .telemetry_blackout_between(t(10), t(20), BlackoutMode::Drop)
            .telemetry_blackout_between(t(15), t(25), BlackoutMode::Lag);
        assert_eq!(
            s.validate(),
            Err(FaultScheduleError::OverlappingBlackoutWindows {
                first: (t(10), t(20)),
                second: (t(15), t(25)),
            })
        );
        // Disjoint windows are fine.
        let s = FaultSchedule::new()
            .telemetry_blackout_between(t(10), t(20), BlackoutMode::Drop)
            .telemetry_blackout_between(t(21), t(25), BlackoutMode::Lag);
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn overlapping_pressure_windows_on_one_node_are_rejected() {
        let s = FaultSchedule::new()
            .cpu_pressure_between(t(10), t(20), NodeId(3), 0.5)
            .cpu_pressure_between(t(20), t(30), NodeId(3), 0.25);
        assert_eq!(
            s.validate(),
            Err(FaultScheduleError::OverlappingPressureWindows {
                node: NodeId(3),
                first: (t(10), t(20)),
                second: (t(20), t(30)),
            })
        );
        // Overlap across different nodes is fine.
        let s = FaultSchedule::new()
            .cpu_pressure_between(t(10), t(20), NodeId(3), 0.5)
            .cpu_pressure_between(t(15), t(25), NodeId(4), 0.5);
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn windows_straddling_the_horizon_are_rejected() {
        let horizon = t(100);
        // Entirely inside: fine.
        let s = FaultSchedule::new().crash(t(10), ServiceId(1), Some(SimDuration::from_secs(5)));
        assert_eq!(s.validate_within(horizon), Ok(()));
        // Restart lands past the horizon: the service would stay down with
        // no restart ever applied.
        let s = FaultSchedule::new().crash(t(90), ServiceId(1), Some(SimDuration::from_secs(20)));
        assert_eq!(
            s.validate_within(horizon),
            Err(FaultScheduleError::WindowBeyondHorizon {
                kind: "crash",
                start: t(90),
                end: t(110),
                horizon,
            })
        );
        // Fault firing at or after the horizon never runs at all.
        let s = FaultSchedule::new().crash(t(100), ServiceId(1), None);
        assert!(matches!(
            s.validate_within(horizon),
            Err(FaultScheduleError::WindowBeyondHorizon { kind: "crash", .. })
        ));
        // Window-style faults straddling the end are rejected too.
        let s = FaultSchedule::new().partition_between(t(95), t(105), ServiceId(0), ServiceId(1));
        assert!(matches!(
            s.validate_within(horizon),
            Err(FaultScheduleError::WindowBeyondHorizon {
                kind: "partition",
                ..
            })
        ));
        // A window closing exactly at the horizon is allowed.
        let s = FaultSchedule::new().cpu_pressure_between(t(90), t(100), NodeId(0), 0.5);
        assert_eq!(s.validate_within(horizon), Ok(()));
        // validate_within still applies the structural checks.
        let s = FaultSchedule::new()
            .crash(t(10), ServiceId(1), Some(SimDuration::from_secs(10)))
            .crash(t(15), ServiceId(1), None);
        assert!(matches!(
            s.validate_within(horizon),
            Err(FaultScheduleError::OverlappingCrashWindows { .. })
        ));
    }

    #[test]
    fn error_messages_name_the_problem() {
        let e = FaultScheduleError::InvertedWindow {
            kind: "partition",
            start: t(2),
            end: t(1),
        };
        assert!(e.to_string().contains("inverted partition window"));
        let e = FaultScheduleError::OverlappingCrashWindows {
            service: ServiceId(4),
            first: (t(1), t(2)),
            second: (t(2), t(3)),
        };
        assert!(e.to_string().contains("svc-4"));
    }
}
