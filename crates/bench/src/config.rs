//! Declarative scenario configuration: describe an experiment as JSON
//! (application, workload trace, controller stack, SLA) and run it without
//! writing Rust. [`ScenarioSpec::build`] is the one builder of Sock Shop
//! Cart and Social Network read-home-timeline runs: the paper binaries,
//! `run_scenario`, `sora-server`, the fuzzer and the perf ledger all use it.

use apps::{
    RunResult, Scenario, SocialNetwork, SocialNetworkParams, SockShop, SockShopParams, Watch,
};
use autoscalers::{FirmController, HpaController, VpaController};
use cluster::NodeId;
use microsim::{BlackoutMode, FaultSchedule, World};
use net::{EdgeParams, NetworkConfig};
use serde::{Deserialize, Serialize};
use sim_core::{Dist, SimDuration, SimRng, SimTime};
use sora_core::{
    Controller, NullController, ResourceBounds, ResourceRegistry, SoftResource, SoraConfig,
    SoraController,
};
use telemetry::ServiceId;
use topo::TopoParams;
use workload::{Mix, RateCurve, RetryPolicy, TraceShape, UserPool};

/// Which benchmark application to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum App {
    /// The 11-service Sock Shop, driven on its Cart path.
    SockShop,
    /// The 36-service Social Network, driven on read-home-timeline.
    SocialNetwork,
    /// A generated Sock-Shop-shaped topology (`crates/topo`), sized by
    /// [`ScenarioSpec::services`] and structured by
    /// [`ScenarioSpec::topo_seed`], driven on its first request mix.
    Generated,
}

/// The hardware autoscaler under (or without) Sora.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[serde(rename_all = "snake_case")]
pub enum Hardware {
    /// No hardware scaling.
    #[default]
    None,
    /// Kubernetes Horizontal Pod Autoscaling on the focus service.
    Hpa,
    /// Kubernetes Vertical Pod Autoscaling on the focus service.
    Vpa,
    /// FIRM-style critical-instance vertical scaling.
    Firm,
}

/// The soft-resource adaptation layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[serde(rename_all = "snake_case")]
pub enum SoftAdaptation {
    /// Static pools (the paper's baseline).
    #[default]
    None,
    /// The latency-aware SCG adapter (Sora).
    Sora,
    /// The throughput-based SCT adapter (ConScale).
    Conscale,
}

/// One fault in a scenario's [`ScenarioSpec::faults`] schedule — the
/// JSON-facing mirror of `microsim`'s `FaultKind`, with instants and
/// window lengths in whole milliseconds since run start.
///
/// [`ScenarioSpec::validate`] converts the list to a [`FaultSchedule`]
/// and defers to [`FaultSchedule::validate_within`], so the fault crate
/// stays the single authority on what a legal schedule is; this type only
/// adds the bounds a *spec* needs (service indices that exist, node 0,
/// network faults only when a network is installed).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum FaultSpec {
    /// Crash the longest-lived ready replica of `service`, optionally
    /// restarting one `restart_after_ms` later.
    Crash {
        /// Victim service index.
        service: u32,
        /// Crash instant, ms since run start.
        at_ms: u64,
        /// Delay before a replacement replica starts (`None`: no restart).
        #[serde(default)]
        restart_after_ms: Option<u64>,
    },
    /// Scale node `node`'s CPU capacity by `factor` for the window.
    CpuPressure {
        /// Pressured node index (the apps place every pod on node 0).
        node: u32,
        /// Window start, ms since run start.
        at_ms: u64,
        /// Window length in ms.
        duration_ms: u64,
        /// Remaining capacity fraction in `(0, 1]`.
        factor: f64,
    },
    /// Suppress (`lag = false`) or delay (`lag = true`) telemetry reports
    /// for the window.
    TelemetryBlackout {
        /// Window start, ms since run start.
        at_ms: u64,
        /// Window length in ms.
        duration_ms: u64,
        /// Lag mode delivers reports late instead of dropping them.
        lag: bool,
    },
    /// Sever the network link between services `a` and `b` for the window.
    /// Requires [`ScenarioSpec::net`].
    Partition {
        /// One side of the severed link.
        a: u32,
        /// The other side.
        b: u32,
        /// Window start, ms since run start.
        at_ms: u64,
        /// Window length in ms.
        duration_ms: u64,
    },
    /// Multiply latency on the `a` ↔ `b` link by `factor` for the window.
    /// Requires [`ScenarioSpec::net`].
    LinkSlow {
        /// One side of the slowed link.
        a: u32,
        /// The other side.
        b: u32,
        /// Window start, ms since run start.
        at_ms: u64,
        /// Window length in ms.
        duration_ms: u64,
        /// Latency multiplier, at least 1.
        factor: f64,
    },
}

impl FaultSpec {
    /// Each fault kind's JSON tag, with the fields its object defines.
    const KNOWN_FIELDS: [(&'static str, &'static [&'static str]); 5] = [
        ("crash", &["service", "at_ms", "restart_after_ms"]),
        ("cpu_pressure", &["node", "at_ms", "duration_ms", "factor"]),
        ("telemetry_blackout", &["at_ms", "duration_ms", "lag"]),
        ("partition", &["a", "b", "at_ms", "duration_ms"]),
        ("link_slow", &["a", "b", "at_ms", "duration_ms", "factor"]),
    ];

    /// The same fault translated `delta_ms` later — the input half of the
    /// time-translation metamorphic oracle (shift *every* input, faults
    /// included, and completions must shift exactly).
    pub fn shifted_ms(self, delta_ms: u64) -> FaultSpec {
        let mut f = self;
        match &mut f {
            FaultSpec::Crash { at_ms, .. }
            | FaultSpec::CpuPressure { at_ms, .. }
            | FaultSpec::TelemetryBlackout { at_ms, .. }
            | FaultSpec::Partition { at_ms, .. }
            | FaultSpec::LinkSlow { at_ms, .. } => *at_ms += delta_ms,
        }
        f
    }

    /// Appends this fault to a schedule under construction.
    fn apply(self, s: FaultSchedule) -> FaultSchedule {
        let at = |ms: u64| SimTime::from_millis(ms);
        match self {
            FaultSpec::Crash {
                service,
                at_ms,
                restart_after_ms,
            } => s.crash(
                at(at_ms),
                ServiceId(service),
                restart_after_ms.map(SimDuration::from_millis),
            ),
            FaultSpec::CpuPressure {
                node,
                at_ms,
                duration_ms,
                factor,
            } => s.cpu_pressure_between(at(at_ms), at(at_ms + duration_ms), NodeId(node), factor),
            FaultSpec::TelemetryBlackout {
                at_ms,
                duration_ms,
                lag,
            } => s.telemetry_blackout_between(
                at(at_ms),
                at(at_ms + duration_ms),
                if lag {
                    BlackoutMode::Lag
                } else {
                    BlackoutMode::Drop
                },
            ),
            FaultSpec::Partition {
                a,
                b,
                at_ms,
                duration_ms,
            } => s.partition_between(
                at(at_ms),
                at(at_ms + duration_ms),
                ServiceId(a),
                ServiceId(b),
            ),
            FaultSpec::LinkSlow {
                a,
                b,
                at_ms,
                duration_ms,
                factor,
            } => s.slow_link(
                at(at_ms),
                ServiceId(a),
                ServiceId(b),
                factor,
                SimDuration::from_millis(duration_ms),
            ),
        }
    }
}

/// Client retry policy knobs ([`ScenarioSpec::retry`]). Every field is
/// optional; `None` takes the corresponding [`RetryPolicy`] default, so
/// `{"max_retries": 2}` is a complete policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetrySpec {
    /// Maximum retries per logical request.
    #[serde(default)]
    pub max_retries: Option<u32>,
    /// Backoff before the first retry, in ms (doubles per attempt).
    #[serde(default)]
    pub base_backoff_ms: Option<u64>,
    /// Upper bound on any single backoff, in ms.
    #[serde(default)]
    pub max_backoff_ms: Option<u64>,
    /// Multiplicative jitter half-width in `[0, 1]`.
    #[serde(default)]
    pub jitter_frac: Option<f64>,
    /// Budget tokens earned per successful completion.
    #[serde(default)]
    pub budget_ratio: Option<f64>,
    /// Maximum banked budget tokens (also the initial balance).
    #[serde(default)]
    pub budget_cap: Option<f64>,
}

impl RetrySpec {
    /// Every field the `retry` object defines.
    const KNOWN_FIELDS: [&'static str; 6] = [
        "max_retries",
        "base_backoff_ms",
        "max_backoff_ms",
        "jitter_frac",
        "budget_ratio",
        "budget_cap",
    ];

    /// The concrete policy, with defaults filled in.
    pub fn policy(&self) -> RetryPolicy {
        let d = RetryPolicy::default();
        RetryPolicy {
            max_retries: self.max_retries.unwrap_or(d.max_retries),
            base_backoff: self
                .base_backoff_ms
                .map(SimDuration::from_millis)
                .unwrap_or(d.base_backoff),
            max_backoff: self
                .max_backoff_ms
                .map(SimDuration::from_millis)
                .unwrap_or(d.max_backoff),
            jitter_frac: self.jitter_frac.unwrap_or(d.jitter_frac),
            budget_ratio: self.budget_ratio.unwrap_or(d.budget_ratio),
            budget_cap: self.budget_cap.unwrap_or(d.budget_cap),
        }
    }
}

/// Message-passing network knobs ([`ScenarioSpec::net`]): one uniform
/// parameter set applied to every client and service edge (telemetry
/// stays transparent). `None` fields take the transparent default.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetSpec {
    /// Constant one-way edge latency in microseconds.
    #[serde(default)]
    pub latency_us: Option<u64>,
    /// Per-message drop probability in `[0, 1)`.
    #[serde(default)]
    pub loss: Option<f64>,
    /// Duplicate-delivery probability in `[0, 1)`, set on the service
    /// edges. It currently has no effect: service edges carry calls and
    /// responses, which the network never duplicates, and only trace
    /// reports on a non-transparent telemetry edge can repeat, while this
    /// spec keeps the telemetry edge transparent.
    #[serde(default)]
    pub duplicate: Option<f64>,
    /// Caller-side per-call timeout in ms; expiry resends the call.
    #[serde(default)]
    pub call_timeout_ms: Option<u64>,
    /// Resend budget after timeouts (requires `call_timeout_ms`).
    #[serde(default)]
    pub max_call_retries: Option<u32>,
}

impl NetSpec {
    /// Every field the `net` object defines.
    const KNOWN_FIELDS: [&'static str; 5] = [
        "latency_us",
        "loss",
        "duplicate",
        "call_timeout_ms",
        "max_call_retries",
    ];

    /// The concrete network configuration.
    pub fn network_config(&self) -> NetworkConfig {
        let latency = SimDuration::from_micros(self.latency_us.unwrap_or(0));
        let mut edge = EdgeParams::constant(latency);
        if let Some(p) = self.loss {
            edge = edge.loss(p);
        }
        if let Some(p) = self.duplicate {
            edge = edge.duplicate(p);
        }
        if let Some(t) = self.call_timeout_ms {
            edge = edge.timeout(
                SimDuration::from_millis(t),
                self.max_call_retries.unwrap_or(0),
            );
        }
        NetworkConfig::transparent()
            .default_edge(edge)
            .client_edge(EdgeParams::constant(latency))
    }
}

/// A declarative experiment.
///
/// # Example
///
/// ```
/// let json = r#"{
///     "app": "sock_shop",
///     "trace": "SteepTriPhase",
///     "max_users": 1200.0,
///     "duration_secs": 60,
///     "sla_ms": 400,
///     "hardware": "firm",
///     "soft": "sora",
///     "seed": 1
/// }"#;
/// let cfg: sora_bench::config::ScenarioSpec = serde_json::from_str(json).unwrap();
/// let outcome = cfg.run();
/// assert!(outcome.summary.completed > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// The application topology.
    pub app: App,
    /// The workload trace shape (e.g. `"SteepTriPhase"`, `"Steady"`).
    pub trace: TraceShape,
    /// Maximum concurrent users.
    pub max_users: f64,
    /// Run length in seconds.
    pub duration_secs: u64,
    /// End-to-end SLA (goodput threshold and Sora's deadline) in ms.
    pub sla_ms: u64,
    /// Hardware autoscaler.
    #[serde(default)]
    pub hardware: Hardware,
    /// Soft-resource adaptation.
    #[serde(default)]
    pub soft: SoftAdaptation,
    /// Run seed.
    #[serde(default)]
    pub seed: u64,
    /// Sock Shop: Cart thread-pool size (default 5).
    #[serde(default)]
    pub cart_threads: Option<usize>,
    /// Sock Shop: Cart CPU cores (default 2).
    #[serde(default)]
    pub cart_cores: Option<u32>,
    /// Social Network: Home-Timeline → Post Storage pool size (default 10).
    #[serde(default)]
    pub home_timeline_conns: Option<usize>,
    /// Social Network: flip to heavy reads at this second.
    #[serde(default)]
    pub drift_at_secs: Option<u64>,
    /// Shard tally (DESIGN §14): partitions services across `N` shards
    /// and tallies the event loop's lookahead windows by shard, which
    /// only sets `critical_path_events`; results are byte-identical to
    /// the omitted default. Values are clamped to the app's service count
    /// at build time; `0` and values above 64 are rejected at parse time,
    /// as is a `net` without edge latency (no window width).
    #[serde(default)]
    pub shards: Option<usize>,
    /// Generated app: total services in the topology. Required for (and
    /// only meaningful with) `"app": "generated"`.
    #[serde(default)]
    pub services: Option<usize>,
    /// Generated app: structure seed for the topology generator (layer
    /// widths, call edges, service-time medians). Defaults to the
    /// Sock-Shop-like preset seed.
    #[serde(default)]
    pub topo_seed: Option<u64>,
    /// Client retry policy (bounded, budgeted exponential backoff).
    #[serde(default)]
    pub retry: Option<RetrySpec>,
    /// Message-passing network between services (DESIGN §12).
    #[serde(default)]
    pub net: Option<NetSpec>,
    /// Fault schedule, gated through [`FaultSchedule::validate_within`].
    #[serde(default)]
    pub faults: Vec<FaultSpec>,
}

/// Why a scenario config was rejected. Typed (rather than a panic or a
/// stringly error) so `sora-server` can map each cause onto a structured
/// error reply and keep serving, and so the CLI can print a precise
/// diagnosis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ScenarioError {
    /// The text is not valid JSON, or its top level is not an object.
    Malformed {
        /// The parser's message.
        message: String,
    },
    /// A field the schema does not define — almost always a typo that
    /// would otherwise be silently ignored.
    UnknownField {
        /// The offending field's path: `max_user` at the top level,
        /// `net.latncy_us` or `faults[0].crash.restart_afer_ms` below it.
        field: String,
    },
    /// A known field failed to deserialize (wrong type, unknown enum
    /// variant, missing required field).
    BadField {
        /// The deserializer's message.
        message: String,
    },
    /// A field deserialized but its value is outside the physically
    /// meaningful range.
    InvalidValue {
        /// The offending field name.
        field: String,
        /// Why the value is rejected.
        message: String,
    },
    /// The drift switch does not fall inside the run window.
    InvertedWindow {
        /// The configured `drift_at_secs`.
        drift_at_secs: u64,
        /// The configured `duration_secs`.
        duration_secs: u64,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Malformed { message } => {
                write!(f, "malformed scenario JSON: {message}")
            }
            ScenarioError::UnknownField { field } => {
                write!(f, "unknown scenario field `{field}`")
            }
            ScenarioError::BadField { message } => {
                write!(f, "invalid scenario field: {message}")
            }
            ScenarioError::InvalidValue { field, message } => {
                write!(f, "invalid value for `{field}`: {message}")
            }
            ScenarioError::InvertedWindow {
                drift_at_secs,
                duration_secs,
            } => write!(
                f,
                "drift_at_secs ({drift_at_secs}) must fall inside the run \
                 (duration_secs = {duration_secs})"
            ),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// What a scenario run produces.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// Timelines and summary.
    pub result: RunResult,
    /// Convenience copy of the summary.
    pub summary: apps::Summary,
    /// The final world for post-hoc queries.
    pub world: World,
}

impl ScenarioSpec {
    /// Every top-level field the schema defines. `parse` rejects anything
    /// else, here and in the `retry`, `net` and `faults` objects: the
    /// derive-level deserializer ignores unknown keys, which would silently
    /// turn a typo (`"max_user"`) into a default value. The fuzzer's
    /// `round_trip` oracle parses every generated spec's full serialization,
    /// so a field missing from these lists fails it.
    pub const KNOWN_FIELDS: [&'static str; 18] = [
        "app",
        "trace",
        "max_users",
        "duration_secs",
        "sla_ms",
        "hardware",
        "soft",
        "seed",
        "cart_threads",
        "cart_cores",
        "home_timeline_conns",
        "drift_at_secs",
        "shards",
        "services",
        "topo_seed",
        "retry",
        "net",
        "faults",
    ];

    /// A spec with the five required fields, no controller (`hardware` and
    /// `soft` both `none`), seed 0 and every optional field unset. Callers
    /// set the rest with struct-update syntax.
    pub fn new(
        app: App,
        trace: TraceShape,
        max_users: f64,
        duration_secs: u64,
        sla_ms: u64,
    ) -> ScenarioSpec {
        ScenarioSpec {
            app,
            trace,
            max_users,
            duration_secs,
            sla_ms,
            hardware: Hardware::None,
            soft: SoftAdaptation::None,
            seed: 0,
            cart_threads: None,
            cart_cores: None,
            home_timeline_conns: None,
            drift_at_secs: None,
            shards: None,
            services: None,
            topo_seed: None,
            retry: None,
            net: None,
            faults: Vec::new(),
        }
    }

    /// Parses and validates a scenario config, reporting the first problem
    /// as a typed [`ScenarioError`]: malformed JSON, an unknown field, a
    /// field that fails to deserialize, an out-of-range value, or an
    /// inverted drift window.
    pub fn parse(text: &str) -> Result<ScenarioSpec, ScenarioError> {
        let spec = Self::parse_unchecked(text)?;
        spec.validate()?;
        Ok(spec)
    }

    /// [`parse`](Self::parse) without the [`validate`](Self::validate)
    /// pass: syntax, unknown-field, and field-shape errors only. Exists
    /// for tooling that needs to inspect specs the semantic gate rejects
    /// (the fuzz regression corpus keeps such reproducers on disk).
    pub fn parse_unchecked(text: &str) -> Result<ScenarioSpec, ScenarioError> {
        let value = serde_json::parse(text).map_err(|e| ScenarioError::Malformed {
            message: e.to_string(),
        })?;
        let obj = value.as_object().ok_or_else(|| ScenarioError::Malformed {
            message: "scenario config must be a JSON object".to_string(),
        })?;
        reject_unknown_keys(obj, "", &Self::KNOWN_FIELDS)?;
        let nested = |key: &str| obj.get(key).and_then(serde_json::Value::as_object);
        if let Some(retry) = nested("retry") {
            reject_unknown_keys(retry, "retry.", &RetrySpec::KNOWN_FIELDS)?;
        }
        if let Some(net) = nested("net") {
            reject_unknown_keys(net, "net.", &NetSpec::KNOWN_FIELDS)?;
        }
        let faults = obj.get("faults").and_then(serde_json::Value::as_array);
        for (i, fault) in faults.unwrap_or_default().iter().enumerate() {
            // An unknown kind is the deserializer's error to report.
            for (kind, body) in fault.as_object().into_iter().flat_map(|f| f.iter()) {
                let known = FaultSpec::KNOWN_FIELDS.iter().find(|(k, _)| k == kind);
                if let (Some((_, fields)), Some(body)) = (known, body.as_object()) {
                    reject_unknown_keys(body, &format!("faults[{i}].{kind}."), fields)?;
                }
            }
        }
        serde_json::from_value(&value).map_err(|e| ScenarioError::BadField {
            message: e.to_string(),
        })
    }

    /// Checks the semantic constraints `parse` enforces after
    /// deserialization. Public so specs built in Rust get the same
    /// screening as specs read from JSON.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let invalid = |field: &str, message: String| ScenarioError::InvalidValue {
            field: field.to_string(),
            message,
        };
        if !self.max_users.is_finite() || self.max_users <= 0.0 {
            return Err(invalid(
                "max_users",
                format!("must be a finite positive number, got {}", self.max_users),
            ));
        }
        if self.max_users > 10_000_000.0 {
            return Err(invalid(
                "max_users",
                format!("at most 10M users are supported, got {}", self.max_users),
            ));
        }
        if self.duration_secs == 0 {
            return Err(invalid("duration_secs", "must be positive".to_string()));
        }
        // A day of simulated time keeps every ms → ns conversion far from
        // u64 overflow; without the cap a huge duration passes validation
        // and panics later in `build` (the gate gap the fuzzer hunts).
        if self.duration_secs > 86_400 {
            return Err(invalid(
                "duration_secs",
                format!(
                    "at most 86400 s (one day) is supported, got {}",
                    self.duration_secs
                ),
            ));
        }
        if self.sla_ms == 0 {
            return Err(invalid("sla_ms", "must be positive".to_string()));
        }
        if self.sla_ms > 3_600_000 {
            return Err(invalid(
                "sla_ms",
                format!(
                    "at most 3600000 ms (one hour) is supported, got {}",
                    self.sla_ms
                ),
            ));
        }
        if self.cart_threads == Some(0) {
            return Err(invalid(
                "cart_threads",
                "the pool needs at least one thread".to_string(),
            ));
        }
        if self.cart_cores == Some(0) {
            return Err(invalid(
                "cart_cores",
                "the Cart pod needs at least one core".to_string(),
            ));
        }
        if self.home_timeline_conns == Some(0) {
            return Err(invalid(
                "home_timeline_conns",
                "the pool needs at least one connection".to_string(),
            ));
        }
        if let Some(at) = self.drift_at_secs {
            if at >= self.duration_secs {
                return Err(ScenarioError::InvertedWindow {
                    drift_at_secs: at,
                    duration_secs: self.duration_secs,
                });
            }
        }
        match self.shards {
            Some(0) => {
                return Err(invalid(
                    "shards",
                    "the world needs at least one shard".to_string(),
                ));
            }
            Some(n) if n > 64 => {
                return Err(invalid(
                    "shards",
                    format!("at most 64 shards are supported, got {n}"),
                ));
            }
            _ => {}
        }
        // App-specific knobs on the wrong app would be silently ignored by
        // `build`, so two behaviourally identical specs would cache under
        // different canon keys. Reject the mismatch instead.
        if self.app != App::SockShop {
            if self.cart_threads.is_some() {
                return Err(invalid(
                    "cart_threads",
                    "only meaningful for app = sock_shop".to_string(),
                ));
            }
            if self.cart_cores.is_some() {
                return Err(invalid(
                    "cart_cores",
                    "only meaningful for app = sock_shop".to_string(),
                ));
            }
        }
        if self.app != App::SocialNetwork && self.home_timeline_conns.is_some() {
            return Err(invalid(
                "home_timeline_conns",
                "only meaningful for app = social_network".to_string(),
            ));
        }
        if self.app == App::SockShop && self.drift_at_secs.is_some() {
            return Err(invalid(
                "drift_at_secs",
                "sock_shop drives a single request mix; drift needs \
                 social_network or generated"
                    .to_string(),
            ));
        }
        match self.app {
            App::Generated => match self.services {
                None => {
                    return Err(invalid(
                        "services",
                        "app = generated requires a service count".to_string(),
                    ));
                }
                Some(n) if !(5..=2_000).contains(&n) => {
                    return Err(invalid(
                        "services",
                        format!("generated topologies support 5..=2000 services, got {n}"),
                    ));
                }
                Some(_) => {}
            },
            App::SockShop | App::SocialNetwork => {
                if self.services.is_some() {
                    return Err(invalid(
                        "services",
                        "only meaningful for app = generated".to_string(),
                    ));
                }
                if self.topo_seed.is_some() {
                    return Err(invalid(
                        "topo_seed",
                        "only meaningful for app = generated".to_string(),
                    ));
                }
            }
        }
        if let Some(retry) = &self.retry {
            let bad_frac = |v: f64| !v.is_finite() || !(0.0..=1.0).contains(&v);
            if retry.jitter_frac.is_some_and(bad_frac) {
                return Err(invalid(
                    "retry.jitter_frac",
                    "must be in [0, 1]".to_string(),
                ));
            }
            if retry
                .budget_ratio
                .is_some_and(|v| !v.is_finite() || v < 0.0)
            {
                return Err(invalid(
                    "retry.budget_ratio",
                    "must be finite and non-negative".to_string(),
                ));
            }
            if retry.budget_cap.is_some_and(|v| !v.is_finite() || v < 0.0) {
                return Err(invalid(
                    "retry.budget_cap",
                    "must be finite and non-negative".to_string(),
                ));
            }
            if retry.max_retries.is_some_and(|v| v > 100) {
                return Err(invalid(
                    "retry.max_retries",
                    "at most 100 retries are supported".to_string(),
                ));
            }
            let day_ms = 86_400_000;
            if retry.base_backoff_ms.is_some_and(|v| v > day_ms)
                || retry.max_backoff_ms.is_some_and(|v| v > day_ms)
            {
                return Err(invalid(
                    "retry",
                    "backoffs above one day are not supported".to_string(),
                ));
            }
        }
        if let Some(net) = &self.net {
            if self.shards.is_some() && net.latency_us.unwrap_or(0) == 0 {
                return Err(invalid(
                    "net.latency_us",
                    "the shard tally's window is the network's edge \
                     latency, so `shards` needs a positive one"
                        .to_string(),
                ));
            }
            let bad_prob = |v: f64| !v.is_finite() || !(0.0..1.0).contains(&v);
            if net.loss.is_some_and(bad_prob) {
                return Err(invalid("net.loss", "must be in [0, 1)".to_string()));
            }
            if net.duplicate.is_some_and(bad_prob) {
                return Err(invalid("net.duplicate", "must be in [0, 1)".to_string()));
            }
            if net.latency_us.is_some_and(|v| v > 10_000_000) {
                return Err(invalid(
                    "net.latency_us",
                    "at most 10 s of edge latency is supported".to_string(),
                ));
            }
            if net.call_timeout_ms == Some(0) {
                return Err(invalid(
                    "net.call_timeout_ms",
                    "a zero call timeout would expire every call at send \
                     time"
                        .to_string(),
                ));
            }
            if net.call_timeout_ms.is_some_and(|v| v > 86_400_000) {
                return Err(invalid(
                    "net.call_timeout_ms",
                    "at most one day is supported".to_string(),
                ));
            }
            if net.max_call_retries.is_some() && net.call_timeout_ms.is_none() {
                return Err(invalid(
                    "net.max_call_retries",
                    "meaningless without net.call_timeout_ms".to_string(),
                ));
            }
            if net.max_call_retries.is_some_and(|v| v > 100) {
                return Err(invalid(
                    "net.max_call_retries",
                    "at most 100 resends are supported".to_string(),
                ));
            }
        }
        self.validate_faults()?;
        Ok(())
    }

    /// The fault-specific half of [`ScenarioSpec::validate`]: spec-level
    /// bounds first (indices that exist, sane factors, network faults only
    /// with a network), then the whole list through the single schedule
    /// gate [`FaultSchedule::validate_within`].
    fn validate_faults(&self) -> Result<(), ScenarioError> {
        let invalid = |message: String| ScenarioError::InvalidValue {
            field: "faults".to_string(),
            message,
        };
        // One day in ms: keeps every `at_ms + duration_ms` → SimTime
        // conversion far from u64 nanosecond overflow before the horizon
        // check can reject it.
        let day_ms = 86_400_000u64;
        let services = self.service_count() as u32;
        let check_service = |s: u32| {
            if s >= services {
                Err(invalid(format!(
                    "service index {s} out of range (the app has {services} services)"
                )))
            } else {
                Ok(())
            }
        };
        for f in &self.faults {
            let (at_ms, duration_ms) = match *f {
                FaultSpec::Crash {
                    service,
                    at_ms,
                    restart_after_ms,
                } => {
                    check_service(service)?;
                    (at_ms, restart_after_ms.unwrap_or(0))
                }
                FaultSpec::CpuPressure {
                    node,
                    at_ms,
                    duration_ms,
                    factor,
                } => {
                    if node != 0 {
                        return Err(invalid(format!(
                            "cpu_pressure node {node}: the apps place every pod on node 0"
                        )));
                    }
                    if !factor.is_finite() || !(0.0..=1.0).contains(&factor) || factor == 0.0 {
                        return Err(invalid(format!(
                            "cpu_pressure factor {factor} must be in (0, 1]"
                        )));
                    }
                    (at_ms, duration_ms)
                }
                FaultSpec::TelemetryBlackout {
                    at_ms, duration_ms, ..
                } => (at_ms, duration_ms),
                FaultSpec::Partition {
                    a,
                    b,
                    at_ms,
                    duration_ms,
                } => {
                    check_service(a)?;
                    check_service(b)?;
                    if a == b {
                        return Err(invalid(format!("partition of service {a} with itself")));
                    }
                    if self.net.is_none() {
                        return Err(invalid(
                            "partition faults need `net` (without a network they would \
                             be silently ignored)"
                                .to_string(),
                        ));
                    }
                    (at_ms, duration_ms)
                }
                FaultSpec::LinkSlow {
                    a,
                    b,
                    at_ms,
                    duration_ms,
                    factor,
                } => {
                    check_service(a)?;
                    check_service(b)?;
                    if a == b {
                        return Err(invalid(format!("slow link from service {a} to itself")));
                    }
                    if self.net.is_none() {
                        return Err(invalid(
                            "link_slow faults need `net` (without a network they would \
                             be silently ignored)"
                                .to_string(),
                        ));
                    }
                    if !factor.is_finite() || !(1.0..=1_000.0).contains(&factor) {
                        return Err(invalid(format!(
                            "link_slow factor {factor} must be in [1, 1000]"
                        )));
                    }
                    (at_ms, duration_ms)
                }
            };
            if at_ms > day_ms || duration_ms > day_ms {
                return Err(invalid(format!(
                    "fault window at {at_ms} ms for {duration_ms} ms exceeds the one-day cap"
                )));
            }
        }
        self.fault_schedule()
            .validate_within(SimTime::from_secs(self.duration_secs))
            .map_err(|e| invalid(e.to_string()))
    }

    /// The [`FaultSchedule`] this spec's `faults` list describes. Public
    /// so harnesses (e.g. the scenario fuzzer) can replay a spec's faults
    /// against worlds they build themselves.
    pub fn fault_schedule(&self) -> FaultSchedule {
        self.faults
            .iter()
            .fold(FaultSchedule::new(), |s, f| f.apply(s))
    }

    /// Services in the topology this spec builds.
    pub fn service_count(&self) -> usize {
        match self.app {
            App::SockShop => 12,
            App::SocialNetwork => 36,
            App::Generated => self.services.unwrap_or(0),
        }
    }

    /// The service the controllers focus on (Cart / Post Storage / the
    /// first service of the generated topology's connection-pool tier).
    fn focus(&self) -> ServiceId {
        match self.app {
            App::SockShop => ServiceId(1),
            App::SocialNetwork => ServiceId(2),
            App::Generated => {
                // Service ids are assigned layer by layer, so the first
                // conn-tier id is the total width of the layers above it.
                let sizes = topo::layer_widths(self.services.unwrap_or(5), 5);
                let conn_layer = sizes.len() - 2;
                ServiceId(sizes[..conn_layer].iter().sum::<usize>() as u32)
            }
        }
    }

    /// The tunable soft resource of the app.
    fn soft_resource(&self) -> SoftResource {
        match self.app {
            App::SockShop => SoftResource::ThreadPool {
                service: ServiceId(1),
            },
            App::SocialNetwork => SoftResource::ConnPool {
                caller: ServiceId(1),
                target: ServiceId(2),
            },
            App::Generated => SoftResource::ThreadPool {
                service: self.focus(),
            },
        }
    }

    fn build_controller(&self) -> Box<dyn Controller> {
        let focus = self.focus();
        let hardware: Box<dyn Controller> = match self.hardware {
            Hardware::None => Box::new(NullController),
            Hardware::Hpa => Box::new(HpaController::new(focus, 8)),
            Hardware::Vpa => Box::new(VpaController::new(focus)),
            Hardware::Firm => Box::new(FirmController::new(vec![focus])),
        };
        // Sock Shop's Cart pool stays at or above the 5 threads that suit
        // its 2-core starting limit (DESIGN §7); a floor of 2 let Sora
        // shrink it below that and lose to FIRM alone.
        let bounds = match self.app {
            App::SockShop => ResourceBounds { min: 5, max: 200 },
            App::SocialNetwork | App::Generated => ResourceBounds { min: 2, max: 256 },
        };
        let registry = ResourceRegistry::new().with(self.soft_resource(), bounds);
        let sora_config = SoraConfig {
            sla: SimDuration::from_millis(self.sla_ms),
            ..Default::default()
        };
        match self.soft {
            SoftAdaptation::None => hardware,
            SoftAdaptation::Sora => Box::new(SoraController::sora(sora_config, registry, hardware)),
            SoftAdaptation::Conscale => {
                Box::new(SoraController::conscale(sora_config, registry, hardware))
            }
        }
    }

    /// Builds the world, the closed-loop scenario driver and the controller
    /// stack without running anything — the seam `sora-server` live
    /// sessions step incrementally. [`ScenarioSpec::run`] is exactly
    /// `build()` followed by `Scenario::run`, so both paths produce
    /// byte-identical results.
    pub fn build(&self) -> BuiltScenario {
        let world_config = crate::scenarios::run_world_config();
        let curve = RateCurve::new(
            self.trace,
            self.max_users,
            SimDuration::from_secs(self.duration_secs),
        );
        let mut pool = UserPool::new(
            curve,
            Dist::exponential_ms(crate::scenarios::THINK_MS),
            SimRng::seed_from(self.seed ^ 0xABCD),
        );
        if let Some(retry) = &self.retry {
            pool = pool.with_retry(retry.policy());
        }
        let report_rtt = SimDuration::from_millis(self.sla_ms);
        let controller = self.build_controller();
        let (scenario, world) = match self.app {
            App::SockShop => {
                let shop = SockShop::build_with_config(
                    SockShopParams {
                        cart_threads: self.cart_threads.unwrap_or(5),
                        cart_cores: self.cart_cores.unwrap_or(2),
                        ..Default::default()
                    },
                    world_config,
                    SimRng::seed_from(self.seed),
                );
                let scenario = Scenario::new(
                    report_rtt,
                    pool,
                    Mix::single(shop.get_cart),
                    Watch {
                        service: shop.cart,
                        conns: None,
                    },
                );
                (scenario, shop.world)
            }
            App::SocialNetwork => {
                let sn = SocialNetwork::build_with_config(
                    SocialNetworkParams {
                        home_timeline_conns: self.home_timeline_conns.unwrap_or(10),
                        ..Default::default()
                    },
                    world_config,
                    SimRng::seed_from(self.seed),
                );
                let mut scenario = Scenario::new(
                    report_rtt,
                    pool,
                    Mix::single(sn.read_home_timeline_light),
                    Watch {
                        service: sn.post_storage,
                        conns: Some((sn.home_timeline, sn.post_storage)),
                    },
                );
                if let Some(at) = self.drift_at_secs {
                    scenario = scenario.with_mix_change(
                        SimTime::from_secs(at),
                        Mix::single(sn.read_home_timeline_heavy),
                    );
                }
                (scenario, sn.world)
            }
            App::Generated => {
                let n = self
                    .services
                    .expect("validated: generated requires `services`");
                let mut params = TopoParams::sock_shop_like(n);
                if let Some(seed) = self.topo_seed {
                    params.seed = seed;
                }
                let t = topo::build(&params, world_config, SimRng::seed_from(self.seed));
                let mut scenario = Scenario::new(
                    report_rtt,
                    pool,
                    Mix::single(t.request_types[0]),
                    Watch {
                        service: self.focus(),
                        conns: None,
                    },
                );
                if let Some(at) = self.drift_at_secs {
                    // The preset generates three mixes; drift hops to the
                    // second, traversing a different subgraph.
                    scenario = scenario
                        .with_mix_change(SimTime::from_secs(at), Mix::single(t.request_types[1]));
                }
                (scenario, t.world)
            }
        };
        let mut world = world;
        if let Some(net) = &self.net {
            world.install_network(net.network_config());
        }
        if let Some(n) = self.shards {
            // Validated to 1..=64 by `validate`; the app's service count
            // is the remaining physical ceiling. Enabled after the
            // network, whose lookahead becomes the tally's window width.
            let n = n.clamp(1, world.service_count());
            world
                .enable_sharding(n)
                .expect("freshly built world accepts sharding");
        }
        if !self.faults.is_empty() {
            world
                .install_faults(self.fault_schedule())
                .expect("validated by ScenarioSpec::validate");
        }
        BuiltScenario {
            world,
            scenario,
            controller,
        }
    }

    /// The spec's canonical JSON emission: parsing it back yields an equal
    /// spec (`parse(emit(s)) == Ok(s)`), the round-trip property the
    /// fuzzer checks and the canon cache key builds on.
    ///
    /// Unset optional fields are omitted rather than spelled as `null`
    /// (every optional field is `#[serde(default)]`, so omission and
    /// `null` parse identically). This keeps committed reproducers under
    /// `scenarios/` minimal, and makes `emit().len()` an honest size
    /// metric for the fuzzer's shrinker.
    pub fn emit(&self) -> String {
        let stripped = strip_unset(&serde_json::to_value(self));
        serde_json::to_string_pretty(&stripped).expect("spec serialises")
    }

    /// Builds and runs the scenario.
    pub fn run(&self) -> ScenarioOutcome {
        let BuiltScenario {
            mut world,
            scenario,
            mut controller,
        } = self.build();
        let result = scenario.run(&mut world, controller.as_mut());
        let summary = result.summary;
        ScenarioOutcome {
            result,
            summary,
            world,
        }
    }
}

/// Drops `null` members and empty arrays from objects, recursively. Safe
/// for [`ScenarioSpec`] because every optional field is `#[serde(default)]`:
/// an omitted member deserialises to the same value as an explicit `null`
/// (or empty list).
fn strip_unset(v: &serde_json::Value) -> serde_json::Value {
    use serde_json::Value;
    match v {
        Value::Object(map) => Value::Object(
            map.iter()
                .filter(|(_, val)| {
                    !val.is_null() && !matches!(val, Value::Array(a) if a.is_empty())
                })
                .map(|(k, val)| (k.clone(), strip_unset(val)))
                .collect(),
        ),
        Value::Array(items) => Value::Array(items.iter().map(strip_unset).collect()),
        other => other.clone(),
    }
}

/// The first key of `obj` that `known` does not list, as an
/// [`ScenarioError::UnknownField`] named `prefix` + key.
fn reject_unknown_keys(
    obj: &serde_json::Map,
    prefix: &str,
    known: &[&str],
) -> Result<(), ScenarioError> {
    match obj.iter().find(|(key, _)| !known.contains(&key.as_str())) {
        Some((key, _)) => Err(ScenarioError::UnknownField {
            field: format!("{prefix}{key}"),
        }),
        None => Ok(()),
    }
}

/// A scenario ready to run: the pieces [`ScenarioSpec::build`] assembles.
pub struct BuiltScenario {
    /// The simulated cluster.
    pub world: World,
    /// The closed-loop scenario driver.
    pub scenario: Scenario,
    /// The controller stack (hardware autoscaler, optionally wrapped by
    /// Sora/ConScale).
    pub controller: Box<dyn Controller>,
}

/// The canonical result payload of a scenario run — the `data` block of
/// `results/scenario_<name>.json` and the body `sora-server` returns over
/// the wire. Both sides build it here, which is what makes the wire and
/// in-process outputs byte-identical.
pub fn scenario_result_data(spec: &ScenarioSpec, outcome: &ScenarioOutcome) -> serde_json::Value {
    let mut data = serde_json::json!({
        "spec": spec,
        "summary": outcome.summary,
        "timeline": outcome.result.timeline,
        "rt": outcome.result.rt_timeline,
        "goodput": outcome.result.goodput_timeline,
    });
    // Fault-bearing specs additionally report the world's fault log, so a
    // cached result shows what was injected and when. Keyed on the spec
    // (not the log) so fault-free scenarios keep their exact historical
    // bytes.
    if !spec.faults.is_empty() {
        if let serde_json::Value::Object(map) = &mut data {
            let log: Vec<String> = outcome
                .world
                .fault_log()
                .iter()
                .map(|(t, msg)| format!("{}ms {msg}", t.as_millis()))
                .collect();
            map.insert("fault_log".to_string(), serde_json::to_value(&log));
        }
    }
    data
}

/// Pretty-printed [`scenario_result_data`] — the exact bytes the farm
/// caches and the server serves.
pub fn scenario_result_text(spec: &ScenarioSpec, outcome: &ScenarioOutcome) -> String {
    serde_json::to_string_pretty(&scenario_result_data(spec, outcome)).expect("result serialises")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ScenarioSpec {
        ScenarioSpec {
            seed: 3,
            ..ScenarioSpec::new(App::SockShop, TraceShape::Steady, 400.0, 30, 400)
        }
    }

    #[test]
    fn json_round_trip_with_defaults() {
        let json = r#"{
            "app": "social_network",
            "trace": "LargeVariation",
            "max_users": 500.0,
            "duration_secs": 10,
            "sla_ms": 250
        }"#;
        let spec: ScenarioSpec = serde_json::from_str(json).unwrap();
        assert_eq!(spec.app, App::SocialNetwork);
        assert_eq!(spec.hardware, Hardware::None);
        assert_eq!(spec.soft, SoftAdaptation::None);
        let back = serde_json::to_string(&spec).unwrap();
        assert!(back.contains("social_network"));
    }

    #[test]
    fn parse_rejects_each_failure_mode_with_its_typed_error() {
        // Malformed JSON.
        match ScenarioSpec::parse("{not json").unwrap_err() {
            ScenarioError::Malformed { .. } => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
        // Not an object.
        match ScenarioSpec::parse("[1, 2]").unwrap_err() {
            ScenarioError::Malformed { .. } => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
        // Unknown field (a typo the derive would silently ignore).
        let typo = r#"{"app": "sock_shop", "trace": "Steady", "max_user": 10.0,
                       "duration_secs": 5, "sla_ms": 400}"#;
        match ScenarioSpec::parse(typo).unwrap_err() {
            ScenarioError::UnknownField { field } => assert_eq!(field, "max_user"),
            other => panic!("expected UnknownField, got {other:?}"),
        }
        // Unknown fields inside the nested objects, named by their path.
        let base = r#""app": "sock_shop", "trace": "Steady", "max_users": 10.0,
                      "duration_secs": 5, "sla_ms": 400"#;
        for (nested, path) in [
            (r#""net": {"latncy_us": 200}"#, "net.latncy_us"),
            (r#""retry": {"max_retry": 2}"#, "retry.max_retry"),
            (
                r#""faults": [{"crash": {"service": 0, "at_ms": 1000, "restart_afer_ms": 500}}]"#,
                "faults[0].crash.restart_afer_ms",
            ),
        ] {
            match ScenarioSpec::parse(&format!("{{{base}, {nested}}}")).unwrap_err() {
                ScenarioError::UnknownField { field } => assert_eq!(field, path),
                other => panic!("expected UnknownField for {path}, got {other:?}"),
            }
        }
        // Bad enum variant.
        let bad_trace = r#"{"app": "sock_shop", "trace": "NoSuchTrace", "max_users": 10.0,
                            "duration_secs": 5, "sla_ms": 400}"#;
        match ScenarioSpec::parse(bad_trace).unwrap_err() {
            ScenarioError::BadField { message } => {
                assert!(message.contains("NoSuchTrace"), "{message}")
            }
            other => panic!("expected BadField, got {other:?}"),
        }
        // Missing required field.
        let missing = r#"{"app": "sock_shop", "trace": "Steady", "max_users": 10.0,
                          "sla_ms": 400}"#;
        match ScenarioSpec::parse(missing).unwrap_err() {
            ScenarioError::BadField { message } => {
                assert!(message.contains("duration_secs"), "{message}")
            }
            other => panic!("expected BadField, got {other:?}"),
        }
        // Out-of-range value.
        let zero_users = r#"{"app": "sock_shop", "trace": "Steady", "max_users": 0.0,
                             "duration_secs": 5, "sla_ms": 400}"#;
        match ScenarioSpec::parse(zero_users).unwrap_err() {
            ScenarioError::InvalidValue { field, .. } => assert_eq!(field, "max_users"),
            other => panic!("expected InvalidValue, got {other:?}"),
        }
        // Drift at or past the end of the run.
        let inverted = r#"{"app": "social_network", "trace": "Steady", "max_users": 10.0,
                           "duration_secs": 30, "sla_ms": 400, "drift_at_secs": 30}"#;
        match ScenarioSpec::parse(inverted).unwrap_err() {
            ScenarioError::InvertedWindow {
                drift_at_secs,
                duration_secs,
            } => {
                assert_eq!((drift_at_secs, duration_secs), (30, 30));
            }
            other => panic!("expected InvertedWindow, got {other:?}"),
        }
    }

    #[test]
    fn parse_accepts_valid_specs_and_errors_round_trip_as_json() {
        let ok = r#"{"app": "sock_shop", "trace": "Steady", "max_users": 10.0,
                     "duration_secs": 5, "sla_ms": 400, "cart_threads": null}"#;
        let spec = ScenarioSpec::parse(ok).expect("valid spec with explicit null");
        assert_eq!(spec.cart_threads, None);

        let err = ScenarioSpec::parse("{not json").unwrap_err();
        let json = serde_json::to_string(&err).unwrap();
        let back: ScenarioError = serde_json::from_str(&json).unwrap();
        assert_eq!(err, back, "typed errors survive the wire");
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn sock_shop_scenario_runs() {
        let outcome = base().run();
        assert!(outcome.summary.completed > 1_000);
        assert_eq!(outcome.summary.dropped, 0);
    }

    #[test]
    fn controller_stacks_compose() {
        // The three stacks are independent runs — fan them out through the
        // sweep harness (also exercising it against full scenario runs).
        let stacks = [
            (Hardware::Firm, SoftAdaptation::Sora),
            (Hardware::Vpa, SoftAdaptation::Conscale),
            (Hardware::Hpa, SoftAdaptation::None),
        ];
        let outcome = crate::Sweep::with_jobs(3).run(
            stacks
                .into_iter()
                .map(|(hw, soft)| {
                    crate::job(format!("{hw:?}/{soft:?}"), move || {
                        let spec = ScenarioSpec {
                            hardware: hw,
                            soft,
                            duration_secs: 20,
                            ..base()
                        };
                        spec.run().summary
                    })
                })
                .collect(),
        );
        for ((hw, soft), summary) in stacks.into_iter().zip(outcome.results) {
            assert!(summary.completed > 500, "{hw:?}/{soft:?}");
        }
    }

    #[test]
    fn social_network_drift_spec_runs() {
        let spec = ScenarioSpec {
            app: App::SocialNetwork,
            max_users: 600.0,
            drift_at_secs: Some(15),
            duration_secs: 30,
            ..base()
        };
        let outcome = spec.run();
        assert!(outcome.summary.completed > 1_000);
    }

    #[test]
    fn sock_shop_sora_keeps_the_cart_pool_at_five_or_more() {
        let spec = ScenarioSpec {
            hardware: Hardware::Firm,
            soft: SoftAdaptation::Sora,
            seed: 42,
            ..ScenarioSpec::new(App::SockShop, TraceShape::QuickVarying, 1_500.0, 45, 400)
        };
        let outcome = spec.run();
        let min = outcome.result.timeline.iter().map(|r| r.thread_limit).min();
        assert!(min >= Some(5), "Cart pool fell to {min:?}");
    }

    #[test]
    fn shards_out_of_range_is_rejected_with_typed_error() {
        let zero = r#"{"app": "sock_shop", "trace": "Steady", "max_users": 10.0,
                       "duration_secs": 5, "sla_ms": 400, "shards": 0}"#;
        match ScenarioSpec::parse(zero).unwrap_err() {
            ScenarioError::InvalidValue { field, .. } => assert_eq!(field, "shards"),
            other => panic!("expected InvalidValue, got {other:?}"),
        }
        let huge = r#"{"app": "sock_shop", "trace": "Steady", "max_users": 10.0,
                       "duration_secs": 5, "sla_ms": 400, "shards": 65}"#;
        match ScenarioSpec::parse(huge).unwrap_err() {
            ScenarioError::InvalidValue { field, message } => {
                assert_eq!(field, "shards");
                assert!(message.contains("64"), "{message}");
            }
            other => panic!("expected InvalidValue, got {other:?}"),
        }
        // Negative and fractional counts fail at the deserializer.
        let neg = r#"{"app": "sock_shop", "trace": "Steady", "max_users": 10.0,
                      "duration_secs": 5, "sla_ms": 400, "shards": -2}"#;
        assert!(matches!(
            ScenarioSpec::parse(neg).unwrap_err(),
            ScenarioError::BadField { .. }
        ));
    }

    #[test]
    fn extended_specs_round_trip_through_emit() {
        let spec = ScenarioSpec {
            app: App::SockShop,
            duration_secs: 20,
            retry: Some(RetrySpec {
                max_retries: Some(2),
                base_backoff_ms: None,
                max_backoff_ms: Some(2_000),
                jitter_frac: None,
                budget_ratio: None,
                budget_cap: Some(10.0),
            }),
            net: Some(NetSpec {
                latency_us: Some(200),
                loss: Some(0.01),
                duplicate: None,
                call_timeout_ms: Some(1_000),
                max_call_retries: Some(1),
            }),
            faults: vec![
                FaultSpec::Crash {
                    service: 1,
                    at_ms: 5_000,
                    restart_after_ms: Some(2_000),
                },
                FaultSpec::Partition {
                    a: 0,
                    b: 1,
                    at_ms: 8_000,
                    duration_ms: 3_000,
                },
                FaultSpec::TelemetryBlackout {
                    at_ms: 12_000,
                    duration_ms: 2_000,
                    lag: true,
                },
            ],
            ..base()
        };
        spec.validate().expect("valid extended spec");
        let back = ScenarioSpec::parse(&spec.emit()).expect("emit parses");
        assert_eq!(back, spec, "parse(emit(spec)) == spec");
        // And again: emission is a fixed point.
        assert_eq!(back.emit(), spec.emit());
    }

    #[test]
    fn app_mismatched_knobs_are_rejected() {
        // Silently-ignored knobs would make behaviourally identical specs
        // cache under different canon keys.
        let spec = ScenarioSpec {
            app: App::SocialNetwork,
            cart_threads: Some(5),
            ..base()
        };
        assert!(matches!(
            spec.validate().unwrap_err(),
            ScenarioError::InvalidValue { field, .. } if field == "cart_threads"
        ));
        let spec = ScenarioSpec {
            home_timeline_conns: Some(10),
            ..base()
        };
        assert!(matches!(
            spec.validate().unwrap_err(),
            ScenarioError::InvalidValue { field, .. } if field == "home_timeline_conns"
        ));
        let spec = ScenarioSpec {
            drift_at_secs: Some(10),
            ..base()
        };
        assert!(matches!(
            spec.validate().unwrap_err(),
            ScenarioError::InvalidValue { field, .. } if field == "drift_at_secs"
        ));
        let spec = ScenarioSpec {
            services: Some(50),
            ..base()
        };
        assert!(matches!(
            spec.validate().unwrap_err(),
            ScenarioError::InvalidValue { field, .. } if field == "services"
        ));
        // The inverted-window diagnosis still wins over the mismatch one.
        let spec = ScenarioSpec {
            drift_at_secs: Some(30),
            duration_secs: 30,
            ..base()
        };
        assert!(matches!(
            spec.validate().unwrap_err(),
            ScenarioError::InvertedWindow { .. }
        ));
    }

    #[test]
    fn fault_specs_are_gated_by_the_schedule_validator() {
        // Service index out of range.
        let spec = ScenarioSpec {
            faults: vec![FaultSpec::Crash {
                service: 12,
                at_ms: 1_000,
                restart_after_ms: None,
            }],
            ..base()
        };
        let err = spec.validate().unwrap_err();
        assert!(
            err.to_string().contains("out of range"),
            "unexpected: {err}"
        );
        // Network faults without a network would be silently ignored.
        let spec = ScenarioSpec {
            faults: vec![FaultSpec::Partition {
                a: 0,
                b: 1,
                at_ms: 1_000,
                duration_ms: 1_000,
            }],
            ..base()
        };
        assert!(spec.validate().unwrap_err().to_string().contains("net"));
        // Windows straddling the horizon flow through validate_within.
        let spec = ScenarioSpec {
            duration_secs: 30,
            faults: vec![FaultSpec::Crash {
                service: 1,
                at_ms: 29_000,
                restart_after_ms: Some(5_000),
            }],
            ..base()
        };
        assert!(
            spec.validate().unwrap_err().to_string().contains("horizon"),
            "straddling crash restart must be rejected"
        );
        // Overlapping blackout windows flow through validate too.
        let spec = ScenarioSpec {
            faults: vec![
                FaultSpec::TelemetryBlackout {
                    at_ms: 1_000,
                    duration_ms: 5_000,
                    lag: false,
                },
                FaultSpec::TelemetryBlackout {
                    at_ms: 4_000,
                    duration_ms: 2_000,
                    lag: true,
                },
            ],
            ..base()
        };
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("overlapping"));
        // net + shards compose, but only over a network with edge latency:
        // its lookahead is the shard tally's window width, and a zero
        // width would fail `enable_sharding` inside `build`.
        let with_latency = |latency_us| ScenarioSpec {
            net: Some(NetSpec {
                latency_us,
                loss: None,
                duplicate: None,
                call_timeout_ms: None,
                max_call_retries: None,
            }),
            shards: Some(2),
            ..base()
        };
        for latency_us in [None, Some(0)] {
            assert!(matches!(
                with_latency(latency_us).validate().unwrap_err(),
                ScenarioError::InvalidValue { field, .. } if field == "net.latency_us"
            ));
        }
        with_latency(Some(100))
            .validate()
            .expect("net with latency + shards is valid");
    }

    #[test]
    fn generated_app_runs_and_respects_drift() {
        let spec = ScenarioSpec {
            app: App::Generated,
            services: Some(24),
            topo_seed: Some(7),
            max_users: 60.0,
            duration_secs: 20,
            drift_at_secs: Some(10),
            ..base()
        };
        spec.validate().expect("valid generated spec");
        let outcome = spec.run();
        assert!(outcome.summary.completed > 100, "{:?}", outcome.summary);
        // The focus service sits in the conn tier (layer depth-2).
        let widths = topo::layer_widths(24, 5);
        let first_conn: usize = widths[..3].iter().sum();
        assert_eq!(spec.focus(), ServiceId(first_conn as u32));
        // Missing `services` is rejected before it can panic the builder.
        let spec = ScenarioSpec {
            app: App::Generated,
            services: None,
            ..base()
        };
        assert!(matches!(
            spec.validate().unwrap_err(),
            ScenarioError::InvalidValue { field, .. } if field == "services"
        ));
    }

    #[test]
    fn faulted_and_retried_spec_runs_and_logs_faults() {
        let spec = ScenarioSpec {
            duration_secs: 20,
            retry: Some(RetrySpec {
                max_retries: Some(2),
                base_backoff_ms: Some(50),
                max_backoff_ms: None,
                jitter_frac: None,
                budget_ratio: None,
                budget_cap: None,
            }),
            faults: vec![FaultSpec::Crash {
                service: 1,
                at_ms: 5_000,
                restart_after_ms: Some(2_000),
            }],
            ..base()
        };
        spec.validate().expect("valid faulted spec");
        let outcome = spec.run();
        assert!(outcome.summary.completed > 500);
        assert!(
            outcome
                .world
                .fault_log()
                .iter()
                .any(|(_, m)| m.contains("crash")),
            "fault log records the crash: {:?}",
            outcome.world.fault_log()
        );
    }

    #[test]
    fn networked_spec_runs() {
        let spec = ScenarioSpec {
            duration_secs: 10,
            net: Some(NetSpec {
                latency_us: Some(150),
                loss: Some(0.001),
                duplicate: Some(0.01),
                call_timeout_ms: None,
                max_call_retries: None,
            }),
            ..base()
        };
        spec.validate().expect("valid networked spec");
        let outcome = spec.run();
        assert!(outcome.summary.completed > 200);
        assert!(outcome.world.network_stats().is_some());
    }

    #[test]
    fn sharded_scenario_is_shard_count_invariant() {
        // Any shard count reproduces the unsharded result payload byte for
        // byte; a shard count above the app's service count clamps
        // instead of failing.
        let run_text = |shards: Option<usize>| {
            let spec = ScenarioSpec {
                shards,
                duration_secs: 10,
                ..base()
            };
            spec.validate().expect("valid spec");
            scenario_result_text(&base(), &spec.run())
        };
        let unsharded = run_text(None);
        for shards in [1, 2, 64] {
            assert_eq!(unsharded, run_text(Some(shards)), "shards={shards}");
        }
    }
}
