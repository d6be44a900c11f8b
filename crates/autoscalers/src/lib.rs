//! Baseline hardware-only autoscalers.
//!
//! The paper evaluates Sora as a layer over three hardware-only scaling
//! strategies, all reproduced here against the simulated cluster:
//!
//! * [`HpaController`] — Kubernetes Horizontal Pod Autoscaling: rule-based
//!   replica scaling on CPU utilisation (scale out fast, scale in behind a
//!   stabilisation window);
//! * [`VpaController`] — Kubernetes Vertical Pod Autoscaling: rule-based
//!   per-pod CPU-limit resizing;
//! * [`FirmController`] — a FIRM-style fine-grained manager: critical
//!   service localisation from traces plus per-service vertical CPU
//!   scaling. The original FIRM (OSDI '20) drives this policy with an
//!   SVM + RL pipeline; the paper uses it purely as "the hardware-only
//!   autoscaler that picks the right instance but never touches soft
//!   resources", which is the behaviour this deterministic rendition
//!   preserves (see DESIGN.md, substitution table).
//!
//! None of them adapts thread or connection pools — that gap is precisely
//! what the paper demonstrates (Figs. 1, 10, 12) and what Sora fills.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod firm;
mod hpa;
mod vpa;

pub use firm::FirmController;
pub use hpa::HpaController;
pub use vpa::VpaController;
