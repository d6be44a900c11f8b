//! Workload generation for the Sora reproduction.
//!
//! The paper drives its benchmarks with the RUBBoS workload generator and
//! six real-world bursty workload traces from Gandhi et al. (the paper's
//! reference 17; Table 2:
//! *Large Variation*, *Quick Varying*, *Slowly Varying*, *Big Spike*,
//! *Dual Phase*, *Steep Tri Phase*), each scaled to a maximum number of
//! concurrent users over a 12-minute run.
//!
//! Those traces are characterised publicly by shape, not by raw samples, so
//! this crate encodes each shape as a normalised load curve
//! ([`TraceShape`]) and scales it with [`RateCurve`]. [`UserPool`], a
//! closed-loop RUBBoS-style user pool with think times, turns a curve into
//! arrivals: its population follows the trace curve, and [`RetryPolicy`]
//! governs how its users retry dropped requests.
//!
//! [`Mix`] samples request types by weight, and supports mid-run mix
//! switches (the §5.3 "request type change" state drift).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod closedloop;
mod curve;
mod mix;
mod retry;
mod shapes;

pub use closedloop::{UserAction, UserPool};
pub use curve::RateCurve;
pub use mix::Mix;
pub use retry::{RetryPolicy, RetryStats};
pub use shapes::TraceShape;
