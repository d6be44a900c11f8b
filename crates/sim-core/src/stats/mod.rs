//! Streaming statistics used by the telemetry pipeline and the experiment
//! harness: online mean/variance, latency histograms with percentile
//! queries, Pearson correlation, forecast-error metrics and time-bucketed
//! series accumulation.

mod correlation;
mod error;
mod histogram;
mod streaming;
mod timeseries;

pub use correlation::pearson;
pub use error::{mape, rmse};
pub use histogram::LatencyHistogram;
pub use streaming::OnlineStats;
pub use timeseries::{BucketSeries, BucketStat};
