//! Streaming statistics used by the telemetry pipeline and the experiment
//! harness: online mean/variance, latency histograms with percentile
//! queries, Pearson correlation, forecast-error metrics and time-bucketed
//! series accumulation.

mod correlation;
mod error;
mod histogram;
mod quantile;
mod streaming;
mod timeseries;

pub use correlation::pearson;
pub use error::{mae, mape, rmse};
pub use histogram::LatencyHistogram;
pub use quantile::P2Quantile;
pub use streaming::OnlineStats;
pub use timeseries::{BucketSeries, BucketStat};
