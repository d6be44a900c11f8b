//! Hand-built worlds for the experiments that need something
//! [`ScenarioSpec`] does not carry: the Catalogue
//! path, Catalogue-db pool and core knobs, and a 4-core Post Storage
//! (DESIGN §4 lists each one and why). Every Sock Shop Cart and Social
//! Network read-home-timeline run goes through the spec instead.

use apps::{Scenario, SocialNetwork, SocialNetworkParams, SockShopParams, Watch};
use microsim::{World, WorldConfig};
use sim_core::{Dist, SimDuration, SimRng, SimTime};
use workload::{Mix, RateCurve, TraceShape, UserPool};

use crate::{App, ScenarioSpec};

/// Mean user think time (the RUBBoS emulation): 3 500 users at ~2.5 s think
/// time offer ≈ 1 400 req/s at peak — just inside a 4-core Cart's capacity
/// and nearly double a 2-core Cart's, which is exactly the regime the
/// paper's Figs. 10–11 operate in.
pub const THINK_MS: f64 = 2_500.0;

/// World config for full-length runs: sampled trace warehouse so a
/// 12-minute, ~1 400 req/s run keeps bounded memory (the metrics samplers
/// feeding the SCG model are unaffected by warehouse sampling). Shared with
/// [`ScenarioSpec::build`].
pub(crate) fn run_world_config() -> WorldConfig {
    WorldConfig {
        trace_sample_every: 10,
        ..WorldConfig::default()
    }
}

/// Goodput of the read-home-timeline path for one Home-Timeline →
/// Post Storage pool size under a steady workload (the Figs. 3(e–f) / 9(c)
/// sweep).
pub fn post_storage_goodput(
    conns: usize,
    heavy: bool,
    post_storage_cores: u32,
    users: f64,
    secs: u64,
    threshold: SimDuration,
    seed: u64,
) -> f64 {
    let mut sn = SocialNetwork::build_with_config(
        SocialNetworkParams {
            home_timeline_conns: conns,
            post_storage_cores,
            ..Default::default()
        },
        run_world_config(),
        SimRng::seed_from(seed),
    );
    let curve = RateCurve::new(TraceShape::Steady, users, SimDuration::from_secs(secs));
    let pool = UserPool::new(
        curve,
        Dist::exponential_ms(THINK_MS),
        SimRng::seed_from(seed ^ 0x51ca),
    );
    let rt = if heavy {
        sn.read_home_timeline_heavy
    } else {
        sn.read_home_timeline_light
    };
    let watch = Watch {
        service: sn.post_storage,
        conns: None,
    };
    let scenario = Scenario::new(threshold, pool, Mix::single(rt), watch);
    let mut null = sora_core::NullController;
    let result = scenario.run(&mut sn.world, &mut null);
    let warmup = SimTime::from_secs(secs / 3);
    let _ = result;
    sn.world
        .client()
        .goodput_rate(warmup, SimTime::from_secs(secs), threshold)
}

/// One of the three monitored-service case studies of Figs. 9 / Table 1:
/// which soft resource is generous-then-estimated, which service the SCG
/// model watches, and the calibrated workload that saturates it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitoredCase {
    /// Threads in the 4-core Cart (Fig. 9a), 10 ms threshold.
    CartThreads,
    /// DB connections in Catalogue toward a 2-core Catalogue-db
    /// (Fig. 9b), 10 ms threshold.
    CatalogueConns,
    /// Request connections from Home-Timeline to a 4-core Post Storage
    /// (Fig. 9c), 15 ms threshold.
    PostStorageConns,
}

impl MonitoredCase {
    /// The per-span response-time threshold the model estimates under.
    pub fn threshold(self) -> SimDuration {
        match self {
            MonitoredCase::CartThreads | MonitoredCase::CatalogueConns => {
                SimDuration::from_millis(10)
            }
            MonitoredCase::PostStorageConns => SimDuration::from_millis(15),
        }
    }

    /// The generous allocation used for estimation runs (past the knee).
    pub fn generous_allocation(self) -> usize {
        match self {
            MonitoredCase::CartThreads => 60,
            MonitoredCase::CatalogueConns | MonitoredCase::PostStorageConns => 40,
        }
    }

    /// The monitored service's id in the respective topology.
    pub fn monitored_service(self) -> telemetry::ServiceId {
        match self {
            MonitoredCase::CartThreads => telemetry::ServiceId(1), // cart
            MonitoredCase::CatalogueConns => telemetry::ServiceId(4), // catalogue-db
            MonitoredCase::PostStorageConns => telemetry::ServiceId(2), // post-storage
        }
    }

    /// Runs the case's calibrated steady workload with the soft resource at
    /// `allocation`, returning the final world.
    pub fn run(self, allocation: usize, secs: u64, seed: u64) -> World {
        let world = self.run_inner(allocation, secs, seed);
        #[cfg(feature = "audit")]
        assert_eq!(
            world.audit().total(),
            0,
            "{self:?}/{allocation}: {}",
            world.audit().summary()
        );
        world
    }

    fn run_inner(self, allocation: usize, secs: u64, seed: u64) -> World {
        match self {
            MonitoredCase::CartThreads => {
                let spec = ScenarioSpec {
                    seed,
                    cart_threads: Some(allocation),
                    cart_cores: Some(4),
                    // ρ ≈ 0.85 at the generous allocation: the estimation
                    // run must fluctuate, not sit pinned in overload.
                    ..ScenarioSpec::new(
                        App::SockShop,
                        TraceShape::Steady,
                        2_600.0,
                        secs,
                        self.threshold().as_millis(),
                    )
                };
                spec.run().world
            }
            MonitoredCase::CatalogueConns => {
                let mut shop = apps::SockShop::build_with_config(
                    SockShopParams {
                        catalogue_db_conns: allocation,
                        catalogue_db_cores: 2,
                        ..Default::default()
                    },
                    run_world_config(),
                    SimRng::seed_from(seed),
                );
                let curve =
                    RateCurve::new(TraceShape::Steady, 1_600.0, SimDuration::from_secs(secs));
                let pool = UserPool::new(
                    curve,
                    Dist::exponential_ms(THINK_MS),
                    SimRng::seed_from(seed ^ 0x77),
                );
                let scenario = apps::Scenario::new(
                    SimDuration::from_millis(400),
                    pool,
                    Mix::single(shop.get_catalogue),
                    Watch {
                        service: shop.catalogue,
                        conns: None,
                    },
                );
                let mut null = sora_core::NullController;
                let _ = scenario.run(&mut shop.world, &mut null);
                shop.world
            }
            MonitoredCase::PostStorageConns => {
                let mut sn = SocialNetwork::build_with_config(
                    SocialNetworkParams {
                        home_timeline_conns: allocation,
                        post_storage_cores: 4,
                        ..Default::default()
                    },
                    run_world_config(),
                    SimRng::seed_from(seed),
                );
                let curve =
                    RateCurve::new(TraceShape::Steady, 4_200.0, SimDuration::from_secs(secs));
                let pool = UserPool::new(
                    curve,
                    Dist::exponential_ms(THINK_MS),
                    SimRng::seed_from(seed ^ 0x77),
                );
                let scenario = apps::Scenario::new(
                    SimDuration::from_millis(400),
                    pool,
                    Mix::single(sn.read_home_timeline_light),
                    Watch {
                        service: sn.post_storage,
                        conns: None,
                    },
                );
                let mut null = sora_core::NullController;
                let _ = scenario.run(&mut sn.world, &mut null);
                sn.world
            }
        }
    }

    /// Monitored-service goodput (completions within the case threshold per
    /// second, summed over replicas) over `[from, to)` — the objective the
    /// SCG estimate optimises, used by the validation sweeps.
    pub fn monitored_goodput(self, world: &World, from: SimTime, to: SimTime) -> f64 {
        let svc = self.monitored_service();
        let mut n = 0u64;
        for pod in world.ready_replicas(svc) {
            if let Some(log) = world.completions_of(pod) {
                n += log.goodput_in(from, to, self.threshold());
            }
        }
        n as f64 / (to - from).as_secs_f64()
    }

    /// The SCG scatter of the monitored service over `[from, to)` at the
    /// given sampling interval.
    pub fn scatter(
        self,
        world: &World,
        from: SimTime,
        to: SimTime,
        interval: SimDuration,
    ) -> Vec<telemetry::ScatterPoint> {
        let svc = self.monitored_service();
        let mut pts = Vec::new();
        for pod in world.ready_replicas(svc) {
            if let (Some(conc), Some(comp)) = (world.concurrency_of(pod), world.completions_of(pod))
            {
                pts.extend(telemetry::build_scatter(
                    conc,
                    comp,
                    from,
                    to,
                    interval,
                    self.threshold(),
                ));
            }
        }
        pts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_run_switches_request_type() {
        let spec = ScenarioSpec {
            seed: 77,
            drift_at_secs: Some(15),
            ..ScenarioSpec::new(App::SocialNetwork, TraceShape::Steady, 300.0, 30, 400)
        };
        let outcome = spec.run();
        assert!(outcome.summary.completed > 1_000);
        // Heavy phase raises mean RT visibly.
        let rt = &outcome.result.rt_timeline;
        let early: f64 = rt[3..12].iter().map(|p| p.1).sum::<f64>() / 9.0;
        let late: f64 = rt[20..28].iter().map(|p| p.1).sum::<f64>() / 8.0;
        assert!(late > early, "drift raises RT: {early:.1} → {late:.1}");
    }
}
