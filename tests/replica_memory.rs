//! Per-replica memory: building a world allocates no per-replica telemetry
//! buffers, only the replicas of monitored services carry samplers, and a
//! windowed read of a replica's samplers allocates nothing beyond its
//! answer.
//!
//! A counting global allocator (through `sim_core::allocmeter`, as the
//! `scale` bench installs it) measures what `ScenarioSpec::build` of a
//! 500-service generated world allocates, then what windowed reads of the
//! replicas' samplers allocate after two simulated seconds of traffic.

use microsim::World;
use sim_core::allocmeter::{self, AllocStats, Scope};
use sim_core::{SimDuration, SimTime};
use sora_bench::{BuiltScenario, ScenarioSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use telemetry::{ReplicaId, ServiceId};

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        allocmeter::note_alloc(layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        allocmeter::note_alloc(new_size.saturating_sub(layout.size()) as u64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The perf ledger's `wide` workload: 500 generated services, no
/// controller.
const WIDE: &str = r#"{
    "app": "generated", "trace": "DualPhase", "max_users": 1500.0,
    "duration_secs": 60, "sla_ms": 400, "hardware": "none", "soft": "none",
    "seed": 5, "services": 500
}"#;

#[test]
fn build_allocates_no_telemetry_buffers_and_windowed_reads_allocate_only_their_answer() {
    let spec = ScenarioSpec::parse(WIDE).expect("valid spec");
    let scope = Scope::begin();
    let built = spec.build();
    let build = scope.finish();

    // Measured at 0.89 MB in 5 523 allocations; the 2 MB bound leaves
    // 2.2× headroom, and 4 KB per replica.
    assert!(
        build.bytes < 2_000_000,
        "build allocated {} B in {} allocations",
        build.bytes,
        build.count
    );

    let BuiltScenario {
        mut world,
        scenario,
        mut controller,
    } = built;
    // The spec monitors one service, which has one replica; the reads below
    // need two busy ones.
    for s in 0..world.service_count() as u32 {
        world.monitor(ServiceId(s));
    }
    let mut stepper = scenario.into_stepper();
    let now = SimTime::from_secs(2);
    stepper.step_until(&mut world, controller.as_mut(), now);
    let busy: Vec<ReplicaId> = (0..world.service_count() as u32)
        .flat_map(|s| world.all_replicas(ServiceId(s)).iter().copied())
        .filter(|&pod| world.completions_of(pod).is_some_and(|log| !log.is_empty()))
        .take(2)
        .collect();
    assert_eq!(busy.len(), 2, "two replicas completed requests by {now}");

    let (from, width) = (SimTime::ZERO, SimDuration::from_millis(100));
    // Scratch sized once for the window's 20 buckets, as a controller holds
    // it across periods.
    let (mut qs, mut counts) = (Vec::with_capacity(20), Vec::with_capacity(20));
    for pod in busy {
        let conc = world.concurrency_of(pod).unwrap();
        let log = world.completions_of(pod).unwrap();
        for read in ["first", "second"] {
            let scope = Scope::begin();
            let avgs = conc.bucket_averages(from, now, width);
            let buckets = log.bucket_counts(from, now, width, width);
            let stats = scope.finish();
            assert!(avgs.iter().any(|&q| q > 0.0) && buckets.iter().any(|&(n, _)| n > 0));
            let answers =
                avgs.capacity() * size_of::<f64>() + buckets.capacity() * size_of::<(u64, u64)>();
            assert_eq!(
                (stats.count, stats.bytes),
                (2, answers as u64),
                "{read} reads of {pod:?} allocated more than their {answers} B of answers"
            );

            // Into reused buffers, and the whole-window reads: nothing.
            let scope = Scope::begin();
            conc.bucket_averages_into(from, now, width, &mut qs);
            log.bucket_counts_into(from, now, width, width, &mut counts);
            let q = conc.average_in(from, now);
            let n = log.count_in(from, now) + log.goodput_in(from, now, width);
            let stats = scope.finish();
            assert_eq!((&qs, &counts), (&avgs, &buckets));
            assert!(q > 0.0 && n > 0);
            assert_eq!(
                stats,
                AllocStats::default(),
                "{read} reads of {pod:?} into reused buffers allocated"
            );
        }
    }
}

/// `wide` after `secs` simulated seconds, as its spec builds it.
fn wide_after(secs: u64) -> (ScenarioSpec, World) {
    let spec = ScenarioSpec::parse(WIDE).expect("valid spec");
    let BuiltScenario {
        mut world,
        scenario,
        mut controller,
    } = spec.build();
    let mut stepper = scenario.into_stepper();
    stepper.step_until(&mut world, controller.as_mut(), SimTime::from_secs(secs));
    (spec, world)
}

#[test]
fn only_the_focus_service_records_samplers() {
    let (spec, world) = wide_after(3);
    let focus = spec.focus();
    let mut recorded = 0;
    for s in 0..world.service_count() as u32 {
        let service = ServiceId(s);
        assert_eq!(world.is_monitored(service), service == focus);
        for &pod in world.all_replicas(service) {
            let samplers = (world.concurrency_of(pod), world.completions_of(pod));
            if service == focus {
                assert!(matches!(samplers, (Some(_), Some(_))), "{pod:?}");
                recorded += 1;
            } else {
                assert!(matches!(samplers, (None, None)), "{pod:?} of {service}");
            }
        }
    }
    assert!(recorded > 0, "the focus has replicas");
}

#[test]
fn a_replica_added_to_a_monitored_service_mid_run_gets_samplers() {
    let (spec, mut world) = wide_after(2);
    // Service 0 is an entry service, never the connection-tier focus.
    let (added, unread) = (
        world.add_replica(spec.focus()).unwrap(),
        world.add_replica(ServiceId(0)).unwrap(),
    );
    assert!(world.concurrency_of(added).is_some() && world.completions_of(added).is_some());
    assert!(world.concurrency_of(unread).is_none() && world.completions_of(unread).is_none());
}

#[test]
#[should_panic(expected = "World::monitor")]
fn monitor_after_the_first_event_panics() {
    let (_, mut world) = wide_after(1);
    world.monitor(ServiceId(0));
}
