//! Memory per replica and per request: building a world allocates no
//! per-replica telemetry buffers, only the replicas of monitored services
//! carry samplers, a windowed read of a replica's samplers allocates
//! nothing beyond its answer, stored traces hold no spare slots, and a
//! steady request allocates its frame arena and one call vector per
//! calling frame.
//!
//! A counting global allocator (through `sim_core::allocmeter`, as the
//! `scale` bench installs it) measures what `ScenarioSpec::build` of a
//! 500-service generated world allocates, what windowed reads of the
//! replicas' samplers allocate after two simulated seconds of traffic, and
//! what Sock Shop and Social Network worlds allocate per request.

use apps::ScenarioStepper;
use microsim::World;
use sim_core::allocmeter::{self, AllocStats, Scope};
use sim_core::{SimDuration, SimTime};
use sora_bench::{BuiltScenario, Hardware, ScenarioSpec, SoftAdaptation};
use sora_core::Controller;
use std::alloc::{GlobalAlloc, Layout, System};
use telemetry::{ReplicaId, ServiceId, Trace};

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
    let (world, ..) = run_spec(&spec, secs);
    (spec, world)
}

/// `spec`'s world after `secs` simulated seconds, with its stepper and
/// controller to go on.
fn run_spec(spec: &ScenarioSpec, secs: u64) -> (World, ScenarioStepper, Box<dyn Controller>) {
    let BuiltScenario {
        mut world,
        scenario,
        mut controller,
    } = spec.build();
    let mut stepper = scenario.into_stepper();
    stepper.step_until(&mut world, controller.as_mut(), SimTime::from_secs(secs));
    (world, stepper, controller)
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

/// The perf ledger's `flagship` workload: Sock Shop under FIRM + Sora.
/// Every request is a Cart request of three spans, two of which call.
const FLAGSHIP: &str = r#"{
    "app": "sock_shop", "trace": "SteepTriPhase", "max_users": 3500.0,
    "duration_secs": 720, "sla_ms": 400, "hardware": "firm", "soft": "sora",
    "seed": 42, "cart_threads": 5, "cart_cores": 2
}"#;

/// The perf ledger's `drift` workload: Social Network, whose home-timeline
/// frames issue calls from several stages.
const DRIFT: &str = r#"{
    "app": "social_network", "trace": "LargeVariation", "max_users": 4500.0,
    "duration_secs": 90, "sla_ms": 400, "hardware": "hpa", "soft": "sora",
    "seed": 77, "drift_at_secs": 56
}"#;

#[test]
fn stored_traces_carry_no_spare_slots() {
    let (world, ..) = run_spec(&ScenarioSpec::parse(FLAGSHIP).expect("valid spec"), 20);
    assert!(
        world.warehouse().len() > 500,
        "{} traces",
        world.warehouse().len()
    );
    for trace in world.warehouse().iter() {
        assert_eq!(
            trace.spans.capacity(),
            trace.spans.len(),
            "{}",
            trace.request
        );
        for span in &trace.spans {
            assert_eq!(span.children.capacity(), span.children.len(), "{}", span.id);
        }
    }
}

/// Allocations of a steady request: its frame arena, grown one frame at a
/// time from `Vec`'s smallest capacity of 4 (one allocation up to 4
/// frames, two up to 8, three up to 16), and one call vector per frame
/// that calls, sized once for all of its call stages.
fn arena_and_call_vectors(trace: &Trace) -> u64 {
    let (mut capacity, mut arena) = (4, 1);
    while capacity < trace.spans.len() {
        capacity *= 2;
        arena += 1;
    }
    let calling = trace
        .spans
        .iter()
        .filter(|s| !s.children.is_empty())
        .count();
    (arena + calling) as u64
}

/// Counts the allocations of `spec`'s world with no controller over
/// `[warm, end)` simulated seconds, and checks them against a ceiling
/// built from the traces the warehouse stored in that window (1 in 10,
/// so an unbiased sample of the requests):
///
/// - each completed request, [`arena_and_call_vectors`] of the sample's
///   mean;
/// - each stored trace, one span vector: it leaves the spare pool for the
///   180 s trace horizon, which the window ends before;
/// - 1 % for the whole-run logs (the client's outcomes, the focus's
///   samplers, the stepper's timeline), which grow by doubling.
///
/// Returns allocations per completed request.
fn allocations_per_request(spec: &str, warm: u64, end: u64) -> f64 {
    let null_stack = ScenarioSpec {
        hardware: Hardware::None,
        soft: SoftAdaptation::None,
        ..ScenarioSpec::parse(spec).expect("valid spec")
    };
    let (mut world, mut stepper, mut controller) = run_spec(&null_stack, warm);
    let completed_before = world.client().total();
    let scope = Scope::begin();
    stepper.step_until(&mut world, controller.as_mut(), SimTime::from_secs(end));
    let allocs = scope.finish().count;
    let completed = world.client().total() - completed_before;

    let (from, to) = (SimTime::from_secs(warm), SimTime::from_secs(end));
    let sample: Vec<u64> = world
        .warehouse()
        .iter_window(from, to)
        .map(arena_and_call_vectors)
        .collect();
    assert!(sample.len() > 500, "{} stored traces", sample.len());
    let per_request = sample.iter().sum::<u64>() as f64 / sample.len() as f64;
    let ceiling = (completed as f64 * per_request + sample.len() as f64) * 1.01;
    let measured = allocs as f64 / completed as f64;
    assert!(
        allocs as f64 <= ceiling,
        "{allocs} allocations for {completed} requests ({measured:.3} each) exceed the \
         ceiling of {:.3}: {per_request:.3} per request plus one span vector for each \
         of {} stored traces, plus 1 %",
        ceiling / completed as f64,
        sample.len()
    );
    measured
}

#[test]
fn a_steady_request_allocates_its_arena_and_a_call_vector_per_calling_frame() {
    // Sock Shop's Cart request: 3 frames in one arena allocation, and the
    // front end and the Cart call, so 3 + 0.1 span vectors = 3.1 (3.10
    // measured).
    let sock_shop = allocations_per_request(FLAGSHIP, 20, 40);
    assert!(sock_shop < 3.2, "{sock_shop}");
    // Social Network's light home-timeline read before the drift: 10
    // frames in three arena allocations and 4 calling frames, so 7.1
    // (7.10 measured). Sizing call vectors per call stage instead of per
    // frame reads about 12.
    let social = allocations_per_request(DRIFT, 10, 25);
    assert!(social < 7.2, "{social}");
}
