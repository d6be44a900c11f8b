//! Per-replica build memory: a replica's telemetry rings are built on its
//! first windowed read, not when the replica is created.
//!
//! A counting global allocator (through `sim_core::allocmeter`, as the
//! `scale` bench installs it) measures what `ScenarioSpec::build` of a
//! 500-service generated world allocates, then what one read of one
//! replica allocates.

use microsim::WorldConfig;
use sim_core::allocmeter::{self, AllocStats, Scope};
use sim_core::{SimDuration, SimTime};
use sora_bench::ScenarioSpec;
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

/// Bytes one ring allocates: one 8-byte slot per 10 ms of the 180 s
/// `metrics_horizon`, plus 2 slots of slack (144 016 B).
fn ring_bytes() -> u64 {
    (WorldConfig::default().metrics_horizon.as_nanos() / 10_000_000 + 2) * 8
}

#[test]
fn build_allocates_no_telemetry_rings_and_a_read_builds_one_replicas() {
    let spec = ScenarioSpec::parse(WIDE).expect("valid spec");
    let scope = Scope::begin();
    let built = spec.build();
    let build = scope.finish();
    let world = &built.world;
    let replicas: Vec<ReplicaId> = (0..world.service_count() as u32)
        .flat_map(|s| world.all_replicas(ServiceId(s)).iter().copied())
        .collect();
    assert!(replicas.len() >= 500, "{} replicas", replicas.len());

    // Measured at 0.89 MB in 5 523 allocations; the 2 MB bound leaves
    // 2.2× headroom, and 4 KB per replica. Two rings built with every
    // replica would add 500 × 288 KB = 144 MB.
    assert!(
        build.bytes < 2_000_000,
        "build allocated {} B in {} allocations",
        build.bytes,
        build.count
    );

    // One windowed read of one replica builds that replica's ring and no
    // other: its allocations are one ring plus the 10-bucket answer.
    let ring = ring_bytes();
    let (from, to, width) = (
        SimTime::ZERO,
        SimTime::from_secs(1),
        SimDuration::from_millis(100),
    );
    let averages = |pod: ReplicaId| {
        let scope = Scope::begin();
        let avgs = world
            .concurrency_of(pod)
            .unwrap()
            .bucket_averages(from, to, width);
        assert_eq!(avgs, vec![0.0; 10]);
        scope.finish()
    };
    let counts = |pod: ReplicaId| {
        let scope = Scope::begin();
        let counts = world
            .completions_of(pod)
            .unwrap()
            .bucket_counts(from, to, width, width);
        assert_eq!(counts, vec![(0, 0); 10]);
        scope.finish()
    };
    let reads: [&dyn Fn(ReplicaId) -> AllocStats; 2] = [&averages, &counts];
    for read in reads {
        let first = read(replicas[0]);
        assert!(
            (ring..ring + 1_000).contains(&first.bytes),
            "first read: {first:?}, ring {ring} B"
        );
        let again = read(replicas[0]);
        assert!(
            again.bytes < 1_000,
            "second read rebuilt the ring: {again:?}"
        );
        let other = read(replicas[1]);
        assert!(
            (ring..ring + 1_000).contains(&other.bytes),
            "another replica's ring was built by the first read: {other:?}"
        );
    }
}
