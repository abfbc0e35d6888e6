//! Acceptance tests for the trend-detecting stride prefetcher.
//!
//! Four properties anchor the feature:
//!
//! * **Inertness** — `Stride` with `max_depth = 0` (or no trend) is the
//!   policy's off switch: byte-identical stats, clock, and telemetry to
//!   `PrefetchPolicy::None` on both the call-return path and the deep
//!   pipeline, for several seeds.
//! * **Equivalence** — with the policy *active*, the depth-1 pipeline
//!   still reproduces the call-return path exactly: speculation is
//!   staged work, not a second implementation.
//! * **Safety** — store failures on speculative reads degrade (counted,
//!   never panicking, never losing data), and a chaotic transport under
//!   pipelined prefetch keeps every page's last-written contents and
//!   balanced shadow accounting.
//! * **Restraint** — speculation never churns the LRU: a buffer at
//!   capacity gets zero issued prefetches and exactly one eviction per
//!   demand load, with the suppression counters saying why.

use fluidmem::coord::PartitionId;
use fluidmem::core::{
    FluidMemMemory, MonitorConfig, Optimizations, PipelineSubmit, PrefetchPolicy,
};
use fluidmem::kv::{FaultInjectingStore, RamCloudStore};
use fluidmem::mem::{AccessOutcome, MemoryBackend, PageClass, PageContents};
use fluidmem::sim::{FaultEvent, FaultKind, FaultPlan, SimClock, SimDuration, SimInstant, SimRng};
use fluidmem::telemetry::Telemetry;

const SEEDS: [u64; 4] = [3, 17, 271, 65_537];

/// The guest pid `FluidMemMemory::do_access` raises faults from; the
/// depth-1 pipelined run must use the same identity for byte-identical
/// traces.
const BACKEND_PID: u64 = 4242;

/// Pages in the test region. Strided bursts below stay inside it.
const REGION_PAGES: u64 = 224;

fn traced_vm(
    seed: u64,
    capacity: u64,
    policy: PrefetchPolicy,
    depth: usize,
) -> (Telemetry, FluidMemMemory) {
    let clock = SimClock::new();
    let store = RamCloudStore::new(1 << 28, clock.clone(), SimRng::seed_from_u64(seed ^ 0x4B56));
    let mut vm = FluidMemMemory::new(
        MonitorConfig::new(capacity)
            .optimizations(Optimizations::full())
            .prefetch(policy)
            .inflight(depth),
        Box::new(store),
        PartitionId::new(0),
        clock.clone(),
        SimRng::seed_from_u64(seed),
    );
    let telemetry = Telemetry::new(clock);
    telemetry.enable_spans();
    vm.attach_telemetry(&telemetry);
    (telemetry, vm)
}

/// Strided bursts (the detector's food) interleaved with random
/// scatter (what makes it decay): the schedule walks every policy
/// branch — detect, hold, decay, re-detect.
fn schedule(seed: u64) -> Vec<(u64, bool)> {
    let mut rng = SimRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
    let mut ops = Vec::new();
    for _ in 0..12 {
        let start = rng.gen_index(128);
        let stride = 1 + rng.gen_index(3);
        for k in 0..24 {
            ops.push((start + k * stride, rng.gen_bool(0.3)));
        }
        for _ in 0..12 {
            ops.push((rng.gen_index(REGION_PAGES), rng.gen_bool(0.5)));
        }
    }
    ops
}

type RunFingerprint = (fluidmem::core::MonitorStats, SimInstant, String, String);

fn fingerprint(telemetry: &Telemetry, vm: &FluidMemMemory) -> RunFingerprint {
    (
        vm.monitor().stats(),
        vm.clock().now(),
        telemetry.export_prometheus(),
        telemetry.export_chrome_trace(),
    )
}

fn run_call_return(seed: u64, policy: PrefetchPolicy) -> RunFingerprint {
    let (telemetry, mut vm) = traced_vm(seed, 48, policy, 1);
    let region = vm.map_region(REGION_PAGES, PageClass::Anonymous);
    for (page, write) in schedule(seed) {
        vm.access(region.page(page), write);
    }
    vm.drain_writes();
    fingerprint(&telemetry, &vm)
}

fn run_pipelined(seed: u64, policy: PrefetchPolicy, depth: usize) -> RunFingerprint {
    let (telemetry, mut vm) = traced_vm(seed, 48, policy, depth);
    let region = vm.map_region(REGION_PAGES, PageClass::Anonymous);
    for (i, (page, write)) in schedule(seed).into_iter().enumerate() {
        if let PipelineSubmit::Pending(_) =
            vm.submit_access(9_000 + i as u64, region.page(page), write)
        {
            if vm.inflight_len() >= depth {
                vm.complete_next_access();
            }
        }
    }
    while vm.complete_next_access().is_some() {}
    vm.drain_writes();
    fingerprint(&telemetry, &vm)
}

/// `Stride { max_depth: 0 }` is the off switch: the detector may watch
/// the fault stream, but the run must be byte-identical to
/// `PrefetchPolicy::None` — stats, virtual clock, Prometheus text, and
/// Chrome trace — on the call-return path and the depth-8 pipeline.
#[test]
fn disabled_stride_is_byte_identical_to_none_across_seeds() {
    let off = PrefetchPolicy::Stride {
        window: 16,
        max_depth: 0,
    };
    for &seed in &SEEDS {
        let none = run_call_return(seed, PrefetchPolicy::None);
        let disabled = run_call_return(seed, off);
        assert_eq!(none, disabled, "seed {seed}: call-return run diverged");
        let none = run_pipelined(seed, PrefetchPolicy::None, 8);
        let disabled = run_pipelined(seed, off, 8);
        assert_eq!(none, disabled, "seed {seed}: depth-8 run diverged");
    }
}

/// A run with the policy *active*: warm the region through a small
/// buffer, grow capacity so the gates open, then replay the strided
/// schedule either through `access` or the depth-1 pipeline.
fn stride_active_run(seed: u64, pipelined: bool) -> RunFingerprint {
    let policy = PrefetchPolicy::Stride {
        window: 4,
        max_depth: 4,
    };
    let (telemetry, mut vm) = traced_vm(seed, 32, policy, 1);
    let region = vm.map_region(REGION_PAGES, PageClass::Anonymous);
    for p in 0..REGION_PAGES {
        vm.write_page(region.page(p), PageContents::Token(p * 13 + 5));
    }
    vm.drain_writes();
    vm.set_local_capacity(256).unwrap();
    for (page, write) in schedule(seed) {
        if pipelined {
            match vm.submit_access(BACKEND_PID, region.page(page), write) {
                PipelineSubmit::Ready(_) => {}
                PipelineSubmit::Pending(_) => {
                    vm.complete_next_access().expect("one fault is in flight");
                }
            }
        } else {
            vm.access(region.page(page), write);
        }
    }
    vm.drain_writes();
    fingerprint(&telemetry, &vm)
}

/// With speculation actually issuing, depth-1 pipelined execution is
/// still byte-identical to the call-return path.
#[test]
fn active_stride_depth_one_pipeline_matches_call_return() {
    for &seed in &SEEDS {
        let sync = stride_active_run(seed, false);
        let pipe = stride_active_run(seed, true);
        assert!(
            sync.0.prefetch_issued > 0,
            "seed {seed}: the equivalence is vacuous unless prefetch issues: {:?}",
            sync.0
        );
        assert_eq!(sync, pipe, "seed {seed}: runs diverged");
    }
}

/// Drop + timeout + transient-refusal mix on the store transport.
fn chaotic_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(SimRng::seed_from_u64(seed ^ 0xFA_17))
        .with_drop(0.08)
        .with_timeout(0.06)
        .with_transient_error(0.06)
}

/// Chaos: injected transport faults land on demand *and* speculative
/// reads while several of each are in flight. Speculation must not lose
/// or corrupt anything, and the working-set shadow accounting must
/// still balance (every prefetch-installed page is forgotten, not
/// leaked).
#[test]
fn chaotic_store_with_pipelined_prefetch_loses_nothing() {
    for &seed in &SEEDS {
        let clock = SimClock::new();
        let inner = RamCloudStore::new(1 << 26, clock.clone(), SimRng::seed_from_u64(seed));
        let store = FaultInjectingStore::new(Box::new(inner), chaotic_plan(seed), clock.clone());
        let mut vm = FluidMemMemory::new(
            MonitorConfig::new(24)
                .inflight(4)
                .prefetch(PrefetchPolicy::Stride {
                    window: 4,
                    max_depth: 4,
                })
                .optimizations(Optimizations::full()),
            Box::new(store),
            PartitionId::new(0),
            clock,
            SimRng::seed_from_u64(seed + 1),
        );
        let pages = 96u64;
        let region = vm.map_region(pages, PageClass::Anonymous);
        let token = |p: u64| PageContents::Token(p * 31 + 7);
        for p in 0..pages {
            vm.write_page(region.page(p), token(p));
        }
        vm.drain_writes();
        // Headroom for speculation: the whole set fits from here on.
        vm.set_local_capacity(128).unwrap();

        // Sequential read-back in waves of four pipelined faults — the
        // detector locks onto stride 1 and speculates ahead of the
        // waves over the faulty transport.
        for wave in 0..pages / 4 {
            for i in 0..4 {
                let p = wave * 4 + i;
                let _ = vm.submit_access(9_000 + p, region.page(p), false);
            }
            while vm.complete_next_access().is_some() {}
        }

        let stats = vm.monitor().stats();
        assert!(
            stats.prefetch_issued > 0,
            "seed {seed}: chaos must run with live speculation: {stats:?}"
        );
        assert!(
            stats.prefetch_hits > 0,
            "seed {seed}: the sequential walk must absorb some flights: {stats:?}"
        );
        assert_eq!(stats.lost_pages, 0, "seed {seed}: faults are not data loss");
        for p in 0..pages {
            let (contents, _) = vm.read_page(region.page(p));
            assert_eq!(
                contents,
                token(p),
                "seed {seed}: page {p} lost or corrupted under chaotic prefetch"
            );
        }
        assert!(
            vm.monitor().workingset().accounting_balances(),
            "seed {seed}: shadow accounting out of balance"
        );
        vm.drain_writes();
        assert_eq!(vm.monitor().pending_writes(), 0, "seed {seed}");
    }
}

/// A *non-retryable* store error on a speculative read must be dropped
/// and counted, never panicked on — the page is exactly where it was,
/// and the demand path still serves it (bugfix: `maybe_prefetch` used
/// to unwrap the store result like the demand path does).
#[test]
fn fatal_store_error_on_a_prefetch_read_degrades_instead_of_panicking() {
    let clock = SimClock::new();
    let inner = RamCloudStore::new(1 << 26, clock.clone(), SimRng::seed_from_u64(7));
    // Op 0 is the drain's single multi-write (the long flush interval
    // and huge batch keep the flusher quiet before it), op 1 the demand
    // read of page 0; the first speculative read is op 2 — poison
    // exactly that one.
    let plan = FaultPlan::new(SimRng::seed_from_u64(0)).script(FaultEvent {
        at_op: 2,
        kind: FaultKind::Fatal,
    });
    let store = FaultInjectingStore::new(Box::new(inner), plan, clock.clone());
    let mut config = MonitorConfig::new(16)
        .write_batch(1000)
        .prefetch(PrefetchPolicy::Sequential { window: 4 })
        .optimizations(Optimizations::full());
    config.flush_interval = SimDuration::from_secs(1);
    let mut vm = FluidMemMemory::new(
        config,
        Box::new(store),
        PartitionId::new(0),
        clock,
        SimRng::seed_from_u64(9),
    );
    let region = vm.map_region(64, PageClass::Anonymous);
    let token = |p: u64| PageContents::Token(p * 17 + 3);
    for p in 0..64 {
        vm.write_page(region.page(p), token(p));
    }
    vm.drain_writes();
    vm.set_local_capacity(48).unwrap();

    // Refault page 0: the demand read succeeds, the prefetch of page 1
    // hits the scripted fatal error and is dropped; pages 2..=4 land.
    let (contents, _) = vm.read_page(region.page(0));
    assert_eq!(contents, token(0));
    let stats = vm.monitor().stats();
    assert_eq!(stats.prefetch_fatal_errors, 1, "{stats:?}");
    assert_eq!(
        stats.prefetched_pages, 3,
        "pages 2..=4 still land: {stats:?}"
    );

    // The dropped page is exactly where it was: the demand path pays a
    // full fault and gets the last-written contents.
    let (contents, report) = vm.read_page(region.page(1));
    assert_eq!(contents, token(1));
    assert_eq!(report.outcome, AccessOutcome::MajorFault);
}

/// Regression for the capacity-churn bug: a buffer with zero headroom
/// gets *no* speculation — zero issued reads, exactly one eviction per
/// demand load — and the suppression counters say why. (The old code
/// issued into the full buffer and let `evict_to_capacity` churn warm
/// pages back out.)
#[test]
fn prefetch_at_capacity_issues_nothing_and_churns_nothing() {
    let clock = SimClock::new();
    let store = RamCloudStore::new(1 << 26, clock.clone(), SimRng::seed_from_u64(5));
    let mut vm = FluidMemMemory::new(
        MonitorConfig::new(16)
            .prefetch(PrefetchPolicy::Stride {
                window: 4,
                max_depth: 4,
            })
            .optimizations(Optimizations::full()),
        Box::new(store),
        PartitionId::new(0),
        clock,
        SimRng::seed_from_u64(6),
    );
    let region = vm.map_region(64, PageClass::Anonymous);
    for p in 0..64 {
        vm.write_page(region.page(p), PageContents::Token(p));
    }
    vm.drain_writes();
    let before = vm.monitor().stats();
    assert_eq!(before.evictions, 48, "population spills all but capacity");

    // Strided refaults with the buffer exactly full.
    let refaults = 12u64;
    for k in 0..refaults {
        let _ = vm.read_page(region.page(k * 2));
    }

    let after = vm.monitor().stats();
    assert_eq!(after.prefetch_issued, 0, "{after:?}");
    assert_eq!(after.prefetched_pages, 0, "{after:?}");
    assert_eq!(
        after.evictions - before.evictions,
        refaults,
        "exactly one eviction per demand load — zero speculative churn: {after:?}"
    );
    assert_eq!(
        after.prefetch_suppressed_thrash + after.prefetch_suppressed_headroom,
        refaults,
        "every suppressed round is accounted: {after:?}"
    );
    assert_eq!(vm.monitor().resident_pages(), 16);
}

/// The headroom gate releases as soon as capacity grows: the same VM
/// that was suppressed at zero headroom speculates normally after a
/// resize up.
#[test]
fn headroom_gate_suppresses_until_capacity_grows() {
    let clock = SimClock::new();
    let store = RamCloudStore::new(1 << 26, clock.clone(), SimRng::seed_from_u64(13));
    let mut vm = FluidMemMemory::new(
        MonitorConfig::new(16)
            .prefetch(PrefetchPolicy::Stride {
                window: 4,
                max_depth: 4,
            })
            .optimizations(Optimizations::full()),
        Box::new(store),
        PartitionId::new(0),
        clock,
        SimRng::seed_from_u64(14),
    );
    let region = vm.map_region(24, PageClass::Anonymous);
    // Spill only the first three pages, then open a sliver of headroom
    // (2 < depth 4). The WSS estimate is resident + refault distance,
    // so the tiny distance keeps it under capacity and the headroom
    // gate is the only one in play.
    for p in 0..19 {
        vm.write_page(region.page(p), PageContents::Token(p));
    }
    vm.drain_writes();
    vm.set_local_capacity(18).unwrap();

    let _ = vm.read_page(region.page(2));
    let mid = vm.monitor().stats();
    assert_eq!(mid.prefetch_issued, 0, "{mid:?}");
    assert!(mid.prefetch_suppressed_headroom >= 1, "{mid:?}");
    assert_eq!(mid.prefetch_suppressed_thrash, 0, "{mid:?}");

    vm.set_local_capacity(32).unwrap();
    let _ = vm.read_page(region.page(0));
    let after = vm.monitor().stats();
    assert!(after.prefetch_issued > 0, "{after:?}");
    assert!(after.prefetched_pages > 0, "{after:?}");
}

/// Regression for stale installs from call-return faults on a pipelined
/// monitor: a demand fault on a page whose speculative read is parked
/// adopts that read. It used to issue a duplicate demand read and leave
/// the speculative one parked, and a later poll landed the read's
/// issue-time snapshot over data the guest had written since.
#[test]
fn call_return_fault_adopts_parked_read_instead_of_installing_stale_data() {
    let clock = SimClock::new();
    let store = RamCloudStore::new(1 << 26, clock.clone(), SimRng::seed_from_u64(21));
    let mut vm = FluidMemMemory::new(
        MonitorConfig::new(1024)
            .prefetch(PrefetchPolicy::Stride {
                window: 16,
                max_depth: 8,
            })
            .optimizations(Optimizations::full())
            .inflight(8),
        Box::new(store),
        PartitionId::new(0),
        clock,
        SimRng::seed_from_u64(22),
    );
    let region = vm.map_region(256, PageClass::Anonymous);
    for p in 0..256 {
        vm.write_page(region.page(p), PageContents::Token(p));
    }
    vm.set_local_capacity(0).unwrap();
    vm.drain_writes();
    vm.set_local_capacity(1024).unwrap();

    for p in 0..40 {
        let (contents, _) = vm.read_page(region.page(p));
        assert_eq!(contents, PageContents::Token(p));
    }
    assert!(
        vm.monitor().inflight_prefetch_len() > 0,
        "the sequential scan leaves speculative reads parked"
    );

    vm.write_page(region.page(30), PageContents::Token(999));
    vm.set_local_capacity(0).unwrap();
    vm.drain_writes();
    vm.set_local_capacity(1024).unwrap();
    vm.poll_ready_completions();
    let (contents, _) = vm.read_page(region.page(30));
    assert_eq!(
        contents,
        PageContents::Token(999),
        "a parked read landed stale data"
    );
}
