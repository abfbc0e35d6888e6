//! Acceptance tests for watermark-driven background reclaim.
//!
//! Three properties anchor the feature:
//!
//! * **Default-off identity** — with reclaim disabled (the default) the
//!   monitor must be byte-identical to one that never heard of the
//!   feature: same stats, virtual clock, Prometheus text, and Chrome
//!   trace across seeds, with zero reclaim counters and no reclaim
//!   spans.
//! * **Depth-1 equivalence holds with reclaim ON** — the background
//!   evictor rides the completion event queue, but at depth 1 nothing
//!   is ever in flight when it wakes, so the pipelined path must stay
//!   byte-identical to the call-return path even with reclaim enabled.
//! * **Chaos safety** — with reclaim enabled over a faulty store
//!   transport (drops, timeouts, transient errors, including
//!   multi-write flush failures), no page may be lost or double-freed:
//!   every read returns the last-written contents, the shadow-table
//!   accounting balances, and the write list drains.

use fluidmem::coord::PartitionId;
use fluidmem::core::{
    CodePath, FluidMemMemory, MonitorConfig, Optimizations, PipelineSubmit, ReclaimConfig,
};
use fluidmem::kv::{FaultInjectingStore, RamCloudStore};
use fluidmem::mem::{AccessOutcome, MemoryBackend, PageClass, PageContents};
use fluidmem::sim::{FaultPlan, SimClock, SimInstant, SimRng};
use fluidmem::telemetry::{consts, Telemetry};
use fluidmem::vm::VcpuSet;

const SEEDS: [u64; 4] = [3, 17, 271, 65_537];

/// The guest pid `FluidMemMemory::do_access` raises faults from; the
/// pipelined run must use the same identity for byte-identical traces.
const BACKEND_PID: u64 = 4242;

fn traced_vm(seed: u64, reclaim: Option<ReclaimConfig>) -> (Telemetry, FluidMemMemory) {
    let clock = SimClock::new();
    let store = RamCloudStore::new(1 << 28, clock.clone(), SimRng::seed_from_u64(seed ^ 0x4B56));
    let mut config = MonitorConfig::new(48).optimizations(Optimizations::full());
    if let Some(cfg) = reclaim {
        config = config.reclaim(cfg);
    }
    let mut vm = FluidMemMemory::new(
        config,
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

/// A working set ~4x the LRU capacity, so the run keeps the buffer full
/// and the evictor busy: first touches, refaults, steals, evictions.
fn schedule(seed: u64) -> Vec<(u64, bool)> {
    let mut rng = SimRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
    (0..600)
        .map(|_| (rng.gen_index(192), rng.gen_bool(0.4)))
        .collect()
}

type RunFingerprint = (fluidmem::core::MonitorStats, SimInstant, String, String);

fn run_call_return(seed: u64, reclaim: Option<ReclaimConfig>) -> RunFingerprint {
    let (telemetry, mut vm) = traced_vm(seed, reclaim);
    let region = vm.map_region(192, PageClass::Anonymous);
    for (page, write) in schedule(seed) {
        vm.access(region.page(page), write);
    }
    vm.drain_writes();
    (
        vm.monitor().stats(),
        vm.clock().now(),
        telemetry.export_prometheus(),
        telemetry.export_chrome_trace(),
    )
}

fn run_pipelined_depth_one(seed: u64, reclaim: Option<ReclaimConfig>) -> RunFingerprint {
    let (telemetry, mut vm) = traced_vm(seed, reclaim);
    let region = vm.map_region(192, PageClass::Anonymous);
    for (page, write) in schedule(seed) {
        match vm.submit_access(BACKEND_PID, region.page(page), write) {
            PipelineSubmit::Ready(_) => {}
            PipelineSubmit::Pending(_) => {
                vm.complete_next_access().expect("one fault is in flight");
            }
        }
        assert_eq!(vm.inflight_len(), 0, "depth 1 never holds a fault");
    }
    vm.drain_writes();
    (
        vm.monitor().stats(),
        vm.clock().now(),
        telemetry.export_prometheus(),
        telemetry.export_chrome_trace(),
    )
}

/// Default-off identity: a config that never mentions reclaim and one
/// that explicitly disables it are the same monitor, byte for byte —
/// no extra RNG draws, clock charges, counters, or spans.
#[test]
fn disabled_reclaim_is_byte_identical_to_default_across_seeds() {
    for &seed in &SEEDS {
        let default = run_call_return(seed, None);
        let disabled = run_call_return(seed, Some(ReclaimConfig::disabled()));
        assert_eq!(default, disabled, "seed {seed}: disabled reclaim diverged");

        let (stats, _, _, trace) = default;
        assert_eq!(stats.background_reclaims, 0, "seed {seed}");
        assert_eq!(stats.direct_reclaims, 0, "seed {seed}");
        assert!(
            !trace.contains("\"reclaim\""),
            "seed {seed}: no reclaim spans may exist with the feature off"
        );
    }
}

/// Depth-1 equivalence survives turning reclaim ON: with at most one
/// fault in flight the evictor always runs inline at the hook, so the
/// pipelined path stays byte-identical to the call-return path.
#[test]
fn depth_one_pipeline_matches_call_return_with_reclaim_enabled() {
    for &seed in &SEEDS {
        let sync = run_call_return(seed, Some(ReclaimConfig::kswapd()));
        let pipe = run_pipelined_depth_one(seed, Some(ReclaimConfig::kswapd()));
        assert_eq!(sync.0, pipe.0, "seed {seed}: stats diverged");
        assert_eq!(sync.1, pipe.1, "seed {seed}: virtual clocks diverged");
        assert_eq!(sync.2, pipe.2, "seed {seed}: Prometheus export diverged");
        assert_eq!(sync.3, pipe.3, "seed {seed}: Chrome trace diverged");

        // The oversubscribed schedule must actually exercise the
        // evictor, and entirely off the fault path.
        assert!(
            sync.0.background_reclaims > 0,
            "seed {seed}: the evictor never ran"
        );
        assert_eq!(
            sync.0.direct_reclaims, 0,
            "seed {seed}: no fault may evict inline at default watermarks"
        );
        assert!(
            sync.3.contains("\"reclaim\""),
            "seed {seed}: reclaim activations must be visible in the trace"
        );
    }
}

/// The span names on `track` in an `export_timeline` dump, each with
/// the names of the spans on that track it is indented under.
fn track_lines_with_ancestors(timeline: &str, track: &str) -> Vec<(String, Vec<String>)> {
    let prefix = format!("{track:<7} ");
    let mut open: Vec<(usize, String)> = Vec::new();
    let mut out = Vec::new();
    for line in timeline.lines() {
        let rest = &line[line.find("] ").expect("timestamp") + 2..];
        let Some(rest) = rest.strip_prefix(prefix.as_str()) else {
            continue;
        };
        let name = rest.trim_start().split(' ').next().unwrap().to_string();
        let indent = rest.len() - rest.trim_start().len();
        open.retain(|(depth, _)| *depth < indent);
        out.push((name.clone(), open.iter().map(|(_, n)| n.clone()).collect()));
        open.push((indent, name));
    }
    out
}

/// Background evictions run the inline evictor's steps, so they leave
/// the same spans: one `UFFD_REMAP` and one `tlb.shootdown` per
/// eviction, a `write_list_push` per page not absorbed by the tier, all
/// inside the `reclaim` activation that evicted them on the evictor's
/// own track.
#[test]
fn background_evictions_record_the_eviction_spans() {
    let clock = SimClock::new();
    let store = RamCloudStore::new(1 << 28, clock.clone(), SimRng::seed_from_u64(9));
    let mut vm = FluidMemMemory::new(
        MonitorConfig::new(256)
            .optimizations(Optimizations::full())
            .reclaim(ReclaimConfig::kswapd()),
        Box::new(store),
        PartitionId::new(0),
        clock.clone(),
        SimRng::seed_from_u64(9),
    );
    let telemetry = Telemetry::new(clock);
    telemetry.enable_spans();
    vm.attach_telemetry(&telemetry);
    let region = vm.map_region(1024, PageClass::Anonymous);
    for page in 0..1024 {
        vm.access(region.page(page), true);
    }
    let stats = vm.monitor().stats();
    assert_eq!(telemetry.spans().dropped(), 0, "the ring must hold the run");
    assert!(stats.evictions > 0);
    assert_eq!(
        stats.background_reclaims, stats.evictions,
        "at default watermarks the evictor does all the evicting"
    );

    let records = telemetry.spans().records();
    let count = |name: &str| records.iter().filter(|r| r.name == name).count() as u64;
    assert_eq!(count("UFFD_REMAP"), stats.evictions);
    assert_eq!(count("tlb.shootdown"), stats.evictions);
    assert_eq!(
        count("write_list_push"),
        stats.evictions - stats.tier_admits
    );
    // Table I profiles the fault handler: off-path evictions stay out.
    assert_eq!(vm.monitor().profile().stats(CodePath::UffdRemap).count, 0);

    let reclaims: Vec<_> = records.iter().filter(|r| r.name == "reclaim").collect();
    for shootdown in records.iter().filter(|r| r.name == "tlb.shootdown") {
        assert!(
            reclaims
                .iter()
                .any(|r| r.start <= shootdown.start && shootdown.start <= r.end),
            "a shootdown at {} starts outside every reclaim activation",
            shootdown.start
        );
    }
    let lines = track_lines_with_ancestors(&telemetry.export_timeline(), consts::TRACK_EVICTOR);
    for name in ["UFFD_REMAP", "write_list_push"] {
        let under_reclaim = lines
            .iter()
            .filter(|(n, ancestors)| n == name && ancestors.iter().any(|a| a == "reclaim"))
            .count() as u64;
        assert_eq!(
            under_reclaim,
            count(name),
            "every {name} span must sit under a reclaim span"
        );
    }
}

/// Drop + timeout + transient-refusal mix on the store transport; the
/// rates are high enough that batched multi-writes fail and requeue.
fn chaotic_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(SimRng::seed_from_u64(seed ^ 0xFA_17))
        .with_drop(0.08)
        .with_timeout(0.06)
        .with_transient_error(0.06)
}

fn chaotic_reclaim_vm(seed: u64, depth: usize) -> FluidMemMemory {
    let clock = SimClock::new();
    let inner = RamCloudStore::new(1 << 26, clock.clone(), SimRng::seed_from_u64(seed));
    let store = FaultInjectingStore::new(Box::new(inner), chaotic_plan(seed), clock.clone());
    FluidMemMemory::new(
        MonitorConfig::new(16)
            .inflight(depth)
            .optimizations(Optimizations::full())
            .reclaim(ReclaimConfig::kswapd()),
        Box::new(store),
        PartitionId::new(0),
        clock,
        SimRng::seed_from_u64(seed + 1),
    )
}

/// Chaos with the background evictor on: store faults (including failed
/// flush batches, which requeue onto the write list) land while the
/// evictor stages reclaim batches. No page may be lost or double-freed.
#[test]
fn background_reclaim_under_store_chaos_loses_nothing() {
    let mut total_retries = 0u64;
    for &seed in &SEEDS {
        let mut vm = chaotic_reclaim_vm(seed, 4);
        let pages = 64u64;
        let region = vm.map_region(pages, PageClass::Anonymous);
        let token = |p: u64| PageContents::Token(p * 31 + 7);

        // Populate every page, pushing most of the working set through
        // the evictor and the (faulty) flush path.
        for p in 0..pages {
            vm.write_page(region.page(p), token(p));
        }
        vm.drain_writes();

        // Read everything back in waves of four pipelined faults; every
        // refault squeezes the 16-page buffer below its watermarks.
        for wave in 0..pages / 4 {
            for i in 0..4 {
                let p = wave * 4 + i;
                match vm.submit_access(9000 + p, region.page(p), false) {
                    PipelineSubmit::Ready(report) => {
                        assert_ne!(report.outcome, AccessOutcome::MajorFault);
                    }
                    PipelineSubmit::Pending(_) => {}
                }
            }
            while vm.complete_next_access().is_some() {}
            assert_eq!(vm.inflight_len(), 0, "seed {seed}: wave drained");
            for i in 0..4 {
                let p = wave * 4 + i;
                let (contents, report) = vm.read_page(region.page(p));
                assert_eq!(
                    contents,
                    token(p),
                    "seed {seed}: page {p} lost or corrupted under faults"
                );
                assert_eq!(report.outcome, AccessOutcome::Hit, "seed {seed}: page {p}");
            }
        }

        let stats = vm.monitor().stats();
        assert_eq!(stats.lost_pages, 0, "seed {seed}: faults are not data loss");
        assert!(
            stats.background_reclaims > 0,
            "seed {seed}: the evictor must carry the reclaim load"
        );
        assert!(
            vm.monitor().workingset().accounting_balances(),
            "seed {seed}: background evictions must not leak or double-count shadow entries"
        );
        total_retries += stats.read_retries + stats.write_retries + stats.flush_failures;

        vm.drain_writes();
        assert_eq!(
            vm.monitor().pending_writes(),
            0,
            "seed {seed}: write list must drain over a faulty transport"
        );
        assert!(
            vm.monitor().workingset().accounting_balances(),
            "seed {seed}: accounting must still balance after the final drain"
        );
    }
    assert!(
        total_retries > 0,
        "the fault plan must actually force retries somewhere across seeds"
    );
}

/// Determinism: the same seeds with reclaim enabled produce the same
/// schedule, stats, and final clock, run to run.
#[test]
fn chaotic_reclaim_runs_are_deterministic() {
    let run = || {
        let vm = chaotic_reclaim_vm(11, 8);
        let mut set = VcpuSet::new(vm, 8, 128).workload_seed(13);
        let stats = set.run(2_500);
        let vm = set.into_vm();
        (
            stats.faults,
            stats.parked,
            stats.coalesced,
            stats.elapsed,
            vm.monitor().stats(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "chaos + background reclaim must stay deterministic");
    assert!(a.4.background_reclaims > 0, "the evictor must have run");
}
