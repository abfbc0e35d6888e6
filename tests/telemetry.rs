//! Telemetry acceptance tests: exports are deterministic, stats views
//! agree with the registry, and the exported trace shows the §V-B
//! overlap — the async KV read's flight running concurrently with
//! `UFFD_REMAP` on the monitor track.

use fluidmem::coord::PartitionId;
use fluidmem::core::{FluidMemMemory, MonitorConfig};
use fluidmem::kv::RamCloudStore;
use fluidmem::mem::{MemoryBackend, PageClass};
use fluidmem::sim::{SimClock, SimDuration, SimRng};
use fluidmem::telemetry::{consts, validate_chrome_trace, SpanRecord, Telemetry};
use fluidmem::workloads::pmbench::{self, PmbenchConfig};

/// Builds a traced FluidMem VM, runs a short pmbench, and returns the
/// telemetry handle it recorded into.
fn traced_run(seed: u64) -> (Telemetry, FluidMemMemory) {
    let clock = SimClock::new();
    let store = RamCloudStore::new(1 << 28, clock.clone(), SimRng::seed_from_u64(seed ^ 0x4B56));
    let mut vm = FluidMemMemory::new(
        MonitorConfig::new(64),
        Box::new(store),
        PartitionId::new(0),
        clock.clone(),
        SimRng::seed_from_u64(seed),
    );
    let telemetry = Telemetry::new(clock);
    telemetry.enable_spans();
    vm.attach_telemetry(&telemetry);
    let config = PmbenchConfig {
        wss_pages: 256,
        duration: SimDuration::from_secs(1),
        read_ratio: 0.5,
        max_accesses: 1_500,
    };
    let mut rng = SimRng::seed_from_u64(seed.wrapping_mul(3));
    pmbench::run(&mut vm, &config, &mut rng);
    vm.drain_writes();
    (telemetry, vm)
}

#[test]
fn exports_are_deterministic_across_runs() {
    let (a, _vm_a) = traced_run(42);
    let (b, _vm_b) = traced_run(42);
    assert_eq!(
        a.export_chrome_trace(),
        b.export_chrome_trace(),
        "same seed must give a byte-identical Chrome trace"
    );
    assert_eq!(
        a.export_prometheus(),
        b.export_prometheus(),
        "same seed must give a byte-identical Prometheus export"
    );
    assert_eq!(a.export_jsonl(), b.export_jsonl());
}

#[test]
fn chrome_trace_validates_and_shows_async_overlap() {
    let (telemetry, _vm) = traced_run(7);
    let json = telemetry.export_chrome_trace();
    let events = validate_chrome_trace(&json).expect("export must be valid Chrome trace JSON");
    assert!(events > 0, "trace must contain events");

    let records = telemetry.spans().records();
    let flights: Vec<&SpanRecord> = records
        .iter()
        .filter(|r| r.track == consts::TRACK_KV && r.name == "kv.read.flight")
        .collect();
    let remaps: Vec<&SpanRecord> = records
        .iter()
        .filter(|r| r.track == consts::TRACK_MONITOR && r.name == "UFFD_REMAP")
        .collect();
    assert!(!flights.is_empty(), "async reads must record flight spans");
    assert!(!remaps.is_empty(), "Remap eviction must record UFFD_REMAP");
    let overlapping = flights
        .iter()
        .any(|f| remaps.iter().any(|r| f.start < r.end && r.start < f.end));
    assert!(
        overlapping,
        "§V-B: some KV read flight must overlap a UFFD_REMAP span"
    );
}

#[test]
fn stats_views_match_registry_counters() {
    let (telemetry, vm) = traced_run(11);
    let registry = telemetry.registry();
    let stats = vm.monitor().stats();
    let remote_reads = registry
        .counter(
            consts::MONITOR_EVENTS,
            &[(consts::LABEL_EVENT, "remote_read")],
        )
        .get();
    assert_eq!(
        stats.remote_reads, remote_reads,
        "MonitorStats must be a registry view"
    );

    let store_stats = vm.monitor().store().stats();
    let gets = registry
        .counter(
            consts::STORE_OPS,
            &[(consts::LABEL_STORE, "ramcloud"), (consts::LABEL_OP, "get")],
        )
        .get();
    assert_eq!(store_stats.gets, gets, "StoreStats must be a registry view");
    assert!(store_stats.gets > 0, "the run must actually hit the store");
}

#[test]
fn fault_latency_histograms_populate_by_resolution() {
    let (telemetry, _vm) = traced_run(23);
    let hist = telemetry.registry().histogram(
        consts::FAULT_LATENCY_US,
        &[(consts::LABEL_RESOLUTION, "remote_read")],
    );
    let snap = hist.snapshot();
    assert!(
        snap.count > 0,
        "an over-capacity working set must produce remote reads"
    );
}

/// Figure 2's blue path from spans alone, on the `fig2` scenario
/// (capacity 2, write batch 2): each eviction is a `UFFD_REMAP` followed
/// by its write-list push, the second push fills the batch and the
/// multi-write flies on the kv track; the refault's read flight overlaps
/// the eviction it makes room with and lands before `UFFD_COPY`.
#[test]
fn fig2_blue_path_is_in_the_spans() {
    let clock = SimClock::new();
    let store = RamCloudStore::new(1 << 26, clock.clone(), SimRng::seed_from_u64(1));
    let mut vm = FluidMemMemory::new(
        MonitorConfig::new(2).write_batch(2),
        Box::new(store),
        PartitionId::new(0),
        clock.clone(),
        SimRng::seed_from_u64(2),
    );
    let telemetry = Telemetry::new(clock);
    telemetry.enable_spans();
    vm.attach_telemetry(&telemetry);
    let region = vm.map_region(8, PageClass::Anonymous);
    for i in 0..4 {
        vm.access(region.page(i), true);
    }

    let blue = ["UFFD_REMAP", "write_list_push", "kv.multi_write.flight"];
    let records = telemetry.spans().records();
    let path: Vec<&SpanRecord> = records
        .iter()
        .filter(|r| blue.contains(&r.name.as_str()))
        .collect();
    let names: Vec<&str> = path.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "UFFD_REMAP",
            "write_list_push",
            "UFFD_REMAP",
            "write_list_push",
            "kv.multi_write.flight",
        ]
    );
    for pair in path.windows(2) {
        assert!(pair[0].end <= pair[1].start, "{pair:?}");
    }
    assert_eq!(path[1].track, consts::TRACK_MONITOR);
    assert_eq!(path[4].track, consts::TRACK_KV);

    vm.drain_writes();
    telemetry.spans().clear();
    vm.access(region.page(0), false);
    let records = telemetry.spans().records();
    let one = |name: &str| -> &SpanRecord {
        let mut found = records.iter().filter(|r| r.name == name);
        let r = found.next().unwrap_or_else(|| panic!("no {name} span"));
        assert!(found.next().is_none(), "one {name} span expected");
        r
    };
    let (flight, remap, copy) = (one("kv.read.flight"), one("UFFD_REMAP"), one("UFFD_COPY"));
    assert!(
        flight.start < remap.end && remap.start < flight.end,
        "§V-B: the read flight must overlap the eviction"
    );
    assert!(
        flight.end <= copy.start,
        "UFFD_COPY installs the fetched page"
    );
}

/// `fluidmem trace --scenario pmbench` runs more accesses than the span
/// ring holds; its summary line must say how many spans fell out.
#[test]
fn pmbench_trace_summary_reports_dropped_spans() {
    let out = std::env::temp_dir().join(format!("fluidmem-trace-{}.json", std::process::id()));
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_fluidmem"))
        .args(["trace", "--scenario", "pmbench", "--out"])
        .arg(&out)
        .output()
        .expect("fluidmem binary runs");
    let _ = std::fs::remove_file(&out);
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    let summary = stdout.lines().next().expect("a summary line");
    assert!(
        summary.starts_with("FluidMem RAMCloud: 20000 accesses traced, avg "),
        "{summary}"
    );
    let dropped: u64 = summary
        .strip_suffix(" older spans dropped")
        .and_then(|head| head.rsplit(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no dropped-span count in {summary:?}"));
    assert!(
        dropped > 0,
        "20000 traced accesses overflow the span ring: {summary}"
    );
}
