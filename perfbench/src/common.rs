//! Pieces every workload shares: run settings, the measured-phase
//! loop bound, monitor-counter bookkeeping and the outcome record.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::Instant;

use fluidmem_core::{CodePath, FluidMemMemory, MonitorStats, ProfileTable};
use fluidmem_kv::StoreStats;
use fluidmem_sim::stats::Sample;
use fluidmem_sim::{SimClock, SimInstant};
use fluidmem_telemetry::Telemetry;

use crate::kv::{KvCounts, KvTap, OPS, SPAN_NAMES};
use crate::trace::{Layer, Probe};

/// Settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    /// Wall seconds the measured phase lasts at least.
    pub seconds: f64,
    /// Test-sized workloads (a few thousand accesses) instead of the
    /// benchmark's sizes.
    pub small: bool,
}

/// Exact virtual-time figures, keyed by metric name. Two runs of the
/// same seed must agree on every entry bit for bit.
pub type Virt = BTreeMap<String, f64>;

/// What one measured phase produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Virtual metrics over the fixed window.
    pub virt: Virt,
    /// Store calls counted by the forwarding wrapper over the window
    /// (traced runs only).
    pub kv: Option<KvCounts>,
    /// Wall-clock per-layer figures (traced runs only).
    pub wall: Virt,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
    /// Wall time of the chunks after the virtual window, calibrated
    /// against the reference work.
    pub walls: WallRecord,
    /// Accesses issued and checked, and how many failed or returned
    /// wrong contents.
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks that did not hold.
    pub problems: Vec<String>,
    /// Peak RSS (MiB) when the virtual window closed: set-up plus a
    /// fixed amount of work, however long the wall phase then runs.
    pub window_rss_mb: f64,
}

impl Outcome {
    /// The median group's calibrated wall ns per access.
    pub fn wall_ns_per_access(&self) -> f64 {
        median(&self.walls.calibrated)
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.virt.insert(name.to_string(), value);
    }
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Wall ns the reference work takes at the speed calibrated figures
/// are expressed in.
pub const REFERENCE_NS: f64 = 15e6;
/// Chunk wall time (ns) after which the reference work is timed again.
const GROUP_NS: f64 = 100e6;
/// Operations in one timing of the reference work.
const REFERENCE_OPS: u64 = 60_000;

/// Wall ns of the reference work, after an untimed quarter-size run
/// that evicts what the program left in the caches: run cold, the
/// reference reads 2-6% slower after program work, by an amount that
/// depends on the program's footprint.
fn reference_ns() -> f64 {
    reference_work(REFERENCE_OPS / 4);
    let start = Instant::now();
    reference_work(REFERENCE_OPS);
    ns_since(start)
}

/// Fixed reference work: `ops` random inserts, removes and updates on
/// a fresh B-tree of 64-byte values and a fresh hash map, the
/// pointer-heavy, allocating kind of work the program does. The host
/// is shared, and how fast it runs such code drifts with its other
/// guests' load on the cache and memory (by up to 2x within an hour);
/// the reference slows down with the program, so their ratio stays put
/// while either alone does not.
fn reference_work(ops: u64) {
    let mut tree: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut counts: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x: u64 = 7;
    for i in 0..ops {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x % 20_000;
        if tree.remove(&key).is_none() {
            tree.insert(key, vec![i as u8; 64]);
        }
        *counts.entry(x % 50_000).or_default() += i;
    }
    std::hint::black_box((tree.len(), counts.len()));
}

/// Wall figures of the chunks after the virtual window. Chunks are
/// grouped until a group holds `GROUP_NS` of wall, then the reference
/// work is timed once.
#[derive(Debug, Default)]
pub struct WallRecord {
    /// Per group: wall ns per access × `REFERENCE_NS` ÷ the reference
    /// time measured right after the group.
    pub calibrated: Vec<f64>,
    /// Per group: wall ns per access as measured.
    pub raw: Vec<f64>,
    /// Each timing of the reference work, in ns.
    pub reference: Vec<f64>,
}

/// The measured phase runs chunk by chunk: the first `window` chunks
/// give the virtual metrics (so they repeat exactly for a seed), and
/// chunks keep coming, at least one more, until `seconds` of wall have
/// passed, for the wall metrics. The reference work runs only after the
/// window, so it does not touch the memory read when the window closes.
pub struct Phase {
    start: Instant,
    seconds: f64,
    pub window: u64,
    pub chunks: u64,
    group_ns: f64,
    group_accesses: u64,
    walls: WallRecord,
}

impl Phase {
    pub fn new(seconds: f64, window: u64) -> Self {
        Phase {
            start: Instant::now(),
            seconds,
            window,
            chunks: 0,
            group_ns: 0.0,
            group_accesses: 0,
            walls: WallRecord::default(),
        }
    }

    /// Whether another chunk should run.
    pub fn more(&self) -> bool {
        self.chunks <= self.window || self.start.elapsed().as_secs_f64() < self.seconds
    }

    /// Counts a finished chunk that spent `ns` of wall in the program
    /// over `accesses` accesses; true when it closed the virtual window.
    /// (Some of the program's histograms keep a sample that grows with
    /// the observation count, so memory is read at this fixed point.)
    pub fn finish_chunk(&mut self, ns: f64, accesses: u64) -> bool {
        self.chunks += 1;
        if self.chunks > self.window {
            self.group_ns += ns;
            self.group_accesses += accesses;
            if self.group_ns >= GROUP_NS {
                self.calibrate();
            }
        }
        self.chunks == self.window
    }

    fn calibrate(&mut self) {
        let reference = reference_ns();
        let raw = self.group_ns / self.group_accesses.max(1) as f64;
        self.walls.raw.push(raw);
        self.walls.reference.push(reference);
        self.walls.calibrated.push(raw * REFERENCE_NS / reference);
        self.group_ns = 0.0;
        self.group_accesses = 0;
    }

    /// Closes the last group and returns the wall figures.
    pub fn finish(mut self) -> WallRecord {
        if self.group_accesses > 0 {
            self.calibrate();
        }
        self.walls
    }
}

/// Reads one counter out of a monitor snapshot.
type Getter = fn(&MonitorStats) -> u64;

/// Monitor event counters the benchmark reads, by their telemetry
/// `event` label.
pub const EVENTS: [(&str, Getter); 21] = [
    ("fault", |s| s.faults),
    ("remote_read", |s| s.remote_reads),
    ("eviction", |s| s.evictions),
    ("flush", |s| s.flushes),
    ("write_list_steal", |s| s.write_list_steals),
    ("inflight_wait", |s| s.inflight_waits),
    ("coalesced_fault", |s| s.coalesced_faults),
    ("background_reclaim", |s| s.background_reclaims),
    ("direct_reclaim", |s| s.direct_reclaims),
    ("prefetch_issued", |s| s.prefetch_issued),
    ("prefetch_hit", |s| s.prefetch_hits),
    ("prefetch_wasted", |s| s.prefetch_wasted),
    ("tier_admit", |s| s.tier_admits),
    ("tier_hit", |s| s.tier_hits),
    ("tier_miss", |s| s.tier_misses),
    ("tier_bypass_incompressible", |s| {
        s.tier_bypass_incompressible
    }),
    ("tier_bypass_thrash", |s| s.tier_bypass_thrash),
    ("tier_demotion", |s| s.tier_demotions),
    ("lost_page", |s| s.lost_pages),
    ("flush_failure", |s| s.flush_failures),
    ("prefetch_fatal_error", |s| s.prefetch_fatal_errors),
];

pub type Events = BTreeMap<&'static str, u64>;

pub fn events_of(stats: &MonitorStats) -> Events {
    EVENTS
        .iter()
        .map(|(name, get)| (*name, get(stats)))
        .collect()
}

pub fn events_since(after: &Events, before: &Events) -> Events {
    after
        .iter()
        .map(|(k, v)| (*k, v - before.get(k).copied().unwrap_or(0)))
        .collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer `core` counters over the window: `ev` holds the window's
/// event deltas, `accesses` and `faults` the benchmark's own counts
/// (a fault is any access that was not a mapped-page hit).
pub fn monitor_virt(out: &mut Outcome, ev: &Events, accesses: u64, faults: u64) {
    let e = |k: &str| ev[k];
    out.set("monitor.hit_ratio", 1.0 - ratio(faults, accesses));
    for (metric, event) in [
        ("monitor.faults", "fault"),
        ("monitor.remote_reads", "remote_read"),
        ("monitor.evictions", "eviction"),
        ("monitor.flushes", "flush"),
        ("monitor.write_list_steals", "write_list_steal"),
        ("monitor.inflight_waits", "inflight_wait"),
        ("reclaim.background", "background_reclaim"),
        ("reclaim.direct", "direct_reclaim"),
        ("prefetch.issued", "prefetch_issued"),
        ("prefetch.hits", "prefetch_hit"),
        ("prefetch.wasted", "prefetch_wasted"),
        ("tier.admits", "tier_admit"),
        ("tier.hits", "tier_hit"),
        ("tier.bypass_incompressible", "tier_bypass_incompressible"),
        ("tier.bypass_thrash", "tier_bypass_thrash"),
        ("tier.demotions", "tier_demotion"),
    ] {
        out.set(metric, e(event) as f64);
    }
    out.set(
        "prefetch.accuracy",
        ratio(e("prefetch_hit"), e("prefetch_issued")),
    );
    out.set(
        "prefetch.coverage",
        ratio(e("prefetch_hit"), e("prefetch_hit") + e("fault")),
    );
    out.set(
        "tier.hit_ratio",
        ratio(e("tier_hit"), e("tier_hit") + e("tier_miss")),
    );
}

/// The whole-run health counters that must read zero.
pub fn check_health(out: &mut Outcome, totals: &Events) {
    for event in ["lost_page", "flush_failure", "prefetch_fatal_error"] {
        if totals[event] > 0 {
            out.problems
                .push(format!("monitor counted {} {event} events", totals[event]));
        }
    }
}

/// Table I rows (virtual time) of one monitor's profile.
pub fn profile_virt(out: &mut Outcome, profile: &ProfileTable) {
    for path in CodePath::ALL {
        let s = profile.stats(path);
        out.set(&format!("profile.{path}.mean_us"), s.avg_us);
        out.set(&format!("profile.{path}.count"), s.count as f64);
    }
}

/// Where a single-VM workload's virtual window starts: the counters its
/// figures are taken against.
pub struct VmWindow {
    events: Events,
    store: StoreStats,
    /// The store wrapper's tap and its counts at the start.
    kv: Option<(KvTap, KvCounts)>,
    start: SimInstant,
}

impl VmWindow {
    /// Opens the window now, clearing the monitor's Table I profile.
    pub fn open(vm: &mut FluidMemMemory, clock: &SimClock, tap: Option<&KvTap>) -> VmWindow {
        vm.monitor_mut().clear_profile();
        VmWindow {
            events: events_of(&vm.monitor().stats()),
            store: vm.monitor().store().stats(),
            kv: tap.map(|t| (t.clone(), t.counts())),
            start: clock.now(),
        }
    }

    /// Closes the window over `accesses` accesses, `faults` of which
    /// recorded their latencies in `latencies`: the end-to-end virtual
    /// metrics, memory, and the per-layer counts.
    pub fn close(
        &self,
        out: &mut Outcome,
        vm: &FluidMemMemory,
        clock: &SimClock,
        accesses: u64,
        faults: u64,
        latencies: &mut Sample,
    ) {
        out.window_rss_mb = peak_rss_mb();
        let elapsed = (clock.now() - self.start).as_secs_f64();
        out.set("accesses", accesses as f64);
        out.set("fault_samples", latencies.count() as f64);
        out.set("fault_p50_us", latencies.percentile(0.50));
        out.set("fault_p99_us", latencies.percentile(0.99));
        out.set("virtual_ops_per_s", accesses as f64 / elapsed);
        let monitor = vm.monitor();
        let ev = events_since(&events_of(&monitor.stats()), &self.events);
        monitor_virt(out, &ev, accesses, faults);
        profile_virt(out, monitor.profile());
        let store = monitor.store();
        store_virt(out, &self.store, &store.stats(), store.len());
        if let Some((tap, kv0)) = &self.kv {
            out.kv = Some(tap.counts().since(kv0));
        }
    }
}

/// End-of-run audit of one VM: drains its write list, then checks the
/// tier audit and the health counters.
pub fn audit_vm(out: &mut Outcome, vm: &mut FluidMemMemory) {
    vm.drain_writes();
    let audit = vm.monitor().tier_audit();
    if !audit.is_clean() {
        out.problems.push(format!("tier audit failed: {audit:?}"));
    }
    check_health(out, &events_of(&vm.monitor().stats()));
}

/// Store-side figures over the window that the store itself reports.
pub fn store_virt(out: &mut Outcome, before: &StoreStats, after: &StoreStats, objects: usize) {
    out.set("kv.cleanings", (after.cleanings - before.cleanings) as f64);
    out.set("kv.objects", objects as f64);
}

/// Wall-clock per-layer figures every traced workload reports: per
/// store operation mean ns, from the tracer.
pub fn kv_wall(out: &mut Outcome, probe: &Probe) {
    for (op, span) in OPS.iter().zip(SPAN_NAMES) {
        out.wall
            .insert(format!("kv.{op}.ns"), probe.stats(span).mean_ns());
    }
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Wall ns elapsed since `t`.
pub fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Times one Prometheus plus Chrome-trace export of `tele` and counts
/// its metric series.
pub fn telemetry_wall(out: &mut Outcome, tele: &Telemetry, probe: &Probe) {
    let t = Instant::now();
    let bytes = probe.call(Layer::Telemetry, "Telemetry::export", || {
        tele.export_prometheus().len() + tele.export_chrome_trace().len()
    });
    out.wall
        .insert("telemetry.export_ms".into(), ns_since(t) / 1e6);
    let snap = tele.registry().snapshot();
    let series = snap.counters.len() + snap.gauges.len() + snap.histograms.len();
    out.wall.insert("telemetry.series".into(), series as f64);
    out.notes
        .push(format!("telemetry export: {bytes} bytes, {series} series"));
}
