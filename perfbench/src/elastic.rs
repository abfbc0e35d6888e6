//! `elastic`: one VM with 4 vCPUs on a depth-8 pipeline, squeezed to a
//! minimal footprint and grown back every cycle.
//!
//! A cycle is: shrink the local buffer to a few hundred pages
//! (`set_local_capacity`, then `drain_writes`), grow it back past the
//! region, then let each vCPU scan its own slice of the region in runs
//! of sequential, stride-7 and random accesses, about 10% writes. Stride
//! prefetch and background reclaim are on; the host and the compressed
//! tier are not used.
//!
//! The vCPUs form a closed loop: a vCPU issues its next access a fixed
//! think time after its previous one completed (a pipelined fault
//! completes at its wake). Monitor events — fault completions, landed
//! prefetches, reclaim activations — run at their own virtual instants,
//! interleaved with vCPU issues in time order.

use std::collections::BTreeMap;
use std::time::Instant;

use fluidmem_coord::PartitionId;
use fluidmem_core::{
    FluidMemMemory, MonitorConfig, PipelineSubmit, PrefetchPolicy, ReclaimConfig, SubmitOutcome,
};
use fluidmem_mem::{AccessOutcome, MemoryBackend, PageClass, PageContents, Region};
use fluidmem_sim::stats::Sample;
use fluidmem_sim::{EventQueue, SimClock, SimDuration, SimInstant, SimRng};
use fluidmem_telemetry::Telemetry;

use crate::common::{
    audit_vm, kv_wall, ns_since, telemetry_wall, Outcome, Phase, RunConfig, VmWindow,
};
use crate::kv::{self, KvTap};
use crate::trace::{Layer, Probe};

/// Guest compute between a vCPU's accesses.
pub const THINK: SimDuration = SimDuration::from_micros(6);
/// Pipeline depth (faults in flight at once).
const DEPTH: usize = 8;
const VCPUS: usize = 4;
/// Accesses per sequential, strided or random run.
const RUN: u64 = 64;
const STRIDE: u64 = 7;
const WRITE_FRACTION: f64 = 0.1;
const VCPU_PID_BASE: u64 = 9000;

struct Sizes {
    region: u64,
    /// The squeezed footprint, in pages.
    min_pages: u64,
    ops_per_vcpu: usize,
    /// Cycles in the virtual window.
    window: u64,
}

impl Sizes {
    fn of(cfg: &RunConfig) -> Sizes {
        if cfg.small {
            Sizes {
                region: 1024,
                min_pages: 64,
                ops_per_vcpu: 512,
                window: 2,
            }
        } else {
            Sizes {
                region: 8192,
                min_pages: 256,
                ops_per_vcpu: 32768,
                window: 4,
            }
        }
    }

    /// The grown capacity: past the region, so scans never evict.
    fn grown(&self) -> u64 {
        self.region + self.region / 8
    }
}

/// The fill value of page `p`: every page holds a distinct token, and
/// scans never change contents, so the end-of-run check knows each
/// page's expected value.
fn token(seed: u64, p: u64) -> PageContents {
    PageContents::Token(seed.rotate_left(17) ^ p.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
}

pub struct Elastic {
    vm: FluidMemMemory,
    region: Region,
    clock: SimClock,
    telemetry: Telemetry,
    inputs: SimRng,
    sizes: Sizes,
    seed: u64,
    tap: Option<KvTap>,
    access_id: u64,
}

/// One cycle's counts, as the benchmark sees them.
#[derive(Debug, Default, Clone, Copy)]
struct CycleStats {
    accesses: u64,
    faults: u64,
    parked: u64,
    coalesced: u64,
    resize_ns: f64,
    squeezed_pages: u64,
    total_ns: f64,
}

pub fn setup(cfg: &RunConfig, probe: &Probe) -> Elastic {
    let sizes = Sizes::of(cfg);
    let clock = SimClock::new();
    let (store, tap) = kv::ramcloud(sizes.region, &clock, cfg.seed, probe);
    let config = MonitorConfig::new(sizes.grown())
        .inflight(DEPTH)
        .prefetch(PrefetchPolicy::Stride {
            window: 16,
            max_depth: 8,
        })
        .reclaim(ReclaimConfig::kswapd());
    let mut vm = FluidMemMemory::new(
        config,
        store,
        PartitionId::new(0),
        clock.clone(),
        SimRng::seed_from_u64(cfg.seed ^ 0x9E37_79B9),
    );
    let telemetry = Telemetry::new(clock.clone());
    vm.attach_telemetry(&telemetry);
    let region = vm.map_region(sizes.region, PageClass::Anonymous);
    for p in 0..sizes.region {
        let contents = token(cfg.seed, p);
        probe.call(Layer::Core, "FluidMemMemory::write_page", || {
            vm.write_page(region.page(p), contents)
        });
    }
    probe.call(Layer::Core, "FluidMemMemory::drain_writes", || {
        vm.drain_writes()
    });
    let mut elastic = Elastic {
        vm,
        region,
        clock,
        telemetry,
        inputs: SimRng::seed_from_u64(cfg.seed).fork("elastic-inputs"),
        sizes,
        seed: cfg.seed,
        tap,
        access_id: 0,
    };
    // Warm-up: one full cycle.
    let plan = elastic.plan();
    elastic.cycle(plan, probe, None);
    elastic
}

impl Elastic {
    /// Each vCPU's accesses for one cycle: runs over its own slice.
    pub(crate) fn plan(&mut self) -> Vec<Vec<(u64, bool)>> {
        let slice = self.sizes.region / VCPUS as u64;
        let rng = &mut self.inputs;
        (0..VCPUS as u64)
            .map(|v| {
                let base = v * slice;
                let mut list = Vec::with_capacity(self.sizes.ops_per_vcpu + RUN as usize);
                while list.len() < self.sizes.ops_per_vcpu {
                    let kind = rng.gen_index(3);
                    let start = rng.gen_index(slice);
                    for k in 0..RUN {
                        let offset = match kind {
                            0 => (start + k) % slice,
                            1 => (start + STRIDE * k) % slice,
                            _ => rng.gen_index(slice),
                        };
                        list.push((base + offset, rng.gen_bool(WRITE_FRACTION)));
                    }
                }
                list.truncate(self.sizes.ops_per_vcpu);
                list
            })
            .collect()
    }

    /// Squeeze, grow, scan. `latencies` records fault latencies (µs).
    fn cycle(
        &mut self,
        plan: Vec<Vec<(u64, bool)>>,
        probe: &Probe,
        latencies: Option<&mut Sample>,
    ) -> CycleStats {
        let mut st = CycleStats::default();
        let start = Instant::now();
        let vm = &mut self.vm;
        let resident = vm.resident_pages();
        let min = self.sizes.min_pages;
        probe
            .call(Layer::Core, "FluidMemMemory::set_local_capacity", || {
                vm.set_local_capacity(min)
            })
            .expect("FluidMem resizes freely");
        probe.call(Layer::Core, "FluidMemMemory::drain_writes", || {
            vm.drain_writes()
        });
        st.squeezed_pages = resident.saturating_sub(vm.resident_pages());
        st.resize_ns = ns_since(start);
        let grown = self.sizes.grown();
        probe
            .call(Layer::Core, "FluidMemMemory::set_local_capacity", || {
                vm.set_local_capacity(grown)
            })
            .expect("FluidMem resizes freely");
        self.scan(&plan, probe, &mut st, latencies);
        st.total_ns = ns_since(start);
        st
    }

    /// The closed loop: vCPU issues and monitor events in time order.
    fn scan(
        &mut self,
        plan: &[Vec<(u64, bool)>],
        probe: &Probe,
        st: &mut CycleStats,
        mut latencies: Option<&mut Sample>,
    ) {
        let vm = &mut self.vm;
        let clock = &self.clock;
        let region = self.region;
        let mut next = vec![0usize; plan.len()];
        let mut ready: EventQueue<usize> = EventQueue::new();
        for (v, list) in plan.iter().enumerate() {
            if !list.is_empty() {
                ready.push(clock.now(), v);
            }
        }
        let mut blocked: BTreeMap<u64, Vec<(usize, SimInstant)>> = BTreeMap::new();
        let mut record = |d: SimDuration| {
            if let Some(s) = latencies.as_deref_mut() {
                s.record_duration(d);
            }
        };
        loop {
            probe.call(
                Layer::Core,
                "FluidMemMemory::poll_ready_completions",
                || vm.poll_ready_completions(),
            );
            let now = clock.now();
            let due = vm.monitor().next_completion_at();
            // After the poll, a due head event can only be a demand fault.
            if !blocked.is_empty() && due.is_some_and(|t| t <= now) {
                let done = probe
                    .call(Layer::Core, "FluidMemMemory::complete_next_access", || {
                        vm.complete_next_access()
                    })
                    .expect("a blocked vCPU has a parked fault");
                for (v, t0) in blocked
                    .remove(&done.id)
                    .expect("a completed operation has submitters")
                {
                    record(done.wake_at - t0);
                    if next[v] < plan[v].len() {
                        ready.push(done.wake_at + THINK, v);
                    }
                }
                continue;
            }
            let issue_at = match (ready.peek_time(), due) {
                (Some(tr), Some(tm)) if tm < tr => None,
                (Some(tr), _) => Some(tr),
                (None, Some(_)) if !blocked.is_empty() => None,
                (None, _) => break,
            };
            let Some(tr) = issue_at else {
                clock.advance_to(due.expect("a monitor event is pending"));
                continue;
            };
            let (_, v) = ready.pop_next().expect("a vCPU is ready");
            clock.advance_to(tr);
            let (page, write) = plan[v][next[v]];
            next[v] += 1;
            self.access_id += 1;
            probe.set_access(self.access_id);
            st.accesses += 1;
            let t0 = clock.now();
            let addr = region.page(page);
            match probe.call(Layer::Core, "FluidMemMemory::submit_access", || {
                vm.submit_access(VCPU_PID_BASE + v as u64, addr, write)
            }) {
                PipelineSubmit::Ready(report) => {
                    if report.outcome != AccessOutcome::Hit {
                        st.faults += 1;
                        record(report.latency);
                    }
                    if next[v] < plan[v].len() {
                        ready.push(clock.now() + THINK, v);
                    }
                }
                PipelineSubmit::Pending(SubmitOutcome::Parked(id)) => {
                    st.faults += 1;
                    st.parked += 1;
                    blocked.entry(id).or_default().push((v, t0));
                }
                PipelineSubmit::Pending(SubmitOutcome::Coalesced(id)) => {
                    st.faults += 1;
                    st.coalesced += 1;
                    blocked.entry(id).or_default().push((v, t0));
                }
                PipelineSubmit::Pending(SubmitOutcome::Completed(_)) => {
                    unreachable!("completed submissions return Ready")
                }
            }
        }
        // Land trailing speculative reads and reclaim work.
        probe.call(Layer::Core, "FluidMemMemory::complete_next_access", || {
            while vm.complete_next_access().is_some() {}
        });
    }

    pub fn measure(&mut self, cfg: &RunConfig, probe: &Probe) -> Outcome {
        let mut out = Outcome::default();
        let opened = VmWindow::open(&mut self.vm, &self.clock, self.tap.as_ref());
        let mut latencies = Sample::new();
        let mut window = CycleStats::default();
        let mut all = CycleStats::default();
        let mut phase = Phase::new(cfg.seconds, self.sizes.window);
        while phase.more() {
            // Inputs are generated before the cycle's clock starts.
            let plan = self.plan();
            let in_window = phase.chunks < phase.window;
            let st = self.cycle(plan, probe, in_window.then_some(&mut latencies));
            for acc in [&mut all]
                .into_iter()
                .chain(in_window.then_some(&mut window))
            {
                acc.accesses += st.accesses;
                acc.faults += st.faults;
                acc.parked += st.parked;
                acc.coalesced += st.coalesced;
                acc.resize_ns += st.resize_ns;
                acc.squeezed_pages += st.squeezed_pages;
                acc.total_ns += st.total_ns;
            }
            if phase.finish_chunk(st.total_ns, st.accesses) {
                opened.close(
                    &mut out,
                    &self.vm,
                    &self.clock,
                    window.accesses,
                    window.faults,
                    &mut latencies,
                );
                out.set("pipeline.parked", window.parked as f64);
                out.set("pipeline.coalesced", window.coalesced as f64);
            }
        }
        let cycles = phase.chunks;
        out.walls = phase.finish();
        out.notes.push(format!(
            "elastic wall split: resizes {:.1}%, scans {:.1}% of {} cycles",
            100.0 * all.resize_ns / all.total_ns,
            100.0 * (1.0 - all.resize_ns / all.total_ns),
            cycles
        ));
        let stats = self.vm.monitor().stats();
        out.notes.push(format!(
            "prefetch gates over the run: {} rounds suppressed as thrashing, {} for headroom; \
             working-set estimate {} pages",
            stats.prefetch_suppressed_thrash,
            stats.prefetch_suppressed_headroom,
            self.vm.monitor().wss_estimate_pages()
        ));
        if probe.enabled() {
            let core_ns = probe.self_ns_of(Layer::Core) as f64;
            out.wall.insert(
                "monitor.ns_per_access".into(),
                core_ns / all.accesses as f64,
            );
            out.wall.insert(
                "monitor.resize_ns_per_page".into(),
                all.resize_ns / all.squeezed_pages.max(1) as f64,
            );
            kv_wall(&mut out, probe);
            telemetry_wall(&mut out, &self.telemetry, probe);
        }
        out.attempted = all.accesses;
        self.verify(&mut out);
        out
    }

    /// Reads every page back and checks it still holds its fill value,
    /// then audits the monitor.
    fn verify(&mut self, out: &mut Outcome) {
        for p in 0..self.sizes.region {
            let (got, _) = self.vm.read_page(self.region.page(p));
            out.attempted += 1;
            if got != token(self.seed, p) {
                out.failed += 1;
            }
        }
        audit_vm(out, &mut self.vm);
    }
}
