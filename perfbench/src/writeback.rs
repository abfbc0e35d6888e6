//! `writeback`: one VM on the call-return path with the compressed
//! tier and background reclaim, writing and reading real contents.
//!
//! Accesses are uniform over 1.5× the VM's DRAM. Half are `write_page`
//! with generated contents — about 60% token pages, 10% zero pages and
//! 30% incompressible bytes — and half are `read_page`, each checked
//! against the benchmark's shadow copy of the page. Eviction, write-list
//! flushes, tier admission, promotion and bypass, and RLE sizing do the
//! work; the pipeline, the prefetcher and the host are not used.
//!
//! Closed loop with one guest thread: each access is issued a fixed
//! think time after the previous one returned.

use std::time::Instant;

use fluidmem_coord::PartitionId;
use fluidmem_core::{FluidMemMemory, MonitorConfig, ReclaimConfig, TierConfig};
use fluidmem_mem::PAGE_SIZE;
use fluidmem_mem::{AccessOutcome, AccessReport, MemoryBackend, PageClass, PageContents, Region};
use fluidmem_sim::stats::Sample;
use fluidmem_sim::{SimClock, SimDuration, SimRng};
use fluidmem_telemetry::Telemetry;

use crate::common::{
    audit_vm, kv_wall, ns_since, telemetry_wall, Outcome, Phase, RunConfig, VmWindow,
};
use crate::kv::{self, KvTap};
use crate::trace::{Layer, Probe};

/// Guest compute between accesses.
pub const THINK: SimDuration = SimDuration::from_micros(5);
const WRITE_FRACTION: f64 = 0.5;

struct Sizes {
    dram: u64,
    region: u64,
    chunk: usize,
    /// Chunks in the virtual window.
    window: u64,
}

impl Sizes {
    fn of(cfg: &RunConfig) -> Sizes {
        let (dram, chunk, window) = if cfg.small {
            (512, 1024, 2)
        } else {
            (8192, 8192, 8)
        };
        Sizes {
            dram,
            region: dram * 3 / 2,
            chunk,
            window,
        }
    }

    /// The compressed pool's byte budget.
    fn pool_bytes(&self) -> usize {
        self.region as usize * 512
    }
}

/// A page's contents, compactly: what the shadow copy keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Desc {
    Zero,
    Token(u64),
    /// Incompressible bytes generated from this seed.
    Bytes(u64),
}

impl Desc {
    fn draw(rng: &mut SimRng) -> Desc {
        match rng.gen_index(10) {
            0..=5 => Desc::Token(rng.gen_u64() | 1),
            6 => Desc::Zero,
            _ => Desc::Bytes(rng.gen_u64()),
        }
    }

    fn contents(self) -> PageContents {
        match self {
            Desc::Zero => PageContents::Zero,
            Desc::Token(t) => PageContents::Token(t),
            Desc::Bytes(seed) => {
                let mut x = seed | 1;
                let mut buf = vec![0u8; PAGE_SIZE];
                for word in buf.chunks_exact_mut(8) {
                    x = x
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    word.copy_from_slice(&(x ^ (x >> 29)).to_le_bytes());
                }
                PageContents::Bytes(buf.into_boxed_slice())
            }
        }
    }
}

enum Op {
    Write(u64, PageContents),
    Read(u64, Desc),
}

pub struct Writeback {
    vm: FluidMemMemory,
    region: Region,
    clock: SimClock,
    telemetry: Telemetry,
    inputs: SimRng,
    shadow: Vec<Desc>,
    sizes: Sizes,
    tap: Option<KvTap>,
    access_id: u64,
}

/// One chunk's counts, as the benchmark sees them.
#[derive(Debug, Default, Clone, Copy)]
struct ChunkStats {
    accesses: u64,
    faults: u64,
    failed: u64,
}

pub fn setup(cfg: &RunConfig, probe: &Probe) -> Writeback {
    let sizes = Sizes::of(cfg);
    let clock = SimClock::new();
    let (store, tap) = kv::ramcloud(sizes.region, &clock, cfg.seed, probe);
    let config = MonitorConfig::new(sizes.dram)
        .reclaim(ReclaimConfig::kswapd())
        .tier(TierConfig::pool(sizes.pool_bytes()));
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
    let mut inputs = SimRng::seed_from_u64(cfg.seed).fork("writeback-inputs");
    let shadow: Vec<Desc> = (0..sizes.region).map(|_| Desc::draw(&mut inputs)).collect();
    for (p, d) in shadow.iter().enumerate() {
        let contents = d.contents();
        probe.call(Layer::Core, "FluidMemMemory::write_page", || {
            vm.write_page(region.page(p as u64), contents)
        });
    }
    let mut wb = Writeback {
        vm,
        region,
        clock,
        telemetry,
        inputs,
        shadow,
        sizes,
        tap,
        access_id: 0,
    };
    // Warm-up: two chunks, so the pool and the store reach steady state.
    for _ in 0..2 {
        let ops = wb.plan();
        wb.chunk(ops, probe, None);
    }
    wb
}

impl Writeback {
    /// One chunk's accesses, advancing the shadow copy as it goes so
    /// every read carries the contents it must return.
    fn plan(&mut self) -> Vec<Op> {
        (0..self.sizes.chunk)
            .map(|_| {
                let page = self.inputs.gen_index(self.sizes.region);
                if self.inputs.gen_bool(WRITE_FRACTION) {
                    let d = Desc::draw(&mut self.inputs);
                    self.shadow[page as usize] = d;
                    Op::Write(page, d.contents())
                } else {
                    Op::Read(page, self.shadow[page as usize])
                }
            })
            .collect()
    }

    /// One chunk's access pattern and the shadow copy after it.
    #[cfg(test)]
    pub(crate) fn plan_digest(&mut self) -> (Vec<(u64, bool)>, String) {
        let ops = self.plan();
        let pattern = ops
            .iter()
            .map(|op| match op {
                Op::Write(page, _) => (*page, true),
                Op::Read(page, _) => (*page, false),
            })
            .collect();
        (pattern, format!("{:?}", self.shadow))
    }

    /// Runs one chunk; returns its counts and the wall ns spent in it.
    fn chunk(
        &mut self,
        ops: Vec<Op>,
        probe: &Probe,
        mut latencies: Option<&mut Sample>,
    ) -> (ChunkStats, f64) {
        let mut st = ChunkStats::default();
        let mut reads: Vec<(Desc, PageContents)> = Vec::with_capacity(ops.len());
        let vm = &mut self.vm;
        let region = self.region;
        let start = Instant::now();
        for op in ops {
            self.clock.advance(THINK);
            probe.call(
                Layer::Core,
                "FluidMemMemory::poll_ready_completions",
                || vm.poll_ready_completions(),
            );
            self.access_id += 1;
            probe.set_access(self.access_id);
            let report: AccessReport = match op {
                Op::Write(page, contents) => {
                    probe.call(Layer::Core, "FluidMemMemory::write_page", || {
                        vm.write_page(region.page(page), contents)
                    })
                }
                Op::Read(page, expect) => {
                    let (got, report) =
                        probe.call(Layer::Core, "FluidMemMemory::read_page", || {
                            vm.read_page(region.page(page))
                        });
                    reads.push((expect, got));
                    report
                }
            };
            st.accesses += 1;
            if report.outcome != AccessOutcome::Hit {
                st.faults += 1;
                if let Some(s) = latencies.as_deref_mut() {
                    s.record_duration(report.latency);
                }
            }
        }
        let ns = ns_since(start);
        // Checked after the clock stops: the shadow comparison is the
        // benchmark's work, not the program's.
        st.failed = reads
            .iter()
            .filter(|(expect, got)| *got != expect.contents())
            .count() as u64;
        (st, ns)
    }

    pub fn measure(&mut self, cfg: &RunConfig, probe: &Probe) -> Outcome {
        let mut out = Outcome::default();
        let opened = VmWindow::open(&mut self.vm, &self.clock, self.tap.as_ref());
        let mut latencies = Sample::new();
        let mut window = ChunkStats::default();
        let mut accesses = 0;
        let mut phase = Phase::new(cfg.seconds, self.sizes.window);
        while phase.more() {
            let ops = self.plan();
            let in_window = phase.chunks < phase.window;
            let (st, ns) = self.chunk(ops, probe, in_window.then_some(&mut latencies));
            accesses += st.accesses;
            out.failed += st.failed;
            if in_window {
                window.accesses += st.accesses;
                window.faults += st.faults;
            }
            if phase.finish_chunk(ns, st.accesses) {
                opened.close(
                    &mut out,
                    &self.vm,
                    &self.clock,
                    window.accesses,
                    window.faults,
                    &mut latencies,
                );
            }
        }
        out.attempted = accesses;
        out.walls = phase.finish();
        out.notes.push(format!(
            "working-set estimate {} pages over {} DRAM pages; pool {} pages, {} bytes",
            self.vm.monitor().wss_estimate_pages(),
            self.sizes.dram,
            self.vm.monitor().tier_pages(),
            self.vm.monitor().tier_bytes()
        ));
        if probe.enabled() {
            let core_ns = probe.self_ns_of(Layer::Core) as f64;
            out.wall
                .insert("monitor.ns_per_access".into(), core_ns / accesses as f64);
            kv_wall(&mut out, probe);
            telemetry_wall(&mut out, &self.telemetry, probe);
        }
        audit_vm(&mut out, &mut self.vm);
        out
    }
}
