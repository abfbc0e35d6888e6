//! `fleet`: one host agent, 256 VMs over one RAMCloud-class store.
//!
//! Each VM draws uniform accesses over a working set twice its DRAM
//! share, 30% writes, on the call-return path (depth 1) with no think
//! time: the agent issues a VM's next access only after its previous
//! one returned. The `slo_guarded` arbiter runs, and every fourth VM
//! holds a p99 SLO tight enough (35 µs) that throttling engages.
//! Pipeline, prefetch, tier and reclaim are off.
//!
//! The access stream is generated inside `HostAgent::step` from RNGs
//! forked off the seed the benchmark passes in — the one workload whose
//! inputs the benchmark does not generate itself.
//!
//! The benchmark drives the arbiter cadence: the host is configured with
//! rebalance interval 0, and the benchmark calls `rebalance_now` after
//! every `N·64` ops, so arbiter rounds are timed apart from `run`.

use std::time::Instant;

use fluidmem_host::{ArbiterPolicy, HostAgent, HostConfig, VmSpec};
use fluidmem_kv::KeyValueStore;
use fluidmem_sim::{SimClock, SimRng};
use fluidmem_telemetry::consts;

use crate::common::{
    check_health, events_since, kv_wall, monitor_virt, ns_since, peak_rss_mb, store_virt,
    telemetry_wall, Events, Outcome, Phase, RunConfig, EVENTS,
};
use crate::kv::{self, KvTap};
use crate::trace::{Layer, Probe};

/// The p99 fault-latency target (µs) every fourth VM holds.
pub const SLO_P99_US: f64 = 35.0;

struct Sizes {
    vms: usize,
    dram_per_vm: u64,
    wss_per_vm: u64,
    /// Chunks (of `vms * 64` ops each) in the virtual window.
    window: u64,
}

impl Sizes {
    fn of(cfg: &RunConfig) -> Sizes {
        if cfg.small {
            Sizes {
                vms: 16,
                dram_per_vm: 64,
                wss_per_vm: 128,
                window: 4,
            }
        } else {
            Sizes {
                vms: 256,
                dram_per_vm: 512,
                wss_per_vm: 1024,
                window: 40,
            }
        }
    }
}

/// Who triggers arbiter rounds.
#[cfg_attr(not(test), allow(dead_code))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cadence {
    /// Interval 0 in the config; the benchmark calls `rebalance_now`
    /// after every chunk (what the benchmark measures).
    Driven,
    /// The agent's own cadence inside `run`, every chunk's worth of ops
    /// (used to check the two give the same virtual results).
    InRun,
}

pub struct Fleet {
    host: HostAgent,
    cadence: Cadence,
    chunk_ops: u64,
    window: u64,
    tap: Option<KvTap>,
    add_vm_ns: f64,
}

pub fn setup(cfg: &RunConfig, probe: &Probe, cadence: Cadence) -> Fleet {
    let s = Sizes::of(cfg);
    let n = s.vms as u64;
    let clock = SimClock::new();
    let aggregate = s.wss_per_vm * n;
    let (store, tap) = kv::ramcloud(aggregate, &clock, cfg.seed, probe);
    let dram = s.dram_per_vm * n;
    let chunk_ops = n * 64;
    let config = HostConfig::new(dram)
        .policy(ArbiterPolicy::SloGuarded)
        .min_pages((dram / (4 * n)).max(8))
        .rebalance_interval(match cadence {
            Cadence::Driven => 0,
            Cadence::InRun => chunk_ops,
        });
    let mut host = HostAgent::new(
        config,
        store,
        clock,
        SimRng::seed_from_u64(cfg.seed ^ 0x9E37_79B9),
    );
    let t = Instant::now();
    for i in 0..s.vms {
        let spec = VmSpec::new(format!("vm{i:03}"), s.wss_per_vm);
        let spec = if i % 4 == 0 {
            spec.slo_p99(SLO_P99_US)
        } else {
            spec
        };
        probe.call(Layer::Host, "HostAgent::add_vm", || host.add_vm(spec));
    }
    let add_vm_ns = ns_since(t) / s.vms as f64;
    let mut fleet = Fleet {
        host,
        cadence,
        chunk_ops,
        window: s.window,
        tap,
        add_vm_ns,
    };
    // Warm-up: one pass over the aggregate working set, on the same
    // cadence as the measured phase.
    for _ in 0..aggregate / chunk_ops {
        fleet.chunk(probe);
    }
    fleet.host.reset_measurements();
    fleet
}

impl Fleet {
    fn chunk(&mut self, probe: &Probe) {
        let host = &mut self.host;
        let ops = self.chunk_ops;
        probe.call(Layer::Host, "HostAgent::run", || host.run(ops));
        if self.cadence == Cadence::Driven {
            probe.call(Layer::Host, "HostAgent::rebalance_now", || {
                host.rebalance_now()
            });
        }
    }

    /// Monitor events summed over every VM, from the host's telemetry.
    fn events(&self) -> Events {
        let registry = self.host.telemetry().registry();
        let mut totals = Events::new();
        for i in 0..self.host.vm_count() {
            let vm = self.host.vm_name(i);
            for (event, _) in EVENTS {
                let c = registry.counter(
                    consts::MONITOR_EVENTS,
                    &[(consts::LABEL_EVENT, event), (consts::LABEL_VM, vm)],
                );
                *totals.entry(event).or_default() += c.get();
            }
        }
        totals
    }

    fn rebalances(&self) -> u64 {
        self.host
            .telemetry()
            .registry()
            .counter(consts::HOST_EVENTS, &[(consts::LABEL_EVENT, "rebalance")])
            .get()
    }

    pub fn measure(&mut self, cfg: &RunConfig, probe: &Probe) -> Outcome {
        let mut out = Outcome::default();
        let ev0 = self.events();
        let store0 = self.host.store_stats();
        let kv0 = self.tap.as_ref().map(KvTap::counts);
        let rebalances0 = self.rebalances();
        let slo0 = self.host.slo_violations();
        let mut phase = Phase::new(cfg.seconds, self.window);
        while phase.more() {
            let t = Instant::now();
            self.chunk(probe);
            if phase.finish_chunk(ns_since(t), self.chunk_ops) {
                out.window_rss_mb = peak_rss_mb();
                let ops = self.host.total_measured_ops();
                let faults: u64 = (0..self.host.vm_count())
                    .map(|i| self.host.vm_faults(i))
                    .sum();
                let window_s = self.host.measurement_window().as_secs_f64();
                out.set("accesses", ops as f64);
                out.set("fault_samples", faults as f64);
                out.set("fault_p50_us", self.host.aggregate_fault_percentile(0.50));
                out.set("fault_p99_us", self.host.aggregate_fault_percentile(0.99));
                out.set("virtual_ops_per_s", ops as f64 / window_s);
                let ev = events_since(&self.events(), &ev0);
                monitor_virt(&mut out, &ev, ops, faults);
                out.set("host.rebalances", (self.rebalances() - rebalances0) as f64);
                out.set(
                    "host.slo_violation_windows",
                    (self.host.slo_violations() - slo0) as f64,
                );
                store_virt(
                    &mut out,
                    &store0,
                    &self.host.store_stats(),
                    self.host.store().len(),
                );
                if let (Some(tap), Some(kv0)) = (&self.tap, &kv0) {
                    out.kv = Some(tap.counts().since(kv0));
                }
            }
            // Drop the host's per-access latency samples once per window
            // so memory stays bounded however long the phase runs. Right
            // after an arbiter round this changes no simulated state.
            if phase.chunks.is_multiple_of(self.window) {
                self.host.reset_measurements();
            }
        }
        let measured = phase.chunks * self.chunk_ops;
        out.walls = phase.finish();
        out.attempted = measured;
        if self.host.floor_misses() > 0 {
            out.problems.push(format!(
                "arbiter planned {} SLO-throttled VMs below the floor",
                self.host.floor_misses()
            ));
        }
        check_health(&mut out, &self.events());
        if probe.enabled() {
            let run = probe.stats("HostAgent::run");
            out.wall.insert(
                "host.run_ns_per_access".into(),
                run.self_ns as f64 / measured as f64,
            );
            out.wall.insert(
                "host.rebalance_us".into(),
                probe.stats("HostAgent::rebalance_now").mean_ns() / 1e3,
            );
            out.wall
                .insert("host.add_vm_ms".into(), self.add_vm_ns / 1e6);
            kv_wall(&mut out, probe);
            telemetry_wall(&mut out, self.host.telemetry(), probe);
        }
        out
    }
}
