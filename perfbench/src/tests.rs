//! Self-tests of the benchmark: the wrapper is transparent, the
//! benchmark-driven arbiter cadence equals the agent's own, and inputs
//! follow the seed. All at test sizes, with `seconds = 0` so only the
//! fixed virtual window runs.

use fluidmem_coord::PartitionId;
use fluidmem_kv::{ExternalKey, KeyValueStore, RamCloudStore};
use fluidmem_mem::{PageContents, Vpn};
use fluidmem_sim::{SimClock, SimRng};

use crate::common::RunConfig;
use crate::kv::TimedStore;
use crate::trace::Tracer;
use crate::{elastic, fleet, manifest, run_once, virt_diff, writeback, WORKLOADS};

fn small(seed: u64) -> RunConfig {
    RunConfig {
        seed,
        seconds: 0.0,
        small: true,
    }
}

#[test]
fn timed_store_forwards_every_method() {
    let run = |wrapped: bool| {
        let clock = SimClock::new();
        let store = RamCloudStore::new(1 << 24, clock.clone(), SimRng::seed_from_u64(5));
        let mut s: Box<dyn KeyValueStore> = if wrapped {
            Box::new(TimedStore::new(store, Tracer::new(true)).0)
        } else {
            Box::new(store)
        };
        let p = PartitionId::new(1);
        let key = |i| ExternalKey::new(Vpn::new(i), p);
        let mut log = Vec::new();
        log.push(format!("{:?}", s.put(key(1), PageContents::Token(11))));
        log.push(format!(
            "{:?}",
            s.multi_write(vec![
                (key(2), PageContents::Token(22)),
                (key(3), PageContents::Zero)
            ])
        ));
        let w = s
            .begin_multi_write(vec![(key(4), PageContents::Token(44))])
            .expect("store has room");
        s.finish_write(w);
        log.push(format!("{:?}", s.get(key(2))));
        let g = s.begin_get(key(4));
        log.push(format!("{:?}", s.finish_get(g)));
        log.push(format!("{:?}", s.get(key(9))));
        log.push(format!("{}", s.delete(key(3))));
        log.push(format!(
            "{} {} {}",
            s.len(),
            s.is_empty(),
            s.contains(key(1))
        ));
        log.push(format!("{:?}", s.partition_keys(p)));
        log.push(format!("{:?}", s.peek(key(1))));
        log.push(format!("{:?}", s.ingest(key(5), PageContents::Token(55))));
        log.push(format!("{}", s.expunge(key(5))));
        log.push(format!("{}", s.drop_partition(p)));
        log.push(format!("{:?} {}", s.stats(), s.name()));
        log.push(format!("{:?}", clock.now()));
        log
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn traced_and_untraced_virtual_metrics_match() {
    for w in WORKLOADS {
        let (plain, _) = run_once(w, &small(7), false);
        let (traced, probe) = run_once(w, &small(7), true);
        assert!(plain.problems.is_empty(), "{w}: {:?}", plain.problems);
        assert!(traced.problems.is_empty(), "{w}: {:?}", traced.problems);
        assert_eq!(plain.failed + traced.failed, 0, "{w}");
        assert_eq!(virt_diff(&plain, &traced), Vec::<String>::new(), "{w}");
        let kv = traced.kv.expect("traced runs count store calls");
        assert!(kv.calls.iter().sum::<u64>() > 0, "{w}: no store calls seen");
        assert!(
            probe.stats("kv::begin_get").calls > 0,
            "{w}: no timed reads"
        );
    }
}

#[test]
fn driven_cadence_matches_in_run_cadence() {
    let cfg = small(11);
    let probe = Tracer::new(false);
    let driven = fleet::setup(&cfg, &probe, fleet::Cadence::Driven).measure(&cfg, &probe);
    let in_run = fleet::setup(&cfg, &probe, fleet::Cadence::InRun).measure(&cfg, &probe);
    assert!(driven.virt["host.rebalances"] > 0.0);
    assert_eq!(virt_diff(&driven, &in_run), Vec::<String>::new());
}

#[test]
fn same_seed_repeats_and_another_seed_differs() {
    for w in WORKLOADS {
        let (a, _) = run_once(w, &small(3), false);
        let (b, _) = run_once(w, &small(3), false);
        let (c, _) = run_once(w, &small(4), false);
        assert_eq!(virt_diff(&a, &b), Vec::<String>::new(), "{w}");
        assert!(!virt_diff(&a, &c).is_empty(), "{w}: seeds 3 and 4 agree");
    }
}

#[test]
fn another_seed_gives_other_inputs() {
    let probe = Tracer::new(false);
    let plan = |seed| elastic::setup(&small(seed), &probe).plan();
    assert_eq!(plan(3), plan(3));
    assert_ne!(plan(3), plan(4));
    let plan = |seed| writeback::setup(&small(seed), &probe).plan_digest();
    assert_eq!(plan(3), plan(3));
    assert_ne!(plan(3), plan(4));
}

#[test]
fn benchmark_json_lists_the_metrics_the_binary_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let compact = |s: &str| s.split_whitespace().collect::<String>();
    let spec = compact(&text);
    let listed = compact(&manifest());
    let lists = listed.trim_start_matches('{').trim_end_matches('}');
    assert!(
        spec.contains(lists),
        "BENCHMARK.json's end_to_end and per_layer lists differ from `perfbench --manifest`"
    );
}
