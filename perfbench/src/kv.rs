//! A forwarding `KeyValueStore` that times and counts every call.
//!
//! The traced run hands the program this wrapper instead of the bare
//! store. Every trait method forwards to the wrapped store unchanged —
//! including the ones with default bodies, so the wrapped store's own
//! overrides still run — which keeps virtual time identical to the
//! untraced run; only wall time is added.

use std::cell::RefCell;
use std::rc::Rc;

use fluidmem_coord::PartitionId;
use fluidmem_kv::{
    ExternalKey, KeyValueStore, KvError, PendingGet, PendingWrite, RamCloudStore, StoreStats,
};
use fluidmem_mem::PageContents;
use fluidmem_sim::{SimClock, SimRng};
use fluidmem_telemetry::Registry;

use crate::trace::{Layer, Probe};

/// The store operations timed one by one, in report order.
pub const OPS: [&str; 8] = [
    "get",
    "begin_get",
    "finish_get",
    "put",
    "multi_write",
    "begin_multi_write",
    "finish_write",
    "delete",
];

/// Span names of [`OPS`], as the tracer records them.
pub const SPAN_NAMES: [&str; 8] = [
    "kv::get",
    "kv::begin_get",
    "kv::finish_get",
    "kv::put",
    "kv::multi_write",
    "kv::begin_multi_write",
    "kv::finish_write",
    "kv::delete",
];

/// Call counts, kept apart from timing so they repeat exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvCounts {
    pub calls: [u64; 8],
    /// Pages carried by `multi_write` and `begin_multi_write` batches.
    pub batched_pages: u64,
    /// Reads (`get` or `finish_get`) that returned `NotFound`.
    pub get_misses: u64,
}

impl KvCounts {
    pub fn since(&self, base: &KvCounts) -> KvCounts {
        let mut calls = [0; 8];
        for (i, c) in calls.iter_mut().enumerate() {
            *c = self.calls[i] - base.calls[i];
        }
        KvCounts {
            calls,
            batched_pages: self.batched_pages - base.batched_pages,
            get_misses: self.get_misses - base.get_misses,
        }
    }

    pub fn batches(&self) -> u64 {
        self.calls[4] + self.calls[5]
    }
}

/// Shared view of a [`TimedStore`]'s counts, kept by the benchmark
/// after the store itself is handed to the program.
#[derive(Clone, Default)]
pub struct KvTap {
    counts: Rc<RefCell<KvCounts>>,
}

impl KvTap {
    pub fn counts(&self) -> KvCounts {
        *self.counts.borrow()
    }
}

/// The store every workload runs on: RAMCloud-class, with room for
/// `pages` pages at 4x headroom (records hold token contents, not real
/// frames, so the log cleaner stays off the hot path). When `probe`
/// records spans the store is wrapped in a [`TimedStore`], whose counts
/// the returned tap reads.
pub fn ramcloud(
    pages: u64,
    clock: &SimClock,
    seed: u64,
    probe: &Probe,
) -> (Box<dyn KeyValueStore>, Option<KvTap>) {
    let store = RamCloudStore::new(
        pages as usize * 4096 * 4,
        clock.clone(),
        SimRng::seed_from_u64(seed),
    );
    if probe.enabled() {
        let (store, tap) = TimedStore::new(store, probe.clone());
        (Box::new(store), Some(tap))
    } else {
        (Box::new(store), None)
    }
}

pub struct TimedStore<S: KeyValueStore> {
    inner: S,
    probe: Probe,
    tap: KvTap,
}

impl<S: KeyValueStore> TimedStore<S> {
    pub fn new(inner: S, probe: Probe) -> (Self, KvTap) {
        let tap = KvTap::default();
        let store = TimedStore {
            inner,
            probe,
            tap: tap.clone(),
        };
        (store, tap)
    }

    fn timed<R>(&mut self, op: usize, f: impl FnOnce(&mut S) -> R) -> R {
        self.tap.counts.borrow_mut().calls[op] += 1;
        let inner = &mut self.inner;
        self.probe.call(Layer::Kv, SPAN_NAMES[op], || f(inner))
    }

    fn note_read<T>(&self, r: &Result<T, KvError>) {
        if matches!(r, Err(KvError::NotFound(_))) {
            self.tap.counts.borrow_mut().get_misses += 1;
        }
    }
}

impl<S: KeyValueStore> KeyValueStore for TimedStore<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn get(&mut self, key: ExternalKey) -> Result<PageContents, KvError> {
        let r = self.timed(0, |s| s.get(key));
        self.note_read(&r);
        r
    }

    fn begin_get(&mut self, key: ExternalKey) -> PendingGet {
        self.timed(1, |s| s.begin_get(key))
    }

    fn finish_get(&mut self, pending: PendingGet) -> Result<PageContents, KvError> {
        let r = self.timed(2, |s| s.finish_get(pending));
        self.note_read(&r);
        r
    }

    fn put(&mut self, key: ExternalKey, value: PageContents) -> Result<(), KvError> {
        self.timed(3, |s| s.put(key, value))
    }

    fn multi_write(&mut self, batch: Vec<(ExternalKey, PageContents)>) -> Result<(), KvError> {
        self.tap.counts.borrow_mut().batched_pages += batch.len() as u64;
        self.timed(4, |s| s.multi_write(batch))
    }

    fn begin_multi_write(
        &mut self,
        batch: Vec<(ExternalKey, PageContents)>,
    ) -> Result<PendingWrite, KvError> {
        self.tap.counts.borrow_mut().batched_pages += batch.len() as u64;
        self.timed(5, |s| s.begin_multi_write(batch))
    }

    fn finish_write(&mut self, pending: PendingWrite) {
        self.timed(6, |s| s.finish_write(pending))
    }

    fn delete(&mut self, key: ExternalKey) -> bool {
        self.timed(7, |s| s.delete(key))
    }

    fn drop_partition(&mut self, partition: PartitionId) -> u64 {
        self.inner.drop_partition(partition)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn contains(&self, key: ExternalKey) -> bool {
        self.inner.contains(key)
    }

    fn partition_keys(&self, partition: PartitionId) -> Vec<ExternalKey> {
        self.inner.partition_keys(partition)
    }

    fn peek(&self, key: ExternalKey) -> Option<PageContents> {
        self.inner.peek(key)
    }

    fn ingest(&mut self, key: ExternalKey, value: PageContents) -> Result<(), KvError> {
        self.inner.ingest(key, value)
    }

    fn expunge(&mut self, key: ExternalKey) -> bool {
        self.inner.expunge(key)
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn instrument(&mut self, registry: &Registry) {
        self.inner.instrument(registry)
    }
}
