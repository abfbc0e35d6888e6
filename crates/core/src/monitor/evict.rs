//! The evictor and flusher stages: moving pages out of the local buffer
//! and onto the write list, and flushing the write list to the store.
//!
//! There is one eviction routine, [`Monitor::evict_one`]: `UFFD_REMAP`
//! the victim, start its TLB shootdown, offer it to the compressed tier,
//! and push it onto the write list. It runs on one of two timelines
//! ([`Timeline`]). On the fault clock it is the inline evictor (and, with
//! background reclaim on, direct reclaim): its CPU lands on the fault
//! path, which is §V-B's "at a time when the vCPU thread was already
//! suspended" when a read is in flight. On the background evictor's
//! private cursor (`monitor/reclaim.rs`) the same steps cost the fault
//! path nothing. Spans are stamped at explicit instants on either
//! timeline, on the track of the thread that owns it (`monitor` or
//! `evictor`); only fault-clock evictions feed Table I's `UFFD_REMAP`
//! row, which profiles the fault handler.

use fluidmem_kv::KvError;
use fluidmem_mem::{PageTable, PhysicalMemory};
use fluidmem_sim::{SimClock, SimDuration, SimInstant};
use fluidmem_telemetry::consts;
use fluidmem_uffd::Userfaultfd;

use super::Monitor;
use crate::config::EvictionMechanism;
use crate::profile::CodePath;

/// The timeline an eviction's CPU is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(in crate::monitor) enum Timeline {
    /// The shared clock the fault handler runs on: inline eviction and
    /// direct reclaim.
    Fault,
    /// The background evictor's private cursor, which never moves the
    /// shared clock.
    Evictor(SimInstant),
}

impl Timeline {
    /// Where this timeline has reached.
    pub(in crate::monitor) fn now(self, clock: &SimClock) -> SimInstant {
        match self {
            Timeline::Fault => clock.now(),
            Timeline::Evictor(t) => t,
        }
    }

    /// The span track of the thread this timeline belongs to.
    fn track(self) -> &'static str {
        match self {
            Timeline::Fault => consts::TRACK_MONITOR,
            Timeline::Evictor(_) => consts::TRACK_EVICTOR,
        }
    }

    /// Charges `cost` to this timeline and returns where it now stands.
    pub(in crate::monitor) fn spend(&mut self, clock: &SimClock, cost: SimDuration) -> SimInstant {
        match self {
            Timeline::Fault => clock.advance(cost),
            Timeline::Evictor(t) => {
                *t += cost;
                *t
            }
        }
    }
}

impl Monitor {
    /// Evicts on the fault clock until `free` more pages fit under the
    /// capacity (`resident + free <= capacity`): `free = 1` makes room
    /// for a faulted page about to be inserted ("triggered ... when the
    /// number of pages reaches the configured maximum size and another
    /// page fault arrives"), `free = 0` brings the buffer back under
    /// capacity after a resize or an insert.
    ///
    /// The capacity is intentionally not clamped to 1 — a zero-page
    /// quota (capability-style revocation, §VI-E) must drain the buffer
    /// completely rather than pinning one resident page forever.
    pub(in crate::monitor) fn make_room(
        &mut self,
        uffd: &mut Userfaultfd,
        pt: &mut PageTable,
        pm: &mut PhysicalMemory,
        free: u64,
    ) {
        // Background-first: give the watermark evictor a chance to have
        // made (or make) room, so the loop below is a fallback.
        self.maybe_background_reclaim(uffd, pt, pm);
        while self.lru.len() + free > self.lru.capacity() {
            if !self.evict_one(uffd, pt, pm, &mut Timeline::Fault) {
                break;
            }
            if self.reclaim_active() {
                self.stats.direct_reclaims.inc();
            }
        }
    }

    /// Evicts one page from the top of the LRU, charging its CPU to
    /// `timeline`. Returns `false` if the buffer is empty.
    ///
    /// The page leaves the VM at once; the TLB shootdown handle and the
    /// write-list `ready_at` are stamped from `timeline`, so the page
    /// stays unflushable until its shootdown completes there.
    pub(in crate::monitor) fn evict_one(
        &mut self,
        uffd: &mut Userfaultfd,
        pt: &mut PageTable,
        pm: &mut PhysicalMemory,
        timeline: &mut Timeline,
    ) -> bool {
        let Some(victim) = self.lru.pop_victim() else {
            return false;
        };
        // Shadow entry at pop time, exactly once per eviction: the store
        // write may fail and retry (or the flushed batch may be
        // requeued), but the page leaves the LRU exactly here.
        self.workingset.record_eviction(victim);
        // A prefetched page evicted before the guest ever touched it was
        // a wasted remote read; the emptiness check keeps the policy-off
        // eviction path to a single branch.
        if !self.prefetch_pending_touch.is_empty()
            && self.prefetch_pending_touch.remove(&victim).is_some()
        {
            self.stats.prefetch_wasted.inc();
        }
        let key = self.key(victim);

        let t0 = timeline.now(&self.clock);
        let (contents, handle, cpu) = uffd
            .remap(pt, pm, victim, t0)
            .expect("LRU pages are mapped in the VM");
        timeline.spend(&self.clock, cpu);
        let ready_at = match self.config.eviction {
            EvictionMechanism::Remap => {
                // The cross-CPU TLB shootdown completes in the background.
                self.telemetry.record_span(
                    consts::TRACK_KERNEL,
                    "tlb.shootdown",
                    t0,
                    handle.completes_at(),
                );
                handle.completes_at()
            }
            EvictionMechanism::Copy => {
                // Zero-copy ablation: UFFD_COPY-style eviction copies the
                // page out instead; no cross-CPU wait, but a 4 KB copy.
                let copy_cost = uffd.costs().copy.sample(&mut self.rng);
                timeline.spend(&self.clock, copy_cost)
            }
        };
        if !self.config.optimizations.async_write
            && self.config.eviction == EvictionMechanism::Remap
        {
            // Synchronous writes need the shootdown done before staging
            // (only on the fault clock: reclaim requires async_write).
            uffd.wait_remap(handle);
        }
        let t1 = timeline.now(&self.clock);
        self.telemetry
            .spans()
            .record_at(timeline.track(), "UFFD_REMAP", t0, t1, || {
                vec![("vpn", format!("{victim}"))]
            });
        if *timeline == Timeline::Fault {
            self.profile.record(CodePath::UffdRemap, t1 - t0);
        }

        self.stats.evictions.inc();

        if self.config.optimizations.async_write {
            // The compressed tier gets first refusal; only bypassed pages
            // (tier off, thrash gate, incompressible) stage for writeback,
            // and stay stealable until the batch flush retires them.
            if let Some(contents) = self.tier_try_admit(key, contents, timeline) {
                let push = self.config.costs.write_list_push.sample(&mut self.rng);
                let start = timeline.now(&self.clock);
                let end = timeline.spend(&self.clock, push);
                self.telemetry.spans().record_at(
                    timeline.track(),
                    "write_list_push",
                    start,
                    end,
                    || vec![("key", format!("{key}"))],
                );
                self.write_list.push(key, contents, ready_at);
            }
        } else {
            self.charge(&self.config.costs.sync_write_staging.clone());
            let t0 = self.clock.now();
            self.put_with_retries(key, contents);
            self.profile
                .record(CodePath::WritePage, self.clock.now() - t0);
        }
        true
    }

    /// Flushes the write list when it is long enough or stale enough
    /// (§V-B: "a separate thread periodically flushes the write list ...
    /// when its size has reached a configured batch size of pages or a
    /// stale file descriptor has been found").
    pub fn maybe_flush(&mut self) {
        let now = self.clock.now();
        self.write_list.retire(now);
        let stale = self
            .write_list
            .oldest_pending()
            .is_some_and(|t| now.saturating_since(t) > self.config.flush_interval);
        if self.write_list.pending_len() >= self.config.write_batch_size || stale {
            self.flush_batch();
        }
        self.write_list_pending
            .set(self.write_list.pending_len() as i64);
    }

    fn flush_batch(&mut self) {
        let batch = self
            .write_list
            .take_batch(self.config.write_batch_size, self.clock.now());
        if batch.is_empty() {
            return;
        }
        let retained = batch.clone();
        match self.store.begin_multi_write(batch) {
            Ok(pending) => {
                let completes_at = pending.completes_at();
                // The batch's flight on the kv track, like a read's.
                self.telemetry.record_span(
                    consts::TRACK_KV,
                    "kv.multi_write.flight",
                    pending.issued_at(),
                    completes_at,
                );
                // The flusher thread owns the bottom half; the critical
                // path only remembers the batch for stealing.
                self.write_list.mark_inflight(retained, completes_at);
                self.stats.flushes.inc();
            }
            Err(e) if e.is_retryable() => {
                // The batch goes back on the write list (already past its
                // TLB shootdown, so immediately flushable again); the next
                // flush opportunity retries it. Page writes are
                // idempotent, so a timed-out-but-applied batch re-flushing
                // is harmless. No data is lost either way: the freshest
                // copy stays local and stealable — `requeue` skips any key
                // re-evicted with newer contents in the meantime rather
                // than clobbering it with the stale batch copy.
                self.stats.flush_failures.inc();
                let now = self.clock.now();
                self.write_list.requeue(retained, now);
            }
            Err(e) => panic!("store failure on flush: {e}"),
        }
    }

    /// Flushes and waits for every outstanding write (shutdown, or test
    /// synchronization).
    pub fn drain_writes(&mut self) {
        // A drain must leave every page durable in the store: demote the
        // whole compressed pool onto the write list first (charge-free —
        // shutdown work, not a fault or evictor timeline).
        while let Some((key, contents)) = self.tier.pop_oldest() {
            self.stats.tier_demotions.inc();
            self.write_list.push(key, contents, self.clock.now());
        }
        let policy = self.config.retry;
        loop {
            // Waiting for pending shootdowns makes everything flushable.
            if let Some(t) = self.write_list.oldest_pending() {
                self.clock.advance_to(t);
            }
            let batch = self.write_list.take_batch(usize::MAX, self.clock.now());
            if batch.is_empty() {
                break;
            }
            let mut tries = 0u32;
            let result: Result<(), KvError> = {
                let Monitor {
                    store,
                    clock,
                    rng,
                    stats,
                    ..
                } = self;
                let clock = &*clock;
                fluidmem_kv::run_with_retries_from(
                    &policy,
                    clock,
                    rng,
                    0,
                    |_, _| {
                        tries += 1;
                        stats.write_retries.inc();
                    },
                    |_| store.multi_write(batch.clone()),
                )
            };
            if let Err(e) = result {
                panic!("store failure on drain after {tries} retries: {e}");
            }
            self.stats.flushes.inc();
        }
        self.write_list.retire(SimInstant::from_nanos(u64::MAX));
        self.update_gauges();
    }
}
