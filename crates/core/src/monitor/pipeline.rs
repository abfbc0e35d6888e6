//! The pipelined driver of the fault path: explicit in-flight
//! operations on a deterministic event queue.
//!
//! FluidMem's real monitor is multi-threaded: several fault handlers
//! block in store reads while the evictor drains the write list. This
//! module models that overlap without threads. [`Monitor::submit_fault`]
//! runs the fault path's start stage and, if the fault has to wait on
//! the store (or on an in-flight write), parks the returned stage in the
//! [`InflightTable`] keyed by its completion instant;
//! [`Monitor::complete_next`] pops the earliest completion off the
//! [`EventQueue`] and runs the finish stage. The call-return driver,
//! [`Monitor::handle_fault`], runs the same finish stage inline.
//!
//! Determinism: the queue orders strictly by `(completes_at, seq)`, seq
//! being submission order, so the schedule is a pure function of the
//! seed — two runs with the same seed interleave identically. At
//! `max_inflight = 1` every fault completes before the next is
//! submitted, so both drivers run the same stages in the same order
//! (same clock charges, same RNG draws, same telemetry).

use fluidmem_kv::PendingGet;
use fluidmem_mem::{PageTable, PhysicalMemory, Vpn};
use fluidmem_sim::{EventQueue, SimInstant};
use fluidmem_uffd::Userfaultfd;

use super::stages::{FaultStage, FaultStart};
use super::{FaultIntake, FaultResolution, Monitor, Resolution};

/// A speculative (prefetch) read in flight: no guest vCPU waits on it.
/// Completion installs the page and wakes nothing; a demand fault
/// arriving first adopts the flight and pays only the remaining flight
/// time. Speculative operations live in their own slab and are *not*
/// counted against [`MonitorConfig::max_inflight`](crate::MonitorConfig)
/// — the depth bounds faults holding vCPUs, and nothing blocks on these.
pub(in crate::monitor) struct PrefetchFlight {
    pub(in crate::monitor) vpn: Vpn,
    pub(in crate::monitor) pending: PendingGet,
}

/// One in-flight fault operation: the submitting fault's intake, the
/// stage it waits on, and the faults coalesced onto it. A waiter shares
/// the operation's outcome and wake instant but keeps its own span and
/// admission time for latency accounting.
struct InflightFault {
    id: u64,
    intake: FaultIntake,
    stage: FaultStage,
    waiters: Vec<FaultIntake>,
}

/// An entry on the completion queue: a fault operation finishing, or a
/// background-reclaim activation interleaved into the same total order.
enum QueueItem {
    /// A fault operation: its monotonically increasing id plus the slab
    /// slot it lives in, so completion is an O(1) indexed take (the id
    /// guards against a recycled slot).
    Fault {
        id: u64,
        slot: u32,
    },
    /// A speculative read completing: handled transparently (install,
    /// no wake) while the caller keeps waiting for a demand completion.
    /// Same id-guarded slab addressing as `Fault`, over the prefetch
    /// slab — an adopted flight leaves a stale entry behind.
    Prefetch {
        id: u64,
        slot: u32,
    },
    Reclaim,
}

/// The in-flight operation table: a slab of operation slots plus the
/// completion queue that orders them. Slots and waiter buffers are
/// recycled, so sustained fault traffic at any depth stops allocating
/// once the slab has grown to the peak in-flight depth.
pub(in crate::monitor) struct InflightTable {
    slots: Vec<Option<InflightFault>>,
    free: Vec<u32>,
    live: usize,
    queue: EventQueue<QueueItem>,
    next_id: u64,
    waiter_pool: Vec<Vec<FaultIntake>>,
    /// Speculative reads in flight, in their own recycled slab (entries
    /// are `(id, flight)`; the id guards against slot reuse exactly as
    /// in the demand slab).
    prefetch_slots: Vec<Option<(u64, PrefetchFlight)>>,
    prefetch_free: Vec<u32>,
    prefetch_live: usize,
}

impl InflightTable {
    pub(in crate::monitor) fn new() -> Self {
        InflightTable {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            queue: EventQueue::new(),
            next_id: 0,
            waiter_pool: Vec::new(),
            prefetch_slots: Vec::new(),
            prefetch_free: Vec::new(),
            prefetch_live: 0,
        }
    }

    /// Live (parked) operations.
    pub(in crate::monitor) fn len(&self) -> usize {
        self.live
    }

    /// Operation slots allocated in the slab (live + pooled): the
    /// table's standing footprint, which plateaus at peak depth.
    #[cfg(test)]
    pub(in crate::monitor) fn pool_slots(&self) -> usize {
        self.slots.len()
    }

    fn park(&mut self, intake: FaultIntake, stage: FaultStage) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let completes_at = stage.completes_at();
        let op = InflightFault {
            id,
            intake,
            stage,
            waiters: self.waiter_pool.pop().unwrap_or_default(),
        };
        let slot = match self.free.pop() {
            Some(i) => {
                debug_assert!(self.slots[i as usize].is_none());
                self.slots[i as usize] = Some(op);
                i
            }
            None => {
                let i = self.slots.len() as u32;
                self.slots.push(Some(op));
                i
            }
        };
        self.live += 1;
        self.queue.push(completes_at, QueueItem::Fault { id, slot });
        id
    }

    /// Enqueues a background-reclaim activation at `at`; it runs inside
    /// the next [`Monitor::complete_next`] that reaches it.
    pub(in crate::monitor) fn schedule_reclaim(&mut self, at: SimInstant) {
        self.queue.push(at, QueueItem::Reclaim);
    }

    /// Attaches a fault as a waiter to the live operation on its page
    /// and returns that operation's id, or hands the intake back when no
    /// operation owns the page.
    pub(in crate::monitor) fn coalesce(&mut self, intake: FaultIntake) -> Result<u64, FaultIntake> {
        // Slot order differs from submission order, but coalescing keeps
        // at most one live operation per page, so the match is unique.
        let op = self
            .slots
            .iter_mut()
            .filter_map(Option::as_mut)
            .find(|op| op.intake.vpn == intake.vpn);
        match op {
            Some(op) => {
                op.waiters.push(intake);
                Ok(op.id)
            }
            None => Err(intake),
        }
    }

    fn take(&mut self, id: u64, slot: u32) -> Option<InflightFault> {
        match self.slots.get_mut(slot as usize) {
            Some(entry @ Some(_)) if entry.as_ref().is_some_and(|op| op.id == id) => {
                let op = entry.take();
                self.free.push(slot);
                self.live -= 1;
                op
            }
            _ => None,
        }
    }

    /// Returns a drained waiter buffer to the pool for the next park.
    fn recycle_waiters(&mut self, mut waiters: Vec<FaultIntake>) {
        waiters.clear();
        self.waiter_pool.push(waiters);
    }

    /// Parks a speculative read; it completes transparently inside a
    /// later [`Monitor::complete_next`] (or is adopted by a demand fault
    /// first).
    pub(in crate::monitor) fn park_prefetch(&mut self, flight: PrefetchFlight) {
        let completes_at = flight.pending.completes_at();
        let id = self.next_id;
        self.next_id += 1;
        let slot = match self.prefetch_free.pop() {
            Some(i) => {
                debug_assert!(self.prefetch_slots[i as usize].is_none());
                self.prefetch_slots[i as usize] = Some((id, flight));
                i
            }
            None => {
                let i = self.prefetch_slots.len() as u32;
                self.prefetch_slots.push(Some((id, flight)));
                i
            }
        };
        self.prefetch_live += 1;
        self.queue
            .push(completes_at, QueueItem::Prefetch { id, slot });
    }

    /// Takes a queued speculative read; `None` if a demand fault already
    /// adopted it (the queue entry went stale).
    fn take_prefetch(&mut self, id: u64, slot: u32) -> Option<PrefetchFlight> {
        match self.prefetch_slots.get_mut(slot as usize) {
            Some(entry @ Some(_)) if entry.as_ref().is_some_and(|(i, _)| *i == id) => {
                let (_, flight) = entry.take()?;
                self.prefetch_free.push(slot);
                self.prefetch_live -= 1;
                Some(flight)
            }
            _ => None,
        }
    }

    /// Removes and returns the in-flight speculative read for `vpn`, if
    /// any — a demand fault adopting the flight. The flight's queue
    /// entry stays behind and is skipped later by its id guard.
    pub(in crate::monitor) fn absorb_prefetch(&mut self, vpn: Vpn) -> Option<PrefetchFlight> {
        let slot = self
            .prefetch_slots
            .iter()
            .position(|e| e.as_ref().is_some_and(|(_, f)| f.vpn == vpn))?;
        let (_, flight) = self.prefetch_slots[slot].take()?;
        self.prefetch_free.push(slot as u32);
        self.prefetch_live -= 1;
        Some(flight)
    }

    /// Speculative reads currently in flight.
    pub(in crate::monitor) fn prefetch_len(&self) -> usize {
        self.prefetch_live
    }

    /// Whether any live operation — demand or speculative — already owns
    /// `vpn`. The prefetch candidate filter uses this to never issue a
    /// read that would race a pending install.
    pub(in crate::monitor) fn tracks(&self, vpn: Vpn) -> bool {
        self.slots
            .iter()
            .filter_map(Option::as_ref)
            .any(|op| op.intake.vpn == vpn)
            || self
                .prefetch_slots
                .iter()
                .filter_map(Option::as_ref)
                .any(|(_, f)| f.vpn == vpn)
    }
}

/// What [`Monitor::submit_fault`] did with the fault.
#[derive(Debug, Clone, Copy)]
pub enum SubmitOutcome {
    /// The fault resolved inline (first touch, write-list steal) without
    /// parking; the guest is already woken.
    Completed(FaultResolution),
    /// The fault parked in the in-flight table with this operation id;
    /// a later [`Monitor::complete_next`] finishes it.
    Parked(u64),
    /// The fault attached as a waiter to the already-in-flight operation
    /// with this id (same page, fetch still pending).
    Coalesced(u64),
}

/// A fault operation finished by [`Monitor::complete_next`].
#[derive(Debug, Clone, Copy)]
pub struct CompletedFault {
    /// The operation id [`SubmitOutcome::Parked`] returned.
    pub id: u64,
    /// The faulted page.
    pub vpn: Vpn,
    /// How the fault was resolved.
    pub resolution: Resolution,
    /// When the fault was submitted.
    pub submitted_at: SimInstant,
    /// When the guest vCPU was woken.
    pub wake_at: SimInstant,
    /// How many coalesced waiters shared this operation.
    pub waiters: u32,
}

impl Monitor {
    /// Submits one page fault to the staged pipeline: runs the fault
    /// path's start stage, which completes inline-resolvable faults
    /// (first touch, write-list steal, tier hit, synchronous read)
    /// before returning. Faults that must wait on the store or on an
    /// in-flight write park in the in-flight table and are finished by
    /// [`Monitor::complete_next`] in completion order.
    ///
    /// # Panics
    ///
    /// Panics if the in-flight table is already at
    /// [`MonitorConfig::max_inflight`](crate::MonitorConfig::max_inflight)
    /// — drain with [`Monitor::complete_next`] first.
    pub fn submit_fault(
        &mut self,
        uffd: &mut Userfaultfd,
        pt: &mut PageTable,
        pm: &mut PhysicalMemory,
        vpn: Vpn,
        write: bool,
    ) -> SubmitOutcome {
        let depth = self.config.max_inflight.max(1);
        assert!(
            self.inflight.len() < depth,
            "submit_fault: in-flight table full (depth {depth}); call complete_next first"
        );
        match self.start_fault(uffd, pt, pm, vpn, write) {
            FaultStart::Done(res) => SubmitOutcome::Completed(res),
            FaultStart::Coalesced(id) => SubmitOutcome::Coalesced(id),
            FaultStart::Wait(intake, stage) => {
                SubmitOutcome::Parked(self.inflight.park(intake, stage))
            }
        }
    }

    /// Finishes the in-flight operation with the earliest completion
    /// instant: runs the fault path's finish stage for it and every
    /// coalesced waiter. Returns `None` when nothing is in flight.
    pub fn complete_next(
        &mut self,
        uffd: &mut Userfaultfd,
        pt: &mut PageTable,
        pm: &mut PhysicalMemory,
    ) -> Option<CompletedFault> {
        let (id, slot) = loop {
            let (_, item) = self.inflight.queue.pop_next()?;
            match item {
                // Reclaim activations ride the same queue so the evictor
                // runs in deterministic event order, transparently to
                // the caller waiting on a fault completion.
                QueueItem::Reclaim => self.run_scheduled_reclaim(uffd, pt, pm),
                // Speculative completions are transparent: install (or
                // discard) and keep looking for a demand completion. A
                // stale entry — the flight was adopted — takes nothing.
                QueueItem::Prefetch { id, slot } => {
                    if let Some(flight) = self.inflight.take_prefetch(id, slot) {
                        self.complete_prefetch(uffd, pt, pm, flight);
                    }
                }
                QueueItem::Fault { id, slot } => break (id, slot),
            }
        };
        let InflightFault {
            id,
            intake,
            stage,
            waiters,
        } = self
            .inflight
            .take(id, slot)
            .expect("queued operation is live");
        let res = self.finish_fault(uffd, pt, pm, &intake, stage, &waiters);
        let n_waiters = waiters.len() as u32;
        self.inflight.recycle_waiters(waiters);
        Some(CompletedFault {
            id,
            vpn: intake.vpn,
            resolution: res.resolution,
            submitted_at: intake.t0,
            wake_at: res.wake_at,
            waiters: n_waiters,
        })
    }

    /// Runs the bottom halves that are already ripe at the monitor's
    /// current instant without waiting on anything still in flight: due
    /// speculative reads install (or are discarded) and due reclaim
    /// activations run, while the earliest demand-fault completion — a
    /// blocked vCPU's wake — is left for [`Monitor::complete_next`].
    ///
    /// This is the monitor thread's polling loop between fault
    /// arrivals. Without it a driver that only calls `complete_next`
    /// when a fault parks leaves landed prefetches sitting in the queue
    /// — the guest refaults on pages whose bytes already arrived, and
    /// every speculative read degrades into an adopted flight instead
    /// of a mapped-page hit. Never advances the clock.
    pub fn poll_ready(
        &mut self,
        uffd: &mut Userfaultfd,
        pt: &mut PageTable,
        pm: &mut PhysicalMemory,
    ) {
        loop {
            let now = self.clock.now();
            match self.inflight.queue.peek() {
                Some((at, item)) if at <= now && !matches!(item, QueueItem::Fault { .. }) => {}
                _ => return,
            }
            let (_, item) = self.inflight.queue.pop_next().expect("peeked a live event");
            match item {
                QueueItem::Reclaim => self.run_scheduled_reclaim(uffd, pt, pm),
                QueueItem::Prefetch { id, slot } => {
                    if let Some(flight) = self.inflight.take_prefetch(id, slot) {
                        self.complete_prefetch(uffd, pt, pm, flight);
                    }
                }
                QueueItem::Fault { .. } => unreachable!("fault completions are not polled"),
            }
        }
    }

    /// Finishes every in-flight operation, in completion order.
    pub fn drain_inflight(
        &mut self,
        uffd: &mut Userfaultfd,
        pt: &mut PageTable,
        pm: &mut PhysicalMemory,
    ) -> Vec<CompletedFault> {
        let mut done = Vec::new();
        while let Some(c) = self.complete_next(uffd, pt, pm) {
            done.push(c);
        }
        done
    }

    /// Faults currently parked in the in-flight table.
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// Speculative (prefetch) reads currently in flight. Not counted by
    /// [`Monitor::inflight_len`]: the depth bound applies to faults
    /// holding vCPUs, and nothing blocks on these. They finish inside
    /// [`Monitor::complete_next`] / [`Monitor::drain_inflight`] calls.
    pub fn inflight_prefetch_len(&self) -> usize {
        self.inflight.prefetch_len()
    }

    /// The virtual instant the next in-flight operation completes.
    pub fn next_completion_at(&self) -> Option<SimInstant> {
        self.inflight.queue.peek_time()
    }
}
