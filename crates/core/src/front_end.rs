//! The guest-access front end every FluidMem backend shares.
//!
//! An access to a mapped page resolves in the page table: a hit, or the
//! kernel's copy-on-write break of the shared zero page. Anything else
//! raises a userfaultfd event that the monitor resolves, through either
//! its call-return or its pipelined entry point.

use fluidmem_coord::PartitionId;
use fluidmem_kv::KeyValueStore;
use fluidmem_mem::{
    AccessOutcome, AccessReport, PageContents, PageTable, PhysicalMemory, PteFlags, Region,
    VirtAddr, Vpn,
};
use fluidmem_sim::{SimClock, SimDuration, SimInstant, SimRng};
use fluidmem_uffd::{RegionId, Userfaultfd};

use crate::backend::PipelineSubmit;
use crate::config::MonitorConfig;
use crate::monitor::{FaultResolution, Monitor, SubmitOutcome};

/// The kernel-side objects (userfaultfd, page table, host frames) and
/// the monitor that resolves their faults.
pub(crate) struct FrontEnd {
    pub(crate) uffd: Userfaultfd,
    pub(crate) pt: PageTable,
    pub(crate) pm: PhysicalMemory,
    pub(crate) monitor: Monitor,
    pub(crate) clock: SimClock,
}

impl FrontEnd {
    pub(crate) fn new(
        config: MonitorConfig,
        store: Box<dyn KeyValueStore>,
        partition: PartitionId,
        clock: SimClock,
        rng: SimRng,
    ) -> Self {
        FrontEnd {
            uffd: Userfaultfd::new(clock.clone(), rng.fork("uffd")),
            pt: PageTable::new(),
            // Host frames are bounded by the monitor's LRU, not by this
            // allocator; size it generously.
            pm: PhysicalMemory::new(u64::MAX / 2),
            monitor: Monitor::new(config, store, partition, clock.clone(), rng.fork("monitor")),
            clock,
        }
    }

    /// One call-return guest access from `pid`.
    pub(crate) fn access(&mut self, pid: u64, addr: VirtAddr, write: bool) -> AccessReport {
        let vpn = addr.vpn();
        if let Some(report) = self.mapped_access(vpn, write) {
            return report;
        }
        let t0 = self.raise_fault(pid, addr, write);
        let res = self
            .monitor
            .handle_fault(&mut self.uffd, &mut self.pt, &mut self.pm, vpn, write);
        self.fault_report(t0, vpn, write, res)
    }

    /// One guest access from `pid` through the monitor's staged pipeline.
    pub(crate) fn submit(&mut self, pid: u64, addr: VirtAddr, write: bool) -> PipelineSubmit {
        let vpn = addr.vpn();
        if let Some(report) = self.mapped_access(vpn, write) {
            return PipelineSubmit::Ready(report);
        }
        let t0 = self.raise_fault(pid, addr, write);
        match self
            .monitor
            .submit_fault(&mut self.uffd, &mut self.pt, &mut self.pm, vpn, write)
        {
            SubmitOutcome::Completed(res) => {
                PipelineSubmit::Ready(self.fault_report(t0, vpn, write, res))
            }
            parked => PipelineSubmit::Pending(parked),
        }
    }

    /// Resolves an access to an already-mapped page (hit or CoW break);
    /// `None` means the page is unmapped and must fault to the monitor.
    fn mapped_access(&mut self, vpn: Vpn, write: bool) -> Option<AccessReport> {
        let entry = self.pt.get_mut(vpn)?;
        if write && entry.flags.contains(PteFlags::ZERO_PAGE) {
            // Kernel-side copy-on-write break (footnote 1 of the
            // paper): a regular minor fault, invisible to the
            // monitor.
            return Some(AccessReport {
                outcome: AccessOutcome::MinorFault,
                latency: self.break_cow(vpn),
            });
        }
        entry.flags.insert(PteFlags::REFERENCED);
        if write {
            entry.flags.insert(PteFlags::DIRTY);
        }
        // First guest touch of a prefetched page resolves its
        // accuracy-ledger entry to a hit (a no-op branch when nothing
        // is pending).
        self.monitor.note_mapped_touch(vpn);
        Some(AccessReport {
            outcome: AccessOutcome::Hit,
            latency: SimDuration::ZERO,
        })
    }

    /// Raises the fault and consumes its event as the monitor would;
    /// returns the instant the guest trapped.
    fn raise_fault(&mut self, pid: u64, addr: VirtAddr, write: bool) -> SimInstant {
        let t0 = self.clock.now();
        let from_vm = self.monitor.config().from_vm;
        self.uffd
            .raise_fault(addr, write, pid, from_vm)
            .unwrap_or_else(|e| panic!("access to unregistered address {addr}: {e}"));
        let _event = self.uffd.poll().expect("fault was queued");
        t0
    }

    /// The guest's view of a fault the monitor resolved. A *write*
    /// resolved with the zero page immediately breaks CoW when the guest
    /// retries the instruction.
    fn fault_report(
        &mut self,
        t0: SimInstant,
        vpn: Vpn,
        write: bool,
        res: FaultResolution,
    ) -> AccessReport {
        let mut latency = res.wake_at - t0;
        if write && self.pt.has_flags(vpn, PteFlags::ZERO_PAGE) {
            latency += self.break_cow(vpn);
        }
        AccessReport {
            outcome: res.resolution.outcome(),
            latency,
        }
    }

    /// Breaks a zero-page mapping; returns the time it took.
    fn break_cow(&mut self, vpn: Vpn) -> SimDuration {
        let t0 = self.clock.now();
        self.uffd
            .break_cow(&mut self.pt, &mut self.pm, vpn)
            .expect("zero-page mapping breaks cleanly");
        self.clock.now() - t0
    }

    /// Stores `contents` into the frame mapping `vpn`.
    pub(crate) fn store_page(&mut self, vpn: Vpn, contents: PageContents) {
        let entry = self.pt.get(vpn).expect("write access maps the page");
        self.pm.store(entry.frame, contents);
    }

    /// The contents of the frame mapping `vpn`.
    pub(crate) fn load_page(&self, vpn: Vpn) -> PageContents {
        let entry = self.pt.get(vpn).expect("read access maps the page");
        self.pm.load(entry.frame).clone()
    }

    /// Resizes the monitor's local buffer, evicting down if needed.
    pub(crate) fn resize(&mut self, capacity: u64) {
        self.monitor
            .resize(&mut self.uffd, &mut self.pt, &mut self.pm, capacity);
    }

    /// Unregisters a region (VM shutdown): drops its monitor state and
    /// its pages in the store, and frees its frames.
    pub(crate) fn unregister(&mut self, id: RegionId, region: &Region) {
        self.uffd.unregister(id).expect("region was registered");
        // Consume the unregister event as the monitor would.
        while self.uffd.poll().is_some() {}
        self.monitor.remove_region(region);
        for vpn in region.iter_pages() {
            if let Some(entry) = self.pt.unmap(vpn) {
                if !entry.flags.contains(PteFlags::ZERO_PAGE) {
                    self.pm.free(entry.frame);
                }
            }
        }
    }
}
