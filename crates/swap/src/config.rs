//! Swap-subsystem tunables and cost models.

use fluidmem_sim::{watermark, LatencyModel};

/// The virtio disk caching mode (libvirt `cache=` attribute).
///
/// The paper found this setting *critical for an accurate comparison*
/// (§VI-D1): with `writeback`, swap writes are buffered a second time in
/// the hypervisor's page cache, which actually made swapping to DRAM
/// *slower*; all headline results use `none` (`O_DIRECT`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiskCacheMode {
    /// `cache=none`: O_DIRECT, no hypervisor page cache (paper default).
    #[default]
    None,
    /// `cache=writeback`: an extra buffering layer that adds copy cost to
    /// every request.
    Writeback,
}

/// Kernel-path cost models for the swap fault paths.
///
/// These cover the guest kernel's CPU work; device time comes from the
/// [`BlockDevice`](fluidmem_block::BlockDevice) models. Calibrated so the
/// end-to-end in-VM fault latencies land on the paper's Figure 3
/// averages: 26.34 µs (DRAM), 41.73 µs (NVMeoF), 106.56 µs (SSD).
#[derive(Debug, Clone)]
pub struct SwapCosts {
    /// Guest fault entry: exception, `handle_mm_fault` down to the swap
    /// path.
    pub fault_entry: LatencyModel,
    /// Swap-cache radix-tree lookup.
    pub cache_lookup: LatencyModel,
    /// Frame allocation + cgroup charge + rmap + PTE install + LRU insert
    /// on the swap-in path.
    pub swapin_setup: LatencyModel,
    /// Remaining swap-in bookkeeping (swapcount, memcg, workingset
    /// accounting) — the "kernel tax" of the paper's more complex swap
    /// path.
    pub swapin_overhead: LatencyModel,
    /// A minor fault that hits the swap cache (map + promote only).
    pub minor_fault: LatencyModel,
    /// A first-touch anonymous fault (allocate + zero a frame).
    pub first_touch: LatencyModel,
    /// Per-page cost of a direct-reclaim scan iteration.
    pub reclaim_scan: LatencyModel,
    /// Extra cost per fault when it happens inside a KVM guest
    /// (VM exit/entry, nested page walk).
    pub vm_exit: LatencyModel,
    /// Extra copy cost per device request under
    /// [`DiskCacheMode::Writeback`].
    pub writeback_cache_copy: LatencyModel,
}

impl Default for SwapCosts {
    fn default() -> Self {
        SwapCosts {
            fault_entry: LatencyModel::normal_us(1.8, 0.3),
            cache_lookup: LatencyModel::normal_us(0.8, 0.15),
            swapin_setup: LatencyModel::normal_us(3.6, 0.5),
            swapin_overhead: LatencyModel::lognormal_mean_p99_us(24.0, 44.0),
            minor_fault: LatencyModel::lognormal_mean_p99_us(4.5, 8.0),
            first_touch: LatencyModel::lognormal_mean_p99_us(2.4, 4.5),
            reclaim_scan: LatencyModel::normal_us(0.35, 0.08),
            vm_exit: LatencyModel::normal_us(4.0, 0.5),
            writeback_cache_copy: LatencyModel::normal_us(3.0, 0.5),
        }
    }
}

/// Configuration of one guest's swap subsystem.
#[derive(Debug, Clone)]
pub struct SwapConfig {
    /// Local DRAM allotment in 4 KB pages (the paper's VMs get 1 GB =
    /// 262 144 pages).
    pub dram_pages: u64,
    /// `vm.page-cluster`: readahead window is `2^page_cluster` pages
    /// (kernel default 3 → 8 pages). 0 disables readahead, as the paper
    /// sets for the MongoDB runs.
    pub page_cluster: u32,
    /// `vm.swappiness` (0–200): bias between reclaiming anonymous pages
    /// vs. file-backed page cache. The paper sets 100 for remote-memory
    /// swap.
    pub swappiness: u8,
    /// kswapd wakes when free frames fall below this fraction of DRAM.
    pub watermark_low: f64,
    /// kswapd reclaims until free frames reach this fraction.
    pub watermark_high: f64,
    /// Pages reclaimed per kswapd batch.
    pub kswapd_batch: usize,
    /// Hypervisor disk-cache mode for the swap device.
    pub cache_mode: DiskCacheMode,
    /// Kernel-path cost models.
    pub costs: SwapCosts,
}

impl SwapConfig {
    /// The paper's standard guest: 1 GB DRAM, default readahead,
    /// swappiness 100, `cache=none`.
    pub fn paper_default(dram_pages: u64) -> Self {
        SwapConfig {
            dram_pages,
            page_cluster: 3,
            swappiness: 100,
            watermark_low: 0.030,
            watermark_high: 0.060,
            kswapd_batch: 32,
            cache_mode: DiskCacheMode::None,
            costs: SwapCosts::default(),
        }
    }

    /// The largest meaningful `vm.page-cluster`: a 2^20-page (4 GB)
    /// readahead window already exceeds any guest this simulates.
    /// Shifting `1u64` by an unclamped `u32` is undefined for shifts
    /// ≥ 64 (debug panic, wrapping in release), so both the getter and
    /// [`SwapConfig::validate`] pin the exponent here.
    pub const MAX_PAGE_CLUSTER: u32 = 20;

    /// Readahead window size in pages: `2^page_cluster`, with the
    /// exponent clamped to [`SwapConfig::MAX_PAGE_CLUSTER`] so a wild
    /// config value degrades to the maximum window instead of an
    /// overflowing shift.
    pub fn readahead_pages(&self) -> u64 {
        1 << self.page_cluster.min(Self::MAX_PAGE_CLUSTER)
    }

    /// The low watermark in pages: kswapd wakes when free frames drop
    /// below this (see [`fluidmem_sim::watermark`]).
    pub fn low_watermark_pages(&self) -> u64 {
        watermark::low_pages(self.dram_pages, self.watermark_low)
    }

    /// The high watermark in pages: kswapd reclaims until free frames
    /// reach this. Always strictly above the low watermark so a wakeup
    /// makes progress.
    pub fn high_watermark_pages(&self) -> u64 {
        watermark::high_pages(self.dram_pages, self.watermark_low, self.watermark_high)
    }

    /// Checks the watermark fractions are ordered and sane, and the
    /// readahead exponent is in range.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < watermark_low < watermark_high <= 1` and
    /// `page_cluster <= MAX_PAGE_CLUSTER`.
    pub fn validate(&self) {
        assert!(
            self.page_cluster <= Self::MAX_PAGE_CLUSTER,
            "page_cluster ({}) exceeds MAX_PAGE_CLUSTER ({})",
            self.page_cluster,
            Self::MAX_PAGE_CLUSTER
        );
        watermark::validate("swap", self.watermark_low, self.watermark_high);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_text() {
        let c = SwapConfig::paper_default(262_144);
        assert_eq!(c.dram_pages, 262_144);
        assert_eq!(c.readahead_pages(), 8);
        assert_eq!(c.swappiness, 100);
        assert_eq!(c.cache_mode, DiskCacheMode::None);
    }

    #[test]
    fn page_cluster_zero_disables_readahead() {
        let mut c = SwapConfig::paper_default(1024);
        c.page_cluster = 0;
        assert_eq!(c.readahead_pages(), 1);
    }

    #[test]
    fn huge_page_cluster_saturates_instead_of_overflowing() {
        let mut c = SwapConfig::paper_default(1024);
        // 1u64 << 64 is an overflowing shift (debug panic, wrapping in
        // release, either way garbage); the getter must clamp.
        for wild in [64, 65, u32::MAX] {
            c.page_cluster = wild;
            assert_eq!(
                c.readahead_pages(),
                1 << SwapConfig::MAX_PAGE_CLUSTER,
                "page_cluster={wild}"
            );
        }
        c.page_cluster = SwapConfig::MAX_PAGE_CLUSTER;
        assert_eq!(c.readahead_pages(), 1 << SwapConfig::MAX_PAGE_CLUSTER);
    }

    #[test]
    #[should_panic(expected = "page_cluster")]
    fn validate_rejects_out_of_range_page_cluster() {
        let mut c = SwapConfig::paper_default(1024);
        c.page_cluster = SwapConfig::MAX_PAGE_CLUSTER + 1;
        c.validate();
    }

    #[test]
    fn watermarks_round_up_and_never_truncate_to_zero() {
        // 16 pages × 0.03 = 0.48: truncation gave 0 (kswapd never woke);
        // the ceil keeps at least one page of low watermark.
        let tiny = SwapConfig::paper_default(16);
        assert_eq!(tiny.low_watermark_pages(), 1);
        assert!(tiny.high_watermark_pages() > tiny.low_watermark_pages());

        let paper = SwapConfig::paper_default(262_144);
        assert_eq!(paper.low_watermark_pages(), 7_865); // ceil(7864.32)
        assert_eq!(paper.high_watermark_pages(), 15_729); // ceil(15728.64)
    }

    #[test]
    fn validate_accepts_paper_defaults() {
        SwapConfig::paper_default(16).validate();
        SwapConfig::paper_default(262_144).validate();
    }

    #[test]
    #[should_panic(expected = "watermark_high")]
    fn validate_rejects_inverted_watermarks() {
        let mut c = SwapConfig::paper_default(1024);
        c.watermark_high = c.watermark_low;
        c.validate();
    }
}
