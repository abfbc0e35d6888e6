//! Reclaim watermarks: the free-page thresholds that wake a background
//! reclaimer (below `low`) and put it back to sleep (at `high`), shared
//! by the guest kernel's kswapd and the monitor's evictor and
//! compressed tier.
//!
//! Fractions are of a page or byte budget. Page counts round *up* and
//! floor at 1: truncation once yielded a low watermark of 0 for small
//! budgets, so the reclaimer never woke and every reclaim ran on the
//! fault path. The high mark is always strictly above the low mark so
//! every wakeup makes progress.

/// The low watermark in pages for a budget of `pages`.
pub fn low_pages(pages: u64, low: f64) -> u64 {
    ((pages as f64 * low).ceil() as u64).max(1)
}

/// The high watermark in pages for a budget of `pages`: strictly above
/// [`low_pages`].
pub fn high_pages(pages: u64, low: f64, high: f64) -> u64 {
    ((pages as f64 * high).ceil() as u64).max(low_pages(pages, low) + 1)
}

/// Checks a pair of watermark fractions; `owner` names the config in
/// the panic message.
///
/// # Panics
///
/// Panics unless `0 < low < high <= 1`.
pub fn validate(owner: &str, low: f64, high: f64) {
    assert!(
        low > 0.0,
        "{owner} watermark_low must be positive (got {low})"
    );
    assert!(
        high > low,
        "{owner} watermark_high ({high}) must exceed watermark_low ({low})"
    );
    assert!(
        high <= 1.0,
        "{owner} watermark_high must be at most 1.0 (got {high})"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_budgets_round_up_and_keep_the_marks_apart() {
        assert_eq!(low_pages(16, 0.04), 1);
        assert_eq!(high_pages(16, 0.04, 0.05), 2);
        assert_eq!(low_pages(256, 0.04), 11); // ceil(10.24)
        assert_eq!(high_pages(256, 0.04, 0.08), 21); // ceil(20.48)
    }

    #[test]
    #[should_panic(expected = "tier watermark_high (0.5) must exceed watermark_low (0.5)")]
    fn unordered_marks_panic_with_the_owner() {
        validate("tier", 0.5, 0.5);
    }
}
