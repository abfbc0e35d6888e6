//! Plain-text timeline: one line per span record, the Fig. 2 trace as
//! text.
//!
//! Each line reads `[t+start] track name duration args`. A span is
//! indented under every span on the same track that contains it, so the
//! fault's critical-path steps sit under `fault` while the async flights
//! on `kv` and the shootdowns on `kernel` keep their own column.

use std::cmp::Reverse;
use std::fmt::Write as _;

use fluidmem_sim::SimInstant;

use crate::span::{SpanKind, SpanRecord};

/// Renders completed spans as an indented plain-text timeline.
///
/// Records are ordered by start. At an equal start an instant (the guest
/// `wake`) comes first, then longer spans before the spans they enclose,
/// then recording order — so a parent always precedes its children, even
/// though it completes (and is recorded) after them. Output is
/// deterministic for a given span list.
pub fn timeline(records: &[SpanRecord]) -> String {
    let mut order: Vec<&SpanRecord> = records.iter().collect();
    order.sort_by_key(|r| (r.start, r.kind != SpanKind::Instant, Reverse(r.end), r.seq));

    // Spans still open at the current start, per track.
    let mut open: Vec<(&str, SimInstant)> = Vec::new();
    let mut out = String::new();
    for r in order {
        open.retain(|&(_, end)| end > r.start);
        let depth = open
            .iter()
            .filter(|&&(track, end)| track == r.track && r.end <= end)
            .count();
        let _ = write!(
            out,
            "[{}] {:<7} {:indent$}{}",
            r.start,
            r.track,
            "",
            r.name,
            indent = 2 * depth
        );
        match r.kind {
            SpanKind::Complete => {
                let _ = write!(out, " {}", r.end - r.start);
                open.push((r.track, r.end));
            }
            SpanKind::Instant => out.push_str(" instant"),
        }
        for (k, v) in &r.args {
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanRecorder;
    use fluidmem_sim::SimDuration;

    fn t(us: u64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_micros(us)
    }

    #[test]
    fn snapshot_format_is_pinned() {
        let r = SpanRecorder::new();
        r.enable();
        let fault = r.begin_at("monitor", "fault", t(1), || vec![("vpn", "0x10".into())]);
        let lookup = r.begin_at("monitor", "page_hash_lookup", t(1), Vec::new);
        r.end_at(lookup, t(2));
        r.record_at("kv", "kv.read.flight", t(2), t(9), Vec::new);
        r.end_at(fault, t(10));
        r.instant("guest", "wake", t(10));
        assert_eq!(
            timeline(&r.records()),
            "[t+1.000µs] monitor fault 9.000µs vpn=0x10\n\
             [t+1.000µs] monitor   page_hash_lookup 1.000µs\n\
             [t+2.000µs] kv      kv.read.flight 7.000µs\n\
             [t+10.000µs] guest   wake instant\n"
        );
    }

    #[test]
    fn enclosing_span_precedes_child_at_equal_start() {
        let r = SpanRecorder::new();
        r.enable();
        // The child completes first, so it is recorded first.
        let outer = r.begin_at("monitor", "fault", t(0), Vec::new);
        let inner = r.begin_at("monitor", "page_hash_lookup", t(0), Vec::new);
        r.end_at(inner, t(1));
        r.end_at(outer, t(5));
        let recs = r.records();
        assert_eq!(
            recs[0].name, "page_hash_lookup",
            "records() is (start, seq)"
        );
        let text = timeline(&recs);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains(" fault "), "{text}");
        assert!(lines[1].contains("   page_hash_lookup "), "{text}");
    }

    #[test]
    fn instant_precedes_spans_at_equal_start() {
        let r = SpanRecorder::new();
        r.enable();
        r.record_at("monitor", "UFFD_REMAP", t(4), t(6), Vec::new);
        r.instant("guest", "wake", t(4));
        let text = timeline(&r.records());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "[t+4.000µs] guest   wake instant");
        assert_eq!(lines[1], "[t+4.000µs] monitor UFFD_REMAP 2.000µs");
    }

    #[test]
    fn nesting_is_per_track_and_ends_with_the_parent() {
        let r = SpanRecorder::new();
        r.enable();
        r.record_at("monitor", "fault", t(0), t(10), Vec::new);
        r.record_at("monitor", "kv.read", t(1), t(8), Vec::new);
        r.record_at("monitor", "UFFD_REMAP", t(2), t(4), Vec::new);
        // Overlaps the monitor spans in time, but on its own track.
        r.record_at("kv", "kv.read.flight", t(1), t(7), Vec::new);
        // Starts when `fault` ends: a sibling, not a child.
        r.record_at("monitor", "UFFD_REMAP", t(10), t(12), Vec::new);
        // Inside `fault` but outlasting `kv.read`: one level, not two.
        r.record_at("monitor", "UFFD_COPY", t(8), t(9), Vec::new);
        let text = timeline(&r.records());
        let names: Vec<&str> = text
            .lines()
            .map(|l| l.split_once("] ").unwrap().1)
            .collect();
        assert_eq!(
            names,
            [
                "monitor fault 10.000µs",
                "monitor   kv.read 7.000µs",
                "kv      kv.read.flight 6.000µs",
                "monitor     UFFD_REMAP 2.000µs",
                "monitor   UFFD_COPY 1.000µs",
                "monitor UFFD_REMAP 2.000µs",
            ]
        );
    }

    #[test]
    fn output_is_deterministic() {
        let build = || {
            let r = SpanRecorder::new();
            r.enable();
            for i in 0..50u64 {
                let id = r.begin_at("monitor", "fault", t(i * 3), Vec::new);
                r.record_at("kv", "kv.read.flight", t(i * 3), t(i * 3 + 5), Vec::new);
                r.instant("guest", "wake", t(i * 3 + 2));
                r.end_at(id, t(i * 3 + 2));
            }
            timeline(&r.records())
        };
        let a = build();
        assert_eq!(a, build());
        assert_eq!(a.lines().count(), 150);
    }
}
