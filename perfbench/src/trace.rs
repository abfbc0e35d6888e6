//! Wall-clock spans around the calls the benchmark makes into each layer.
//!
//! The benchmark cannot see inside the program, so every boundary it
//! crosses — a `HostAgent` or `FluidMemMemory` call, a store operation
//! seen through the forwarding wrapper in [`crate::kv`], a telemetry
//! export — is timed here. A span records its name, layer, start, end,
//! the span that was open when it began (its parent) and the access it
//! served. A layer's self time is a span's duration minus the time its
//! child spans cover, so store time nested inside a monitor call is
//! charged to `kv`, not to `core`.
//!
//! Aggregates are kept for every span; raw spans are kept only as a
//! bounded reservoir sample and written out when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// The program's layers (crates) the benchmark times from outside.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Host,
    Core,
    Kv,
    Telemetry,
}

impl Layer {
    pub const ALL: [Layer; 4] = [Layer::Host, Layer::Core, Layer::Kv, Layer::Telemetry];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Host => "host",
            Layer::Core => "core",
            Layer::Kv => "kv",
            Layer::Telemetry => "telemetry",
        }
    }
}

/// Per-span-name totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameStats {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameStats {
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

/// One raw span, kept in the reservoir sample.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: u64,
    access: u64,
    name: &'static str,
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
}

struct Frame {
    id: u64,
    name: &'static str,
    layer: Layer,
    start: Instant,
    child_ns: u64,
}

/// Raw spans kept in memory at most.
const SAMPLE_CAP: usize = 4096;

struct Inner {
    stack: Vec<Frame>,
    next_id: u64,
    access: u64,
    by_name: BTreeMap<&'static str, (Layer, NameStats)>,
    sample: Vec<Span>,
    spans_seen: u64,
    rng: u64,
}

/// A span recorder; disabled recorders cost one branch per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    inner: RefCell<Inner>,
}

/// The handle every timed call site shares.
pub type Probe = Rc<Tracer>;

impl Tracer {
    pub fn new(enabled: bool) -> Probe {
        Rc::new(Tracer {
            enabled,
            epoch: Instant::now(),
            inner: RefCell::new(Inner {
                stack: Vec::new(),
                next_id: 1,
                access: 0,
                by_name: BTreeMap::new(),
                sample: Vec::new(),
                spans_seen: 0,
                rng: 0x2545_F491_4F6C_DD1D,
            }),
        })
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans that follow with the access they serve.
    pub fn set_access(&self, access: u64) {
        if self.enabled {
            self.inner.borrow_mut().access = access;
        }
    }

    /// Runs `f` inside a span named `name` on `layer`.
    #[inline]
    pub fn call<R>(&self, layer: Layer, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        self.begin(layer, name);
        let out = f();
        self.end();
        out
    }

    fn begin(&self, layer: Layer, name: &'static str) {
        let mut inner = self.inner.borrow_mut();
        let id = inner.next_id;
        inner.next_id += 1;
        inner.stack.push(Frame {
            id,
            name,
            layer,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    fn end(&self) {
        let end = Instant::now();
        let mut inner = self.inner.borrow_mut();
        let frame = inner.stack.pop().expect("span ends match begins");
        let dur = end.duration_since(frame.start).as_nanos() as u64;
        let parent = match inner.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => 0,
        };
        let entry = inner
            .by_name
            .entry(frame.name)
            .or_insert((frame.layer, NameStats::default()));
        entry.1.calls += 1;
        entry.1.total_ns += dur;
        entry.1.self_ns += dur.saturating_sub(frame.child_ns);

        // Reservoir sample (algorithm R) over every span seen.
        inner.spans_seen += 1;
        let span = Span {
            id: frame.id,
            parent,
            access: inner.access,
            name: frame.name,
            layer: frame.layer,
            start_ns: frame.start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
        };
        if inner.sample.len() < SAMPLE_CAP {
            inner.sample.push(span);
        } else {
            inner.rng ^= inner.rng << 13;
            inner.rng ^= inner.rng >> 7;
            inner.rng ^= inner.rng << 17;
            let slot = inner.rng % inner.spans_seen;
            if (slot as usize) < SAMPLE_CAP {
                inner.sample[slot as usize] = span;
            }
        }
    }

    /// Forgets the aggregates (call after set-up so only the measured
    /// phase counts); the raw sample keeps running.
    pub fn reset_stats(&self) {
        self.inner.borrow_mut().by_name.clear();
    }

    /// Totals for one span name.
    pub fn stats(&self, name: &str) -> NameStats {
        self.inner
            .borrow()
            .by_name
            .get(name)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    }

    /// Self time per layer, in ns.
    pub fn layer_self_ns(&self) -> BTreeMap<Layer, u64> {
        let mut out: BTreeMap<Layer, u64> = Layer::ALL.iter().map(|&l| (l, 0)).collect();
        for (layer, s) in self.inner.borrow().by_name.values() {
            *out.entry(*layer).or_default() += s.self_ns;
        }
        out
    }

    /// Summed self time of every span on `layer`, in ns.
    pub fn self_ns_of(&self, layer: Layer) -> u64 {
        self.layer_self_ns()[&layer]
    }

    /// The reservoir sample as JSON lines, oldest span first.
    pub fn sample_jsonl(&self) -> String {
        let inner = self.inner.borrow();
        let mut spans = inner.sample.clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = String::new();
        for s in spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"access\":{},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                s.access,
                s.name,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        t.call(Layer::Core, "outer", || {
            t.call(Layer::Kv, "inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let outer = t.stats("outer");
        let inner = t.stats("inner");
        assert_eq!(outer.calls, 1);
        assert!(inner.total_ns >= 2_000_000);
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(t.sample_jsonl().contains("\"parent\":1"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.call(Layer::Host, "x", || 7), 7);
        assert_eq!(t.stats("x").calls, 0);
        assert!(t.sample_jsonl().is_empty());
    }

    #[test]
    fn sample_is_bounded() {
        let t = Tracer::new(true);
        for _ in 0..(SAMPLE_CAP * 3) {
            t.call(Layer::Kv, "op", || ());
        }
        assert_eq!(t.sample_jsonl().lines().count(), SAMPLE_CAP);
        assert_eq!(t.stats("op").calls, (SAMPLE_CAP * 3) as u64);
    }
}
