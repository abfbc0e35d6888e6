//! `perfbench` — the two-clock benchmark of the FluidMem reproduction.
//!
//! Usage:
//! `perfbench --workload <fleet|elastic|writeback> --seed N --seconds S --trace <0|1>`
//!
//! Every figure runs on one of two clocks: *virtual time* is what the
//! modelled monitor, store and network would cost (it repeats exactly
//! for a seed), *wall time* is what the Rust code costs to simulate it.
//!
//! * `--trace 0` sets the workload up five times or more (the median,
//!   calibrated like the wall time, is `setup_s`), then measures the
//!   end-to-end metrics untraced.
//! * `--trace 1` measures the workload untraced and then traced — the
//!   store wrapped in a forwarding timer and every call into the
//!   program inside a span — each for half the seconds, checks that the
//!   two runs' virtual metrics are identical, and reports the per-layer
//!   metrics. A bounded sample of raw spans is written to
//!   `.bench_out/spans-<workload>-<seed>.jsonl`.
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. The process exits 1 when a correctness check
//! fails and 2 on bad arguments.

mod common;
mod elastic;
mod fleet;
mod kv;
mod trace;
mod writeback;

#[cfg(test)]
mod tests;

use std::fmt::Write as _;
use std::time::Instant;

use common::{median, Outcome, RunConfig, REFERENCE_NS};
use trace::{Probe, Tracer};

/// Workloads, in report order.
pub const WORKLOADS: [&str; 3] = ["fleet", "elastic", "writeback"];

/// A `--trace 0` run sets up at least `MIN_SETUPS` times, and keeps
/// setting up (up to `MAX_SETUPS`) until `SETUP_BUDGET_S` of wall time
/// is spent, so a cheap set-up is sampled often; `setup_s` is the
/// median, calibrated by the measured phase's reference timings.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 2.0;

/// One per-layer metric: name, unit, better direction, and the group
/// that decides on which workloads it is measured.
struct LayerMetric {
    name: String,
    unit: &'static str,
    better: &'static str,
    group: &'static str,
}

/// Which metric groups run on each workload; the rest are bypassed and
/// must read 0.
fn groups_run(workload: &str) -> &'static [&'static str] {
    match workload {
        "fleet" => &["host", "monitor", "kv", "telemetry", "bench"],
        "elastic" => &[
            "monitor",
            "monitor_wall",
            "resize",
            "pipeline",
            "reclaim",
            "prefetch",
            "profile",
            "kv",
            "telemetry",
            "bench",
        ],
        "writeback" => &[
            "monitor",
            "monitor_wall",
            "reclaim",
            "tier",
            "profile",
            "kv",
            "telemetry",
            "bench",
        ],
        _ => &[],
    }
}

/// Groups whose mechanism is switched off (not merely unobservable)
/// where they do not run: a nonzero reading there is a defect.
const SWITCHED_OFF: [&str; 5] = ["host", "pipeline", "reclaim", "prefetch", "tier"];

fn per_layer_metrics() -> Vec<LayerMetric> {
    let mut v = Vec::new();
    let mut add = |name: &str, unit, better, group| {
        v.push(LayerMetric {
            name: name.to_string(),
            unit,
            better,
            group,
        })
    };
    add("host.run_ns_per_access", "ns", "lower", "host");
    add("host.rebalance_us", "us", "lower", "host");
    add("host.rebalances", "count", "lower", "host");
    add("host.add_vm_ms", "ms", "lower", "host");
    add("host.slo_violation_windows", "count", "lower", "host");
    add("monitor.ns_per_access", "ns", "lower", "monitor_wall");
    add("monitor.resize_ns_per_page", "ns", "lower", "resize");
    add("monitor.hit_ratio", "ratio", "higher", "monitor");
    add("monitor.faults", "count", "lower", "monitor");
    add("monitor.remote_reads", "count", "lower", "monitor");
    add("monitor.evictions", "count", "lower", "monitor");
    add("monitor.flushes", "count", "lower", "monitor");
    add("monitor.write_list_steals", "count", "higher", "monitor");
    add("monitor.inflight_waits", "count", "lower", "monitor");
    add("pipeline.parked", "count", "lower", "pipeline");
    add("pipeline.coalesced", "count", "higher", "pipeline");
    add("reclaim.background", "count", "higher", "reclaim");
    add("reclaim.direct", "count", "lower", "reclaim");
    add("prefetch.issued", "count", "higher", "prefetch");
    add("prefetch.hits", "count", "higher", "prefetch");
    add("prefetch.wasted", "count", "lower", "prefetch");
    add("prefetch.accuracy", "ratio", "higher", "prefetch");
    add("prefetch.coverage", "ratio", "higher", "prefetch");
    add("tier.admits", "count", "higher", "tier");
    add("tier.hits", "count", "higher", "tier");
    add("tier.hit_ratio", "ratio", "higher", "tier");
    add("tier.bypass_incompressible", "count", "lower", "tier");
    add("tier.bypass_thrash", "count", "lower", "tier");
    add("tier.demotions", "count", "lower", "tier");
    for path in fluidmem_core::CodePath::ALL {
        add(&format!("profile.{path}.mean_us"), "us", "lower", "profile");
        add(
            &format!("profile.{path}.count"),
            "count",
            "lower",
            "profile",
        );
    }
    for op in kv::OPS {
        add(&format!("kv.{op}.calls"), "count", "lower", "kv");
        add(&format!("kv.{op}.ns"), "ns", "lower", "kv");
    }
    add("kv.pages_per_multi_write", "pages", "higher", "kv");
    add("kv.cleanings", "count", "lower", "kv");
    add("kv.get_misses", "count", "lower", "kv");
    add("kv.objects", "count", "lower", "kv");
    add("telemetry.export_ms", "ms", "lower", "telemetry");
    add("telemetry.series", "count", "lower", "telemetry");
    add("bench.trace_overhead", "ratio", "lower", "bench");
    v
}

/// End-to-end metrics: name, unit, better direction, and the share of
/// the parent's median by which the metric may worsen before a change
/// counts as a regression.
const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("fault_p50_us", "us", "lower", 0.05),
    ("fault_p99_us", "us", "lower", 0.05),
    ("virtual_ops_per_s", "1/s", "higher", 0.05),
    ("wall_ns_per_access", "ns", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds must be within 0..=3600, got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A workload after set-up, ready to measure.
pub enum Workload {
    Fleet(fleet::Fleet),
    Elastic(elastic::Elastic),
    Writeback(writeback::Writeback),
}

pub fn setup(workload: &str, cfg: &RunConfig, probe: &Probe) -> Workload {
    match workload {
        "fleet" => Workload::Fleet(fleet::setup(cfg, probe, fleet::Cadence::Driven)),
        "elastic" => Workload::Elastic(elastic::setup(cfg, probe)),
        "writeback" => Workload::Writeback(writeback::setup(cfg, probe)),
        other => unreachable!("workload {other} was validated"),
    }
}

impl Workload {
    pub fn measure(&mut self, cfg: &RunConfig, probe: &Probe) -> Outcome {
        match self {
            Workload::Fleet(w) => w.measure(cfg, probe),
            Workload::Elastic(w) => w.measure(cfg, probe),
            Workload::Writeback(w) => w.measure(cfg, probe),
        }
    }
}

/// Set up and measure once, traced or not.
pub fn run_once(workload: &str, cfg: &RunConfig, traced: bool) -> (Outcome, Probe) {
    let probe = Tracer::new(traced);
    let mut w = setup(workload, cfg, &probe);
    probe.reset_stats();
    let out = w.measure(cfg, &probe);
    (out, probe)
}

/// The metrics of one run, in output order, plus its verdict.
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    lines: Vec<String>,
}

/// First quartile, median and third quartile.
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |f: f64| {
        v.get(((v.len() as f64 - 1.0) * f).round() as usize)
            .copied()
            .unwrap_or(0.0)
    };
    [at(0.25), median(values), at(0.75)]
}

/// The metric lists `BENCHMARK.json` carries, as JSON.
pub fn manifest() -> String {
    let mut s = String::from("{\"end_to_end\": [");
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
        );
    }
    s.push_str("], \"per_layer\": [");
    for (i, m) in per_layer_metrics().iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name, m.unit, m.better
        );
    }
    s.push_str("]}");
    s
}

fn end_to_end(args: &Args) -> Report {
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        small: false,
    };
    let probe = Tracer::new(false);
    let mut setups = Vec::new();
    let timed_setup = |setups: &mut Vec<f64>| {
        let t = Instant::now();
        let w = setup(&args.workload, &cfg, &probe);
        setups.push(t.elapsed().as_secs_f64());
        w
    };
    // Each instance is dropped before the next is built, so peak RSS
    // stays that of one instance.
    loop {
        drop(timed_setup(&mut setups));
        let spent: f64 = setups.iter().sum();
        if setups.len() + 1 >= MAX_SETUPS
            || (setups.len() + 1 >= MIN_SETUPS && spent >= SETUP_BUDGET_S)
        {
            break;
        }
    }
    let out = timed_setup(&mut setups).measure(&cfg, &probe);
    // The set-ups ran seconds before the measured phase, so the phase's
    // reference timings calibrate them. Timing the reference work
    // between set-ups instead would raise the measured instance's peak
    // RSS: the reference's freed heap is not all reused.
    let setup_s = median(&setups) * REFERENCE_NS / median(&out.walls.reference);
    let mut lines = vec![format!(
        "set-up s, raw: {}",
        setups
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    )];
    let walls = &out.walls;
    let [r, f, c] = [&walls.raw, &walls.reference, &walls.calibrated].map(|v| quartiles(v));
    lines.push(format!(
        "wall over {} chunk groups, quartiles: raw ns/access {:.1} / {:.1} / {:.1}; \
         reference work ms {:.2} / {:.2} / {:.2}; calibrated ns/access {:.1} / {:.1} / {:.1}",
        walls.calibrated.len(),
        r[0],
        r[1],
        r[2],
        f[0] / 1e6,
        f[1] / 1e6,
        f[2] / 1e6,
        c[0],
        c[1],
        c[2]
    ));
    lines.push(format!(
        "virtual window: {} accesses; fault_p50_us and fault_p99_us over {} fault samples",
        out.virt["accesses"], out.virt["fault_samples"]
    ));
    lines.extend(out.notes.iter().cloned());
    let metrics = END_TO_END
        .iter()
        .map(|&(name, unit, _, _)| {
            let value = match name {
                "wall_ns_per_access" => out.wall_ns_per_access(),
                "peak_rss_mb" => out.window_rss_mb,
                "setup_s" => setup_s,
                _ => out.virt[name],
            };
            (name.to_string(), value, unit)
        })
        .collect();
    Report {
        metrics,
        attempted: out.attempted,
        failed: out.failed,
        problems: out.problems,
        lines,
    }
}

/// Virtual entries on which two runs disagree.
pub fn virt_diff(a: &Outcome, b: &Outcome) -> Vec<String> {
    let keys: std::collections::BTreeSet<&String> = a.virt.keys().chain(b.virt.keys()).collect();
    keys.into_iter()
        .filter(|k| a.virt.get(*k).map(|v| v.to_bits()) != b.virt.get(*k).map(|v| v.to_bits()))
        .map(|k| format!("{k}: {:?} vs {:?}", a.virt.get(k), b.virt.get(k)))
        .collect()
}

fn per_layer(args: &Args) -> Report {
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds / 2.0,
        small: false,
    };
    let (untraced, _) = run_once(&args.workload, &cfg, false);
    let (traced, probe) = run_once(&args.workload, &cfg, true);
    let mut problems = untraced.problems.clone();
    problems.extend(traced.problems.iter().cloned());
    let diff = virt_diff(&untraced, &traced);
    if !diff.is_empty() {
        problems.push(format!(
            "traced and untraced virtual metrics differ: {}",
            diff.join("; ")
        ));
    }
    let overhead = traced.wall_ns_per_access() / untraced.wall_ns_per_access() - 1.0;
    let kv = traced.kv.unwrap_or_default();
    let mut values = traced.virt.clone();
    values.extend(traced.wall.clone());
    for (i, op) in kv::OPS.iter().enumerate() {
        values.insert(format!("kv.{op}.calls"), kv.calls[i] as f64);
    }
    values.insert(
        "kv.pages_per_multi_write".into(),
        if kv.batches() == 0 {
            0.0
        } else {
            kv.batched_pages as f64 / kv.batches() as f64
        },
    );
    values.insert("kv.get_misses".into(), kv.get_misses as f64);
    values.insert("bench.trace_overhead".into(), overhead);

    let run = groups_run(&args.workload);
    let mut lines = vec![format!(
        "calibrated wall ns/access: untraced {:.1}, traced {:.1}",
        untraced.wall_ns_per_access(),
        traced.wall_ns_per_access()
    )];
    let layer_ns = probe.layer_self_ns();
    let accesses = traced.attempted.max(1) as f64;
    let mut split = String::from("traced self time per access by layer:");
    for (layer, ns) in &layer_ns {
        let _ = write!(split, " {} {:.1} ns", layer.name(), *ns as f64 / accesses);
    }
    lines.push(split);
    lines.extend(traced.notes.iter().cloned());
    let mut metrics = Vec::new();
    let mut bypassed: Vec<&str> = Vec::new();
    for m in per_layer_metrics() {
        let runs = run.contains(&m.group);
        let value = if runs {
            match values.get(&m.name) {
                Some(v) => *v,
                None => {
                    problems.push(format!("{} was not measured", m.name));
                    0.0
                }
            }
        } else {
            let v = values.get(&m.name).copied().unwrap_or(0.0);
            if v != 0.0 && SWITCHED_OFF.contains(&m.group) {
                problems.push(format!(
                    "{} reads {v} on {}, where {} is off",
                    m.name, args.workload, m.group
                ));
            }
            if !bypassed.contains(&m.group) {
                bypassed.push(m.group);
            }
            0.0
        };
        if runs {
            lines.push(format!("[{}] {} = {value} {}", m.group, m.name, m.unit));
        }
        metrics.push((m.name, value, m.unit));
    }
    lines.push(format!(
        "bypassed on {} (reported as 0): {}",
        args.workload,
        bypassed.join(", ")
    ));
    if let Err(e) = write_spans(args, &probe) {
        problems.push(format!("could not write spans: {e}"));
    }
    Report {
        metrics,
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        problems,
        lines,
    }
}

fn write_spans(args: &Args, probe: &Probe) -> std::io::Result<()> {
    std::fs::create_dir_all(".bench_out")?;
    std::fs::write(
        format!(".bench_out/spans-{}-{}.jsonl", args.workload, args.seed),
        probe.sample_jsonl(),
    )
}

fn json_line(report: &Report, correct: bool) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.attempted, report.failed
    );
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--manifest"] {
        println!("{}", manifest());
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut report = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    for (name, value, _) in &report.metrics {
        if !value.is_finite() {
            report.problems.push(format!("{name} is not finite"));
        }
    }
    if report.failed > 0 {
        report.problems.push(format!(
            "{} of {} accesses failed or returned wrong contents",
            report.failed, report.attempted
        ));
    }
    for line in &report.lines {
        println!("  {line}");
    }
    if !args.trace {
        for (name, value, unit) in &report.metrics {
            println!("  {name} = {value} {unit}");
        }
    }
    println!(
        "  error_rate = {} ({} failed of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    let correct = report.problems.is_empty();
    for p in &report.problems {
        println!("  CHECK FAILED: {p}");
    }
    if correct {
        println!("  checks: all passed");
    }
    for (_, value, _) in report.metrics.iter_mut() {
        if !value.is_finite() {
            *value = 0.0;
        }
    }
    println!("{}", json_line(&report, correct));
    if !correct {
        std::process::exit(1);
    }
}
