//! Whole-pipeline benchmark for the OMNI stack.
//!
//! ```text
//! cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload alert_storm --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` drives `MonitoringStack` and prints the end-to-end
//! metrics. `--trace 1` runs the same workload untraced, then again
//! through the traced rebuild of `step` (see `pipeline.rs`), and prints
//! the per-layer metrics; its spans are written under `perfbench/out/`.
//! `--smoke` shrinks every workload to a few steps. The last line of
//! standard output is one JSON object; the exit code is non-zero when a
//! correctness check failed.

mod pipeline;
mod stats;
mod system;
mod trace;
mod workload;

use stats::{json_num, median, tail_quantile};
use std::collections::BTreeMap;
use trace::Tracer;
use workload::{RunResult, Workload};

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut name, mut seed, mut seconds, mut trace, mut smoke) = (None, 1u64, 10.0, false, false);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => name = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name}"))?;
    Ok(Args { workload, name, seed, seconds, trace, smoke })
}

/// Metric name → (value, unit), printed in name order.
type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

fn end_to_end(r: &RunResult) -> Metrics {
    let mut m = Metrics::new();
    m.insert("setup_s", (median(&r.setup_s), "s"));
    m.insert("lines_per_s", (r.lines as f64 / r.step_ms.iter().sum::<f64>() * 1e3, "lines/s"));
    m.insert("step_ms_p50", (median(&r.step_ms), "ms"));
    m.insert("step_ms_p90", (tail_quantile(&r.step_ms), "ms"));
    m.insert("refresh_ms_p50", (median(&r.refresh_ms), "ms"));
    m.insert("refresh_ms_p90", (tail_quantile(&r.refresh_ms), "ms"));
    m.insert("peak_rss_mb", (r.peak_rss_mb, "MiB"));
    m
}

/// The traced step's layer spans, by metric; `core.step` is the step's
/// root span, whose self time is what no layer span covers.
const STEP_LAYERS: [(&str, &str); 16] = [
    ("shasta.generate_ms", "shasta.generate"),
    ("shasta.poll_ms", "shasta.poll"),
    ("redfish.publish_ms", "redfish.publish"),
    ("core.log_bridge_pump_ms", "core.log_bridge_pump"),
    ("core.metric_bridge_pump_ms", "core.metric_bridge_pump"),
    ("tsdb.vmagent_scrape_ms", "tsdb.vmagent_scrape"),
    ("loki.tick_ms", "loki.tick"),
    ("loki.offload_ms", "loki.offload"),
    ("loki.compact_ms", "loki.compact"),
    ("loki.ruler_eval_ms", "loki.ruler_eval"),
    ("tsdb.vmalert_eval_ms", "tsdb.vmalert_eval"),
    ("alertmanager.receive_ms", "alertmanager.receive"),
    ("alertmanager.tick_ms", "alertmanager.tick"),
    ("alertmanager.delivery_pump_ms", "alertmanager.delivery_pump"),
    ("servicenow.receive_ms", "servicenow.receive_notification"),
    ("core.unattributed_ms", "core.step"),
];

/// Per-layer metrics: mean self ms per step for every layer span of the
/// traced step, per-call ms for pane and recovery calls, and counts per
/// episode. Counts of the system's own state (WAL, frontend, alerts)
/// come from the untraced `MonitoringStack` run; span counts and the
/// decode counts drained from the frontend come from the traced run.
fn per_layer(untraced: &RunResult, traced: &RunResult, tracer: &Tracer) -> Metrics {
    let totals = tracer.totals();
    let span = |name: &str| totals.get(name).copied().unwrap_or_default();
    let step = span("core.step");
    let steps = step.calls.max(1) as f64;
    let per_step = |name: &str| span(name).self_ns as f64 / 1e6 / steps;
    let per_call = |name: &str| {
        let s = span(name);
        s.total_ns as f64 / 1e6 / s.calls.max(1) as f64
    };
    let per_item_us = |name: &str| {
        let s = span(name);
        s.total_ns as f64 / 1e3 / s.count.max(1) as f64
    };
    let per_episode = |sum: u64, r: &RunResult| sum as f64 / r.episodes.max(1) as f64;
    let c = &untraced.counts;
    let mut m = Metrics::new();
    for (metric, span_name) in STEP_LAYERS {
        m.insert(metric, (per_step(span_name), "ms"));
    }
    m.insert("redfish.publish_us_per_line", (per_item_us("redfish.publish"), "us"));
    m.insert("core.log_bridge_us_per_line", (per_item_us("core.log_bridge_pump"), "us"));
    for (metric, span_name) in [
        ("core.log_bridge_records", "core.log_bridge_pump"),
        ("tsdb.samples_scraped", "tsdb.vmagent_scrape"),
        ("loki.compaction_objects_merged", "loki.compact"),
    ] {
        m.insert(metric, (per_episode(span(span_name).count, traced), "count"));
    }
    for (metric, span_name) in [
        ("core.pane_logs_ms", "core.pane_logs"),
        ("core.pane_log_metric_ms", "core.pane_log_metric"),
        ("core.pane_metric_ms", "core.pane_metric"),
        ("core.pane_heatmap_ms", "core.pane_heatmap"),
        ("loki.recover_shard_ms", "loki.recover_shard"),
    ] {
        m.insert(metric, (per_call(span_name), "ms"));
    }
    m.insert("loki.recovery_sweep_ms", (median(&untraced.recovery_sweep_ms), "ms"));
    for (metric, sum, unit) in [
        ("bus.produce_retries", c.produce_retries, "count"),
        ("loki.chunks_sealed", c.chunks_sealed, "count"),
        ("loki.wal_bytes", c.wal_bytes, "bytes"),
        ("loki.wal_records", c.wal_records, "count"),
        ("loki.wal_checkpoint_drops", c.wal_checkpoint_drops, "count"),
        ("loki.replayed_records", c.replayed_records, "count"),
        ("loki.replay_duplicate_lines", c.replay_duplicate_lines, "count"),
        ("alertmanager.notifications", c.notifications, "count"),
        ("alertmanager.delivery_retries", c.delivery_retries, "count"),
        ("servicenow.incidents_opened", c.incidents_opened, "count"),
        ("servicenow.incidents_mislabeled", c.incidents_mislabeled, "count"),
        ("loki.frontend_splits_total", c.splits_total, "count"),
        ("loki.pushdown_partials", c.pushdown_partials, "count"),
    ] {
        m.insert(metric, (per_episode(sum, untraced), unit));
    }
    let t = &traced.counts;
    for (metric, sum, unit) in [
        ("loki.blocks_decoded", t.blocks_decoded, "count"),
        ("loki.blocks_skipped", t.blocks_skipped, "count"),
        ("loki.bytes_decompressed", t.bytes_decompressed, "bytes"),
    ] {
        m.insert(metric, (per_episode(sum, traced), unit));
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    m.insert(
        "loki.frontend_cache_hit_ratio",
        (ratio(c.cache_hits as f64, c.splits_total as f64), "ratio"),
    );
    // Modeled latency comes from the real stack's histogram, so both
    // sides of this ratio are taken from the untraced run.
    m.insert(
        "loki.modeled_over_measured",
        (ratio(untraced.modeled_query_s, untraced.measured_query_s), "ratio"),
    );
    m.insert("alert.event_to_incident_p50", (median(&untraced.event_to_incident_s), "virtual-s"));
    let traced_p50 = median(&traced.step_ms);
    m.insert("trace.step_ms_mean", (step.total_ns as f64 / 1e6 / steps, "ms"));
    m.insert("trace.step_ms_p50", (traced_p50, "ms"));
    m.insert("trace.overhead_ms", (traced_p50 - median(&untraced.step_ms), "ms"));
    m
}

/// Self times of the step's layer spans plus `core.unattributed_ms`
/// must add up to the traced ms/step.
fn breakdown_adds_up(m: &Metrics) -> bool {
    let layers: f64 = STEP_LAYERS.iter().map(|(metric, _)| m[metric].0).sum();
    let step = m["trace.step_ms_mean"].0;
    (layers - step).abs() <= 1e-6 * step.max(1.0)
}

fn print_result(r: &RunResult, metrics: &Metrics, extra_failures: &[String]) -> bool {
    for f in r.check_failures.iter().chain(extra_failures) {
        eprintln!("check failed: {f}");
    }
    let correct = r.check_failures.is_empty() && extra_failures.is_empty();
    let body: Vec<String> = metrics
        .iter()
        // Names and units are fixed identifiers that need no escaping.
        .map(|(k, (v, unit))| {
            format!("\"{k}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(*v))
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempted.max(1),
        r.failed,
        body.join(", ")
    );
    correct
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload alert_storm|dashboards_live \
                 --seed N --seconds S --trace 0|1 [--smoke]"
            );
            std::process::exit(2);
        }
    };
    let params = args.workload.params(args.smoke);
    let mut off = Tracer::new(false);
    let untraced = workload::run(&params, args.seed, args.seconds, false, &mut off);
    eprintln!(
        "{}: {} episodes, {} steps, {} refreshes, {} checks",
        args.name,
        untraced.episodes,
        untraced.step_ms.len(),
        untraced.refresh_ms.len(),
        untraced.checks_run
    );
    let ok = if !args.trace {
        print_result(&untraced, &end_to_end(&untraced), &[])
    } else {
        let mut tracer = Tracer::new(true);
        let traced = workload::run(&params, args.seed, args.seconds, true, &mut tracer);
        let metrics = per_layer(&untraced, &traced, &tracer);
        let mut failures = untraced.check_failures.clone();
        if !breakdown_adds_up(&metrics) {
            failures.push("per-layer self times do not add up to the traced ms/step".into());
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-{}.json", args.name, args.seed));
        match tracer.dump(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => failures.push(format!("writing {}: {e}", path.display())),
        }
        print_result(&traced, &metrics, &failures)
    };
    if !ok {
        std::process::exit(1);
    }
}
