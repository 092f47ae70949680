//! E2 — Figure 4: latency of the Redfish-event log query against a
//! store carrying realistic background traffic.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use omni_bench::{corpus_end, corpus_logs, loaded_cluster};
use omni_core::redfish_to_loki;
use omni_redfish::RedfishEvent;

fn bench(c: &mut Criterion) {
    // 100k syslog lines of noise + one Redfish event needle.
    let cluster = loaded_cluster(8, 100_000, 64);
    let event = RedfishEvent::paper_leak_event();
    let mut record = redfish_to_loki(&event, "perlmutter");
    record.entry.ts = corpus_end() / 2;
    cluster.push_record(record).unwrap();
    cluster.flush();

    let mut g = c.benchmark_group("fig4_event_query");
    g.sample_size(20);
    g.bench_function("needle_query_redfish_event", |b| {
        b.iter(|| {
            let out = corpus_logs(
                &cluster,
                black_box(r#"{data_type="redfish_event"} |= "CabinetLeakDetected""#),
                100,
            );
            assert_eq!(out.len(), 1);
            black_box(out)
        });
    });
    g.bench_function("selector_only_syslog_count", |b| {
        b.iter(|| {
            let out = corpus_logs(&cluster, black_box(r#"{stream="5"}"#), usize::MAX);
            black_box(out.len())
        });
    });
    g.bench_function("line_filter_over_all_syslog", |b| {
        b.iter(|| {
            let out = corpus_logs(
                &cluster,
                black_box(r#"{data_type="syslog"} |= "soft lockup""#),
                usize::MAX,
            );
            black_box(out.len())
        });
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
