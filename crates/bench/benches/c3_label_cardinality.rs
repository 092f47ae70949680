//! C3 — the paper's §IV-A design claim, as an ablation:
//!
//! "Since labels are indexed, more labels creates more index entries and
//! each log stream fills a chunk. The overuse of labels will create a
//! huge amount of small chunks in memory and on disk. Moreover, Loki
//! prefers handling bigger but fewer chunks. Thus, to achieve better
//! performance, there is need to limit the number of labels in logs, and
//! use key-value pairs with less variation as labels if possible."
//!
//! Sweep stream cardinality (2 → 8192 label-set combinations) at a fixed
//! message count and measure ingest rate and query latency; the printed
//! table shows chunks created and index size exploding with cardinality.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use omni_bench::{corpus_logs, syslog_corpus};
use omni_loki::{Limits, LokiCluster};
use omni_model::SimClock;

const MESSAGES: usize = 40_000;

fn build(streams: usize) -> LokiCluster {
    let cluster = LokiCluster::new(4, Limits::default(), SimClock::starting_at(0));
    for r in syslog_corpus(MESSAGES, streams) {
        cluster.push_record(r).unwrap();
    }
    cluster.flush();
    cluster
}

fn bench(c: &mut Criterion) {
    println!("\n[c3] label-cardinality ablation, {MESSAGES} messages:");
    println!("[c3] {:>8} {:>8} {:>12} {:>14}", "streams", "chunks", "index_entries", "index_bytes");
    for &streams in &[2usize, 64, 1024, 8192] {
        let cluster = build(streams);
        println!(
            "[c3] {:>8} {:>8} {:>12} {:>14}",
            streams,
            cluster.chunk_count(),
            cluster.index_entries(),
            cluster.index_bytes(),
        );
    }

    let mut g = c.benchmark_group("c3_label_cardinality");
    g.sample_size(10);
    for &streams in &[2usize, 64, 1024, 8192] {
        g.throughput(Throughput::Elements(MESSAGES as u64));
        g.bench_with_input(BenchmarkId::new("ingest", streams), &streams, |b, &streams| {
            let corpus = syslog_corpus(MESSAGES, streams);
            b.iter_with_setup(
                || {
                    (
                        LokiCluster::new(4, Limits::default(), SimClock::starting_at(0)),
                        corpus.clone(),
                    )
                },
                |(cluster, corpus)| {
                    for r in corpus {
                        cluster.push_record(r).unwrap();
                    }
                    black_box(cluster.chunk_count())
                },
            );
        });
        g.bench_with_input(
            BenchmarkId::new("query_line_filter", streams),
            &streams,
            |b, &streams| {
                let cluster = build(streams);
                b.iter(|| {
                    let out = corpus_logs(
                        &cluster,
                        black_box(r#"{cluster="perlmutter"} |= "slurmd""#),
                        usize::MAX,
                    );
                    black_box(out.len())
                });
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
