//! Ablation — the §IV-A chunk-sizing claim: "Loki prefers handling
//! bigger but fewer chunks."
//!
//! Sweep `chunk_target_bytes` at fixed corpus size and measure ingest and
//! query cost; the printed table shows the chunk-count explosion at small
//! targets.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use omni_bench::{corpus_logs, syslog_corpus};
use omni_loki::{Limits, LokiCluster};
use omni_model::SimClock;

const MESSAGES: usize = 30_000;

fn cluster_with_target(target: usize) -> LokiCluster {
    let limits = Limits { chunk_target_bytes: target, ..Default::default() };
    let cluster = LokiCluster::new(4, limits, SimClock::starting_at(0));
    for r in syslog_corpus(MESSAGES, 32) {
        cluster.push_record(r).unwrap();
    }
    cluster.flush();
    cluster
}

fn bench(c: &mut Criterion) {
    println!("\n[ablation] chunk-size sweep, {MESSAGES} messages / 32 streams:");
    println!(
        "[ablation] {:>12} {:>8} {:>14} {:>12}",
        "target_bytes", "chunks", "stored_bytes", "ratio"
    );
    for &target in &[512usize, 4 * 1024, 64 * 1024, 1024 * 1024] {
        let cluster = cluster_with_target(target);
        let ratio = cluster.uncompressed_bytes() as f64 / cluster.compressed_bytes().max(1) as f64;
        println!(
            "[ablation] {:>12} {:>8} {:>14} {:>12.2}",
            target,
            cluster.chunk_count(),
            cluster.compressed_bytes(),
            ratio,
        );
    }

    let mut g = c.benchmark_group("ablation_chunk_size");
    g.sample_size(10);
    for &target in &[512usize, 4 * 1024, 64 * 1024, 1024 * 1024] {
        g.throughput(Throughput::Elements(MESSAGES as u64));
        g.bench_with_input(BenchmarkId::new("ingest", target), &target, |b, &target| {
            let corpus = syslog_corpus(MESSAGES, 32);
            b.iter_with_setup(
                || {
                    let limits = Limits { chunk_target_bytes: target, ..Default::default() };
                    (LokiCluster::new(4, limits, SimClock::starting_at(0)), corpus.clone())
                },
                |(cluster, corpus)| {
                    for r in corpus {
                        cluster.push_record(r).unwrap();
                    }
                    black_box(cluster.chunk_count())
                },
            );
        });
        g.bench_with_input(BenchmarkId::new("scan_query", target), &target, |b, &target| {
            let cluster = cluster_with_target(target);
            b.iter(|| {
                let out = corpus_logs(
                    &cluster,
                    black_box(r#"{cluster="perlmutter"} |= "kernel""#),
                    usize::MAX,
                );
                black_box(out.len())
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
