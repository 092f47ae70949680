//! C5 — the paper's Loki cluster runs "8 server nodes (that work as
//! Kubernetes worker nodes)". Sweep ingester shard count 1 → 8 with 8
//! concurrent producers and with parallel query fan-out; the expected
//! shape is near-linear ingest scaling until producers saturate.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use omni_bench::{corpus_logs, syslog_corpus};
use omni_loki::{Limits, LokiCluster};
use omni_model::SimClock;

const MESSAGES: usize = 40_000;
const PRODUCERS: usize = 8;

fn bench(c: &mut Criterion) {
    let corpus = syslog_corpus(MESSAGES, 256);
    let mut g = c.benchmark_group("c5_shard_scaling");
    g.sample_size(10);

    for &shards in &[1usize, 2, 4, 8] {
        g.throughput(Throughput::Elements(MESSAGES as u64));
        g.bench_with_input(BenchmarkId::new("concurrent_ingest", shards), &shards, |b, &shards| {
            b.iter_with_setup(
                || {
                    (
                        LokiCluster::new(shards, Limits::default(), SimClock::starting_at(0)),
                        corpus.clone(),
                    )
                },
                |(cluster, corpus)| {
                    // Partition by stream fingerprint: disjoint streams
                    // per producer (see c1 for why).
                    let mut parts: Vec<Vec<omni_model::LogRecord>> =
                        (0..PRODUCERS).map(|_| Vec::new()).collect();
                    for r in corpus {
                        let p = (r.labels.fingerprint() % PRODUCERS as u64) as usize;
                        parts[p].push(r);
                    }
                    std::thread::scope(|s| {
                        for part in parts {
                            let cluster = cluster.clone();
                            s.spawn(move || {
                                for r in part {
                                    cluster.push_record(r).unwrap();
                                }
                            });
                        }
                    });
                    black_box(cluster.stats().entries)
                },
            );
        });

        g.bench_with_input(BenchmarkId::new("parallel_query", shards), &shards, |b, &shards| {
            let cluster = LokiCluster::new(shards, Limits::default(), SimClock::starting_at(0));
            for r in corpus.clone() {
                cluster.push_record(r).unwrap();
            }
            cluster.flush();
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
