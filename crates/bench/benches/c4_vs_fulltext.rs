//! C4 — the label-index-vs-full-text trade-off (§III-A): "Loki does not
//! index the text of the logs ... a small index and compressed chunks
//! significantly reduce the costs for storage and the log query times."
//!
//! Same corpus into the Loki-style store and into the Elasticsearch-style
//! inverted-index baseline. Expected shape: Loki wins index size and
//! ingest rate by orders of magnitude; full-text wins needle-term query
//! latency (it has a postings list; Loki scans and greps).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use omni_baseline::FullTextStore;
use omni_bench::{corpus_end, corpus_logs, syslog_corpus, vector_at};
use omni_loki::{Limits, LokiCluster};
use omni_model::SimClock;

const MESSAGES: usize = 50_000;

fn bench(c: &mut Criterion) {
    let corpus = syslog_corpus(MESSAGES, 64);

    // Build both stores once for the report + query benches.
    let loki = LokiCluster::new(4, Limits::default(), SimClock::starting_at(0));
    for r in corpus.clone() {
        loki.push_record(r).unwrap();
    }
    loki.flush();
    let mut fulltext = FullTextStore::new();
    for r in &corpus {
        fulltext.ingest(r.labels.clone(), r.entry.ts, r.entry.line.clone());
    }

    let raw_bytes: usize = corpus.iter().map(|r| r.entry.line.len()).sum();
    println!("\n[c4] {} messages, {} raw bytes:", MESSAGES, raw_bytes);
    println!(
        "[c4]   loki:      index {:>10} bytes ({} entries), stored {:>10} bytes (compressed)",
        loki.index_bytes(),
        loki.index_entries(),
        loki.compressed_bytes(),
    );
    println!(
        "[c4]   fulltext:  index {:>10} bytes ({} terms),  stored {:>10} bytes (raw)",
        fulltext.index_bytes(),
        fulltext.term_count(),
        fulltext.stored_bytes(),
    );
    println!(
        "[c4]   index-size ratio (fulltext/loki): {:.1}x",
        fulltext.index_bytes() as f64 / loki.index_bytes().max(1) as f64
    );
    assert!(
        fulltext.index_bytes() > 10 * loki.index_bytes(),
        "the paper's 'small index' claim must hold"
    );

    let mut g = c.benchmark_group("c4_loki_vs_fulltext");
    g.sample_size(10);

    // Ingest rate.
    g.throughput(Throughput::Elements(MESSAGES as u64));
    g.bench_function("ingest_loki", |b| {
        b.iter_with_setup(
            || (LokiCluster::new(4, Limits::default(), SimClock::starting_at(0)), corpus.clone()),
            |(cluster, corpus)| {
                for r in corpus {
                    cluster.push_record(r).unwrap();
                }
                black_box(cluster.stats().entries)
            },
        );
    });
    g.bench_function("ingest_fulltext", |b| {
        b.iter_with_setup(
            || corpus.clone(),
            |corpus| {
                let mut store = FullTextStore::new();
                for r in corpus {
                    store.ingest(r.labels, r.entry.ts, r.entry.line);
                }
                black_box(store.len())
            },
        );
    });

    // Needle query: a rare term ("lockup" appears with weight 1/100).
    g.throughput(Throughput::Elements(1));
    g.bench_function("needle_query_loki_grep", |b| {
        b.iter(|| {
            let out =
                corpus_logs(&loki, black_box(r#"{cluster="perlmutter"} |= "lockup""#), usize::MAX);
            black_box(out.len())
        });
    });
    g.bench_function("needle_query_fulltext_postings", |b| {
        b.iter(|| black_box(fulltext.search_term(black_box("lockup")).len()));
    });

    // Aggregation-style query: count per stream over everything — the
    // kind of query Loki's label grouping is built for.
    g.bench_function("aggregation_loki_count_by_stream", |b| {
        b.iter(|| {
            let v = vector_at(
                &loki,
                black_box(r#"sum(count_over_time({cluster="perlmutter"}[3h])) by (stream)"#),
                corpus_end(),
            );
            black_box(v.len())
        });
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
