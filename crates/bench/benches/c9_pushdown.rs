//! C9 — aggregation pushdown: a fleet-wide `rate()` panel asks every
//! shard for a handful of per-stream partial sums instead of shipping
//! every matching entry to the frontend for central evaluation. The
//! paper's operators keep exactly this kind of panel open around the
//! clock, so the map/reduce split is the difference between a dashboard
//! that refreshes and one that times out.
//!
//! Measures the same refresh against two identically loaded clusters —
//! `aggregation_pushdown: true` vs `false` — cold cache, best-of-N, and
//! cross-checks that both modes return byte-identical matrices while the
//! pushdown path ships zero entries. Owns the `pushdown` section of
//! BENCH_PR10.json; quick mode shrinks the corpus and only prints.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use omni_bench::{corpus_end, quick_mode, syslog_corpus, write_pr10_section};
use omni_json::jsonv;
use omni_loki::{Limits, LokiCluster, QueryRequest, QueryStats};
use omni_model::{LogRecord, SimClock, NANOS_PER_SEC};
use std::time::Instant;

/// The fleet-wide panel: per-stream ingest rate over every log line the
/// cluster holds.
const PANEL: &str = r#"sum by (stream) (rate({cluster="perlmutter"}[5m]))"#;
const STEP_NS: i64 = 60 * NANOS_PER_SEC;

fn build_cluster(corpus: &[LogRecord], aggregation_pushdown: bool) -> LokiCluster {
    let clock = SimClock::starting_at(0);
    let limits = Limits { aggregation_pushdown, ..Default::default() };
    let cluster = LokiCluster::new(8, limits, clock.clone());
    for r in corpus {
        cluster.push_record(r.clone()).expect("corpus records are valid");
    }
    clock.advance_secs(3600);
    cluster.flush();
    cluster
}

/// One panel refresh against the full corpus window, with the stats the
/// frontend accumulated for it.
fn refresh(cluster: &LokiCluster) -> (omni_logql::Matrix, QueryStats) {
    let response =
        cluster.query(&QueryRequest::range(PANEL, 0, corpus_end(), STEP_NS)).expect("panel query");
    let stats = response.report.stats;
    (response.into_matrix().expect("a metric panel"), stats)
}

fn pr10_pushdown_report() {
    let quick = quick_mode();
    let n = if quick { 8_000 } else { 50_000 };
    let runs = if quick { 2 } else { 5 };
    let corpus = syslog_corpus(n, 64);

    let pushdown = build_cluster(&corpus, true);
    let shipping = build_cluster(&corpus, false);

    // Correctness cross-check first: moving the aggregation into the
    // shards must be invisible in the results — and really must move
    // partials, not entries.
    let (pushed, pstats) = refresh(&pushdown);
    let (shipped, sstats) = refresh(&shipping);
    let results_equal = pushed == shipped;
    assert!(results_equal, "pushdown refresh diverged from entry-shipping refresh");
    assert_eq!(pstats.entries_shipped, 0, "pushdown refresh shipped entries");
    assert!(pstats.partials_merged > 0, "pushdown refresh merged no partials");
    assert!(sstats.entries_shipped > 0, "entry-shipping refresh shipped nothing");

    // Cold refresh on both clusters, best-of-N. `invalidate_all` restores
    // a cold cache without rebuilding the cluster.
    let mut push_cold = f64::INFINITY;
    let mut ship_cold = f64::INFINITY;
    for _ in 0..runs {
        pushdown.frontend().invalidate_all();
        let t = Instant::now();
        black_box(refresh(&pushdown));
        push_cold = push_cold.min(t.elapsed().as_secs_f64());

        shipping.frontend().invalidate_all();
        let t = Instant::now();
        black_box(refresh(&shipping));
        ship_cold = ship_cold.min(t.elapsed().as_secs_f64());
    }
    let speedup = ship_cold / push_cold;
    let fstats = pushdown.frontend().stats();
    assert!(fstats.pushdown_queries > 0, "frontend never took the pushdown path");
    if !quick {
        assert!(speedup >= 5.0, "pushdown refresh speedup {speedup:.2}x below the 5x floor");
    }

    println!(
        "pr10 pushdown: pushdown {:.6}s, shipping {:.6}s ({speedup:.1}x), \
         entries shipped {} vs {}, partials {}, equal {results_equal}",
        push_cold,
        ship_cold,
        pstats.entries_shipped,
        sstats.entries_shipped,
        pstats.partials_merged,
    );
    if !quick {
        write_pr10_section(
            "pushdown",
            jsonv!({
                "messages": (n),
                "runs_best_of": (runs),
                "query": (PANEL),
                "pushdown_refresh_seconds": (push_cold),
                "shipping_refresh_seconds": (ship_cold),
                "speedup": (speedup),
                "entries_shipped_pushdown": (pstats.entries_shipped),
                "entries_shipped_shipping": (sstats.entries_shipped),
                "partials_merged": (pstats.partials_merged),
                "results_equal": (results_equal),
            }),
        );
    }
}

fn bench(c: &mut Criterion) {
    pr10_pushdown_report();
    if quick_mode() {
        return;
    }

    let mut g = c.benchmark_group("c9_pushdown");
    g.sample_size(10);

    let corpus = syslog_corpus(50_000, 64);
    let pushdown = build_cluster(&corpus, true);
    let shipping = build_cluster(&corpus, false);

    g.bench_function("fleet_rate_pushdown", |b| {
        b.iter(|| {
            pushdown.frontend().invalidate_all();
            black_box(refresh(&pushdown))
        });
    });
    g.bench_function("fleet_rate_shipping", |b| {
        b.iter(|| {
            shipping.frontend().invalidate_all();
            black_box(refresh(&shipping))
        });
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
