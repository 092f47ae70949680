//! Property tests for aggregation pushdown: for every decomposable
//! aggregation, evaluating per-shard partials and merging them at the
//! frontend (`aggregation_pushdown: true`) must be indistinguishable
//! from shipping entries to a central evaluation
//! (`aggregation_pushdown: false`) and from running the engine directly
//! over one unsharded ingester — across random stream shapes, tenants,
//! time splits, and cache states.
//!
//! Unwrapped values are integers, so every partial sum is exactly
//! representable and float association order cannot blur the
//! comparison — equality here is exact, not approximate.

use omni_logql::{parse_expr, Expr, MetricQuery};
use omni_loki::{Ingester, Limits, LokiCluster, QueryRequest};
use omni_model::{LabelSet, LogRecord, SimClock, TenantId};
use proptest::prelude::*;
use std::sync::Arc;

/// Records over a handful of streams with non-decreasing timestamps and
/// logfmt lines carrying an integer `v=` for the unwrap aggregations.
fn arb_records() -> impl Strategy<Value = Vec<LogRecord>> {
    prop::collection::vec((0usize..8, 0i64..2_000_000_000, 0i64..1_000, "[a-z]{0,8}"), 1..120)
        .prop_map(|items| {
            let mut ts = 0i64;
            items
                .into_iter()
                .map(|(stream, dt, value, word)| {
                    ts += dt;
                    let labels = LabelSet::from_pairs([
                        ("app", "x".to_string()),
                        ("stream", format!("{stream}")),
                    ]);
                    LogRecord::new(labels, ts, format!("v={value} msg={word}"))
                })
                .collect()
        })
}

/// Every decomposable shape: all eight partial-capable range
/// aggregations (including `avg_over_time`, decomposed as sum+count),
/// vector aggregations and filters above them — plus the two
/// non-decomposable ops, which must transparently fall back to entry
/// shipping and still agree.
const QUERIES: &[&str] = &[
    r#"sum by (stream) (count_over_time({app="x"}[RANGEs]))"#,
    r#"rate({app="x"}[RANGEs])"#,
    r#"bytes_over_time({app="x"}[RANGEs])"#,
    r#"sum(bytes_rate({app="x"}[RANGEs]))"#,
    r#"sum by (stream) (sum_over_time({app="x"} | logfmt | unwrap v [RANGEs]))"#,
    r#"min_over_time({app="x"} | logfmt | unwrap v [RANGEs])"#,
    r#"max(max_over_time({app="x"} | logfmt | unwrap v [RANGEs]))"#,
    r#"avg_over_time({app="x"} | logfmt | unwrap v [RANGEs])"#,
    r#"avg(count_over_time({app="x"}[RANGEs]))"#,
    r#"sum by (stream) (count_over_time({app="x"} |= "msg" [RANGEs])) > 1"#,
    r#"first_over_time({app="x"} | logfmt | unwrap v [RANGEs])"#,
    r#"last_over_time({app="x"} | logfmt | unwrap v [RANGEs])"#,
];

fn metric_query(text: &str) -> MetricQuery {
    match parse_expr(text).unwrap() {
        Expr::Metric(m) => m,
        Expr::Log(_) => panic!("expected a metric query"),
    }
}

/// A pushdown cluster, an entry-shipping cluster, and a bare ingester
/// holding identical records.
fn build_triple(
    records: &[LogRecord],
    split_interval_ns: i64,
) -> (LokiCluster, LokiCluster, Arc<Ingester>) {
    let limits = Limits {
        chunk_target_bytes: 512,
        split_interval_ns,
        aggregation_pushdown: true,
        ..Default::default()
    };
    let pushdown = LokiCluster::new(4, limits.clone(), SimClock::starting_at(0));
    let shipping = LokiCluster::new(
        4,
        Limits { aggregation_pushdown: false, ..limits.clone() },
        SimClock::starting_at(0),
    );
    let single = Arc::new(Ingester::new(limits));
    for r in records {
        pushdown.push_record(r.clone()).unwrap();
        shipping.push_record(r.clone()).unwrap();
        single.append(r.clone()).unwrap();
    }
    (pushdown, shipping, single)
}

proptest! {
    /// pushdown ≡ entry shipping ≡ direct engine, for every
    /// aggregation, across random stream shapes, split intervals and
    /// steps — cold, warm, with interleaved warm/cold splits, and after
    /// an append invalidates part of the cache.
    #[test]
    fn pushdown_equals_shipping_equals_direct(
        records in arb_records(),
        splits in 1i64..6,
        step_s in 1i64..45,
        range_s in prop::sample::select(vec![5i64, 30, 120]),
        query_idx in 0..QUERIES.len(),
    ) {
        let end = records.iter().map(|r| r.entry.ts).max().unwrap() + 1;
        let interval = (end / splits).max(1);
        let (pushdown, shipping, single) = build_triple(&records, interval);

        let text = QUERIES[query_idx].replace("RANGE", &range_s.to_string());
        let m = metric_query(&text);
        let decomposable = omni_logql::decomposable(&m);
        let step_ns = step_s * 1_000_000_000;
        let (direct, _) = omni_loki::engine::run_range_query_with_stats(
            std::slice::from_ref(&single), &m, 0, end, step_ns,
        );

        // Cold: partial-merging and entry-shipping agree with the
        // unsplit, unsharded evaluation — and the pushdown path really
        // did move partials, not entries.
        let range = QueryRequest::range(&text, 0, end, step_ns);
        let response = pushdown.query(&range).unwrap();
        let stats = response.report.stats;
        let cold = response.into_matrix().unwrap();
        prop_assert_eq!(&cold, &direct);
        let shipped = shipping.query(&range).unwrap().into_matrix().unwrap();
        prop_assert_eq!(&shipped, &direct);
        if decomposable {
            prop_assert_eq!(stats.entries_shipped, 0);
            if !cold.is_empty() {
                prop_assert!(stats.partials_merged > 0);
            }
        } else {
            prop_assert_eq!(stats.partials_merged, 0);
        }

        // Warm: served from the results cache, still identical.
        let warm = pushdown.query(&range).unwrap().into_matrix().unwrap();
        prop_assert_eq!(&warm, &direct);

        // Instant evaluation decomposes the same way.
        let at = end / 2;
        let instant = pushdown.query(&QueryRequest::instant(&text, at)).unwrap();
        let instant = instant.into_vector().unwrap();
        let (direct_instant, _) =
            omni_loki::engine::run_instant_query_with_stats(std::slice::from_ref(&single), &m, at);
        prop_assert_eq!(&instant, &direct_instant);

        // Cache interleaving: an append invalidates the splits whose
        // windows cover it, so the refresh mixes warm time-splits with
        // cold shard partials — the seam must be invisible.
        let mid = LogRecord::new(
            LabelSet::from_pairs([("app", "x".to_string()), ("stream", "new".to_string())]),
            end / 2,
            "v=7 msg=late",
        );
        pushdown.push_record(mid.clone()).unwrap();
        shipping.push_record(mid.clone()).unwrap();
        single.append(mid).unwrap();
        let (direct, _) =
            omni_loki::engine::run_range_query_with_stats(&[single], &m, 0, end, step_ns);
        let refreshed = pushdown.query(&range).unwrap().into_matrix().unwrap();
        prop_assert_eq!(&refreshed, &direct);
        let reshipped = shipping.query(&range).unwrap().into_matrix().unwrap();
        prop_assert_eq!(&reshipped, &direct);
    }

    /// Tenant-scoped pushdown: the injected tenant matcher threads
    /// through the shard-local evaluation, so a tenant sees exactly what
    /// the entry-shipping path computes for its streams — and never
    /// another tenant's data.
    #[test]
    fn tenant_scoped_pushdown_equals_shipping(
        records in arb_records(),
        splits in 1i64..6,
        step_s in 1i64..45,
        query_idx in 0..QUERIES.len(),
    ) {
        let end = records.iter().map(|r| r.entry.ts).max().unwrap() + 1;
        let interval = (end / splits).max(1);
        let (pushdown, shipping, _) = build_triple(&[], interval);
        let acme = TenantId::new("acme");
        let rival = TenantId::new("rival");
        for (i, r) in records.iter().enumerate() {
            // Interleave two tenants over the same label shapes.
            let t = if i % 3 == 0 { &rival } else { &acme };
            pushdown.push_record_as(t, r.clone()).unwrap();
            shipping.push_record_as(t, r.clone()).unwrap();
        }

        let text = QUERIES[query_idx].replace("RANGE", "30");
        let step_ns = step_s * 1_000_000_000;
        let acme_range = QueryRequest::range(&text, 0, end, step_ns).with_tenant(acme);
        let a = pushdown.query(&acme_range).unwrap().into_matrix().unwrap();
        let b = shipping.query(&acme_range).unwrap().into_matrix().unwrap();
        prop_assert_eq!(&a, &b);
        // And the other tenant's view is independently consistent.
        let rival_range = QueryRequest::range(&text, 0, end, step_ns).with_tenant(rival);
        let ra = pushdown.query(&rival_range).unwrap().into_matrix().unwrap();
        let rb = shipping.query(&rival_range).unwrap().into_matrix().unwrap();
        prop_assert_eq!(&ra, &rb);
    }
}
