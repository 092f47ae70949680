//! Property tests for the compaction path: the series-index label codec
//! must round-trip and survive corrupt input, and — the load-bearing
//! invariant — queries must return byte-identical results whether the
//! data sits in ingester memory (head/sealed), in the hot object tier
//! (offloaded), or in the cold compacted tier. Compaction that changes a
//! single query answer is data corruption, not housekeeping.

use omni_loki::chunkstore::{labels_to_object, object_to_labels};
use omni_loki::{Limits, LokiCluster, ObjectStore, QueryRequest, QueryResponse};
use omni_model::{LabelSet, SimClock, NANOS_PER_SEC};
use proptest::prelude::*;

/// Label maps with Loki-plausible keys and arbitrary printable values
/// (duplicate keys collapse in the `LabelSet`, as at ingest).
fn arb_labels() -> impl Strategy<Value = LabelSet> {
    prop::collection::vec(("[a-z_][a-z0-9_]{0,12}", "\\PC{0,24}"), 0..8)
        .prop_map(LabelSet::from_pairs)
}

proptest! {
    /// Encoding a label set into a series-index object and decoding it
    /// back is lossless.
    #[test]
    fn labels_roundtrip(labels in arb_labels()) {
        let obj = labels_to_object(&labels);
        prop_assert_eq!(object_to_labels(&obj).unwrap(), labels);
    }

    /// Arbitrary bytes posing as a series-index object must decode to an
    /// error or a label set — never panic, never read out of bounds.
    #[test]
    fn corrupt_series_objects_never_panic(data in prop::collection::vec(any::<u8>(), 0..600)) {
        let _ = object_to_labels(&data);
    }

    /// A truncated valid encoding either errors or (cut at the exact
    /// end) reproduces the original — it never yields garbage labels.
    #[test]
    fn truncated_series_objects_error_or_roundtrip(
        labels in arb_labels(),
        cut_frac in 0.0f64..1.0,
    ) {
        let obj = labels_to_object(&labels);
        prop_assert_eq!(object_to_labels(&obj).unwrap(), labels.clone());
        let cut = ((obj.len() as f64) * cut_frac) as usize;
        if let Ok(decoded) = object_to_labels(&obj[..cut]) {
            // The trailing-bytes and bounds checks leave exactly one
            // decodable prefix: the whole object.
            prop_assert_eq!(cut, obj.len());
            prop_assert_eq!(decoded, labels);
        }
    }

    /// Tier equivalence: the same workload queried while resident in
    /// ingester memory, after offload to the hot object tier, and after
    /// compaction into the cold tier returns identical records — over
    /// the full window and over a random sub-window. The cache is
    /// dropped between stages so each read hits storage.
    #[test]
    fn head_sealed_and_compacted_tiers_answer_identically(
        deltas in prop::collection::vec(0i64..2 * NANOS_PER_SEC, 1..80),
        streams in prop::collection::vec(0usize..3, 1..80),
        start_frac in 0.0f64..1.0,
        len_frac in 0.0f64..1.0,
    ) {
        let limits = Limits {
            chunk_target_bytes: 128, // many small sealed chunks
            compact_after_ns: 0,
            ..Default::default()
        };
        let c = LokiCluster::new(2, limits, SimClock::starting_at(0));
        let n = deltas.len().min(streams.len());
        let mut ts = 0i64;
        for i in 0..n {
            ts += deltas[i];
            let labels = LabelSet::from_pairs([
                ("app", "equiv".to_string()),
                ("stream", format!("{}", streams[i])),
            ]);
            // Unique lines: equal-content chunks would be legitimately
            // deduplicated, which is not what this test probes.
            c.push(labels, ts, format!("entry {i} of the workload")).unwrap();
        }
        let span = ts + 1;
        let sub_start = (span as f64 * start_frac) as i64 - 1;
        let sub_end = sub_start + 1 + (span as f64 * len_frac) as i64;
        let windows = [(-1, span), (sub_start, sub_end)];
        let query = |label: &str| -> Vec<_> {
            c.frontend().invalidate_all();
            windows
                .iter()
                .map(|&(s, e)| {
                    c.query(&QueryRequest::logs(r#"{app="equiv"}"#, s, e, usize::MAX))
                        .and_then(QueryResponse::into_streams)
                        .unwrap_or_else(|err| panic!("{label} query failed: {err}"))
                })
                .collect()
        };

        let in_memory = query("in-memory");
        // Stage 2: seal every head and offload everything to the store.
        c.clock().set(ts + 3_600 * NANOS_PER_SEC);
        c.flush();
        c.offload(0);
        prop_assert!(!c.chunk_store().objects().list("chunks/").is_empty());
        let offloaded = query("offloaded");
        // Stage 3: compact into the cold tier.
        c.compact();
        let compacted = query("compacted");

        prop_assert_eq!(&in_memory, &offloaded, "offload changed query results");
        prop_assert_eq!(&offloaded, &compacted, "compaction changed query results");
    }
}
