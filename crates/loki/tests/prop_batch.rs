//! Property tests for the batched ingest path: `append_batch` must be
//! indistinguishable from the same records appended one at a time —
//! identical per-record outcomes, byte-identical sealed chunks, identical
//! index state, and identical WAL replay results (the batched WAL segment
//! itself may be smaller: runs share one label-set frame).

use omni_loki::{Ingester, Limits, LokiCluster, QueryRequest, Wal};
use omni_model::{LabelSet, LogRecord, SimClock};
use proptest::prelude::*;

/// Records spread over a handful of streams with non-decreasing
/// timestamps (so the out-of-order check treats both paths identically),
/// seasoned with occasional invalid records (empty labels) to exercise
/// per-record error reporting.
fn arb_records() -> impl Strategy<Value = Vec<LogRecord>> {
    prop::collection::vec((0usize..9, 0i64..1_000_000, "\\PC{0,40}"), 0..120).prop_map(|items| {
        let mut ts = 0i64;
        items
            .into_iter()
            .map(|(stream, dt, line)| {
                ts += dt;
                let labels = if stream == 8 {
                    LabelSet::new() // invalid: rejected by both paths
                } else {
                    LabelSet::from_pairs([
                        ("app", "x".to_string()),
                        ("stream", format!("{stream}")),
                    ])
                };
                LogRecord::new(labels, ts, line)
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn ingester_batch_equals_sequential_appends(records in arb_records()) {
        let limits = Limits { chunk_target_bytes: 512, ..Default::default() };
        let serial = Ingester::new(limits.clone());
        let batched = Ingester::new(limits);

        let serial_results: Vec<_> =
            records.iter().map(|r| serial.append(r.clone())).collect();
        let batch: Vec<(u64, LogRecord)> =
            records.iter().map(|r| (r.labels.fingerprint(), r.clone())).collect();
        let batch_results = batched.append_batch(batch);

        prop_assert_eq!(serial_results, batch_results);
        prop_assert_eq!(serial.stats(), batched.stats());
        prop_assert_eq!(serial.stream_count(), batched.stream_count());
        prop_assert_eq!(serial.index_entries(), batched.index_entries());

        serial.flush();
        batched.flush();
        prop_assert_eq!(serial.sealed_chunk_bytes(), batched.sealed_chunk_bytes());
    }

    #[test]
    fn wal_batch_equals_sequential_appends(records in arb_records()) {
        let serial = Wal::new();
        let batched = Wal::new();
        for r in &records {
            serial.append(r);
        }
        batched.append_batch(&records);
        // Run framing writes each label set once per consecutive run, so
        // the batched segment is never larger — and replays identically.
        prop_assert!(batched.bytes() <= serial.bytes());
        prop_assert_eq!(serial.record_count(), batched.record_count());
        prop_assert_eq!(serial.replay().unwrap(), batched.replay().unwrap());
    }

    #[test]
    fn cluster_batch_push_equals_sequential_push(records in arb_records()) {
        let limits = Limits { chunk_target_bytes: 512, ..Default::default() };
        let serial = LokiCluster::new(4, limits.clone(), SimClock::starting_at(0));
        let batched = LokiCluster::new(4, limits, SimClock::starting_at(0));

        let serial_results: Vec<_> =
            records.iter().map(|r| serial.push_record(r.clone())).collect();
        let batch_results = batched.push_record_batch(records);
        prop_assert_eq!(serial_results, batch_results);
        prop_assert_eq!(serial.stats(), batched.stats());
        prop_assert_eq!(
            serial.resilience().wal_records,
            batched.resilience().wal_records
        );
        prop_assert!(batched.resilience().wal_bytes <= serial.resilience().wal_bytes);

        let q = |c: &LokiCluster| {
            let req = QueryRequest::logs(r#"{app="x"}"#, i64::MIN, i64::MAX, usize::MAX);
            c.query(&req).unwrap().into_streams().unwrap()
        };
        prop_assert_eq!(q(&serial), q(&batched));
    }

    /// The stream-framed push (one label set + its entries per call) must
    /// be indistinguishable from pushing the same records one at a time:
    /// identical per-record outcomes, counters, and query results.
    /// Frames preserve each stream's arrival order, which is all the
    /// ordering check depends on.
    #[test]
    fn cluster_stream_frame_push_equals_sequential_push(records in arb_records()) {
        let limits = Limits { chunk_target_bytes: 512, ..Default::default() };
        let serial = LokiCluster::new(4, limits.clone(), SimClock::starting_at(0));
        let framed = LokiCluster::new(4, limits, SimClock::starting_at(0));

        let serial_results: Vec<_> =
            records.iter().map(|r| serial.push_record(r.clone())).collect();

        // Group into stream frames, remembering original positions.
        let mut frames: Vec<(omni_model::LabelSet, Vec<usize>)> = Vec::new();
        for (i, r) in records.iter().enumerate() {
            match frames.iter_mut().find(|(l, _)| *l == r.labels) {
                Some((_, idxs)) => idxs.push(i),
                None => frames.push((r.labels.clone(), vec![i])),
            }
        }
        let mut framed_results: Vec<Option<Result<(), omni_loki::IngestError>>> =
            vec![None; records.len()];
        for (labels, idxs) in frames {
            let entries = idxs.iter().map(|&i| records[i].entry.clone()).collect();
            for (&i, res) in idxs.iter().zip(framed.push_stream_batch(labels, entries)) {
                framed_results[i] = Some(res);
            }
        }
        let framed_results: Vec<_> = framed_results.into_iter().map(Option::unwrap).collect();

        prop_assert_eq!(serial_results, framed_results);
        prop_assert_eq!(serial.stats(), framed.stats());
        prop_assert_eq!(
            serial.resilience().wal_records,
            framed.resilience().wal_records
        );
        let q = |c: &LokiCluster| {
            let req = QueryRequest::logs(r#"{app="x"}"#, i64::MIN, i64::MAX, usize::MAX);
            c.query(&req).unwrap().into_streams().unwrap()
        };
        prop_assert_eq!(q(&serial), q(&framed));
    }
}
