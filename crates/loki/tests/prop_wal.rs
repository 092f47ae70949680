//! Property tests for the WAL: whatever the ingest path accepts must
//! survive an encode → replay cycle bit-for-bit, including non-ASCII
//! lines and negative (pre-epoch) timestamps exercising the zigzag path.

use omni_loki::{Limits, LokiCluster, QueryRequest, Wal};
use omni_model::{LabelSet, LogRecord, SimClock};
use proptest::prelude::*;

/// Arbitrary label sets: 1..6 pairs, names lowercase, values spanning
/// printable unicode.
fn arb_labels() -> impl Strategy<Value = LabelSet> {
    prop::collection::vec(("[a-z_][a-z0-9_]{0,6}", "\\PC{0,12}"), 1..6).prop_map(|pairs| {
        let mut ls = LabelSet::new();
        for (k, v) in pairs {
            ls.insert(k, v);
        }
        ls
    })
}

fn arb_record() -> impl Strategy<Value = LogRecord> {
    (
        arb_labels(),
        // Timestamps on both sides of the epoch: negative values take the
        // zigzag encoder through its sign-folding branch.
        prop_oneof![-2_000_000_000i64..2_000_000_000, Just(i64::MIN / 2), Just(i64::MAX / 2),],
        // Lines mixing ASCII, escapes and multi-byte unicode.
        prop_oneof!["\\PC{0,80}", "[é中Ω→ß¥☃ \t]{0,20}", Just(String::new())],
    )
        .prop_map(|(labels, ts, line)| LogRecord::new(labels, ts, line))
}

/// WALs spanning many segments: several hundred records over a few
/// streams, lines of 100 to 200 bytes, timestamps rising with jitter so
/// neighbouring segments overlap in time and some arrive out of order.
fn arb_long_wal() -> impl Strategy<Value = Vec<LogRecord>> {
    prop::collection::vec((0u8..4, -500i64..500, "[a-z0-9 ]{100,200}"), 600..1200).prop_map(
        |rows| {
            rows.into_iter()
                .enumerate()
                .map(|(i, (stream, jitter, line))| {
                    let labels = LabelSet::from_pairs([("app", "fm"), ("n", &stream.to_string())]);
                    LogRecord::new(labels, i as i64 * 100 + jitter, line)
                })
                .collect()
        },
    )
}

proptest! {
    /// Encode → replay returns exactly the appended records, in order.
    #[test]
    fn append_replay_roundtrip(records in prop::collection::vec(arb_record(), 0..60)) {
        let wal = Wal::new();
        for r in &records {
            wal.append(r);
        }
        prop_assert_eq!(wal.record_count(), records.len() as u64);
        let replayed = wal.replay().unwrap();
        prop_assert_eq!(replayed, records);
    }

    /// Checkpointing keeps exactly the records at or after the bound and
    /// never grows the segment.
    #[test]
    fn checkpoint_partitions_by_timestamp(
        records in prop::collection::vec(arb_record(), 0..60),
        bound in -2_000_000_000i64..2_000_000_000,
    ) {
        let wal = Wal::new();
        for r in &records {
            wal.append(r);
        }
        let before_bytes = wal.bytes();
        let dropped = wal.checkpoint(bound);
        let expected: Vec<LogRecord> =
            records.iter().filter(|r| r.entry.ts >= bound).cloned().collect();
        prop_assert_eq!(dropped, records.len() - expected.len());
        prop_assert_eq!(wal.record_count(), expected.len() as u64);
        prop_assert!(wal.bytes() <= before_bytes);
        prop_assert_eq!(wal.replay().unwrap(), expected);
    }

    /// Crash-recovery is idempotent at the cluster level: any script of
    /// crash/recover events — including a supervisor retrying recovery at
    /// the same WAL offset — restores exactly the accepted records, never
    /// duplicates. In-order pushes only, so acceptance is unconditional
    /// and the expected count is exact.
    #[test]
    fn repeated_crash_recovery_never_duplicates(
        // (push batch size, crash?, extra recover calls) per round.
        script in prop::collection::vec((1usize..8, any::<bool>(), 0usize..3), 1..8),
    ) {
        let c = LokiCluster::new(1, Limits::default(), SimClock::starting_at(0));
        let labels = LabelSet::from_pairs([("app", "fm")]);
        let mut pushed = 0i64;
        for (batch, crash, extra_recovers) in script {
            for _ in 0..batch {
                c.push(labels.clone(), pushed, format!("line {pushed}")).unwrap();
                pushed += 1;
            }
            if crash {
                c.crash_shard(0);
                let restored = c.recover_shard(0);
                prop_assert_eq!(restored as i64, pushed, "replay restores every record");
            }
            // Redundant recoveries (shard already up) must be no-ops.
            for _ in 0..extra_recovers {
                prop_assert_eq!(c.recover_shard(0), 0);
            }
            let req = QueryRequest::logs(r#"{app="fm"}"#, -1, i64::MAX - 1, usize::MAX);
            let out = c.query(&req).unwrap().into_streams().unwrap();
            prop_assert_eq!(out.len() as i64, pushed, "no loss and no duplication");
        }
    }

    /// Across many segments, a checkpoint keeps exactly
    /// `filter(ts >= bound)` with an exact drop count and never grows the
    /// WAL, and a sequence of rising bounds ends where one checkpoint at
    /// the last bound does.
    #[test]
    fn multi_segment_checkpoints_partition_by_timestamp(
        records in arb_long_wal(),
        batch in 1usize..40,
        bounds in prop::collection::vec(-1_000i64..130_000, 1..6),
    ) {
        let mut bounds = bounds;
        bounds.sort_unstable();
        let stepped = Wal::new();
        let single = Wal::new();
        for chunk in records.chunks(batch) {
            stepped.append_batch(chunk);
            single.append_batch(chunk);
        }
        prop_assert!(stepped.segment_count() > 2, "{} segments", stepped.segment_count());

        let mut dropped = 0;
        for &bound in &bounds {
            let before = stepped.bytes();
            dropped += stepped.checkpoint(bound);
            let expected: Vec<LogRecord> =
                records.iter().filter(|r| r.entry.ts >= bound).cloned().collect();
            prop_assert_eq!(dropped, records.len() - expected.len());
            prop_assert_eq!(stepped.record_count(), expected.len() as u64);
            prop_assert!(stepped.bytes() <= before);
            prop_assert_eq!(stepped.replay().unwrap(), expected);
        }

        let last = bounds[bounds.len() - 1];
        prop_assert_eq!(single.checkpoint(last), dropped);
        prop_assert_eq!(single.replay().unwrap(), stepped.replay().unwrap());
        prop_assert_eq!(single.bytes(), stepped.bytes());
    }
}
