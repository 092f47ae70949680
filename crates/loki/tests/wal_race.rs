//! A checkpoint racing appends must not lose an acknowledged record: the
//! drop and the appends it races are serialised by the WAL's one lock.

use omni_loki::Wal;
use omni_model::{labels, LogRecord};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Barrier;
use std::thread;

const APPENDS: i64 = 50_000;
/// How far the checkpoint bound trails the newest appended timestamp.
const LAG: i64 = 1_000;
/// How far the bound must advance before the next checkpoint.
const STRIDE: i64 = 100;

fn record(i: i64) -> LogRecord {
    LogRecord::new(labels!("app" => "x", "n" => format!("{}", i % 3)), i, format!("line {i}"))
}

#[test]
fn checkpoint_racing_appends_keeps_every_record_past_the_bound() {
    let wal = Wal::new();
    // Highest timestamp appended so far (-1: none yet).
    let appended = AtomicI64::new(-1);
    let start = Barrier::new(2);
    let last_bound = thread::scope(|s| {
        let appender = s.spawn(|| {
            start.wait();
            for i in 0..APPENDS {
                wal.append(&record(i));
                appended.store(i, Ordering::Release);
            }
        });
        let checkpointer = s.spawn(|| {
            start.wait();
            let mut bound = i64::MIN;
            loop {
                let newest = appended.load(Ordering::Acquire);
                let done = newest == APPENDS - 1;
                if done || newest - LAG >= bound.saturating_add(STRIDE) {
                    bound = newest - LAG;
                    wal.checkpoint(bound);
                }
                if done {
                    return bound;
                }
                thread::yield_now();
            }
        });
        appender.join().expect("appender panicked");
        checkpointer.join().expect("checkpointer panicked")
    });

    let replayed = wal.replay().unwrap();
    assert_eq!(wal.record_count() as usize, replayed.len());
    let expected: Vec<LogRecord> = (last_bound..APPENDS).map(record).collect();
    assert_eq!(replayed.len(), expected.len(), "records lost, or old records kept");
    assert_eq!(replayed, expected);
}
