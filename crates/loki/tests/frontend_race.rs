//! The results cache must never keep a split that missed an acknowledged
//! append.
//!
//! A split executes outside the cache lock and is inserted afterwards. An
//! append that lands in the split's window while the split is scanning
//! finds nothing cached to drop, so the insert itself has to notice the
//! append. Each round drops the cache, then races one query against one
//! push into the query's window, landing while the query scans;
//! afterwards the (possibly cached) answer must equal an uncached re-read.

use omni_loki::{LokiCluster, QueryRequest, QueryResponse};
use omni_model::{LabelSet, LogRecord, SimClock, NANOS_PER_SEC};

const MINUTE: i64 = 60 * NANOS_PER_SEC;
const HOUR: i64 = 60 * MINUTE;
const LINES: i64 = 10_000;
const ROUNDS: usize = 30;

fn labels(stream: &str) -> LabelSet {
    LabelSet::from_pairs([("app", "x".to_string()), ("stream", stream.to_string())])
}

/// One cluster holding a flushed `{app="x"}` stream spread over the
/// first 50 minutes, so every scan of the hour decodes sealed chunks.
fn loaded() -> LokiCluster {
    let c = LokiCluster::single(SimClock::starting_at(0));
    let step = 50 * MINUTE / LINES;
    let records = (1..=LINES)
        .map(|i| LogRecord::new(labels("base"), i * step, format!("line {i}")))
        .collect();
    c.push_batch(records).unwrap();
    c.flush();
    c
}

/// Rounds in which the answer left behind by a query that raced an
/// acknowledged append differs from an uncached re-read.
fn stale_rounds<T: PartialEq>(req: &QueryRequest, read: fn(QueryResponse) -> T) -> usize {
    let c = loaded();
    let run = || read(c.query(req).unwrap());
    let mut stale = 0;
    for round in 0..ROUNDS {
        c.frontend().invalidate_all();
        let misses = c.frontend().stats().cache_misses;
        std::thread::scope(|s| {
            s.spawn(|| drop(run()));
            s.spawn(|| {
                // Push once the query has missed the cache and is scanning.
                while c.frontend().stats().cache_misses == misses {
                    std::hint::spin_loop();
                }
                let late = LogRecord::new(labels(&format!("r{round}")), HOUR / 2, "late line");
                c.push_record(late).unwrap();
            });
        });
        let after_race = run();
        c.frontend().invalidate_all();
        if after_race != run() {
            stale += 1;
        }
    }
    stale
}

#[test]
fn log_split_racing_an_append_is_not_cached_stale() {
    let req = QueryRequest::logs(r#"{app="x"}"#, 0, HOUR, usize::MAX);
    let stale = stale_rounds(&req, |r| r.into_streams().unwrap());
    assert_eq!(stale, 0, "{stale}/{ROUNDS} rounds served a split missing an acknowledged append");
}

#[test]
fn range_split_racing_an_append_is_not_cached_stale() {
    // Steps up to 59m stay inside one split interval, so the lone split
    // scans on the querying thread, as the log query's does.
    let req =
        QueryRequest::range(r#"sum(count_over_time({app="x"}[10m]))"#, 0, HOUR - MINUTE, MINUTE);
    let stale = stale_rounds(&req, |r| r.into_matrix().unwrap());
    assert_eq!(stale, 0, "{stale}/{ROUNDS} rounds served a split missing an acknowledged append");
}
