//! Experiment C6 — "up to two years of operational data is immediately
//! available and more can be restored."

use shasta_mon::core::Omni;
use shasta_mon::loki::{Limits, LokiCluster, QueryRequest};
use shasta_mon::model::{labels, LogRecord, SimClock, NANOS_PER_SEC};

const DAY: i64 = 86_400 * NANOS_PER_SEC;

fn omni_with_two_year_retention() -> Omni {
    let limits = Limits { retention_ns: 730 * DAY, ..Default::default() };
    Omni::new(4, limits, SimClock::starting_at(0))
}

#[test]
fn data_within_two_years_is_hot() {
    let omni = omni_with_two_year_retention();
    // Write one event per 30 days over two years.
    for day in (0..730).step_by(30) {
        omni.ingest_log(labels!("app" => "history"), day * DAY + 1, format!("day {day}")).unwrap();
    }
    omni.clock().set(730 * DAY);
    omni.loki().enforce_retention();
    let records = logs(omni.loki(), r#"{app="history"}"#, 0, 731 * DAY, 1000);
    // Everything still within the window stays queryable.
    assert!(records.len() >= 24, "got {}", records.len());
}

#[test]
fn data_beyond_two_years_expires_but_restores_from_archive() {
    let omni = omni_with_two_year_retention();
    omni.ingest_log(labels!("app" => "ancient"), DAY, "from the before-times").unwrap();
    omni.loki().flush();

    // Operations archives the window before it expires.
    let archived = omni.archive_window(r#"{app="ancient"}"#, 0, 2 * DAY).unwrap();
    assert_eq!(archived, 1);

    // Three years later the hot copy is gone.
    omni.clock().set(3 * 365 * DAY);
    omni.loki().enforce_retention();
    assert!(logs(omni.loki(), r#"{app="ancient"}"#, 0, 2 * DAY, 10).is_empty());

    // "more can be restored": bring it back from cold storage.
    let restored = omni.restore_window(0, 2 * DAY);
    assert_eq!(restored, 1);
    let back = logs(omni.loki(), r#"{app="ancient", restored="true"}"#, 0, 2 * DAY, 10);
    assert_eq!(back.len(), 1);
    assert_eq!(back[0].entry.line, "from the before-times");
}

#[test]
fn retention_also_applies_to_tsdb_blocks() {
    use shasta_mon::tsdb::{Tsdb, TsdbConfig};
    let db = Tsdb::new(TsdbConfig { shards: 2, block_max_samples: 16, retention_ns: 730 * DAY });
    for day in 0..100 {
        for i in 0..24 {
            db.ingest_sample(
                "temp",
                labels!("node" => "x1"),
                day * DAY + i * 3_600 * NANOS_PER_SEC,
                42.0,
            );
        }
    }
    let dropped = db.enforce_retention(800 * DAY);
    assert!(dropped > 0, "blocks fully behind the horizon must drop");
}

fn logs(loki: &LokiCluster, query: &str, start: i64, end: i64, limit: usize) -> Vec<LogRecord> {
    loki.query(&QueryRequest::logs(query, start, end, limit)).unwrap().into_streams().unwrap()
}
