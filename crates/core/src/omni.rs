//! OMNI: "a data warehouse to collect, manage and analyze data related to
//! monitoring of extreme scale computing systems ... up to two years of
//! operational data is immediately available and more can be restored."
//!
//! The facade owns both stores (logs in Loki, metrics in the TSDB),
//! meters ingest rate (the 400k msg/s capability claim, experiment C1),
//! and implements the archive/restore cycle behind the two-year hot
//! window (experiment C6).

use omni_baseline::{Document, FullTextStore};
use omni_loki::{Direction, IngestError, Limits, LokiCluster, QueryRequest, QueryResponse};
use omni_model::{LabelSet, LogRecord, SimClock, Timestamp};
use omni_tsdb::{Tsdb, TsdbConfig};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cold storage: archived log records, restorable on demand. Stands in
/// for the tape/object tier behind OMNI's two-year hot window.
#[derive(Default)]
pub struct ArchiveStore {
    batches: Mutex<Vec<(Timestamp, Vec<LogRecord>)>>,
}

impl ArchiveStore {
    /// Empty archive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store a batch archived at `archived_at`.
    pub fn store(&self, archived_at: Timestamp, records: Vec<LogRecord>) {
        self.batches.lock().push((archived_at, records));
    }

    /// Restore every archived record overlapping `(start, end]`.
    pub fn restore(&self, start: Timestamp, end: Timestamp) -> Vec<LogRecord> {
        self.batches
            .lock()
            .iter()
            .flat_map(|(_, records)| records.iter())
            .filter(|r| r.entry.ts > start && r.entry.ts <= end)
            .cloned()
            .collect()
    }

    /// Number of archived batches.
    pub fn batch_count(&self) -> usize {
        self.batches.lock().len()
    }

    /// Total archived records.
    pub fn record_count(&self) -> usize {
        self.batches.lock().iter().map(|(_, r)| r.len()).sum()
    }
}

/// The warehouse.
///
/// OMNI "is backed by a scalable and parallel time-series database,
/// Elasticsearch and VictoriaMetrics" — logs live in Loki, metrics in the
/// TSDB, and an optional Elasticsearch-style full-text tier serves
/// Kibana-style term discovery over the same log traffic.
#[derive(Clone)]
pub struct Omni {
    loki: LokiCluster,
    tsdb: Tsdb,
    clock: SimClock,
    archive: Arc<ArchiveStore>,
    discovery: Option<Arc<Mutex<FullTextStore>>>,
    messages_in: Arc<AtomicU64>,
    bytes_in: Arc<AtomicU64>,
}

impl Omni {
    /// Build a warehouse: `shards` Loki ingesters (the paper's cluster has
    /// 8 workers), default TSDB config, two-year retention.
    pub fn new(shards: usize, limits: Limits, clock: SimClock) -> Self {
        Self {
            loki: LokiCluster::new(shards, limits, clock.clone()),
            tsdb: Tsdb::new(TsdbConfig::default()),
            clock: clock.clone(),
            archive: Arc::new(ArchiveStore::new()),
            discovery: None,
            messages_in: Arc::new(AtomicU64::new(0)),
            bytes_in: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Enable the Elasticsearch-style discovery tier: every metered log
    /// line is additionally tokenized into a full-text index so operators
    /// can run Kibana-style term searches.
    pub fn with_discovery(mut self) -> Self {
        self.discovery = Some(Arc::new(Mutex::new(FullTextStore::new())));
        self
    }

    /// The log store.
    pub fn loki(&self) -> &LokiCluster {
        &self.loki
    }

    /// The metric store.
    pub fn tsdb(&self) -> &Tsdb {
        &self.tsdb
    }

    /// The warehouse clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The cold tier.
    pub fn archive(&self) -> &ArchiveStore {
        &self.archive
    }

    /// Metered log ingest (counts toward the C1 throughput number).
    pub fn ingest_log(
        &self,
        labels: LabelSet,
        ts: Timestamp,
        line: impl Into<String>,
    ) -> Result<(), IngestError> {
        let line = line.into();
        self.messages_in.fetch_add(1, Ordering::Relaxed);
        self.bytes_in.fetch_add(line.len() as u64, Ordering::Relaxed);
        if let Some(discovery) = &self.discovery {
            discovery.lock().ingest(labels.clone(), ts, line.clone());
        }
        self.loki.push(labels, ts, line)
    }

    /// Metered record ingest (the bridge clients' path).
    pub fn ingest_record(&self, record: LogRecord) -> Result<(), IngestError> {
        self.messages_in.fetch_add(1, Ordering::Relaxed);
        self.bytes_in.fetch_add(record.entry.line.len() as u64, Ordering::Relaxed);
        if let Some(discovery) = &self.discovery {
            discovery.lock().ingest(
                record.labels.clone(),
                record.entry.ts,
                record.entry.line.clone(),
            );
        }
        self.loki.push_record(record)
    }

    /// Metered batch ingest: one metering pass, one batched Loki push.
    /// Returns per-record outcomes in input order, so callers keep their
    /// per-record retry/dead-letter handling.
    pub fn ingest_batch(&self, records: Vec<LogRecord>) -> Vec<Result<(), IngestError>> {
        self.messages_in.fetch_add(records.len() as u64, Ordering::Relaxed);
        let bytes: u64 = records.iter().map(|r| r.entry.line.len() as u64).sum();
        self.bytes_in.fetch_add(bytes, Ordering::Relaxed);
        if let Some(discovery) = &self.discovery {
            let mut store = discovery.lock();
            for record in &records {
                store.ingest(record.labels.clone(), record.entry.ts, record.entry.line.clone());
            }
        }
        self.loki.push_record_batch(records)
    }

    /// Kibana-style term discovery over `(start, end]`. Returns matching
    /// documents, or an empty vec when the discovery tier is disabled.
    pub fn discover(&self, term: &str, start: Timestamp, end: Timestamp) -> Vec<Document> {
        match &self.discovery {
            Some(store) => {
                store.lock().search_term_in_range(term, start, end).into_iter().cloned().collect()
            }
            None => Vec::new(),
        }
    }

    /// `(documents, distinct terms, index bytes)` of the discovery tier.
    pub fn discovery_stats(&self) -> (usize, usize, usize) {
        match &self.discovery {
            Some(store) => {
                let s = store.lock();
                (s.len(), s.term_count(), s.index_bytes())
            }
            None => (0, 0, 0),
        }
    }

    /// Metered metric ingest.
    pub fn ingest_metric(&self, name: &str, labels: LabelSet, ts: Timestamp, value: f64) {
        self.messages_in.fetch_add(1, Ordering::Relaxed);
        self.tsdb.ingest_sample(name, labels, ts, value);
    }

    /// `(messages, bytes)` ingested so far.
    pub fn ingest_totals(&self) -> (u64, u64) {
        (self.messages_in.load(Ordering::Relaxed), self.bytes_in.load(Ordering::Relaxed))
    }

    /// Archive log records in `(start, end]` matching `query` to the cold
    /// tier, then drop anything beyond Loki's retention horizon. Returns
    /// how many records were archived.
    pub fn archive_window(
        &self,
        query: &str,
        start: Timestamp,
        end: Timestamp,
    ) -> Result<usize, omni_loki::QueryError> {
        // Forward direction: the archive preserves oldest-first order so
        // a later restore can re-push records without tripping each
        // stream's ordering enforcement.
        let req =
            QueryRequest::logs(query, start, end, usize::MAX).with_direction(Direction::Forward);
        let records = self.loki.query(&req).and_then(QueryResponse::into_streams)?;
        let n = records.len();
        if n > 0 {
            self.archive.store(self.clock.now(), records);
        }
        self.loki.enforce_retention();
        Ok(n)
    }

    /// Restore archived records overlapping `(start, end]` back into the
    /// hot store ("more can be restored"). Returns records restored.
    pub fn restore_window(&self, start: Timestamp, end: Timestamp) -> usize {
        let records = self.archive.restore(start, end);
        let n = records.len();
        for r in records {
            // Restored data is historical; bypass ordering enforcement by
            // re-labelling it as restored so it forms fresh streams.
            let mut labels = r.labels.clone();
            labels.insert("restored", "true");
            let _ = self.loki.push(labels, r.entry.ts, r.entry.line);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omni_model::{labels, NANOS_PER_SEC};

    fn logs(o: &Omni, req: QueryRequest) -> Vec<LogRecord> {
        o.loki().query(&req).unwrap().into_streams().unwrap()
    }

    fn omni() -> Omni {
        let day = 86_400 * NANOS_PER_SEC;
        let limits = Limits { retention_ns: 730 * day, ..Default::default() };
        Omni::new(2, limits, SimClock::starting_at(0))
    }

    #[test]
    fn metered_ingest() {
        let o = omni();
        o.ingest_log(labels!("a" => "1"), 1, "0123456789").unwrap();
        o.ingest_metric("m", labels!("a" => "1"), 1, 5.0);
        let (msgs, bytes) = o.ingest_totals();
        assert_eq!(msgs, 2);
        assert_eq!(bytes, 10);
    }

    #[test]
    fn batch_ingest_meters_and_stores() {
        let o = omni().with_discovery();
        let records: Vec<LogRecord> =
            (0..10).map(|i| LogRecord::new(labels!("app" => "b"), i, "0123456789")).collect();
        let results = o.ingest_batch(records);
        assert!(results.iter().all(|r| r.is_ok()));
        let (msgs, bytes) = o.ingest_totals();
        assert_eq!(msgs, 10);
        assert_eq!(bytes, 100);
        assert_eq!(logs(&o, QueryRequest::logs(r#"{app="b"}"#, -1, 100, usize::MAX)).len(), 10);
        let (docs, _, _) = o.discovery_stats();
        assert_eq!(docs, 10, "discovery tier sees every batched record");
    }

    #[test]
    fn two_year_retention_then_restore() {
        let day = 86_400 * NANOS_PER_SEC;
        let o = omni();
        // Write a multi-record stream on day 1: the restore path pushes
        // sequentially, so the archive must hold records oldest-first or
        // every record after the newest would bounce off ordering
        // enforcement.
        for i in 0..5 {
            o.ingest_log(labels!("app" => "old"), day + i, format!("ancient event {i}")).unwrap();
        }
        o.loki().flush();
        // Archive it, then advance past two years and expire.
        let archived = o.archive_window(r#"{app="old"}"#, 0, 2 * day).unwrap();
        assert_eq!(archived, 5);
        o.clock().set(800 * day);
        o.loki().enforce_retention();
        assert!(logs(&o, QueryRequest::logs(r#"{app="old"}"#, 0, 2 * day, 10)).is_empty());
        // Restore from the archive: every record comes back, not just the
        // first one the per-stream ordering check happens to accept.
        let restored = o.restore_window(0, 2 * day);
        assert_eq!(restored, 5);
        let back = logs(&o, QueryRequest::logs(r#"{app="old", restored="true"}"#, 0, 2 * day, 10));
        assert_eq!(back.len(), 5, "all restored records must be queryable");
        assert_eq!(back[0].entry.line, "ancient event 4", "backward query: newest first");
    }

    #[test]
    fn discovery_tier_serves_term_search() {
        let day = 86_400 * NANOS_PER_SEC;
        let limits = Limits { retention_ns: 730 * day, ..Default::default() };
        let o = Omni::new(2, limits, SimClock::starting_at(0)).with_discovery();
        o.ingest_log(labels!("host" => "x1"), 10, "kernel panic on boot").unwrap();
        o.ingest_log(labels!("host" => "x2"), 20, "all quiet").unwrap();
        let hits = o.discover("panic", 0, 100);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].labels.get("host"), Some("x1"));
        assert!(o.discover("panic", 15, 100).is_empty()); // range filter
        let (docs, terms, bytes) = o.discovery_stats();
        assert_eq!(docs, 2);
        assert!(terms >= 6);
        assert!(bytes > 0);
        // Disabled tier answers empty.
        let plain = Omni::new(1, Limits::default(), SimClock::starting_at(0));
        plain.ingest_log(labels!("a" => "1"), 1, "panic").unwrap();
        assert!(plain.discover("panic", 0, 10).is_empty());
    }

    #[test]
    fn archive_is_cumulative() {
        let o = omni();
        o.ingest_log(labels!("app" => "x"), 10, "one").unwrap();
        o.ingest_log(labels!("app" => "x"), 20, "two").unwrap();
        o.archive_window(r#"{app="x"}"#, 0, 15).unwrap();
        o.archive_window(r#"{app="x"}"#, 15, 30).unwrap();
        assert_eq!(o.archive().batch_count(), 2);
        assert_eq!(o.archive().record_count(), 2);
        assert_eq!(o.archive().restore(0, 100).len(), 2);
    }
}
