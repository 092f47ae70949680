//! Write-ahead log for ingester crash recovery.
//!
//! Head chunks live in memory until they seal (§IV-A); a crashed ingester
//! would lose them. Like real Loki, every accepted entry is first
//! appended to a WAL; on restart the WAL replays into a fresh ingester.
//!
//! The log is an ordered list of in-memory segments (the repo's simulated
//! disk tier), like the numbered segment files of the Prometheus/Loki
//! WAL. Appends go to the newest segment and roll to a fresh one once it
//! passes `SEGMENT_BYTES`. Each segment remembers the span of
//! timestamps it holds, so a checkpoint at bound `b`, under one lock:
//!
//! * drops a segment whose newest record is older than `b` without
//!   decoding it;
//! * keeps a segment whose oldest record is at or after `b` untouched;
//! * decodes, filters and re-encodes only the segments straddling `b`.
//!
//! A checkpoint therefore costs O(segments + straddling bytes), not
//! O(WAL bytes), and no append can slip between its read and its write.
//!
//! Record layout (all varints, strings length-prefixed) — one label set
//! followed by a run of entries, like real Loki's series-framed WAL:
//!
//! ```text
//! label_count (k_len k v_len v)* entry_count (zigzag(ts) line_len line)*
//! ```
//!
//! A single append writes a run of one; a batch append writes one record
//! per consecutive same-labels run, so the label set — often half the
//! encoded bytes — is paid once per stream run instead of once per entry.
//! A record never spans two segments.

use crate::compress::{get_uvarint, put_uvarint, unzigzag, zigzag, CorruptBlock};
use omni_model::lockwitness::{classes, OrderedMutex};
use omni_model::{LabelSet, LogEntry, LogRecord};
use std::sync::Arc;

/// Size past which appends roll to a fresh segment. A checkpoint decodes
/// at most the segments straddling its bound, so this caps the bytes it
/// re-encodes beyond the records it drops.
const SEGMENT_BYTES: usize = 32 * 1024;

/// The write-ahead log. Clones share the same segments.
#[derive(Clone)]
pub struct Wal {
    segments: Arc<OrderedMutex<Vec<Segment>>>,
}

/// One segment: whole run-framed records plus the span of timestamps they
/// cover (`min_ts > max_ts` while empty).
struct Segment {
    buf: Vec<u8>,
    records: u64,
    min_ts: i64,
    max_ts: i64,
    /// Failed to decode at a checkpoint: kept verbatim (and no longer
    /// appended to) until it ages out whole.
    corrupt: bool,
}

/// One decoded WAL record: a label set and its run of entries.
type Run = (LabelSet, Vec<LogEntry>);

impl Segment {
    fn new() -> Self {
        Self { buf: Vec::new(), records: 0, min_ts: i64::MAX, max_ts: i64::MIN, corrupt: false }
    }

    /// Encode one record: `labels` followed by `entries`.
    fn push_run<'a>(
        &mut self,
        labels: &LabelSet,
        entries: impl ExactSizeIterator<Item = &'a LogEntry>,
    ) {
        put_uvarint(&mut self.buf, labels.len() as u64);
        for (k, v) in labels.iter() {
            put_uvarint(&mut self.buf, k.len() as u64);
            self.buf.extend_from_slice(k.as_bytes());
            put_uvarint(&mut self.buf, v.len() as u64);
            self.buf.extend_from_slice(v.as_bytes());
        }
        put_uvarint(&mut self.buf, entries.len() as u64);
        for entry in entries {
            put_uvarint(&mut self.buf, zigzag(entry.ts));
            put_uvarint(&mut self.buf, entry.line.len() as u64);
            self.buf.extend_from_slice(entry.line.as_bytes());
            self.records += 1;
            self.min_ts = self.min_ts.min(entry.ts);
            self.max_ts = self.max_ts.max(entry.ts);
        }
    }

    /// Decode every record, in append order.
    fn decode(&self) -> Result<Vec<Run>, CorruptBlock> {
        let buf = &self.buf;
        let mut pos = 0;
        let mut out = Vec::new();
        while pos < buf.len() {
            let (n_labels, n) = get_uvarint(&buf[pos..])?;
            pos += n;
            let mut labels = LabelSet::new();
            for _ in 0..n_labels {
                let (klen, n) = get_uvarint(&buf[pos..])?;
                pos += n;
                let k = read_str(buf, &mut pos, klen as usize)?;
                let (vlen, n) = get_uvarint(&buf[pos..])?;
                pos += n;
                let v = read_str(buf, &mut pos, vlen as usize)?;
                labels.insert(k, v);
            }
            let (entry_count, n) = get_uvarint(&buf[pos..])?;
            pos += n;
            // A run holds at least 3 bytes per entry; a bigger count than
            // the remaining segment cannot be honest.
            if entry_count > (buf.len() - pos) as u64 {
                return Err(CorruptBlock("wal run count exceeds segment size"));
            }
            let mut entries = Vec::with_capacity(entry_count as usize);
            for _ in 0..entry_count {
                let (ts_z, n) = get_uvarint(&buf[pos..])?;
                pos += n;
                let (line_len, n) = get_uvarint(&buf[pos..])?;
                pos += n;
                let line = read_str(buf, &mut pos, line_len as usize)?;
                entries.push(LogEntry::new(unzigzag(ts_z), line));
            }
            out.push((labels, entries));
        }
        Ok(out)
    }

    /// Re-encode the records at or after `bound`, keeping their run
    /// framing. Returns the filtered segment and the records dropped.
    fn retain_from(&self, bound: i64) -> Result<(Segment, u64), CorruptBlock> {
        let mut kept = Segment::new();
        for (labels, entries) in self.decode()? {
            let survivors: Vec<LogEntry> = entries.into_iter().filter(|e| e.ts >= bound).collect();
            if !survivors.is_empty() {
                kept.push_run(&labels, survivors.iter());
            }
        }
        let dropped = self.records - kept.records;
        Ok((kept, dropped))
    }
}

/// The segment appends go to: the newest one, unless it is full or
/// corrupt, in which case a fresh one is rolled.
fn open_segment(segments: &mut Vec<Segment>) -> &mut Segment {
    let roll = segments.last().is_none_or(|s| s.corrupt || s.buf.len() >= SEGMENT_BYTES);
    if roll {
        segments.push(Segment::new());
    }
    let last = segments.len() - 1;
    &mut segments[last]
}

impl Default for Wal {
    fn default() -> Self {
        Self::new()
    }
}

impl Wal {
    /// Empty WAL.
    pub fn new() -> Self {
        Self { segments: Arc::new(OrderedMutex::new(&classes::LOKI_WAL_SEGMENT, Vec::new())) }
    }

    /// Append one record (called *before* the in-memory insert — that
    /// ordering is what makes it a write-ahead log).
    pub fn append(&self, record: &LogRecord) {
        let mut segments = self.segments.lock();
        open_segment(&mut segments).push_run(&record.labels, std::iter::once(&record.entry));
    }

    /// Append a whole batch under one lock, one WAL record per
    /// consecutive same-labels run (replay order equals append order).
    pub fn append_batch(&self, records: &[LogRecord]) {
        if records.is_empty() {
            return;
        }
        let mut segments = self.segments.lock();
        let mut i = 0;
        while i < records.len() {
            let mut j = i + 1;
            while j < records.len() && records[j].labels == records[i].labels {
                j += 1;
            }
            let run = records[i..j].iter().map(|r| &r.entry);
            open_segment(&mut segments).push_run(&records[i].labels, run);
            i = j;
        }
    }

    /// Append one stream-framed run — a label set plus its entries, the
    /// shape of the Loki push protocol — as exactly one WAL record.
    pub fn append_run(&self, labels: &LabelSet, entries: &[LogEntry]) {
        if entries.is_empty() {
            return;
        }
        let mut segments = self.segments.lock();
        open_segment(&mut segments).push_run(labels, entries.iter());
    }

    /// Decode every record, oldest segment first (crash-recovery replay).
    pub fn replay(&self) -> Result<Vec<LogRecord>, CorruptBlock> {
        let segments = self.segments.lock();
        let mut out = Vec::with_capacity(segments.iter().map(|s| s.records as usize).sum());
        for segment in segments.iter() {
            for (labels, entries) in segment.decode()? {
                out.extend(
                    entries.into_iter().map(|entry| LogRecord { labels: labels.clone(), entry }),
                );
            }
        }
        Ok(out)
    }

    /// Truncate after a checkpoint (all buffered data flushed/offloaded).
    pub fn truncate(&self) {
        self.segments.lock().clear();
    }

    /// Checkpoint: drop every record strictly older than `keep_from_ts`
    /// (those are durable in the chunk store and no longer needed for
    /// crash recovery). Returns the number of records dropped.
    ///
    /// Runs in one critical section, touching only the segments that
    /// straddle the bound. A straddling segment that fails to decode is
    /// kept as it is and counted by [`corrupt_segments`](Self::corrupt_segments)
    /// — better an oversized WAL than a discarded one — and every other
    /// segment still checkpoints.
    pub fn checkpoint(&self, keep_from_ts: i64) -> usize {
        let mut segments = self.segments.lock();
        let mut dropped = 0;
        segments.retain_mut(|segment| {
            if segment.max_ts < keep_from_ts {
                dropped += segment.records;
                return false;
            }
            if segment.min_ts >= keep_from_ts || segment.corrupt {
                return true;
            }
            match segment.retain_from(keep_from_ts) {
                Ok((kept, n)) => {
                    dropped += n;
                    *segment = kept;
                    segment.records > 0
                }
                Err(_) => {
                    segment.corrupt = true;
                    true
                }
            }
        });
        dropped as usize
    }

    /// Records currently held.
    pub fn record_count(&self) -> u64 {
        self.segments.lock().iter().map(|s| s.records).sum()
    }

    /// Bytes currently held across segments.
    pub fn bytes(&self) -> usize {
        self.segments.lock().iter().map(|s| s.buf.len()).sum()
    }

    /// Segments currently held.
    pub fn segment_count(&self) -> usize {
        self.segments.lock().len()
    }

    /// Segments a checkpoint found undecodable and kept verbatim.
    pub fn corrupt_segments(&self) -> usize {
        self.segments.lock().iter().filter(|s| s.corrupt).count()
    }
}

fn read_str(buf: &[u8], pos: &mut usize, len: usize) -> Result<String, CorruptBlock> {
    if *pos + len > buf.len() {
        return Err(CorruptBlock("wal record runs past segment end"));
    }
    let s = std::str::from_utf8(&buf[*pos..*pos + len])
        .map_err(|_| CorruptBlock("wal string is not utf-8"))?
        .to_string();
    *pos += len;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ingester, Limits};
    use omni_logql::parse_selector;
    use omni_model::labels;

    fn record(i: i64) -> LogRecord {
        LogRecord::new(labels!("app" => "x", "n" => format!("{}", i % 3)), i, format!("line {i}"))
    }

    #[test]
    fn append_replay_roundtrip() {
        let wal = Wal::new();
        let records: Vec<LogRecord> = (0..50).map(record).collect();
        for r in &records {
            wal.append(r);
        }
        assert_eq!(wal.record_count(), 50);
        assert_eq!(wal.replay().unwrap(), records);
    }

    #[test]
    fn truncate_resets() {
        let wal = Wal::new();
        wal.append(&record(1));
        wal.truncate();
        assert_eq!(wal.record_count(), 0);
        assert_eq!(wal.bytes(), 0);
        assert!(wal.replay().unwrap().is_empty());
    }

    #[test]
    fn clones_share_segment() {
        let wal = Wal::new();
        let clone = wal.clone();
        wal.append(&record(1));
        assert_eq!(clone.record_count(), 1);
    }

    #[test]
    fn unicode_survives() {
        let wal = Wal::new();
        let r = LogRecord::new(labels!("app" => "naïve"), 1, "日本語 line");
        wal.append(&r);
        assert_eq!(wal.replay().unwrap(), vec![r]);
    }

    #[test]
    fn crash_recovery_restores_unflushed_entries() {
        // An ingester accepts entries (WAL-first), then "crashes" before
        // any chunk sealed. A fresh ingester replays the WAL and serves
        // the same queries.
        let wal = Wal::new();
        let ingester = Ingester::new(Limits::default());
        for i in 0..100 {
            let r = record(i);
            wal.append(&r); // write-ahead
            ingester.append(r).unwrap();
        }
        drop(ingester); // crash: head chunks lost

        let recovered = Ingester::new(Limits::default());
        let mut replayed = 0;
        for r in wal.replay().unwrap() {
            recovered.append(r).unwrap();
            replayed += 1;
        }
        assert_eq!(replayed, 100);
        let sel = parse_selector(r#"{app="x"}"#).unwrap();
        let got: usize = recovered.query(&sel, -1, 1_000).iter().map(|(_, es)| es.len()).sum();
        assert_eq!(got, 100);
    }

    #[test]
    fn checkpoint_drops_only_persisted_prefix() {
        let wal = Wal::new();
        for i in 0..100 {
            wal.append(&record(i));
        }
        let before = wal.bytes();
        let dropped = wal.checkpoint(60);
        assert_eq!(dropped, 60);
        assert_eq!(wal.record_count(), 40);
        assert!(wal.bytes() < before, "segment must shrink after checkpoint");
        let survivors = wal.replay().unwrap();
        assert_eq!(survivors.len(), 40);
        assert!(survivors.iter().all(|r| r.entry.ts >= 60));
        // Checkpointing at an older bound is a no-op.
        assert_eq!(wal.checkpoint(10), 0);
        assert_eq!(wal.record_count(), 40);
    }

    #[test]
    fn append_batch_replays_identically_to_sequential_appends() {
        let one_by_one = Wal::new();
        let batched = Wal::new();
        // `record(i)` cycles 3 label sets, so this batch has 50 runs of 1
        // as well as (below) a sorted batch with 3 long runs.
        let records: Vec<LogRecord> = (0..50).map(record).collect();
        for r in &records {
            one_by_one.append(r);
        }
        batched.append_batch(&records);
        assert_eq!(one_by_one.record_count(), batched.record_count());
        assert_eq!(batched.replay().unwrap(), records);
        assert_eq!(one_by_one.replay().unwrap(), batched.replay().unwrap());

        // A stream-contiguous batch encodes each label set once per run:
        // strictly smaller segment, identical replay.
        let mut sorted = records.clone();
        sorted.sort_by_key(|r| r.labels.get("n").unwrap().to_string());
        let run_framed = Wal::new();
        run_framed.append_batch(&sorted);
        assert_eq!(run_framed.replay().unwrap(), sorted);
        assert!(
            run_framed.bytes() < batched.bytes(),
            "run framing must amortise label bytes: {} vs {}",
            run_framed.bytes(),
            batched.bytes()
        );
    }

    #[test]
    fn corrupt_segment_reported() {
        let wal = Wal::new();
        wal.append(&record(1));
        // Truncate the underlying segment mid-record.
        {
            let mut segments = wal.segments.lock();
            let seg = &mut segments[0].buf;
            let n = seg.len();
            seg.truncate(n - 3);
        }
        assert!(wal.replay().is_err());
    }

    #[test]
    fn appends_roll_into_bounded_segments() {
        let wal = Wal::new();
        let records: Vec<LogRecord> = (0..5_000).map(record).collect();
        wal.append_batch(&records[..2_500]);
        for r in &records[2_500..] {
            wal.append(r);
        }
        assert!(wal.segment_count() > 2, "{} segments", wal.segment_count());
        {
            let segments = wal.segments.lock();
            for s in segments.iter() {
                // A segment rolls at the first record boundary past the cap.
                assert!(s.buf.len() < SEGMENT_BYTES + 64, "{} bytes", s.buf.len());
            }
        }
        assert_eq!(wal.replay().unwrap(), records);
        // Whole segments behind the bound go without decoding; the one
        // straddling it is filtered.
        assert_eq!(wal.checkpoint(3_000), 3_000);
        assert_eq!(wal.replay().unwrap(), records[3_000..].to_vec());
    }

    #[test]
    fn corrupt_segment_is_confined_to_itself() {
        // Timestamps cycle 0..50, so every segment straddles bound 25.
        let wal = Wal::new();
        let records: Vec<LogRecord> = (0..6_000)
            .map(|i| LogRecord::new(labels!("app" => "x"), i % 50, format!("line {i}")))
            .collect();
        for r in &records {
            wal.append(r);
        }
        let segments = wal.segment_count();
        assert!(segments >= 3, "{segments} segments");
        // An invalid UTF-8 byte in the first segment's last line.
        let first_records = {
            let mut segs = wal.segments.lock();
            let last = segs[0].buf.len() - 1;
            segs[0].buf[last] = 0xff;
            segs[0].records as usize
        };
        assert!(wal.replay().is_err());

        let dropped = wal.checkpoint(25);
        let expected_drops = records[first_records..].iter().filter(|r| r.entry.ts < 25).count();
        assert_eq!(dropped, expected_drops, "later segments' old records still drop");
        assert_eq!(wal.corrupt_segments(), 1);
        assert_eq!(wal.segment_count(), segments);
        assert_eq!(wal.record_count() as usize, records.len() - expected_drops);
        assert!(wal.replay().is_err(), "corruption stays loud");

        // The corrupt segment is not decoded again, and appends roll past it.
        assert_eq!(wal.checkpoint(25), 0);
        assert_eq!(wal.corrupt_segments(), 1);
        // Once every record it holds is behind the bound it goes whole.
        let held = wal.record_count() as usize;
        assert_eq!(wal.checkpoint(50), held);
        assert_eq!(wal.corrupt_segments(), 0);
        assert_eq!(wal.segment_count(), 0);
        wal.append(&record(7));
        assert_eq!(wal.replay().unwrap(), vec![record(7)]);
    }
}
