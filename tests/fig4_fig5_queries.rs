//! Experiments E2 & E3 — Figure 4 (the Redfish event queried back from
//! Loki) and Figure 5 (the count_over_time metric stepping 0 → 1 at the
//! event time and back after the 60-minute window).

use shasta_mon::core::redfish_to_loki;
use shasta_mon::logql::{InstantVector, Matrix};
use shasta_mon::loki::{Limits, LokiCluster, QueryRequest};
use shasta_mon::model::{LogRecord, SimClock, NANOS_PER_SEC};
use shasta_mon::redfish::RedfishEvent;

const HOUR: i64 = 3_600 * NANOS_PER_SEC;

fn loki_with_paper_event() -> (LokiCluster, i64) {
    // The paper's Loki cluster has 8 worker nodes.
    let clock = SimClock::starting_at(0);
    let loki = LokiCluster::new(8, Limits::default(), clock);
    let event = RedfishEvent::paper_leak_event();
    let ts = event.timestamp;
    loki.push_record(redfish_to_loki(&event, "perlmutter")).unwrap();
    (loki, ts)
}

#[test]
fn fig4_event_query_returns_the_event() {
    let (loki, ts) = loki_with_paper_event();
    let records =
        logs(&loki, r#"{data_type="redfish_event"} |= "CabinetLeakDetected""#, 0, ts + HOUR, 100);
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].entry.ts, ts);
    assert_eq!(records[0].labels.get("Context"), Some("x1203c1b0"));
    assert!(records[0].entry.line.contains("CabinetLeakDetected"));
}

#[test]
fn fig4_unrelated_filters_return_nothing() {
    let (loki, ts) = loki_with_paper_event();
    for q in [
        r#"{data_type="redfish_event"} |= "SomethingElse""#,
        r#"{data_type="syslog"}"#,
        r#"{data_type="redfish_event", Context="x9999c9b9"}"#,
    ] {
        assert!(logs(&loki, q, 0, ts + HOUR, 100).is_empty(), "query {q} should be empty");
    }
}

#[test]
fn fig5_paper_query_steps_zero_to_one() {
    let (loki, event_ts) = loki_with_paper_event();
    // The paper's exact Figure 5 query (labels adjusted to the json
    // stage's extracted names).
    let query = r#"sum(count_over_time({data_type="redfish_event"} |= "CabinetLeakDetected" | json [60m])) by (Severity, cluster, Context, MessageId, Message)"#;
    let step = 10 * 60 * NANOS_PER_SEC;
    let matrix = matrix(&loki, query, event_ts - HOUR, event_ts + 2 * HOUR, step);
    assert_eq!(matrix.len(), 1, "one leak location -> one series");
    let (labels, samples) = &matrix[0];
    // "sum(...) by (...)" groups by the extracted labels.
    assert_eq!(labels.get("Severity"), Some("Warning"));
    assert_eq!(labels.get("Context"), Some("x1203c1b0"));
    assert_eq!(labels.get("cluster"), Some("perlmutter"));
    assert_eq!(labels.get("MessageId"), Some("CrayAlerts.1.0.CabinetLeakDetected"));
    // Like Loki/Grafana, the series only carries points while the
    // 60-minute lookback window contains the event: the graph "increases
    // from zero to one" at the event and drops out an hour later.
    for s in samples {
        assert!(
            s.ts >= event_ts && s.ts < event_ts + HOUR,
            "sample at t={} outside the event's window (event at {event_ts})",
            s.ts
        );
        assert_eq!(s.value, 1.0);
    }
    // The window is 60m sampled every 10m: exactly 6 points at value 1.
    assert_eq!(samples.len(), 6);
    assert_eq!(samples.first().unwrap().ts, event_ts);
}

#[test]
fn fig5_multiple_locations_return_multiple_vectors() {
    // "if multiple leak events from different location are found, Loki
    // returns multiple vectors with different labels instead of one
    // vector without labels."
    let clock = SimClock::starting_at(0);
    let loki = LokiCluster::new(4, Limits::default(), clock);
    let base = RedfishEvent::paper_leak_event();
    for context in ["x1203c1b0", "x1000c3b0", "x1102c4b0"] {
        let mut ev = base.clone();
        ev.context = context.parse().unwrap();
        loki.push_record(redfish_to_loki(&ev, "perlmutter")).unwrap();
    }
    let v = vector(
        &loki,
        r#"sum(count_over_time({data_type="redfish_event"} |= "CabinetLeakDetected" | json [60m])) by (Context)"#,
        base.timestamp + NANOS_PER_SEC,
    );
    assert_eq!(v.len(), 3);
    assert!(v.iter().all(|(_, count)| *count == 1.0));
    let mut contexts: Vec<&str> = v.iter().map(|(l, _)| l.get("Context").unwrap()).collect();
    contexts.sort();
    assert_eq!(contexts, vec!["x1000c3b0", "x1102c4b0", "x1203c1b0"]);
}

#[test]
fn fig5_sum_collapses_without_grouping() {
    let clock = SimClock::starting_at(0);
    let loki = LokiCluster::new(2, Limits::default(), clock);
    let base = RedfishEvent::paper_leak_event();
    for context in ["x1203c1b0", "x1000c3b0"] {
        let mut ev = base.clone();
        ev.context = context.parse().unwrap();
        loki.push_record(redfish_to_loki(&ev, "perlmutter")).unwrap();
    }
    let v = vector(
        &loki,
        r#"sum(count_over_time({data_type="redfish_event"} |= "CabinetLeakDetected" [60m]))"#,
        base.timestamp + NANOS_PER_SEC,
    );
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].1, 2.0);
}

fn logs(loki: &LokiCluster, query: &str, start: i64, end: i64, limit: usize) -> Vec<LogRecord> {
    loki.query(&QueryRequest::logs(query, start, end, limit)).unwrap().into_streams().unwrap()
}

fn vector(loki: &LokiCluster, query: &str, at: i64) -> InstantVector {
    loki.query(&QueryRequest::instant(query, at)).unwrap().into_vector().unwrap()
}

fn matrix(loki: &LokiCluster, query: &str, start: i64, end: i64, step: i64) -> Matrix {
    loki.query(&QueryRequest::range(query, start, end, step)).unwrap().into_matrix().unwrap()
}
