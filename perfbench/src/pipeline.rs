//! `MonitoringStack::step` rebuilt from the layers' public pieces, with
//! one span around each layer call, in `step`'s order.
//!
//! The stack keeps its ruler, vmagent, bridges and delivery queue
//! private, so the traced run wires its own copies the way
//! `MonitoringStack::try_new` does. What the stack does besides those
//! calls — query introspection, trace and SLO bookkeeping, the
//! self-telemetry collectors and the SLO burn-rate rules — has no public
//! seam and is left out here; its cost shows as the gap between the
//! traced and the untraced `step_ms_p50`.

use crate::system::System;
use crate::trace::Tracer;
use omni_alertmanager::{Alertmanager, DeliveryQueue, DeliveryStats, Route, SlackSink};
use omni_bus::Broker;
use omni_core::stack::{ruler_to_alert, vmalert_to_alert};
use omni_core::{LogBridge, MetricBridge, Omni, Pane, StackConfig};
use omni_exporters::{
    parse_exposition, ArubaExporter, BlackboxExporter, Exporter, GpfsExporter, KafkaExporter,
    NodeExporter, SelfExporter,
};
use omni_loki::{AlertingRule, RuleGroup, Ruler};
use omni_model::{SimClock, NANOS_PER_SEC};
use omni_obs::{Registry, TraceStore, TRACE_HEADER};
use omni_redfish::{topics, HmsCollector};
use omni_servicenow::{IncidentRule, ServiceNow};
use omni_shasta::{
    ContainerLogGenerator, FabricManager, FabricManagerMonitor, GpfsCluster, GpfsMonitor,
    GpfsState, LeakZone, ShastaMachine, SwitchState, SyslogGenerator,
};
use omni_telemetry::TelemetryApi;
use omni_tsdb::{MetricRule, VmAgent, VmAlert};
use omni_xname::XName;
use std::sync::Arc;

pub struct Pipeline {
    clock: SimClock,
    machine: Arc<ShastaMachine>,
    collector: HmsCollector,
    broker: Broker,
    fabric: FabricManager,
    fabric_monitor: FabricManagerMonitor,
    gpfs: Arc<GpfsCluster>,
    gpfs_monitor: GpfsMonitor,
    omni: Omni,
    pane: Pane,
    log_bridge: LogBridge,
    metric_bridge: MetricBridge,
    vmagent: VmAgent,
    ruler: Ruler,
    vmalert: VmAlert,
    alertmanager: Alertmanager,
    delivery: DeliveryQueue,
    slack: SlackSink,
    servicenow: ServiceNow,
    syslog_gen: SyslogGenerator,
    container_gen: ContainerLogGenerator,
    traces: TraceStore,
    notifications: u64,
    /// Log publishes the bus refused, replayed next step.
    backlog: Vec<(&'static str, String, String)>,
}

impl Pipeline {
    pub fn new(config: &StackConfig) -> Pipeline {
        let clock = SimClock::starting_at(0);
        let registry = Registry::new(clock.clone());
        let traces = TraceStore::with_sampling(config.seed, config.trace_sampling);
        let machine =
            Arc::new(ShastaMachine::new(config.topology.clone(), clock.clone(), config.seed));
        let broker = Broker::new(clock.clone());
        let collector = HmsCollector::new(broker.clone(), config.bus_partitions);
        let api = TelemetryApi::new(broker.clone(), config.gateways);
        let fabric = FabricManager::new(machine.topology());
        let fabric_monitor = FabricManagerMonitor::new(fabric.clone());
        let gpfs = GpfsCluster::new("scratch", 8, 12, clock.clone(), config.seed ^ 0x6f5);
        let gpfs_monitor = GpfsMonitor::new(Arc::clone(&gpfs));
        let mut omni = Omni::new(config.loki_shards, config.limits.clone(), clock.clone());
        if config.enable_discovery {
            omni = omni.with_discovery();
        }
        let pane = Pane::new(omni.clone());
        let token = api.issue_token("bridge-clients");
        let mut log_bridge =
            LogBridge::new(&api, &token, omni.clone(), &config.cluster_name, &broker)
                .expect("log bridge subscribes to the shipped topics");
        log_bridge.set_tracer(traces.clone());
        let metric_bridge =
            MetricBridge::new(&api, &token, omni.tsdb().clone(), &config.cluster_name, &broker)
                .expect("metric bridge subscribes to the shipped topics");

        let mut ruler = Ruler::new(omni.loki().clone());
        ruler
            .add_group(RuleGroup {
                name: "perlmutter-alerts".into(),
                interval_ns: 60 * NANOS_PER_SEC,
                rules: vec![
                    AlertingRule::paper_leak_rule(),
                    AlertingRule::paper_switch_rule(),
                    AlertingRule::gpfs_server_rule(),
                ],
            })
            .expect("shipped LogQL rules parse");
        let mut vmalert = VmAlert::new(omni.tsdb().clone());
        for rule in MetricRule::shipped_rules() {
            vmalert.add_rule(rule).expect("shipped PromQL rules parse");
        }

        let mut vmagent = VmAgent::new(omni.tsdb().clone());
        let node_exp = NodeExporter::new(Arc::clone(&machine));
        vmagent.add_target(
            "node-exporter",
            &config.cluster_name,
            Box::new(move |_| parse_exposition(&node_exp.render()).map_err(|e| e.to_string())),
        );
        let kafka_exp = KafkaExporter::new(broker.clone());
        vmagent.add_target(
            "kafka-exporter",
            "sma-kafka",
            Box::new(move |_| parse_exposition(&kafka_exp.render()).map_err(|e| e.to_string())),
        );
        let blackbox = BlackboxExporter::new(
            vec!["https://telemetry-api".into(), "https://grafana".into()],
            clock.clone(),
        );
        vmagent.add_target(
            "blackbox-exporter",
            "probes",
            Box::new(move |_| parse_exposition(&blackbox.render()).map_err(|e| e.to_string())),
        );
        let aruba = ArubaExporter::new(vec!["mgmt-sw1".into(), "mgmt-sw2".into()], clock.clone());
        vmagent.add_target(
            "aruba-exporter",
            "mgmt",
            Box::new(move |_| parse_exposition(&aruba.render()).map_err(|e| e.to_string())),
        );
        let gpfs_exp = GpfsExporter::new(Arc::clone(&gpfs));
        vmagent.add_target(
            "gpfs-exporter",
            "scratch",
            Box::new(move |_| parse_exposition(&gpfs_exp.render()).map_err(|e| e.to_string())),
        );
        let self_exp = SelfExporter::new(registry);
        vmagent.add_target(
            "omni-self",
            &config.cluster_name,
            Box::new(move |_| parse_exposition(&self_exp.render()).map_err(|e| e.to_string())),
        );

        let servicenow = ServiceNow::new();
        servicenow.with_cmdb(|cmdb| cmdb.load_topology(&config.cluster_name, machine.topology()));
        for (name, resource, group) in [
            ("storage-to-storage-team", Some("storage"), "nersc-storage"),
            ("fabric-to-network-team", Some("fabric"), "nersc-network"),
            ("critical-to-ops", None, "nersc-ops"),
        ] {
            servicenow.add_incident_rule(IncidentRule {
                name: name.into(),
                max_severity: 2,
                node_contains: None,
                resource: resource.map(String::from),
                assignment_group: group.into(),
            });
        }
        let syslog_gen =
            SyslogGenerator::new(machine.topology().nodes(), clock.clone(), config.seed ^ 0xa5);
        let container_gen = ContainerLogGenerator::k3s_services(config.seed ^ 0x5a);

        Pipeline {
            clock,
            machine,
            collector,
            broker,
            fabric,
            fabric_monitor,
            gpfs,
            gpfs_monitor,
            omni,
            pane,
            log_bridge,
            metric_bridge,
            vmagent,
            ruler,
            vmalert,
            alertmanager: Alertmanager::new(Route::shipped_tree()),
            delivery: DeliveryQueue::with_defaults(),
            slack: SlackSink::new("#perlmutter-alerts"),
            servicenow,
            syslog_gen,
            container_gen,
            traces,
            notifications: 0,
            backlog: Vec::new(),
        }
    }

    /// Publish log lines under one `redfish.publish` span; refused
    /// publishes wait in the backlog for the next step.
    fn publish_logs(&mut self, tr: &mut Tracer, topic: &'static str, lines: Vec<(String, String)>) {
        let span = tr.enter("redfish.publish");
        let n = lines.len() as u64;
        for (key, line) in lines {
            if self.collector.publish_log(topic, &key, line.clone()).is_err() {
                self.backlog.push((topic, key, line));
            }
        }
        tr.exit(span, n);
    }
}

impl System for Pipeline {
    fn step(&mut self, tr: &mut Tracer, dt_ns: i64, syslog: usize, container: usize) {
        let root = tr.enter("core.step");
        let now = self.clock.advance(dt_ns);

        let backlog = std::mem::take(&mut self.backlog);
        let span = tr.enter("redfish.publish");
        let replayed = backlog.len() as u64;
        for (topic, key, line) in backlog {
            if self.collector.publish_log(topic, &key, line.clone()).is_err() {
                self.backlog.push((topic, key, line));
            }
        }
        tr.exit(span, replayed);

        let span = tr.enter("shasta.generate");
        let readings = self.machine.sample_sensors();
        tr.exit(span, readings.len() as u64);
        let span = tr.enter("redfish.publish");
        for reading in &readings {
            let _ = self.collector.publish_reading(reading);
        }
        tr.exit(span, readings.len() as u64);

        let span = tr.enter("shasta.generate");
        let lines = self.syslog_gen.batch(syslog);
        tr.exit(span, lines.len() as u64);
        self.publish_logs(tr, topics::SYSLOG, lines);
        let span = tr.enter("shasta.generate");
        let lines = self.container_gen.batch(container);
        tr.exit(span, lines.len() as u64);
        self.publish_logs(tr, topics::CONTAINER_LOGS, lines);

        let span = tr.enter("shasta.poll");
        let lines: Vec<(String, String)> = self
            .fabric_monitor
            .poll()
            .into_iter()
            .map(|c| (c.xname.to_string(), c.to_event_line()))
            .collect();
        tr.exit(span, lines.len() as u64);
        self.publish_logs(tr, topics::FABRIC_HEALTH, lines);
        let span = tr.enter("shasta.poll");
        let lines: Vec<(String, String)> = self
            .gpfs_monitor
            .poll()
            .into_iter()
            .map(|c| (c.server.clone(), c.to_event_line()))
            .collect();
        tr.exit(span, lines.len() as u64);
        self.publish_logs(tr, topics::GPFS_HEALTH, lines);

        let span = tr.enter("core.log_bridge_pump");
        let pushed = self.log_bridge.pump(now);
        tr.exit(span, pushed);
        let span = tr.enter("core.metric_bridge_pump");
        let pushed = self.metric_bridge.pump();
        tr.exit(span, pushed);

        let before = self.vmagent.stats().1;
        let span = tr.enter("tsdb.vmagent_scrape");
        self.vmagent.scrape_once(now);
        tr.exit(span, self.vmagent.stats().1 - before);

        let loki = self.omni.loki();
        tr.span("loki.tick", || loki.tick());
        // Drained every step like the stack does, so they stay bounded.
        let _ = loki.take_seal_fill_ratios();
        let _ = loki.frontend().take_bytes_saved();
        let span = tr.enter("loki.offload");
        let moved = loki.offload(3_600 * NANOS_PER_SEC);
        tr.exit(span, moved as u64);
        let span = tr.enter("loki.compact");
        let merged = loki.maybe_compact().map_or(0, |r| r.chunks_merged);
        tr.exit(span, merged as u64);
        let _ = loki.frontend().take_scheduler_waits();

        let span = tr.enter("loki.ruler_eval");
        let fired = self.ruler.evaluate(now);
        tr.exit(span, fired.len() as u64);
        for n in &fired {
            let alert = ruler_to_alert(n);
            let span = tr.enter("alertmanager.receive");
            self.alertmanager.receive(alert, now);
            tr.exit(span, 1);
        }
        let span = tr.enter("tsdb.vmalert_eval");
        let fired = self.vmalert.evaluate(now);
        tr.exit(span, fired.len() as u64);
        for n in &fired {
            let alert = vmalert_to_alert(n);
            let span = tr.enter("alertmanager.receive");
            self.alertmanager.receive(alert, now);
            tr.exit(span, 1);
        }

        let span = tr.enter("alertmanager.tick");
        let notifications = self.alertmanager.tick(now);
        tr.exit(span, notifications.len() as u64);
        self.notifications += notifications.len() as u64;
        for n in notifications {
            self.delivery.enqueue(n);
        }
        let span = tr.enter("alertmanager.delivery_pump");
        let (slack, servicenow) = (&self.slack, &self.servicenow);
        let delivered = self.delivery.pump(now, |n| {
            match n.receiver.as_str() {
                "slack" => {
                    slack.deliver(n);
                }
                "servicenow" => {
                    let span = tr.enter("servicenow.receive_notification");
                    servicenow.receive_notification(n, now);
                    tr.exit(span, 1);
                }
                _ => {}
            }
            true
        });
        tr.exit(span, delivered as u64);
        tr.exit(root, (syslog + container) as u64);
    }

    fn omni(&self) -> &Omni {
        &self.omni
    }
    fn pane(&self) -> &Pane {
        &self.pane
    }
    fn clock(&self) -> &SimClock {
        &self.clock
    }
    fn machine(&self) -> &ShastaMachine {
        &self.machine
    }
    fn servicenow(&self) -> &ServiceNow {
        &self.servicenow
    }
    fn slack(&self) -> &SlackSink {
        &self.slack
    }
    fn broker(&self) -> &Broker {
        &self.broker
    }
    fn inject_leak(&self, chassis: XName, zone: LeakZone) {
        let event = self.machine.inject_leak(chassis, 'A', zone);
        let trace = self.traces.begin_trace(
            &event.context.to_string(),
            &event.message_id,
            self.clock.now(),
        );
        let headers = vec![(TRACE_HEADER.to_string(), trace.encode())];
        self.collector
            .publish_event_with_headers(&event, headers)
            .expect("workloads inject no bus brownouts");
    }
    fn clear_leak(&self, chassis: XName, zone: LeakZone) -> bool {
        let event = self.machine.clear_leak(chassis, 'A', zone);
        self.collector.publish_event(&event).is_ok()
    }
    fn set_switch(&self, switch: XName, state: SwitchState) {
        self.fabric.set_switch_state(switch, state);
    }
    fn set_gpfs(&self, server: &str, state: GpfsState) {
        self.gpfs.set_server_state(server, state);
    }
    fn log_bridge_stats(&self) -> (u64, u64, u64) {
        let (pushed, errors) = self.log_bridge.stats();
        (pushed, errors, self.log_bridge.resilience().dead_lettered)
    }
    fn delivery_stats(&self) -> DeliveryStats {
        self.delivery.stats()
    }
    fn notifications(&self) -> u64 {
        self.notifications
    }
    fn modeled_query_seconds(&self) -> Option<f64> {
        None
    }
}
