//! The surface a workload drives: `MonitoringStack` for the untraced
//! runs, and [`crate::pipeline::Pipeline`] — the same step rebuilt from
//! the layers' public pieces — for the traced run.

use crate::trace::Tracer;
use omni_alertmanager::{DeliveryStats, SlackSink};
use omni_bus::Broker;
use omni_core::{MonitoringStack, Omni, Pane};
use omni_model::SimClock;
use omni_servicenow::ServiceNow;
use omni_shasta::{GpfsState, LeakZone, ShastaMachine, SwitchState};
use omni_xname::XName;

pub trait System {
    /// One pipeline cycle: advance the clock by `dt_ns` and push
    /// `syslog` + `container` generated lines through every layer.
    fn step(&mut self, tracer: &mut Tracer, dt_ns: i64, syslog: usize, container: usize);
    fn omni(&self) -> &Omni;
    fn pane(&self) -> &Pane;
    fn clock(&self) -> &SimClock;
    fn machine(&self) -> &ShastaMachine;
    fn servicenow(&self) -> &ServiceNow;
    fn slack(&self) -> &SlackSink;
    fn broker(&self) -> &Broker;
    /// Publish a cabinet-leak Redfish event, as the firmware would.
    fn inject_leak(&self, chassis: XName, zone: LeakZone);
    /// Publish the matching leak-cleared event. Returns false when the
    /// bus refused it.
    fn clear_leak(&self, chassis: XName, zone: LeakZone) -> bool;
    fn set_switch(&self, switch: XName, state: SwitchState);
    fn set_gpfs(&self, server: &str, state: GpfsState);
    /// Log bridge `(records pushed, push errors, records dead-lettered)`.
    fn log_bridge_stats(&self) -> (u64, u64, u64);
    fn delivery_stats(&self) -> DeliveryStats;
    fn notifications(&self) -> u64;
    /// Sum of the stack's modeled query latency histogram
    /// (`omni_query_latency_seconds`), read without draining it. `None`
    /// where the system has no query introspection.
    fn modeled_query_seconds(&self) -> Option<f64>;
}

impl System for MonitoringStack {
    fn step(&mut self, _tracer: &mut Tracer, dt_ns: i64, syslog: usize, container: usize) {
        MonitoringStack::step(self, dt_ns, syslog, container);
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
        MonitoringStack::broker(self)
    }
    fn inject_leak(&self, chassis: XName, zone: LeakZone) {
        MonitoringStack::inject_leak(self, chassis, 'A', zone);
    }
    fn clear_leak(&self, chassis: XName, zone: LeakZone) -> bool {
        let event = self.machine.clear_leak(chassis, 'A', zone);
        self.collector.publish_event(&event).is_ok()
    }
    fn set_switch(&self, switch: XName, state: SwitchState) {
        self.take_switch_offline(switch, state);
    }
    fn set_gpfs(&self, server: &str, state: GpfsState) {
        self.fail_gpfs_server(server, state);
    }
    fn log_bridge_stats(&self) -> (u64, u64, u64) {
        let (pushed, errors, _) = self.bridge_stats();
        (pushed, errors, self.resilience_report().log_bridge.dead_lettered)
    }
    fn delivery_stats(&self) -> DeliveryStats {
        MonitoringStack::delivery_stats(self)
    }
    fn notifications(&self) -> u64 {
        self.notifications_dispatched()
    }
    fn modeled_query_seconds(&self) -> Option<f64> {
        let families = self.registry().gather();
        let sum = families.iter().find(|f| f.name == "omni_query_latency_seconds_sum")?;
        Some(sum.samples.iter().map(|s| s.value).sum())
    }
}
