//! Per-layer metrics of the traced run: the benchmark's own spans around
//! its calls into each crate, plus deltas of the counters the program
//! already exports (`telemetry_snapshot()`, `App::stats()`, the node, broker
//! and WAL stats) taken at the edges of the measured window.

use crate::probe::Hit;
use crate::procfs::{self, ProcSample};
use crate::run::{metric, Metric, OpRec};
use crate::stats::{percentile, ratio};
use crate::trace::{self, Span};
use crate::workloads::{Env, Kind};
use std::collections::HashMap;
use synapse_broker::{BrokerStats, WalStats};
use synapse_core::subscriber::SubscriberStats;
use synapse_core::{BootstrapStats, ModeSlice, Stage, TelemetrySnapshot};
use synapse_telemetry::HistogramSnapshot;

/// Totals from the publishing app's Fig. 12 controller statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct CtrlTotals {
    calls: f64,
    synapse_ns: f64,
    messages: f64,
    deps: f64,
}

/// Counters of one subscriber node.
pub struct SubSnap {
    tel: TelemetrySnapshot,
    stats: SubscriberStats,
    boot: BootstrapStats,
}

/// Every exported counter the per-layer metrics difference.
pub struct Snap {
    publisher: TelemetrySnapshot,
    messages_published: u64,
    subs: Vec<SubSnap>,
    broker: BrokerStats,
    wal: Option<WalStats>,
    wal_group: Option<HistogramSnapshot>,
    wal_wait: Option<HistogramSnapshot>,
    ctrl: CtrlTotals,
    process: ProcSample,
}

/// Reads every counter of `env`.
pub fn snap(env: &Env) -> Snap {
    let broker = env.eco.broker();
    let stats = env.app.stats();
    let mut ctrl = CtrlTotals::default();
    for name in stats.controllers() {
        if let Some(row) = stats.row(&name) {
            let calls = row.calls as f64;
            let messages = row.mean_messages * calls;
            ctrl.calls += calls;
            ctrl.synapse_ns += row.mean_synapse.as_nanos() as f64 * calls;
            ctrl.messages += messages;
            ctrl.deps += row.mean_deps_per_message * messages;
        }
    }
    Snap {
        publisher: env.publisher().telemetry_snapshot(),
        messages_published: env.publisher().publisher_stats().messages_published,
        subs: env
            .subscribers
            .iter()
            .map(|n| SubSnap {
                tel: n.telemetry_snapshot(),
                stats: n.subscriber_stats(),
                boot: n.bootstrap_stats(),
            })
            .collect(),
        broker: broker.stats(),
        wal: broker.wal_stats(),
        wal_group: broker.wal_group_size(),
        wal_wait: broker.wal_commit_wait(),
        ctrl,
        process: procfs::sample(),
    }
}

/// Failure counters over the whole run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Failures {
    /// Deliveries dead-lettered by any subscriber.
    pub dead_lettered: u64,
    /// Dependency waits that timed out.
    pub dep_timeouts: u64,
    /// Bootstraps that went Live before their copies were accounted for.
    pub finalize_timeouts: u64,
    /// Deliveries popped again after a nack or restart (not a failure).
    pub redeliveries: u64,
}

impl Failures {
    /// The counts that make operations fail.
    pub fn total(&self) -> u64 {
        self.dead_lettered + self.dep_timeouts + self.finalize_timeouts
    }

    /// JSON rendering, with the operation-level counts.
    pub fn json(&self, errored: u64, not_visible: u64) -> String {
        format!(
            "{{\"errored\": {errored}, \"not_visible\": {not_visible}, \"dead_lettered\": {}, \"dep_timeouts\": {}, \"finalize_timeouts\": {}, \"redeliveries\": {}}}",
            self.dead_lettered, self.dep_timeouts, self.finalize_timeouts, self.redeliveries
        )
    }
}

/// Reads the failure counters of every subscriber.
pub fn failure_counts(env: &Env) -> Failures {
    let mut f = Failures::default();
    for node in &env.subscribers {
        let s = node.subscriber_stats();
        f.dead_lettered += s.dead_lettered;
        f.dep_timeouts += s.dep_timeouts;
        f.redeliveries += s.redeliveries;
        f.finalize_timeouts += node
            .telemetry_snapshot()
            .counter("bootstrap.finalize_timeouts");
    }
    f
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInput<'a> {
    /// The workload.
    pub kind: Kind,
    /// Counters at the window start.
    pub before: &'a Snap,
    /// Counters once the window's operations settled.
    pub after: &'a Snap,
    /// Spans recorded in the window.
    pub spans: &'a [Span],
    /// The window's operations.
    pub ops: &'a [OpRec],
    /// Probe hits of the window's operations, with their subscriber's
    /// delivery mode.
    pub hits: &'a [(ModeSlice, Hit)],
    /// Largest sampled subscriber backlog.
    pub backlog_max: u64,
    /// Failure counters over the run.
    pub failures: &'a Failures,
    /// Live threads at the end.
    pub threads: u64,
}

/// `(count, sum_nanos)` of `stage` across `snaps`, in `mode` or all modes.
fn stage_total<'a>(
    snaps: impl Iterator<Item = &'a TelemetrySnapshot>,
    mode: Option<ModeSlice>,
    stage: Stage,
) -> (f64, f64) {
    let mut total = (0.0, 0.0);
    for s in snaps {
        for m in ModeSlice::all() {
            if mode.is_none_or(|want| want == m) {
                let st = s.stage(m, stage);
                total.0 += st.count as f64;
                total.1 += st.sum_nanos as f64;
            }
        }
    }
    total
}

/// Window-mean microseconds of `stage` on the publisher.
fn pub_stage_us(i: &LayerInput, stage: Stage) -> f64 {
    let (c1, s1) = stage_total(std::iter::once(&i.after.publisher), None, stage);
    let (c0, s0) = stage_total(std::iter::once(&i.before.publisher), None, stage);
    ratio(s1 - s0, c1 - c0) / 1e3
}

/// Window-mean microseconds of `stage` across subscribers.
fn sub_stage_us(i: &LayerInput, mode: Option<ModeSlice>, stage: Stage) -> f64 {
    let (c1, s1) = stage_total(i.after.subs.iter().map(|s| &s.tel), mode, stage);
    let (c0, s0) = stage_total(i.before.subs.iter().map(|s| &s.tel), mode, stage);
    ratio(s1 - s0, c1 - c0) / 1e3
}

/// Window delta of a subscriber-side sum.
fn sub_delta(i: &LayerInput, f: impl Fn(&SubSnap) -> u64) -> f64 {
    let a: u64 = i.after.subs.iter().map(&f).sum();
    let b: u64 = i.before.subs.iter().map(&f).sum();
    a.saturating_sub(b) as f64
}

/// p50 of the window's share of a cumulative histogram.
fn window_p50(before: &Option<HistogramSnapshot>, after: &Option<HistogramSnapshot>) -> f64 {
    let (Some(a), Some(b)) = (after, before) else {
        return 0.0;
    };
    let mut d = a.clone();
    for (x, y) in d.buckets.iter_mut().zip(b.buckets.iter()) {
        *x = x.saturating_sub(*y);
    }
    d.count = a.count.saturating_sub(b.count);
    d.sum = a.sum.saturating_sub(b.sum);
    d.p50() as f64
}

fn mean_us(values: impl Iterator<Item = u64>) -> f64 {
    let (mut n, mut sum) = (0u64, 0u64);
    for v in values {
        n += 1;
        sum += v;
    }
    ratio(sum as f64, n as f64) / 1e3
}

/// Computes every per-layer metric.
pub fn per_layer(i: &LayerInput) -> Vec<Metric> {
    let (b, a) = (i.before, i.after);
    let spans = i.spans;
    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    let span_mean_us = |name: &'static str| mean_us(named(name).map(|s| s.duration_ns()));

    let published = a.messages_published.saturating_sub(b.messages_published) as f64;
    let broker_published = a.broker.published.saturating_sub(b.broker.published) as f64;
    let processed = sub_delta(i, |s| s.stats.messages_processed);
    let applied = sub_delta(i, |s| s.stats.ops_applied);
    let stale = sub_delta(i, |s| s.stats.ops_stale);
    let store = |name: &'static str| sub_delta(i, move |s| s.tel.counter(name));
    let waits = store("sub_store.waits");
    let wait_ns = store("sub_store.wait_nanos");
    let applies = store("sub_store.applies");

    let ops = i.ops.len() as f64;
    let writes = i.ops.iter().filter(|r| r.write).count() as f64;
    let ctrl_calls = a.ctrl.calls - b.ctrl.calls;
    let ctrl_messages = a.ctrl.messages - b.ctrl.messages;

    let wal_delta = |f: fn(&WalStats) -> u64| match (&a.wal, &b.wal) {
        (Some(x), Some(y)) => f(x).saturating_sub(f(y)) as f64,
        _ => 0.0,
    };

    // Bootstrap: each ecosystem bootstraps one subscriber (at set-up, or
    // in bootstrap_live's window), so its counters are read whole; timing
    // comes from the copier's span.
    let boot =
        |f: fn(&BootstrapStats) -> u64| a.subs.iter().map(|s| f(&s.boot)).sum::<u64>() as f64;
    let copied = boot(|s| s.records_copied);
    let chunks = boot(|s| s.chunks_copied);
    let copier: Vec<&Span> = named("core.bootstrap_from").collect();
    let copier_ns: u64 = copier.iter().map(|s| s.duration_ns()).sum();
    let copier_children = trace::child_time(spans);
    let self_ns = trace::self_times(spans);
    let copier_busy: u64 = copier
        .iter()
        .map(|s| copier_children.get(&s.id).copied().unwrap_or(0))
        .sum();

    // Process counters per window operation.
    let cpu_ms = a.process.cpu_ms - b.process.cpu_ms;
    let vol = a.process.vol_csw.saturating_sub(b.process.vol_csw) as f64;
    let invol = a.process.invol_csw.saturating_sub(b.process.invol_csw) as f64;

    // Generator lateness and visibility, from the outside.
    let mut late: Vec<f64> = i.ops.iter().map(|r| r.late_ns() as f64 / 1e6).collect();
    late.sort_by(f64::total_cmp);
    let late_mean_ms = ratio(late.iter().sum(), late.len() as f64);
    let primary = i.kind.primary_mode();
    let traced_of: HashMap<u64, bool> = i.ops.iter().map(|r| (r.index, r.traced)).collect();
    let vis_us = |traced: Option<bool>| {
        mean_us(
            i.hits
                .iter()
                .filter(|(mode, _)| *mode == primary)
                .map(|(_, h)| h)
                .filter(|h| traced.is_none_or(|t| traced_of.get(&h.op) == Some(&t)))
                .map(|h| h.latency_ns()),
        )
    };
    let call_us = |traced: bool| {
        mean_us(
            i.ops
                .iter()
                .filter(|r| r.write && r.traced == traced)
                .map(|r| r.call_ns()),
        )
    };

    // Stage means along the probed write's path, against the measured
    // visibility mean: what the stages do not explain.
    let path_us = late_mean_ms * 1e3
        + [
            Stage::Intercept,
            Stage::DepCompute,
            Stage::WireEncode,
            Stage::BrokerEnqueue,
        ]
        .iter()
        .map(|s| pub_stage_us(i, *s))
        .sum::<f64>()
        + [
            Stage::QueueResidency,
            Stage::PopBatch,
            Stage::DepWait,
            Stage::Apply,
        ]
        .iter()
        .map(|s| sub_stage_us(i, Some(primary), *s))
        .sum::<f64>();
    let vis_mean_us = vis_us(None);
    let unattributed = vis_mean_us - path_us;

    let f = i.failures;
    vec![
        metric(
            "mvc.dispatch_write_us",
            span_mean_us("mvc.dispatch.write"),
            "us",
        ),
        metric(
            "mvc.dispatch_read_us",
            span_mean_us("mvc.dispatch.read"),
            "us",
        ),
        metric(
            "mvc.dispatch_write_self_us",
            mean_us(named("mvc.dispatch.write").map(|s| self_ns[&s.id])),
            "us",
        ),
        metric(
            "core.publisher.overhead_us",
            ratio(a.ctrl.synapse_ns - b.ctrl.synapse_ns, writes) / 1e3,
            "us",
        ),
        metric(
            "core.publisher.msgs_per_call",
            ratio(ctrl_messages, ctrl_calls),
            "count",
        ),
        metric(
            "core.publisher.deps_per_msg",
            ratio(a.ctrl.deps - b.ctrl.deps, ctrl_messages),
            "count",
        ),
        metric("orm.intercept_us", pub_stage_us(i, Stage::Intercept), "us"),
        metric(
            "core.publisher.dep_compute_us",
            pub_stage_us(i, Stage::DepCompute),
            "us",
        ),
        metric(
            "model.wire_encode_us",
            pub_stage_us(i, Stage::WireEncode),
            "us",
        ),
        metric(
            "broker.enqueue_us",
            pub_stage_us(i, Stage::BrokerEnqueue),
            "us",
        ),
        metric(
            "broker.residency_us.causal",
            sub_stage_us(i, Some(ModeSlice::Causal), Stage::QueueResidency),
            "us",
        ),
        metric(
            "broker.residency_us.weak",
            sub_stage_us(i, Some(ModeSlice::Weak), Stage::QueueResidency),
            "us",
        ),
        metric(
            "broker.residency_us.global",
            sub_stage_us(i, Some(ModeSlice::Global), Stage::QueueResidency),
            "us",
        ),
        metric(
            "broker.pop_us",
            sub_stage_us(i, None, Stage::PopBatch),
            "us",
        ),
        metric("broker.backlog_max", i.backlog_max as f64, "count"),
        metric(
            "broker.deliveries_per_msg",
            ratio(processed, published),
            "count",
        ),
        metric(
            "broker.useful_delivery_ratio",
            ratio(applied, processed),
            "ratio",
        ),
        metric(
            "broker.wakeups_per_msg",
            ratio(
                a.broker.wakeups.saturating_sub(b.broker.wakeups) as f64,
                broker_published,
            ),
            "count",
        ),
        metric(
            "broker.steals_per_1k_msgs",
            1e3 * ratio(
                a.broker.steals.saturating_sub(b.broker.steals) as f64,
                broker_published,
            ),
            "count",
        ),
        metric(
            "broker.wal.bytes_per_msg",
            ratio(wal_delta(|w| w.bytes_appended), broker_published),
            "B",
        ),
        metric(
            "broker.wal.fsyncs_per_1k_msgs",
            1e3 * ratio(wal_delta(|w| w.fsyncs), broker_published),
            "count",
        ),
        metric(
            "broker.wal.group_size_p50",
            window_p50(&b.wal_group, &a.wal_group),
            "count",
        ),
        metric(
            "broker.wal.commit_wait_p50_us",
            window_p50(&b.wal_wait, &a.wal_wait) / 1e3,
            "us",
        ),
        metric(
            "core.subscriber.dep_wait_us.causal",
            sub_stage_us(i, Some(ModeSlice::Causal), Stage::DepWait),
            "us",
        ),
        metric(
            "core.subscriber.dep_wait_us.global",
            sub_stage_us(i, Some(ModeSlice::Global), Stage::DepWait),
            "us",
        ),
        metric(
            "core.subscriber.apply_us",
            sub_stage_us(i, None, Stage::Apply),
            "us",
        ),
        metric(
            "core.subscriber.stale_ratio",
            ratio(stale, applied + stale),
            "ratio",
        ),
        metric(
            "versionstore.waits_per_msg",
            ratio(waits, processed),
            "count",
        ),
        metric(
            "versionstore.wait_us_per_wait",
            ratio(wait_ns, waits) / 1e3,
            "us",
        ),
        metric(
            "versionstore.applies_per_msg",
            ratio(applies, processed),
            "count",
        ),
        metric(
            "core.subscriber.dep_timeouts",
            f.dep_timeouts as f64,
            "count",
        ),
        metric(
            "core.subscriber.redeliveries",
            f.redeliveries as f64,
            "count",
        ),
        metric(
            "core.subscriber.dead_lettered",
            f.dead_lettered as f64,
            "count",
        ),
        metric("db.pub_write_us", span_mean_us("db.pub_write"), "us"),
        metric("db.pub_read_us", span_mean_us("db.pub_read"), "us"),
        metric("db.sub_write_us", span_mean_us("db.sub_write"), "us"),
        metric(
            "db.rows_per_read",
            ratio(
                named("db.pub_read").map(|s| s.items).sum::<u64>() as f64,
                named("db.pub_read").count() as f64,
            ),
            "count",
        ),
        metric("db.page_read_us", span_mean_us("db.page_read"), "us"),
        metric(
            "core.bootstrap.rows_per_s",
            ratio(copied, copier_ns as f64 / 1e9),
            "1/s",
        ),
        metric(
            "core.bootstrap.ms_per_chunk",
            ratio(copier_ns as f64 / 1e6, chunks),
            "ms",
        ),
        metric(
            "core.bootstrap.copier_busy_ratio",
            ratio(copier_busy as f64, copier_ns as f64),
            "ratio",
        ),
        metric(
            "core.bootstrap.merged_ratio",
            ratio(boot(|s| s.copies_merged), copied),
            "ratio",
        ),
        metric(
            "core.bootstrap.reconciled_ratio",
            ratio(boot(|s| s.records_reconciled), copied),
            "ratio",
        ),
        metric(
            "core.bootstrap.finalize_timeouts",
            f.finalize_timeouts as f64,
            "count",
        ),
        metric("process.cpu_ms_per_1k_ops", 1e3 * ratio(cpu_ms, ops), "ms"),
        metric("process.vol_csw_per_op", ratio(vol, ops), "count"),
        metric("process.invol_csw_per_op", ratio(invol, ops), "count"),
        metric("process.threads", i.threads as f64, "count"),
        metric("gen.late_p99_ms", percentile(&late, 99.0), "ms"),
        metric("unattributed_us", unattributed, "us"),
        metric(
            "unattributed_pct",
            100.0 * ratio(unattributed, vis_mean_us),
            "%",
        ),
        metric("trace.overhead_us", call_us(true) - call_us(false), "us"),
        metric(
            "trace.vis_overhead_us",
            vis_us(Some(true)) - vis_us(Some(false)),
            "us",
        ),
    ]
}
