//! One benchmark run: repeated set-ups, an unrecorded warm-up, the
//! measured open-loop phase, the closed-loop capacity phase, and the
//! correctness checks.
//!
//! Open loop: operations are due at fixed intervals from the phase start,
//! each timed from when it was due (so a stall also charges the calls
//! queued behind it), whether or not the system keeps up. Closed loop: each
//! driver thread sends its next call when the previous one returns, and
//! capacity counts calls whose writes are visible on every subscriber over
//! the time from the first send until every queue has drained.

use crate::clock::{now_ns, wait_until};
use crate::layers;
use crate::probe::Hit;
use crate::procfs;
use crate::stats::{self, median, Summary};
use crate::trace::{self, Span};
use crate::workloads::{self, drain_all, Env, Kind, OpSpec, Scale, Stream, STREAMS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use synapse_broker::Broker;
use synapse_core::{ModeSlice, SynapseNode};
use synapse_mvc::App;

/// How long a phase may take to settle before its stragglers count as
/// failed.
const SETTLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Upper bound on one live-bootstrap window, which otherwise lasts until
/// the bootstrap completes.
const MAX_LIVE_S: f64 = 150.0;

/// Most live bootstraps one bootstrap_live run measures.
const MAX_LIVE_ROUNDS: usize = 12;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Sizes and rates.
    pub scale: Scale,
    /// Directory for the WAL, spans and result files.
    pub work_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Outputs checked and no operation failed.
    pub correct: bool,
    /// Operations sent across all phases.
    pub attempted: u64,
    /// Operations that errored or never became visible, plus dead
    /// letters, dependency-wait timeouts and finalize timeouts.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Extra facts as `(key, JSON value)` for the result file.
    pub detail: Vec<(String, String)>,
    /// Recorded spans (traced run).
    pub spans: Vec<Span>,
}

/// One sent operation.
#[derive(Debug, Clone, Copy)]
pub struct OpRec {
    /// Send index.
    pub index: u64,
    /// When it was due.
    pub intended_ns: u64,
    /// When the driver actually called.
    pub start_ns: u64,
    /// When the call returned.
    pub end_ns: u64,
    /// Write-issuing call.
    pub write: bool,
    /// Returned `Ok`.
    pub ok: bool,
    /// Its spans were recorded.
    pub traced: bool,
}

impl OpRec {
    /// Intended send → call returned.
    pub fn call_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.intended_ns)
    }

    /// How late the generator sent it.
    pub fn late_ns(&self) -> u64 {
        self.start_ns.saturating_sub(self.intended_ns)
    }
}

static ERRORS_SHOWN: AtomicU64 = AtomicU64::new(0);

fn exec(
    app: &App,
    env_probe: &crate::probe::Probe,
    index: u64,
    due: u64,
    spec: &OpSpec,
    traced: bool,
) -> OpRec {
    if let Some((key, value)) = spec.expect {
        env_probe.expect(index, key, value, due);
    }
    trace::begin_op(index, traced);
    let start_ns = now_ns();
    let result = {
        let _span = trace::enter(if spec.write {
            "mvc.dispatch.write"
        } else {
            "mvc.dispatch.read"
        });
        app.dispatch(spec.controller, &spec.request)
    };
    let end_ns = now_ns();
    trace::end_op();
    if let Err(e) = &result {
        if ERRORS_SHOWN.fetch_add(1, Ordering::Relaxed) < 5 {
            eprintln!("perfbench: {} failed: {e}", spec.controller);
        }
    }
    OpRec {
        index,
        intended_ns: due,
        start_ns,
        end_ns,
        write: spec.write,
        ok: result.is_ok(),
        traced,
    }
}

/// Streams handed to driver lane `lane` of `lanes`.
fn lane_streams(streams: &mut [Box<dyn Stream>], lanes: usize) -> Vec<Vec<&mut Box<dyn Stream>>> {
    let mut out: Vec<Vec<&mut Box<dyn Stream>>> = (0..lanes).map(|_| Vec::new()).collect();
    for (i, s) in streams.iter_mut().enumerate() {
        out[i % lanes].push(s);
    }
    out
}

/// Sends up to `count` operations at `rate`/s from `lanes` driver threads
/// (operation `i` is due at `i / rate` after the start and comes from
/// stream `i % STREAMS`). `during`, when given, runs on the calling thread
/// once the drivers are started; when it returns, the drivers stop
/// sending at their next due time.
fn open_loop(
    env: &mut Env,
    next_index: &mut u64,
    rate: f64,
    count: u64,
    lanes: usize,
    alternate_trace: bool,
    during: Option<&mut dyn FnMut()>,
) -> Vec<OpRec> {
    let base = *next_index;
    let gap_ns = 1e9 / rate;
    let start = now_ns() + 2_000_000;
    let stop = AtomicBool::new(false);
    let app = env.app.clone();
    let probe = env.probe.clone();
    let lanes = lanes.clamp(1, STREAMS);
    let sent = AtomicU64::new(0);
    let recs = std::thread::scope(|scope| {
        let handles: Vec<_> = lane_streams(&mut env.streams, lanes)
            .into_iter()
            .enumerate()
            .map(|(lane, mut streams)| {
                let (app, probe, stop, sent) = (&app, &probe, &stop, &sent);
                scope.spawn(move || {
                    let mut recs = Vec::new();
                    for i in (lane as u64..count).step_by(lanes) {
                        let spec = streams[(i as usize % STREAMS) / lanes].next();
                        let due = start + (i as f64 * gap_ns) as u64;
                        wait_until(due);
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let index = base + i;
                        let traced = !alternate_trace || index.is_multiple_of(2);
                        recs.push(exec(app, probe, index, due, &spec, traced));
                        sent.fetch_max(i + 1, Ordering::Relaxed);
                    }
                    recs
                })
            })
            .collect();
        if let Some(f) = during {
            f();
            stop.store(true, Ordering::SeqCst);
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("driver thread panicked"))
            .collect::<Vec<_>>()
    });
    *next_index = base + sent.load(Ordering::Relaxed);
    recs
}

/// Closed loop: one driver thread per stream sends its share of `count`
/// operations back to back.
fn closed_loop(env: &mut Env, next_index: &mut u64, count: u64) -> Vec<OpRec> {
    let base = *next_index;
    let per_lane = count.div_ceil(STREAMS as u64);
    let app = env.app.clone();
    let probe = env.probe.clone();
    let recs: Vec<OpRec> = std::thread::scope(|scope| {
        let handles: Vec<_> = env
            .streams
            .iter_mut()
            .enumerate()
            .map(|(lane, stream)| {
                let (app, probe) = (&app, &probe);
                scope.spawn(move || {
                    (0..per_lane)
                        .map(|k| {
                            let spec = stream.next();
                            let index = base + k * STREAMS as u64 + lane as u64;
                            exec(app, probe, index, now_ns(), &spec, false)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("driver thread panicked"))
            .collect()
    });
    *next_index = base + per_lane * STREAMS as u64;
    recs
}

fn queues_empty(env: &Env) -> bool {
    let broker = env.eco.broker();
    env.subscribers.iter().all(|n| {
        broker.queue_len(n.app()) == Some(0) && broker.queue_unacked_len(n.app()) == Some(0)
    })
}

/// Waits until every expectation is met and every subscriber queue is
/// empty; returns when that was first observed, or `None` on timeout.
fn settle(env: &Env) -> Option<u64> {
    let deadline = now_ns() + SETTLE_TIMEOUT.as_nanos() as u64;
    loop {
        if env.probe.outstanding() == 0 && queues_empty(env) {
            let seen = now_ns();
            return drain_all(&env.subscribers, SETTLE_TIMEOUT)
                .ok()
                .map(|_| seen);
        }
        if now_ns() > deadline {
            return None;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Samples the summed depth of `queues` until stopped.
fn sample_backlog(broker: Broker, queues: Vec<String>, stop: &AtomicBool) -> u64 {
    let mut max = 0;
    while !stop.load(Ordering::SeqCst) {
        let depth: usize = queues
            .iter()
            .map(|q| broker.queue_len(q).unwrap_or(0))
            .sum();
        max = max.max(depth as u64);
        std::thread::sleep(Duration::from_millis(1));
    }
    max
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Compares every subscriber's rows with its publisher's subscribed
/// fields.
fn check_convergence(env: &Env) -> Result<(), String> {
    for node in &env.subscribers {
        for sub in node.subscriptions() {
            let publisher: Arc<SynapseNode> = env
                .eco
                .node(&sub.from)
                .ok_or_else(|| format!("{}: unknown publisher {}", node.app(), sub.from))?;
            let project = |rows: Vec<synapse_model::Record>, local: bool| {
                rows.into_iter()
                    .map(|r| {
                        let fields: Vec<_> = sub
                            .fields
                            .iter()
                            .map(|f| {
                                let name = if local {
                                    sub.local_field(f)
                                } else {
                                    f.as_str()
                                };
                                r.get(name).clone()
                            })
                            .collect();
                        (r.id.raw(), fields)
                    })
                    .collect::<BTreeMap<_, _>>()
            };
            let want = project(
                publisher.orm().all(&sub.model).map_err(|e| e.to_string())?,
                false,
            );
            let have = project(node.orm().all(&sub.model).map_err(|e| e.to_string())?, true);
            if want != have {
                let missing = want.keys().filter(|k| !have.contains_key(k)).count();
                let differing = want
                    .iter()
                    .filter(|(k, v)| have.get(k).is_some_and(|h| h != *v))
                    .count();
                return Err(format!(
                    "{} {}: {} rows vs publisher {} ({missing} missing, {differing} differing)",
                    node.app(),
                    sub.model,
                    have.len(),
                    want.len()
                ));
            }
        }
    }
    Ok(())
}

/// The measured open-loop window of one ecosystem.
struct Window {
    ops: Vec<OpRec>,
    /// Send-index range.
    range: (u64, u64),
    before: layers::Snap,
    after: layers::Snap,
    backlog_max: u64,
    /// The live bootstrap's duration (bootstrap_live).
    bootstrap_s: Option<f64>,
}

/// Runs the measured window: `seconds` of open-loop load, or, with a
/// fresh node to bootstrap, open-loop load for as long as its bootstrap
/// takes. Counters are read at the start and once the window's writes
/// are visible.
fn measure_window(
    env: &mut Env,
    next_index: &mut u64,
    rate: f64,
    lanes: usize,
    seconds: f64,
    trace_on: bool,
) -> Result<Window, String> {
    let first = *next_index;
    let before = layers::snap(env);
    let backlog_stop = AtomicBool::new(false);
    trace::set_enabled(trace_on);
    let mut bootstrap_s = None;
    let (ops, backlog_max) = std::thread::scope(|scope| {
        let sampler = trace_on.then(|| {
            let broker = env.eco.broker().clone();
            let queues = env.subscribers.iter().map(|n| n.app().to_owned()).collect();
            let stop = &backlog_stop;
            scope.spawn(move || sample_backlog(broker, queues, stop))
        });
        let ops = if let Some(fresh) = env.fresh.clone() {
            let publisher = env.publisher().clone();
            let mut result = Ok(());
            let mut bootstrap = || {
                let _span = trace::enter("core.bootstrap_from");
                let t = now_ns();
                result = fresh.start_and_bootstrap_from(&publisher);
                bootstrap_s = Some(secs(now_ns() - t));
            };
            let count = (rate * MAX_LIVE_S) as u64;
            let ops = open_loop(
                env,
                next_index,
                rate,
                count,
                lanes,
                trace_on,
                Some(&mut bootstrap),
            );
            result
                .map(|()| ops)
                .map_err(|e| format!("live bootstrap: {e}"))
        } else {
            let n = (rate * seconds).round() as u64;
            Ok(open_loop(env, next_index, rate, n, lanes, trace_on, None))
        };
        if ops.is_ok() && settle(env).is_none() {
            eprintln!("perfbench: measured window did not settle");
        }
        backlog_stop.store(true, Ordering::SeqCst);
        let backlog = sampler.map_or(0, |h| h.join().expect("sampler panicked"));
        ops.map(|ops| (ops, backlog))
    })?;
    trace::set_enabled(false);
    Ok(Window {
        ops,
        range: (first, *next_index),
        before,
        after: layers::snap(env),
        backlog_max,
        bootstrap_s,
    })
}

/// Everything a run gathers across its ecosystems.
#[derive(Default)]
struct Tally {
    setup_s: Vec<f64>,
    bootstrap_s: Vec<f64>,
    attempted: u64,
    errored: u64,
    not_visible: u64,
    failures: layers::Failures,
    convergence: Vec<String>,
    /// Probe hits with their subscriber's delivery mode.
    hits: Vec<(ModeSlice, Hit)>,
    /// Successful write calls of measured windows as (due, ms).
    calls: Vec<(u64, f64)>,
    windows: Vec<(u64, u64)>,
    window_ops: u64,
    window_s: f64,
}

impl Tally {
    fn ops(&mut self, ops: &[OpRec]) {
        self.attempted += ops.len() as u64;
        self.errored += ops.iter().filter(|r| !r.ok).count() as u64;
    }

    fn window(&mut self, w: &Window) {
        self.ops(&w.ops);
        self.windows.push(w.range);
        self.window_ops += w.ops.len() as u64;
        let due = w.ops.iter().map(|r| r.intended_ns);
        self.window_s += secs(due.clone().max().unwrap_or(0) - due.min().unwrap_or(0));
        self.calls.extend(
            w.ops
                .iter()
                .filter(|r| r.write && r.ok)
                .map(|r| (r.intended_ns, ms(r.call_ns()))),
        );
        self.bootstrap_s.extend(w.bootstrap_s);
    }

    /// Collects an ecosystem's hits, stragglers, failure counters and
    /// convergence verdict; call once its load has settled.
    fn audit(&mut self, env: &Env) {
        self.hits.extend(
            env.probe
                .take_hits()
                .into_iter()
                .map(|h| (env.probed[h.sub].mode, h)),
        );
        self.not_visible += env.probe.unmatched_ops().len() as u64;
        let f = layers::failure_counts(env);
        self.failures.dead_lettered += f.dead_lettered;
        self.failures.dep_timeouts += f.dep_timeouts;
        self.failures.finalize_timeouts += f.finalize_timeouts;
        self.failures.redeliveries += f.redeliveries;
        if let Err(e) = check_convergence(env) {
            eprintln!("perfbench: convergence check failed: {e}");
            self.convergence.push(e);
        }
    }

    fn in_window(&self, op: u64) -> bool {
        self.windows.iter().any(|(lo, hi)| op >= *lo && op < *hi)
    }

    /// `(due, ms)` visibility samples of measured operations in `mode`.
    fn vis(&self, mode: ModeSlice) -> Vec<(u64, f64)> {
        self.hits
            .iter()
            .filter(|(m, h)| *m == mode && self.in_window(h.op))
            .map(|(_, h)| (h.intended_ns, ms(h.latency_ns())))
            .collect()
    }
}

/// One closed-loop capacity round on `env`: calls per second from the
/// first send until every write is visible and every queue is empty, or
/// `None` if the round did not settle.
fn capacity_round(
    env: &mut Env,
    next_index: &mut u64,
    count: u64,
    tally: &mut Tally,
) -> Option<f64> {
    let start = now_ns();
    let ops = closed_loop(env, next_index, count);
    let rate = settle(env).map(|end| ops.len() as f64 / secs(end - start));
    tally.ops(&ops);
    rate
}

/// Runs one workload and returns its outcome.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let kind = cfg.kind;
    let scale = &cfg.scale;
    std::fs::create_dir_all(&cfg.work_dir).map_err(|e| format!("work dir: {e}"))?;
    let (rate, lanes, capacity_ops) = match kind {
        Kind::Crowdtap => (scale.crowdtap_rate, STREAMS, scale.crowdtap_capacity_ops),
        Kind::FeedDurable => (scale.feed_rate, 1, scale.feed_capacity_ops),
        Kind::BootstrapLive => (scale.boot_rate, 1, scale.boot_capacity_ops),
    };
    let live = kind == Kind::BootstrapLive;
    let ticks_start = procfs::cpu_ticks();
    let mut tally = Tally::default();
    let mut next_index = 0u64;

    // Set-ups. Every ecosystem except the one crowdtap and feed measure
    // their window on runs one closed-loop capacity round before it is
    // torn down; `sat_ops_s` is their trimmed mean. bootstrap_live measures
    // a live bootstrap on each ecosystem until `seconds` of them are
    // measured (one when traced: per-layer counters come from a single
    // ecosystem).
    let mut sat = Vec::new();
    let mut rounds = 0;
    let mut last_window = None;
    let mut i = 0;
    let mut env = loop {
        let t = now_ns();
        // The traced run records the last set-up's join bootstrap.
        let trace_join = cfg.trace && i + 1 == scale.setups.max(1);
        let mut e = workloads::setup(kind, scale, cfg.seed, &cfg.work_dir, i, trace_join)?;
        tally.setup_s.push(secs(now_ns() - t));
        tally
            .bootstrap_s
            .extend(e.setup_bootstrap.map(|d| d.as_secs_f64()));
        let last = if live {
            let w = measure_window(
                &mut e,
                &mut next_index,
                rate,
                lanes,
                scale.seconds,
                cfg.trace,
            )?;
            tally.window(&w);
            last_window = Some(w);
            cfg.trace || tally.window_s >= scale.seconds || i + 1 >= MAX_LIVE_ROUNDS
        } else {
            i + 1 >= scale.setups.max(1)
        };
        if live || !last {
            rounds += 1;
            sat.extend(capacity_round(
                &mut e,
                &mut next_index,
                capacity_ops,
                &mut tally,
            ));
        }
        if last {
            break e;
        }
        tally.audit(&e);
        e.teardown();
        i += 1;
    };

    if !live {
        let warmup = (rate * scale.warmup_s).round() as u64;
        tally.ops(&open_loop(
            &mut env,
            &mut next_index,
            rate,
            warmup,
            lanes,
            false,
            None,
        ));
        let w = measure_window(
            &mut env,
            &mut next_index,
            rate,
            lanes,
            scale.seconds,
            cfg.trace,
        )?;
        tally.window(&w);
        last_window = Some(w);
    }
    let window = last_window.expect("a measured window");
    if sat.len() < rounds {
        eprintln!("perfbench: a capacity round did not settle");
    }
    tally.audit(&env);
    let proc_end = procfs::sample();
    let ticks_end = procfs::cpu_ticks();
    // A run whose CPUs were stolen by the host for long stretches reads
    // slow in every timing; the share is reported so such runs can be
    // told apart.
    let steal_pct = 100.0
        * stats::ratio(
            ticks_end.1.saturating_sub(ticks_start.1) as f64,
            ticks_end.0.saturating_sub(ticks_start.0) as f64,
        );

    let failed = tally.errored + tally.not_visible + tally.failures.total();
    let correct = tally.convergence.is_empty() && failed == 0 && sat.len() == rounds;
    let primary = kind.primary_mode();
    let vis_samples = tally.vis(primary);
    let summary = |samples: &[(u64, f64)]| Summary::of(samples.iter().map(|s| s.1).collect());
    let write_call = summary(&tally.calls);
    let vis = summary(&vis_samples);

    let mut detail: Vec<(String, String)> = vec![
        ("workload".into(), format!("\"{}\"", kind.name())),
        ("seed".into(), cfg.seed.to_string()),
        ("trace".into(), cfg.trace.to_string()),
        ("nproc".into(), procfs::nproc().to_string()),
        ("host_steal_pct".into(), format!("{steal_pct:.2}")),
        ("git_rev".into(), format!("\"{}\"", procfs::git_rev())),
        ("open_loop_rate_per_s".into(), rate.to_string()),
        ("driver_threads".into(), lanes.to_string()),
        (
            "probed".into(),
            format!(
                "[{}]",
                env.probed
                    .iter()
                    .map(|p| format!("\"{} ({})\"", p.name, p.mode.name()))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        ("setup_s".into(), json_list(&tally.setup_s)),
        ("bootstrap_s".into(), json_list(&tally.bootstrap_s)),
        ("capacity_ops_per_s".into(), json_list(&sat)),
        ("window_ops".into(), tally.window_ops.to_string()),
        ("window_s".into(), tally.window_s.to_string()),
        ("write_call_ms".into(), write_call.json()),
        (format!("vis_{}_ms", primary.name()), vis.json()),
        (
            "convergence".into(),
            format!(
                "\"{}\"",
                tally.convergence.first().map_or("ok", |e| e.as_str())
            ),
        ),
        (
            "failures".into(),
            tally.failures.json(tally.errored, tally.not_visible),
        ),
    ];
    for mode in ModeSlice::all() {
        if mode != primary && env.probed.iter().any(|p| p.mode == mode) {
            let s = summary(&tally.vis(mode));
            detail.push((format!("vis_{}_ms", mode.name()), s.json()));
        }
    }
    if let (Some(dir), Some(fsync)) = (&env.wal_dir, env.fsync) {
        detail.push(("wal_fsync".into(), format!("\"{fsync:?}\"")));
        let fs = procfs::fs_type(dir.parent().unwrap_or(dir));
        detail.push(("wal_fs_type".into(), format!("\"{fs}\"")));
    }

    let spans = if cfg.trace {
        trace::take_all()
    } else {
        Vec::new()
    };
    let metrics = if cfg.trace {
        let hits: Vec<(ModeSlice, Hit)> = tally
            .hits
            .iter()
            .filter(|(_, h)| h.op >= window.range.0 && h.op < window.range.1)
            .copied()
            .collect();
        layers::per_layer(&layers::LayerInput {
            kind,
            before: &window.before,
            after: &window.after,
            spans: &spans,
            ops: &window.ops,
            hits: &hits,
            backlog_max: window.backlog_max,
            failures: &tally.failures,
            threads: proc_end.threads,
        })
    } else {
        // Gated latencies: the median over the windows' one-second
        // slices of each slice's median. Tails stay in the facts line: a
        // shared disk or host that stalls for minutes moved feed_durable's
        // p90 up to tenfold in whole runs, which no bound can absorb.
        let slices = tally.window_s.ceil().max(1.0) as usize;
        vec![
            metric("setup_s", median(&tally.setup_s), "s"),
            metric(
                "vis_p50_ms",
                stats::sliced(&vis_samples, 50.0, slices),
                "ms",
            ),
            metric(
                "write_call_p50_ms",
                stats::sliced(&tally.calls, 50.0, slices),
                "ms",
            ),
            metric("sat_ops_s", stats::trimmed_mean(&sat), "ops/s"),
            metric("bootstrap_s", stats::trimmed_mean(&tally.bootstrap_s), "s"),
            metric("peak_rss_mb", proc_end.hwm_kib as f64 / 1024.0, "MiB"),
        ]
    };
    env.teardown();
    Ok(Outcome {
        correct,
        attempted: tally.attempted,
        failed,
        metrics,
        detail,
        spans,
    })
}

/// Renders numbers as a JSON list.
pub fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    format!("[{}]", items.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names of one section of the repository's BENCHMARK.json.
    fn declared(section: &str) -> Vec<String> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|part| part.split('"').nth(1).expect("quoted name").to_owned())
            .collect()
    }

    fn smoke(kind: Kind, trace: bool) {
        let cfg = RunConfig {
            kind,
            seed: 3,
            trace,
            scale: Scale::tiny(),
            work_dir: PathBuf::from(".bench_out").join(format!("test-{}-{trace}", kind.name())),
        };
        let out = run(&cfg).expect("tiny run completes");
        assert!(out.attempted > 0);
        assert_eq!(out.failed, 0, "{:?}", out.detail);
        assert!(out.correct, "{:?}", out.detail);
        let names: Vec<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
        let want = declared(if trace { "per_layer" } else { "end_to_end" });
        assert_eq!(names, want);
        if !trace {
            for m in &out.metrics {
                assert!(m.value > 0.0, "{} must be non-zero", m.name);
            }
        }
        let _ = std::fs::remove_dir_all(&cfg.work_dir);
    }

    #[test]
    fn crowdtap_tiny_run_has_no_failures() {
        smoke(Kind::Crowdtap, false);
    }

    #[test]
    fn feed_durable_tiny_run_has_no_failures() {
        smoke(Kind::FeedDurable, false);
    }

    #[test]
    fn bootstrap_live_tiny_run_has_no_failures() {
        smoke(Kind::BootstrapLive, false);
    }

    #[test]
    fn traced_tiny_run_reports_every_per_layer_metric() {
        smoke(Kind::BootstrapLive, true);
    }
}
