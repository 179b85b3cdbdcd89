//! The three workloads: how each ecosystem is built and seeded, and the
//! operation streams the drivers replay against it.
//!
//! Every workload runs with `LatencyModel::off()` and no simulated
//! controller work, so no sleep-based cost adds timer jitter: the numbers
//! measure the program. Every operation is an MVC controller call on the
//! publishing app.

use crate::dbwrap::{Side, TracedAdapter};
use crate::probe::Probe;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use synapse_apps::crowdtap;
use synapse_broker::{FsyncPolicy, WalConfig};
use synapse_core::{
    DeliveryMode, Ecosystem, ModeSlice, Publication, Subscription, SynapseConfig, SynapseNode,
};
use synapse_db::LatencyModel;
use synapse_model::{vmap, Id, ModelSchema, Value};
use synapse_mvc::{App, Request};
use synapse_orm::adapters::{ActiveRecordAdapter, MongoidAdapter};
use synapse_orm::{Adapter, CallbackPoint};

/// Workload names, as passed to `--workload`.
pub const NAMES: [&str; 3] = ["crowdtap", "feed_durable", "bootstrap_live"];

/// The workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fig. 10's nine-service topology under the Fig. 12(a) controller mix.
    Crowdtap,
    /// One global-mode publisher and subscriber on a durable broker.
    FeedDurable,
    /// A fresh causal subscriber bootstrapping under live updates.
    BootstrapLive,
}

impl Kind {
    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "crowdtap" => Some(Kind::Crowdtap),
            "feed_durable" => Some(Kind::FeedDurable),
            "bootstrap_live" => Some(Kind::BootstrapLive),
            _ => None,
        }
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Crowdtap => NAMES[0],
            Kind::FeedDurable => NAMES[1],
            Kind::BootstrapLive => NAMES[2],
        }
    }

    /// The ordered delivery mode whose visibility the end-to-end
    /// `vis_p50_ms` reports.
    pub fn primary_mode(self) -> ModeSlice {
        match self {
            Kind::FeedDurable => ModeSlice::Global,
            Kind::Crowdtap | Kind::BootstrapLive => ModeSlice::Causal,
        }
    }
}

/// Sizes and rates of one run.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Length of the measured open-loop phase (`--seconds`).
    pub seconds: f64,
    /// Unrecorded open-loop warm-up before it.
    pub warmup_s: f64,
    /// Complete set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Crowdtap users (each with one action).
    pub users: usize,
    /// Crowdtap brands (each with one award).
    pub brands: usize,
    /// Crowdtap open-loop rate, calls/s.
    pub crowdtap_rate: f64,
    /// Calls of one crowdtap closed-loop capacity round.
    pub crowdtap_capacity_ops: u64,
    /// Posts seeded before the feed subscriber joins.
    pub feed_rows: usize,
    /// Feed open-loop rate, creates/s.
    pub feed_rate: f64,
    /// Creates of one feed closed-loop capacity round.
    pub feed_capacity_ops: u64,
    /// Rows the bootstrap_live publisher holds.
    pub boot_rows: usize,
    /// bootstrap_live open-loop rate, updates/s.
    pub boot_rate: f64,
    /// Updates of one bootstrap_live closed-loop capacity round.
    pub boot_capacity_ops: u64,
}

impl Scale {
    /// The benchmark's sizes for a `--seconds` measurement.
    pub fn full(seconds: f64) -> Scale {
        Scale {
            seconds,
            warmup_s: 1.0,
            setups: 8,
            users: 2000,
            brands: 8,
            crowdtap_rate: 1000.0,
            crowdtap_capacity_ops: 3_000,
            feed_rows: 4000,
            feed_rate: 1000.0,
            feed_capacity_ops: 12_000,
            boot_rows: 20_000,
            boot_rate: 100.0,
            boot_capacity_ops: 15_000,
        }
    }

    /// A seconds-long run for the benchmark's own tests.
    #[cfg(test)]
    pub fn tiny() -> Scale {
        Scale {
            seconds: 0.3,
            warmup_s: 0.1,
            setups: 2,
            users: 60,
            brands: 4,
            crowdtap_rate: 300.0,
            crowdtap_capacity_ops: 200,
            feed_rows: 50,
            feed_rate: 300.0,
            feed_capacity_ops: 200,
            boot_rows: 400,
            boot_rate: 300.0,
            boot_capacity_ops: 200,
        }
    }
}

/// One controller call to issue.
pub struct OpSpec {
    /// Controller name on the publishing app.
    pub controller: &'static str,
    /// The request.
    pub request: Request,
    /// Whether the call writes (and so publishes).
    pub write: bool,
    /// The probed `(row key, value)` this call's write makes visible.
    pub expect: Option<(u64, u64)>,
}

/// One key partition's operation stream. Streams never share a probed
/// row, so two driver threads never race on one row's value.
pub trait Stream: Send {
    /// The next operation.
    fn next(&mut self) -> OpSpec;
}

/// Streams per workload: one per closed-loop driver thread.
pub const STREAMS: usize = 2;

/// A subscriber whose visibility the probe measures.
#[derive(Debug, Clone)]
pub struct Probed {
    /// Service name.
    pub name: String,
    /// Effective delivery mode.
    pub mode: ModeSlice,
}

/// A built, seeded ecosystem ready for load.
pub struct Env {
    /// The ecosystem (owns the broker).
    pub eco: Ecosystem,
    /// The publishing app every operation is dispatched to.
    pub app: Arc<App>,
    /// Every subscriber node.
    pub subscribers: Vec<Arc<SynapseNode>>,
    /// The visibility probe over `probed`.
    pub probe: Arc<Probe>,
    /// Probed subscribers, in probe index order.
    pub probed: Vec<Probed>,
    /// Operation streams, `STREAMS` of them.
    pub streams: Vec<Box<dyn Stream>>,
    /// Duration of the subscriber join bootstrap done during set-up.
    pub setup_bootstrap: Option<Duration>,
    /// The node that bootstraps under live load (bootstrap_live).
    pub fresh: Option<Arc<SynapseNode>>,
    /// Durable broker log directory, removed at teardown.
    pub wal_dir: Option<PathBuf>,
    /// WAL fsync policy, when durable.
    pub fsync: Option<FsyncPolicy>,
}

impl Env {
    /// The publisher node.
    pub fn publisher(&self) -> &Arc<SynapseNode> {
        self.app.node()
    }

    /// Stops every worker and removes the WAL directory.
    pub fn teardown(self) {
        self.eco.stop_all();
        let dir = self.wal_dir.clone();
        drop(self);
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Builds and seeds one workload's ecosystem. `setup` numbers the set-ups
/// of one run (the WAL directory name); `trace` records spans around the
/// subscriber join bootstrap.
pub fn setup(
    kind: Kind,
    scale: &Scale,
    seed: u64,
    work_dir: &Path,
    setup: usize,
    trace: bool,
) -> Result<Env, String> {
    match kind {
        Kind::Crowdtap => setup_crowdtap(scale, seed, trace),
        Kind::FeedDurable => setup_feed(scale, seed, work_dir, setup, trace),
        Kind::BootstrapLive => setup_bootstrap_live(scale, seed),
    }
}

/// Registers after-write callbacks reporting `(key, value)` of `model`
/// rows on `node` as probed subscriber `index`.
fn probe_model(
    node: &SynapseNode,
    model: &str,
    probe: &Arc<Probe>,
    index: usize,
    key_value: fn(&synapse_model::Record) -> Option<(u64, u64)>,
) {
    for point in [CallbackPoint::AfterCreate, CallbackPoint::AfterUpdate] {
        let probe = probe.clone();
        node.orm().on(model, point, move |_ctx, record| {
            if let Some((key, value)) = key_value(record) {
                probe.observe(index, key, value);
            }
            Ok(())
        });
    }
}

fn int_field(record: &synapse_model::Record, field: &str) -> Option<u64> {
    record.get(field).as_int().map(|v| v as u64)
}

fn ensure_connected(eco: &Ecosystem) -> Result<(), String> {
    let violations = eco.connect();
    if violations.is_empty() {
        Ok(())
    } else {
        Err(format!("static checks failed: {violations:?}"))
    }
}

/// Waits until every subscriber's queue is settled.
pub fn drain_all(subscribers: &[Arc<SynapseNode>], timeout: Duration) -> Result<(), String> {
    for node in subscribers {
        if !node.subscriber().drain(timeout) {
            return Err(format!("{} did not drain within {timeout:?}", node.app()));
        }
    }
    Ok(())
}

/// Starts `node` and bootstraps it from `publisher`, under a
/// `core.bootstrap_from` span when `trace` is set; returns how long the
/// bootstrap took.
pub fn join(node: &SynapseNode, publisher: &SynapseNode, trace: bool) -> Result<Duration, String> {
    crate::trace::set_enabled(trace);
    let started = std::time::Instant::now();
    let result = {
        let _span = crate::trace::enter("core.bootstrap_from");
        node.start_and_bootstrap_from(publisher)
    };
    let took = started.elapsed();
    crate::trace::set_enabled(false);
    result
        .map(|()| took)
        .map_err(|e| format!("{} bootstrap: {e}", node.app()))
}

fn traced(inner: impl Adapter + 'static, side: Side) -> Arc<TracedAdapter> {
    TracedAdapter::new(Arc::new(inner), side)
}

// ---------------------------------------------------------------- crowdtap

/// Services whose User rows the crowdtap probe watches (User.points grows
/// by 10 with every `actions/update`).
const CROWDTAP_PROBED: [(&str, ModeSlice); 3] = [
    ("targeting", ModeSlice::Causal),
    ("spree", ModeSlice::Causal),
    ("analytics", ModeSlice::Weak),
];

fn setup_crowdtap(scale: &Scale, seed: u64, trace: bool) -> Result<Env, String> {
    let eco = Ecosystem::new();
    let apps = crowdtap::build(&eco, LatencyModel::off());
    ensure_connected(&eco)?;
    let probe = Arc::new(Probe::new(CROWDTAP_PROBED.len()));
    for (i, (name, _)) in CROWDTAP_PROBED.iter().enumerate() {
        probe_model(&apps.services[*name], "User", &probe, i, |r| {
            Some((r.id.raw(), int_field(r, "points")?))
        });
    }
    // Every service but spree replicates the seed live; spree joins after
    // seeding through a bootstrap, with the seed's messages queued behind.
    for (name, node) in &apps.services {
        if name != "spree" {
            node.start();
        }
    }
    let users = crowdtap::seed(&apps.main, scale.users, scale.brands);
    let spree = apps.services["spree"].clone();
    let setup_bootstrap = Some(join(&spree, apps.main.node(), trace)?);
    let subscribers: Vec<Arc<SynapseNode>> = apps.services.values().cloned().collect();
    drain_all(&subscribers, Duration::from_secs(60))?;

    let mut action_of = HashMap::new();
    for action in apps
        .main
        .orm()
        .all("Action")
        .map_err(|e| format!("actions: {e}"))?
    {
        if let Some(user) = int_field(&action, "user_id") {
            action_of.insert(user, action.id.raw());
        }
    }
    let streams = (0..STREAMS)
        .map(|lane| {
            let mine: Vec<u64> = users
                .iter()
                .map(|u| u.raw())
                .filter(|u| (*u as usize) % STREAMS == lane)
                .collect();
            Box::new(CrowdtapStream {
                rng: SmallRng::seed_from_u64(seed ^ (0xC0FFEE + lane as u64)),
                action_of: mine.iter().map(|u| (*u, action_of[u])).collect(),
                points: mine.iter().map(|u| (*u, 0)).collect(),
                users: mine,
                brands: scale.brands.max(1) as i64,
            }) as Box<dyn Stream>
        })
        .collect();
    Ok(Env {
        eco,
        app: apps.main,
        subscribers,
        probe,
        probed: CROWDTAP_PROBED
            .iter()
            .map(|(n, m)| Probed {
                name: (*n).to_owned(),
                mode: *m,
            })
            .collect(),
        streams,
        setup_bootstrap,
        fresh: None,
        wal_dir: None,
        fsync: None,
    })
}

/// The Fig. 12(a) controller mix: (controller, share of calls in ‰).
const CROWDTAP_MIX: [(&str, u32); 5] = [
    ("awards/index", 170),
    ("brands/show", 160),
    ("actions/index", 150),
    ("me/show", 120),
    ("actions/update", 115),
];

struct CrowdtapStream {
    rng: SmallRng,
    users: Vec<u64>,
    action_of: HashMap<u64, u64>,
    /// Points each user will hold once every issued update is applied.
    points: HashMap<u64, u64>,
    brands: i64,
}

impl Stream for CrowdtapStream {
    fn next(&mut self) -> OpSpec {
        let total: u32 = CROWDTAP_MIX.iter().map(|(_, w)| w).sum();
        let mut pick = self.rng.gen_range(0..total);
        let controller = CROWDTAP_MIX
            .iter()
            .find(|(_, w)| {
                let hit = pick < *w;
                if !hit {
                    pick -= w;
                }
                hit
            })
            .map(|(c, _)| *c)
            .expect("pick < total");
        let user = self.users[self.rng.gen_range(0..self.users.len())];
        let base = Request::as_user(Id(user));
        let (request, write, expect) = match controller {
            // ~3% of brand views bump the counter.
            "brands/show" => {
                let bump = self.rng.gen_range(0..100) < 3;
                let brand = self.rng.gen_range(1..=self.brands);
                let req = base.param("brand_id", brand).param("bump_views", bump);
                (req, bump, None)
            }
            // ~67% of action-index calls touch the user's action.
            "actions/index" => {
                let touch = self.rng.gen_range(0..100) < 67;
                (base.param("touch", touch), touch, None)
            }
            // Completes the user's action: +10 points, an activity log
            // row, and a brand bump on ~46% of calls.
            "actions/update" => {
                let bump = self.rng.gen_range(0..100) < 46;
                let points = self.points.get_mut(&user).expect("own user");
                *points += 10;
                let req = base
                    .param("action_id", self.action_of[&user])
                    .param("bump_brand", bump);
                (req, true, Some((user, *points)))
            }
            _ => (base, false, None),
        };
        OpSpec {
            controller,
            request,
            write,
            expect,
        }
    }
}

// ------------------------------------------------------------ feed_durable

/// The feed's WAL fsync policy: the broker default.
pub const FEED_FSYNC: FsyncPolicy = FsyncPolicy::Interval(64);

const FEED_FIELDS: [&str; 3] = ["seq", "author", "body"];

fn feed_body(seq: u64) -> String {
    format!("post {seq}: {}", "lorem ipsum dolor sit amet ".repeat(4))
}

fn setup_feed(
    scale: &Scale,
    seed: u64,
    work_dir: &Path,
    setup: usize,
    trace: bool,
) -> Result<Env, String> {
    let dir = work_dir.join(format!("wal-{}-{setup}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut wal = WalConfig::new(&dir);
    wal.fsync = FEED_FSYNC;
    let (eco, _) = Ecosystem::new_durable(wal).map_err(|e| format!("open WAL: {e}"))?;
    let publisher = eco.add_node(
        SynapseConfig::new("feed").publisher_mode(DeliveryMode::Global),
        traced(
            MongoidAdapter::new("mongodb", LatencyModel::off()),
            Side::Publisher,
        ),
    );
    publisher
        .orm()
        .define_model(ModelSchema::open("Post"))
        .map_err(|e| e.to_string())?;
    publisher
        .publish(Publication::model("Post").fields(&FEED_FIELDS))
        .map_err(|e| e.to_string())?;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xFEED);
    for seq in 1..=scale.feed_rows as u64 {
        publisher
            .orm()
            .create(
                "Post",
                vmap! { "seq" => seq, "author" => rng.gen_range(1..=500u64), "body" => feed_body(seq) },
            )
            .map_err(|e| format!("seed post: {e}"))?;
    }
    // The timeline joins after the posts exist and copies them all.
    let timeline = eco.add_node(
        SynapseConfig::new("timeline").subscriber_mode(DeliveryMode::Global),
        traced(
            ActiveRecordAdapter::new("postgresql", LatencyModel::off()),
            Side::Subscriber,
        ),
    );
    timeline
        .orm()
        .define_model(
            ModelSchema::new("Post")
                .field("seq")
                .field("author")
                .field("body"),
        )
        .map_err(|e| e.to_string())?;
    timeline
        .subscribe(Subscription::model("Post", "feed").fields(&FEED_FIELDS))
        .map_err(|e| e.to_string())?;
    ensure_connected(&eco)?;
    let probe = Arc::new(Probe::new(1));
    probe_model(&timeline, "Post", &probe, 0, |r| {
        let seq = int_field(r, "seq")?;
        Some((seq, seq))
    });
    let setup_bootstrap = Some(join(&timeline, &publisher, trace)?);
    let subscribers = vec![timeline];
    drain_all(&subscribers, Duration::from_secs(60))?;

    let app = App::new(publisher);
    app.controller("posts/create", |app, req| {
        let post = app.orm().create(
            "Post",
            vmap! {
                "seq" => req.get("seq").clone(),
                "author" => req.get("author").clone(),
                "body" => req.get("body").clone(),
            },
        )?;
        Ok(Value::from(post.id.raw()))
    });
    let first = scale.feed_rows as u64 + 1;
    let streams = (0..STREAMS)
        .map(|lane| {
            Box::new(FeedStream {
                rng: SmallRng::seed_from_u64(seed ^ (0xFEED0 + lane as u64)),
                next_seq: first + lane as u64,
            }) as Box<dyn Stream>
        })
        .collect();
    Ok(Env {
        eco,
        app,
        subscribers,
        probe,
        probed: vec![Probed {
            name: "timeline".into(),
            mode: ModeSlice::Global,
        }],
        streams,
        setup_bootstrap,
        fresh: None,
        wal_dir: Some(dir),
        fsync: Some(FEED_FSYNC),
    })
}

struct FeedStream {
    rng: SmallRng,
    next_seq: u64,
}

impl Stream for FeedStream {
    fn next(&mut self) -> OpSpec {
        let seq = self.next_seq;
        self.next_seq += STREAMS as u64;
        let request = Request::anonymous()
            .param("seq", seq)
            .param("author", self.rng.gen_range(1..=500u64))
            .param("body", feed_body(seq));
        OpSpec {
            controller: "posts/create",
            request,
            write: true,
            expect: Some((seq, seq)),
        }
    }
}

// ---------------------------------------------------------- bootstrap_live

fn item_schema() -> ModelSchema {
    ModelSchema::new("Item").field("rev").field("body")
}

fn setup_bootstrap_live(scale: &Scale, seed: u64) -> Result<Env, String> {
    let eco = Ecosystem::new();
    let publisher = eco.add_node(
        SynapseConfig::new("catalog"),
        traced(
            ActiveRecordAdapter::new("postgresql", LatencyModel::off()),
            Side::Publisher,
        ),
    );
    publisher
        .orm()
        .define_model(item_schema())
        .map_err(|e| e.to_string())?;
    publisher
        .publish(Publication::model("Item").fields(&["rev", "body"]))
        .map_err(|e| e.to_string())?;
    for i in 0..scale.boot_rows {
        publisher
            .orm()
            .create("Item", vmap! { "rev" => 0, "body" => format!("item-{i}") })
            .map_err(|e| format!("seed item: {e}"))?;
    }
    // The replica joins after the rows exist: its queue starts empty and
    // its bootstrap copies every row.
    let replica = eco.add_node(
        SynapseConfig::new("replica"),
        traced(
            ActiveRecordAdapter::new("postgresql", LatencyModel::off()),
            Side::Subscriber,
        ),
    );
    replica
        .orm()
        .define_model(item_schema())
        .map_err(|e| e.to_string())?;
    replica
        .subscribe(Subscription::model("Item", "catalog").fields(&["rev", "body"]))
        .map_err(|e| e.to_string())?;
    ensure_connected(&eco)?;
    let probe = Arc::new(Probe::new(1));
    probe_model(&replica, "Item", &probe, 0, |r| {
        Some((r.id.raw(), int_field(r, "rev")?))
    });

    let app = App::new(publisher);
    app.controller("items/update", |app, req| {
        let id = Id(req.get("id").as_int().unwrap_or(0) as u64);
        app.orm()
            .update("Item", id, vmap! { "rev" => req.get("rev").clone() })?;
        Ok(Value::Null)
    });
    let rows = scale.boot_rows as u64;
    let streams = (0..STREAMS)
        .map(|lane| {
            Box::new(ItemStream {
                rng: SmallRng::seed_from_u64(seed ^ (0xB007 + lane as u64)),
                lane: lane as u64,
                rows,
                issued: 0,
            }) as Box<dyn Stream>
        })
        .collect();
    Ok(Env {
        eco,
        app,
        subscribers: vec![replica.clone()],
        probe,
        probed: vec![Probed {
            name: "replica".into(),
            mode: ModeSlice::Causal,
        }],
        streams,
        setup_bootstrap: None,
        fresh: Some(replica),
        wal_dir: None,
        fsync: None,
    })
}

struct ItemStream {
    rng: SmallRng,
    lane: u64,
    rows: u64,
    issued: u64,
}

impl Stream for ItemStream {
    fn next(&mut self) -> OpSpec {
        // This stream owns the rows with id % STREAMS == lane (ids start
        // at 1): first, first + STREAMS, ...
        let first = if self.lane == 0 {
            STREAMS as u64
        } else {
            self.lane
        };
        let owned = (self.rows.saturating_sub(first) / STREAMS as u64 + 1).max(1);
        let id = first + self.rng.gen_range(0..owned) * STREAMS as u64;
        self.issued += 1;
        // Revisions only grow within a stream, and a stream owns its rows.
        let rev = self.issued * STREAMS as u64 + self.lane;
        OpSpec {
            controller: "items/update",
            request: Request::anonymous().param("id", id).param("rev", rev),
            write: true,
            expect: Some((id, rev)),
        }
    }
}
