//! The named workloads, and every input derived from `--seed`.
//!
//! The seed fixes the catalog, the published events and the churn
//! expressions; the system under test only ever sees the rendered lines.

use apcm_bexpr::{Event, Schema, SubId, Subscription};
use apcm_workload::WorkloadSpec;

/// Schema shape, identical to `apcm serve`'s defaults (passed explicitly).
pub const DIMS: usize = 20;
pub const CARDINALITY: u64 = 1000;
/// Events per `BATCH` frame: the broker's default OSR window
/// (`ServerConfig::default().window`).
pub const WINDOW: usize = 128;
/// `BATCH` frames kept in flight by the closed loop.
pub const IN_FLIGHT: usize = 4;
/// Per-connection outbound queue of the router on `Routed` (`apcm route
/// --queue`), in lines, and the most notifications the closed loop leaves
/// unread on the subscriber connection. The default queue (1024) is
/// smaller than the notifications one 128-event window sends that
/// connection on some seeds (650 to 1320 over seeds 1-8, 107, 1000), and
/// the router drops the excess even when the subscriber keeps reading;
/// this queue holds `IN_FLIGHT` such windows.
pub const SUBSCRIBER_QUEUE: usize = 8192;
/// Churned subscriptions use ids from here up, clear of the catalog.
pub const CHURN_ID_BASE: u32 = 10_000_000;
/// Upper bound on churn operations one phase can issue (pre-rendered).
const CHURN_OPS_PER_SEC_MAX: f64 = 60_000.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// One `apcm serve`, catalog recovered from a colstore snapshot.
    Direct,
    /// `apcm route` over three non-durable `apcm serve` backends, catalog
    /// subscribed through the router.
    Routed,
    /// `apcm route` over one durable primary with one follower, catalog
    /// recovered by the primary from a snapshot and bootstrapped by the
    /// follower over replication.
    Chain,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub topology: Topology,
    /// Base catalog size.
    pub catalog: usize,
    /// Attributes per published event (fewer attributes, fewer matches).
    pub event_size: usize,
    /// Distinct events published, cycled; every one is checked against
    /// the sequential-scan oracle, so this bounds oracle time.
    pub pool: usize,
    /// Fixed offered rate of the open-loop single-`PUB` phase, events/s.
    pub open_rate: f64,
    /// Churned subscriptions kept live by the churn loop.
    pub churn_live: usize,
    /// Churn commands the churn loop keeps outstanding: enough that the
    /// rate is set by the brokers' work rather than by each round trip's
    /// wake-ups. Behind a router, whose connection reader waits on the
    /// backend for each command, a deeper queue only adds waiting.
    pub churn_in_flight: usize,
    /// A run whose open-loop sends were later than this at p99 is invalid.
    /// A late send adds its lateness to that event's latency, so the bound
    /// sits well below the workload's `result_p50_ms`.
    pub lateness_bound_ms: f64,
    /// Independent set-ups per run; each is measured for its share of
    /// `--seconds` and every metric is the mean over the middle half of
    /// them.
    pub setups: usize,
    /// Shares of a set-up's time for the closed-loop publish phase and the
    /// open-loop phase; the churn phase gets the rest, except on `Chain`
    /// where churn runs alongside the open loop.
    pub closed_share: f64,
    pub open_share: f64,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "match-direct",
        why: "200k-sub catalog recovered from a colstore snapshot, no owners, ~4 matches/event: \
              matching and recovery do the work; open loop at 2000 ev/s shows OSR window fill",
        topology: Topology::Direct,
        catalog: 200_000,
        event_size: 6,
        pool: 512,
        open_rate: 2000.0,
        churn_live: 500,
        churn_in_flight: 32,
        lateness_bound_ms: 30.0,
        setups: 6,
        // Churn is a side phase here, but the direct broker's churn rate
        // varies most from one moment to the next, so it gets the largest
        // share; the open loop's p50 is steady on half a second a set-up.
        closed_share: 0.3,
        open_share: 0.15,
    },
    Workload {
        name: "fanout-routed",
        why: "router over 3 backends, 20k subs owned by a drained subscriber connection, \
              ~7 matches/event: scatter/gather, EVENT render and queues do the work; open loop 100 ev/s",
        topology: Topology::Routed,
        catalog: 20_000,
        event_size: 15,
        pool: 2048,
        open_rate: 100.0,
        churn_live: 500,
        churn_in_flight: 8,
        lateness_bound_ms: 10.0,
        setups: 5,
        // The closed loop's rate varies most here; the open loop's p50 is
        // steady on 140 reads a set-up.
        closed_share: 0.45,
        open_share: 0.35,
    },
    Workload {
        name: "churn-chain",
        why: "router over a durable primary+follower, 20k base subs: closed-loop SUB/UNSUB \
              (persist, replication, shard upkeep) beside open-loop reads at 100 ev/s",
        topology: Topology::Chain,
        catalog: 20_000,
        event_size: 15,
        pool: 2048,
        open_rate: 100.0,
        churn_live: 1000,
        churn_in_flight: 8,
        lateness_bound_ms: 10.0,
        setups: 5,
        closed_share: 0.25,
        open_share: 0.75,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Catalog and pool size at a scale factor (the self-test runs tiny).
    pub fn scaled(&self, scale: f64) -> (usize, usize) {
        let catalog = ((self.catalog as f64 * scale) as usize).max(200);
        let pool = ((self.pool as f64 * scale.sqrt()) as usize / WINDOW).max(2) * WINDOW;
        (catalog, pool)
    }
}

/// Every input of one run, rendered before anything is timed.
pub struct Inputs {
    pub schema: Schema,
    pub catalog: Vec<Subscription>,
    /// Distinct published events and their canonical wire text.
    pub pool: Vec<Event>,
    pub pool_text: Vec<String>,
    /// One `BATCH` frame per distinct window: window `d` carries pool
    /// events `d*WINDOW .. (d+1)*WINDOW`.
    pub batch_frames: Vec<Vec<u8>>,
    /// `PUB <event>\n` per pool event.
    pub pub_lines: Vec<Vec<u8>>,
    /// `SUB <id> <expr>\n` per catalog entry (routed catalog load).
    pub catalog_lines: Vec<Vec<u8>>,
    /// Churn expressions, ids `CHURN_ID_BASE + i`, and their wire lines.
    pub churn: Vec<Subscription>,
    pub churn_sub_lines: Vec<Vec<u8>>,
    pub churn_unsub_lines: Vec<Vec<u8>>,
}

impl Inputs {
    pub fn generate(w: &Workload, seed: u64, scale: f64, seconds: f64) -> Inputs {
        let (n_catalog, n_pool) = w.scaled(scale);
        let spec = WorkloadSpec::new(n_catalog)
            .dims(DIMS)
            .cardinality(CARDINALITY)
            .event_size(w.event_size)
            .seed(seed);
        let generated = spec.build();
        let schema = generated.schema.clone();
        let pool = generated.events(n_pool);
        let pool_text: Vec<String> = pool
            .iter()
            .map(|e| e.display(&schema).to_string())
            .collect();
        let batch_frames = pool_text
            .chunks(WINDOW)
            .map(|chunk| {
                let mut frame = format!("BATCH {}\n", chunk.len()).into_bytes();
                for text in chunk {
                    frame.extend_from_slice(text.as_bytes());
                    frame.push(b'\n');
                }
                frame
            })
            .collect();
        let pub_lines = pool_text
            .iter()
            .map(|t| format!("PUB {t}\n").into_bytes())
            .collect();
        let catalog = generated.subs;
        let catalog_lines = catalog
            .iter()
            .map(|s| format!("SUB {} {}\n", s.id().0, s.display(&schema)).into_bytes())
            .collect();

        // Every set-up churns the same expressions from the first one on.
        let churn_phase = seconds / w.setups as f64 * (1.0 - w.closed_share);
        let n_churn = w.churn_live + (CHURN_OPS_PER_SEC_MAX * churn_phase / 2.0) as usize;
        let churn: Vec<Subscription> = WorkloadSpec::new(n_churn)
            .dims(DIMS)
            .cardinality(CARDINALITY)
            .event_size(w.event_size)
            .seed(seed ^ 0x00C4_0A11_5EED)
            .build()
            .subs
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                Subscription::new(SubId(CHURN_ID_BASE + i as u32), s.predicates().to_vec())
                    .expect("re-identified generated subscription stays valid")
            })
            .collect();
        let churn_sub_lines = churn
            .iter()
            .map(|s| format!("SUB {} {}\n", s.id().0, s.display(&schema)).into_bytes())
            .collect();
        let churn_unsub_lines = churn
            .iter()
            .map(|s| format!("UNSUB {}\n", s.id().0).into_bytes())
            .collect();
        Inputs {
            schema,
            catalog,
            pool,
            pool_text,
            batch_frames,
            pub_lines,
            catalog_lines,
            churn,
            churn_sub_lines,
            churn_unsub_lines,
        }
    }

    pub fn distinct_windows(&self) -> usize {
        self.batch_frames.len()
    }
}
