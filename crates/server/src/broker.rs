//! TCP broker: connection serving, result delivery, background
//! maintenance, and graceful shutdown, with no async runtime.
//!
//! The listener and every client connection are served by the
//! `apcm-netio` readiness loop — a fixed worker pool multiplexing
//! epoll-driven reads, byte-capped line framing, bounded per-connection
//! outbound queues flushed on `EPOLLOUT` (the slow-consumer boundary),
//! and a timer wheel for idle reaping, with the maintenance sweep riding
//! the loop's tick hook. Thread count is O(workers), not O(connections),
//! so tens of thousands of mostly-idle subscribers fit in one pool.
//! Every inbound line goes through one dispatcher
//! ([`crate::request::on_conn_line`]). The **matcher** thread inside
//! [`IngestPipeline`] and the outbound replication/reshard pullers
//! ([`StreamFollower`]) are dedicated threads.
//!
//! Subscriptions are durable within a run: a closed connection keeps its
//! subscriptions live (notifications for them are silently discarded until
//! another connection re-subscribes or unsubscribes the ids). With
//! `ServerConfig::persist` set they are durable across runs too — churn is
//! acknowledged only after it reaches the append log, and startup restores
//! the snapshot + log into the engine before the listener opens.
//!
//! Inbound hardening: every protocol line is read through a byte-capped
//! reader (`max_line_bytes`) — an oversized line is discarded up to its
//! newline and answered with a structured `-ERR`, never buffered
//! unboundedly. Connections silent for longer than `idle_timeout` are
//! reaped by the loop's timer wheel.

use apcm_bexpr::{Schema, SubId, Subscription};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::client::{connect_stream, ConnectOptions};
use crate::config::{ServerConfig, SlowConsumerPolicy};
use crate::event_broker::BrokerService;
use crate::ingest::{IngestItem, IngestPipeline, ResultSink};
use crate::persist::log::{parse_frame, ReplayOp, ReplayRecord};
use crate::persist::{Persister, RecoveryReport};
use crate::protocol::{self, ReplicateStart};
use crate::replication::{Role, RoleState};
use crate::request::ConnCtx;
use crate::ring::RingScope;
use crate::shard::ShardedEngine;
use crate::stats::ServerStats;

/// Compact fingerprint of a subscription's expression, used to decide
/// whether a duplicate `SUB` is a reconnect offering the byte-identical
/// expression (ownership takeover) or a genuinely conflicting id. The
/// parser normalizes predicate order, so two byte-identical protocol lines
/// always fingerprint equal.
pub(crate) fn sub_fingerprint(sub: &Subscription) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    sub.hash(&mut h);
    h.finish()
}

/// State shared by every thread: the event loop's handle and
/// subscription ownership, plus delivery policy. Doubles as the ingest
/// pipeline's [`ResultSink`].
pub(crate) struct Hub {
    pub(crate) schema: Schema,
    pub(crate) stats: Arc<ServerStats>,
    policy: SlowConsumerPolicy,
    /// The event loop's handle, through which every outbound line
    /// reaches its connection. A `OnceLock` because the hub must exist
    /// (the ingest pipeline sinks into it) before the loop — which needs
    /// the hub via its service — can start.
    pub(crate) delivery: OnceLock<Arc<apcm_netio::LoopHandle>>,
    /// Which connection owns (receives `EVENT` notifications for) each id.
    pub(crate) owners: RwLock<HashMap<SubId, u64>>,
    /// Fingerprint of every live subscription's expression (seeded from
    /// recovery, maintained by SUB/UNSUB). Backs `CLAIM` liveness checks
    /// and identical-expression takeover without cloning expressions.
    pub(crate) live: RwLock<HashMap<SubId, u64>>,
    /// Ring ownership filter installed by `RESHARD PRUNE`: churn for ids
    /// the scope does not own is refused with `-ERR not owner <id>`.
    /// `None` (the default, and the state after a restart) accepts
    /// everything — the filter is a migration-era safety net against
    /// stale-routed churn, re-installed idempotently by the router's
    /// migration controller, not the source of routing truth.
    pub(crate) ownership: RwLock<Option<RingScope>>,
}

impl Hub {
    /// Queues `line` on a connection's outbound queue, applying the
    /// slow-consumer policy on overflow. Unknown connections (already
    /// closed) discard silently.
    pub(crate) fn push_line(&self, conn_id: u64, line: String) {
        let Some(handle) = self.delivery.get() else {
            return;
        };
        match handle.try_send(conn_id, line) {
            apcm_netio::SendOutcome::Sent => {
                ServerStats::add(&self.stats.replies_sent, 1);
            }
            apcm_netio::SendOutcome::Full => match self.policy {
                SlowConsumerPolicy::Drop => {
                    ServerStats::add(&self.stats.replies_dropped, 1);
                }
                SlowConsumerPolicy::Disconnect => {
                    ServerStats::add(&self.stats.slow_disconnects, 1);
                    handle.kick(conn_id);
                }
            },
            apcm_netio::SendOutcome::Gone => {}
        }
    }

    /// Event-loop gauges for `STATS` rendering, in the order
    /// [`ServerStats::render`] expects: `(connections_open,
    /// epoll_wakeups, outbound_queued_lines, conns_rejected)`. All zero
    /// until the loop has started.
    pub(crate) fn netio_gauges(&self) -> (u64, u64, u64, u64) {
        self.delivery.get().map_or((0, 0, 0, 0), |handle| {
            let m = handle.metrics();
            (
                m.connections_open.load(Ordering::Relaxed),
                m.epoll_wakeups.load(Ordering::Relaxed),
                m.outbound_queued_lines.load(Ordering::Relaxed),
                m.conns_rejected.load(Ordering::Relaxed),
            )
        })
    }
}

impl ResultSink for Hub {
    fn on_window(&self, items: &[IngestItem], rows: &[Vec<SubId>]) {
        for (item, row) in items.iter().zip(rows) {
            self.push_line(item.conn, protocol::render_result(item.seq, row));
            for &id in row {
                let owner = self.owners.read().get(&id).copied();
                if let Some(owner) = owner {
                    self.push_line(
                        owner,
                        protocol::render_event_notification(id, &item.event, &self.schema),
                    );
                }
            }
        }
    }
}

/// Outcome of one capped line read.
pub enum LineOutcome {
    /// A complete line (newline stripped) is in the caller's buffer.
    Line,
    /// The line exceeded the cap; it was discarded through its newline.
    TooLong,
    Eof,
}

/// Reads one `\n`-terminated line into `line`, refusing to buffer more
/// than `max` bytes: once a line overflows, the remainder is consumed and
/// discarded until its newline and `TooLong` is returned. Works on
/// `fill_buf`/`consume` so no input byte is ever lost or double-read. A
/// final unterminated line at EOF is returned as a normal line.
///
/// Public so the cluster router (`apcm-cluster`) applies the same inbound
/// hardening to its client connections.
pub fn read_capped_line(
    reader: &mut impl BufRead,
    line: &mut String,
    max: usize,
) -> std::io::Result<LineOutcome> {
    line.clear();
    let mut buf: Vec<u8> = Vec::new();
    let mut overflowed = false;
    loop {
        let available = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(if overflowed {
                LineOutcome::TooLong
            } else if buf.is_empty() {
                LineOutcome::Eof
            } else {
                *line = String::from_utf8_lossy(&buf).into_owned();
                LineOutcome::Line
            });
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if !overflowed && buf.len() + pos <= max {
                    buf.extend_from_slice(&available[..pos]);
                } else {
                    overflowed = true;
                }
                reader.consume(pos + 1);
                return Ok(if overflowed {
                    LineOutcome::TooLong
                } else {
                    *line = String::from_utf8_lossy(&buf).into_owned();
                    LineOutcome::Line
                });
            }
            None => {
                let n = available.len();
                if !overflowed && buf.len() + n <= max {
                    buf.extend_from_slice(available);
                } else {
                    overflowed = true;
                    buf.clear();
                }
                reader.consume(n);
            }
        }
    }
}

/// A running broker. Dropping without calling [`Server::shutdown`] aborts
/// connections ungracefully; call `shutdown` for an orderly stop.
pub struct Server {
    hub: Arc<Hub>,
    engine: Arc<ShardedEngine>,
    persist: Option<Arc<Persister>>,
    stats: Arc<ServerStats>,
    role: Arc<RoleState>,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    /// Stream followers and offloaded blocking requests; joined
    /// at teardown.
    helper_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    pipeline: Option<IngestPipeline>,
    event_loop: Option<apcm_netio::EventLoop>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts all
    /// background threads. With `config.persist` set, recovery (snapshot
    /// load + log replay + engine restore) completes before the listener
    /// accepts its first connection.
    pub fn start(schema: Schema, config: ServerConfig, addr: &str) -> std::io::Result<Server> {
        config
            .validate()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        let engine =
            Arc::new(ShardedEngine::new(&schema, &config).map_err(|e| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string())
            })?);
        let stats = Arc::new(ServerStats::default());

        let mut recovered_live: HashMap<SubId, u64> = HashMap::new();
        let persist = match &config.persist {
            Some(pconfig) => {
                let (persister, restored) = Persister::open(
                    pconfig.clone(),
                    schema.clone(),
                    stats.clone(),
                    config.shards,
                )?;
                engine.bulk_restore(&restored).map_err(|e| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
                })?;
                // Recovered subscriptions have no owning connection yet;
                // seeding their fingerprints is what lets a reconnecting
                // client CLAIM them (or re-SUB the identical expression).
                recovered_live = restored
                    .iter()
                    .map(|sub| (sub.id(), sub_fingerprint(sub)))
                    .collect();
                Some(Arc::new(persister))
            }
            None => None,
        };

        let hub = Arc::new(Hub {
            schema,
            stats: stats.clone(),
            policy: config.slow_consumer,
            delivery: OnceLock::new(),
            owners: RwLock::new(HashMap::new()),
            live: RwLock::new(recovered_live),
            ownership: RwLock::new(None),
        });
        let pipeline = IngestPipeline::start(engine.clone(), stats.clone(), hub.clone(), &config);

        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let helper_threads = Arc::new(Mutex::new(Vec::new()));

        let role = Arc::new(RoleState::new(match &config.replica_of {
            Some(primary) => Role::Replica {
                primary: primary.clone(),
            },
            None => Role::Primary,
        }));
        stats
            .role_replica
            .store(u64::from(config.replica_of.is_some()), Ordering::Relaxed);
        let follower = persist.as_ref().map(|persist| {
            Arc::new(StreamFollower {
                hub: hub.clone(),
                engine: engine.clone(),
                persist: persist.clone(),
                role: role.clone(),
                shutdown: shutdown.clone(),
                helper_threads: helper_threads.clone(),
                ack_every: config.repl_ack_every,
                pull_generation: AtomicU64::new(0),
                target: Mutex::new(None),
                cursor: AtomicU64::new(0),
                pull_connected: AtomicU64::new(0),
            })
        });
        if config.replica_of.is_some() {
            // Replica mode requires persistence (validated above), so the
            // follower exists; pull from the configured primary right away.
            follower
                .as_ref()
                .expect("replica mode requires persistence")
                .follow_primary(role.generation());
        }

        let ctx = ConnCtx {
            hub: hub.clone(),
            engine: engine.clone(),
            persist: persist.clone(),
            ingest: pipeline.sender(),
            ingest_depth: pipeline.depth_handle(),
            max_line_bytes: config.max_line_bytes,
            role: role.clone(),
            follower,
            helper_threads: helper_threads.clone(),
        };
        let options = apcm_netio::LoopOptions {
            workers: config
                .loop_workers
                .unwrap_or_else(apcm_netio::default_workers),
            conn_queue: config.conn_queue,
            max_line_bytes: config.max_line_bytes,
            idle_timeout: config.idle_timeout,
            max_conns: config.max_conns,
            reject_line: Some("-ERR server busy".into()),
            tick_interval: Some(config.maintenance_interval),
            read_chunk: 64 * 1024,
        };
        let event_loop =
            apcm_netio::EventLoop::start(listener, Arc::new(BrokerService::new(ctx)), options)?;
        let _ = hub.delivery.set(event_loop.handle());

        Ok(Server {
            hub,
            engine,
            persist,
            stats,
            role,
            addr: local_addr,
            shutdown,
            helper_threads,
            pipeline: Some(pipeline),
            event_loop: Some(event_loop),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    pub fn engine(&self) -> &ShardedEngine {
        &self.engine
    }

    /// What startup recovery found; `None` without persistence.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.persist.as_ref().map(|p| p.recovery_report())
    }

    /// The server's current role (dynamic: `PROMOTE`/`DEMOTE` flip it).
    pub fn role(&self) -> Role {
        self.role.role()
    }

    /// Highest durable churn sequence; 0 without persistence.
    pub fn current_seq(&self) -> u64 {
        self.persist.as_ref().map(|p| p.current_seq()).unwrap_or(0)
    }

    /// Forces a full snapshot + log rotation (the `SNAPSHOT` verb's
    /// in-process equivalent). Errors without persistence.
    pub fn snapshot(&self) -> std::io::Result<crate::persist::SnapshotOutcome> {
        match &self.persist {
            Some(p) => p.snapshot(),
            None => Err(std::io::Error::other("persistence disabled")),
        }
    }

    /// Background-style snapshot pass: writes a delta when the colstore
    /// chain permits one, a full otherwise. Errors without persistence.
    pub fn snapshot_incremental(&self) -> std::io::Result<crate::persist::SnapshotOutcome> {
        match &self.persist {
            Some(p) => p.snapshot_incremental(),
            None => Err(std::io::Error::other("persistence disabled")),
        }
    }

    /// Stops threads and closes sockets; shared by the graceful and
    /// abortive paths. Returns the residual ingest queue depth.
    fn teardown(&mut self) -> usize {
        self.shutdown.store(true, Ordering::SeqCst);

        // Closes every connection, joins the worker pool, and drops the
        // service — releasing its ingest sender so the matcher below can
        // drain to completion.
        if let Some(el) = self.event_loop.take() {
            el.shutdown();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.helper_threads.lock());
        for t in handles {
            let _ = t.join();
        }
        // All publisher senders are gone; the matcher drains and exits.
        self.pipeline
            .take()
            .map(|p| {
                let d = p.depth();
                p.shutdown();
                d
            })
            .unwrap_or(0)
    }

    /// Graceful shutdown: stop accepting, close every connection, join all
    /// worker threads, drain the ingest pipeline, flush the durable log,
    /// and return the final rendered stats. Bounded: sockets are shut down
    /// before joining, so no thread is left blocked on I/O.
    pub fn shutdown(mut self) -> String {
        let depth = self.teardown();
        if let Some(persister) = &self.persist {
            persister.flush();
        }
        let mut out = self.stats.render(
            &self.engine.per_shard_len(),
            depth,
            self.engine.kernel_counters(),
            (
                self.engine.summary_epoch(),
                self.engine.summary_bits_set() as u64,
                self.engine.summary_rebuilds(),
            ),
            self.hub.netio_gauges(),
        );
        out.push_str(&format!("engine {}\n", self.engine.engine_name()));
        out.push_str(&format!("shards {}\n", self.engine.shard_count()));
        out
    }

    /// Abortive stop for crash tests: threads are joined (no leaked
    /// resources in-process) but the durable log is **not** flushed and no
    /// final snapshot is taken — on-disk state is exactly what the write
    /// path had produced at the moment of the "crash".
    pub fn abort(mut self) {
        let _ = self.teardown();
    }
}

/// What a `RESHARD PULL` told us to migrate: the donor to dial, the ring
/// subset to keep out of its catalog, and (optionally) the donor's
/// old-ring ownership, which bounds the bootstrap reconcile.
#[derive(Clone)]
struct PullTarget {
    source: String,
    scope: RingScope,
    donor: Option<RingScope>,
}

/// What one follower thread tails, and how it applies what it reads.
/// Each policy is tagged with the generation it was spawned for; a thread
/// whose generation moved on notices and exits, so `PROMOTE`, `DEMOTE`,
/// `RESHARD PULL` and `RESHARD CUTOFF` need no extra signalling.
enum Policy {
    /// Replication from the role's primary. The node mirrors the
    /// primary's log verbatim (donor seqs), a bootstrap replaces its
    /// catalog wholesale, and a `truncate` answer rewinds it locally.
    Replica { generation: u64 },
    /// The receiving side of a live partition migration. The node stays a
    /// normal primary throughout: owned frames are applied through the
    /// **local** churn path (local seqs), so the donor's seq domain never
    /// enters this node's log. Progress is a **source-seq cursor**,
    /// advanced across *every* streamed frame — owned or not — so the
    /// `REPLACK`s stay comparable with the donor's log seq, which the
    /// router's double-write floor handshake relies on. A bootstrap is
    /// additive: the node keeps serving its existing catalog.
    Pull { generation: u64, target: PullTarget },
}

/// One connected upstream stream.
struct Link {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// A line a read timeout interrupted part-way.
    pending: String,
}

impl Link {
    fn ack(&mut self, seq: u64) -> Option<()> {
        self.writer
            .write_all(format!("REPLACK {seq}\n").as_bytes())
            .ok()
    }
}

/// Keeps this node's catalog in step with an upstream's churn log: a
/// puller thread dials the upstream, performs the `REPLICATE` handshake,
/// collects any bootstrap image, and applies the streamed frames. One
/// follower exists per server (when persistence is on); replication
/// (`replica_of`, `DEMOTE`) and migration (`RESHARD PULL`) each spawn
/// threads on it under their own [`Policy`].
pub(crate) struct StreamFollower {
    hub: Arc<Hub>,
    engine: Arc<ShardedEngine>,
    persist: Arc<Persister>,
    role: Arc<RoleState>,
    shutdown: Arc<AtomicBool>,
    helper_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    ack_every: u64,
    /// Bumped by every `PULL`/`CUTOFF`/`DEMOTE`; the pull counterpart of
    /// the role generation.
    pull_generation: AtomicU64,
    target: Mutex<Option<PullTarget>>,
    /// Highest donor-log seq a pull fully covered (bootstrap or frame).
    /// Stored, not maxed: a promoted standby can legitimately present
    /// fewer records than the dead donor had streamed. It survives
    /// re-`PULL`s that carry the same scope (a donor failover changes the
    /// address, not the leg), and is reset when the scope changes.
    pub(crate) cursor: AtomicU64,
    /// 1 while a pull stream is established (for `RESHARD STATUS`).
    pull_connected: AtomicU64,
}

impl StreamFollower {
    /// Starts replicating from the role's primary for role `generation`.
    pub(crate) fn follow_primary(self: &Arc<Self>, generation: u64) {
        self.spawn(Policy::Replica { generation });
    }

    /// Installs a (new or re-issued) pull target and starts a puller
    /// generation for it. Idempotent per leg: re-pulling the same scope —
    /// the router controller's repair action after either side dies —
    /// keeps the cursor and simply redials.
    pub(crate) fn start_pull(
        self: &Arc<Self>,
        source: String,
        scope: RingScope,
        donor: Option<RingScope>,
    ) {
        let mut target = self.target.lock();
        let same_leg = matches!(&*target, Some(t) if t.scope == scope && t.donor == donor);
        if !same_leg {
            self.cursor.store(0, Ordering::SeqCst);
        }
        let pull = PullTarget {
            source,
            scope,
            donor,
        };
        *target = Some(pull.clone());
        let generation = self.pull_generation.fetch_add(1, Ordering::SeqCst) + 1;
        drop(target);
        self.hub.stats.reshard_pulling.store(1, Ordering::Relaxed);
        self.spawn(Policy::Pull {
            generation,
            target: pull,
        });
    }

    /// `RESHARD CUTOFF` (or demotion): stop pulling. The applied catalog
    /// stays — cutoff means the migration controller decided this node
    /// now owns what it pulled.
    pub(crate) fn stop_pull(&self) {
        // Bump the generation while holding the target lock: frame
        // application takes the same lock and re-checks liveness, so once
        // this returns (and `RESHARD CUTOFF` is acked) no further frame —
        // in particular no donor-prune `UNSUB` racing down the stream —
        // can touch the catalog this node now owns.
        let mut target = self.target.lock();
        *target = None;
        self.pull_generation.fetch_add(1, Ordering::SeqCst);
        drop(target);
        self.pull_connected.store(0, Ordering::Relaxed);
        self.hub.stats.reshard_pulling.store(0, Ordering::Relaxed);
    }

    pub(crate) fn pull_status_line(&self) -> String {
        match &*self.target.lock() {
            Some(t) => format!(
                "+OK reshard pulling {} applied {} connected {}",
                t.source,
                self.cursor.load(Ordering::SeqCst),
                self.pull_connected.load(Ordering::Relaxed)
            ),
            None => "+OK reshard idle".into(),
        }
    }

    /// Starts a puller thread; the handle joins with the other helper
    /// threads at shutdown.
    fn spawn(self: &Arc<Self>, policy: Policy) {
        let name = match &policy {
            Policy::Replica { generation } => format!("apcm-replica-g{generation}"),
            Policy::Pull { generation, .. } => format!("apcm-reshard-g{generation}"),
        };
        let follower = self.clone();
        let handle = std::thread::Builder::new()
            .name(name)
            .spawn(move || follower.run(&policy))
            .expect("spawning stream follower");
        self.helper_threads.lock().push(handle);
    }

    /// Whether the thread running `policy` should keep going: the server
    /// is up and the policy's generation is still current.
    fn live(&self, policy: &Policy) -> bool {
        !self.shutdown.load(Ordering::SeqCst)
            && match policy {
                Policy::Replica { generation } => {
                    self.role.generation() == *generation && self.role.is_replica()
                }
                Policy::Pull { generation, .. } => {
                    self.pull_generation.load(Ordering::SeqCst) == *generation
                }
            }
    }

    /// The address to dial, or `None` once the thread is obsolete.
    fn upstream(&self, policy: &Policy) -> Option<String> {
        if !self.live(policy) {
            return None;
        }
        match policy {
            Policy::Replica { .. } => self.role.primary_addr(),
            Policy::Pull { target, .. } => Some(target.source.clone()),
        }
    }

    /// Stores the upstream seq this node has covered.
    fn record_progress(&self, policy: &Policy, seq: u64) {
        let stats = &self.hub.stats;
        match policy {
            Policy::Replica { .. } => stats.repl_applied_seq.store(seq, Ordering::Relaxed),
            Policy::Pull { .. } => {
                self.cursor.store(seq, Ordering::SeqCst);
                stats.reshard_pull_seq.store(seq, Ordering::Relaxed);
            }
        }
    }

    /// Dial/backoff loop: every return from [`Self::follow`] redials from
    /// the current progress, so every exit path is also the repair path.
    fn run(&self, policy: &Policy) {
        let stats = &self.hub.stats;
        let options = ConnectOptions {
            connect_timeout: Some(Duration::from_millis(500)),
            // Short read quanta keep shutdown/demotion latency bounded and
            // double as the keepalive-REPLACK cadence while idle.
            read_timeout: Some(Duration::from_millis(250)),
            attempts: 1,
            ..ConnectOptions::default()
        };
        let mut connected_before = false;
        let mut failures = 0u32;
        // Set when a truncate handshake's CRC probe failed: the next dial
        // sends a trailing `reset` to force the wholesale bootstrap.
        let mut force_reset = false;
        while let Some(upstream) = self.upstream(policy) {
            match connect_stream(&upstream, &options) {
                Ok(stream) => {
                    if connected_before && matches!(policy, Policy::Replica { .. }) {
                        ServerStats::add(&stats.repl_reconnects, 1);
                    }
                    connected_before = true;
                    failures = 0;
                    let _ = self.follow(policy, stream, &mut force_reset);
                    match policy {
                        Policy::Replica { .. } => &stats.repl_connected,
                        Policy::Pull { .. } => &self.pull_connected,
                    }
                    .store(0, Ordering::Relaxed);
                }
                Err(_) => {
                    failures = failures.saturating_add(1).min(8);
                    let deadline = Instant::now() + options.delay_before_retry(failures);
                    while Instant::now() < deadline {
                        if !self.live(policy) {
                            return;
                        }
                        std::thread::sleep(Duration::from_millis(20));
                    }
                }
            }
        }
    }

    /// One connected stint against the upstream: handshake, optional
    /// bootstrap or rewind, then the live frame tail. `None` is every
    /// reason to stop reading — the caller redials.
    fn follow(&self, policy: &Policy, stream: TcpStream, force_reset: &mut bool) -> Option<()> {
        let stats = &self.hub.stats;
        let mut link = Link {
            writer: stream.try_clone().ok()?,
            reader: BufReader::new(stream),
            pending: String::new(),
        };
        // A replica resumes from its own log head; `reset` (one-shot,
        // after a failed truncate CRC probe) forces the wholesale
        // bootstrap. A pull resumes from its source-seq cursor and scopes
        // the bootstrap to the ring subset it keeps.
        let (mut applied, suffix) = match policy {
            Policy::Replica { .. } => (
                self.persist.current_seq(),
                if std::mem::take(force_reset) {
                    " reset".to_string()
                } else {
                    String::new()
                },
            ),
            Policy::Pull { target, .. } => (
                self.cursor.load(Ordering::SeqCst),
                format!(
                    " ring {} {}",
                    target.scope.ring().to_csv(),
                    target.scope.keep_csv()
                ),
            ),
        };
        link.writer
            .write_all(format!("REPLICATE {applied}{suffix}\n").as_bytes())
            .ok()?;
        let header = self.next_line(policy, &mut link, applied)?;
        // `-ERR` (e.g. the peer lost persistence) or garbage: redial.
        let start = protocol::parse_replicate_header(&header).ok()?;
        if let Policy::Pull { .. } = policy {
            // A pull reports `connected` as soon as the stream is up: the
            // migration controller heals a pull that stays disconnected,
            // and a long bootstrap is not a disconnect.
            self.pull_connected.store(1, Ordering::Relaxed);
        }

        let reset_to = match start {
            ReplicateStart::Log { .. } => None,
            ReplicateStart::Colstore {
                blocks,
                subs: count,
                seq,
            } => {
                // Our log position is useless to the upstream (it predates
                // the retained log, or is ahead of it). Collect the whole
                // catalog image first; any damaged block poisons the
                // image, so abort and redial — the refetch starts from
                // scratch, skipping nothing — rather than install a
                // catalog with holes.
                let mut subs = Vec::with_capacity(count);
                for _ in 0..blocks {
                    let line = self.next_line(policy, &mut link, applied)?;
                    match protocol::parse_bootstrap_block(&line, &self.hub.schema) {
                        Ok(mut block) => subs.append(&mut block),
                        Err(_) => {
                            // Counted like a corrupt streamed frame.
                            ServerStats::add(&stats.repl_crc_skipped, 1);
                            return None;
                        }
                    }
                }
                if subs.len() != count {
                    ServerStats::add(&stats.repl_crc_skipped, 1);
                    return None;
                }
                self.install_bootstrap(policy, subs, seq)?;
                Some(seq)
            }
            ReplicateStart::Truncate { seq, crc } => {
                // Scoped pulls are never offered a truncate (the donor's
                // handshake gates it on an unscoped stream); treat one as
                // a protocol violation and redial.
                let Policy::Replica { .. } = policy else {
                    return None;
                };
                // Covered-suffix rewind: our history is ahead of the
                // primary's (an unacked suffix from an old promotion).
                // Verify our own frame at `seq` carries the CRC the
                // primary announced; a match proves the histories agree
                // up to `seq`, so the suffix can be discarded locally
                // with zero transferred state. A mismatch (or a missing
                // frame) means divergence — redial with `reset` for the
                // wholesale bootstrap.
                let rewound = (self.persist.local_frame_crc(seq) == Some(crc))
                    .then(|| self.persist.rewind_to(&self.engine, seq).ok())
                    .flatten();
                let Some(subs) = rewound else {
                    *force_reset = true;
                    return None;
                };
                self.swap_liveness(fingerprints(&subs));
                Some(seq)
            }
        };
        if let Some(seq) = reset_to {
            applied = seq;
            self.record_progress(policy, seq);
            link.ack(seq)?;
        }
        if let Policy::Replica { .. } = policy {
            // A replica flips its gauge only now that any bootstrap or
            // rewind has resolved: `connected 1` in its `ROLE` report
            // certifies "history reconciled with the upstream", which is
            // what the router's follower-read eligibility check leans on
            // — a returned ex-primary mid-bootstrap must not look
            // readable.
            stats.repl_connected.store(1, Ordering::Relaxed);
        }

        let mut since_ack = 0u64;
        loop {
            let line = self.next_line(policy, &mut link, applied)?;
            let Ok(record) = parse_frame(&line, &self.hub.schema) else {
                // A framed-but-corrupt record is never applied. Drop the
                // connection instead of skipping past it: the redial
                // refetches the record from the upstream's durable log,
                // so no hole survives wire corruption.
                ServerStats::add(&stats.repl_crc_skipped, 1);
                return None;
            };
            if record.seq <= applied {
                continue; // backlog/live overlap around the handshake
            }
            let advanced = self.apply_frame(policy, &line, &record)?;
            applied = record.seq;
            if !advanced {
                continue;
            }
            self.record_progress(policy, applied);
            since_ack += 1;
            // Pipelined acks: while more records are already readable on
            // the stream they will be applied in this same drain, so hold
            // the ack and send one line at the drain boundary —
            // `ack_every` caps how long a continuous burst can go
            // unacknowledged.
            if since_ack >= self.ack_every || !burst_continues(&mut link.reader) {
                if since_ack > 1 {
                    ServerStats::add(&stats.replacks_pipelined, 1);
                }
                since_ack = 0;
                link.ack(applied)?;
            }
        }
    }

    /// Installs a collected bootstrap image at upstream seq `seq`.
    fn install_bootstrap(
        &self,
        policy: &Policy,
        mut subs: Vec<Subscription>,
        seq: u64,
    ) -> Option<()> {
        match policy {
            Policy::Replica { .. } => {
                let fresh = fingerprints(&subs);
                self.persist
                    .bootstrap_replace(&self.engine, subs, seq)
                    .ok()?;
                self.swap_liveness(fresh);
                ServerStats::add(&self.hub.stats.repl_bootstraps, 1);
            }
            Policy::Pull { target, .. } => {
                // The donor filtered the image to our scope; re-filter
                // defensively.
                subs.retain(|s| target.scope.owns(s.id()));
                let image: HashSet<SubId> = subs.iter().map(|s| s.id()).collect();
                // Applied under the target lock with a liveness re-check:
                // a cutoff acked mid-bootstrap must not race a stale image
                // into the catalog the controller just took ownership of.
                let _guard = self.target.lock();
                if !self.live(policy) {
                    return None;
                }
                for sub in &subs {
                    self.apply_owned_sub(sub).ok()?;
                }
                // Reconcile: an owned id present locally but absent from
                // the donor's image was unsubscribed while we were
                // disconnected past the donor's log retention — drop it,
                // or it resurrects. Bounded by the donor's old-ring
                // scope: ids absorbed from *earlier* legs of the same
                // migration are owned by `scope` but were never this
                // donor's, and must survive.
                for id in self.persist.catalog_ids() {
                    let from_this_donor = target.donor.as_ref().is_none_or(|d| d.owns(id));
                    if target.scope.owns(id) && from_this_donor && !image.contains(&id) {
                        self.apply_owned_unsub(id).ok()?;
                    }
                }
            }
        }
        Some(())
    }

    /// Applies one streamed frame. `Some(true)` advances the progress
    /// cursor; `Some(false)` is a replica's already-applied seq (stream
    /// overlap after a reconnect); `None` drops the stream — local
    /// persistence is degraded (the redial retries the append rather
    /// than silently dropping churn) or a cutoff ended the pull.
    fn apply_frame(&self, policy: &Policy, line: &str, record: &ReplayRecord) -> Option<bool> {
        match policy {
            Policy::Replica { .. } => {
                let applied = self
                    .persist
                    .apply_replicated(&self.engine, line, record)
                    .ok()?;
                if applied {
                    match &record.op {
                        ReplayOp::Sub(sub) => {
                            self.hub.live.write().insert(sub.id(), sub_fingerprint(sub));
                        }
                        ReplayOp::Unsub(id) => {
                            self.hub.live.write().remove(id);
                            self.hub.owners.write().remove(id);
                        }
                    }
                }
                Some(applied)
            }
            Policy::Pull { target, .. } => {
                let id = match &record.op {
                    ReplayOp::Sub(sub) => sub.id(),
                    ReplayOp::Unsub(id) => *id,
                };
                // Frames outside the scope are skipped, but the cursor
                // still covers them — acking them is what keeps it
                // comparable with the donor's log seq.
                if target.scope.owns(id) {
                    // Lock-and-recheck against a concurrent `RESHARD
                    // CUTOFF`: once the cutoff is acked this node owns its
                    // catalog, and a frame already in flight — the donor
                    // prune's `UNSUB`s chief among them — must not be
                    // applied over it.
                    let _guard = self.target.lock();
                    if !self.live(policy) {
                        return None;
                    }
                    match &record.op {
                        ReplayOp::Sub(sub) => self.apply_owned_sub(sub),
                        ReplayOp::Unsub(id) => self.apply_owned_unsub(*id),
                    }
                    .ok()?;
                }
                Some(true)
            }
        }
    }

    /// Mirrors a wholesale catalog swap (bootstrap or rewind) in the hub,
    /// so `CLAIM` liveness and notification routing agree with what is
    /// actually matchable.
    fn swap_liveness(&self, fresh: HashMap<SubId, u64>) {
        self.hub
            .owners
            .write()
            .retain(|id, _| fresh.contains_key(id));
        *self.hub.live.write() = fresh;
    }

    /// Applies one owned subscription through the local churn path.
    /// Convergent: an already-present identical expression is a no-op, a
    /// conflicting expression under the same id (the donor's version
    /// wins — it is the owner of record during catch-up) is replaced.
    /// `Err` means local persistence is degraded; the caller drops the
    /// stream and the redial re-covers from the cursor.
    fn apply_owned_sub(&self, sub: &Subscription) -> Result<(), ()> {
        let fp = sub_fingerprint(sub);
        if self.hub.live.read().get(&sub.id()).copied() == Some(fp) {
            return Ok(());
        }
        match self.persist.apply_sub(&self.engine, sub) {
            Ok(Some(_)) => {}
            Ok(None) => {
                if self.persist.apply_unsub(&self.engine, sub.id()).is_err()
                    || self.persist.apply_sub(&self.engine, sub).is_err()
                {
                    return Err(());
                }
            }
            Err(_) => return Err(()),
        }
        self.hub.live.write().insert(sub.id(), fp);
        ServerStats::add(&self.hub.stats.reshard_pull_applied, 1);
        Ok(())
    }

    /// Removes one owned subscription through the local churn path.
    fn apply_owned_unsub(&self, id: SubId) -> Result<(), ()> {
        match self.persist.apply_unsub(&self.engine, id) {
            Ok(Some(_)) => {
                self.hub.live.write().remove(&id);
                self.hub.owners.write().remove(&id);
                ServerStats::add(&self.hub.stats.reshard_pull_applied, 1);
                Ok(())
            }
            Ok(None) => Ok(()),
            Err(_) => Err(()),
        }
    }

    /// Reads the next complete line, tolerating read-timeout ticks. Each
    /// idle tick re-checks the stop conditions and sends a keepalive
    /// `REPLACK` so the upstream's lag gauge stays fresh. `None` means the
    /// stream ended or this thread should stop.
    fn next_line(&self, policy: &Policy, link: &mut Link, applied: u64) -> Option<String> {
        loop {
            if !self.live(policy) {
                return None;
            }
            match link.reader.read_line(&mut link.pending) {
                Ok(0) => return None,
                Ok(_) => {
                    if link.pending.ends_with('\n') {
                        let line = link.pending.trim_end().to_string();
                        link.pending.clear();
                        return Some(line);
                    }
                    // Unterminated tail: EOF follows on the next read.
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    link.ack(applied)?;
                }
                Err(_) => return None,
            }
        }
    }
}

/// Expression fingerprints of a catalog image, keyed by id.
fn fingerprints(subs: &[Subscription]) -> HashMap<SubId, u64> {
    subs.iter()
        .map(|sub| (sub.id(), sub_fingerprint(sub)))
        .collect()
}

/// Whether the replication burst being drained continues: another frame
/// is already buffered, or the kernel socket buffer has more bytes ready
/// right now. The `BufReader` buffer alone is not a drain boundary — a
/// burst larger than one buffer fill (8KB default) looks "drained" at
/// every buffer edge, which would ack far more often than `ack_every`
/// intends — so when the buffer is quiet, peek the socket with a
/// momentary non-blocking fill: `WouldBlock` is the genuine boundary.
fn burst_continues(reader: &mut BufReader<TcpStream>) -> bool {
    if reader.buffer().contains(&b'\n') {
        return true;
    }
    // A non-empty buffer without a newline is a torn frame: its tail is
    // in flight, so the fill below reports the burst continuing (either
    // from fresh bytes or the buffered remainder) and the ack holds —
    // the idle keepalive still bounds how long that can last.
    if reader.get_ref().set_nonblocking(true).is_err() {
        return false;
    }
    let ready = matches!(reader.fill_buf(), Ok(buf) if !buf.is_empty());
    let _ = reader.get_ref().set_nonblocking(false);
    ready
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn capped(input: &[u8], max: usize) -> Vec<(String, bool)> {
        let mut reader = BufReader::with_capacity(4, Cursor::new(input.to_vec()));
        let mut line = String::new();
        let mut out = Vec::new();
        loop {
            match read_capped_line(&mut reader, &mut line, max).unwrap() {
                LineOutcome::Line => out.push((line.clone(), false)),
                LineOutcome::TooLong => out.push((String::new(), true)),
                LineOutcome::Eof => return out,
            }
        }
    }

    #[test]
    fn capped_reader_splits_lines() {
        let out = capped(b"alpha\nbeta\n", 64);
        assert_eq!(out, vec![("alpha".into(), false), ("beta".into(), false)]);
    }

    #[test]
    fn capped_reader_returns_final_unterminated_line() {
        let out = capped(b"alpha\nbeta", 64);
        assert_eq!(out, vec![("alpha".into(), false), ("beta".into(), false)]);
    }

    #[test]
    fn capped_reader_discards_oversized_line_and_recovers() {
        let mut input = vec![b'x'; 100];
        input.push(b'\n');
        input.extend_from_slice(b"ok\n");
        let out = capped(&input, 10);
        assert_eq!(out, vec![(String::new(), true), ("ok".into(), false)]);
    }

    #[test]
    fn capped_reader_handles_oversized_tail_without_newline() {
        let input = vec![b'y'; 50];
        let out = capped(&input, 10);
        assert_eq!(out, vec![(String::new(), true)]);
    }

    #[test]
    fn capped_reader_accepts_line_exactly_at_cap() {
        let mut input = vec![b'z'; 10];
        input.push(b'\n');
        let out = capped(&input, 10);
        assert_eq!(out, vec![("z".repeat(10), false)]);
    }
}
