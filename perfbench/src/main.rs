//! perfbench — the broker benchmark.
//!
//! Runs the broker as it is served (`apcm serve` / `apcm route` child
//! processes) against a separate load generator, on one named workload:
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --selftest
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the same
//! phases with a `STATS` sampler and then replays the timed windows through
//! the layers' public functions for the per-layer metrics. The last stdout
//! line is the JSON result; every run is also appended to
//! `perfbench/results/`. See `perfbench/METRICS.md`.

mod load;
mod oracle;
mod record;
mod replay;
mod sut;
mod workloads;

use load::{Clock, Conn, Drain, Flow, OpenSchedule, PubLog};
use oracle::{Exact, Tally, WithChurn};
use record::Def;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use sut::{Proc, Role, Sut};
use workloads::{Inputs, Topology, Workload, CHURN_ID_BASE, WINDOW};

/// The benchmark's own directory (runs start at the repository root).
const HOME: &str = "perfbench";
/// A run that takes longer is stopped (its processes killed), exit code 4.
const RUN_LIMIT: Duration = Duration::from_secs(170);
/// Set-ups a run may add to replace invalid or disturbed ones.
const MAX_EXTRA_SETUPS: usize = 1;
/// A set-up during which the hypervisor stole more than this share of the
/// host's CPU is disturbed (see `run`).
const STEAL_LIMIT_PCT: f64 = 5.0;
/// Percentiles with enough samples are the median over up to this many
/// equal time slices of their phase.
const SLICES: usize = 5;
/// Throughputs are the mean rate over the middle half of this many equal
/// time slices of their phase.
const RATE_SLICES: usize = 8;
/// Closed-loop warm-up of every set-up, before its timed phases.
const WARM_UP: Duration = Duration::from_millis(300);
/// Fixtures kept on disk (newest first).
const FIXTURES_KEPT: usize = 6;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    selftest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        selftest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--selftest" {
            args.selftest = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !args.selftest && args.workload != "all" && workloads::find(&args.workload).is_none() {
        let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be `all` or one of {names:?}"));
    }
    if args.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Kills every child and exits if the run overstays `limit`.
fn watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: run exceeded {limit:?}; stopping");
        let pids = sut::LIVE.lock().map(|p| p.clone()).unwrap_or_default();
        for pid in pids {
            let _ = std::process::Command::new("kill")
                .args(["-9", &pid.to_string()])
                .status();
        }
        std::process::exit(4);
    });
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.selftest {
        watchdog(Duration::from_secs(900));
        return selftest();
    }
    if args.workload == "all" {
        // Every workload in turn: the exit code is the worst one's.
        watchdog(RUN_LIMIT * workloads::WORKLOADS.len() as u32);
        let codes: Vec<u8> = workloads::WORKLOADS
            .iter()
            .map(|w| run_one(w, &args))
            .collect();
        return ExitCode::from(codes.into_iter().max().unwrap_or(0));
    }
    watchdog(RUN_LIMIT);
    let w = workloads::find(&args.workload).expect("checked in parse_args");
    ExitCode::from(run_one(w, &args))
}

/// Runs one workload, prints its table and result line, appends the run
/// record; returns the exit code.
fn run_one(w: &Workload, args: &Args) -> u8 {
    let out = match run(w, args.seed, args.seconds, args.trace, 1.0, false) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", w.name);
            return 2;
        }
    };
    let defs = record::defs(args.trace);
    print_table(w, args, &out, defs);
    let meta = record::RunMeta {
        workload: w.name,
        seed: args.seed,
        trace: args.trace,
        seconds: args.seconds,
        commit: std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        cores: cores(),
        catalog: out.catalog,
        engine: engine_config(),
        valid: out.valid,
    };
    if let Err(e) = record::append_run(&Path::new(HOME).join("results"), &meta, &out.values) {
        eprintln!("perfbench: writing the run record: {e}");
    }
    let correct = out.tally.incorrect() == 0;
    println!(
        "{}",
        record::result_line(
            correct,
            out.tally.attempted,
            out.tally.failed(),
            defs,
            &out.values
        )
    );
    if !correct {
        eprintln!("perfbench: {}: oracle mismatch", w.name);
        1
    } else if !out.valid {
        eprintln!(
            "perfbench: {}: run invalid: fewer than {} set-ups kept gen.lateness_p99_ms under {} (worst {:.3})",
            w.name,
            w.setups,
            w.lateness_bound_ms,
            out.lateness_p99_ms
        );
        3
    } else {
        0
    }
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The engine configuration `apcm serve` runs on this host.
fn engine_config() -> String {
    let config = apcm_server::ServerConfig::default();
    let per_shard = (cores() / config.shards).max(1);
    format!(
        "{} x{} shards, window {}, {} per shard",
        config.engine.name(),
        config.shards,
        config.window,
        if per_shard <= 1 {
            "ApcmConfig::sequential()".to_string()
        } else {
            format!("{per_shard} threads")
        }
    )
}

fn print_table(w: &Workload, args: &Args, out: &RunOutput, defs: &[Def]) {
    println!(
        "perfbench {} seed {} seconds {} trace {} | catalog {} | cores {} | {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        out.catalog,
        cores(),
        engine_config()
    );
    println!("  why: {}", w.why);
    for d in defs {
        let v = out.values.get(d.name).copied().unwrap_or(0.0);
        println!(
            "  {:<48} {:>14.4} {:<9} ({} is better)",
            d.name, v, d.unit, d.better
        );
    }
    let t = &out.tally;
    println!(
        "  ops attempted {} failed {} (err {} timeout {} partial {} mismatch {} \
         events missing {} events unexpected {}); open-loop samples {}, lateness p99 {:.3} ms",
        t.attempted,
        t.failed(),
        t.err_replies,
        t.timeouts,
        t.partial_rows,
        t.oracle_mismatches,
        t.events_missing,
        t.events_unexpected,
        out.open_samples,
        out.lateness_p99_ms
    );
}

struct RunOutput {
    values: BTreeMap<&'static str, f64>,
    tally: Tally,
    catalog: usize,
    valid: bool,
    lateness_p99_ms: f64,
    open_samples: usize,
    nesting_violations: usize,
    /// Self-test: a real row, corrupted, was rejected by the oracle.
    corruption_caught: bool,
}

/// Writes the colstore snapshot of the catalog once per (workload,
/// catalog size, seed) and reuses it. Returns its directory and the time
/// spent writing it now (0 when reused).
fn ensure_fixture(w: &Workload, seed: u64, inputs: &Inputs) -> Result<(PathBuf, f64), String> {
    let root = Path::new(HOME).join("fixtures");
    let dir = root.join(format!("{}-n{}-s{seed}", w.name, inputs.catalog.len()));
    if dir.join("READY").exists() {
        return Ok((dir, 0.0));
    }
    let t = Instant::now();
    let tmp = root.join(format!(".tmp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).map_err(|e| e.to_string())?;
    // The snapshot's seq is the catalog size, as if every subscription
    // had been one logged SUB: a follower starting at seq 0 then needs a
    // bootstrap, as it would in service.
    apcm_server::persist::snapshot::write(
        &tmp,
        &inputs.schema,
        &inputs.catalog,
        inputs.catalog.len() as u64,
        apcm_server::SnapshotFormat::Colstore,
        apcm_server::ServerConfig::default().shards as u32,
    )
    .map_err(|e| format!("writing the snapshot fixture: {e}"))?;
    std::fs::write(tmp.join("READY"), b"").map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::rename(&tmp, &dir).map_err(|e| e.to_string())?;
    let prep = t.elapsed().as_secs_f64();

    let mut kept: Vec<(std::time::SystemTime, PathBuf)> = std::fs::read_dir(&root)
        .map_err(|e| e.to_string())?
        .flatten()
        .filter(|e| e.path().join("READY").exists())
        .filter_map(|e| Some((e.metadata().ok()?.modified().ok()?, e.path())))
        .collect();
    kept.sort_by_key(|k| std::cmp::Reverse(k.0));
    for (_, old) in kept.into_iter().skip(FIXTURES_KEPT) {
        if old != dir {
            let _ = std::fs::remove_dir_all(old);
        }
    }
    Ok((dir, prep))
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from)
        .map_err(|e| e.to_string())?
        .flatten()
    {
        if entry.file_name() != "READY" {
            std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

fn schema_args() -> Vec<String> {
    vec![
        "--dims".into(),
        workloads::DIMS.to_string(),
        "--cardinality".into(),
        workloads::CARDINALITY.to_string(),
    ]
}

fn path_arg(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// Starts the workload's processes and loads its catalog; returns once
/// every process answers `PING` and holds the catalog. `dir` holds this
/// set-up's data directories (the primary's already holds the fixture).
fn start(
    w: &Workload,
    apcm: &Path,
    inputs: &Inputs,
    dir: &Path,
) -> Result<(Sut, Option<Drain>), String> {
    let n = inputs.catalog.len() as u64;
    let mut sut = Sut { procs: Vec::new() };
    let mut drain = None;
    let serve = |extra: &[String], role: Role| {
        let mut a = schema_args();
        a.extend_from_slice(extra);
        Proc::spawn(apcm, role, &a)
    };
    let persist = |name: &str| vec!["--persist-dir".to_string(), path_arg(&dir.join(name))];
    match w.topology {
        Topology::Direct => sut.procs.push(serve(&persist("primary"), Role::Broker)?),
        Topology::Routed => {
            for _ in 0..3 {
                sut.procs.push(serve(&[], Role::Broker)?);
            }
            let backends: Vec<&str> = sut.procs.iter().map(|p| p.addr.as_str()).collect();
            let mut a = schema_args();
            a.extend([
                "--backends".to_string(),
                backends.join(","),
                "--queue".to_string(),
                workloads::SUBSCRIBER_QUEUE.to_string(),
            ]);
            sut.procs.push(Proc::spawn(apcm, Role::Router, &a)?);
            let mut conn = Conn::open(sut.entry()).map_err(|e| e.to_string())?;
            let acked =
                load::load_catalog(&mut conn, inputs).map_err(|e| format!("catalog load: {e}"))?;
            if acked as u64 != n {
                return Err(format!("router acked {acked} of {n} catalog SUBs"));
            }
            drain = Some(Drain::new(conn).map_err(|e| e.to_string())?);
        }
        Topology::Chain => {
            let primary = serve(&persist("primary"), Role::Broker)?;
            let mut follow = persist("follower");
            follow.extend(["--replica-of".to_string(), primary.addr.clone()]);
            let follower = serve(&follow, Role::Follower)?;
            let mut a = schema_args();
            a.extend([
                "--backends".to_string(),
                primary.addr.clone(),
                "--replicas".to_string(),
                follower.addr.clone(),
            ]);
            sut.procs.push(primary);
            sut.procs.push(follower);
            sut.procs.push(Proc::spawn(apcm, Role::Router, &a)?);
        }
    }
    for p in &sut.procs {
        sut::ping(&p.addr)?;
    }
    if w.topology != Topology::Routed {
        let s = sut::stats(&sut.procs[0].addr)?;
        let recovered = sut::stat(&s, "recovered_subs");
        if recovered != n {
            return Err(format!(
                "primary recovered {recovered} of {n} subscriptions"
            ));
        }
    }
    // Every broker holds its share (a follower: all of it, once caught up).
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let mut held = 0;
        let mut follower_ok = true;
        for p in sut.brokers() {
            let h = sut::held_subs(&sut::stats(&p.addr)?);
            if p.role == Role::Follower {
                follower_ok &= h == n;
            } else {
                held += h;
            }
        }
        if held == n && follower_ok {
            break;
        }
        if Instant::now() > deadline {
            return Err(format!("catalog not loaded: brokers hold {held} of {n}"));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    Ok((sut, drain))
}

/// STATS and CPU of every process at one instant.
struct Snap {
    stats: Vec<sut::Stats>,
    cpu: Vec<sut::CpuSample>,
}

fn snap(sut: &Sut) -> Result<Snap, String> {
    Ok(Snap {
        cpu: sut.procs.iter().map(|p| sut::cpu_sample(p.pid())).collect(),
        stats: sut
            .procs
            .iter()
            .map(|p| sut::stats(&p.addr))
            .collect::<Result<_, _>>()?,
    })
}

/// Sum over processes with `role` filter of a STATS counter's growth.
fn delta(sut: &Sut, a: &Snap, b: &Snap, key: &str, keep: impl Fn(Role) -> bool) -> f64 {
    sut.procs
        .iter()
        .enumerate()
        .filter(|(_, p)| keep(p.role))
        .map(|(i, _)| {
            sut::stat(&b.stats[i], key).saturating_sub(sut::stat(&a.stats[i], key)) as f64
        })
        .sum()
}

fn is_broker(r: Role) -> bool {
    r != Role::Router
}

fn is_router(r: Role) -> bool {
    r == Role::Router
}

/// CPU of every process between two snaps, by thread role.
fn cpu_between(a: &Snap, b: &Snap) -> (f64, BTreeMap<&'static str, f64>, f64) {
    let mut total = 0.0;
    let mut roles = BTreeMap::new();
    let mut exited = 0.0;
    for (x, y) in a.cpu.iter().zip(&b.cpu) {
        let d = sut::cpu_delta(x, y);
        total += d.total_ms;
        exited += d.exited_ms;
        for (role, ms) in d.roles {
            *roles.entry(role).or_insert(0.0) += ms;
        }
    }
    (total, roles, exited)
}

/// Polls `STATS` of every process while sampling is on; keeps the maxima
/// of the gauges the per-layer table reports.
struct Sampler {
    on: Arc<AtomicBool>,
    done: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<BTreeMap<&'static str, u64>>,
}

const SAMPLED: [&str; 3] = [
    "ingest_queue_depth",
    "outbound_queue_lines",
    "repl_lag_records",
];

impl Sampler {
    fn start(addrs: Vec<String>) -> Sampler {
        let on = Arc::new(AtomicBool::new(false));
        let done = Arc::new(AtomicBool::new(false));
        let (on2, done2) = (on.clone(), done.clone());
        let handle = std::thread::spawn(move || {
            let mut max: BTreeMap<&'static str, u64> = BTreeMap::new();
            while !done2.load(Ordering::Acquire) {
                if on2.load(Ordering::Acquire) {
                    for addr in &addrs {
                        if let Ok(s) = sut::stats(addr) {
                            for key in SAMPLED {
                                let m = max.entry(key).or_insert(0);
                                *m = (*m).max(sut::stat(&s, key));
                            }
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            max
        });
        Sampler { on, done, handle }
    }

    fn set(&self, on: bool) {
        self.on.store(on, Ordering::Release);
    }

    fn finish(self) -> BTreeMap<&'static str, u64> {
        self.done.store(true, Ordering::Release);
        self.handle.join().expect("sampler panicked")
    }
}

/// Runs `f` while a second thread drains the subscriber connection.
fn with_drain<T>(drain: &mut Option<Drain>, f: impl FnOnce() -> T) -> Result<T, String> {
    let Some(d) = drain.as_mut() else {
        return Ok(f());
    };
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let h = s.spawn(|| d.until(&stop));
        let out = f();
        stop.store(true, Ordering::Release);
        h.join()
            .expect("drain panicked")
            .map_err(|e| format!("subscriber connection: {e}"))?;
        Ok(out)
    })
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The `q` quantile of `(time, value)` samples, robust to a transient
/// stall: the samples are cut into up to `SLICES` equal time slices, each
/// still holding ten samples beyond `q`, and the median slice's quantile
/// is taken (one slice, i.e. plain pooling, when samples are few).
fn robust_quantile(samples: &[(u64, f64)], q: f64) -> f64 {
    let n = samples.len();
    let slices = ((n as f64 * (1.0 - q) / 10.0) as usize).clamp(1, SLICES);
    let (Some(start), Some(end)) = (
        samples.iter().map(|s| s.0).min(),
        samples.iter().map(|s| s.0).max(),
    ) else {
        return 0.0;
    };
    let span = (end - start).max(1) as u128;
    let mut parts: Vec<Vec<f64>> = vec![Vec::new(); slices];
    for &(t, v) in samples {
        let i = ((t - start) as u128 * slices as u128 / span).min(slices as u128 - 1) as usize;
        parts[i].push(v);
    }
    let mut per: Vec<f64> = parts
        .iter_mut()
        .filter(|p| !p.is_empty())
        .map(|p| record::quantile(p, q))
        .collect();
    record::quantile(&mut per, 0.5)
}

/// Open-loop `(arrival, latency)` from the scheduled send to the `RESULT`
/// line, and each send's lateness against its schedule, ms.
fn open_samples(log: &PubLog) -> (Vec<(u64, f64)>, Vec<f64>) {
    let latency = log
        .replies
        .iter()
        .filter_map(|(at, line)| {
            let seq = load::number_after(line, b"RESULT ")?;
            let sent = log.sent.get(seq.checked_sub(log.seq0)? as usize)?;
            Some((*at, ms(at.saturating_sub(sent.due_ns))))
        })
        .collect();
    let lateness = log.sent.iter().map(|s| ms(s.sent_ns - s.due_ns)).collect();
    (latency, lateness)
}

/// Completions per second in `RATE_SLICES` equal slices of `[start,
/// end]`, averaged over the middle half of the slices: a transient stall
/// moves an outer slice, not the rate, while the periodic work the
/// program does (maintenance sweeps, interval fsync) still counts.
fn sliced_rate(done_ns: impl Iterator<Item = u64>, start_ns: u64, end_ns: u64) -> f64 {
    let span = end_ns.saturating_sub(start_ns).max(1);
    let mut counts = [0u64; RATE_SLICES];
    for t in done_ns.filter(|&t| t >= start_ns && t <= end_ns) {
        counts[((t - start_ns) as u128 * RATE_SLICES as u128 / span as u128)
            .min(RATE_SLICES as u128 - 1) as usize] += 1;
    }
    counts.sort_unstable();
    let middle = &counts[RATE_SLICES / 4..RATE_SLICES - RATE_SLICES / 4];
    let slice_s = span as f64 / 1e9 / RATE_SLICES as f64;
    middle.iter().sum::<u64>() as f64 / middle.len() as f64 / slice_s
}

/// Closed-loop throughput of one publishing phase.
fn eps(log: &PubLog) -> f64 {
    sliced_rate(
        log.replies.iter().map(|(at, _)| *at),
        log.start_ns,
        log.end_ns,
    )
}

fn run(
    w: &Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: f64,
    selftest: bool,
) -> Result<RunOutput, String> {
    let apcm = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("apcm");
    if !apcm.exists() {
        return Err(format!(
            "{} is missing; build it first (perfbench/run.sh does)",
            apcm.display()
        ));
    }
    let secs = seconds as f64;
    let inputs = Inputs::generate(w, seed, scale, secs);
    let n = inputs.catalog.len();
    let expected = oracle::expected_rows(&inputs.catalog, &inputs.pool);
    let (fixture, prep_s) = match w.topology {
        Topology::Routed => (None, 0.0),
        _ => {
            let (dir, prep) = ensure_fixture(w, seed, &inputs)?;
            (Some(dir), prep)
        }
    };
    let work = Path::new(HOME)
        .join("work")
        .join(format!("{}-{}", w.name, std::process::id()));

    // `w.setups` independent set-ups, each measured for its share of the
    // run: thread placement on a small host settles differently per
    // process start, so each metric is the mean over the middle half of
    // the set-ups (set-up time: their median).
    // A set-up is replaced (at most MAX_EXTRA_SETUPS times per run)
    // when its generator ran late (invalid: its values never enter the
    // result) or when the hypervisor stole more than STEAL_LIMIT_PCT of
    // the CPU while it ran (disturbed: used only if no clean set-up is
    // left to take its place, least disturbed first). The offline replay
    // of a traced run needs only the last set-up.
    let mut setups = Vec::new();
    let mut reps: Vec<RunOutput> = Vec::new();
    let mut disturbed: Vec<RunOutput> = Vec::new();
    let mut invalid: Vec<RunOutput> = Vec::new();
    while reps.len() < w.setups && setups.len() < w.setups + MAX_EXTRA_SETUPS {
        let dir = work.join(format!("setup{}", setups.len()));
        let _ = std::fs::remove_dir_all(&dir);
        if let Some(f) = &fixture {
            copy_dir(f, &dir.join("primary"))?;
        }
        let t = Instant::now();
        let (sut, mut drain) = start(w, &apcm, &inputs, &dir)?;
        setups.push(t.elapsed().as_secs_f64());
        let share = secs / w.setups as f64;
        // Replay on the set-up that may complete the run, and on the last
        // one allowed, so one that is kept has always run it.
        let may_be_last = reps.len() + 1 == w.setups || setups.len() == w.setups + MAX_EXTRA_SETUPS;
        let replay = (trace && may_be_last).then_some(fixture.as_deref());
        let result = measure(
            w, &sut, &mut drain, &inputs, &expected, share, trace, replay, selftest, &dir,
        );
        drop(drain);
        sut.stop();
        let _ = std::fs::remove_dir_all(&dir);
        let result = result?;
        let steal = result.values["host.steal_pct"];
        eprintln!(
            "perfbench: set-up {}: {:.3} s, {}",
            setups.len(),
            setups[setups.len() - 1],
            record::defs(false)
                .iter()
                .filter_map(|d| Some(format!("{} {:.4}", d.name, result.values.get(d.name)?)))
                .chain([
                    format!("steal {steal:.1}%"),
                    format!("failed {}", result.tally.failed())
                ])
                .collect::<Vec<_>>()
                .join(", ")
        );
        if !result.valid {
            eprintln!(
                "perfbench: set-up {} invalid: gen.lateness_p99_ms {:.3} over {}",
                setups.len(),
                result.lateness_p99_ms,
                w.lateness_bound_ms
            );
            invalid.push(result);
        } else if steal > STEAL_LIMIT_PCT {
            eprintln!(
                "perfbench: set-up {} disturbed: host steal {steal:.1}% over {STEAL_LIMIT_PCT}%",
                setups.len()
            );
            disturbed.push(result);
        } else {
            reps.push(result);
        }
    }
    disturbed.sort_by(|a, b| a.values["host.steal_pct"].total_cmp(&b.values["host.steal_pct"]));
    let n_disturbed = disturbed.len();
    while reps.len() < w.setups && !disturbed.is_empty() {
        reps.push(disturbed.remove(0));
    }
    invalid.append(&mut disturbed);
    let _ = std::fs::remove_dir_all(&work);
    let mut out = combine(reps, invalid, w.setups);
    out.values
        .insert("host.disturbed_setups", n_disturbed as f64);
    out.values
        .insert("setup_s", record::quantile(&mut setups, 0.5));
    out.values.insert("fixture.prep_s", prep_s);
    out.catalog = n;
    Ok(out)
}

/// Per-set-up results folded into one: every metric is the mean over the
/// middle half of the set-ups used that report it (a traced run's replay
/// metrics come from whichever set-up ran the replay); failures of every
/// set-up add up; the run is valid when `setups` set-ups were used.
fn combine(reps: Vec<RunOutput>, unused: Vec<RunOutput>, setups: usize) -> RunOutput {
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for r in &reps {
        for (k, v) in &r.values {
            samples.entry(k).or_default().push(*v);
        }
    }
    let mut tally = Tally::default();
    for r in reps.iter().chain(&unused) {
        tally.add(&r.tally);
    }
    let mut values: BTreeMap<&'static str, f64> = samples
        .into_iter()
        .map(|(k, mut v)| (k, record::middle_mean(&mut v)))
        .collect();
    values.insert(
        "failed_op_ratio",
        tally.failed() as f64 / tally.attempted.max(1) as f64,
    );
    for r in &unused {
        for (k, v) in &r.values {
            values.entry(k).or_insert(*v);
        }
    }
    let late = unused.iter().filter(|r| !r.valid).count();
    values.insert("gen.invalid_setups", late as f64);
    for (name, v) in [
        ("failed.err_replies", tally.err_replies),
        ("failed.timeouts", tally.timeouts),
        ("failed.partial_rows", tally.partial_rows),
        ("failed.oracle_mismatches", tally.oracle_mismatches),
        ("failed.events_missing", tally.events_missing),
        ("failed.events_unexpected", tally.events_unexpected),
    ] {
        values.insert(name, v as f64);
    }
    RunOutput {
        values,
        tally,
        catalog: 0,
        valid: reps.len() == setups,
        lateness_p99_ms: reps
            .iter()
            .chain(&unused)
            .map(|r| r.lateness_p99_ms)
            .fold(0.0, f64::max),
        open_samples: reps.iter().map(|r| r.open_samples).sum(),
        nesting_violations: reps.iter().map(|r| r.nesting_violations).sum(),
        corruption_caught: reps.iter().any(|r| r.corruption_caught),
    }
}

#[allow(clippy::too_many_arguments)]
fn measure(
    w: &Workload,
    sut: &Sut,
    drain: &mut Option<Drain>,
    inputs: &Inputs,
    expected: &[Vec<u32>],
    secs: f64,
    trace: bool,
    replay: Option<Option<&Path>>,
    selftest: bool,
    work: &Path,
) -> Result<RunOutput, String> {
    let clock = Clock::start();
    let steal_before = sut::host_steal();
    let io = |what: &'static str| move |e: std::io::Error| format!("{what}: {e}");
    let mut pubc = Conn::open(sut.entry()).map_err(io("publisher connection"))?;
    let sampler = trace.then(|| Sampler::start(sut.procs.iter().map(|p| p.addr.clone()).collect()));
    let d = inputs.distinct_windows();
    // On a routed workload every match notifies the subscriber connection;
    // windows go out only while it has at most one router queue's worth
    // of notifications unread, so the router never drops one.
    let mut flow = drain.as_ref().map(|dr| Flow {
        received: dr.received.clone(),
        per_window: expected
            .chunks(WINDOW)
            .map(|c| c.iter().map(Vec::len).sum())
            .collect(),
        budget: workloads::SUBSCRIBER_QUEUE,
        promised: 0,
    });

    // Warm-up: closed-loop windows, checked but not timed.
    let warm_until = clock.ns() + WARM_UP.as_nanos() as u64;
    let warm = with_drain(drain, || {
        load::closed_loop(&mut pubc, inputs, 0, 0, &clock, warm_until, flow.as_mut())
    })?
    .map_err(io("warm-up"))?;
    let mut seq = warm.sent.len() as u64;
    let mut next_window = warm.windows.len();

    // Closed loop. A traced run splits it: the first half untraced, the
    // second with the sampler on; the gap is the tracing overhead.
    let closed_ns = (secs * w.closed_share * 1e9) as u64;
    let s0 = snap(sut)?;
    let mut closed = Vec::new();
    let halves: &[bool] = if trace { &[false, true] } else { &[false] };
    for &sampling in halves {
        if let Some(s) = &sampler {
            s.set(sampling);
        }
        let until = clock.ns() + closed_ns / halves.len() as u64;
        let log = with_drain(drain, || {
            load::closed_loop(
                &mut pubc,
                inputs,
                seq,
                next_window,
                &clock,
                until,
                flow.as_mut(),
            )
        })?
        .map_err(io("closed loop"))?;
        seq += log.sent.len() as u64;
        next_window += log.windows.len();
        closed.push(log);
    }
    if let Some(s) = &sampler {
        s.set(true);
    }
    let s1 = snap(sut)?;

    let open_ns = (secs * w.open_share * 1e9) as u64;
    let first_pool = (next_window % d) * WINDOW;
    let schedule = |start_ns: u64| OpenSchedule {
        first_pool,
        rate: w.open_rate,
        start_ns,
        count: ((w.open_rate * open_ns as f64 / 1e9) as usize).max(1),
    };
    let (open, churn, s2, s3);
    if w.topology == Topology::Chain {
        // Churn on its own connection beside open-loop reads on the
        // publisher, one thread each.
        let mut churnc = Conn::open(sut.entry()).map_err(io("churn connection"))?;
        let mut clog = load::churn_fill(&mut churnc, inputs, w.churn_live, &clock)
            .map_err(io("churn fill"))?;
        s2 = snap(sut)?;
        let sched = schedule(clock.ns() + 2_000_000);
        let (reads, churned) = std::thread::scope(|s| {
            let (clock, sched, pubc) = (&clock, &sched, &mut pubc);
            let reader = s.spawn(move || load::open_loop(pubc, inputs, sched, seq, clock));
            let churned = load::churn_loop(
                &mut churnc,
                inputs,
                w.churn_live,
                clock,
                sched.end_ns(),
                w.churn_in_flight,
                &mut clog,
            );
            (reader.join().expect("open loop panicked"), churned)
        });
        churned.map_err(io("churn loop"))?;
        open = reads.map_err(io("open-loop reads"))?;
        churn = clog;
        s3 = snap(sut)?;
    } else {
        let sched = schedule(clock.ns() + 2_000_000);
        open = with_drain(drain, || {
            load::open_loop(&mut pubc, inputs, &sched, seq, &clock)
        })?
        .map_err(io("open loop"))?;
        s2 = snap(sut)?;
        let until = clock.ns() + (secs * (1.0 - w.closed_share - w.open_share) * 1e9) as u64;
        // Nothing is published during churn, so the subscriber connection
        // needs no reader until the final settle.
        let mut log =
            load::churn_fill(&mut pubc, inputs, w.churn_live, &clock).map_err(io("churn fill"))?;
        load::churn_loop(
            &mut pubc,
            inputs,
            w.churn_live,
            &clock,
            until,
            w.churn_in_flight,
            &mut log,
        )
        .map_err(io("churn loop"))?;
        churn = log;
        s3 = snap(sut)?;
    }
    let maxima = sampler.map(Sampler::finish).unwrap_or_default();
    let steal_after = sut::host_steal();
    let host_steal_pct = 100.0 * (steal_after.0 - steal_before.0) as f64
        / (steal_after.1 - steal_before.1).max(1) as f64;
    let rss: f64 = sut.procs.iter().map(|p| sut::peak_rss_mib(p.pid())).sum();

    // Correctness.
    let mut tally = Tally::default();
    let mut answered: Vec<(u32, Vec<u32>)> = Vec::new();
    let mut keep = |log: &PubLog, rows: Vec<(usize, Vec<u32>)>| {
        answered.extend(rows.into_iter().map(|(i, ids)| (log.sent[i].pool, ids)));
    };
    for log in std::iter::once(&warm).chain(&closed) {
        keep(log, oracle::check_pub(log, &Exact(expected), &mut tally));
    }
    if w.topology == Topology::Chain {
        let check = WithChurn::new(expected, inputs, &churn);
        keep(&open, oracle::check_pub(&open, &check, &mut tally));
    } else {
        keep(
            &open,
            oracle::check_pub(&open, &Exact(expected), &mut tally),
        );
    }
    oracle::check_churn(&churn, &mut tally);
    if let Some(d) = drain.as_mut() {
        let want: usize = answered.iter().map(|(_, ids)| ids.len()).sum();
        d.settle(want, Duration::from_secs(1))
            .map_err(io("subscriber drain"))?;
        oracle::check_events(
            inputs,
            &answered,
            |id| id < CHURN_ID_BASE,
            &d.lines,
            &mut tally,
        );
    }
    let corruption_caught = selftest && {
        let log = &closed[0];
        log.replies.iter().any(|(at, line)| {
            let Some((s, mut ids, _)) = oracle::parse_result(line) else {
                return false;
            };
            if ids.pop().is_none() {
                return false;
            }
            let mut bad = PubLog {
                seq0: log.seq0,
                sent: log.sent.clone(),
                ..PubLog::default()
            };
            let body: Vec<String> = ids.iter().map(u32::to_string).collect();
            let text = format!("RESULT {s} {} {}", ids.len(), body.join(","));
            bad.replies.push((*at, text.trim_end().as_bytes().to_vec()));
            let mut t = Tally::default();
            oracle::check_pub(&bad, &Exact(expected), &mut t);
            t.oracle_mismatches == 1
        })
    };

    // End-to-end metrics.
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (latency, mut lateness) = open_samples(&open);
    let churn_lat: Vec<(u64, f64)> = churn
        .timed()
        .filter(|o| o.ok)
        .map(|o| (o.ack_ns, (o.ack_ns - o.sent_ns) as f64 / 1e3))
        .collect();
    let churn_acked = churn_lat.len();
    values.insert("pub_throughput_eps", eps(&closed[0]));
    values.insert("result_p50_ms", robust_quantile(&latency, 0.5));
    values.insert("result_p99_ms", robust_quantile(&latency, 0.99));
    let acks = churn.timed().filter(|o| o.ok).map(|o| o.ack_ns);
    values.insert(
        "churn_ops_per_s",
        sliced_rate(acks, churn.start_ns, churn.end_ns),
    );
    values.insert("churn_ack_p50_us", robust_quantile(&churn_lat, 0.5));
    values.insert("churn_ack_p99_us", robust_quantile(&churn_lat, 0.99));
    // CPU over the closed-loop phases: publish, and churn (on the chain,
    // churn shares its interval with the open-loop reads it serves).
    let (cpu_pub, roles_pub, exited_pub) = cpu_between(&s0, &s1);
    let (cpu_churn, roles_churn, exited_churn) = cpu_between(&s2, &s3);
    let closed_answered: usize = closed.iter().map(PubLog::answered).sum();
    let concurrent_reads = if w.topology == Topology::Chain {
        open.answered()
    } else {
        0
    };
    let kops = (closed_answered + churn_acked + concurrent_reads) as f64 / 1e3;
    values.insert(
        "server_cpu_ms_per_kop",
        (cpu_pub + cpu_churn) / kops.max(1e-9),
    );
    values.insert("server_rss_mib", rss);

    // Per-layer metrics.
    let lateness_p99_ms = record::quantile(&mut lateness, 0.99);
    values.insert("host.steal_pct", host_steal_pct);
    values.insert("gen.lateness_p99_ms", lateness_p99_ms);
    let published: usize =
        warm.sent.len() + closed.iter().map(|l| l.sent.len()).sum::<usize>() + open.sent.len();
    let matches: usize = answered.iter().map(|(_, ids)| ids.len()).sum();
    values.insert(
        "workload.matches_per_event",
        matches as f64 / answered.len().max(1) as f64,
    );
    let (open_a, open_b) = if w.topology == Topology::Chain {
        (&s2, &s3)
    } else {
        (&s1, &s2)
    };
    values.insert(
        "server.ingest.events_per_window",
        delta(sut, open_a, open_b, "events_matched", is_broker)
            / delta(sut, open_a, open_b, "windows", is_broker).max(1.0),
    );
    values.insert(
        "server.ingest.queue_depth_max",
        maxima.get("ingest_queue_depth").copied().unwrap_or(0) as f64,
    );
    values.insert(
        "netio.outbound_queue_lines_max",
        maxima.get("outbound_queue_lines").copied().unwrap_or(0) as f64,
    );
    values.insert(
        "server.replication.lag_records_max",
        maxima.get("repl_lag_records").copied().unwrap_or(0) as f64,
    );
    let all = |_: Role| true;
    values.insert(
        "server.delivery.replies_dropped",
        delta(sut, &s0, &s3, "replies_dropped", all),
    );
    values.insert(
        "netio.epoll_wakeups_per_event",
        delta(sut, &s0, &s3, "epoll_wakeups", is_broker) / published.max(1) as f64,
    );
    values.insert(
        "server.replication.replacks_pipelined",
        delta(sut, &s0, &s3, "replacks_pipelined", is_broker),
    );
    values.insert(
        "server.maintenance.passes",
        delta(sut, &s0, &s3, "maintenance_passes", is_broker),
    );
    values.insert(
        "server.maintenance.rebuilt",
        delta(sut, &s0, &s3, "maintenance_rebuilt", is_broker),
    );
    // Zero where the topology has no router.
    values.insert(
        "cluster.router.fanout_ratio",
        delta(sut, &s0, &s1, "fanouts_sent", is_router)
            / delta(sut, &s0, &s1, "fanouts_possible", is_router).max(1.0),
    );
    values.insert(
        "cluster.router.follower_read_ratio",
        delta(sut, &s0, &s3, "reads_follower_served", is_router)
            / delta(sut, &s0, &s3, "windows", is_router).max(1.0),
    );
    values.insert(
        "cluster.router.floor_fallbacks",
        delta(sut, &s0, &s3, "reads_floor_fallbacks", is_router),
    );
    // Lines brokers sent beyond RESULT rows and BATCH acks during the
    // closed loop (one STATS reply each is ours): on a routed workload,
    // the EVENT lines the router's backend links read and discard.
    let closed_events: usize = closed.iter().map(|l| l.sent.len()).sum();
    let batches = if sut.router().is_some() {
        delta(sut, &s0, &s1, "fanouts_sent", is_router)
    } else {
        closed.iter().map(|l| l.windows.len()).sum::<usize>() as f64
    };
    let brokers = sut.brokers().count() as f64;
    let extra = delta(sut, &s0, &s1, "replies_sent", is_broker)
        - delta(sut, &s0, &s1, "events_in", is_broker)
        - batches
        - brokers;
    values.insert(
        "cluster.backend.discarded_event_lines_per_event",
        extra.max(0.0) / closed_events.max(1) as f64,
    );
    let per_kop = |ms: f64| ms / kops.max(1e-9);
    for (role, name) in [
        ("ingest", "cpu.ingest_ms"),
        ("netio", "cpu.netio_ms"),
        ("router_reader", "cpu.router_reader_ms"),
        ("router_writer", "cpu.router_writer_ms"),
        ("replica", "cpu.replica_ms"),
    ] {
        let ms = roles_pub.get(role).unwrap_or(&0.0) + roles_churn.get(role).unwrap_or(&0.0);
        values.insert(name, per_kop(ms));
    }
    values.insert("cpu.exited_threads_ms", per_kop(exited_pub + exited_churn));

    let mut nesting_violations = 0;
    if trace {
        let untraced = eps(&closed[0]);
        let traced = eps(&closed[1]);
        values.insert(
            "trace.overhead_pct",
            (untraced - traced) / untraced.max(1e-9) * 100.0,
        );
    }
    if let Some(fixture) = replay {
        let traced = eps(&closed[1]);
        let scratch_snapshot;
        let snapshot_dir = match fixture {
            Some(f) => f,
            None => {
                scratch_snapshot = work.join("replay-snapshot");
                std::fs::create_dir_all(&scratch_snapshot).map_err(|e| e.to_string())?;
                apcm_server::persist::snapshot::write(
                    &scratch_snapshot,
                    &inputs.schema,
                    &inputs.catalog,
                    inputs.catalog.len() as u64,
                    apcm_server::SnapshotFormat::Colstore,
                    apcm_server::ServerConfig::default().shards as u32,
                )
                .map_err(|e| e.to_string())?;
                scratch_snapshot.as_path()
            }
        };
        let windows: Vec<_> = closed
            .iter()
            .flat_map(|l| l.windows.iter().copied())
            .collect();
        let replay_in = replay::ReplayInput {
            inputs,
            owned: w.topology == Topology::Routed,
            routed: sut.router().is_some(),
            partitions: sut.brokers().filter(|p| p.role == Role::Broker).count(),
            windows: &windows,
            snapshot_dir,
            backend: &sut.brokers().next().expect("a broker").addr,
            work,
        };
        let replayed = replay::run(&replay_in)?;
        values.extend(replayed.metrics.iter().copied());
        let service_us = 1e6 / traced.max(1e-9);
        values.insert(
            "trace.unattributed_us_per_event",
            service_us - replayed.child_us_per_event,
        );
        nesting_violations = replay::nesting_violations(&replayed.spans);
        let results = Path::new(HOME).join("results");
        std::fs::create_dir_all(&results).map_err(|e| e.to_string())?;
        std::fs::write(
            results.join(format!("spans-{}.jsonl", w.name)),
            replay::spans_jsonl(&replayed.spans),
        )
        .map_err(|e| e.to_string())?;
    }

    Ok(RunOutput {
        values,
        tally,
        catalog: inputs.catalog.len(),
        valid: lateness_p99_ms <= w.lateness_bound_ms,
        lateness_p99_ms,
        open_samples: open.answered(),
        nesting_violations,
        corruption_caught,
    })
}

/// Tiny-scale run of every workload in both modes: every metric of
/// `BENCHMARK.json` is emitted, the oracle passes and rejects a corrupted
/// real row, and traced spans nest.
fn selftest() -> ExitCode {
    let mut failures = Vec::new();
    for w in workloads::WORKLOADS {
        for trace in [false, true] {
            let label = format!("{} trace {}", w.name, u8::from(trace));
            match run(w, 7, 3, trace, 0.02, true) {
                Err(e) => failures.push(format!("{label}: {e}")),
                Ok(out) => {
                    for d in record::defs(trace) {
                        match out.values.get(d.name) {
                            Some(v) if v.is_finite() => {}
                            _ => failures.push(format!("{label}: metric {} missing", d.name)),
                        }
                    }
                    if out.tally.incorrect() > 0 {
                        failures.push(format!("{label}: oracle mismatch {:?}", out.tally));
                    }
                    if !out.corruption_caught {
                        failures.push(format!("{label}: a corrupted row was not rejected"));
                    }
                    if out.nesting_violations > 0 {
                        failures.push(format!(
                            "{label}: {} spans do not nest",
                            out.nesting_violations
                        ));
                    }
                    println!(
                        "selftest {label}: ok ({} ops, {} failed)",
                        out.tally.attempted,
                        out.tally.failed()
                    );
                }
            }
        }
    }
    for f in &failures {
        eprintln!("selftest FAILED: {f}");
    }
    if failures.is_empty() {
        println!("selftest passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
