//! The traced run's offline replay. After the system-under-test phases,
//! the windows the generator timed are replayed through the layers' public
//! functions; each layer's calls for a window become a child span of that
//! window's parent span (its round trip as the generator saw it). Child
//! spans are laid end to end from the parent's start, so a parent's self
//! time is its duration minus the replayed work.

use crate::load::WindowSpan;
use crate::workloads::{Inputs, WINDOW};
use apcm_bexpr::parser;
use apcm_cluster::BackendConn;
use apcm_server::client::ConnectOptions;
use apcm_server::persist::snapshot;
use apcm_server::{protocol, PersistConfig, Persister, ServerConfig, ServerStats, ShardedEngine};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repetitions per distinct window; the median is kept.
const REPS: usize = 5;
/// Churn operations timed against the shard engine and the persister.
const CHURN_OPS: usize = 1000;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub window: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct ReplayInput<'a> {
    pub inputs: &'a Inputs,
    /// `EVENT` notifications are rendered for matches (ids have owners).
    pub owned: bool,
    /// The router's summary prune runs for every window.
    pub routed: bool,
    /// Partition summaries a routed window is tested against.
    pub partitions: usize,
    /// Parent spans: the closed-loop windows.
    pub windows: &'a [WindowSpan],
    /// A directory holding a snapshot of the catalog.
    pub snapshot_dir: &'a Path,
    /// A live broker for `BackendConn::publish_window`.
    pub backend: &'a str,
    /// Scratch directory for the persister.
    pub work: &'a Path,
}

pub struct ReplayOut {
    pub metrics: Vec<(&'static str, f64)>,
    pub spans: Vec<Span>,
    /// Mean replayed child time per event over the parent windows, µs.
    pub child_us_per_event: f64,
}

fn median(mut v: Vec<u64>) -> u64 {
    v.sort_unstable();
    v[v.len() / 2]
}

/// Median over `REPS` runs of `f`, in ns.
fn time_median(mut f: impl FnMut()) -> u64 {
    median(
        (0..REPS)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_nanos() as u64
            })
            .collect(),
    )
}

fn us(ns: u64, per: usize) -> f64 {
    ns as f64 / 1e3 / per.max(1) as f64
}

pub fn run(input: &ReplayInput) -> Result<ReplayOut, String> {
    let inputs = input.inputs;
    let schema = &inputs.schema;
    let d = inputs.distinct_windows();
    let window_events = |w: usize| &inputs.pool[w * WINDOW..(w + 1) * WINDOW];
    let window_text = |w: usize| &inputs.pool_text[w * WINDOW..(w + 1) * WINDOW];
    let mut metrics = Vec::new();

    // bexpr: text -> Event, per window.
    let parse_ns: Vec<u64> = (0..d)
        .map(|w| {
            time_median(|| {
                for text in window_text(w) {
                    std::hint::black_box(
                        parser::parse_event(schema, text).expect("pool event parses"),
                    );
                }
            })
        })
        .collect();
    metrics.push((
        "bexpr.parse_event_us",
        us(parse_ns.iter().sum(), d * WINDOW),
    ));

    // server.protocol: one request line per call.
    let requests: Vec<String> = inputs
        .pool_text
        .iter()
        .map(|t| format!("PUB {t}"))
        .collect();
    let t = Instant::now();
    for line in &requests {
        std::hint::black_box(protocol::parse_request(schema, line)?);
    }
    metrics.push((
        "server.protocol.parse_request_us",
        us(t.elapsed().as_nanos() as u64, requests.len()),
    ));

    // server.shard at the serving configuration.
    let serving = ServerConfig::default();
    let engine = ShardedEngine::new(schema, &serving).map_err(|e| e.to_string())?;
    let t = Instant::now();
    engine
        .bulk_restore(&inputs.catalog)
        .map_err(|e| e.to_string())?;
    metrics.push((
        "server.shard.bulk_restore_ms",
        t.elapsed().as_secs_f64() * 1e3,
    ));
    let before = engine.kernel_counters().unwrap_or_default();
    let mut rows = Vec::with_capacity(d);
    let match_ns: Vec<u64> = (0..d)
        .map(|w| {
            let mut out = Vec::new();
            let ns = time_median(|| out = engine.match_window(window_events(w)));
            rows.push(out);
            ns
        })
        .collect();
    let after = engine.kernel_counters().unwrap_or_default();
    let (probes, prunes, hits) = (after.0 - before.0, after.1 - before.1, after.2 - before.2);
    metrics.push((
        "server.shard.match_us_per_event",
        us(match_ns.iter().sum(), d * WINDOW),
    ));
    metrics.push((
        "core.kernel.prune_ratio",
        prunes as f64 / probes.max(1) as f64,
    ));
    metrics.push((
        "core.kernel.hits_per_event",
        hits as f64 / (REPS * d * WINDOW) as f64,
    ));

    // server.protocol rendering: RESULT rows, EVENT notifications.
    let mut event_bytes = 0usize;
    let mut notifications = 0usize;
    let render_result_ns: Vec<u64> = (0..d)
        .map(|w| {
            time_median(|| {
                for (i, row) in rows[w].iter().enumerate() {
                    std::hint::black_box(protocol::render_result(i as u64, row));
                }
            })
        })
        .collect();
    let render_event_ns: Vec<u64> = (0..d)
        .map(|w| {
            let mut bytes = 0;
            let mut n = 0;
            let ns = time_median(|| {
                bytes = 0;
                n = 0;
                for (ev, row) in window_events(w).iter().zip(&rows[w]) {
                    for &id in row {
                        bytes += protocol::render_event_notification(id, ev, schema).len() + 1;
                        n += 1;
                    }
                }
            });
            event_bytes += bytes;
            notifications += n;
            ns
        })
        .collect();
    let all_result_bytes: usize = rows
        .iter()
        .flatten()
        .enumerate()
        .map(|(i, row)| protocol::render_result(i as u64, row).len() + 1)
        .sum();
    metrics.push((
        "server.protocol.render_result_us",
        us(render_result_ns.iter().sum(), d * WINDOW),
    ));
    metrics.push((
        "server.protocol.render_event_us",
        us(render_event_ns.iter().sum(), notifications),
    ));
    let wire_bytes = all_result_bytes + if input.owned { event_bytes } else { 0 };
    metrics.push((
        "server.protocol.bytes_per_event",
        wire_bytes as f64 / (d * WINDOW) as f64,
    ));

    // encoding.summary: the router's first-stage prune.
    let space = engine.summary_space();
    let (_, summary) = engine.summary_snapshot();
    let mut bits = Vec::new();
    let bits_ns: Vec<u64> = (0..d)
        .map(|w| {
            time_median(|| {
                bits = window_events(w)
                    .iter()
                    .map(|ev| space.event_bits(ev))
                    .collect();
            })
        })
        .collect();
    let may_ns = time_median(|| {
        for _ in 0..input.partitions.max(1) {
            std::hint::black_box(space.window_may_match(&summary, &bits));
        }
    });
    let may_us = us(may_ns, input.partitions.max(1));
    metrics.push((
        "encoding.summary.event_bits_us",
        us(bits_ns.iter().sum(), d * WINDOW),
    ));
    metrics.push(("encoding.summary.window_may_match_us", may_us));

    // server.shard and server.persist write paths, on the serving engine.
    let churn = &inputs.churn[..CHURN_OPS.min(inputs.churn.len() / 2)];
    let t = Instant::now();
    for sub in churn {
        engine.subscribe(sub).map_err(|e| e.to_string())?;
    }
    metrics.push((
        "server.shard.subscribe_us",
        us(t.elapsed().as_nanos() as u64, churn.len()),
    ));
    let t = Instant::now();
    for sub in churn {
        engine.unsubscribe(sub.id());
    }
    metrics.push((
        "server.shard.unsubscribe_us",
        us(t.elapsed().as_nanos() as u64, churn.len()),
    ));
    let persist_dir = input.work.join("replay-persist");
    let _ = std::fs::remove_dir_all(&persist_dir);
    {
        let stats = Arc::new(ServerStats::default());
        let (persister, _) = Persister::open(
            PersistConfig::new(&persist_dir),
            schema.clone(),
            stats,
            serving.shards,
        )
        .map_err(|e| format!("opening replay persister: {e}"))?;
        let t = Instant::now();
        for sub in churn {
            persister
                .apply_sub(&engine, sub)
                .map_err(|e| format!("{e:?}"))?;
        }
        metrics.push((
            "server.persist.apply_sub_us",
            us(t.elapsed().as_nanos() as u64, churn.len()),
        ));
        let t = Instant::now();
        for sub in churn {
            persister
                .apply_unsub(&engine, sub.id())
                .map_err(|e| format!("{e:?}"))?;
        }
        metrics.push((
            "server.persist.apply_unsub_us",
            us(t.elapsed().as_nanos() as u64, churn.len()),
        ));
    }
    let _ = std::fs::remove_dir_all(&persist_dir);
    drop(engine);

    // colstore recovery.
    let t = Instant::now();
    let loaded = snapshot::load(input.snapshot_dir, schema)
        .map_err(|e| format!("loading snapshot: {e:?}"))?
        .ok_or("snapshot missing")?;
    metrics.push((
        "server.persist.snapshot_load_ms",
        t.elapsed().as_secs_f64() * 1e3,
    ));
    if loaded.subs.len() != inputs.catalog.len() {
        return Err(format!(
            "snapshot holds {} subscriptions, catalog has {}",
            loaded.subs.len(),
            inputs.catalog.len()
        ));
    }
    drop(loaded);

    // cluster.backend: one window round trip against a live broker.
    let options = ConnectOptions {
        read_timeout: Some(Duration::from_secs(10)),
        ..ConnectOptions::default()
    };
    let mut backend =
        BackendConn::connect(input.backend, &options).map_err(|e| format!("backend dial: {e}"))?;
    let publish_ns: Vec<u64> = (0..d.min(8))
        .map(|w| {
            let lines = window_text(w).to_vec();
            time_median(|| {
                backend
                    .publish_window(&lines)
                    .expect("publish_window against a live broker");
            })
        })
        .collect();
    drop(backend);
    metrics.push((
        "cluster.backend.publish_window_us",
        us(publish_ns.iter().sum(), publish_ns.len()),
    ));

    // The single-threaded baseline: parse + match + render on one
    // sequential shard.
    let single = ServerConfig {
        shards: 1,
        threads_per_shard: Some(1),
        ..ServerConfig::default()
    };
    let engine = ShardedEngine::new(schema, &single).map_err(|e| e.to_string())?;
    engine
        .bulk_restore(&inputs.catalog)
        .map_err(|e| e.to_string())?;
    let t = Instant::now();
    for w in 0..d {
        let events: Vec<_> = window_text(w)
            .iter()
            .map(|text| parser::parse_event(schema, text).expect("pool event parses"))
            .collect();
        for (i, row) in engine.match_window(&events).iter().enumerate() {
            std::hint::black_box(protocol::render_result(i as u64, row));
            if input.owned {
                for &id in row {
                    std::hint::black_box(protocol::render_event_notification(
                        id, &events[i], schema,
                    ));
                }
            }
        }
    }
    metrics.push((
        "trace.replay_eps",
        (d * WINDOW) as f64 / t.elapsed().as_secs_f64(),
    ));
    drop(engine);

    // Spans: each completed closed-loop window is a parent; its replayed
    // layer costs are its children.
    let mut spans = Vec::new();
    let mut child_ns_total = 0u64;
    let mut parents = 0usize;
    for (k, win) in input
        .windows
        .iter()
        .enumerate()
        .filter(|(_, w)| w.end_ns > 0)
    {
        let w = win.distinct;
        let parent = spans.len() as u32;
        spans.push(Span {
            id: parent,
            parent: None,
            window: k as u32,
            name: "gen.window",
            start_ns: win.start_ns,
            end_ns: win.end_ns,
        });
        let mut children = vec![
            ("bexpr.parse_event", parse_ns[w]),
            ("server.shard.match_window", match_ns[w]),
            ("server.protocol.render_result", render_result_ns[w]),
        ];
        if input.owned {
            children.push(("server.protocol.render_event", render_event_ns[w]));
        }
        if input.routed {
            children.push((
                "encoding.summary",
                bits_ns[w] + (may_us * 1e3) as u64 * input.partitions as u64,
            ));
        }
        let mut at = win.start_ns;
        for (name, ns) in children {
            spans.push(Span {
                id: spans.len() as u32,
                parent: Some(parent),
                window: k as u32,
                name,
                start_ns: at,
                end_ns: at + ns,
            });
            at += ns;
            child_ns_total += ns;
        }
        parents += 1;
    }
    let child_us_per_event = child_ns_total as f64 / 1e3 / (parents * WINDOW).max(1) as f64;
    Ok(ReplayOut {
        metrics,
        spans,
        child_us_per_event,
    })
}

/// Spans whose children leave their parent's interval or whose parent's
/// self time would be negative.
pub fn nesting_violations(spans: &[Span]) -> usize {
    let mut bad = 0;
    for parent in spans.iter().filter(|s| s.parent.is_none()) {
        let children: Vec<&Span> = spans
            .iter()
            .filter(|s| s.parent == Some(parent.id))
            .collect();
        let inside = children.iter().all(|c| {
            c.start_ns >= parent.start_ns && c.end_ns <= parent.end_ns && c.start_ns <= c.end_ns
        });
        let covered: u64 = children.iter().map(|c| c.end_ns - c.start_ns).sum();
        if !inside || covered > parent.end_ns.saturating_sub(parent.start_ns) {
            bad += 1;
        }
    }
    bad
}

/// Spans as JSON lines.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{parent},\"window\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id, s.window, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            window: 0,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_pass_and_escaping_ones_fail() {
        let good = vec![
            span(0, None, 100, 200),
            span(1, Some(0), 100, 150),
            span(2, Some(0), 150, 190),
        ];
        assert_eq!(nesting_violations(&good), 0);
        let escapes = vec![span(0, None, 100, 200), span(1, Some(0), 150, 250)];
        assert_eq!(nesting_violations(&escapes), 1);
        let overfull = vec![
            span(0, None, 100, 200),
            span(1, Some(0), 100, 180),
            span(2, Some(0), 100, 180),
        ];
        assert_eq!(nesting_violations(&overfull), 1);
    }
}
