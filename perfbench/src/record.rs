//! Metric definitions, the result line, quantiles, and the run record.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// Reported by an untraced run (`--trace 0`).
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", "lower"),
    def("pub_throughput_eps", "events/s", "higher"),
    def("result_p50_ms", "ms", "lower"),
    def("churn_ops_per_s", "ops/s", "higher"),
    def("churn_ack_p50_us", "us", "lower"),
    def("server_cpu_ms_per_kop", "ms", "lower"),
    def("server_rss_mib", "MiB", "lower"),
];

/// Reported by a traced run (`--trace 1`). A layer absent from a
/// workload's topology reads 0 there. The two tail latencies lead: on a
/// shared 2-vCPU host they moved run to run by more than any bound a
/// regression gate could use, so they are reported without one.
pub const PER_LAYER: &[Def] = &[
    def("result_p99_ms", "ms", "lower"),
    def("churn_ack_p99_us", "us", "lower"),
    def("bexpr.parse_event_us", "us", "lower"),
    def("server.protocol.parse_request_us", "us", "lower"),
    def("server.shard.match_us_per_event", "us", "lower"),
    def("core.kernel.prune_ratio", "fraction", "higher"),
    def("core.kernel.hits_per_event", "count", "lower"),
    def("workload.matches_per_event", "count", "lower"),
    def("server.ingest.events_per_window", "count", "higher"),
    def("server.ingest.queue_depth_max", "count", "lower"),
    def("server.persist.snapshot_load_ms", "ms", "lower"),
    def("server.shard.bulk_restore_ms", "ms", "lower"),
    def("encoding.summary.event_bits_us", "us", "lower"),
    def("encoding.summary.window_may_match_us", "us", "lower"),
    def("cluster.router.fanout_ratio", "fraction", "lower"),
    def("cluster.backend.publish_window_us", "us", "lower"),
    def(
        "cluster.backend.discarded_event_lines_per_event",
        "count",
        "lower",
    ),
    def("server.protocol.render_result_us", "us", "lower"),
    def("server.protocol.render_event_us", "us", "lower"),
    def("server.protocol.bytes_per_event", "bytes", "lower"),
    def("server.delivery.replies_dropped", "count", "lower"),
    def("netio.epoll_wakeups_per_event", "count", "lower"),
    def("netio.outbound_queue_lines_max", "count", "lower"),
    def("server.persist.apply_sub_us", "us", "lower"),
    def("server.persist.apply_unsub_us", "us", "lower"),
    def("server.shard.subscribe_us", "us", "lower"),
    def("server.shard.unsubscribe_us", "us", "lower"),
    def("server.replication.replacks_pipelined", "count", "higher"),
    def("server.replication.lag_records_max", "count", "lower"),
    def("cluster.router.follower_read_ratio", "fraction", "higher"),
    def("cluster.router.floor_fallbacks", "count", "lower"),
    def("server.maintenance.passes", "count", "lower"),
    def("server.maintenance.rebuilt", "count", "lower"),
    def("cpu.ingest_ms", "ms/kop", "lower"),
    def("cpu.netio_ms", "ms/kop", "lower"),
    def("cpu.router_reader_ms", "ms/kop", "lower"),
    def("cpu.router_writer_ms", "ms/kop", "lower"),
    def("cpu.replica_ms", "ms/kop", "lower"),
    def("cpu.exited_threads_ms", "ms/kop", "lower"),
    def("trace.replay_eps", "events/s", "higher"),
    def("trace.unattributed_us_per_event", "us", "lower"),
    def("trace.overhead_pct", "%", "lower"),
    def("gen.lateness_p99_ms", "ms", "lower"),
    def("gen.invalid_setups", "count", "lower"),
    def("host.steal_pct", "%", "lower"),
    def("host.disturbed_setups", "count", "lower"),
    def("fixture.prep_s", "s", "lower"),
    def("failed_op_ratio", "fraction", "lower"),
    def("failed.err_replies", "count", "lower"),
    def("failed.timeouts", "count", "lower"),
    def("failed.partial_rows", "count", "lower"),
    def("failed.oracle_mismatches", "count", "lower"),
    def("failed.events_missing", "count", "lower"),
    def("failed.events_unexpected", "count", "lower"),
];

pub fn defs(trace: bool) -> &'static [Def] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Nearest-rank quantile of unsorted samples (0 when empty).
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// The mean of the middle half of `samples` (a quarter dropped from each
/// end, rounded down): steadier than the median over a handful of
/// samples, and as deaf to one outlier at either end once there are four.
pub fn middle_mean(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let cut = samples.len() / 4;
    let middle = &samples[cut..samples.len() - cut];
    // `+ 0.0` turns the -0.0 of an empty float sum into 0.
    middle.iter().sum::<f64>() / middle.len() as f64 + 0.0
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn num(v: f64) -> String {
    if v.is_finite() {
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        format!("{}", v + 0.0)
    } else {
        "0".to_string()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// every metric of `defs`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[Def],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, d) in defs.iter().enumerate() {
        let v = values.get(d.name).copied().unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            num(v),
            d.unit
        );
    }
    out.push_str("}}");
    out
}

/// A small JSON reader, enough for `BENCHMARK.json` and the run record.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing data at byte {}", p.i));
        }
        Ok(v)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => &[],
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(|b| b.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        let err = |p: &Self| format!("bad JSON at byte {}", p.i);
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.eat("}") {
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let Json::Str(key) = self.value()? else {
                        return Err(err(self));
                    };
                    self.ws();
                    if !self.eat(":") {
                        return Err(err(self));
                    }
                    fields.push((key, self.value()?));
                    self.ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(fields));
                    }
                    if !self.eat(",") {
                        return Err(err(self));
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(",") {
                        return Err(err(self));
                    }
                }
            }
            Some(b'"') => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    match self.s.get(self.i) {
                        None => return Err(err(self)),
                        Some(b'"') => {
                            self.i += 1;
                            return Ok(Json::Str(out));
                        }
                        Some(b'\\') => {
                            let c = *self.s.get(self.i + 1).ok_or_else(|| err(self))?;
                            out.push(match c {
                                b'n' => '\n',
                                b't' => '\t',
                                other => other as char,
                            });
                            self.i += 2;
                        }
                        Some(_) => {
                            let rest =
                                std::str::from_utf8(&self.s[self.i..]).map_err(|_| err(self))?;
                            let c = rest.chars().next().expect("non-empty");
                            out.push(c);
                            self.i += c.len_utf8();
                        }
                    }
                }
            }
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| err(self))
            }
            None => Err(err(self)),
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// What one run records about itself.
pub struct RunMeta<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub trace: bool,
    pub seconds: u64,
    pub commit: String,
    pub cores: usize,
    pub catalog: usize,
    pub engine: String,
    pub valid: bool,
}

/// Appends this run to `<dir>/runs.jsonl` and rewrites `<dir>/summary.json`:
/// per (workload, trace mode, commit), the valid-run count and each
/// metric's median, quartiles, min and max.
pub fn append_run(
    dir: &Path,
    meta: &RunMeta,
    values: &BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut line = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"commit\": {}, \
         \"cores\": {}, \"catalog\": {}, \"engine\": {}, \"valid\": {}, \"metrics\": {{",
        json_str(meta.workload),
        meta.seed,
        meta.trace,
        meta.seconds,
        json_str(&meta.commit),
        meta.cores,
        meta.catalog,
        json_str(&meta.engine),
        meta.valid
    );
    for (i, (k, v)) in values.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(line, "{sep}{}: {}", json_str(k), num(*v));
    }
    line.push_str("}}\n");
    let runs_path = dir.join("runs.jsonl");
    let mut runs = std::fs::read_to_string(&runs_path).unwrap_or_default();
    runs.push_str(&line);
    std::fs::write(&runs_path, &runs).map_err(|e| e.to_string())?;

    // (workload, trace, commit) -> meta line fields + metric samples.
    type Key = (String, bool, String);
    let mut groups: BTreeMap<Key, (Json, BTreeMap<String, Vec<f64>>)> = BTreeMap::new();
    for text in runs.lines() {
        let Ok(run) = Json::parse(text) else { continue };
        if run.get("valid") != Some(&Json::Bool(true)) {
            continue;
        }
        let key = (
            run.get("workload")
                .and_then(Json::str)
                .unwrap_or("")
                .to_string(),
            run.get("trace") == Some(&Json::Bool(true)),
            run.get("commit")
                .and_then(Json::str)
                .unwrap_or("")
                .to_string(),
        );
        let entry = groups
            .entry(key)
            .or_insert_with(|| (run.clone(), BTreeMap::new()));
        entry.0 = run.clone();
        if let Some(Json::Obj(fields)) = run.get("metrics") {
            for (k, v) in fields {
                entry.1.entry(k.clone()).or_default().extend(v.num());
            }
        }
    }
    let mut out = String::from("[\n");
    for (i, ((workload, trace, commit), (last, samples))) in groups.iter().enumerate() {
        let runs = samples.values().map(Vec::len).max().unwrap_or(0);
        let field = |k: &str| last.get(k).and_then(Json::num).unwrap_or(0.0);
        let _ = write!(
            out,
            "  {{\"workload\": {}, \"trace\": {trace}, \"commit\": {}, \"cores\": {}, \
             \"catalog\": {}, \"seconds\": {}, \"engine\": {}, \"runs\": {runs}, \"metrics\": {{",
            json_str(workload),
            json_str(commit),
            field("cores"),
            field("catalog"),
            field("seconds"),
            json_str(last.get("engine").and_then(Json::str).unwrap_or("")),
        );
        for (j, (name, values)) in samples.iter().enumerate() {
            let mut v = values.clone();
            let sep = if j == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\n    {}: {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"min\": {}, \"max\": {}}}",
                json_str(name),
                num(quantile(&mut v, 0.5)),
                num(quantile(&mut v, 0.25)),
                num(quantile(&mut v, 0.75)),
                num(v[0]),
                num(v[v.len() - 1]),
            );
        }
        let sep = if i + 1 == groups.len() { "" } else { "," };
        let _ = writeln!(out, "}}}}{sep}");
    }
    out.push_str("]\n");
    std::fs::write(dir.join("summary.json"), out).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&mut v, 0.5), 3.0);
        assert_eq!(quantile(&mut v, 0.99), 5.0);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn result_line_round_trips_with_every_metric() {
        let mut values = BTreeMap::new();
        values.insert("setup_s", 1.25);
        let line = result_line(true, 10, 1, END_TO_END, &values);
        let json = Json::parse(&line).unwrap();
        assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(json.get("failed").and_then(Json::num), Some(1.0));
        let Some(Json::Obj(metrics)) = json.get("metrics") else {
            panic!()
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics[0].1.get("value").and_then(Json::num), Some(1.25));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn benchmark_json_matches_the_definitions() {
        let text = include_str!("../../BENCHMARK.json");
        let json = Json::parse(text).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = json.get(key).unwrap().arr();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (entry, d) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").and_then(Json::str), Some(d.name));
                assert_eq!(entry.get("unit").and_then(Json::str), Some(d.unit));
                assert_eq!(entry.get("better").and_then(Json::str), Some(d.better));
            }
        }
        let workloads = json.get("workloads").unwrap().arr();
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name")?.str())
            .collect();
        let ours: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
        for (entry, w) in workloads.iter().zip(crate::workloads::WORKLOADS) {
            assert_eq!(entry.get("why").and_then(Json::str), Some(w.why));
        }
    }
}
