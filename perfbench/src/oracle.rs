//! Correctness: every `RESULT` row against a sequential scan of the live
//! catalog, every `EVENT` notification against the rows, and a tally of
//! each kind of failure.

use crate::load::{ChurnLog, PubLog, Sent};
use crate::workloads::{Inputs, CHURN_ID_BASE};
use apcm_baselines::SequentialScan;
use apcm_bexpr::{Event, Matcher, Subscription};
use std::collections::HashMap;

/// Expected row (sorted ids) of every pool event over `catalog`, computed
/// with the sequential-scan baseline on two threads.
pub fn expected_rows(catalog: &[Subscription], pool: &[Event]) -> Vec<Vec<u32>> {
    let scan = SequentialScan::new(catalog);
    let half = pool.len().div_ceil(2);
    std::thread::scope(|scope| {
        let parts: Vec<_> = pool
            .chunks(half.max(1))
            .map(|part| {
                let scan = &scan;
                scope.spawn(move || {
                    part.iter()
                        .map(|ev| scan.match_event(ev).iter().map(|id| id.0).collect())
                        .collect::<Vec<Vec<u32>>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    })
}

/// A parsed `RESULT <seq> <n> [ids] [partial]` line, or `None` when the
/// line is malformed.
pub fn parse_result(line: &[u8]) -> Option<(u64, Vec<u32>, bool)> {
    let text = std::str::from_utf8(line).ok()?.strip_prefix("RESULT ")?;
    let mut parts = text.split(' ');
    let seq = parts.next()?.parse().ok()?;
    let n: usize = parts.next()?.parse().ok()?;
    let mut ids = Vec::with_capacity(n);
    let mut partial = false;
    for part in parts {
        if part == "partial" {
            partial = true;
        } else if ids.is_empty() && !partial {
            for id in part.split(',') {
                ids.push(id.parse().ok()?);
            }
        } else {
            return None;
        }
    }
    (ids.len() == n).then_some((seq, ids, partial))
}

/// Failure counts by kind; each counts against `attempted`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub err_replies: u64,
    pub timeouts: u64,
    pub partial_rows: u64,
    pub oracle_mismatches: u64,
    pub events_missing: u64,
    pub events_unexpected: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.err_replies
            + self.timeouts
            + self.partial_rows
            + self.oracle_mismatches
            + self.events_missing
            + self.events_unexpected
    }

    pub fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.err_replies += o.err_replies;
        self.timeouts += o.timeouts;
        self.partial_rows += o.partial_rows;
        self.oracle_mismatches += o.oracle_mismatches;
        self.events_missing += o.events_missing;
        self.events_unexpected += o.events_unexpected;
    }

    /// Wrong answers, as opposed to missing ones.
    pub fn incorrect(&self) -> u64 {
        self.oracle_mismatches + self.events_unexpected
    }
}

/// How a row must look for one published event.
pub trait RowCheck {
    fn accepts(&self, sent: &Sent, recv_ns: u64, ids: &[u32]) -> bool;
}

/// Static catalog: the row equals the oracle row of the pool event.
pub struct Exact<'a>(pub &'a [Vec<u32>]);

impl RowCheck for Exact<'_> {
    fn accepts(&self, sent: &Sent, _recv_ns: u64, ids: &[u32]) -> bool {
        self.0[sent.pool as usize] == ids
    }
}

/// A base catalog plus churned ids whose liveness is known only from the
/// acknowledged churn: the base part must equal the oracle row; a churned
/// id must appear if it was acked live before the event was sent and not
/// unsubscribed before the row arrived, may appear if it was live at some
/// point in between, and must not appear otherwise. Any churned id in the
/// row must match the event.
pub struct WithChurn<'a> {
    pub base: &'a [Vec<u32>],
    pub inputs: &'a Inputs,
    /// Per churn expression: (SUB sent, SUB acked, UNSUB sent, UNSUB
    /// acked); `u64::MAX` when that never happened.
    pub life: Vec<[u64; 4]>,
}

impl<'a> WithChurn<'a> {
    pub fn new(base: &'a [Vec<u32>], inputs: &'a Inputs, churn: &ChurnLog) -> Self {
        let mut life = vec![[u64::MAX; 4]; inputs.churn.len()];
        for op in &churn.ops {
            let slot = &mut life[op.churn as usize];
            let (sent, acked) = if op.sub { (0, 1) } else { (2, 3) };
            slot[sent] = op.sent_ns;
            if op.ok {
                slot[acked] = op.ack_ns;
            }
        }
        WithChurn { base, inputs, life }
    }
}

impl RowCheck for WithChurn<'_> {
    fn accepts(&self, sent: &Sent, recv_ns: u64, ids: &[u32]) -> bool {
        let split = ids.partition_point(|&id| id < CHURN_ID_BASE);
        if self.base[sent.pool as usize] != ids[..split] {
            return false;
        }
        let event = &self.inputs.pool[sent.pool as usize];
        let churned = &ids[split..];
        for &id in churned {
            let Some(life) = self.life.get((id - CHURN_ID_BASE) as usize) else {
                return false;
            };
            let possibly_live = life[0] < recv_ns && life[3] > sent.sent_ns;
            if !possibly_live || !self.inputs.churn[(id - CHURN_ID_BASE) as usize].matches(event) {
                return false;
            }
        }
        self.life.iter().enumerate().all(|(i, life)| {
            let surely_live = life[1] <= sent.sent_ns && life[2] >= recv_ns;
            !surely_live
                || !self.inputs.churn[i].matches(event)
                || churned.binary_search(&(CHURN_ID_BASE + i as u32)).is_ok()
        })
    }
}

/// Checks one publishing phase's rows; returns `(seq, ids)` of every
/// accepted row so notifications can be checked against them.
pub fn check_pub(log: &PubLog, check: &dyn RowCheck, tally: &mut Tally) -> Vec<(usize, Vec<u32>)> {
    tally.attempted += log.sent.len() as u64;
    tally.err_replies += log.errors.len() as u64;
    let mut seen = vec![false; log.sent.len()];
    let mut rows = Vec::with_capacity(log.replies.len());
    for (recv_ns, line) in &log.replies {
        let Some((seq, ids, partial)) = parse_result(line) else {
            tally.oracle_mismatches += 1;
            continue;
        };
        let index = seq.wrapping_sub(log.seq0) as usize;
        if index >= seen.len() || seen[index] {
            tally.oracle_mismatches += 1;
            continue;
        }
        seen[index] = true;
        if partial {
            tally.partial_rows += 1;
        } else if !check.accepts(&log.sent[index], *recv_ns, &ids) {
            tally.oracle_mismatches += 1;
        } else {
            rows.push((index, ids));
        }
    }
    tally.timeouts += seen.iter().filter(|s| !**s).count() as u64;
    rows
}

/// Checks the `EVENT` lines a subscriber connection received against the
/// rows answered to the publisher: one notification per (matched id,
/// event) for every id the subscriber owns.
pub fn check_events(
    inputs: &Inputs,
    answered: &[(u32, Vec<u32>)],
    owned: impl Fn(u32) -> bool,
    lines: &[Vec<u8>],
    tally: &mut Tally,
) {
    let by_text: HashMap<&str, u32> = inputs
        .pool_text
        .iter()
        .enumerate()
        .map(|(i, t)| (t.as_str(), i as u32))
        .collect();
    let mut balance: HashMap<(u32, u32), i64> = HashMap::new();
    for (pool, ids) in answered {
        for &id in ids.iter().filter(|&&id| owned(id)) {
            *balance.entry((id, *pool)).or_default() += 1;
            tally.attempted += 1;
        }
    }
    for line in lines {
        let parsed = std::str::from_utf8(line)
            .ok()
            .and_then(|t| t.strip_prefix("EVENT "))
            .and_then(|t| t.split_once(' '))
            .and_then(|(id, text)| Some((id.parse::<u32>().ok()?, *by_text.get(text)?)));
        match parsed {
            Some(key) => *balance.entry(key).or_default() -= 1,
            None => tally.events_unexpected += 1,
        }
    }
    for v in balance.values() {
        if *v > 0 {
            tally.events_missing += *v as u64;
        } else {
            tally.events_unexpected += (-*v) as u64;
        }
    }
}

/// Tallies a churn phase: every command is attempted; `-ERR` and
/// unanswered ones fail.
pub fn check_churn(log: &ChurnLog, tally: &mut Tally) {
    tally.attempted += log.ops.len() as u64;
    tally.err_replies += log.ops.iter().filter(|o| o.ack_ns != 0 && !o.ok).count() as u64;
    tally.timeouts += log.ops.iter().filter(|o| o.ack_ns == 0).count() as u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::Sent;
    use crate::workloads::{find, Inputs};

    fn tiny() -> Inputs {
        Inputs::generate(find("fanout-routed").unwrap(), 3, 0.01, 1.0)
    }

    fn log_for(inputs: &Inputs, rows: &[Vec<u32>], n: usize) -> PubLog {
        let mut log = PubLog::default();
        for (i, row) in rows.iter().enumerate().take(n) {
            log.sent.push(Sent {
                pool: i as u32,
                due_ns: 0,
                sent_ns: 0,
            });
            let ids: Vec<String> = row.iter().map(u32::to_string).collect();
            let mut line = format!("RESULT {i} {}", ids.len());
            if !ids.is_empty() {
                line.push(' ');
                line.push_str(&ids.join(","));
            }
            log.replies.push((1, line.into_bytes()));
        }
        assert!(n <= inputs.pool.len());
        log
    }

    #[test]
    fn parses_result_lines() {
        assert_eq!(parse_result(b"RESULT 7 0"), Some((7, vec![], false)));
        assert_eq!(
            parse_result(b"RESULT 7 2 3,9"),
            Some((7, vec![3, 9], false))
        );
        assert_eq!(
            parse_result(b"RESULT 7 1 3 partial"),
            Some((7, vec![3], true))
        );
        assert_eq!(parse_result(b"RESULT 7 0 partial"), Some((7, vec![], true)));
        assert_eq!(parse_result(b"RESULT 7 2 3"), None);
        assert_eq!(parse_result(b"RESULT x 0"), None);
    }

    #[test]
    fn oracle_accepts_true_rows_and_rejects_a_corrupted_one() {
        let inputs = tiny();
        let rows = expected_rows(&inputs.catalog, &inputs.pool);
        assert!(
            rows.iter().any(|r| !r.is_empty()),
            "tiny workload must match something"
        );
        let n = 64;
        let mut tally = Tally::default();
        check_pub(&log_for(&inputs, &rows, n), &Exact(&rows), &mut tally);
        assert_eq!(tally.failed(), 0);
        assert_eq!(tally.attempted, n as u64);

        let mut corrupted = rows.clone();
        let victim = corrupted.iter().position(|r| !r.is_empty()).unwrap() % n;
        corrupted[victim].pop();
        let mut tally = Tally::default();
        check_pub(&log_for(&inputs, &corrupted, n), &Exact(&rows), &mut tally);
        assert_eq!(tally.oracle_mismatches, 1);
        assert_eq!(tally.incorrect(), 1);
    }

    #[test]
    fn missing_replies_are_timeouts_and_duplicates_mismatch() {
        let inputs = tiny();
        let rows = expected_rows(&inputs.catalog, &inputs.pool[..8]);
        let mut log = log_for(&inputs, &rows, 8);
        log.replies.remove(3);
        let dup = log.replies[0].clone();
        log.replies.push(dup);
        let mut tally = Tally::default();
        check_pub(&log, &Exact(&rows), &mut tally);
        assert_eq!(tally.timeouts, 1);
        assert_eq!(tally.oracle_mismatches, 1);
    }

    #[test]
    fn notifications_balance_against_rows() {
        let inputs = tiny();
        let answered = vec![(0u32, vec![1, 2]), (1u32, vec![2])];
        let line =
            |id: u32, pool: usize| format!("EVENT {id} {}", inputs.pool_text[pool]).into_bytes();
        let mut tally = Tally::default();
        let lines = vec![line(1, 0), line(2, 0), line(9, 1)];
        check_events(&inputs, &answered, |_| true, &lines, &mut tally);
        assert_eq!(tally.attempted, 3);
        assert_eq!(tally.events_missing, 1); // (2, event 1) never came
        assert_eq!(tally.events_unexpected, 1); // (9, event 1) was never matched
    }

    #[test]
    fn churned_ids_follow_acknowledged_liveness() {
        let inputs = tiny();
        let base = expected_rows(&inputs.catalog, &inputs.pool);
        // Find a churn expression and a pool event it matches.
        let (c, pool) = inputs
            .churn
            .iter()
            .enumerate()
            .find_map(|(c, s)| {
                inputs
                    .pool
                    .iter()
                    .position(|e| s.matches(e))
                    .map(|p| (c, p))
            })
            .expect("some churned expression matches some event");
        let id = CHURN_ID_BASE + c as u32;
        let mut churn = ChurnLog::default();
        churn.ops.push(crate::load::ChurnOp {
            churn: c as u32,
            sub: true,
            sent_ns: 10,
            ack_ns: 20,
            ok: true,
            warmup: true,
        });
        let check = WithChurn::new(&base, &inputs, &churn);
        let with = |extra: bool| {
            let mut ids = base[pool].clone();
            if extra {
                ids.push(id);
            }
            ids
        };
        let sent = |at: u64| Sent {
            pool: pool as u32,
            due_ns: at,
            sent_ns: at,
        };
        // Acked before the send: must be present.
        assert!(check.accepts(&sent(30), 40, &with(true)));
        assert!(!check.accepts(&sent(30), 40, &with(false)));
        // In flight during the read: either answer is fine.
        assert!(check.accepts(&sent(15), 40, &with(true)));
        assert!(check.accepts(&sent(15), 40, &with(false)));
        // Subscribed only after the row arrived: must be absent.
        assert!(!check.accepts(&sent(1), 5, &with(true)));
    }
}
