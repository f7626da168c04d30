//! The load generator. It writes pre-rendered bytes and reads lines over
//! plain `std` sockets; nothing here calls into the program's crates, so a
//! change to the broker's client or I/O code cannot change the offered
//! load. At most two threads drive at most two connections.

use crate::workloads::{Inputs, IN_FLIGHT, WINDOW};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long any single reply may take before the request counts as
/// timed out.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Monotonic nanoseconds since the run started; shared by both threads.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Reads newline-terminated lines, keeping a partial line across read
/// timeouts.
pub struct LineReader {
    reader: BufReader<TcpStream>,
    line: Vec<u8>,
    complete: bool,
}

impl LineReader {
    /// The next complete line without its newline, or `None` when the
    /// socket's read timeout expired (or, non-blocking, no data was
    /// ready). EOF is an error.
    pub fn next(&mut self) -> io::Result<Option<&[u8]>> {
        if self.complete {
            self.line.clear();
            self.complete = false;
        }
        match self.reader.read_until(b'\n', &mut self.line) {
            Ok(_) if self.line.last() == Some(&b'\n') => {
                self.line.pop();
                self.complete = true;
                Ok(Some(&self.line))
            }
            Ok(_) => Err(io::Error::new(
                ErrorKind::UnexpectedEof,
                "connection closed",
            )),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(None),
            Err(e) => Err(e),
        }
    }

    pub fn set_timeout(&self, timeout: Duration) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(Some(timeout))
    }
}

/// One client connection: a write half and a line-reading half.
pub struct Conn {
    pub w: TcpStream,
    pub r: LineReader,
}

impl Conn {
    pub fn open(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let reader = BufReader::with_capacity(1 << 16, stream.try_clone()?);
        Ok(Conn {
            w: stream,
            r: LineReader {
                reader,
                line: Vec::new(),
                complete: false,
            },
        })
    }
}

/// A reply line and when it was read.
pub type Reply = (u64, Vec<u8>);

/// One published event: which pool event, when it was due and sent.
#[derive(Clone, Copy, Debug)]
pub struct Sent {
    pub pool: u32,
    pub due_ns: u64,
    pub sent_ns: u64,
}

/// A closed-loop `BATCH` window: its distinct-window id and round trip.
#[derive(Clone, Copy, Debug)]
pub struct WindowSpan {
    pub distinct: usize,
    pub start_ns: u64,
    /// 0 when the window never completed.
    pub end_ns: u64,
}

/// Everything one publishing phase sent and received on its connection.
#[derive(Default)]
pub struct PubLog {
    /// Connection seq of `sent[0]`.
    pub seq0: u64,
    pub sent: Vec<Sent>,
    pub replies: Vec<Reply>,
    /// `-ERR` lines and anything else that is not a `RESULT`, an `EVENT`
    /// or a `+OK` acknowledgement.
    pub errors: Vec<Vec<u8>>,
    pub windows: Vec<WindowSpan>,
    pub start_ns: u64,
    /// When the last answer arrived.
    pub end_ns: u64,
}

impl PubLog {
    pub fn answered(&self) -> usize {
        self.replies.len()
    }
}

/// Leading decimal number after `prefix` in `line`.
pub fn number_after(line: &[u8], prefix: &[u8]) -> Option<u64> {
    let rest = line.strip_prefix(prefix)?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()
}

/// Flow control of a closed loop whose events notify a subscriber
/// connection: a window goes out only while that connection has at most
/// `budget` notifications unread, the window's own included (or none at
/// all, for a window that alone exceeds the budget). With the budget at
/// the router's per-connection queue capacity, a subscriber that keeps
/// reading is never a slow consumer.
pub struct Flow {
    /// `EVENT` lines the subscriber connection has read so far.
    pub received: Arc<AtomicUsize>,
    /// Notifications each distinct window causes.
    pub per_window: Vec<usize>,
    pub budget: usize,
    /// Notifications caused by every window sent so far.
    pub promised: usize,
}

/// Longest a closed loop waits for unread notifications before it counts
/// them as lost (the oracle reports them) and sends on.
const FLOW_WAIT: Duration = Duration::from_secs(1);

impl Flow {
    fn admits(&self, distinct: usize) -> bool {
        let unread = self
            .promised
            .saturating_sub(self.received.load(Ordering::Acquire));
        unread == 0 || unread + self.per_window[distinct] <= self.budget
    }

    /// Waits until `distinct` may go out.
    fn wait(&mut self, distinct: usize) {
        let start = Instant::now();
        while !self.admits(distinct) {
            if start.elapsed() > FLOW_WAIT {
                self.promised = self.received.load(Ordering::Acquire);
                return;
            }
            std::thread::sleep(Duration::from_micros(20));
        }
    }
}

/// Closed loop: keeps `IN_FLIGHT` `BATCH` windows outstanding (fewer when
/// `flow` holds them back) until `until_ns`, then drains. Window `w`
/// carries distinct window `(first_window + w) % D`.
pub fn closed_loop(
    conn: &mut Conn,
    inputs: &Inputs,
    seq0: u64,
    first_window: usize,
    clock: &Clock,
    until_ns: u64,
    mut flow: Option<&mut Flow>,
) -> io::Result<PubLog> {
    let d = inputs.distinct_windows();
    let mut log = PubLog {
        seq0,
        start_ns: clock.ns(),
        ..PubLog::default()
    };
    let mut remaining: Vec<usize> = Vec::new();
    let mut in_flight = 0;
    conn.r.set_timeout(REPLY_TIMEOUT)?;
    loop {
        while in_flight < IN_FLIGHT && clock.ns() < until_ns {
            let distinct = (first_window + log.windows.len()) % d;
            if let Some(f) = flow.as_deref_mut() {
                if in_flight > 0 && !f.admits(distinct) {
                    break;
                }
                f.wait(distinct);
                f.promised += f.per_window[distinct];
            }
            let now = clock.ns();
            conn.w.write_all(&inputs.batch_frames[distinct])?;
            for i in 0..WINDOW {
                log.sent.push(Sent {
                    pool: (distinct * WINDOW + i) as u32,
                    due_ns: now,
                    sent_ns: now,
                });
            }
            log.windows.push(WindowSpan {
                distinct,
                start_ns: now,
                end_ns: 0,
            });
            remaining.push(WINDOW);
            in_flight += 1;
        }
        if in_flight == 0 {
            break;
        }
        // A timeout leaves the rest unanswered; the oracle counts them.
        let Some(line) = conn.r.next()? else {
            break;
        };
        let at = clock.ns();
        if let Some(seq) = number_after(line, b"RESULT ") {
            let w = seq.wrapping_sub(seq0) as usize / WINDOW;
            if let Some(left) = remaining.get_mut(w).filter(|l| **l > 0) {
                *left -= 1;
                if *left == 0 {
                    log.windows[w].end_ns = at;
                    in_flight -= 1;
                }
            }
            log.end_ns = at;
            log.replies.push((at, line.to_vec()));
        } else if !line.starts_with(b"+OK") {
            log.errors.push(line.to_vec());
        }
    }
    Ok(log)
}

/// The fixed-rate schedule of an open-loop phase: single `PUB`s of pool
/// events `first_pool..`, event `i` due at `start_ns + i / rate`.
pub struct OpenSchedule {
    pub first_pool: usize,
    pub rate: f64,
    pub start_ns: u64,
    pub count: usize,
}

impl OpenSchedule {
    pub fn due_ns(&self, i: usize) -> u64 {
        self.start_ns + (i as f64 * 1e9 / self.rate) as u64
    }

    pub fn end_ns(&self) -> u64 {
        self.due_ns(self.count)
    }
}

/// Longest nap between polls of an open loop: bounds how late a send or
/// a reply timestamp can be, beyond scheduling delay.
const OPEN_NAP: Duration = Duration::from_micros(100);

/// Open loop on one connection from one thread: sends each `PUB` when it
/// is due, whether or not earlier ones were answered, and reads replies
/// in between (non-blocking, napping at most [`OPEN_NAP`]), until every
/// event is answered or [`REPLY_TIMEOUT`] passed after the last send.
pub fn open_loop(
    conn: &mut Conn,
    inputs: &Inputs,
    sched: &OpenSchedule,
    seq0: u64,
    clock: &Clock,
) -> io::Result<PubLog> {
    let mut log = PubLog {
        seq0,
        start_ns: sched.start_ns,
        ..PubLog::default()
    };
    conn.w.set_nonblocking(true)?;
    let result = (|| -> io::Result<()> {
        loop {
            while let Some(line) = conn.r.next()? {
                let at = clock.ns();
                if line.starts_with(b"RESULT ") {
                    log.end_ns = at;
                    log.replies.push((at, line.to_vec()));
                } else if !line.starts_with(b"+OK") && !line.starts_with(b"EVENT ") {
                    log.errors.push(line.to_vec());
                }
            }
            if log.replies.len() >= sched.count {
                return Ok(());
            }
            let now = clock.ns();
            let nap = if log.sent.len() < sched.count {
                let i = log.sent.len();
                let due_ns = sched.due_ns(i);
                if now >= due_ns {
                    let pool = (sched.first_pool + i) % inputs.pub_lines.len();
                    write_all_nonblocking(&mut conn.w, &inputs.pub_lines[pool])?;
                    log.sent.push(Sent {
                        pool: pool as u32,
                        due_ns,
                        sent_ns: now,
                    });
                    continue;
                }
                Duration::from_nanos(due_ns - now).min(OPEN_NAP)
            } else {
                let last = log.sent.last().map_or(now, |s| s.sent_ns);
                if now - last > REPLY_TIMEOUT.as_nanos() as u64 {
                    return Ok(());
                }
                OPEN_NAP
            };
            std::thread::sleep(nap);
        }
    })();
    conn.w.set_nonblocking(false)?;
    result.map(|()| log)
}

fn write_all_nonblocking(w: &mut TcpStream, mut bytes: &[u8]) -> io::Result<()> {
    while !bytes.is_empty() {
        match w.write(bytes) {
            Ok(0) => return Err(io::Error::new(ErrorKind::WriteZero, "connection closed")),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(OPEN_NAP),
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// A subscriber connection whose `EVENT` lines are collected raw (parsed
/// only after the timed phases).
pub struct Drain {
    pub conn: Conn,
    pub lines: Vec<Vec<u8>>,
    /// `EVENT` lines read so far, for [`Flow`].
    pub received: Arc<AtomicUsize>,
}

/// Read timeout of the subscriber connection: how long a drain blocks
/// for a line before it looks at its stop flag.
pub const DRAIN_TIMEOUT: Duration = Duration::from_millis(1);

impl Drain {
    pub fn new(conn: Conn) -> io::Result<Drain> {
        conn.r.set_timeout(DRAIN_TIMEOUT)?;
        Ok(Drain {
            conn,
            lines: Vec::new(),
            received: Arc::new(AtomicUsize::new(0)),
        })
    }

    /// Collects lines until none arrives for [`DRAIN_TIMEOUT`].
    pub fn poll(&mut self) -> io::Result<usize> {
        let mut n = 0;
        while let Some(line) = self.conn.r.next()? {
            if line.starts_with(b"EVENT ") {
                self.received.fetch_add(1, Ordering::Release);
            }
            self.lines.push(line.to_vec());
            n += 1;
        }
        Ok(n)
    }

    /// Drains until `stop` is raised.
    pub fn until(&mut self, stop: &AtomicBool) -> io::Result<()> {
        while !stop.load(Ordering::Acquire) {
            self.poll()?;
        }
        self.poll().map(|_| ())
    }

    /// Drains until `want` lines are in or nothing arrived for `quiet`.
    pub fn settle(&mut self, want: usize, quiet: Duration) -> io::Result<()> {
        let mut last = Instant::now();
        while self.lines.len() < want && last.elapsed() < quiet {
            if self.poll()? > 0 {
                last = Instant::now();
            } else {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Ok(())
    }
}

/// One churn command: which churn expression, SUB or UNSUB, and when it
/// was sent and answered (`ack_ns` 0 when it never was; `ok` false for an
/// `-ERR`).
#[derive(Clone, Copy, Debug)]
pub struct ChurnOp {
    pub churn: u32,
    pub sub: bool,
    pub sent_ns: u64,
    pub ack_ns: u64,
    pub ok: bool,
    /// Issued before the timed phase (fills the live set).
    pub warmup: bool,
}

#[derive(Default)]
pub struct ChurnLog {
    pub ops: Vec<ChurnOp>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl ChurnLog {
    pub fn timed(&self) -> impl Iterator<Item = &ChurnOp> {
        self.ops.iter().filter(|o| !o.warmup)
    }
}

fn churn_one(
    conn: &mut Conn,
    line: &[u8],
    op: ChurnOp,
    clock: &Clock,
    log: &mut ChurnLog,
) -> io::Result<bool> {
    let mut op = ChurnOp {
        sent_ns: clock.ns(),
        ..op
    };
    conn.w.write_all(line)?;
    loop {
        let Some(reply) = conn.r.next()? else {
            log.ops.push(op);
            return Ok(false);
        };
        // Notifications for churned ids matched by concurrent reads.
        if reply.starts_with(b"EVENT ") || reply.starts_with(b"RESULT ") {
            continue;
        }
        op.ack_ns = clock.ns();
        op.ok = reply.starts_with(b"+OK");
        log.ops.push(op);
        return Ok(true);
    }
}

/// Fills the live set: SUBs the first `live` churn expressions, before
/// the timed churn starts.
pub fn churn_fill(
    conn: &mut Conn,
    inputs: &Inputs,
    live: usize,
    clock: &Clock,
) -> io::Result<ChurnLog> {
    let mut log = ChurnLog::default();
    conn.r.set_timeout(REPLY_TIMEOUT)?;
    for j in 0..live {
        if !churn_one(
            conn,
            &inputs.churn_sub_lines[j],
            op(j, true, true),
            clock,
            &mut log,
        )? {
            break;
        }
    }
    Ok(log)
}

fn op(churn: usize, sub: bool, warmup: bool) -> ChurnOp {
    ChurnOp {
        churn: churn as u32,
        sub,
        sent_ns: 0,
        ack_ns: 0,
        ok: false,
        warmup,
    }
}

/// Closed-loop churn with up to `depth` commands outstanding
/// after [`churn_fill`]: alternates UNSUB of the oldest live churned id and
/// SUB of the next, holding the live set steady, until `until_ns`. Once
/// half the commands are answered, the other half goes out in one write.
/// Replies come back in order, so the oldest outstanding command owns
/// each ack.
pub fn churn_loop(
    conn: &mut Conn,
    inputs: &Inputs,
    live: usize,
    clock: &Clock,
    until_ns: u64,
    depth: usize,
    log: &mut ChurnLog,
) -> io::Result<()> {
    log.start_ns = clock.ns();
    let ops = 2 * inputs.churn.len().saturating_sub(live);
    let mut next = 0;
    let mut pending: VecDeque<ChurnOp> = VecDeque::with_capacity(depth);
    let mut batch = Vec::new();
    loop {
        if pending.len() <= depth / 2 && clock.ns() < until_ns {
            let now = clock.ns();
            batch.clear();
            while pending.len() < depth && next < ops {
                let (j, sub) = (next / 2, next % 2 == 1);
                let (churn, line) = if sub {
                    (live + j, &inputs.churn_sub_lines[live + j])
                } else {
                    (j, &inputs.churn_unsub_lines[j])
                };
                batch.extend_from_slice(line);
                pending.push_back(ChurnOp {
                    sent_ns: now,
                    ..op(churn, sub, false)
                });
                next += 1;
            }
            conn.w.write_all(&batch)?;
        }
        if pending.is_empty() {
            break;
        }
        // A timeout leaves the outstanding commands unanswered; the
        // oracle counts them.
        let Some(reply) = conn.r.next()? else {
            log.ops.extend(pending.drain(..));
            break;
        };
        // Notifications for churned ids matched by concurrent reads.
        if reply.starts_with(b"EVENT ") || reply.starts_with(b"RESULT ") {
            continue;
        }
        let mut o = pending.pop_front().expect("a command is outstanding");
        o.ack_ns = clock.ns();
        o.ok = reply.starts_with(b"+OK");
        log.ops.push(o);
    }
    log.end_ns = clock.ns();
    Ok(())
}

/// Subscribes the whole catalog through `conn` (pipelined: this thread
/// writes, a second reads the acks). Returns the number of `+OK` acks.
pub fn load_catalog(conn: &mut Conn, inputs: &Inputs) -> io::Result<usize> {
    let n = inputs.catalog_lines.len();
    let Conn { w, r } = conn;
    std::thread::scope(|scope| {
        let reader = scope.spawn(move || -> io::Result<usize> {
            let mut ok = 0;
            for _ in 0..n {
                match r.next()? {
                    Some(line) if line.starts_with(b"+OK") => ok += 1,
                    Some(_) => {}
                    None => return Err(io::Error::new(ErrorKind::TimedOut, "catalog ack")),
                }
            }
            Ok(ok)
        });
        let mut out = io::BufWriter::with_capacity(1 << 16, &*w);
        for line in &inputs.catalog_lines {
            out.write_all(line)?;
        }
        out.flush()?;
        drop(out);
        reader.join().expect("catalog ack reader panicked")
    })
}
