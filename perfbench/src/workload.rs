//! The workloads: their inputs, their client loops and the check of every
//! answer against the generator's ground truth.

use crate::gen::{self, Names, Rng, Write};
use crate::stack::{self, Stack};
use crate::stats;
use crate::trace::{Layer, OpLedger, ServerWindow, TracedIpc, LAYERS};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};
use vio::IoError;
use vkernel::Ipc;
use vproto::{ContextId, ContextPair, OpenMode, Pid, ReplyCode};
use vruntime::{BatchOutcome, Binding, NameClient, Staleness};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's measured operation: open, read and close a file through
    /// `[home]`. Kernel handoff, the client stub and file-server path
    /// walking do the work; the prefix table and sync do almost none.
    OpenRead,
    /// Two clients resolving 256-name batches against a 10⁵-prefix table:
    /// the snapshot probe and batch codec work, and three runnable threads
    /// share two cores.
    ResolveBatch,
}

pub const ALL: [Kind; 2] = [Kind::OpenRead, Kind::ResolveBatch];

/// The writer's open-loop rate: 50 writes/s.
pub const WRITE_PERIOD: Duration = Duration::from_millis(20);
/// The writer triggers a replica sync after this many writes; each
/// segment's writer runs one such window.
pub const SYNC_EVERY: usize = 32;

pub const BATCH: usize = 256;
/// Planted misses per hundred batch names.
const MISS_PERCENT: u64 = 5;
/// Distinct batches each client cycles through, generated before timing.
const BATCH_POOL: usize = 1024;

impl Kind {
    pub fn parse(s: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::OpenRead => "open_read",
            Kind::ResolveBatch => "resolve_batch",
        }
    }

    /// Live prefixes in the table (plus `home` on `open_read`).
    pub fn table_size(self) -> u64 {
        match self {
            Kind::OpenRead => 15,
            Kind::ResolveBatch => 100_000,
        }
    }

    /// Closed-loop readers.
    pub fn readers(self) -> usize {
        match self {
            Kind::OpenRead => 1,
            Kind::ResolveBatch => 2,
        }
    }

    pub fn has_home(self) -> bool {
        self == Kind::OpenRead
    }

    /// Measured segments per run, each on a freshly booted stack. The
    /// kernel places a stack's threads on the two cores once, and a
    /// placement can hold op latency 20% above or below another for the
    /// life of the stack; pooling segments averages over placements. The
    /// boot of each segment is also one `setup_s` sample.
    pub const SEGMENTS: u32 = 10;
}

/// Ground truth for checking answers.
pub struct Truth {
    pub kind: Kind,
    pub names: Names,
    pub fs: Pid,
    pub prefix: Pid,
    pub replica: Pid,
    pub dirs: Vec<ContextId>,
    tree: Vec<Vec<u8>>,
}

impl Truth {
    pub fn new(kind: Kind, seed: u64, stack: &Stack, tree: Vec<Vec<u8>>) -> Arc<Truth> {
        Arc::new(Truth {
            kind,
            names: Names {
                seed,
                size: kind.table_size(),
            },
            fs: stack.fs,
            prefix: stack.prefix,
            replica: stack.replica,
            dirs: stack.dirs.clone(),
            tree,
        })
    }

    fn dir_target(&self, dir: u64) -> ContextPair {
        ContextPair::new(self.fs, self.dirs[dir as usize])
    }
}

/// One reader operation and what it must answer.
pub enum Op {
    Open { path: String, dir: u64, file: u64 },
    Batch(Arc<Batch>),
}

/// Batch names with the table index each must resolve to, `None` for a
/// planted miss.
pub struct Batch {
    names: Vec<String>,
    keys: Vec<Option<u64>>,
}

impl Batch {
    pub fn names(&self) -> &[String] {
        &self.names
    }
}

/// A client's seeded op stream.
pub struct OpGen {
    kind: Kind,
    names: Names,
    rng: Rng,
    pool: Vec<Arc<Batch>>,
    next: usize,
}

impl OpGen {
    pub fn new(kind: Kind, seed: u64, stream: u64) -> OpGen {
        let names = Names {
            seed,
            size: kind.table_size(),
        };
        let mut g = OpGen {
            kind,
            names,
            rng: Rng::new(seed, 0x0e00 + stream),
            pool: Vec::new(),
            next: 0,
        };
        if kind == Kind::ResolveBatch {
            g.pool = (0..BATCH_POOL).map(|_| Arc::new(g.draw_batch())).collect();
        }
        g
    }

    fn draw_batch(&mut self) -> Batch {
        let (names, keys) = (0..BATCH)
            .map(|_| {
                if self.rng.below(100) < MISS_PERCENT {
                    (self.names.miss(self.rng.next_u64() >> 24), None)
                } else {
                    let i = self.rng.below(self.names.size);
                    (self.names.name(i), Some(i))
                }
            })
            .unzip();
        Batch { names, keys }
    }

    pub fn next_op(&mut self) -> Op {
        match self.kind {
            Kind::OpenRead => {
                let dir = self.rng.below(gen::DIRS);
                let file = self.rng.below(gen::FILES_PER_DIR);
                Op::Open {
                    path: format!("[home]{}", gen::file_path(dir, file)),
                    dir,
                    file,
                }
            }
            Kind::ResolveBatch => {
                let b = self.pool[self.next % self.pool.len()].clone();
                self.next += 1;
                Op::Batch(b)
            }
        }
    }
}

/// What an op returned, before checking.
enum Answer {
    Bytes(Vec<u8>),
    Batch(Vec<BatchOutcome>),
}

/// Runs one op. Every handle opened is closed, whatever the read did.
fn exec(nc: &NameClient, ipc: &dyn Ipc, op: &Op) -> Result<Answer, IoError> {
    match op {
        Op::Open { path, .. } => {
            let mut handle = nc.open(path, OpenMode::Read)?;
            let data = handle.read_to_end(ipc);
            let closed = handle.close(ipc);
            let data = data?;
            closed?;
            Ok(Answer::Bytes(data))
        }
        Op::Batch(b) => {
            let refs: Vec<&str> = b.names.iter().map(String::as_str).collect();
            nc.resolve_batch(&refs).map(Answer::Batch)
        }
    }
}

/// FNV-1a fold, for answer checksums.
fn fold(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fold_pair(h: &mut u64, pair: ContextPair) {
    fold(h, &pair.server.raw().to_le_bytes());
    fold(h, &pair.context.raw().to_le_bytes());
}

/// Checks an answer against the ground truth, folding it into `sum`.
/// Returns the number of names the op interpreted.
fn check(truth: &Truth, op: &Op, answer: Answer, sum: &mut u64) -> Result<u64, String> {
    match (op, answer) {
        (Op::Open { path, dir, file }, Answer::Bytes(data)) => {
            fold(sum, &data);
            let want = &truth.tree[(dir * gen::FILES_PER_DIR + file) as usize];
            if &data == want {
                Ok(1)
            } else {
                Err(format!(
                    "{path}: read {} bytes that differ from the {} written",
                    data.len(),
                    want.len()
                ))
            }
        }
        (Op::Batch(b), Answer::Batch(outcomes)) => {
            let Batch { names, keys } = &**b;
            if outcomes.len() != keys.len() {
                return Err(format!(
                    "batch of {} answered {}",
                    keys.len(),
                    outcomes.len()
                ));
            }
            for ((name, key), got) in names.iter().zip(keys).zip(outcomes) {
                match got {
                    BatchOutcome::Bound(b) => {
                        fold_pair(sum, b.target);
                        fold(sum, &[b.staleness as u8]);
                    }
                    BatchOutcome::NotFound => fold(sum, b"-"),
                    BatchOutcome::NoServer => fold(sum, b"?"),
                }
                // The table is a preload nobody has vouched for at the
                // prefix server itself, so hits are served as suspect.
                let want = key.map(|i| {
                    BatchOutcome::Bound(Binding {
                        target: truth.dir_target(truth.names.dir_of(i)),
                        staleness: Staleness::Suspect,
                    })
                });
                let ok = match want {
                    Some(w) => got == w,
                    None => got == BatchOutcome::NotFound,
                };
                if !ok {
                    return Err(format!("batch name {name}: got {got:?}, expected {want:?}"));
                }
            }
            Ok(keys.len() as u64)
        }
        _ => Err("answer of the wrong kind".to_string()),
    }
}

/// What one client measured and found.
#[derive(Debug, Default)]
pub struct ClientOut {
    /// Primary op latencies, microseconds.
    pub lat_us: Vec<f64>,
    pub ledgers: Vec<OpLedger>,
    pub attempted: u64,
    pub failed: u64,
    pub names: u64,
    pub mismatches: Vec<String>,
    pub checksum: u64,
    /// Writer: issue-to-visible latency from each write's due time.
    pub write_us: Vec<f64>,
    /// Writer: how late each write was issued.
    pub lag_us: Vec<f64>,
    pub sync_us: Vec<f64>,
    /// Time the client measured for, after any warm-up.
    pub measured: Duration,
}

const KEEP_MISMATCHES: usize = 5;

impl ClientOut {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.mismatches.len() < KEEP_MISMATCHES {
            self.mismatches.push(what);
        }
    }

    pub fn merge(&mut self, other: ClientOut) {
        self.lat_us.extend(other.lat_us);
        self.ledgers.extend(other.ledgers);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.names += other.names;
        for m in other.mismatches {
            if self.mismatches.len() < KEEP_MISMATCHES {
                self.mismatches.push(m);
            }
        }
        self.checksum ^= other.checksum;
        self.write_us.extend(other.write_us);
        self.lag_us.extend(other.lag_us);
        self.sync_us.extend(other.sync_us);
    }
}

/// When a client loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After `warmup` plus `length`; ops during the warm-up are checked
    /// but not measured.
    Elapsed {
        warmup: Duration,
        length: Duration,
    },
    Ops(u64),
}

/// The share of a segment a reader runs before measuring: long enough for
/// caches to fill and thread start-up to pass.
pub fn warmup(length: Duration) -> Duration {
    length / 20
}

/// A closed-loop reader.
pub fn reader_loop(
    ipc: &dyn Ipc,
    probe: Option<&TracedIpc>,
    truth: &Truth,
    mut ops: OpGen,
    until: Until,
) -> ClientOut {
    let nc = stack::name_client(ipc, truth.fs, truth.prefix);
    let mut out = ClientOut::default();
    let start = Instant::now();
    let (skip, stop) = match until {
        Until::Elapsed { warmup, length } => (warmup, Some(warmup + length)),
        Until::Ops(_) => (Duration::ZERO, None),
    };
    loop {
        let now = start.elapsed();
        let more = match until {
            Until::Elapsed { .. } => stop.is_some_and(|s| now < s),
            Until::Ops(n) => out.attempted < n,
        };
        if !more {
            break;
        }
        let measured = now >= skip;
        let op = ops.next_op();
        if let Some(p) = probe {
            p.begin_op();
        }
        let t = Instant::now();
        let answer = exec(&nc, ipc, &op);
        let took = t.elapsed();
        let ledger = probe.map(TracedIpc::end_op);
        out.attempted += 1;
        let checked = answer
            .map_err(|e| e.to_string())
            .and_then(|a| check(truth, &op, a, &mut out.checksum));
        if let Err(e) = &checked {
            out.fail(e.clone());
        }
        if measured {
            out.lat_us.push(took.as_secs_f64() * 1e6);
            out.ledgers.extend(ledger);
            out.names += checked.unwrap_or(0);
        }
    }
    out.measured = start.elapsed().saturating_sub(skip);
    out
}

/// The open-loop writer: one write every [`WRITE_PERIOD`], each confirmed
/// by the writer's own resolve, and a replica sync every [`SYNC_EVERY`]
/// writes whose adopted and dropped counts are checked. When the schedule
/// ends, one more sync brings the replica level and every written name's
/// final state is checked on it; that check stays off the timed schedule.
pub fn writer_loop(ipc: &dyn Ipc, truth: &Truth, schedule: &[Write]) -> ClientOut {
    let nc = stack::name_client(ipc, truth.fs, truth.prefix);
    let mut out = ClientOut::default();
    // The schedule pauses while the writer runs its own syncs: a sync is
    // the generator's doing, not a stall of the system, and must not read
    // as lateness of the writes after it.
    let mut origin = Instant::now();
    // Names written since the last sync: the write that decides each
    // name's state, and whether the replica held the name live before.
    let mut window: Vec<(&Write, bool)> = Vec::new();
    let mut written: Vec<&Write> = Vec::new();
    for (k, w) in schedule.iter().enumerate() {
        let due = origin + WRITE_PERIOD * k as u32;
        out.lag_us.push(stack::wait_until(due).as_secs_f64() * 1e6);
        out.attempted += 1;
        let result = write_and_confirm(&nc, truth, w);
        out.write_us.push(due.elapsed().as_secs_f64() * 1e6);
        if let Err(e) = result {
            out.fail(e);
        }
        written.push(w);
        match window.iter_mut().find(|(seen, _)| seen.name() == w.name()) {
            Some(entry) => entry.0 = w,
            None => window.push((w, matches!(w, Write::Delete { .. }))),
        }
        if (k + 1) % SYNC_EVERY == 0 {
            out.attempted += 1;
            let t = Instant::now();
            let pulled = nc.sync_pull(truth.replica);
            let took = t.elapsed();
            out.sync_us.push(took.as_secs_f64() * 1e6);
            origin += took;
            if let Err(e) = check_sync(pulled, &window) {
                out.fail(e);
            }
            window.clear();
        }
    }
    out.attempted += 1;
    if let Err(e) = check_sync(nc.sync_pull(truth.replica), &window) {
        out.fail(e);
    }
    let on_replica = stack::name_client(ipc, truth.fs, truth.replica);
    let mut last: Vec<&Write> = Vec::new();
    for w in written.into_iter().rev() {
        if !last.iter().any(|seen| seen.name() == w.name()) {
            last.push(w);
        }
    }
    for w in last {
        out.attempted += 1;
        if let Err(e) = visible(&on_replica, truth, w, false) {
            out.fail(format!("on the replica: {e}"));
        }
    }
    out
}

/// A sync round must adopt exactly the names written since the last one
/// and drop those the replica held live that are now deleted.
fn check_sync(
    pulled: Result<vruntime::SyncPullSummary, IoError>,
    window: &[(&Write, bool)],
) -> Result<(), String> {
    let summary = pulled.map_err(|e| format!("sync: {e}"))?;
    let adopted = window.len() as u32;
    let dropped = window
        .iter()
        .filter(|(w, was_live)| *was_live && matches!(w, Write::Delete { .. }))
        .count() as u32;
    if summary.adopted == adopted && summary.dropped == dropped {
        Ok(())
    } else {
        Err(format!(
            "sync adopted {} and dropped {}, expected {adopted} and {dropped}",
            summary.adopted, summary.dropped
        ))
    }
}

fn write_and_confirm(nc: &NameClient, truth: &Truth, w: &Write) -> Result<(), String> {
    match w {
        Write::Add { name, dir } => nc
            .add_prefix(name, truth.dir_target(*dir))
            .map_err(|e| format!("add {name}: {e}"))?,
        Write::Delete { name } => nc
            .delete_prefix(name)
            .map_err(|e| format!("delete {name}: {e}"))?,
    }
    visible(nc, truth, w, true)
}

/// Checks that `w` took effect as seen through `nc`: an added prefix maps
/// to its directory, a deleted one is not found. Through the prefix server
/// the name carries a remainder and is forwarded to the file server;
/// through the replica it is bare and answered from its table.
fn visible(nc: &NameClient, truth: &Truth, w: &Write, forwarded: bool) -> Result<(), String> {
    let (name, want) = match w {
        Write::Add { name, dir } => (name, Some(truth.dir_target(*dir))),
        Write::Delete { name } => (name, None),
    };
    let query = if forwarded {
        format!("[{name}]/")
    } else {
        format!("[{name}]")
    };
    match (nc.resolve(&query), want) {
        (Ok(b), Some(want)) if b.target == want && b.staleness == Staleness::Fresh => Ok(()),
        (Err(IoError::Server(ReplyCode::NotFound)), None) => Ok(()),
        (got, want) => Err(format!(
            "{query} after the write: got {got:?}, expected {want:?}"
        )),
    }
}

/// Everything a measured phase produced.
pub struct PhaseOut {
    pub readers: ClientOut,
    /// The writer that ran after the readers stopped.
    pub writer: ClientOut,
    /// Wall time of the readers.
    pub wall: Duration,
    /// Each segment's reader p99, microseconds.
    pub segment_p99_us: Vec<f64>,
    /// On a traced stack: per-server totals while the readers ran, and
    /// over the whole phase including the writer.
    pub servers: Option<([ServerWindow; LAYERS], [ServerWindow; LAYERS])>,
}

impl PhaseOut {
    pub fn attempted(&self) -> u64 {
        self.readers.attempted + self.writer.attempted
    }

    pub fn failed(&self) -> u64 {
        self.readers.failed + self.writer.failed
    }

    /// Pools another segment into this one.
    pub fn merge(&mut self, other: PhaseOut) {
        self.readers.merge(other.readers);
        self.writer.merge(other.writer);
        self.wall += other.wall;
        self.segment_p99_us.extend(other.segment_p99_us);
        self.servers = match (self.servers, other.servers) {
            (Some((r1, a1)), Some((r2, a2))) => Some((add(r1, r2), add(a1, a2))),
            (a, b) => a.or(b),
        };
    }

    /// Names interpreted per second by the readers.
    pub fn names_per_s(&self) -> f64 {
        self.readers.names as f64 / self.wall.as_secs_f64()
    }
}

fn add(a: [ServerWindow; LAYERS], b: [ServerWindow; LAYERS]) -> [ServerWindow; LAYERS] {
    std::array::from_fn(|l| ServerWindow {
        requests: a[l].requests + b[l].requests,
        self_ns: a[l].self_ns + b[l].self_ns,
        idle_ns: a[l].idle_ns + b[l].idle_ns,
    })
}

/// Runs the readers for `length`, then one [`SYNC_EVERY`] window of the
/// writer's schedule with no readers running.
pub fn run_phase(stack: &Stack, truth: &Arc<Truth>, seed: u64, length: Duration) -> PhaseOut {
    let kind = truth.kind;
    let barrier = Arc::new(Barrier::new(kind.readers() + 1));
    let (tx, rx) = mpsc::channel::<ClientOut>();
    let warmup = warmup(length);
    for c in 0..kind.readers() {
        let ops = OpGen::new(kind, seed, c as u64);
        let (truth, barrier, tx) = (truth.clone(), barrier.clone(), tx.clone());
        stack.spawn("reader", Layer::Client, move |ipc, probe| {
            barrier.wait();
            let out = reader_loop(ipc, probe, &truth, ops, Until::Elapsed { warmup, length });
            let _ = tx.send(out);
        });
    }
    drop(tx);
    barrier.wait();
    if let Some(t) = &stack.tracer {
        std::thread::sleep(warmup);
        t.open_window();
    }
    let mut readers = ClientOut::default();
    let mut wall = Duration::ZERO;
    for out in rx.iter() {
        wall = wall.max(out.measured);
        readers.merge(out);
    }
    let reads = stack.tracer.as_ref().map(|t| t.close_window());
    let writer = {
        let truth = truth.clone();
        stack.client(move |ipc| {
            let schedule = gen::write_schedule(&truth.names, SYNC_EVERY);
            writer_loop(ipc, &truth, &schedule)
        })
    };
    let servers = reads.zip(stack.tracer.as_ref().map(|t| t.close_window()));
    let segment_p99_us = vec![stats::quantile(&mut readers.lat_us.clone(), 0.99)];
    PhaseOut {
        readers,
        writer,
        wall,
        segment_p99_us,
        servers,
    }
}
