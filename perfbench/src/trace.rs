//! Transparent tracing from outside the program: an [`Ipc`] decorator the
//! benchmark hands to every client and server it spawns.
//!
//! V's `Send` blocks, so a process has at most one transaction open and
//! the original sender's pid names it along the whole forward chain. Each
//! decorator stamps that transaction's timeline in a shared table:
//!
//! ```text
//! client send ──queue wait──▶ server works ──forward──▶ queue wait ──▶ server works ──reply──▶ wake
//! ```
//!
//! A server's work on a request runs from when it turns to the request
//! (its `receive` returned, or it finished the request before, for
//! requests drained in a burst) until it calls `reply` or `forward`, minus
//! any sends of its own in between. Queue wait runs from the `send` or
//! `forward` call until that moment; wake runs from the `reply` call until
//! the client's `send` returns. Those pieces partition every send, so a
//! client op splits exactly into stub time (outside `send`), queue wait,
//! each server's work and wake.

use bytes::Bytes;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use vkernel::{GroupId, Ipc, IpcError, Received, Reply};
use vnet::NetModel;
use vproto::{LogicalHost, Message, Pid, Scope, ServiceId};

/// The processes the benchmark tells apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Client = 0,
    /// The prefix server readers and writers talk to.
    Prefix = 1,
    /// The prefix replica that pulls from it.
    Replica = 2,
    File = 3,
}

pub const LAYERS: usize = 4;

/// One open transaction's timeline, keyed by its original sender.
#[derive(Debug, Default)]
struct Txn {
    /// Start of the latest `send` or `forward` call.
    enqueued: Option<Instant>,
    /// Start of the `reply` call.
    replied: Option<Instant>,
    wait_ns: u64,
    self_ns: [u64; LAYERS],
    forwards: u32,
}

/// What one client op cost, piece by piece.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpLedger {
    pub total_ns: u64,
    /// Time inside `send` calls.
    pub send_ns: u64,
    pub wait_ns: u64,
    pub self_ns: [u64; LAYERS],
    pub wake_ns: u64,
    pub sends: u32,
    pub forwards: u32,
}

impl OpLedger {
    /// Client time outside the kernel: building requests, decoding
    /// replies, checking answers.
    pub fn stub_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.send_ns)
    }
}

#[derive(Debug, Default)]
struct ServerCounters {
    requests: AtomicU64,
    self_ns: AtomicU64,
    /// Time blocked in `receive`, clipped to the open window.
    idle_ns: AtomicU64,
    /// 1 + nanoseconds since the tracer's epoch when the server blocked in
    /// `receive`; 0 while it is working.
    blocked_since: AtomicU64,
}

/// Per-server totals over one measurement window.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServerWindow {
    pub requests: u64,
    pub self_ns: u64,
    pub idle_ns: u64,
}

/// The shared half of the tracer.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    txns: Mutex<HashMap<u32, Txn>>,
    servers: [ServerCounters; LAYERS],
    window_start: AtomicU64,
    baseline: Mutex<[ServerWindow; LAYERS]>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            txns: Mutex::new(HashMap::new()),
            servers: Default::default(),
            window_start: AtomicU64::new(0),
            baseline: Mutex::new([ServerWindow::default(); LAYERS]),
        }
    }
}

impl Tracer {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn txns(&self) -> std::sync::MutexGuard<'_, HashMap<u32, Txn>> {
        self.txns.lock().expect("a traced process panicked")
    }

    fn totals(&self) -> [ServerWindow; LAYERS] {
        std::array::from_fn(|l| {
            let c = &self.servers[l];
            ServerWindow {
                requests: c.requests.load(Relaxed),
                self_ns: c.self_ns.load(Relaxed),
                idle_ns: c.idle_ns.load(Relaxed),
            }
        })
    }

    /// Starts a measurement window for the per-server totals.
    pub fn open_window(&self) {
        self.window_start.store(self.ns(Instant::now()), Relaxed);
        *self.baseline.lock().expect("baseline lock") = self.totals();
    }

    /// Per-server totals since [`Tracer::open_window`], counting a server
    /// blocked in `receive` right now as idle up to now.
    pub fn close_window(&self) -> [ServerWindow; LAYERS] {
        let now = self.ns(Instant::now());
        let start = self.window_start.load(Relaxed);
        let base = *self.baseline.lock().expect("baseline lock");
        let totals = self.totals();
        std::array::from_fn(|l| {
            let since = self.servers[l].blocked_since.load(Relaxed);
            let blocked = if since == 0 {
                0
            } else {
                now.saturating_sub((since - 1).max(start))
            };
            ServerWindow {
                requests: totals[l].requests - base[l].requests,
                self_ns: totals[l].self_ns - base[l].self_ns,
                idle_ns: totals[l].idle_ns - base[l].idle_ns + blocked,
            }
        })
    }
}

/// The decorator: delegates every [`Ipc`] method to the process's own
/// kernel handle and records the timeline around the ones that move a
/// transaction along.
pub struct TracedIpc<'a> {
    inner: &'a dyn Ipc,
    tracer: &'a Tracer,
    layer: Layer,
    /// Server side: when each pending request was taken off the mailbox.
    taken: RefCell<HashMap<u32, Instant>>,
    last_call_end: Cell<Option<Instant>>,
    /// Server side: time in this server's own sends since its last
    /// reply or forward.
    nested_ns: Cell<u64>,
    /// Client side: the op in progress.
    op: Cell<OpLedger>,
    op_start: Cell<Option<Instant>>,
}

fn dur_ns(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

impl<'a> TracedIpc<'a> {
    pub fn new(inner: &'a dyn Ipc, tracer: &'a Tracer, layer: Layer) -> Self {
        TracedIpc {
            inner,
            tracer,
            layer,
            taken: RefCell::new(HashMap::new()),
            last_call_end: Cell::new(None),
            nested_ns: Cell::new(0),
            op: Cell::new(OpLedger::default()),
            op_start: Cell::new(None),
        }
    }

    /// Marks the start of a client op.
    pub fn begin_op(&self) {
        self.op.set(OpLedger::default());
        self.op_start.set(Some(Instant::now()));
    }

    /// Ends the client op begun last and returns its ledger.
    pub fn end_op(&self) -> OpLedger {
        let mut op = self.op.get();
        if let Some(t) = self.op_start.take() {
            op.total_ns = dur_ns(t, Instant::now());
        }
        op
    }

    fn took(&self, from: Pid, at: Instant) {
        self.taken.borrow_mut().insert(from.raw(), at);
    }

    /// Closes this server's slice of work on `from`'s request at `at`, the
    /// start of its `reply` or `forward` call.
    fn finish_slice(&self, from: Pid, at: Instant, forwarded: bool) {
        let taken = self.taken.borrow_mut().remove(&from.raw()).unwrap_or(at);
        let start = match self.last_call_end.get() {
            Some(prev) if prev > taken => prev,
            _ => taken,
        };
        let work = dur_ns(start, at).saturating_sub(self.nested_ns.replace(0));
        let l = self.layer as usize;
        self.tracer.servers[l].requests.fetch_add(1, Relaxed);
        self.tracer.servers[l].self_ns.fetch_add(work, Relaxed);
        let mut txns = self.tracer.txns();
        if let Some(t) = txns.get_mut(&from.raw()) {
            if let Some(enq) = t.enqueued {
                t.wait_ns += dur_ns(enq, start);
            }
            t.self_ns[l] += work;
            if forwarded {
                t.enqueued = Some(at);
                t.forwards += 1;
            } else {
                t.replied = Some(at);
            }
        }
    }
}

impl Ipc for TracedIpc<'_> {
    fn my_pid(&self) -> Pid {
        self.inner.my_pid()
    }

    fn host(&self) -> LogicalHost {
        self.inner.host()
    }

    fn send(
        &self,
        to: Pid,
        msg: Message,
        payload: Bytes,
        recv_cap: usize,
    ) -> Result<Reply, IpcError> {
        let me = self.inner.my_pid().raw();
        let t0 = Instant::now();
        self.tracer.txns().insert(
            me,
            Txn {
                enqueued: Some(t0),
                ..Txn::default()
            },
        );
        let result = self.inner.send(to, msg, payload, recv_cap);
        let t1 = Instant::now();
        let txn = self.tracer.txns().remove(&me).unwrap_or_default();
        let spent = dur_ns(t0, t1);
        if self.layer == Layer::Client {
            let mut op = self.op.get();
            op.send_ns += spent;
            op.sends += 1;
            op.wait_ns += txn.wait_ns;
            for (acc, s) in op.self_ns.iter_mut().zip(txn.self_ns) {
                *acc += s;
            }
            op.forwards += txn.forwards;
            if let Some(r) = txn.replied {
                op.wake_ns += dur_ns(r, t1);
            }
            self.op.set(op);
        } else {
            self.nested_ns.set(self.nested_ns.get() + spent);
        }
        result
    }

    fn send_group(&self, group: GroupId, msg: Message, payload: Bytes) -> Result<Reply, IpcError> {
        self.inner.send_group(group, msg, payload)
    }

    fn receive(&self) -> Result<Received, IpcError> {
        let counters = &self.tracer.servers[self.layer as usize];
        let t0 = Instant::now();
        counters
            .blocked_since
            .store(self.tracer.ns(t0) + 1, Relaxed);
        let result = self.inner.receive();
        let t1 = Instant::now();
        counters.blocked_since.store(0, Relaxed);
        let from = self
            .tracer
            .ns(t0)
            .max(self.tracer.window_start.load(Relaxed));
        counters
            .idle_ns
            .fetch_add(self.tracer.ns(t1).saturating_sub(from), Relaxed);
        if let Ok(rx) = &result {
            self.took(rx.from, t1);
        }
        result
    }

    fn try_receive(&self) -> Result<Option<Received>, IpcError> {
        let result = self.inner.try_receive();
        if let Ok(Some(rx)) = &result {
            self.took(rx.from, Instant::now());
        }
        result
    }

    fn reply(&self, rx: Received, msg: Message, data: Bytes) -> Result<(), IpcError> {
        self.finish_slice(rx.from, Instant::now(), false);
        let result = self.inner.reply(rx, msg, data);
        self.last_call_end.set(Some(Instant::now()));
        result
    }

    fn forward(&self, rx: Received, to: Pid, msg: Message) -> Result<(), IpcError> {
        self.finish_slice(rx.from, Instant::now(), true);
        let result = self.inner.forward(rx, to, msg);
        self.last_call_end.set(Some(Instant::now()));
        result
    }

    fn move_from(&self, rx: &Received) -> Result<Bytes, IpcError> {
        self.inner.move_from(rx)
    }

    fn move_to(&self, rx: &mut Received, data: &[u8]) -> Result<(), IpcError> {
        self.inner.move_to(rx, data)
    }

    fn set_pid(&self, service: ServiceId, scope: Scope) {
        self.inner.set_pid(service, scope)
    }

    fn get_pid(&self, service: ServiceId, scope: Scope) -> Option<Pid> {
        self.inner.get_pid(service, scope)
    }

    fn create_group(&self) -> GroupId {
        self.inner.create_group()
    }

    fn join_group(&self, group: GroupId) -> Result<(), IpcError> {
        self.inner.join_group(group)
    }

    fn leave_group(&self, group: GroupId) -> Result<(), IpcError> {
        self.inner.leave_group(group)
    }

    fn charge(&self, work: Duration) {
        self.inner.charge(work)
    }

    fn sleep(&self, d: Duration) {
        self.inner.sleep(d)
    }

    fn now(&self) -> Duration {
        self.inner.now()
    }

    fn net(&self) -> Option<NetModel> {
        self.inner.net()
    }
}
