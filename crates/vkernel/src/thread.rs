//! The real-thread kernel: every V process is an OS thread, IPC is a
//! blocking rendezvous: requests queue on the receiver's mailbox channel,
//! replies land in the blocked sender's reply slot.
//!
//! This kernel gives real parallelism and wall-clock performance (used by
//! the Criterion benches and stress tests). Virtual-time experiments use
//! [`crate::SimDomain`] instead; both implement [`Ipc`], so all servers and
//! stubs run unchanged on either.

use crate::api::{GroupId, Ipc, PathInner, Received, Reply};
use crate::error::IpcError;
use crate::group::GroupTable;
use crate::invariants::{InvariantLedger, TxnKind};
use crate::registry::Registry;
use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::Thread;
use std::time::{Duration, Instant};
use vnet::NetModel;
use vproto::{LogicalHost, Message, Pid, Scope, ServiceId};

enum MailItem {
    Env(Envelope),
    Poison,
}

struct Envelope {
    from: Pid,
    msg: Message,
    payload: Bytes,
    reply_to: ReplyCap,
    cap: usize,
    prebuf: Vec<u8>,
}

/// The longest a sender spins on its reply slot before it parks, and the
/// recent reply wait above which it does not spin at all. A same-machine
/// rendezvous answers well inside it; a server-bound batch, an emulated
/// 1984 hop, or a server shared by more clients than there are cores does
/// not, and spinning through those only takes a core from the thread doing
/// the work.
const SPIN_CAP: Duration = Duration::from_micros(15);

/// Where a blocked sender's answer lands. V's `Send` blocks until the
/// reply (paper §3.1), so a process has at most one transaction open and
/// the kernel delivers each reply into the sender's own descriptor: one
/// slot per process, re-armed by every send, never reallocated.
struct ReplySlot {
    owner: Thread,
    /// Set once `state.result` holds the answer; the owner spins or parks
    /// on it. Stored `true` with Release after the result, paired with the
    /// owner's Acquire load; cleared only under the `state` lock, by the
    /// owner or by `arm`.
    ready: AtomicBool,
    state: Mutex<SlotState>,
}

struct SlotState {
    /// The transaction the owner is blocked on; 0 while it is not blocked
    /// (ids start at 1), so late group replies and stale disconnect
    /// notices find no taker.
    txn: u64,
    /// Reply capabilities for `txn` not yet dropped.
    holders: usize,
    /// The owner's answer once every holder dropped unanswered:
    /// `ProcessDied` for a send, `NoReply` for a group send.
    unanswered: IpcError,
    result: Option<Result<Reply, IpcError>>,
}

impl ReplySlot {
    fn new() -> Self {
        ReplySlot {
            owner: std::thread::current(),
            ready: AtomicBool::new(false),
            state: Mutex::new(SlotState {
                txn: 0,
                holders: 0,
                unanswered: IpcError::ProcessDied,
                result: None,
            }),
        }
    }

    /// Opens transaction `txn`, to be answered through `holders` reply
    /// capabilities made with [`ReplySlot::cap`]. Clears what a failed
    /// earlier send may have left behind.
    fn arm(&self, txn: u64, holders: usize, unanswered: IpcError) {
        let mut st = self.state.lock();
        st.txn = txn;
        st.holders = holders;
        st.unanswered = unanswered;
        st.result = None;
        self.ready.store(false, Ordering::Relaxed);
    }

    fn cap(self: &Arc<Self>, txn: u64) -> ReplyCap {
        ReplyCap {
            slot: Some(Arc::clone(self)),
            txn,
        }
    }

    /// Answers `txn` with `answer`, or, for `None`, counts one holder out
    /// and answers `unanswered` when it was the last. Anything for a
    /// transaction that is not open, or already answered, is dropped.
    fn settle(&self, txn: u64, answer: Option<Result<Reply, IpcError>>) {
        let mut st = self.state.lock();
        if st.txn != txn || st.result.is_some() {
            return;
        }
        let result = match answer {
            Some(result) => result,
            None => {
                st.holders -= 1;
                if st.holders > 0 {
                    return;
                }
                Err(st.unanswered)
            }
        };
        st.result = Some(result);
        self.ready.store(true, Ordering::Release);
        drop(st);
        self.owner.unpark();
    }
}

/// The right to answer one transaction, carried with the request along
/// its forward chain. Dropping it unanswered counts down the slot's
/// holders.
pub(crate) struct ReplyCap {
    /// `None` once answered.
    slot: Option<Arc<ReplySlot>>,
    /// Transaction id, unique for the domain's lifetime.
    txn: u64,
}

impl ReplyCap {
    fn answer(mut self, result: Result<Reply, IpcError>) {
        if let Some(slot) = self.slot.take() {
            slot.settle(self.txn, Some(result));
        }
    }
}

impl Drop for ReplyCap {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            slot.settle(self.txn, None);
        }
    }
}

#[derive(Clone)]
struct ProcEntry {
    tx: Sender<MailItem>,
}

struct JoinEntry {
    thread_id: std::thread::ThreadId,
    handle: std::thread::JoinHandle<()>,
}

struct DomainCore {
    processes: RwLock<HashMap<Pid, ProcEntry>>,
    registry: Registry,
    groups: GroupTable,
    alloc: Mutex<Alloc>,
    threads: Mutex<Vec<JoinEntry>>,
    next_txn: AtomicU64,
    /// Debug-build rendezvous invariant checks; shared (strongly) with every
    /// process context so resolutions recorded during teardown still land.
    ledger: Arc<InvariantLedger>,
    start: Instant,
    /// When set, IPC primitives sleep the calibrated 1984 costs in real
    /// time — the thread kernel becomes a wall-clock emulator of the
    /// paper's hardware.
    emulate: Option<NetModel>,
}

impl DomainCore {
    fn poison_all(&self) {
        let entries: Vec<ProcEntry> = self.processes.write().drain().map(|(_, e)| e).collect();
        for e in entries {
            let _ = e.tx.send(MailItem::Poison);
        }
    }

    fn join_all(&self) {
        let me = std::thread::current().id();
        let handles: Vec<JoinEntry> = self.threads.lock().drain(..).collect();
        for entry in handles {
            if entry.thread_id != me {
                let _ = entry.handle.join();
            }
        }
    }
}

impl Drop for DomainCore {
    fn drop(&mut self) {
        self.poison_all();
        self.join_all();
        self.ledger.assert_all_resolved();
    }
}

#[derive(Default)]
struct Alloc {
    next_host: u16,
    next_local: HashMap<LogicalHost, u16>,
}

pub(crate) struct ThreadPath {
    reply_to: ReplyCap,
    cap: usize,
    buf: Vec<u8>,
}

/// A V domain running on real OS threads.
///
/// A domain is a set of logical hosts over which kernel operations are
/// transparent — "basically one V-System installation" (paper §4.1). Create
/// hosts with [`Domain::add_host`], processes with [`Domain::spawn`], and
/// drive request/response work from tests with [`Domain::client`].
///
/// Dropping the last `Domain` handle (process threads hold only weak
/// references) poisons every process and joins their threads; server loops
/// written as `while let Ok(rx) = ctx.receive()` exit cleanly. Call
/// [`Domain::shutdown`] for explicit teardown.
///
/// # Examples
///
/// See [`Ipc`] for a complete echo transaction.
#[derive(Clone)]
pub struct Domain {
    core: Arc<DomainCore>,
}

impl Domain {
    /// Creates an empty domain.
    pub fn new() -> Self {
        Domain::build(None)
    }

    /// Creates a domain that **emulates the 1984 hardware in real time**:
    /// every IPC primitive sleeps its calibrated cost, so wall-clock
    /// measurements approximate the paper's milliseconds on the real
    /// (threaded) implementation.
    pub fn emulated_1984(params: vnet::Params1984) -> Self {
        Domain::build(Some(NetModel::new(params)))
    }

    fn build(emulate: Option<NetModel>) -> Self {
        Domain {
            core: Arc::new(DomainCore {
                processes: RwLock::new(HashMap::new()),
                registry: Registry::new(),
                groups: GroupTable::new(),
                alloc: Mutex::new(Alloc::default()),
                threads: Mutex::new(Vec::new()),
                next_txn: AtomicU64::new(0),
                ledger: Arc::new(InvariantLedger::new()),
                start: Instant::now(),
                emulate,
            }),
        }
    }

    /// Adds a logical host to the domain and returns its identifier.
    pub fn add_host(&self) -> LogicalHost {
        let mut alloc = self.core.alloc.lock();
        alloc.next_host += 1;
        LogicalHost::new(alloc.next_host)
    }

    fn alloc_pid(&self, host: LogicalHost) -> Pid {
        let mut alloc = self.core.alloc.lock();
        let counter = alloc.next_local.entry(host).or_insert(0);
        *counter += 1;
        let pid = Pid::new(host, *counter);
        self.core.ledger.on_pid_alloc(pid);
        pid
    }

    /// Spawns a V process on `host` running `f`. The process's kernel
    /// interface is the `&dyn Ipc` passed to the closure.
    pub fn spawn<F>(&self, host: LogicalHost, name: &str, f: F) -> Pid
    where
        F: FnOnce(&dyn Ipc) + Send + 'static,
    {
        let pid = self.alloc_pid(host);
        let (tx, rx) = unbounded();
        self.core.processes.write().insert(pid, ProcEntry { tx });
        let weak = Arc::downgrade(&self.core);
        let ledger = Arc::clone(&self.core.ledger);
        let thread_name = format!("v-{name}-{pid}");
        let handle = std::thread::Builder::new()
            .name(thread_name)
            .spawn(move || {
                let ctx = ProcessCtx {
                    core: weak.clone(),
                    pid,
                    host,
                    mailbox: rx,
                    ledger,
                    slot: Arc::new(ReplySlot::new()),
                    reply_wait_ns: Cell::new(0),
                };
                f(&ctx);
                if let Some(core) = weak.upgrade() {
                    core.processes.write().remove(&pid);
                    core.registry.unregister_pid(pid);
                    core.groups.remove_everywhere(pid);
                    core.ledger.on_process_exit(
                        pid,
                        core.registry.registered_anywhere(pid),
                        core.groups.member_anywhere(pid),
                    );
                }
            })
            .expect("spawn V process thread");
        self.core.threads.lock().push(JoinEntry {
            thread_id: handle.thread().id(),
            handle,
        });
        pid
    }

    /// Runs `f` as a short-lived client process on `host` and returns its
    /// result. Convenient for tests and benchmarks.
    pub fn client<T, F>(&self, host: LogicalHost, f: F) -> T
    where
        T: Send + 'static,
        F: FnOnce(&dyn Ipc) -> T + Send + 'static,
    {
        let (tx, rx) = bounded(1);
        self.spawn(host, "client", move |ctx| {
            let _ = tx.send(f(ctx));
        });
        rx.recv().expect("client process completed")
    }

    /// Kills `pid`: new sends to it fail immediately; the process itself
    /// observes [`IpcError::Killed`] at its next `Receive`. Used to inject
    /// server-crash faults (paper §2.2's consistency discussion, §4.2's
    /// rebinding).
    pub fn kill(&self, pid: Pid) {
        let entry = self.core.processes.write().remove(&pid);
        self.core.registry.unregister_pid(pid);
        self.core.groups.remove_everywhere(pid);
        self.core.ledger.on_process_exit(
            pid,
            self.core.registry.registered_anywhere(pid),
            self.core.groups.member_anywhere(pid),
        );
        if let Some(entry) = entry {
            let _ = entry.tx.send(MailItem::Poison);
        }
    }

    /// Returns the domain's service registry (for inspection in tests).
    pub fn registry(&self) -> &Registry {
        &self.core.registry
    }

    /// Poisons every process and joins all threads. Must not be called from
    /// inside a V process of this domain.
    pub fn shutdown(&self) {
        self.core.poison_all();
        self.core.join_all();
        self.core.ledger.assert_all_resolved();
    }
}

impl Default for Domain {
    fn default() -> Self {
        Domain::new()
    }
}

/// Kernel interface handed to each process on the thread kernel.
struct ProcessCtx {
    core: Weak<DomainCore>,
    pid: Pid,
    host: LogicalHost,
    mailbox: Receiver<MailItem>,
    /// Strong handle so invariant resolutions recorded while the domain is
    /// tearing down (core no longer upgradable) are not lost.
    ledger: Arc<InvariantLedger>,
    slot: Arc<ReplySlot>,
    /// Moving average (weight 7/8 on the past) of how long this process
    /// waited for its replies, wake-up included; it spins only while this
    /// stays under [`SPIN_CAP`].
    reply_wait_ns: Cell<u128>,
}

impl ProcessCtx {
    fn core(&self) -> Result<Arc<DomainCore>, IpcError> {
        self.core.upgrade().ok_or(IpcError::Shutdown)
    }

    fn entry_for(core: &DomainCore, to: Pid) -> Result<ProcEntry, IpcError> {
        core.processes
            .read()
            .get(&to)
            .cloned()
            .ok_or(IpcError::NoProcess)
    }

    /// Blocks until the armed slot is answered. It spins first, for at
    /// most [`SPIN_CAP`], only while this process's recent replies arrived
    /// within that cap; otherwise it parks at once.
    fn wait_reply(&self) -> Result<Reply, IpcError> {
        let slot = &*self.slot;
        let start = Instant::now();
        if self.reply_wait_ns.get() < SPIN_CAP.as_nanos() {
            let mut spins = 0u32;
            while !slot.ready.load(Ordering::Acquire) {
                std::hint::spin_loop();
                spins = spins.wrapping_add(1);
                if spins.is_multiple_of(64) && start.elapsed() >= SPIN_CAP {
                    break;
                }
            }
        }
        while !slot.ready.load(Ordering::Acquire) {
            std::thread::park();
        }
        let avg = self.reply_wait_ns.get();
        self.reply_wait_ns
            .set(avg - avg / 8 + start.elapsed().as_nanos() / 8);
        let mut st = slot.state.lock();
        st.txn = 0;
        slot.ready.store(false, Ordering::Relaxed);
        st.result.take().unwrap_or(Err(IpcError::ProcessDied))
    }

    fn received(env: Envelope) -> Received {
        Received {
            from: env.from,
            msg: env.msg,
            payload: env.payload,
            path: PathInner::Thread(ThreadPath {
                reply_to: env.reply_to,
                cap: env.cap,
                buf: env.prebuf,
            }),
        }
    }
}

impl Ipc for ProcessCtx {
    fn my_pid(&self) -> Pid {
        self.pid
    }

    fn host(&self) -> LogicalHost {
        self.host
    }

    fn send(
        &self,
        to: Pid,
        msg: Message,
        payload: Bytes,
        recv_cap: usize,
    ) -> Result<Reply, IpcError> {
        let core = self.core()?;
        let entry = Self::entry_for(&core, to)?;
        let txn = core.next_txn.fetch_add(1, Ordering::Relaxed) + 1;
        self.ledger.on_send_open(txn, TxnKind::Single);
        self.slot.arm(txn, 1, IpcError::ProcessDied);
        let env = Envelope {
            from: self.pid,
            msg,
            payload,
            reply_to: self.slot.cap(txn),
            cap: recv_cap,
            prebuf: Vec::new(),
        };
        if let Some(net) = &core.emulate {
            let local = to.is_on(self.host);
            std::thread::sleep(net.hop_cost(local, env.payload.len()));
        }
        if entry.tx.send(MailItem::Env(env)).is_err() {
            self.ledger.on_sender_resolved(txn);
            return Err(IpcError::NoProcess);
        }
        drop(core);
        let result = self.wait_reply();
        self.ledger.on_sender_resolved(txn);
        result
    }

    fn send_group(&self, group: GroupId, msg: Message, payload: Bytes) -> Result<Reply, IpcError> {
        let core = self.core()?;
        let members = core.groups.members(group).ok_or(IpcError::NoSuchGroup)?;
        let members: Vec<Pid> = members.into_iter().filter(|&m| m != self.pid).collect();
        if members.is_empty() {
            return Err(IpcError::NoReply);
        }
        let txn = core.next_txn.fetch_add(1, Ordering::Relaxed) + 1;
        self.ledger.on_send_open(txn, TxnKind::Group);
        // One capability per member; those that cannot be delivered drop
        // here, and when the last copy drops unanswered the sender gets
        // `NoReply`.
        self.slot.arm(txn, members.len(), IpcError::NoReply);
        for member in members {
            let reply_to = self.slot.cap(txn);
            if let Ok(entry) = Self::entry_for(&core, member) {
                let env = Envelope {
                    from: self.pid,
                    msg,
                    payload: payload.clone(),
                    reply_to,
                    cap: 0,
                    prebuf: Vec::new(),
                };
                let _ = entry.tx.send(MailItem::Env(env));
            }
        }
        drop(core);
        let result = self.wait_reply();
        self.ledger.on_sender_resolved(txn);
        result
    }

    fn receive(&self) -> Result<Received, IpcError> {
        match self.mailbox.recv() {
            Ok(MailItem::Env(env)) => Ok(Self::received(env)),
            Ok(MailItem::Poison) => Err(IpcError::Killed),
            Err(_) => Err(IpcError::Shutdown),
        }
    }

    fn try_receive(&self) -> Result<Option<Received>, IpcError> {
        use crossbeam::channel::TryRecvError;
        match self.mailbox.try_recv() {
            Ok(MailItem::Env(env)) => Ok(Some(Self::received(env))),
            Ok(MailItem::Poison) => Err(IpcError::Killed),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(IpcError::Shutdown),
        }
    }

    fn reply(&self, rx: Received, msg: Message, data: Bytes) -> Result<(), IpcError> {
        if let Ok(core) = self.core() {
            if let Some(net) = &core.emulate {
                let local = rx.from.is_on(self.host);
                let total = match &rx.path {
                    PathInner::Thread(p) => p.buf.len() + data.len(),
                    PathInner::Sim(_) => data.len(),
                };
                std::thread::sleep(net.hop_cost(local, total));
            }
        }
        let path = match rx.path {
            PathInner::Thread(p) => p,
            PathInner::Sim(_) => return Err(IpcError::BadOperation("sim token on thread kernel")),
        };
        let total = path.buf.len() + data.len();
        let result = if total > path.cap {
            Err(IpcError::BufferOverflow)
        } else {
            let mut buf = path.buf;
            buf.extend_from_slice(&data);
            Ok(Reply {
                msg,
                data: Bytes::from(buf),
            })
        };
        let failed = result.is_err();
        self.ledger.on_reply(path.reply_to.txn);
        // If a group transaction was already answered, or the sender is
        // gone, the slot discards the reply, as in the real kernel.
        path.reply_to.answer(result);
        if failed {
            Err(IpcError::BufferOverflow)
        } else {
            Ok(())
        }
    }

    fn forward(&self, rx: Received, to: Pid, msg: Message) -> Result<(), IpcError> {
        if let Ok(core) = self.core() {
            if let Some(net) = &core.emulate {
                let local = to.is_on(self.host);
                std::thread::sleep(net.hop_cost(local, rx.payload.len()));
            }
        }
        let path = match rx.path {
            PathInner::Thread(p) => p,
            PathInner::Sim(_) => return Err(IpcError::BadOperation("sim token on thread kernel")),
        };
        // If the target is gone, `path` drops here with its reply
        // capability and the blocked sender observes ProcessDied.
        let core = self.core()?;
        let entry = Self::entry_for(&core, to)?;
        self.ledger.on_forward(path.reply_to.txn);
        let env = Envelope {
            from: rx.from,
            msg,
            payload: rx.payload,
            reply_to: path.reply_to,
            cap: path.cap,
            prebuf: path.buf,
        };
        entry
            .tx
            .send(MailItem::Env(env))
            .map_err(|_| IpcError::NoProcess)
    }

    fn move_from(&self, rx: &Received) -> Result<Bytes, IpcError> {
        if let Ok(core) = self.core() {
            if let Some(net) = &core.emulate {
                let len = rx.payload.len();
                let local = rx.from.is_on(self.host);
                let cost = if local {
                    net.copy_cost(len)
                } else if len <= net.params().max_data_per_packet {
                    net.params().t_remote_name_fetch + net.copy_cost(len)
                } else {
                    net.bulk_cost(false, len)
                };
                std::thread::sleep(cost);
            }
        }
        Ok(rx.payload.clone())
    }

    fn move_to(&self, rx: &mut Received, data: &[u8]) -> Result<(), IpcError> {
        let path = match &mut rx.path {
            PathInner::Thread(p) => p,
            PathInner::Sim(_) => return Err(IpcError::BadOperation("sim token on thread kernel")),
        };
        if path.buf.len() + data.len() > path.cap {
            return Err(IpcError::BufferOverflow);
        }
        path.buf.extend_from_slice(data);
        Ok(())
    }

    fn set_pid(&self, service: ServiceId, scope: Scope) {
        if let Ok(core) = self.core() {
            core.registry.register(service, self.pid, scope);
        }
    }

    fn get_pid(&self, service: ServiceId, scope: Scope) -> Option<Pid> {
        self.core()
            .ok()?
            .registry
            .lookup(service, scope, self.host)
            .map(|(pid, _)| pid)
    }

    fn create_group(&self) -> GroupId {
        self.core().map(|c| c.groups.create()).unwrap_or(GroupId(0))
    }

    fn join_group(&self, group: GroupId) -> Result<(), IpcError> {
        if self.core()?.groups.join(group, self.pid) {
            Ok(())
        } else {
            Err(IpcError::NoSuchGroup)
        }
    }

    fn leave_group(&self, group: GroupId) -> Result<(), IpcError> {
        if self.core()?.groups.leave(group, self.pid) {
            Ok(())
        } else {
            Err(IpcError::NoSuchGroup)
        }
    }

    fn charge(&self, work: Duration) {
        if let Ok(core) = self.core() {
            if core.emulate.is_some() {
                std::thread::sleep(work);
            }
        }
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }

    fn now(&self) -> Duration {
        self.core
            .upgrade()
            .map(|c| c.start.elapsed())
            .unwrap_or_default()
    }

    fn net(&self) -> Option<NetModel> {
        // Present only in 1984-emulation mode, where charge() sleeps — so
        // servers and stubs apply their calibrated processing costs in
        // real time, exactly as on the virtual-time kernel.
        self.core.upgrade().and_then(|c| c.emulate.clone())
    }
}
