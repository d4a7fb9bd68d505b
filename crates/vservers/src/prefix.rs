//! The per-user context prefix server (paper §5.8, §6).
//!
//! "V makes available standard context prefix servers, which provide each
//! user with locally defined character string names for contexts on servers
//! of interest." A context prefix is the part of a CSname parsed by this
//! server to decide where to forward the request; the syntax is `[prefix]`
//! with the prefix terminated by the closing `]`.
//!
//! Entries are either *direct* — a concrete (server-pid, context-id) pair —
//! or *logical*: a (service, well-known-context) pair re-resolved via
//! `GetPid` on every use (paper §6), which is how generic services get
//! character string names and how rebinding after a server crash works
//! without updating the prefix table.
//!
//! With [`DegradedPrefixConfig`] the server also resolves *degraded*: when
//! forwarding through a direct entry times out (the bound host is alive
//! yet unreachable — a partition, which the kernel cannot tell from a
//! crash), the prefix is marked suspect for a TTL, and while suspect a
//! `QueryName` for the bare prefix is answered straight from the table
//! with the staleness flag set ([`vproto::fields::W_STALENESS`]) instead
//! of timing out again. Non-authoritative replicas (`authoritative:
//! false`) always answer from their table this way and can join a
//! multicast replica group, which is the client's last-resort fallback.

use crate::common::{forward_csname, reply_code, reply_data, reply_descriptor};
use crate::shard::{ShardedTable, Snapshot};
use crate::suspect::SuspectSet;
use crate::sync::{ApplyOutcome, MerkleWalk, SyncTable, TombstoneOutcome};
use bytes::Bytes;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;
use vio::{serve_read, InstanceTable};
use vkernel::{GroupId, Ipc, Received};
use vnaming::{CsRequest, DirectoryBuilder};
use vproto::{
    fields, ContextId, ContextPair, CsName, DescriptorExt, DescriptorTag, InstanceId, Message,
    ObjectDescriptor, OpenMode, Pid, ReplyCode, RequestCode, ResolveAnswer, ResolveBatchMsg,
    ResolveBatchReply, Scope, ServiceId, SyncBinding, SyncDeltaMsg, SyncDigestMsg, SyncEntry,
    SyncProbeMsg, SyncProbeReply, SyncStatusRec, RESOLVE_NOT_FOUND, RESOLVE_NO_SERVER, RESOLVE_OK,
};

/// Cap on how many already-queued requests one loop iteration drains into
/// a resolution burst before replying — bounds the latency a queued
/// non-resolve request can suffer behind a burst.
const MAX_RESOLVE_BURST: usize = 64;

/// One prefix table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PrefixTarget {
    /// Forward to a concrete (server, context) pair.
    Direct(ContextPair),
    /// Re-resolve the service via `GetPid` on each use (paper §6).
    Logical {
        service: ServiceId,
        context: ContextId,
    },
}

impl PrefixTarget {
    /// The wire form carried in anti-entropy deltas.
    fn to_binding(self) -> SyncBinding {
        match self {
            PrefixTarget::Direct(pair) => SyncBinding {
                logical: false,
                target: pair.server.raw(),
                context: pair.context.raw(),
            },
            PrefixTarget::Logical { service, context } => SyncBinding {
                logical: true,
                target: service.raw(),
                context: context.raw(),
            },
        }
    }

    /// The resolvable form of a wire binding.
    fn from_binding(b: &SyncBinding) -> Self {
        if b.logical {
            PrefixTarget::Logical {
                service: ServiceId::new(b.target),
                context: ContextId::new(b.context),
            }
        } else {
            PrefixTarget::Direct(ContextPair::new(
                Pid::from_raw(b.target),
                ContextId::new(b.context),
            ))
        }
    }
}

/// Cumulative anti-entropy bookkeeping, reported via `SyncStatus`.
#[derive(Debug, Clone, Copy, Default)]
struct SyncCounters {
    /// Completed sync rounds (replica side).
    rounds: u32,
    /// Delta entries adopted.
    adopted: u32,
    /// Live entries dropped by adopted tombstones.
    dropped: u32,
    /// Entries promoted unverified → verified.
    promoted: u32,
    /// Suspicion entries expired by the TTL sweep.
    suspects_expired: u32,
    /// Bare-prefix `QueryName` binding queries received.
    binding_queries: u32,
    /// Completed replica↔replica gossip rounds.
    gossip_rounds: u32,
    /// Entries adopted from gossip peers (held Suspect).
    gossip_adopted: u32,
    /// Tombstones dropped by horizon GC.
    gc_dropped: u32,
    /// Merkle subtree probes initiated as a round puller.
    probe_rounds: u32,
}

/// The advisory entry-count message word for sync payloads: saturates at
/// `u16::MAX` instead of silently truncating tables past 65 535 entries —
/// the 32-bit count inside the payload is authoritative.
fn count_word(n: impl TryInto<u16>) -> u16 {
    n.try_into().unwrap_or(u16::MAX)
}

/// The reply to a `SyncPull` or `SyncGossip` round that applied `out`:
/// saturated counts, the table's epoch and whether gossip supplied it.
fn sync_reply(out: &ApplyOutcome, epoch: u64, via_gossip: bool) -> Message {
    let mut m = Message::ok();
    m.set_word(fields::W_SYNC_ADOPTED, count_word(out.adopted))
        .set_word(fields::W_SYNC_DROPPED, count_word(out.dropped_live))
        .set_word(fields::W_SYNC_PROMOTED, count_word(out.promoted))
        .set_word32(fields::W_SYNC_EPOCH_LO, epoch as u32)
        .set_word(fields::W_SYNC_GOSSIP, u16::from(via_gossip));
    m
}

/// Degraded-mode resolution settings for a [`prefix_server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradedPrefixConfig {
    /// How long a prefix stays suspect after a forward times out. While
    /// suspect, bare-prefix `QueryName`s are answered from the table
    /// (staleness flagged) instead of re-forwarding; when the TTL
    /// expires, the next request probes the bound server again.
    pub suspect_ttl: Duration,
    /// `true` (the default) forwards first and only answers degraded
    /// while a suspicion is armed. `false` marks a *replica*: every
    /// bare-prefix `QueryName` is answered from the table with the
    /// staleness flag — the replica never claims authority.
    pub authoritative: bool,
    /// A multicast group to join at boot, so clients can reach any
    /// surviving replica with one `send_group` when the authoritative
    /// server is unreachable.
    pub replica_group: Option<GroupId>,
    /// The authoritative peer this server reconciles against when it
    /// receives a `SyncPull`: one digest → delta → apply round per pull.
    /// `None` (the default) disables anti-entropy — a `SyncPull` answers
    /// `NoServer`.
    pub sync_peer: Option<Pid>,
    /// **Test-only differential oracle.** `true` drives this server's
    /// `SyncPull`/`SyncGossip` rounds over the legacy whole-table
    /// flat-digest path instead of the Merkle walk; responders always
    /// serve both. The harnesses flip this to prove the two paths leave
    /// byte-identical tables — production configs leave it `false`.
    pub flat_sync: bool,
}

impl Default for DegradedPrefixConfig {
    fn default() -> Self {
        DegradedPrefixConfig {
            suspect_ttl: Duration::from_millis(50),
            authoritative: true,
            replica_group: None,
            sync_peer: None,
            flat_sync: false,
        }
    }
}

/// Configuration for a [`prefix_server`] process.
#[derive(Debug, Clone)]
pub struct PrefixConfig {
    /// Registration scope for [`ServiceId::CONTEXT_PREFIX`]. Per-user
    /// prefix servers are `Local` — each workstation runs its own
    /// (paper §6).
    pub scope: Scope,
    /// Direct prefixes installed at boot — the user's "login script"
    /// bindings, which is what lets a *restarted* prefix server come back
    /// with its soft-state table already rebuilt (EXP-11 recovery).
    pub preload_direct: Vec<(String, ContextPair)>,
    /// Logical prefixes installed at boot: (prefix, service,
    /// well-known-context), re-resolved via `GetPid` on each use.
    pub preload_logical: Vec<(String, ServiceId, ContextId)>,
    /// Degraded-mode resolution; `None` (the default) times out like the
    /// paper's protocol.
    pub degraded: Option<DegradedPrefixConfig>,
}

impl Default for PrefixConfig {
    fn default() -> Self {
        PrefixConfig {
            scope: Scope::Local,
            preload_direct: Vec::new(),
            preload_logical: Vec::new(),
            degraded: None,
        }
    }
}

/// Estimated resident size of a prefix table with the given entries —
/// the reproduction's analogue of the paper's "4.5 kilobytes of code plus
/// 2.6 kilobytes of data" (§6), reported by EXP-5.
pub fn prefix_footprint_bytes(n_entries: usize, total_name_bytes: usize) -> usize {
    use std::mem::size_of;
    // Key Vec header + bytes, value, and an estimated B-tree per-entry share.
    n_entries * (size_of::<Vec<u8>>() + size_of::<ContextPair>() + size_of::<u32>() * 2 + 16)
        + total_name_bytes
}

/// Runs a context prefix server until the domain shuts down.
///
/// Implements the optional add/delete context-name operations (paper §5.7),
/// routing of every bracketed CSname request, a context directory of the
/// prefixes themselves, and the inverse (server, context) → `[prefix]`
/// mapping.
pub fn prefix_server(ctx: &dyn Ipc, config: PrefixConfig) {
    // An authoritative server's preloads are first-hand: stamped at boot
    // time and verified. A replica's preloads are hearsay (epoch 0,
    // unverified) until a sync round or a successful probe vouches for
    // them.
    let authoritative = config.degraded.is_none_or(|d| d.authoritative);
    let boot_ns = ctx.now().as_nanos() as u64;
    let mut table = SyncTable::new();
    for (name, pair) in &config.preload_direct {
        let b = PrefixTarget::Direct(*pair).to_binding();
        if authoritative {
            table.define(name.as_bytes().to_vec(), b, boot_ns);
        } else {
            table.preload(name.as_bytes().to_vec(), b);
        }
    }
    for (name, service, context) in &config.preload_logical {
        let b = PrefixTarget::Logical {
            service: *service,
            context: *context,
        }
        .to_binding();
        if authoritative {
            table.define(name.as_bytes().to_vec(), b, boot_ns);
        } else {
            table.preload(name.as_bytes().to_vec(), b);
        }
    }
    // The write-side table wraps into a sharded, snapshot-published view:
    // definitions and sync rounds mutate the `SyncTable` inside, and the
    // loop publishes a fresh read-only snapshot before serving the next
    // request — resolutions never read the write side.
    let mut sharded = ShardedTable::from_table(table);
    let mut instances: InstanceTable<Vec<u8>> = InstanceTable::new();
    // Suspect prefixes, indexed by name and by TTL expiry.
    let mut suspects = SuspectSet::default();
    let mut counters = SyncCounters::default();
    // Requests drained by a resolution burst that turned out not to be
    // resolutions themselves; served in order before blocking again.
    let mut queued: VecDeque<Received> = VecDeque::new();
    ctx.set_pid(ServiceId::CONTEXT_PREFIX, config.scope);
    if let Some(group) = config.degraded.and_then(|d| d.replica_group) {
        let _ = ctx.join_group(group);
    }

    loop {
        // Publish any table mutations from the previous iteration before
        // blocking: either the whole batch of a sync round becomes visible
        // or none of it does, so a reader can never observe a half-applied
        // round. A no-op (and no allocation) when nothing changed.
        sharded.publish();
        let rx = match queued.pop_front() {
            Some(rx) => rx,
            None => match ctx.receive() {
                Ok(rx) => rx,
                Err(_) => break,
            },
        };
        let msg = rx.msg;
        // Sweep expired suspicions on every iteration — a suspicion whose
        // TTL elapsed must clear even if no query for that prefix ever
        // arrives again (any message wakes the sweep). The TTL-ordered
        // index pops exactly the expired entries: O(expired), not O(armed).
        {
            let now_ns = ctx.now().as_nanos() as u64;
            counters.suspects_expired += suspects.expire(now_ns);
        }
        if msg.is_csname_request() {
            let payload = match ctx.move_from(&rx) {
                Ok(p) => p,
                Err(_) => continue,
            };
            let req = match CsRequest::parse(&msg, &payload) {
                Ok(r) => r,
                Err(code) => {
                    reply_code(ctx, rx, code);
                    continue;
                }
            };
            handle_csname(
                ctx,
                rx,
                &mut sharded,
                &mut instances,
                req,
                config.degraded,
                &mut suspects,
                &mut counters,
            );
            continue;
        }
        match msg.request_code() {
            Some(RequestCode::ReadInstance) => {
                let id = InstanceId(msg.word(fields::W_IO_INSTANCE));
                let offset = msg.word32(fields::W_IO_OFFSET_LO) as u64;
                let count = msg.word(fields::W_IO_COUNT) as usize;
                match instances
                    .check(id, false)
                    .and_then(|inst| serve_read(&inst.state, offset, count))
                {
                    Ok(window) => {
                        let window = window.to_vec();
                        let mut m = Message::ok();
                        m.set_word(fields::W_IO_COUNT, window.len() as u16);
                        reply_data(ctx, rx, m, window);
                    }
                    Err(code) => reply_code(ctx, rx, code),
                }
            }
            Some(RequestCode::ReleaseInstance) => {
                let id = InstanceId(msg.word(fields::W_IO_INSTANCE));
                let code = if instances.release(id).is_some() {
                    ReplyCode::Ok
                } else {
                    ReplyCode::InvalidInstance
                };
                reply_code(ctx, rx, code);
            }
            Some(RequestCode::GetContextName) => {
                // Inverse mapping: (server, context) → "[prefix]" (§5.7).
                let server = msg.pid_at(fields::W_TARGET_PID_LO);
                let target_ctx = ContextId::new(msg.word32(fields::W_TARGET_CTX_LO));
                let looking_for = ContextPair::new(server, target_ctx);
                let found = sharded.table().live_iter().find_map(|(name, b, _)| {
                    match PrefixTarget::from_binding(b) {
                        PrefixTarget::Direct(pair) if pair == looking_for => Some(name.to_vec()),
                        _ => None,
                    }
                });
                match found {
                    Some(name) => {
                        let mut out = Vec::with_capacity(name.len() + 2);
                        out.push(b'[');
                        out.extend_from_slice(&name);
                        out.push(b']');
                        reply_data(ctx, rx, Message::ok(), out);
                    }
                    // Paper §6: "there is no guarantee that there is an
                    // inverse mapping".
                    None => reply_code(ctx, rx, ReplyCode::NotFound),
                }
            }
            Some(RequestCode::Echo) => {
                let _ = ctx.reply(rx, msg, Bytes::new());
            }
            Some(RequestCode::ResolveBatch) => {
                // Resolve a batch of bare prefixes against ONE published
                // snapshot. Any further `ResolveBatch` requests already
                // sitting in the mailbox join the burst (up to a cap) and
                // are served from the same snapshot; the first non-resolve
                // request drained ends the burst and is queued for the
                // next iteration, so ordering for mutations is preserved.
                let mut burst = vec![rx];
                while burst.len() < MAX_RESOLVE_BURST {
                    match ctx.try_receive() {
                        Ok(Some(drained))
                            if drained.msg.request_code() == Some(RequestCode::ResolveBatch) =>
                        {
                            burst.push(drained);
                        }
                        Ok(Some(drained)) => {
                            queued.push_back(drained);
                            break;
                        }
                        Ok(None) | Err(_) => break,
                    }
                }
                let snap = sharded.snapshot();
                let now_ns = ctx.now().as_nanos() as u64;
                for rx in burst {
                    serve_resolve_batch(ctx, rx, &snap, &suspects, now_ns, &mut counters);
                }
            }
            Some(RequestCode::SyncPull) => {
                // One anti-entropy round against the configured authority:
                // digest out, delta back, apply atomically. A successful
                // round is the authority vouching for the whole table, so
                // armed suspicions clear, everything becomes verified, and
                // the synced watermark advances to the authority's epoch.
                // If the authority is unreachable (partitioned or crashed)
                // and a replica group is configured, fall back to one
                // gossip round against a peer replica — adopted entries
                // stay Suspect and the watermark does not move.
                let Some(d) = config.degraded.filter(|d| d.sync_peer.is_some()) else {
                    reply_code(ctx, rx, ReplyCode::NoServer);
                    continue;
                };
                let mut via_gossip = false;
                let mut applied: Option<ApplyOutcome> = None;
                if let Some(peer) = d.sync_peer {
                    let out = if d.flat_sync {
                        authority_round(
                            ctx,
                            sharded.table_mut(),
                            peer,
                            &mut counters,
                            &mut suspects,
                        )
                    } else {
                        merkle_authority_round(
                            ctx,
                            sharded.table_mut(),
                            peer,
                            &mut counters,
                            &mut suspects,
                        )
                    };
                    if let Some(out) = out {
                        applied = Some(out);
                    }
                }
                if applied.is_none() {
                    if let Some(group) = d.replica_group {
                        let out = if d.flat_sync {
                            gossip_round(ctx, sharded.table_mut(), group, &mut counters)
                        } else {
                            merkle_gossip_round(ctx, sharded.table_mut(), group, &mut counters)
                        };
                        if let Some(out) = out {
                            via_gossip = true;
                            applied = Some(out);
                        }
                    }
                }
                match applied {
                    Some(out) => {
                        let m = sync_reply(&out, sharded.table().max_epoch(), via_gossip);
                        reply_data(ctx, rx, m, Vec::new());
                    }
                    // Nothing was applied: the round is atomic, the peer
                    // just wasn't reachable this time. That is a transient
                    // condition, so answer `Retry` — `NoServer` is reserved
                    // for anti-entropy not being configured at all.
                    None => reply_code(ctx, rx, ReplyCode::Retry),
                }
            }
            Some(RequestCode::SyncGossip) => {
                let phase = msg.word(fields::W_SYNC_PHASE);
                if phase == 1 {
                    // Probe (multicast on the replica group): group replies
                    // carry no payload, so just volunteer this server's pid
                    // — the prober runs the digest round unicast.
                    let mut m = Message::ok();
                    m.set_pid_at(fields::W_PID_LO, ctx.my_pid());
                    let _ = ctx.reply(rx, m, Bytes::new());
                    continue;
                }
                // Trigger (unicast): run one gossip round now.
                let Some(group) = config.degraded.and_then(|d| d.replica_group) else {
                    reply_code(ctx, rx, ReplyCode::NoServer);
                    continue;
                };
                let flat = config.degraded.is_some_and(|d| d.flat_sync);
                let out = if flat {
                    gossip_round(ctx, sharded.table_mut(), group, &mut counters)
                } else {
                    merkle_gossip_round(ctx, sharded.table_mut(), group, &mut counters)
                };
                match out {
                    Some(out) => {
                        let m = sync_reply(&out, sharded.table().max_epoch(), true);
                        reply_data(ctx, rx, m, Vec::new());
                    }
                    // Transient: no peer answered this round's probe.
                    None => reply_code(ctx, rx, ReplyCode::Retry),
                }
            }
            Some(RequestCode::SyncDigest) => {
                let payload = match ctx.move_from(&rx) {
                    Ok(p) => p,
                    Err(_) => continue,
                };
                match SyncDigestMsg::decode(&payload) {
                    Ok(digest) => {
                        let now_ns = ctx.now().as_nanos() as u64;
                        let table = sharded.table_mut();
                        if authoritative {
                            // The digest doubles as the sender's watermark
                            // ack: record it, recompute the GC horizon
                            // (min watermark across known replicas), and
                            // collect what every replica has provably
                            // adopted — before computing the delta, so the
                            // fresh horizon governs the round.
                            table.record_watermark(rx.from.raw(), digest.watermark);
                            let horizon = table.horizon();
                            counters.gc_dropped += table.gc_below(horizon);
                        }
                        let delta = SyncDeltaMsg {
                            epoch: 0, // filled below, after stamping
                            horizon: if authoritative { table.gc_horizon() } else { 0 },
                            entries: table.delta_for(&digest.entries, authoritative, now_ns),
                        };
                        // The epoch header is stamped after `delta_for` so
                        // it covers any tombstones freshly minted for the
                        // digest's unknown prefixes: a replica that applies
                        // this whole delta really has synced through it.
                        let delta = SyncDeltaMsg {
                            epoch: table.max_epoch(),
                            ..delta
                        };
                        let mut m = Message::ok();
                        m.set_word(fields::W_SYNC_COUNT, count_word(delta.entries.len()));
                        reply_data(ctx, rx, m, delta.encode());
                    }
                    Err(_) => reply_code(ctx, rx, ReplyCode::BadArgs),
                }
            }
            Some(RequestCode::SyncProbe) => {
                // One step of a puller's Merkle walk. The responder's role
                // mirrors the flat `SyncDigest` handler: an authoritative
                // server records the probe's watermark and GCs behind the
                // fresh horizon on *every* probe (both operations are
                // idempotent and monotone, so a multi-probe round leaves
                // the same state one digest would), then answers child
                // hashes for the probed interior nodes and the delta for
                // the probed leaf buckets.
                let payload = match ctx.move_from(&rx) {
                    Ok(p) => p,
                    Err(_) => continue,
                };
                match SyncProbeMsg::decode(&payload) {
                    Ok(probe) => {
                        let now_ns = ctx.now().as_nanos() as u64;
                        let (reply, gc_dropped) = sharded.table_mut().answer_probe(
                            &probe,
                            authoritative,
                            Some(rx.from.raw()),
                            now_ns,
                        );
                        counters.gc_dropped += gc_dropped;
                        let mut m = Message::ok();
                        m.set_word(fields::W_SYNC_COUNT, count_word(reply.entries.len()))
                            .set_word(fields::W_SYNC_NODES, count_word(reply.nodes.len()));
                        reply_data(ctx, rx, m, reply.encode());
                    }
                    Err(_) => reply_code(ctx, rx, ReplyCode::BadArgs),
                }
            }
            Some(RequestCode::SyncStatus) => {
                let table = sharded.table_mut();
                let rec = SyncStatusRec {
                    epoch: table.max_epoch(),
                    live_entries: table.live_len() as u32,
                    tombstones: table.tombstone_len() as u32,
                    suspects: suspects.len() as u32,
                    table_hash: table.table_hash(),
                    rounds: counters.rounds,
                    adopted: counters.adopted,
                    dropped: counters.dropped,
                    promoted: counters.promoted,
                    suspects_expired: counters.suspects_expired,
                    binding_queries: counters.binding_queries,
                    watermark: table.watermark(),
                    gc_horizon: table.gc_horizon(),
                    gossip_rounds: counters.gossip_rounds,
                    gossip_adopted: counters.gossip_adopted,
                    gc_dropped: counters.gc_dropped,
                    probe_rounds: counters.probe_rounds,
                };
                reply_data(ctx, rx, Message::ok(), rec.encode());
            }
            _ => reply_code(ctx, rx, ReplyCode::UnknownRequest),
        }
    }
}

/// Answers one `ResolveBatch` request from a published snapshot.
///
/// Every name in the batch (and every request in a drained burst sharing
/// `snap`) is resolved against the same immutable snapshot, so the whole
/// batch observes one internally consistent table state. The batched
/// probe walks the names shard by shard ([`Snapshot::resolve_batch`]), so
/// a burst touches each shard's map once while it is cache-hot.
fn serve_resolve_batch(
    ctx: &dyn Ipc,
    rx: Received,
    snap: &Arc<Snapshot>,
    suspects: &SuspectSet,
    now_ns: u64,
    counters: &mut SyncCounters,
) {
    let payload = match ctx.move_from(&rx) {
        Ok(p) => p,
        Err(_) => return,
    };
    let batch = match ResolveBatchMsg::decode(&payload) {
        Ok(b) => b,
        Err(_) => return reply_code(ctx, rx, ReplyCode::BadArgs),
    };
    counters.binding_queries += batch.names.len() as u32;
    let refs: Vec<&[u8]> = batch.names.iter().map(Vec::as_slice).collect();
    let answers: Vec<ResolveAnswer> = snap
        .resolve_batch(&refs)
        .into_iter()
        .zip(&batch.names)
        .map(|(hit, name)| match hit {
            None => ResolveAnswer {
                status: RESOLVE_NOT_FOUND,
                pid: 0,
                context: 0,
                staleness: 0,
            },
            Some(entry) => {
                let staleness = u16::from(!entry.verified || suspects.is_armed(name, now_ns));
                match PrefixTarget::from_binding(&entry.binding) {
                    PrefixTarget::Direct(pair) => ResolveAnswer {
                        status: RESOLVE_OK,
                        pid: pair.server.raw(),
                        context: pair.context.raw(),
                        staleness,
                    },
                    // Logical entries re-resolve via `GetPid` on each use
                    // (paper §6) — the binding names a service, not a pid.
                    PrefixTarget::Logical { service, context } => {
                        match ctx.get_pid(service, Scope::Both) {
                            Some(pid) => ResolveAnswer {
                                status: RESOLVE_OK,
                                pid: pid.raw(),
                                context: context.raw(),
                                staleness,
                            },
                            None => ResolveAnswer {
                                status: RESOLVE_NO_SERVER,
                                pid: 0,
                                context: 0,
                                staleness,
                            },
                        }
                    }
                }
            }
        })
        .collect();
    let reply = ResolveBatchReply { answers };
    let mut m = Message::ok();
    m.set_word(fields::W_SYNC_COUNT, count_word(reply.answers.len()));
    reply_data(ctx, rx, m, reply.encode());
}

/// One digest → delta → apply round against the configured authority.
///
/// On success the authority has vouched for the whole table: everything
/// becomes verified, armed suspicions clear, the synced watermark advances
/// to the authority's epoch header, and tombstones at or below the
/// advertised GC horizon are collected. On any failure (unreachable peer,
/// error reply, undecodable delta) nothing changes — the round is atomic.
fn authority_round(
    ctx: &dyn Ipc,
    table: &mut SyncTable,
    peer: Pid,
    counters: &mut SyncCounters,
    suspects: &mut SuspectSet,
) -> Option<ApplyOutcome> {
    let digest = SyncDigestMsg {
        watermark: table.watermark(),
        entries: table.digest(),
    };
    let mut req = Message::request(RequestCode::SyncDigest);
    req.set_word(fields::W_SYNC_COUNT, count_word(digest.entries.len()));
    let reply = ctx
        .send(peer, req, Bytes::from(digest.encode()), 65536)
        .ok()?;
    if !reply.msg.reply_code().is_ok() {
        return None;
    }
    let delta = SyncDeltaMsg::decode(&reply.data).ok()?;
    let mut out = table.apply(&delta.entries, true);
    table.note_synced(delta.epoch);
    counters.gc_dropped += table.gc_below(delta.horizon);
    out.promoted += table.mark_all_verified();
    counters.rounds += 1;
    counters.adopted += out.adopted;
    counters.dropped += out.dropped_live;
    counters.promoted += out.promoted;
    suspects.clear();
    Some(out)
}

/// One replica↔replica gossip round (Grapevine-style: peers reconcile
/// without a live authority). Multicasts a phase-1 probe on the replica
/// group, then runs a unicast digest → delta round against the first peer
/// that answers. Adopted entries stay unverified — *Suspect*, served with
/// the staleness flag — until an authority round vouches for them, and
/// the synced watermark does not move: gossip spreads data, only the
/// authority spreads certainty.
fn gossip_round(
    ctx: &dyn Ipc,
    table: &mut SyncTable,
    group: GroupId,
    counters: &mut SyncCounters,
) -> Option<ApplyOutcome> {
    let peer = gossip_peer(ctx, group)?;
    let digest = SyncDigestMsg {
        watermark: table.watermark(),
        entries: table.digest(),
    };
    let mut req = Message::request(RequestCode::SyncDigest);
    req.set_word(fields::W_SYNC_COUNT, count_word(digest.entries.len()));
    let reply = ctx
        .send(peer, req, Bytes::from(digest.encode()), 65536)
        .ok()?;
    if !reply.msg.reply_code().is_ok() {
        return None;
    }
    let delta = SyncDeltaMsg::decode(&reply.data).ok()?;
    let out = table.apply(&delta.entries, false);
    counters.gossip_rounds += 1;
    counters.gossip_adopted += out.adopted;
    Some(out)
}

/// Solicits a gossip peer: multicasts a phase-1 `SyncGossip` probe on the
/// replica group and returns the first pid that volunteers (rejecting a
/// null pid and this server itself).
fn gossip_peer(ctx: &dyn Ipc, group: GroupId) -> Option<Pid> {
    let mut probe = Message::request(RequestCode::SyncGossip);
    probe.set_word(fields::W_SYNC_PHASE, 1);
    let reply = ctx.send_group(group, probe, Bytes::new()).ok()?;
    if !reply.msg.reply_code().is_ok() {
        return None;
    }
    let peer = reply.msg.pid_at(fields::W_PID_LO);
    if peer == Pid::NULL || peer == ctx.my_pid() {
        return None;
    }
    Some(peer)
}

/// Drives one Merkle walk over IPC against `peer`: sends `SyncProbe`
/// requests until the diverging frontier drains, and returns the
/// accumulated delta plus the final reply's epoch/horizon header. Any
/// unreachable peer, error reply, or undecodable payload kills the whole
/// round — the caller applies nothing (atomicity matches the flat round).
fn merkle_walk_ipc(
    ctx: &dyn Ipc,
    table: &mut SyncTable,
    peer: Pid,
    counters: &mut SyncCounters,
) -> Option<(Vec<SyncEntry>, u64, u64)> {
    let mut walk = MerkleWalk::start();
    while let Some(probe) = walk.next_probe(table) {
        let mut req = Message::request(RequestCode::SyncProbe);
        req.set_word(
            fields::W_SYNC_NODES,
            count_word(probe.nodes.len() + probe.leaves.len()),
        );
        let reply = ctx
            .send(peer, req, Bytes::from(probe.encode()), 65536)
            .ok()?;
        if !reply.msg.reply_code().is_ok() {
            return None;
        }
        let reply = SyncProbeReply::decode(&reply.data).ok()?;
        counters.probe_rounds += 1;
        walk.absorb(table, &reply);
    }
    let (delta, epoch, horizon, _probes) = walk.finish();
    Some((delta, epoch, horizon))
}

/// The Merkle-walk counterpart of [`authority_round`]: identical contract
/// (atomic; on success the authority has vouched for the whole table),
/// but the wire cost is proportional to divergence — an in-sync round is
/// a single root-hash probe.
fn merkle_authority_round(
    ctx: &dyn Ipc,
    table: &mut SyncTable,
    peer: Pid,
    counters: &mut SyncCounters,
    suspects: &mut SuspectSet,
) -> Option<ApplyOutcome> {
    let (delta, epoch, horizon) = merkle_walk_ipc(ctx, table, peer, counters)?;
    let mut out = table.apply(&delta, true);
    table.note_synced(epoch);
    counters.gc_dropped += table.gc_below(horizon);
    out.promoted += table.mark_all_verified();
    counters.rounds += 1;
    counters.adopted += out.adopted;
    counters.dropped += out.dropped_live;
    counters.promoted += out.promoted;
    suspects.clear();
    Some(out)
}

/// The Merkle-walk counterpart of [`gossip_round`]: same peer discovery,
/// same hearsay rules (adopted entries stay Suspect, the watermark and
/// horizon never move), with the digest exchange replaced by a walk.
fn merkle_gossip_round(
    ctx: &dyn Ipc,
    table: &mut SyncTable,
    group: GroupId,
    counters: &mut SyncCounters,
) -> Option<ApplyOutcome> {
    let peer = gossip_peer(ctx, group)?;
    let (delta, _epoch, _horizon) = merkle_walk_ipc(ctx, table, peer, counters)?;
    let out = table.apply(&delta, false);
    counters.gossip_rounds += 1;
    counters.gossip_adopted += out.adopted;
    Some(out)
}

fn strip_brackets(name: &[u8]) -> &[u8] {
    if name.first() == Some(&b'[') && name.last() == Some(&b']') && name.len() >= 2 {
        &name[1..name.len() - 1]
    } else {
        name
    }
}

#[allow(clippy::too_many_arguments)]
fn handle_csname(
    ctx: &dyn Ipc,
    rx: Received,
    sharded: &mut ShardedTable,
    instances: &mut InstanceTable<Vec<u8>>,
    req: CsRequest,
    degraded: Option<DegradedPrefixConfig>,
    suspects: &mut SuspectSet,
    counters: &mut SyncCounters,
) {
    let msg = rx.msg;
    // Add/delete with a bracketed name and a nonempty remainder are meant
    // for the server behind the prefix (e.g. creating a cross-server link
    // in a file server directory) — those fall through to forwarding below.
    let is_definition = matches!(
        msg.request_code(),
        Some(RequestCode::AddContextName) | Some(RequestCode::DeleteContextName)
    ) && match CsName::from(req.remaining()).parse_prefix() {
        Some(p) => req.remaining()[p.rest_index..].is_empty(),
        None => true,
    };
    match msg.request_code() {
        Some(RequestCode::AddContextName) if !is_definition => {}
        Some(RequestCode::DeleteContextName) if !is_definition => {}
        Some(RequestCode::AddContextName) => {
            // The optional definition operation (paper §5.7): bind a prefix
            // to an existing context.
            let name = strip_brackets(req.remaining()).to_vec();
            if name.is_empty() || name.contains(&b'[') || name.contains(&b']') {
                return reply_code(ctx, rx, ReplyCode::IllegalName);
            }
            let target = if msg.word(fields::W_LOGICAL) != 0 {
                PrefixTarget::Logical {
                    service: ServiceId::new(msg.word32(fields::W_TARGET_PID_LO)),
                    context: ContextId::new(msg.word32(fields::W_TARGET_CTX_LO)),
                }
            } else {
                PrefixTarget::Direct(ContextPair::new(
                    msg.pid_at(fields::W_TARGET_PID_LO),
                    ContextId::new(msg.word32(fields::W_TARGET_CTX_LO)),
                ))
            };
            let now_ns = ctx.now().as_nanos() as u64;
            sharded
                .table_mut()
                .define(name, target.to_binding(), now_ns);
            reply_code(ctx, rx, ReplyCode::Ok);
            return;
        }
        Some(RequestCode::DeleteContextName) => {
            // Deletion is a stamped tombstone, not a removal: sync rounds
            // must propagate the delete rather than resurrect the binding.
            // A name this table never held is a no-op — nothing to
            // propagate, and stamping anyway would grow the table without
            // bound under delete-of-unknown churn.
            let name = strip_brackets(req.remaining()).to_vec();
            let now_ns = ctx.now().as_nanos() as u64;
            let code = match sharded.table_mut().tombstone(&name, now_ns) {
                TombstoneOutcome::DroppedLive => ReplyCode::Ok,
                TombstoneOutcome::AlreadyDead | TombstoneOutcome::Unknown => ReplyCode::NotFound,
            };
            reply_code(ctx, rx, code);
            return;
        }
        _ => {}
    }

    let remaining = req.remaining();
    if remaining.is_empty() {
        // The name denotes the prefix context itself.
        return handle_own_context(ctx, rx, sharded.table(), instances, &req);
    }
    let parsed = match CsName::from(remaining).parse_prefix() {
        Some(p) => (p.prefix.to_vec(), p.rest_index),
        None => {
            // Not a bracketed name: this server defines no other bindings.
            return reply_code(ctx, rx, ReplyCode::IllegalName);
        }
    };
    let (prefix, rest_index) = parsed;

    // The measured cost of the paper's §6 table lives here: parsing the
    // prefix, scanning the table, rewriting and forwarding the message.
    if let Some(net) = ctx.net() {
        ctx.charge(net.params().t_prefix_processing);
    }

    // The hot path reads the published snapshot — a hash probe against
    // an immutable shard, no tree walk, no write-side coupling. The
    // snapshot holds only live entries, so a tombstone is a plain miss.
    let entry = match sharded.snapshot().lookup(&prefix) {
        Some(e) => *e,
        None => return reply_code(ctx, rx, ReplyCode::NotFound),
    };
    let target = PrefixTarget::from_binding(&entry.binding);

    let binding_query =
        msg.request_code() == Some(RequestCode::QueryName) && remaining[rest_index..].is_empty();
    if binding_query {
        counters.binding_queries += 1;
    }

    // Degraded-mode resolution: a bare-prefix `QueryName` asks only for
    // the binding, which this table already knows. While the bound host
    // is suspect (a recent forward timed out — unreachable, not
    // necessarily dead), or always on a non-authoritative replica, answer
    // it from the table with the staleness flag set instead of burning
    // another retransmission ladder. Only direct entries qualify: a
    // logical entry's authority is `GetPid`, which has its own recovery.
    // An entry the authority has vouched for (verified, no suspicion
    // armed) answers *fresh*: anti-entropy is what lets a replica hand
    // out first-class bindings without a probe to the authority.
    if let Some(d) = degraded {
        let now_ns = ctx.now().as_nanos() as u64;
        let suspect_armed = suspects.is_armed(&prefix, now_ns);
        if binding_query && (suspect_armed || !d.authoritative) {
            if let PrefixTarget::Direct(pair) = target {
                let staleness = if entry.verified && !suspect_armed {
                    0
                } else {
                    1
                };
                let mut m = Message::ok();
                m.set_context_id(pair.context);
                m.set_pid_at(fields::W_PID_LO, pair.server);
                m.set_word(fields::W_STALENESS, staleness);
                return reply_data(ctx, rx, m, Vec::new());
            }
        }
    }

    let (server, target_ctx) = match target {
        PrefixTarget::Direct(pair) => (pair.server, pair.context),
        PrefixTarget::Logical { service, context } => {
            // Re-resolved on every use (paper §6) — this is what makes the
            // entry survive server restarts.
            match ctx.get_pid(service, Scope::Both) {
                Some(pid) => (pid, context),
                None => return reply_code(ctx, rx, ReplyCode::NoServer),
            }
        }
    };
    let absolute_index = req.index + rest_index;
    match forward_csname(ctx, rx, server, target_ctx, absolute_index) {
        Err(vkernel::IpcError::NoProcess) => {
            // The bound server is permanently gone (not a transient loss
            // timeout): a direct entry is now a stale binding, so
            // tombstone it — the next definition re-binds, and sync
            // rounds propagate the removal. Logical entries stay; they
            // re-resolve via `GetPid` and survive restarts by design.
            if matches!(target, PrefixTarget::Direct(_)) {
                let now_ns = ctx.now().as_nanos() as u64;
                sharded.table_mut().tombstone(&prefix, now_ns);
            }
        }
        Err(vkernel::IpcError::Timeout) => {
            // The bound host did not answer the kernel's full ladder: it
            // may be alive yet unreachable (a partition). Arm a suspicion
            // so binding queries are served degraded until the TTL
            // expires — then the next request probes again. The *current*
            // request is already resolved as a timeout for its sender;
            // the client's retry is what lands on the degraded path.
            if let Some(d) = degraded {
                let until = ctx.now() + d.suspect_ttl;
                suspects.arm(prefix, until.as_nanos() as u64);
            }
        }
        Ok(()) => {
            // The path works again; any armed suspicion is disproved.
            suspects.disarm(&prefix);
        }
        Err(_) => {}
    }
}

/// Operations on the prefix server's own (single) context: directory
/// listing, query, mapping.
fn handle_own_context(
    ctx: &dyn Ipc,
    rx: Received,
    table: &SyncTable,
    instances: &mut InstanceTable<Vec<u8>>,
    req: &CsRequest,
) {
    let msg = rx.msg;
    match msg.request_code() {
        Some(RequestCode::CreateInstance)
            if matches!(msg.mode(), Some(OpenMode::Directory) | Some(OpenMode::Read)) =>
        {
            let pattern = if req.extra.is_empty() {
                None
            } else {
                Some(req.extra.clone())
            };
            let mut b = match pattern {
                Some(p) => DirectoryBuilder::with_pattern(p),
                None => DirectoryBuilder::new(),
            };
            for (name, binding, _) in table.live_iter() {
                let (pair, logical) = match PrefixTarget::from_binding(binding) {
                    PrefixTarget::Direct(pair) => (pair, 0u32),
                    PrefixTarget::Logical { service, context } => {
                        (ContextPair::new(Pid::NULL, context), service.raw())
                    }
                };
                let d = ObjectDescriptor::new(
                    DescriptorTag::ContextPrefix,
                    CsName::from(name.to_vec()),
                )
                .with_ext(DescriptorExt::ContextPrefix {
                    target: pair,
                    logical_service: logical,
                });
                b.push(&d);
            }
            let snapshot = b.finish();
            let size = snapshot.len() as u64;
            let inst = instances.open(rx.from, OpenMode::Directory, snapshot);
            let mut m = Message::ok();
            m.set_word(fields::W_INSTANCE, inst.0)
                .set_word32(fields::W_SIZE_LO, size as u32)
                .set_pid_at(fields::W_PID_LO, ctx.my_pid());
            reply_data(ctx, rx, m, Vec::new());
        }
        Some(RequestCode::QueryName) => {
            let mut m = Message::ok();
            m.set_context_id(ContextId::DEFAULT);
            m.set_pid_at(fields::W_PID_LO, ctx.my_pid());
            reply_data(ctx, rx, m, Vec::new());
        }
        Some(RequestCode::QueryObject) => {
            let d = ObjectDescriptor::new(DescriptorTag::Directory, CsName::from("[]"))
                .with_size(table.live_len() as u64)
                .with_ext(DescriptorExt::Directory {
                    context: ContextId::DEFAULT,
                    entries: table.live_len() as u32,
                });
            reply_descriptor(ctx, rx, &d);
        }
        _ => reply_code(ctx, rx, ReplyCode::UnknownRequest),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_reply_saturates_counts_and_keeps_epoch_and_gossip_words() {
        let out = ApplyOutcome {
            adopted: 1_000_000,
            dropped_live: u32::from(u16::MAX) + 1,
            promoted: 7,
        };
        let epoch = 0x1_2345_6789;
        let m = sync_reply(&out, epoch, true);
        assert_eq!(m.word(fields::W_SYNC_ADOPTED), 0xFFFF);
        assert_eq!(m.word(fields::W_SYNC_DROPPED), 0xFFFF);
        assert_eq!(m.word(fields::W_SYNC_PROMOTED), 7);
        assert_eq!(m.word32(fields::W_SYNC_EPOCH_LO), 0x2345_6789);
        assert_eq!(m.word(fields::W_SYNC_GOSSIP), 1);
        let m = sync_reply(&out, epoch, false);
        assert_eq!(m.word(fields::W_SYNC_GOSSIP), 0);
        assert_eq!(m.reply_code(), ReplyCode::Ok);
    }
}
