//! The traced run (`--trace 1`): the per-layer ledger of the blocking
//! path, the tracing self-test, and each layer timed in isolation on the
//! workload's inputs.
//!
//! `README.md` lists which end-to-end metric each layer metric should
//! move, on which workload.

use crate::gen::{self, Names, Rng, Write};
use crate::stack::Stack;
use crate::stats::{self, time_per_call};
use crate::trace::{Layer, OpLedger, ServerWindow, Tracer, LAYERS};
use crate::workload::{self, ClientOut, Kind, Op, OpGen, Truth, Until};
use crate::{segment_seed, timed_boot, Metric, Outcome};
use bytes::Bytes;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};
use vio::{serve_read, InstanceTable};
use vkernel::Domain;
use vnaming::{
    build_csname_request, resolve, ComponentSpace, CsRequest, Outcome as Resolved, Step,
};
use vproto::{
    ContextId, CsName, LogicalHost, Message, OpenMode, Pid, RequestCode, ResolveAnswer,
    ResolveBatchMsg, ResolveBatchReply, SyncBinding, RESOLVE_OK,
};
use vservers::{MerkleWalk, ShardedTable, SyncTable};

/// Ops of the self-test, per workload.
fn self_test_ops(kind: Kind) -> u64 {
    match kind {
        Kind::OpenRead => 256,
        Kind::ResolveBatch => 32,
    }
}

/// Runs the self-test's fixed op sequence on `stack`, traced when the
/// stack is.
fn fixed_ops(stack: &Stack, truth: &Arc<Truth>, seed: u64) -> ClientOut {
    let (tx, rx) = mpsc::channel();
    let ops = OpGen::new(truth.kind, seed, 0x5e1f);
    let n = self_test_ops(truth.kind);
    let truth = truth.clone();
    stack.spawn("self-test", Layer::Client, move |ipc, probe| {
        let _ = tx.send(workload::reader_loop(
            ipc,
            probe,
            &truth,
            ops,
            Until::Ops(n),
        ));
    });
    rx.recv().unwrap_or_default()
}

fn txns(l: &OpLedger) -> u32 {
    l.sends + l.forwards
}

/// The blocking-path ledger of the ops around the median: each traced
/// piece is averaged over the ops ranked between the 45th and 55th
/// percentile by traced latency.
///
/// The sum takes the client stub and each server's work as traced, and
/// the kernel's share from a round trip timed in isolation: one per
/// client `send`, and half of one (a single handoff) per server
/// `forward`. The residue is what those pieces, each measured on its
/// own, leave unexplained: on this stack mostly waiting for a server busy
/// with another client, and handoff inside the stack costing more or less
/// than in isolation. The traced
/// queue wait and reply wake are printed beside it; they are not in the
/// sum, since with the stub and server work they fill every op by
/// construction.
#[derive(Debug, Default, Clone, Copy)]
struct Ledger {
    op_p50_ns: f64,
    stub: f64,
    kernel: f64,
    work: [f64; LAYERS],
    wait: f64,
    wake: f64,
    band: usize,
}

impl Ledger {
    fn of(ledgers: &[OpLedger], op_p50_ns: f64, txn_rtt_ns: f64) -> Ledger {
        let mut sorted: Vec<&OpLedger> = ledgers.iter().collect();
        sorted.sort_unstable_by_key(|l| l.total_ns);
        let lo = sorted.len() * 45 / 100;
        let hi = (sorted.len() * 55 / 100).max(lo + 1).min(sorted.len());
        let band = &sorted[lo..hi];
        let n = band.len() as f64;
        let avg = |f: &dyn Fn(&OpLedger) -> u64| band.iter().map(|l| f(l) as f64).sum::<f64>() / n;
        Ledger {
            op_p50_ns,
            stub: avg(&|l| l.stub_ns()),
            kernel: txn_rtt_ns * (avg(&|l| l.sends.into()) + avg(&|l| l.forwards.into()) / 2.0),
            work: std::array::from_fn(|i| avg(&|l| l.self_ns[i])),
            wait: avg(&|l| l.wait_ns),
            wake: avg(&|l| l.wake_ns),
            band: band.len(),
        }
    }

    fn accounted(&self) -> f64 {
        self.stub + self.kernel + self.work.iter().sum::<f64>()
    }

    fn residue(&self) -> f64 {
        self.op_p50_ns - self.accounted()
    }

    fn print(&self, kind: Kind) {
        let p = self.op_p50_ns;
        let row =
            |name: &str, ns: f64| println!("  {name:<38} {:>12.0} ns {:>6.1}%", ns, 100.0 * ns / p);
        println!(
            "layer ledger, {} (traced pieces: mean of the {} ops around the median):",
            kind.name(),
            self.band
        );
        row("vruntime stub (traced, outside send)", self.stub);
        row("vkernel handoff (from isolated rtt)", self.kernel);
        row(
            "vservers prefix server work (traced)",
            self.work[Layer::Prefix as usize],
        );
        row(
            "vservers replica work (traced)",
            self.work[Layer::Replica as usize],
        );
        row(
            "vservers file server work (traced)",
            self.work[Layer::File as usize],
        );
        row("residue", self.residue());
        row("= traced op p50", p);
        println!("  not in the sum:");
        row("vkernel queue wait (traced)", self.wait);
        row("vkernel reply wake (traced)", self.wake);
    }
}

/// A server's mean work per request over a window.
fn per_request(w: &ServerWindow) -> f64 {
    if w.requests == 0 {
        f64::NAN
    } else {
        w.self_ns as f64 / w.requests as f64
    }
}

/// Pools `phase` into `into`.
fn pool(into: &mut Option<workload::PhaseOut>, phase: workload::PhaseOut) {
    match into {
        Some(p) => p.merge(phase),
        None => *into = Some(phase),
    }
}

pub fn run_traced(kind: Kind, seed: u64, seconds: u64) -> Result<Outcome, String> {
    // Untraced and traced segments alternate, so placement luck and drift
    // on the host fall on both sides of `trace_overhead_frac`.
    let pairs = Kind::SEGMENTS.div_ceil(2);
    let length = Duration::from_secs_f64(seconds as f64 / f64::from(2 * pairs));
    let tracer = Arc::new(Tracer::default());
    let (mut untraced, mut phase) = (None, None);
    let (mut plain_check, mut traced_check) = (ClientOut::default(), ClientOut::default());
    for segment in 0..pairs {
        let seed = segment_seed(seed, segment);
        // The untraced program, exactly as the end-to-end run drives it.
        let (plain, truth, _) = timed_boot(kind, seed, None)?;
        if segment == 0 {
            plain_check = fixed_ops(&plain, &truth, seed);
        }
        pool(
            &mut untraced,
            workload::run_phase(&plain, &truth, seed, length),
        );
        plain.shutdown();

        let (traced, truth, _) = timed_boot(kind, seed, Some(tracer.clone()))?;
        if segment == 0 {
            traced_check = fixed_ops(&traced, &truth, seed);
        }
        pool(
            &mut phase,
            workload::run_phase(&traced, &truth, seed, length),
        );
        traced.shutdown();
    }
    let untraced = untraced.expect("at least one segment");
    let phase = phase.expect("at least one segment");

    let mut problems: Vec<String> = Vec::new();
    for (what, out) in [
        ("untraced self-test", &plain_check),
        ("traced self-test", &traced_check),
        ("untraced readers", &untraced.readers),
        ("untraced writer", &untraced.writer),
        ("traced readers", &phase.readers),
        ("traced writer", &phase.writer),
    ] {
        if out.failed > 0 || out.attempted == 0 {
            problems.push(format!(
                "{what}: {} of {} failed {:?}",
                out.failed, out.attempted, out.mismatches
            ));
        }
    }
    if plain_check.checksum != traced_check.checksum {
        problems.push(format!(
            "answer checksums differ: untraced {:016x}, traced {:016x}",
            plain_check.checksum, traced_check.checksum
        ));
    }
    let counts: Vec<u32> = traced_check
        .ledgers
        .iter()
        .chain(&phase.readers.ledgers)
        .map(txns)
        .collect();
    let txns_per_op = counts.first().copied().unwrap_or(0);
    if counts.iter().any(|&c| c != txns_per_op) {
        let (lo, hi) = (counts.iter().min(), counts.iter().max());
        problems.push(format!("transactions per op vary from {lo:?} to {hi:?}"));
    }
    println!(
        "self-test: checksums untraced {:016x} traced {:016x}; {txns_per_op} transactions per op in all {} traced ops",
        plain_check.checksum,
        traced_check.checksum,
        counts.len()
    );

    let mut untraced_lat = untraced.readers.lat_us.clone();
    let mut traced_lat = phase.readers.lat_us.clone();
    let untraced_p50 = stats::median(&mut untraced_lat);
    let traced_p50 = stats::median(&mut traced_lat);
    let isolated = Isolated::measure(kind, seed);
    isolated.print();
    let ledger = Ledger::of(
        &phase.readers.ledgers,
        traced_p50 * 1e3,
        isolated.txn_rtt_ns,
    );
    ledger.print(kind);
    let trace_overhead = traced_p50 / untraced_p50 - 1.0;
    println!("  residue_frac {:.4}; trace_overhead_frac {trace_overhead:.4} (untraced op p50 {untraced_p50:.2} us)", ledger.residue() / ledger.op_p50_ns);

    let (reads, all) = phase
        .servers
        .ok_or("the traced stack kept no server totals")?;
    let prefix = Layer::Prefix as usize;
    let busy = 1.0 - reads[prefix].idle_ns as f64 / phase.wall.as_nanos() as f64;
    println!(
        "  prefix server: {} requests, busy {:.1}% while readers ran; file server: {} requests",
        reads[prefix].requests,
        100.0 * busy,
        all[Layer::File as usize].requests
    );
    let mut lag = untraced.writer.lag_us.clone();

    let metrics = vec![
        Metric::new("vkernel.txn_rtt_ns", isolated.txn_rtt_ns, "ns"),
        Metric::new("vkernel.txns_per_op", f64::from(txns_per_op), "count"),
        Metric::new("vkernel.queue_wait_ns", ledger.wait, "ns"),
        Metric::new("vkernel.reply_wake_ns", ledger.wake, "ns"),
        Metric::new("vproto.csname_codec_ns", isolated.csname_codec_ns, "ns"),
        Metric::new(
            "vproto.batch_codec_ns_per_name",
            isolated.batch_codec_ns,
            "ns",
        ),
        Metric::new("vnaming.path_resolve_ns", isolated.path_resolve_ns, "ns"),
        Metric::new(
            "vservers.snapshot_probe_ns_per_name",
            isolated.probe_ns,
            "ns",
        ),
        Metric::new("vservers.define_ns", isolated.define_ns, "ns"),
        Metric::new("vservers.publish_ns", isolated.publish_ns, "ns"),
        Metric::new("vservers.sync_walk_us", isolated.sync_walk_us, "us"),
        Metric::new("vservers.prefix_self_ns", per_request(&all[prefix]), "ns"),
        Metric::new(
            "vservers.file_self_ns",
            per_request(&all[Layer::File as usize]),
            "ns",
        ),
        Metric::new("vservers.prefix_busy_frac", busy, "frac"),
        Metric::new("vio.instance_ns", isolated.instance_ns, "ns"),
        Metric::new("vruntime.stub_self_ns", ledger.stub, "ns"),
        Metric::new("residue_frac", ledger.residue() / ledger.op_p50_ns, "frac"),
        Metric::new("trace_overhead_frac", trace_overhead, "frac"),
        Metric::new(
            "gen.writer_lag_p99_us",
            stats::quantile(&mut lag, 0.99),
            "us",
        ),
    ];
    for p in &problems {
        println!("  problem: {p}");
    }
    let attempted =
        plain_check.attempted + traced_check.attempted + untraced.attempted() + phase.attempted();
    let failed = plain_check.failed + traced_check.failed + untraced.failed() + phase.failed();
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
    })
}

/// Layer costs timed in isolation, on the workload's inputs.
struct Isolated {
    txn_rtt_ns: f64,
    csname_codec_ns: f64,
    batch_codec_ns: f64,
    path_resolve_ns: f64,
    probe_ns: f64,
    define_ns: f64,
    publish_ns: f64,
    sync_walk_us: f64,
    instance_ns: f64,
}

impl Isolated {
    fn measure(kind: Kind, seed: u64) -> Isolated {
        let names = Names {
            seed,
            size: kind.table_size(),
        };
        let mut ops = OpGen::new(kind, seed, 0x1a7e);
        let sample: Vec<Op> = (0..64).map(|_| ops.next_op()).collect();
        let csnames: Vec<String> = sample.iter().flat_map(op_names).take(256).collect();
        let mut table = preloaded(&names);
        let sync_walk_us = sync_walk_us(&mut table, &names);
        let mut sharded = ShardedTable::from_table(table);
        let probe_ns = probe_ns(&sharded, &sample);
        let (define_ns, publish_ns) = define_publish_ns(&mut sharded, &names);
        drop(sharded);
        Isolated {
            txn_rtt_ns: txn_rtt_ns(kind.readers()),
            csname_codec_ns: csname_codec_ns(&csnames),
            batch_codec_ns: batch_codec_ns(&csnames),
            path_resolve_ns: path_resolve_ns(seed),
            probe_ns,
            define_ns,
            publish_ns,
            sync_walk_us,
            instance_ns: instance_ns(),
        }
    }

    fn print(&self) {
        println!("layers timed in isolation:");
        println!(
            "  vkernel 32-B send/receive/reply    {:>12.0} ns",
            self.txn_rtt_ns
        );
        println!(
            "  vproto CSname build + parse        {:>12.1} ns",
            self.csname_codec_ns
        );
        println!(
            "  vproto batch codec, per name       {:>12.1} ns",
            self.batch_codec_ns
        );
        println!(
            "  vnaming path resolve               {:>12.1} ns",
            self.path_resolve_ns
        );
        println!(
            "  vservers snapshot probe, per name  {:>12.1} ns",
            self.probe_ns
        );
        println!(
            "  vservers define / tombstone        {:>12.0} ns",
            self.define_ns
        );
        println!(
            "  vservers publish                   {:>12.0} ns",
            self.publish_ns
        );
        println!(
            "  vservers sync walk, 32 behind      {:>12.1} us",
            self.sync_walk_us
        );
        println!(
            "  vio instance open/read/release     {:>12.1} ns",
            self.instance_ns
        );
    }
}

/// The CSnames an op interprets, bracketed as the client sends them.
fn op_names(op: &Op) -> Vec<String> {
    match op {
        Op::Open { path, .. } => vec![path.clone()],
        Op::Batch(b) => b.names().iter().map(|n| format!("[{n}]")).collect(),
    }
}

fn binding(names: &Names, i: u64) -> SyncBinding {
    SyncBinding {
        logical: false,
        target: 0x0002_0001,
        context: names.dir_of(i) as u32 + 2,
    }
}

/// The workload's table as both prefix servers load it.
fn preloaded(names: &Names) -> SyncTable {
    let mut t = SyncTable::new();
    for i in 0..names.size {
        t.preload(names.name(i).into_bytes(), binding(names, i));
    }
    t
}

/// One authority-side write of the writer's schedule.
fn apply_write(table: &mut SyncTable, w: &Write, now_ns: u64) {
    match w {
        Write::Add { name, dir } => table.define(
            name.clone().into_bytes(),
            SyncBinding {
                logical: false,
                target: 0x0002_0001,
                context: *dir as u32 + 2,
            },
            now_ns,
        ),
        Write::Delete { name } => {
            table.tombstone(name.as_bytes(), now_ns);
        }
    }
}

fn txn_rtt_ns(clients: usize) -> f64 {
    const BATCH: usize = 2_000;
    const ROUNDS: usize = 40;
    let domain = Domain::new();
    let host = domain.add_host();
    let echo = domain.spawn(host, "echo", |ctx| {
        while let Ok(rx) = ctx.receive() {
            let msg = rx.msg;
            if ctx.reply(rx, msg, Bytes::new()).is_err() {
                break;
            }
        }
    });
    let barrier = Arc::new(Barrier::new(clients));
    let (tx, rx) = mpsc::channel::<Vec<f64>>();
    for _ in 0..clients {
        let (barrier, tx) = (barrier.clone(), tx.clone());
        domain.spawn(host, "ping", move |ctx| {
            barrier.wait();
            let per: Vec<f64> = (0..ROUNDS)
                .map(|_| {
                    let t = Instant::now();
                    for _ in 0..BATCH {
                        let _ = black_box(ctx.send(
                            echo,
                            Message::request(RequestCode::Echo),
                            Bytes::new(),
                            0,
                        ));
                    }
                    t.elapsed().as_nanos() as f64 / BATCH as f64
                })
                .collect();
            let _ = tx.send(per);
        });
    }
    drop(tx);
    let mut all: Vec<f64> = rx.iter().flatten().collect();
    domain.shutdown();
    stats::median(&mut all)
}

fn csname_codec_ns(csnames: &[String]) -> f64 {
    let names: Vec<CsName> = csnames.iter().map(|n| CsName::from(n.as_str())).collect();
    time_per_call(15, 20, || {
        for n in &names {
            let (msg, payload) =
                build_csname_request(RequestCode::QueryName, ContextId::DEFAULT, n, &[]);
            let _ = black_box(CsRequest::parse(&msg, &payload));
        }
    }) / names.len() as f64
}

fn batch_codec_ns(csnames: &[String]) -> f64 {
    let msg = ResolveBatchMsg {
        names: csnames
            .iter()
            .map(|n| {
                n.trim_start_matches('[')
                    .trim_end_matches(['/', ']'])
                    .as_bytes()
                    .to_vec()
            })
            .collect(),
    };
    let reply = ResolveBatchReply {
        answers: (0..msg.names.len() as u32)
            .map(|i| ResolveAnswer {
                status: RESOLVE_OK,
                pid: 0x0002_0001,
                context: i,
                staleness: 1,
            })
            .collect(),
    };
    time_per_call(15, 20, || {
        let _ = black_box(ResolveBatchMsg::decode(&black_box(&msg).encode()));
        let _ = black_box(ResolveBatchReply::decode(&black_box(&reply).encode()));
    }) / msg.names.len() as f64
}

/// A name space shaped like the file server's tree.
struct Tree(HashMap<(u32, Vec<u8>), Step<u32>>);

impl Tree {
    fn new() -> Tree {
        let mut m = HashMap::new();
        let dirs = gen::DIRS as u32;
        m.insert((0, b"u".to_vec()), Step::Context(ContextId::new(1)));
        for d in 0..dirs {
            m.insert(
                (1, format!("d{d}").into_bytes()),
                Step::Context(ContextId::new(2 + d)),
            );
            m.insert(
                (2 + d, b"s".to_vec()),
                Step::Context(ContextId::new(2 + dirs + d)),
            );
            for f in 0..gen::FILES_PER_DIR as u32 {
                m.insert(
                    (2 + dirs + d, format!("f{f}.txt").into_bytes()),
                    Step::Object(d * 64 + f),
                );
            }
        }
        Tree(m)
    }
}

impl ComponentSpace for Tree {
    type Object = u32;

    fn step(&self, ctx: ContextId, component: &[u8]) -> Step<u32> {
        self.0
            .get(&(ctx.raw(), component.to_vec()))
            .cloned()
            .unwrap_or(Step::NotFound)
    }

    fn valid_context(&self, ctx: ContextId) -> bool {
        ctx.raw() < 2 + 2 * gen::DIRS as u32
    }
}

fn path_resolve_ns(seed: u64) -> f64 {
    let tree = Tree::new();
    let mut rng = Rng::new(seed, 0x9a7);
    let paths: Vec<Vec<u8>> = (0..256)
        .map(|_| gen::file_path(rng.below(gen::DIRS), rng.below(gen::FILES_PER_DIR)).into_bytes())
        .collect();
    time_per_call(15, 20, || {
        for p in &paths {
            let out = resolve(&tree, black_box(p), 0, ContextId::new(0), b'/');
            assert!(matches!(out, Resolved::Done { .. }));
        }
    }) / paths.len() as f64
}

fn probe_ns(sharded: &ShardedTable, sample: &[Op]) -> f64 {
    let snap = sharded.snapshot();
    let batches: Vec<Vec<Vec<u8>>> = sample
        .iter()
        .map(|op| match op {
            Op::Batch(b) => b.names().iter().map(|n| n.clone().into_bytes()).collect(),
            Op::Open { .. } => vec![b"home".to_vec()],
        })
        .collect();
    let names: usize = batches.iter().map(Vec::len).sum();
    let refs: Vec<Vec<&[u8]>> = batches
        .iter()
        .map(|b| b.iter().map(Vec::as_slice).collect())
        .collect();
    time_per_call(15, 4, || {
        for b in &refs {
            black_box(snap.resolve_batch(black_box(b)));
        }
    }) / names as f64
}

/// Median cost of one define or tombstone, and of the publish after it,
/// at the workload's table size.
fn define_publish_ns(sharded: &mut ShardedTable, names: &Names) -> (f64, f64) {
    let schedule = gen::write_schedule(names, 32);
    let mut now_ns = 1u64 << 40;
    let (mut define, mut publish) = (Vec::new(), Vec::new());
    for w in &schedule {
        now_ns += 20_000_000;
        let t = Instant::now();
        apply_write(sharded.table_mut(), w, now_ns);
        define.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        sharded.publish();
        publish.push(t.elapsed().as_nanos() as f64);
    }
    (stats::median(&mut define), stats::median(&mut publish))
}

/// One replica round without IPC, 32 writes behind: the walk's probes
/// answered by the authority's table on the authority's path (it records
/// the replica's watermark and collects tombstones behind the horizon),
/// then the delta applied the way the prefix server applies it.
fn sync_walk_us(authority: &mut SyncTable, names: &Names) -> f64 {
    let mut replica = authority.clone();
    replica.mark_all_verified();
    let schedule = gen::write_schedule(names, 32 * 8);
    let mut now_ns = 1u64 << 40;
    let mut rounds = Vec::new();
    for window in schedule.chunks(32) {
        for w in window {
            now_ns += 20_000_000;
            apply_write(authority, w, now_ns);
        }
        let t = Instant::now();
        let mut walk = MerkleWalk::start();
        while let Some(probe) = walk.next_probe(&replica) {
            let (reply, _) = authority.answer_probe(&probe, true, Some(1), now_ns);
            walk.absorb(&mut replica, &reply);
        }
        let (delta, epoch, horizon, _) = walk.finish();
        let out = replica.apply(&delta, true);
        replica.note_synced(epoch);
        replica.gc_below(horizon);
        replica.mark_all_verified();
        rounds.push(t.elapsed().as_secs_f64() * 1e6);
        assert_eq!(out.adopted as usize, delta.len());
    }
    stats::median(&mut rounds)
}

fn instance_ns() -> f64 {
    let mut table: InstanceTable<u32> = InstanceTable::new();
    let owner = Pid::new(LogicalHost::new(1), 1);
    let data = vec![7u8; gen::FILE_BYTES];
    time_per_call(15, 2_000, || {
        let id = table.open(owner, OpenMode::Read, 7);
        let inst = table.check(id, false).map(|i| i.state);
        let _ = black_box(serve_read(&data, 0, 512).map(<[u8]>::len));
        let _ = black_box(serve_read(&data, gen::FILE_BYTES as u64, 512));
        black_box(inst.ok());
        table.release(id);
    })
}
