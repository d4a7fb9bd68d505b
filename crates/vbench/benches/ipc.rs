//! Wall-clock analogues of EXP-1 (Figure 1's message transaction) and
//! EXP-2 (bulk MoveTo), on the real-thread kernel.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use vbench::BenchClient;
use vkernel::{Domain, Ipc};
use vproto::{Message, RequestCode};

fn echo_server(ctx: &dyn Ipc) {
    while let Ok(rx) = ctx.receive() {
        let msg = rx.msg;
        ctx.reply(rx, msg, Bytes::new()).ok();
    }
}

fn bench_ipc_txn(c: &mut Criterion) {
    let domain = Domain::new();
    let host = domain.add_host();
    let server = domain.spawn(host, "echo", echo_server);
    let client = BenchClient::spawn(&domain, host, move |ctx| {
        ctx.send(server, Message::request(RequestCode::Echo), Bytes::new(), 0)
            .unwrap();
    });
    c.bench_function("ipc_txn/send_receive_reply_32B", |b| {
        b.iter_custom(|iters| client.time_batch(iters))
    });
    drop(client);
    domain.shutdown();
}

fn bench_ipc_oversubscribed(c: &mut Criterion) {
    // More runnable threads than the 2-core bench box has cores: four
    // clients and one server. A sender that spins here takes a core from
    // the thread that would answer it.
    let domain = Domain::new();
    let host = domain.add_host();
    let server = domain.spawn(host, "echo", echo_server);
    let clients: Vec<BenchClient> = (0..4)
        .map(|_| {
            BenchClient::spawn(&domain, host, move |ctx| {
                ctx.send(server, Message::request(RequestCode::Echo), Bytes::new(), 0)
                    .unwrap();
            })
        })
        .collect();
    c.bench_function("ipc_txn/oversubscribed_4_clients_32B", |b| {
        b.iter_custom(|iters| BenchClient::time_concurrent(&clients, iters))
    });
    drop(clients);
    domain.shutdown();
}

fn bench_ipc_payload(c: &mut Criterion) {
    let domain = Domain::new();
    let host = domain.add_host();
    let server = domain.spawn(host, "echo", |ctx| {
        while let Ok(rx) = ctx.receive() {
            let payload = ctx.move_from(&rx).unwrap();
            ctx.reply(rx, Message::ok(), payload).ok();
        }
    });
    let mut group = c.benchmark_group("ipc_txn/payload_roundtrip");
    for size in [512usize, 4096, 65536] {
        group.throughput(Throughput::Bytes(size as u64 * 2));
        let payload = Bytes::from(vec![0u8; size]);
        let client = BenchClient::spawn(&domain, host, move |ctx| {
            let r = ctx
                .send(
                    server,
                    Message::request(RequestCode::Echo),
                    payload.clone(),
                    size,
                )
                .unwrap();
            assert_eq!(r.data.len(), size);
        });
        group.bench_function(format!("{size}B"), |b| {
            b.iter_custom(|iters| client.time_batch(iters))
        });
        drop(client);
    }
    group.finish();
    domain.shutdown();
}

fn bench_move_to_64k(c: &mut Criterion) {
    // EXP-2's shape: a 64 KB program image moved into the blocked sender.
    let domain = Domain::new();
    let host = domain.add_host();
    let image = vec![0x4Eu8; 64 * 1024];
    let server = domain.spawn(host, "loader", move |ctx| {
        while let Ok(mut rx) = ctx.receive() {
            ctx.move_to(&mut rx, &image).unwrap();
            ctx.reply(rx, Message::ok(), Bytes::new()).ok();
        }
    });
    let client = BenchClient::spawn(&domain, host, move |ctx| {
        let r = ctx
            .send(
                server,
                Message::request(RequestCode::Echo),
                Bytes::new(),
                64 * 1024,
            )
            .unwrap();
        assert_eq!(r.data.len(), 64 * 1024);
    });
    let mut group = c.benchmark_group("move_to");
    group.throughput(Throughput::Bytes(64 * 1024));
    group.bench_function("program_load_64KB", |b| {
        b.iter_custom(|iters| client.time_batch(iters))
    });
    group.finish();
    drop(client);
    domain.shutdown();
}

fn bench_group_send(c: &mut Criterion) {
    // EXP-9's shape: multicast with first-reply-wins.
    let domain = Domain::new();
    let host = domain.add_host();
    let group_id = domain.client(host, |ctx| ctx.create_group());
    for _ in 0..4 {
        domain.spawn(host, "member", move |ctx| {
            ctx.join_group(group_id).unwrap();
            while let Ok(rx) = ctx.receive() {
                ctx.reply(rx, Message::ok(), Bytes::new()).ok();
            }
        });
    }
    // Give members a moment to join.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let client = BenchClient::spawn(&domain, host, move |ctx| {
        ctx.send_group(group_id, Message::request(RequestCode::Echo), Bytes::new())
            .unwrap();
    });
    c.bench_function("group_send/4_members_first_reply", |b| {
        b.iter_custom(|iters| client.time_batch(iters))
    });
    drop(client);
    domain.shutdown();
}

criterion_group!(
    benches,
    bench_ipc_txn,
    bench_ipc_oversubscribed,
    bench_ipc_payload,
    bench_move_to_64k,
    bench_group_send
);
criterion_main!(benches);
