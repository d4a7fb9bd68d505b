//! Behavioural tests for the real-thread kernel: rendezvous semantics,
//! forwarding, MoveTo/MoveFrom, failure modes, groups, and service naming.

use bytes::Bytes;
use vkernel::{Domain, Ipc, IpcError};
use vproto::{Message, ReplyCode, RequestCode, Scope, ServiceId};

fn echo_server(ctx: &dyn Ipc) {
    while let Ok(rx) = ctx.receive() {
        let msg = rx.msg;
        let payload = ctx.move_from(&rx).unwrap();
        ctx.reply(rx, msg, payload).ok();
    }
}

#[test]
fn send_receive_reply_roundtrip() {
    let domain = Domain::new();
    let host = domain.add_host();
    let server = domain.spawn(host, "echo", echo_server);
    let reply = domain
        .client(host, move |ctx| {
            ctx.send(
                server,
                Message::request(RequestCode::Echo),
                Bytes::from_static(b"hello"),
                64,
            )
        })
        .unwrap();
    assert_eq!(reply.msg.request_code(), Some(RequestCode::Echo));
    assert_eq!(&reply.data[..], b"hello");
}

#[test]
fn sender_identity_is_visible_to_receiver() {
    let domain = Domain::new();
    let host = domain.add_host();
    let server = domain.spawn(host, "who", |ctx| {
        while let Ok(rx) = ctx.receive() {
            let mut m = Message::ok();
            m.set_pid_at(5, rx.from);
            ctx.reply(rx, m, Bytes::new()).ok();
        }
    });
    let (me, reported) = domain.client(host, move |ctx| {
        let r = ctx
            .send(server, Message::request(RequestCode::Echo), Bytes::new(), 0)
            .unwrap();
        (ctx.my_pid(), r.msg.pid_at(5))
    });
    assert_eq!(me, reported);
}

#[test]
fn forward_makes_reply_come_from_third_process() {
    // Paper §3.1: "it appears as though the sender originally sent to the
    // third process".
    let domain = Domain::new();
    let host = domain.add_host();
    let backend = domain.spawn(host, "backend", |ctx| {
        while let Ok(rx) = ctx.receive() {
            // The backend sees the ORIGINAL sender, not the forwarder.
            let mut m = Message::ok();
            m.set_pid_at(5, rx.from);
            m.set_pid_at(7, ctx.my_pid());
            ctx.reply(rx, m, Bytes::new()).ok();
        }
    });
    let front = domain.spawn(host, "front", move |ctx| {
        while let Ok(rx) = ctx.receive() {
            let msg = rx.msg;
            ctx.forward(rx, backend, msg).ok();
        }
    });
    let (client_pid, seen_sender, replier) = domain.client(host, move |ctx| {
        let r = ctx
            .send(front, Message::request(RequestCode::Echo), Bytes::new(), 0)
            .unwrap();
        (ctx.my_pid(), r.msg.pid_at(5), r.msg.pid_at(7))
    });
    assert_eq!(seen_sender, client_pid);
    assert_eq!(replier, backend);
}

#[test]
fn forward_preserves_payload_for_move_from() {
    let domain = Domain::new();
    let host = domain.add_host();
    let backend = domain.spawn(host, "backend", |ctx| {
        while let Ok(rx) = ctx.receive() {
            let payload = ctx.move_from(&rx).unwrap();
            ctx.reply(rx, Message::ok(), payload).ok();
        }
    });
    let front = domain.spawn(host, "front", move |ctx| {
        while let Ok(rx) = ctx.receive() {
            let msg = rx.msg;
            ctx.forward(rx, backend, msg).ok();
        }
    });
    let reply = domain
        .client(host, move |ctx| {
            ctx.send(
                front,
                Message::request(RequestCode::Echo),
                Bytes::from_static(b"via-forward"),
                64,
            )
        })
        .unwrap();
    assert_eq!(&reply.data[..], b"via-forward");
}

#[test]
fn move_to_accumulates_before_reply() {
    let domain = Domain::new();
    let host = domain.add_host();
    let server = domain.spawn(host, "chunker", |ctx| {
        while let Ok(mut rx) = ctx.receive() {
            ctx.move_to(&mut rx, b"part1-").unwrap();
            ctx.move_to(&mut rx, b"part2-").unwrap();
            ctx.reply(rx, Message::ok(), Bytes::from_static(b"tail"))
                .ok();
        }
    });
    let reply = domain
        .client(host, move |ctx| {
            ctx.send(
                server,
                Message::request(RequestCode::Echo),
                Bytes::new(),
                64,
            )
        })
        .unwrap();
    assert_eq!(&reply.data[..], b"part1-part2-tail");
}

#[test]
fn buffer_overflow_reported_to_both_sides() {
    let domain = Domain::new();
    let host = domain.add_host();
    let (err_tx, err_rx) = crossbeam::channel::bounded(1);
    let server = domain.spawn(host, "bloat", move |ctx| {
        while let Ok(rx) = ctx.receive() {
            let result = ctx.reply(rx, Message::ok(), Bytes::from(vec![0u8; 100]));
            let _ = err_tx.send(result);
        }
    });
    let client_result = domain.client(host, move |ctx| {
        ctx.send(
            server,
            Message::request(RequestCode::Echo),
            Bytes::new(),
            10,
        )
    });
    assert_eq!(client_result.unwrap_err(), IpcError::BufferOverflow);
    assert_eq!(err_rx.recv().unwrap(), Err(IpcError::BufferOverflow));
}

#[test]
fn move_to_rejects_overflow_but_keeps_transaction_open() {
    let domain = Domain::new();
    let host = domain.add_host();
    let server = domain.spawn(host, "careful", |ctx| {
        while let Ok(mut rx) = ctx.receive() {
            assert_eq!(
                ctx.move_to(&mut rx, &[0u8; 999]),
                Err(IpcError::BufferOverflow)
            );
            // Transaction still completes normally afterwards.
            ctx.reply(rx, Message::ok(), Bytes::from_static(b"ok"))
                .unwrap();
        }
    });
    let reply = domain
        .client(host, move |ctx| {
            ctx.send(server, Message::request(RequestCode::Echo), Bytes::new(), 8)
        })
        .unwrap();
    assert_eq!(&reply.data[..], b"ok");
}

#[test]
fn send_to_nonexistent_process_fails_fast() {
    let domain = Domain::new();
    let host = domain.add_host();
    let bogus = vproto::Pid::new(host, 9999);
    let err = domain
        .client(host, move |ctx| {
            ctx.send(bogus, Message::request(RequestCode::Echo), Bytes::new(), 0)
        })
        .unwrap_err();
    assert_eq!(err, IpcError::NoProcess);
}

#[test]
fn dropping_received_unreplied_unblocks_sender_with_error() {
    let domain = Domain::new();
    let host = domain.add_host();
    let server = domain.spawn(host, "dropper", |ctx| {
        while let Ok(rx) = ctx.receive() {
            drop(rx); // never reply
        }
    });
    let err = domain
        .client(host, move |ctx| {
            ctx.send(server, Message::request(RequestCode::Echo), Bytes::new(), 0)
        })
        .unwrap_err();
    assert_eq!(err, IpcError::ProcessDied);
}

#[test]
fn killed_server_unblocks_pending_sender() {
    let domain = Domain::new();
    let host = domain.add_host();
    let (ready_tx, ready_rx) = crossbeam::channel::bounded(1);
    // A server that stalls forever after signalling readiness.
    let server = domain.spawn(host, "stall", move |ctx| {
        let rx = ctx.receive().unwrap();
        let _ = ready_tx.send(());
        // Hold the transaction until killed.
        match ctx.receive() {
            Ok(_) | Err(_) => drop(rx),
        }
    });
    let d2 = domain.clone();
    let result = std::thread::spawn(move || {
        d2.client(host, move |ctx| {
            ctx.send(server, Message::request(RequestCode::Echo), Bytes::new(), 0)
        })
    });
    ready_rx.recv().unwrap();
    domain.kill(server);
    assert_eq!(result.join().unwrap().unwrap_err(), IpcError::ProcessDied);
}

#[test]
fn registry_rebinding_after_crash() {
    // Paper §4.2: a storage server recreated after a crash has a different
    // pid but is the same service.
    let domain = Domain::new();
    let host = domain.add_host();
    let v1 = domain.spawn(host, "svc1", |ctx| {
        ctx.set_pid(ServiceId::FILE_SERVER, Scope::Both);
        while ctx.receive().is_ok() {}
    });
    // Wait for registration.
    while domain
        .registry()
        .lookup(ServiceId::FILE_SERVER, Scope::Both, host)
        .is_none()
    {
        std::thread::yield_now();
    }
    domain.kill(v1);
    assert!(domain
        .registry()
        .lookup(ServiceId::FILE_SERVER, Scope::Both, host)
        .is_none());
    let v2 = domain.spawn(host, "svc2", |ctx| {
        ctx.set_pid(ServiceId::FILE_SERVER, Scope::Both);
        while ctx.receive().is_ok() {}
    });
    while domain
        .registry()
        .lookup(ServiceId::FILE_SERVER, Scope::Both, host)
        .is_none()
    {
        std::thread::yield_now();
    }
    let found = domain.client(host, |ctx| ctx.get_pid(ServiceId::FILE_SERVER, Scope::Both));
    assert_eq!(found, Some(v2));
    assert_ne!(v1, v2);
}

#[test]
fn get_pid_scopes_separate_local_and_public_servers() {
    let domain = Domain::new();
    let (a, b) = (domain.add_host(), domain.add_host());
    domain.spawn(a, "local-prefix", |ctx| {
        ctx.set_pid(ServiceId::CONTEXT_PREFIX, Scope::Local);
        while ctx.receive().is_ok() {}
    });
    // Wait for registration to land.
    while domain
        .registry()
        .lookup(ServiceId::CONTEXT_PREFIX, Scope::Both, a)
        .is_none()
    {
        std::thread::yield_now();
    }
    let from_a = domain.client(a, |ctx| ctx.get_pid(ServiceId::CONTEXT_PREFIX, Scope::Both));
    let from_b = domain.client(b, |ctx| ctx.get_pid(ServiceId::CONTEXT_PREFIX, Scope::Both));
    assert!(from_a.is_some());
    assert!(from_b.is_none(), "local-scope server must stay private");
}

#[test]
fn group_send_first_reply_wins() {
    let domain = Domain::new();
    let host = domain.add_host();
    let group = domain.client(host, |ctx| ctx.create_group());
    for tag in [1u16, 2, 3] {
        let g = group;
        domain.spawn(host, "member", move |ctx| {
            ctx.join_group(g).unwrap();
            ctx.set_pid(ServiceId::new(7000 + tag as u32), Scope::Both);
            while let Ok(rx) = ctx.receive() {
                let mut m = Message::ok();
                m.set_word(5, tag);
                ctx.reply(rx, m, Bytes::new()).ok();
            }
        });
    }
    // Wait until all three members joined.
    for tag in [1u32, 2, 3] {
        while domain
            .registry()
            .lookup(ServiceId::new(7000 + tag), Scope::Both, host)
            .is_none()
        {
            std::thread::yield_now();
        }
    }
    let reply = domain
        .client(host, move |ctx| {
            ctx.send_group(group, Message::request(RequestCode::Echo), Bytes::new())
        })
        .unwrap();
    assert_eq!(reply.msg.reply_code(), ReplyCode::Ok);
    assert!((1..=3).contains(&reply.msg.word(5)));
}

#[test]
fn group_send_with_no_members_errors() {
    let domain = Domain::new();
    let host = domain.add_host();
    let err = domain
        .client(host, |ctx| {
            let g = ctx.create_group();
            ctx.send_group(g, Message::request(RequestCode::Echo), Bytes::new())
        })
        .unwrap_err();
    assert_eq!(err, IpcError::NoReply);
}

#[test]
fn group_send_to_unknown_group_errors() {
    let domain = Domain::new();
    let host = domain.add_host();
    let err = domain
        .client(host, |ctx| {
            ctx.send_group(
                vkernel::GroupId(424242),
                Message::request(RequestCode::Echo),
                Bytes::new(),
            )
        })
        .unwrap_err();
    assert_eq!(err, IpcError::NoSuchGroup);
}

#[test]
fn many_concurrent_clients_are_all_served() {
    let domain = Domain::new();
    let host = domain.add_host();
    let server = domain.spawn(host, "echo", echo_server);
    let mut handles = Vec::new();
    for i in 0..32u32 {
        let d = domain.clone();
        handles.push(std::thread::spawn(move || {
            d.client(host, move |ctx| {
                let mut m = Message::request(RequestCode::Echo);
                m.set_word32(5, i);
                let r = ctx.send(server, m, Bytes::new(), 0).unwrap();
                r.msg.word32(5)
            })
        }));
    }
    let mut results: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    results.sort_unstable();
    assert_eq!(results, (0..32).collect::<Vec<_>>());
}

#[test]
fn shutdown_terminates_servers_cleanly() {
    let domain = Domain::new();
    let host = domain.add_host();
    for _ in 0..4 {
        domain.spawn(host, "echo", echo_server);
    }
    domain.shutdown(); // must not hang
}

#[test]
fn emulated_1984_mode_reproduces_transaction_times_in_wall_clock() {
    use std::time::Instant;
    let domain = Domain::emulated_1984(vnet::Params1984::ethernet_3mbit());
    let (a, b) = (domain.add_host(), domain.add_host());
    let local_server = domain.spawn(a, "echo-l", echo_server);
    let remote_server = domain.spawn(b, "echo-r", echo_server);
    let (local, remote) = domain.client(a, move |ctx| {
        let time = |server| {
            let t0 = Instant::now();
            for _ in 0..5 {
                ctx.send(server, Message::request(RequestCode::Echo), Bytes::new(), 0)
                    .unwrap();
            }
            t0.elapsed() / 5
        };
        (time(local_server), time(remote_server))
    });
    // Sleeps only put lower bounds on wall time; scheduling adds jitter.
    assert!(local.as_micros() >= 770, "local {local:?}");
    assert!(remote.as_micros() >= 2560, "remote {remote:?}");
    assert!(remote > local);
    // Sanity: not wildly slower than the 1984 hardware either.
    assert!(remote.as_millis() < 30, "remote {remote:?}");
}

#[test]
fn emulated_mode_exposes_the_cost_model_to_servers() {
    let plain = Domain::new();
    let h1 = plain.add_host();
    assert!(plain.client(h1, |ctx| ctx.net().is_none()));
    let emulated = Domain::emulated_1984(vnet::Params1984::ethernet_3mbit());
    let h2 = emulated.add_host();
    assert!(emulated.client(h2, |ctx| ctx.net().is_some()));
}

// Reply-slot hazards: each process has one reusable reply slot, so an
// answer meant for an earlier transaction must never reach a later one.

#[test]
fn late_group_answers_never_reach_the_next_send() {
    let domain = Domain::new();
    let host = domain.add_host();
    let group = domain.client(host, |ctx| ctx.create_group());
    let (go_tx, go_rx) = crossbeam::channel::unbounded::<()>();
    let (late_tx, late_rx) = crossbeam::channel::unbounded::<()>();
    let (joined_tx, joined_rx) = crossbeam::channel::unbounded::<()>();
    // tag 1 answers at once. Tags 2 and 3 hold the request until the
    // client has its group answer; then 2 answers and 3 drops the request,
    // which counts the group transaction's last holder out.
    for tag in [1u16, 2, 3] {
        let (go_rx, late_tx, joined_tx) = (go_rx.clone(), late_tx.clone(), joined_tx.clone());
        domain.spawn(host, "member", move |ctx| {
            ctx.join_group(group).unwrap();
            joined_tx.send(()).unwrap();
            while let Ok(rx) = ctx.receive() {
                if tag > 1 {
                    go_rx.recv().unwrap();
                }
                if tag == 3 {
                    drop(rx);
                } else {
                    let mut m = Message::ok();
                    m.set_word(5, tag);
                    ctx.reply(rx, m, Bytes::new()).ok();
                }
                if tag > 1 {
                    late_tx.send(()).unwrap();
                }
            }
        });
    }
    // The echo answers only after both late members are done, so their
    // stale answers land while the client is blocked on the echo.
    let echo = domain.spawn(host, "echo", move |ctx| {
        while let Ok(rx) = ctx.receive() {
            late_rx.recv().unwrap();
            late_rx.recv().unwrap();
            let mut m = Message::ok();
            m.set_word(5, 99);
            ctx.reply(rx, m, Bytes::from_static(b"echo")).ok();
        }
    });
    for _ in 0..3 {
        joined_rx.recv().unwrap();
    }
    let (first, second) = domain.client(host, move |ctx| {
        let first = ctx
            .send_group(group, Message::request(RequestCode::Echo), Bytes::new())
            .unwrap();
        go_tx.send(()).unwrap();
        go_tx.send(()).unwrap();
        let second = ctx
            .send(echo, Message::request(RequestCode::Echo), Bytes::new(), 16)
            .unwrap();
        (first.msg.word(5), second)
    });
    assert_eq!(first, 1);
    assert_eq!(second.msg.word(5), 99);
    assert_eq!(&second.data[..], b"echo");
}

#[test]
fn forward_to_killed_process_unblocks_sender_with_process_died() {
    let domain = Domain::new();
    let host = domain.add_host();
    let target = domain.spawn(host, "doomed", echo_server);
    domain.kill(target);
    let (fwd_tx, fwd_rx) = crossbeam::channel::bounded(1);
    let front = domain.spawn(host, "front", move |ctx| {
        while let Ok(rx) = ctx.receive() {
            let msg = rx.msg;
            let _ = fwd_tx.send(ctx.forward(rx, target, msg));
        }
    });
    let err = domain
        .client(host, move |ctx| {
            ctx.send(front, Message::request(RequestCode::Echo), Bytes::new(), 0)
        })
        .unwrap_err();
    assert_eq!(err, IpcError::ProcessDied);
    assert_eq!(fwd_rx.recv().unwrap(), Err(IpcError::NoProcess));
}

#[test]
fn slow_server_is_answered_after_the_sender_parks() {
    use std::time::{Duration, Instant};
    let domain = Domain::new();
    let host = domain.add_host();
    let fast = domain.spawn(host, "echo", echo_server);
    let slow = domain.spawn(host, "slow", |ctx| {
        while let Ok(rx) = ctx.receive() {
            std::thread::sleep(Duration::from_millis(5));
            let msg = rx.msg;
            ctx.reply(rx, msg, Bytes::from_static(b"late")).ok();
        }
    });
    domain.client(host, move |ctx| {
        for round in 0..4u32 {
            // Fast answers first, so the sender is spinning again when
            // the slow one outlasts the spin and it has to park.
            for _ in 0..32 {
                ctx.send(fast, Message::request(RequestCode::Echo), Bytes::new(), 0)
                    .unwrap();
            }
            let mut m = Message::request(RequestCode::Echo);
            m.set_word32(5, round);
            let t0 = Instant::now();
            let r = ctx.send(slow, m, Bytes::new(), 16).unwrap();
            assert!(t0.elapsed() >= Duration::from_millis(5));
            assert_eq!(r.msg.word32(5), round);
            assert_eq!(&r.data[..], b"late");
        }
    });
}

#[test]
fn oversubscribed_clients_each_get_their_own_replies() {
    const CLIENTS: u32 = 8;
    const TXNS: u32 = 2000;
    let domain = Domain::new();
    let host = domain.add_host();
    let echoes = [
        domain.spawn(host, "echo", echo_server),
        domain.spawn(host, "echo", echo_server),
    ];
    let front = domain.spawn(host, "front", move |ctx| {
        while let Ok(rx) = ctx.receive() {
            let msg = rx.msg;
            ctx.forward(rx, echoes[0], msg).ok();
        }
    });
    let targets = [echoes[0], echoes[1], front];
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let d = domain.clone();
            std::thread::spawn(move || {
                d.client(host, move |ctx| {
                    for i in 0..TXNS {
                        let id = (c << 16) | i;
                        let mut m = Message::request(RequestCode::Echo);
                        m.set_word32(5, id);
                        let payload = Bytes::from(id.to_le_bytes().to_vec());
                        let to = targets[(i % 3) as usize];
                        let r = ctx.send(to, m, payload, 4).unwrap();
                        assert_eq!(r.msg.word32(5), id);
                        assert_eq!(&r.data[..], &id.to_le_bytes());
                    }
                    TXNS
                })
            })
        })
        .collect();
    let done: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(done, CLIENTS * TXNS);
}
