//! Boots the naming stack on the thread kernel: a file server on a second
//! logical host, and on the workstation a prefix server plus a replica
//! whose sync peer it is.
//!
//! Both prefix servers load the same table as a replica-style preload
//! (epoch 0). An authoritative preload stamps boot-time epochs, which a
//! replica could only fetch in one sync round, and a sync round's reply is
//! capped at 64 KiB (about two thousand entries); loading through
//! `AddContextName` republishes a shard per name. Identical preloads are
//! the only way the public API starts a replica in sync with a 10⁵-name
//! table, so the prefix server runs with `authoritative: false`.
//! Bracketed names with a remainder are forwarded exactly as on an
//! authority; written prefixes are stamped and verified as on one.

use crate::gen::{self, Names};
use crate::trace::{Layer, TracedIpc, Tracer};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vkernel::{Domain, Ipc};
use vproto::{ContextId, ContextPair, LogicalHost, Pid, Scope};
use vruntime::NameClient;
use vservers::{file_server, prefix_server, DegradedPrefixConfig, FileServerConfig, PrefixConfig};

/// A booted stack.
pub struct Stack {
    pub domain: Domain,
    pub ws: LogicalHost,
    pub fs: Pid,
    pub prefix: Pid,
    pub replica: Pid,
    /// Context ids of the tree's directories `u/d<X>`, as the file server
    /// itself reports them.
    pub dirs: Vec<ContextId>,
    pub tracer: Option<Arc<Tracer>>,
}

impl Stack {
    /// Spawns a V process on the workstation, handing it the traced kernel
    /// interface when this stack is traced.
    pub fn spawn<F>(&self, name: &str, layer: Layer, f: F) -> Pid
    where
        F: FnOnce(&dyn Ipc, Option<&TracedIpc>) + Send + 'static,
    {
        spawn_on(&self.domain, self.ws, name, self.tracer.clone(), layer, f)
    }

    /// Runs `f` as a short-lived untraced client and returns its result.
    pub fn client<T, F>(&self, f: F) -> T
    where
        T: Send + 'static,
        F: FnOnce(&dyn Ipc) -> T + Send + 'static,
    {
        self.domain.client(self.ws, f)
    }

    pub fn shutdown(self) {
        self.domain.shutdown();
    }
}

pub fn name_client(ipc: &dyn Ipc, fs: Pid, prefix: Pid) -> NameClient<'_> {
    let nc = NameClient::new(ipc, ContextPair::new(fs, ContextId::DEFAULT));
    nc.set_prefix_server(prefix);
    nc
}

fn spawn_on<F>(
    domain: &Domain,
    host: LogicalHost,
    name: &str,
    tracer: Option<Arc<Tracer>>,
    layer: Layer,
    f: F,
) -> Pid
where
    F: FnOnce(&dyn Ipc, Option<&TracedIpc>) + Send + 'static,
{
    domain.spawn(host, name, move |ctx| match tracer {
        Some(tracer) => {
            let traced = TracedIpc::new(ctx, &tracer, layer);
            f(&traced, Some(&traced));
        }
        None => f(ctx, None),
    })
}

/// The prefix table a workload loads: `(name, target)` for every index.
/// Workloads with a small table also bind `home` to the file server's
/// root, the paper's per-user context.
fn table(names: &Names, fs: Pid, dirs: &[ContextId], home: bool) -> Vec<(String, ContextPair)> {
    let mut out = Vec::with_capacity(names.size as usize + 1);
    if home {
        out.push(("home".to_string(), ContextPair::new(fs, ContextId::DEFAULT)));
    }
    for i in 0..names.size {
        let ctx = dirs[names.dir_of(i) as usize];
        out.push((names.name(i), ContextPair::new(fs, ctx)));
    }
    out
}

/// Boots the stack and loads the file tree and the prefix table. The
/// caller times it through its first correct answer.
pub fn boot(
    seed: u64,
    names: &Names,
    home: bool,
    tracer: Option<Arc<Tracer>>,
) -> Result<Stack, String> {
    let domain = Domain::new();
    let ws = domain.add_host();
    let fs_host = domain.add_host();
    let tree = gen::file_tree(seed);
    let fs = spawn_on(
        &domain,
        fs_host,
        "file",
        tracer.clone(),
        Layer::File,
        move |ctx, _| {
            file_server(
                ctx,
                FileServerConfig {
                    service_scope: Some(Scope::Both),
                    preload: tree,
                    ..FileServerConfig::default()
                },
            )
        },
    );
    let dirs = domain.client(ws, move |ctx| {
        let nc = NameClient::new(ctx, ContextPair::new(fs, ContextId::DEFAULT));
        (0..gen::DIRS)
            .map(|d| {
                nc.query_name(&gen::dir_path(d))
                    .map(|pair| pair.context)
                    .map_err(|e| format!("directory {}: {e}", gen::dir_path(d)))
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    let preload = table(names, fs, &dirs, home);
    let replica_preload = preload.clone();
    let (probe_name, probe_target) = preload[0].clone();
    let hearsay = DegradedPrefixConfig {
        authoritative: false,
        ..DegradedPrefixConfig::default()
    };
    let prefix = spawn_on(
        &domain,
        ws,
        "prefix",
        tracer.clone(),
        Layer::Prefix,
        move |ctx, _| {
            prefix_server(
                ctx,
                PrefixConfig {
                    scope: Scope::Local,
                    preload_direct: preload,
                    degraded: Some(hearsay),
                    ..PrefixConfig::default()
                },
            )
        },
    );
    let replica = spawn_on(
        &domain,
        ws,
        "replica",
        tracer.clone(),
        Layer::Replica,
        move |ctx, _| {
            prefix_server(
                ctx,
                PrefixConfig {
                    scope: Scope::Local,
                    preload_direct: replica_preload,
                    degraded: Some(DegradedPrefixConfig {
                        sync_peer: Some(prefix),
                        ..hearsay
                    }),
                    ..PrefixConfig::default()
                },
            )
        },
    );
    let stack = Stack {
        domain,
        ws,
        fs,
        prefix,
        replica,
        dirs,
        tracer,
    };
    // The replica's first round finds the tables equal and vouches for
    // every entry, then republishes all of it; both belong to loading,
    // not to the measured syncs. The replica answers the resolve after
    // that publish.
    let (first, answered) = stack.client(move |ctx| {
        let first = name_client(ctx, fs, prefix).sync_pull(replica);
        let answered = name_client(ctx, fs, replica).resolve(&format!("[{probe_name}]"));
        (first, answered)
    });
    match first {
        Ok(s) if s.adopted == 0 && s.dropped == 0 => {}
        Ok(s) => {
            return Err(format!(
                "initial sync adopted {} and dropped {} entries of identical tables",
                s.adopted, s.dropped
            ))
        }
        Err(e) => return Err(format!("initial sync: {e}")),
    }
    match answered {
        Ok(b) if b.target == probe_target => Ok(stack),
        other => Err(format!(
            "replica after the initial sync: {other:?}, expected {probe_target:?}"
        )),
    }
}

/// Resident-set high-water mark of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// How long before a due time the writer stops sleeping and spins: a
/// sleep can overshoot by tens of microseconds, which would read as write
/// latency.
const SPIN: Duration = Duration::from_micros(200);

/// Waits until `due`, returning how late the caller is past it.
pub fn wait_until(due: Instant) -> Duration {
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
    Instant::now().saturating_duration_since(due)
}
