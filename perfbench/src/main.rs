//! The V naming benchmark: drives the thread-kernel naming stack from one
//! load-generator process, checks every answer against the generator's
//! ground truth, and reports end-to-end metrics (`--trace 0`) or the
//! per-layer ledger (`--trace 1`).
//!
//! ```text
//! perfbench --workload <open_read|resolve_batch> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod gen;
mod layers;
mod stack;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Kind, Truth, Until};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    let kind = Kind::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

/// One named metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// The seed of one segment. Every segment draws its own table, tree,
/// schedule and op streams, so a run averages over inputs as well as over
/// thread placements, and input properties (such as how many shards a
/// window of writes dirties) do not follow the run's seed.
fn segment_seed(seed: u64, segment: u32) -> u64 {
    gen::mix(seed ^ gen::mix(0x5e9_0000 + u64::from(segment)))
}

/// Boots a stack and times it through its first correct answer.
fn timed_boot(
    kind: Kind,
    seed: u64,
    tracer: Option<std::sync::Arc<trace::Tracer>>,
) -> Result<(stack::Stack, std::sync::Arc<Truth>, f64), String> {
    let names = gen::Names {
        seed,
        size: kind.table_size(),
    };
    let tree = gen::file_tree(seed).into_iter().map(|(_, b)| b).collect();
    let t0 = Instant::now();
    let s = stack::boot(seed, &names, kind.has_home(), tracer)?;
    let truth = Truth::new(kind, seed, &s, tree);
    let ops = workload::OpGen::new(kind, seed, 0xf1);
    let first = {
        let truth = truth.clone();
        s.client(move |ipc| workload::reader_loop(ipc, None, &truth, ops, Until::Ops(1)))
    };
    let took = t0.elapsed().as_secs_f64();
    if first.failed > 0 {
        return Err(format!("first answer wrong: {:?}", first.mismatches));
    }
    Ok((s, truth, took))
}

fn print_mismatches(out: &workload::ClientOut) {
    for m in &out.mismatches {
        println!("  mismatch: {m}");
    }
}

/// The untraced run: every end-to-end metric, pooled over the workload's
/// segments.
fn run_end_to_end(kind: Kind, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let segments = Kind::SEGMENTS;
    let length = Duration::from_secs_f64(seconds as f64 / f64::from(segments));
    let mut setup_s = Vec::new();
    let mut pooled: Option<workload::PhaseOut> = None;
    let mut peak_rss_mb = f64::NAN;
    for segment in 0..segments {
        let seed = segment_seed(seed, segment);
        let (s, truth, took) = timed_boot(kind, seed, None)?;
        setup_s.push(took);
        let phase = workload::run_phase(&s, &truth, seed, length);
        s.shutdown();
        // The first segment runs on a fresh heap; later ones add only the
        // allocator's leftovers from the stacks before them.
        if segment == 0 {
            peak_rss_mb = stack::peak_rss_mb();
        }
        match &mut pooled {
            Some(p) => p.merge(phase),
            None => pooled = Some(phase),
        }
    }
    let phase = pooled.expect("at least one segment");
    let readers = &phase.readers;
    let writer = &phase.writer;
    println!(
        "{}: {} ops by {} reader(s) in {:.2} s; {} writes, {} syncs; set-ups {:?} s",
        kind.name(),
        readers.attempted,
        kind.readers(),
        phase.wall.as_secs_f64(),
        writer.write_us.len(),
        writer.sync_us.len(),
        setup_s
    );
    print_mismatches(readers);
    print_mismatches(writer);
    let attempted = phase.attempted() + setup_s.len() as u64;
    let failed = phase.failed();
    println!(
        "error_rate {} ({failed} of {attempted})",
        failed as f64 / attempted as f64
    );
    // The writer's figures are printed, not gated: they follow whatever
    // else the host runs too closely to hold a 25% bound between seeds.
    let (mut write, mut sync) = (writer.write_us.clone(), writer.sync_us.clone());
    println!(
        "writer (no readers): write p50 {:.1} us, p99 {:.1} us; sync p50 {:.1} us",
        stats::median(&mut write),
        stats::quantile(&mut write, 0.99),
        stats::median(&mut sync)
    );
    let mut lat = readers.lat_us.clone();
    // The tail is the first quartile of the segments' p99s. Noise from the
    // rest of the host only ever adds latency, and on the 2-vCPU machine
    // it reached half the segments of some runs; the quieter segments'
    // tail still moves with every op the program slows.
    let op_p99 = stats::quantile(&mut phase.segment_p99_us.clone(), 0.25);
    let metrics = vec![
        Metric::new("setup_s", stats::median(&mut setup_s), "s"),
        Metric::new("op_p50_us", stats::median(&mut lat), "us"),
        Metric::new("op_p99_us", op_p99, "us"),
        Metric::new("names_per_s", phase.names_per_s(), "1/s"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        // Debug builds turn on the kernel's invariant ledger, a global
        // Mutex+HashMap per transaction: a different program.
        eprintln!("perfbench: refusing a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} rustc=\"{}\" profile={}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
    );
    let result = if args.trace {
        layers::run_traced(args.kind, args.seed, args.seconds)
    } else {
        run_end_to_end(args.kind, args.seed, args.seconds)
    };
    match result {
        Ok(outcome) => {
            if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
                eprintln!("perfbench: metric {} was not measured", m.name);
                return ExitCode::from(1);
            }
            println!("{}", result_line(&outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
