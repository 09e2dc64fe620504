//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <backfill|dashboard|study> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run measures all seven end-to-end metrics. The workload's own
//! phase gets most of the run and sets `setup_s` and `peak_rss_mb`; the
//! other two usage modes run afterwards as smaller companion phases, so
//! each metric is measured on every workload. With `--trace 1` the run
//! also records spans and prints the per-layer metrics instead. The last
//! line of standard output is the JSON result; earlier lines give every
//! figure with its sample count, the exact work counts, and any failed
//! check. A wrong answer exits with status 1.

mod bulk;
mod fleet;
mod live;
mod probe;
mod study;
mod trace;
mod util;

use std::time::{Duration, Instant};
use trace::Tracer;
use util::{Figure, Report};

/// One metric as `BENCHMARK.json` names it.
#[derive(serde::Deserialize)]
struct Metric {
    name: String,
    unit: String,
}

/// The metric lists of `BENCHMARK.json`; its other keys are not read.
#[derive(serde::Deserialize)]
struct Bench {
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

/// The metrics a run prints, read from `BENCHMARK.json` in the working
/// directory (the repository root): the end-to-end list, or the
/// per-layer list when tracing.
fn metrics(trace: bool) -> Vec<Metric> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .expect("read BENCHMARK.json (run from the repository root)");
    let bench: Bench = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    if trace {
        bench.per_layer
    } else {
        bench.end_to_end
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(36),
        trace: trace.unwrap_or(false),
    })
}

/// Share of the budget the workload's own phase gets; each of the two
/// companion phases gets `COMPANION_SHARE`. The split is even enough
/// that every phase spans many seconds, since run-to-run noise on a
/// shared 2-vCPU host comes in bursts of a second or two.
const OWN_SHARE: f64 = 0.4;
const COMPANION_SHARE: f64 = 0.3;

/// Runs the workload's own phase. Traced runs time it twice, once
/// without spans, and report the ratio of the two as the overhead.
fn own_phase(
    budget: Duration,
    tr: &Tracer,
    rep: &mut Report,
    run: impl Fn(Duration, &Tracer, &mut Report) -> f64,
) {
    if !tr.on() {
        run(budget.mul_f64(OWN_SHARE), tr, rep);
        return;
    }
    let mut plain = Report::default();
    let untraced = run(
        budget.mul_f64(OWN_SHARE / 2.0),
        &Tracer::new(false),
        &mut plain,
    );
    rep.attempted += plain.attempted;
    rep.failed += plain.failed;
    rep.wrong.extend(plain.wrong);
    let traced = run(budget.mul_f64(OWN_SHARE / 2.0), tr, rep);
    rep.layer("trace.overhead_ratio", traced / untraced, "x", 2);
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <backfill|dashboard|study> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let (seed, budget) = (args.seed, Duration::from_secs(args.seconds));
    let wanted = metrics(args.trace);
    let tr = Tracer::new(args.trace);
    let mut rep = Report::default();
    let started = Instant::now();
    let cpu0 = util::cpu_user_sys_s();
    let companion = budget.mul_f64(COMPANION_SHARE);
    match args.workload.as_str() {
        "backfill" => {
            own_phase(budget, &tr, &mut rep, |b, tr, rep| {
                bulk::run(bulk::SITES, seed, b, tr, rep, true)
            });
            live::run(seed, companion, &tr, &mut rep, false);
            study::run(seed, companion, 3, &tr, &mut rep, false);
        }
        "dashboard" => {
            own_phase(budget, &tr, &mut rep, |b, tr, rep| {
                live::run(seed, b, tr, rep, true)
            });
            bulk::run(bulk::COMPANION_SITES, seed, companion, &tr, &mut rep, false);
            study::run(seed, companion, 3, &tr, &mut rep, false);
        }
        "study" => {
            own_phase(budget, &tr, &mut rep, |b, tr, rep| {
                study::run(seed, b, 5, tr, rep, true)
            });
            bulk::run(bulk::COMPANION_SITES, seed, companion, &tr, &mut rep, false);
            live::run(seed, companion, &tr, &mut rep, false);
        }
        other => {
            eprintln!("perfbench: unknown workload {other:?} (backfill|dashboard|study)");
            std::process::exit(2);
        }
    }
    let wall = started.elapsed().as_secs_f64();
    if tr.on() {
        let cpu1 = util::cpu_user_sys_s();
        let (user, sys) = (cpu1.0 - cpu0.0, cpu1.1 - cpu0.1);
        rep.layer("proc.cpu_user_s", user, "s", 1);
        rep.layer("proc.cpu_sys_s", sys, "s", 1);
        rep.layer("proc.cpu_per_wall", (user + sys) / wall, "x", 1);
        let path = format!("perfbench/out/spans-{}-{seed}.tsv", args.workload);
        let totals = tr.write(std::path::Path::new(&path));
        let spans: usize = totals.values().map(|t| t.0).sum();
        rep.layer("trace.spans", spans as f64, "count", 1);
        println!("# spans written to {path}: name count total_s self_s");
        for (name, (n, total, own)) in &totals {
            println!("#   {name} {n} {total:.6} {own:.6}");
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    rep.layer("proc.cores", cores as f64, "count", 1);
    for (name, key) in [
        ("count.records_per_rep", "bulk.records_per_rep"),
        ("count.points_per_study", "study.points_per_study"),
        ("count.acks", "live.acks"),
    ] {
        let n = rep.counts.get(key).copied().unwrap_or(0);
        rep.layer(name, n as f64, "count", 1);
    }
    print_report(&args, &rep, wall, cores);
    let correct = rep.wrong.is_empty() && rep.failed == 0;
    let figures = if tr.on() { &rep.layer } else { &rep.e2e };
    let mut metrics = Vec::new();
    for m in &wanted {
        let f: &Figure = figures
            .get(&m.name)
            .unwrap_or_else(|| panic!("metric {} was not measured", m.name));
        assert!(
            f.value.is_finite() && f.unit == m.unit,
            "metric {} is {} {}, expected a finite value in {}",
            m.name,
            f.value,
            f.unit,
            m.unit
        );
        metrics.push(format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, f.value, f.unit
        ));
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        rep.attempted.max(1),
        rep.failed,
        metrics.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}

fn print_report(args: &Args, rep: &Report, wall: f64, cores: usize) {
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} wall_s={wall:.3} cores={cores}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (name, f) in &rep.e2e {
        println!("# e2e {name} = {} {} (n={})", f.value, f.unit, f.samples);
    }
    for (name, f) in &rep.layer {
        println!("# layer {name} = {} {} (n={})", f.value, f.unit, f.samples);
    }
    for (name, n) in &rep.counts {
        println!("# count {name} = {n}");
    }
    for (name, v) in &rep.measured {
        println!("# measured {name} = {v}");
    }
    println!(
        "# operations attempted={} failed={}",
        rep.attempted, rep.failed
    );
    for w in &rep.wrong {
        println!("# WRONG {w}");
    }
}
