//! `study`: the paper's batch assessment, with no service.
//!
//! Each study runs the IRIS snapshot telemetry at the paper's 30 s step
//! on the worker pool at its default size, one site's `SnapshotSampler`
//! on the event engine, the GB November 2022 grid month, the Table 3/4
//! `SnapshotAssessment`, and a scenario space crossing the month's
//! 1,440 half-hourly CI samples with 20 PUE × 40 embodied × 5 lifespan
//! values (5.76 M points), evaluated and summarised.

use crate::trace::Tracer;
use crate::util::{self, median, secs, Report};
use iriscast::grid::scenario::{uk_november_2022, GridScenario};
use iriscast::grid::stats::percentile_sorted;
use iriscast::model::engine::{Assessment, SpaceResults};
use iriscast::model::iris::IrisScenario;
use iriscast::model::space::AxisId;
use iriscast::model::{paper, AssessmentParams, SnapshotAssessment};
use iriscast::sim::{EngineBuilder, SnapshotSampler};
use iriscast::telemetry::par;
use iriscast::telemetry::SyntheticUtilization;
use iriscast::units::{CarbonMass, SimDuration};
use std::hint::black_box;
use std::time::{Duration, Instant};

const AXES: [AxisId; 4] = [AxisId::Ci, AxisId::Pue, AxisId::Embodied, AxisId::Lifespan];
const SAMPLER_INTERVAL_H: f64 = 1.0;

/// What set-up prepares: the calibrated scenario and the study's fixed
/// parameters.
struct Inputs {
    scenario: IrisScenario,
    params: AssessmentParams,
    grid: GridScenario,
    workers: usize,
    seed: u64,
}

/// A study's result, reduced to the figures checked bit for bit.
struct Outcome {
    bits: Vec<u64>,
    space: Assessment,
    results: SpaceResults,
    windows: u64,
    events: u64,
}

/// Per-stage wall times of one study.
#[derive(Default)]
struct Stages {
    simulate: f64,
    sampler: f64,
    grid: f64,
    evaluate: f64,
    stats: f64,
}

/// Serial/parallel pairs timed per speedup figure; the median ratio is
/// reported.
pub const SPEEDUP_PAIRS: usize = 3;

/// Set-ups timed per study: one takes tens of microseconds, so each
/// study's set-up is repeated and every timing enters the median.
const SETUPS_PER_STUDY: usize = 16;

fn set_up(seed: u64, tr: &Tracer) -> (Inputs, Duration) {
    tr.span("study.setup", 0, |_| Inputs {
        scenario: IrisScenario::paper_snapshot(seed),
        params: AssessmentParams::paper(),
        grid: uk_november_2022(seed),
        workers: par::pool_size(),
        seed,
    })
}

fn pue_axis() -> Vec<f64> {
    (0..20).map(|i| 1.1 + 0.5 * f64::from(i) / 19.0).collect()
}

fn node_samples(scenario: &IrisScenario) -> u64 {
    scenario
        .sites
        .iter()
        .map(|s| {
            u64::from(s.config.total_nodes())
                * scenario.period.step_count(s.config.sample_step) as u64
        })
        .sum()
}

fn study(inp: &Inputs, tr: &Tracer) -> (Outcome, Stages, Duration) {
    let mut st = Stages::default();
    let (out, d) = tr.span("study", 0, |id| {
        let (telemetry, d) = tr.span("telemetry.simulate", id, |_| {
            inp.scenario.simulate(inp.workers)
        });
        st.simulate = secs(d);
        let ((windows, events), d) = tr.span("sim.sampler", id, |_| run_sampler(inp));
        st.sampler = secs(d);
        let (grid, d) = tr.span("grid.month", id, |_| inp.grid.simulate());
        st.grid = secs(d);
        let energy = telemetry.total();
        let (snapshot, _) = tr.span("model.snapshot_assessment", id, |_| {
            SnapshotAssessment::run(energy, &inp.params)
        });
        let ci: Vec<f64> = grid
            .intensity()
            .values()
            .iter()
            .map(|c| c.grams_per_kwh())
            .collect();
        let space = Assessment::builder()
            .energy(energy)
            .ci_grams_per_kwh(&ci)
            .pue_values(&pue_axis())
            .embodied_linspace(paper::server_embodied_bounds(), 40)
            .lifespans_years(&[3, 4, 5, 6, 7])
            .servers(paper::AMORTISATION_FLEET_SERVERS)
            .build()
            .expect("valid study space");
        let (results, d) = tr.span("engine.evaluate_space", id, |_| space.evaluate_space());
        st.evaluate = secs(d);
        let (bits, d) = tr.span("engine.stats", id, |_| {
            let mut bits = vec![energy.kilowatt_hours().to_bits()];
            bits.extend(stat_bits(&results));
            bits
        });
        st.stats = secs(d);
        let mut bits = bits;
        let json = serde_json::to_string(&snapshot).expect("assessment encodes");
        bits.extend(json.bytes().map(u64::from));
        bits.extend([windows, events, ci.len() as u64]);
        Outcome {
            bits,
            space,
            results,
            windows,
            events,
        }
    });
    (out, st, d)
}

/// Summary, envelope and every axis's marginals, as f64 bits.
fn stat_bits(results: &SpaceResults) -> Vec<u64> {
    let s = results.summary().expect("finite totals");
    let env = results.envelope();
    let mut bits: Vec<u64> = [s.min, s.p25, s.median, s.p75, s.max, s.mean]
        .iter()
        .chain(
            [
                env.active.lo,
                env.active.hi,
                env.embodied.lo,
                env.embodied.hi,
                env.total.lo,
                env.total.hi,
            ]
            .iter(),
        )
        .map(|m| m.kilograms().to_bits())
        .collect();
    for axis in AXES {
        for m in results.marginals(axis) {
            bits.extend([m.total.lo, m.total.hi, m.mean_total].map(|v| v.kilograms().to_bits()));
        }
    }
    bits
}

/// The same statistics recomputed from a `chunks()` pass, with no
/// `SpaceResults` involved. Derived figures pass through `CarbonMass`
/// as the library's do, so the comparison is exact.
fn chunk_bits(space: &Assessment, energy_kwh: f64) -> Vec<u64> {
    let mass = |kg: f64| CarbonMass::from_kilograms(kg).kilograms();
    let n = space.space().len();
    let mut total = Vec::with_capacity(n);
    let mut bounds: Option<[(f64, f64); 2]> = None;
    for c in space.chunks(1 << 16) {
        let b = bounds.get_or_insert([
            (c.active[0].kilograms(), c.active[0].kilograms()),
            (c.embodied[0].kilograms(), c.embodied[0].kilograms()),
        ]);
        for (k, col) in [&c.active, &c.embodied].into_iter().enumerate() {
            for v in col.iter().map(|m| m.kilograms()) {
                b[k] = (b[k].0.min(v), b[k].1.max(v));
            }
        }
        total.extend(c.total.iter().map(|m| m.kilograms()));
    }
    let [a, e] = bounds.expect("non-empty space");
    let mean = mass(total.iter().sum::<f64>() / n as f64);
    let mut marginals = Vec::new();
    for axis in AXES {
        let (samples, stride) = (space.space().axis_len(axis), space.space().stride_of(axis));
        let per = n / samples;
        let mut lo: Vec<f64> = (0..samples).map(|s| total[s * stride]).collect();
        let mut hi = lo.clone();
        let mut sum = vec![0.0f64; samples];
        for (i, &v) in total.iter().enumerate() {
            let s = (i / stride) % samples;
            lo[s] = lo[s].min(v);
            hi[s] = hi[s].max(v);
            sum[s] += v;
        }
        for s in 0..samples {
            marginals.extend([lo[s], hi[s], mass(sum[s] / per as f64)].map(f64::to_bits));
        }
    }
    let t = total[1..]
        .iter()
        .fold((total[0], total[0]), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    total.sort_by(f64::total_cmp);
    let q = |q: f64| mass(percentile_sorted(&total, q).expect("non-empty"));
    let mut bits = vec![energy_kwh.to_bits()];
    bits.extend(
        [
            q(0.0),
            q(0.25),
            q(0.5),
            q(0.75),
            q(1.0),
            mean,
            a.0,
            a.1,
            e.0,
            e.1,
            t.0,
            t.1,
        ]
        .map(f64::to_bits),
    );
    bits.extend(marginals);
    bits
}

fn run_sampler(inp: &Inputs) -> (u64, u64) {
    let site = &inp.scenario.sites[0];
    let period = inp.scenario.period;
    let (tx, rx) = crossbeam::channel::unbounded();
    let mut builder = EngineBuilder::new(period);
    let id = builder.add(Box::new(
        SnapshotSampler::new(
            site.config.clone(),
            period,
            SimDuration::from_hours(SAMPLER_INTERVAL_H),
            Box::new(SyntheticUtilization::calibrated(
                site.solved_utilization,
                inp.seed,
            )),
            tx,
        )
        .expect("interval tiles the sampling grid"),
    ));
    let mut engine = builder.build();
    engine.run_to_horizon();
    let emitted = engine
        .get_mut::<SnapshotSampler>(id)
        .expect("sampler")
        .emitted();
    let events = engine.events_processed();
    drop(engine);
    let mut received = 0u64;
    while rx.try_recv().is_ok() {
        received += 1;
    }
    assert_eq!(
        received, emitted,
        "every sampler window reaches the channel"
    );
    (emitted, events)
}

/// Runs studies for at least `budget` and `min_reps`, reporting
/// `study_s` (and, when `primary`, `setup_s` and the peak RSS).
/// Returns the median study time, s.
pub fn run(
    seed: u64,
    budget: Duration,
    min_reps: usize,
    tr: &Tracer,
    rep: &mut Report,
    primary: bool,
) -> f64 {
    let start = Instant::now();
    let (mut setups, mut times) = (Vec::new(), Vec::new());
    let mut stages: Vec<Stages> = Vec::new();
    let mut first: Option<(Vec<u64>, Assessment, Inputs)> = None;
    let mut last = None;
    while times.len() < min_reps || start.elapsed() < budget {
        drop(last.take());
        let mut inp = None;
        for _ in 0..SETUPS_PER_STUDY {
            let (i, d) = set_up(seed, tr);
            setups.push(secs(d));
            inp = Some(i);
        }
        let inp = inp.expect("at least one set-up");
        let (out, st, d) = study(&inp, tr);
        times.push(secs(d));
        stages.push(st);
        rep.op(true);
        match &first {
            None => first = Some((out.bits.clone(), out.space.clone(), inp)),
            Some((bits, _, _)) => rep.check(&out.bits == bits, || {
                "a repeated study gave different bits".into()
            }),
        }
        last = Some(out);
    }
    rep.e2e("study_s", median(&times), "s", times.len());
    if primary {
        rep.e2e("setup_s", median(&setups), "s", setups.len());
        // Read before the check below allocates its own copy of the
        // totals, so the high-water mark is the program's.
        rep.e2e("peak_rss_mb", util::peak_rss_mb(), "MB", 1);
    }
    let (bits, space, inp) = first.expect("at least one study");
    let expect = chunk_bits(&space, f64::from_bits(bits[0]));
    rep.check(bits[..expect.len()] == expect[..], || {
        "space statistics differ from a chunks() recomputation".into()
    });
    let out = last.expect("at least one study");
    let samples = node_samples(&inp.scenario);
    let points = out.results.len() as u64;
    rep.measured("study.repetitions", times.len() as f64);
    rep.count("study.node_samples_per_study", samples);
    rep.count("study.points_per_study", points);
    rep.count("study.sampler_windows_per_study", out.windows);
    rep.count("study.sampler_events_per_study", out.events);
    if tr.on() {
        layers(&inp, &out, &stages, samples, tr, rep);
    }
    median(&times)
}

/// Per-layer figures of the study stack, including the two parallel
/// paths measured at 1 and 2 workers.
fn layers(
    inp: &Inputs,
    out: &Outcome,
    stages: &[Stages],
    samples: u64,
    tr: &Tracer,
    rep: &mut Report,
) {
    let med = |f: fn(&Stages) -> f64| median(&stages.iter().map(f).collect::<Vec<_>>());
    let points = out.results.len() as f64;
    let n = stages.len();
    rep.layer(
        "engine.points_per_s",
        points / med(|s| s.evaluate),
        "1/s",
        n,
    );
    rep.layer("engine.stats_ms", med(|s| s.stats) * 1e3, "ms", n);
    rep.layer("engine.points", points, "count", n);
    let (chunked, d) = tr.span("engine.chunks", 0, |_| {
        out.space
            .chunks(1 << 16)
            .map(|c| black_box(c).len())
            .sum::<usize>()
    });
    rep.check(chunked == out.results.len(), || {
        "chunks() covered the wrong number of points".into()
    });
    rep.layer("engine.chunks_points_per_s", points / secs(d), "1/s", 1);
    let mut ratios = Vec::new();
    for _ in 0..SPEEDUP_PAIRS {
        // Serial first: its columns drop before the parallel ones exist.
        let (_, d_ser) = tr.span("engine.evaluate_space", 0, |_| {
            black_box(out.space.evaluate_space())
        });
        let (par, d_par) = tr.span("engine.par_evaluate_space", 0, |_| {
            out.space.par_evaluate_space(2)
        });
        rep.check(
            par.totals()
                .iter()
                .zip(out.results.totals())
                .all(|(a, b)| a.kilograms().to_bits() == b.kilograms().to_bits()),
            || "par_evaluate_space(2) differs from evaluate_space".into(),
        );
        drop(par);
        ratios.push(secs(d_ser) / secs(d_par));
    }
    rep.layer("engine.par_speedup_2t", median(&ratios), "x", ratios.len());
    rep.layer(
        "telemetry.node_samples_per_s",
        samples as f64 / med(|s| s.simulate),
        "1/s",
        n,
    );
    rep.layer("telemetry.node_samples", samples as f64, "count", n);
    let mut ratios = Vec::new();
    for _ in 0..SPEEDUP_PAIRS {
        let (one, d1) = tr.span("telemetry.simulate_1w", 0, |_| inp.scenario.simulate(1));
        let (two, d2) = tr.span("telemetry.simulate_2w", 0, |_| inp.scenario.simulate(2));
        rep.check(
            one.total().kilowatt_hours().to_bits() == two.total().kilowatt_hours().to_bits(),
            || "telemetry at 1 and 2 workers disagree".into(),
        );
        ratios.push(secs(d1) / secs(d2));
    }
    rep.layer(
        "telemetry.pool_speedup_2w",
        median(&ratios),
        "x",
        ratios.len(),
    );
    rep.layer(
        "sim.windows_per_s",
        out.windows as f64 / med(|s| s.sampler),
        "1/s",
        n,
    );
    rep.layer("sim.events", out.events as f64, "count", n);
    rep.layer("grid.month_ms", med(|s| s.grid) * 1e3, "ms", n);
}
