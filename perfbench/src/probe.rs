//! Short in-process passes, run only when tracing, that split the
//! socket-level spans into the self time of each layer underneath:
//! record decode → `SiteModel::evaluate` → `AssessmentService::ingest`,
//! and `extend_rows` / `retract_rows` and the O(n) statistics at the
//! workload's ensemble size.

use crate::fleet::{self, Fleet};
use crate::study::SPEEDUP_PAIRS;
use crate::trace::Tracer;
use crate::util::{median, secs, Report};
use iriscast::model::space::AxisId;
use iriscast::serve::{SiteModel, SnapshotRecord};
use std::hint::black_box;
use std::time::Duration;

fn mean_of(total: Duration, n: usize) -> f64 {
    secs(total) / n as f64
}

/// Decode, evaluate and ingest `inputs` (in arrival order) against a
/// service built like the workload's, plus `ingest_batch` at 1 and 2
/// workers. `warm` sorts every site's view first, as a live service
/// under queries has. Returns the mean in-process ingest time, µs, and
/// the deepest reorder buffer seen.
pub fn ingest_pass(
    fleet: &Fleet,
    retain: usize,
    history: u64,
    inputs: &[SnapshotRecord],
    warm: bool,
    tr: &Tracer,
    rep: &mut Report,
) -> (f64, usize) {
    let n = inputs.len();
    let build = || {
        let service = fleet.service(retain, history);
        if warm {
            for name in &fleet.names {
                service.percentile(name, 0.5).expect("site has data");
            }
        }
        service
    };
    let mut frames = String::new();
    for r in inputs {
        fleet::write_frame(&mut frames, r);
    }
    let mut decode = Duration::ZERO;
    for (line, r) in frames.lines().zip(inputs) {
        let (parsed, d) = tr.span("wire.record_decode", 0, |_| {
            serde_json::from_str::<SnapshotRecord>(line)
        });
        decode += d;
        rep.check(parsed.as_ref().ok() == Some(r), || {
            format!("frame {line} decoded to {parsed:?}")
        });
    }
    let models: Vec<SiteModel> = fleet.servers.iter().map(|&s| SiteModel::paper(s)).collect();
    let site_of = |r: &SnapshotRecord| {
        fleet
            .names
            .iter()
            .position(|s| *s == r.site)
            .expect("known site")
    };
    let mut evaluate = Duration::ZERO;
    for r in inputs {
        let (block, d) = tr.span("service.evaluate", 0, |_| models[site_of(r)].evaluate(r));
        evaluate += d;
        black_box(block.expect("valid record"));
    }
    let service = build();
    let (mut ingest, mut pending_peak) = (Duration::ZERO, 0usize);
    for r in inputs {
        let (res, d) = tr.span("service.ingest", 0, |_| service.ingest(r));
        ingest += d;
        rep.check(res.is_ok(), || {
            format!("in-process ingest of {} seq {} refused", r.site, r.seq)
        });
        pending_peak = pending_peak.max(service.watermark(&r.site).expect("site").pending);
    }
    let stale = service.ingest(&inputs[0]);
    rep.check(stale.is_err(), || {
        "stale in-process resend was folded".into()
    });
    let batch = |workers: usize| {
        let s = build();
        let (res, d) = tr.span("service.ingest_batch", 0, |_| {
            s.ingest_batch(inputs, workers)
        });
        (s, d, res)
    };
    let mut ratios = Vec::new();
    for _ in 0..SPEEDUP_PAIRS {
        let (one, t1, r1) = batch(1);
        let (two, t2, r2) = batch(2);
        for (workers, res) in [(1, r1), (2, r2)] {
            rep.check(res.as_ref().ok() == Some(&n), || {
                format!("ingest_batch at {workers} workers: {res:?}")
            });
        }
        for name in &fleet.names {
            let (a, b) = (
                one.export(name).expect("site"),
                two.export(name).expect("site"),
            );
            rep.check(
                a.energy_kwh.to_bits() == b.energy_kwh.to_bits() && a.folded == b.folded,
                || format!("{name}: ingest_batch at 1 and 2 workers disagree"),
            );
        }
        ratios.push(secs(t1) / secs(t2));
    }
    let us = 1e6;
    rep.layer("wire.record_decode_ns", mean_of(decode, n) * 1e9, "ns", n);
    rep.layer("service.evaluate_us", mean_of(evaluate, n) * us, "us", n);
    rep.layer("service.ingest_us", mean_of(ingest, n) * us, "us", n);
    rep.layer(
        "service.fold_us",
        (mean_of(ingest, n) - mean_of(evaluate, n)) * us,
        "us",
        n,
    );
    rep.layer(
        "service.batch_speedup_2w",
        median(&ratios),
        "x",
        ratios.len(),
    );
    rep.layer(
        "service.rejected",
        u64::from(stale.is_err()) as f64,
        "count",
        1,
    );
    (mean_of(ingest, n) * us, pending_peak)
}

/// `extend_rows` / `retract_rows`, the sort, and the O(n) statistics on
/// one site's ensemble of `windows` windows; `warm` keeps its sorted
/// view live, as queries do.
pub fn stats_pass(fleet: &Fleet, windows: usize, warm: bool, tr: &Tracer, rep: &mut Report) {
    const REPS: usize = 64;
    let model = SiteModel::paper(fleet.servers[0]);
    let blocks: Vec<_> = (0..(windows + REPS) as u64)
        .map(|seq| model.evaluate(&fleet.record(0, seq)).expect("valid record"))
        .collect();
    let mut ensemble = blocks[0].clone();
    for b in &blocks[1..windows] {
        ensemble.extend_rows(b).expect("same template");
    }
    let cold = ensemble.clone();
    let (_, sort) = tr.span("stats.sort", 0, |_| {
        cold.percentile(0.5).expect("finite data")
    });
    if warm {
        ensemble.percentile(0.5).expect("finite data");
    }
    let ci = model.ci_grams_per_kwh.len();
    let rows = blocks[0].len();
    let (mut merge, mut retract) = (Duration::ZERO, Duration::ZERO);
    for b in &blocks[windows..] {
        merge += tr
            .span("stats.extend_rows", 0, |_| {
                ensemble.extend_rows(b).expect("same template")
            })
            .1;
        retract += tr
            .span("stats.retract_rows", 0, |_| {
                ensemble.retract_rows(ci).expect("in range")
            })
            .1;
    }
    let timed = |name: &'static str, f: &dyn Fn()| {
        let mut total = Duration::ZERO;
        for _ in 0..REPS {
            total += tr.span(name, 0, |_| f()).1;
        }
        mean_of(total, REPS) * 1e6
    };
    let envelope_us = timed("stats.envelope", &|| {
        black_box(ensemble.envelope());
    });
    let mean_us = timed("stats.mean", &|| {
        black_box(ensemble.mean_total());
    });
    let marginals_us = timed("stats.marginals", &|| {
        black_box(ensemble.marginals(AxisId::Pue));
    });
    rep.layer(
        "stats.merge_ns_per_row",
        mean_of(merge, REPS * rows) * 1e9,
        "ns",
        REPS,
    );
    rep.layer(
        "stats.retract_ns_per_row",
        mean_of(retract, REPS * rows) * 1e9,
        "ns",
        REPS,
    );
    rep.layer("stats.sort_ms", secs(sort) * 1e3, "ms", 1);
    rep.layer("stats.envelope_us", envelope_us, "us", REPS);
    rep.layer("stats.mean_us", mean_us, "us", REPS);
    rep.layer("stats.marginals_us", marginals_us, "us", REPS);
}
