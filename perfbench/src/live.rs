//! `dashboard`: live reads beside a trickle of live writes.
//!
//! Two regional services behind their own TCP listeners, each site
//! pre-filled to its retention with warm sorted views. During the timed
//! phase one client feeds region A in an open loop at a fixed offered
//! rate (one record in flight; ack latency from the record's due time)
//! while a second runs a seeded query mix against region A, closed
//! loop (one query in flight) and paced to a fixed rate, so the two
//! clients and their connection threads leave the 2 vCPUs headroom and
//! a client waking for its next send is not queued behind them. Folds
//! and queries share the service lock. Federation sweeps over both
//! regions run afterwards, in traced runs only.

use crate::fleet::{self, Fleet, ASKS};
use crate::probe;
use crate::trace::Tracer;
use crate::util::{self, median, quantile, secs, windowed_quantile, Report, Rng};
use iriscast::model::federation::FleetRollup;
use iriscast::serve::federator::site_rollup;
use iriscast::serve::{
    AssessmentService, FleetFederator, QueryReply, QueryRequest, RegionHandle, SnapshotRecord,
    SocketClient, SocketServer,
};
use iriscast::units::Period;
use std::time::{Duration, Instant};

/// Sites per region.
const SITES: usize = 8;
/// Windows each site retains (and is pre-filled to).
const RETAIN: usize = 1_024;
/// Windows per site replayed in process during set-up.
const HISTORY: u64 = RETAIN as u64 + 16;
/// Offered ingest rate into region A, records per second.
const ACK_RATE: f64 = 500.0;
/// Query pace, queries per second; a reply that comes late delays
/// only the queries behind it.
const QUERY_RATE: f64 = 1_000.0;
/// Consecutive acks or queries per stretch whose p99 enters the
/// reported median: 10 samples beyond each stretch's p99.
const TAIL_WINDOW: usize = 1_000;
/// Share of the phase budget the mixed phase is sized to.
const MIXED_SHARE: f64 = 0.85;
/// Set-ups the `dashboard` workload's own phase times; the first one
/// serves the mixed phase. A companion phase sets up once.
const SETUPS: usize = 9;
const FEDERATION_SWEEPS: usize = 10;

struct Region {
    fleet: Fleet,
    service: AssessmentService,
    server: SocketServer,
}

struct Ready {
    a: Region,
    b: Region,
    feed: SocketClient,
    query: SocketClient,
}

fn region(prefix: &str, seed: u64, tr: &Tracer, parent: u64) -> Region {
    let fleet = Fleet::new(prefix, SITES, seed);
    let (service, _) = tr.span("service.replay", parent, |_| fleet.service(RETAIN, HISTORY));
    tr.span("stats.warm_sort", parent, |_| {
        for name in &fleet.names {
            service.percentile(name, 0.5).expect("site has data");
        }
    });
    let (server, _) = tr.span("transport.listen", parent, |_| {
        service.serve_tcp("127.0.0.1:0").expect("bind")
    });
    Region {
        fleet,
        service,
        server,
    }
}

fn set_up(seed: u64, tr: &Tracer) -> (Ready, Duration) {
    tr.span("live.setup", 0, |id| {
        let a = region("A", seed, tr, id);
        let b = region("B", seed ^ 0xB, tr, id);
        let feed = SocketClient::connect_tcp(a.server.addr()).expect("connect feed");
        let query = SocketClient::connect_tcp(a.server.addr()).expect("connect query");
        Ready { a, b, feed, query }
    })
}

/// One timed ingest: (ms from due to ack, ms late at send, µs send to
/// ack, ok).
type Ack = (f64, f64, f64, bool);

/// One timed query: (ask kind, µs, reply bytes, ok).
type Query = (usize, f64, usize, bool);

/// One set-up, timed into `setups`, then the first reply on each
/// connection. A fresh connection waits for the listener's accept
/// poll; that wait is reported per layer, not as set-up.
fn ready(
    seed: u64,
    tr: &Tracer,
    rep: &mut Report,
    setups: &mut Vec<f64>,
    accept_ms: &mut Vec<f64>,
) -> Ready {
    let (mut r, d) = set_up(seed, tr);
    setups.push(secs(d));
    for client in [&mut r.feed, &mut r.query] {
        let req = QueryRequest::bare(r.a.fleet.names[0].as_str(), "watermark");
        let (reply, d) = tr.span("transport.accept_wait", 0, |_| client.query(&req));
        rep.op(reply.is_ok_and(|r| r.ok));
        accept_ms.push(secs(d) * 1e3);
    }
    r
}

/// Set up, run the mixed phase for about `MIXED_SHARE` of `budget`,
/// then (when `primary`) set up again until `SETUPS` set-ups are
/// timed. Reports the ack and query latencies (and, when `primary`,
/// `setup_s` and the peak RSS before the extra set-ups). Returns the
/// median ack latency, ms.
pub fn run(seed: u64, budget: Duration, tr: &Tracer, rep: &mut Report, primary: bool) -> f64 {
    let (mut setups, mut accept_ms) = (Vec::new(), Vec::new());
    let Ready {
        a,
        b,
        mut feed,
        mut query,
    } = ready(seed, tr, rep, &mut setups, &mut accept_ms);
    // Both clients send a fixed number of frames, so counts repeat
    // exactly for a given `--seconds`.
    let mixed_s = budget.as_secs_f64() * MIXED_SHARE;
    let n_acks = (ACK_RATE * mixed_s) as usize;
    let n_queries = (QUERY_RATE * mixed_s) as usize;
    let (acks, queries) = std::thread::scope(|s| {
        let t0 = Instant::now();
        let fleet = &a.fleet;
        let feeder = s.spawn(move || {
            let mut acks: Vec<Ack> = Vec::with_capacity(n_acks);
            for i in 0..n_acks {
                let due = wait_until(t0, i, ACK_RATE);
                let record = fleet.record(i % SITES, HISTORY + (i / SITES) as u64);
                let sent = Instant::now();
                let (reply, d) = tr.span("socket.ingest", 0, |_| feed.ingest(&record));
                let ok = reply.is_ok_and(|r| {
                    r.ok && r.folded == Some(record.seq + 1) && r.pending == Some(0)
                });
                acks.push((
                    secs(sent + d - due) * 1e3,
                    secs(sent - due) * 1e3,
                    secs(d) * 1e6,
                    ok,
                ));
            }
            acks
        });
        let mut rng = Rng::new(seed, 0x9E5);
        let mut queries: Vec<Query> = Vec::with_capacity(n_queries);
        for i in 0..n_queries {
            wait_until(t0, i, QUERY_RATE);
            let (kind, variant) = fleet::draw_ask(&mut rng);
            let req = fleet::request(&fleet.names[rng.below(SITES)], kind, variant);
            let (reply, d) = tr.span("socket.query", 0, |_| query.query(&req));
            let (bytes, ok) = match &reply {
                Ok(r) => (
                    serde_json::to_string(r).expect("reply encodes").len() + 1,
                    r.ok,
                ),
                Err(_) => (0, false),
            };
            queries.push((kind, secs(d) * 1e6, bytes, ok));
        }
        (feeder.join().expect("feed client thread"), queries)
    });
    let ack_ms: Vec<f64> = acks.iter().map(|a| a.0).collect();
    let query_ms: Vec<f64> = queries.iter().map(|q| q.1 / 1e3).collect();
    for a in &acks {
        rep.op(a.3);
    }
    for q in &queries {
        rep.op(q.3);
    }
    rep.check(acks.iter().all(|a| a.3), || {
        "an ingest ack was refused or out of order".into()
    });
    rep.check(queries.iter().all(|q| q.3), || {
        "a query reply was not ok".into()
    });
    rep.e2e("ingest_ack_ms_p50", median(&ack_ms), "ms", ack_ms.len());
    rep.e2e(
        "ingest_ack_ms_p99",
        windowed_quantile(&ack_ms, 0.99, TAIL_WINDOW),
        "ms",
        ack_ms.len(),
    );
    // The median query falls in the O(1) class, whose time is one
    // loopback round trip: on a 2-vCPU VM it moves 17-37 % between
    // runs, so it is reported per layer rather than gated.
    rep.layer("query_ms_p50", median(&query_ms), "ms", query_ms.len());
    rep.e2e(
        "query_ms_p99",
        windowed_quantile(&query_ms, 0.99, TAIL_WINDOW),
        "ms",
        query_ms.len(),
    );
    let points = iriscast::serve::SiteModel::paper(1).points_per_snapshot() as u64;
    rep.count("live.acks", acks.len() as u64);
    rep.count("live.queries", queries.len() as u64);
    rep.count("live.rows_merged", acks.len() as u64 * points);
    rep.count("live.rows_evicted", acks.len() as u64 * points);
    rep.count("live.rows_held", (2 * SITES * RETAIN) as u64 * points);
    let reply_bytes: usize = queries.iter().map(|q| q.2).sum();
    rep.measured("live.reply_bytes", reply_bytes as f64);

    verify(&a, &mut query, acks.len(), rep);
    if tr.on() {
        let rtt_us = median(&kind_us(&queries, 1));
        rep.layer(
            "transport.rtt_us_p50",
            rtt_us,
            "us",
            kind_us(&queries, 1).len(),
        );
        rep.layer(
            "transport.bytes_per_reply",
            reply_bytes as f64 / queries.len() as f64,
            "bytes",
            queries.len(),
        );
        let late: Vec<f64> = acks.iter().map(|a| a.1).collect();
        rep.layer("gen.late_ms_p99", quantile(&late, 0.99), "ms", late.len());
        let answer_us = wire_pass(&a, seed, tr, rep);
        let wait: Vec<f64> = queries
            .iter()
            .map(|q| q.1 - answer_us[q.0] - rtt_us)
            .collect();
        rep.layer("service.query_wait_us_p50", median(&wait), "us", wait.len());
        rep.layer(
            "service.query_wait_us_p99",
            quantile(&wait, 0.99),
            "us",
            wait.len(),
        );
        let inputs: Vec<SnapshotRecord> = (0..64 * SITES)
            .map(|i| a.fleet.record(i % SITES, HISTORY + (i / SITES) as u64))
            .collect();
        let (ingest_us, _) = probe::ingest_pass(&a.fleet, RETAIN, HISTORY, &inputs, true, tr, rep);
        let ack_wait: Vec<f64> = acks.iter().map(|a| a.2 - ingest_us - rtt_us).collect();
        rep.layer(
            "service.ack_wait_us_p50",
            median(&ack_wait),
            "us",
            ack_wait.len(),
        );
        probe::stats_pass(&a.fleet, RETAIN, true, tr, rep);
        rep.layer(
            "stats.rows_held",
            (2 * SITES * RETAIN) as f64 * points as f64,
            "count",
            1,
        );
        federate(&a, &b, tr, rep);
    }
    drop(query);
    let frames = tear_down(a, b, rep);
    if primary {
        rep.e2e("peak_rss_mb", util::peak_rss_mb(), "MB", 1);
        while setups.len() < SETUPS {
            let r = ready(seed, tr, rep, &mut setups, &mut accept_ms);
            drop((r.feed, r.query));
            tear_down(r.a, r.b, rep);
        }
        rep.e2e("setup_s", median(&setups), "s", setups.len());
    }
    rep.count("live.frames", frames);
    if tr.on() {
        rep.layer(
            "transport.accept_wait_ms_p50",
            median(&accept_ms),
            "ms",
            accept_ms.len(),
        );
        rep.layer("transport.frames", frames as f64, "count", 1);
    }
    median(&ack_ms)
}

/// Sleeps until the `i`-th send of a stream paced at `rate` per second
/// from `t0` is due, and returns that due time. A send already late
/// goes at once.
fn wait_until(t0: Instant, i: usize, rate: f64) -> Instant {
    let due = t0 + Duration::from_secs_f64(i as f64 / rate);
    if let Some(wait) = due.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
    due
}

fn kind_us(queries: &[Query], kind: usize) -> Vec<f64> {
    queries
        .iter()
        .filter(|q| q.0 == kind)
        .map(|q| q.1)
        .collect()
}

/// Stops both listeners; every frame must have been answered `ok`.
/// Returns region A's frame count.
fn tear_down(a: Region, b: Region, rep: &mut Report) -> u64 {
    let sa = a.server.shutdown();
    let sb = b.server.shutdown();
    for s in [sa, sb] {
        rep.check(s.rejected == 0 && s.dropped_partial == 0, || {
            format!("transport refused frames: {s:?}")
        });
    }
    sa.frames
}

/// Region A's watermarks equal the history plus the acks, with nothing
/// pending, and every ask answered over the wire equals the direct
/// in-process answer bit for bit.
fn verify(a: &Region, client: &mut SocketClient, acks: usize, rep: &mut Report) {
    for (i, name) in a.fleet.names.iter().enumerate() {
        let fed = (acks / SITES + usize::from(i < acks % SITES)) as u64;
        let w = a.service.watermark(name).expect("site");
        rep.check(w.folded == HISTORY + fed && w.pending == 0, || {
            format!("{name}: watermark {w:?} after {fed} acks")
        });
        for (kind, ask) in ASKS.iter().enumerate() {
            for variant in 0..3 {
                let req = fleet::request(name, kind, variant);
                let wire = client.query(&req).map(|r| encode(&r));
                let direct = encode(&a.service.answer(&req));
                rep.check(
                    wire.as_ref().ok() == Some(&direct) && direct.contains("\"ok\":true"),
                    || format!("{name} {ask}: wire {wire:?} != direct {direct}"),
                );
            }
        }
    }
}

fn encode(reply: &QueryReply) -> String {
    serde_json::to_string(reply).expect("reply encodes")
}

/// Idle `answer` per ask, request decode and reply encode over the
/// seeded mix. Returns the mean answer time per ask kind, µs.
fn wire_pass(a: &Region, seed: u64, tr: &Tracer, rep: &mut Report) -> [f64; 6] {
    const REPS: usize = 48;
    let mut answer_us = [0.0; 6];
    for (kind, slot) in answer_us.iter_mut().enumerate() {
        let mut total = Duration::ZERO;
        for i in 0..REPS {
            let req = fleet::request(&a.fleet.names[i % a.fleet.len()], kind, i);
            let (reply, d) = tr.span("wire.answer", 0, |_| a.service.answer(&req));
            rep.check(reply.ok, || format!("idle {} answer refused", ASKS[kind]));
            total += d;
        }
        *slot = secs(total) / REPS as f64 * 1e6;
        rep.layer(&format!("wire.answer_us.{}", ASKS[kind]), *slot, "us", REPS);
    }
    let mut rng = Rng::new(seed, 0x9E5);
    let reqs: Vec<QueryRequest> = (0..2_000)
        .map(|_| {
            let (kind, variant) = fleet::draw_ask(&mut rng);
            fleet::request(&a.fleet.names[rng.below(a.fleet.len())], kind, variant)
        })
        .collect();
    let (mut decode, mut encode_t) = (Duration::ZERO, Duration::ZERO);
    let mut out = Vec::with_capacity(1 << 16);
    for req in &reqs {
        let line = serde_json::to_string(req).expect("request encodes");
        let (parsed, d) = tr.span("wire.query_decode", 0, |_| {
            serde_json::from_str::<QueryRequest>(&line)
        });
        decode += d;
        rep.check(parsed.as_ref().ok() == Some(req), || {
            format!("request {line} decoded to {parsed:?}")
        });
        let reply = a.service.answer(req);
        out.clear();
        encode_t += tr
            .span("wire.reply_encode", 0, |_| {
                serde_json::ndjson::to_writer(&mut out, &reply).expect("encode")
            })
            .1;
    }
    rep.layer(
        "wire.query_decode_ns",
        secs(decode) / reqs.len() as f64 * 1e9,
        "ns",
        reqs.len(),
    );
    rep.layer(
        "wire.reply_encode_ns",
        secs(encode_t) / reqs.len() as f64 * 1e9,
        "ns",
        reqs.len(),
    );
    answer_us
}

/// Federation sweeps over both regions, each checked bit for bit
/// against an in-process fold of the same exports, and the in-process
/// `fold_site` cost.
fn federate(a: &Region, b: &Region, tr: &Tracer, rep: &mut Report) {
    let period = Period::snapshot_24h();
    let federator = FleetFederator::new(vec![
        RegionHandle::of("A", &a.server),
        RegionHandle::of("B", &b.server),
    ]);
    let mut reference = FleetRollup::new(vec!["A".into(), "B".into()], period);
    let mut rollups = Vec::new();
    for (index, r) in [a, b].iter().enumerate() {
        for name in r.service.sites() {
            let e = r.service.export(&name).expect("site");
            rollups.push(site_rollup(index as u32, e.servers, e.energy_kwh));
        }
    }
    for s in &rollups {
        reference.fold_site(s.clone());
    }
    let expect = reference.total_best_estimate().kilowatt_hours().to_bits();
    let mut sweep_ms = Vec::new();
    for _ in 0..FEDERATION_SWEEPS {
        let (fleet, d) = tr.span("federator.sweep", 0, |_| federator.federate(period));
        let ok = fleet.is_ok_and(|f| f.total_best_estimate().kilowatt_hours().to_bits() == expect);
        rep.op(ok);
        rep.check(ok, || {
            "federated roll-up differs from the in-process fold".into()
        });
        sweep_ms.push(secs(d) * 1e3);
    }
    const FOLDS: usize = 1_000;
    let mut total = Duration::ZERO;
    for _ in 0..FOLDS {
        let mut r = FleetRollup::new(vec!["A".into(), "B".into()], period);
        total += tr
            .span("federation.fold", 0, |_| {
                for s in &rollups {
                    r.fold_site(s.clone());
                }
            })
            .1;
        std::hint::black_box(&r);
    }
    rep.layer(
        "federator.sweep_ms_p50",
        median(&sweep_ms),
        "ms",
        sweep_ms.len(),
    );
    rep.layer(
        "federator.sweep_ms_p90",
        quantile(&sweep_ms, 0.9),
        "ms",
        sweep_ms.len(),
    );
    rep.layer(
        "federation.fold_site_ns",
        secs(total) / (FOLDS * rollups.len()) as f64 * 1e9,
        "ns",
        FOLDS,
    );
}
