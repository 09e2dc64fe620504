//! `backfill`: bulk import into a running service over the one-way
//! socket feed (`spawn_record_feed` → `spawn_ingest`).
//!
//! Each repetition builds a fresh service, replays a history longer
//! than the retention in process (so eviction is already in steady
//! state), then one generator thread streams a seeded NDJSON backlog
//! into the feed. Sites are round-robin; within each site every block
//! of 16 seqs has one seeded adjacent swap, which the reorder buffer
//! must park. The timed phase runs from the first byte written to the
//! ingest thread's join.

use crate::fleet::{self, Fleet};
use crate::probe;
use crate::trace::Tracer;
use crate::util::{self, median, secs, Report, Rng};
use crossbeam::channel::unbounded;
use iriscast::serve::{spawn_record_feed, AssessmentService, QueryRequest, SnapshotRecord};
use std::io::{BufWriter, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Sites in the `backfill` workload's own phase.
pub const SITES: usize = 64;
/// Sites in the companion phase the other workloads run.
pub const COMPANION_SITES: usize = 8;
/// Windows each site retains.
const RETAIN: usize = 64;
/// Windows per site replayed in process during set-up.
const HISTORY: u64 = 80;
/// Records per site streamed over the socket (a multiple of 16).
const PER_SITE: u64 = 4_000;
/// Repetitions run whatever the budget.
const MIN_REPS: usize = 3;
/// Set-ups timed per repetition; the last one takes the feed. A
/// set-up takes milliseconds against a second or more of feed, so each
/// repetition repeats it and every timing enters the median.
const SETUPS_PER_REP: usize = 4;

/// The `i`-th record of the stream: round-robin over sites, and within
/// a site seq order except one adjacent swap per 16.
fn streamed(fleet: &Fleet, seed: u64, i: u64) -> SnapshotRecord {
    let sites = fleet.len() as u64;
    let site = (i % sites) as usize;
    let round = i / sites;
    let (block, offset) = (round / 16, round % 16);
    let swap = Rng::new(seed, 0x5A4B ^ ((site as u64) << 32) ^ block).below(15) as u64;
    let offset = match offset {
        o if o == swap => o + 1,
        o if o == swap + 1 => swap,
        o => o,
    };
    fleet.record(site, HISTORY + block * 16 + offset)
}

/// A service ready to take the feed, and the threads behind it.
struct Running {
    service: AssessmentService,
    feed: std::thread::JoinHandle<iriscast::serve::FeedStats>,
    ingest: iriscast::serve::IngestHandle,
    client: TcpStream,
}

fn set_up(fleet: &Fleet, tr: &Tracer) -> (Running, Duration) {
    tr.span("bulk.setup", 0, |id| {
        let (service, _) = tr.span("service.replay", id, |_| fleet.service(RETAIN, HISTORY));
        let (running, _) = tr.span("transport.feed_start", id, |_| {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            let addr = listener.local_addr().expect("local addr");
            let client = TcpStream::connect(addr).expect("connect loopback");
            let (server_side, _) = listener.accept().expect("accept feed");
            let (tx, rx) = unbounded();
            let ingest = service.spawn_ingest(rx, Duration::from_millis(50));
            let feed = spawn_record_feed(server_side, tx);
            Running {
                service: service.clone(),
                feed,
                ingest,
                client,
            }
        });
        running
    })
}

/// `SETUPS_PER_REP` timed set-ups; all but the last are torn down
/// (closing the feed ends the feed and ingest threads).
fn set_ups(fleet: &Fleet, tr: &Tracer, setups: &mut Vec<f64>) -> Running {
    loop {
        let (running, d) = set_up(fleet, tr);
        setups.push(secs(d));
        if setups.len().is_multiple_of(SETUPS_PER_REP) {
            return running;
        }
        drop(running.client);
        running.feed.join().expect("feed thread");
        running.ingest.join();
    }
}

/// Runs repetitions of `sites` sites for at least `budget` and
/// `MIN_REPS`, reporting `ingest_records_per_s` (and, when `primary`,
/// `setup_s` and the peak RSS after the first repetition). Returns the
/// median seconds per record.
pub fn run(
    sites: usize,
    seed: u64,
    budget: Duration,
    tr: &Tracer,
    rep: &mut Report,
    primary: bool,
) -> f64 {
    let fleet = Fleet::new("S", sites, seed);
    let n = sites as u64 * PER_SITE;
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let (mut parse_s, mut drain_s, mut backlog) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while rates.len() < MIN_REPS || start.elapsed() < budget {
        let Running {
            service,
            feed,
            ingest,
            client,
        } = set_ups(&fleet, tr, &mut setups);
        tr.span("bulk.feed", 0, |id| {
            let gen_fleet = fleet.clone();
            let gen = std::thread::spawn(move || {
                let first_byte = Instant::now();
                let mut out = BufWriter::with_capacity(1 << 16, &client);
                let mut line = String::with_capacity(160);
                for i in 0..n {
                    line.clear();
                    fleet::write_frame(&mut line, &streamed(&gen_fleet, seed, i));
                    out.write_all(line.as_bytes()).expect("feed socket write");
                }
                out.flush().expect("feed socket flush");
                drop(out);
                client.shutdown(Shutdown::Write).expect("close feed");
                first_byte
            });
            let (feed_stats, _) = tr.span("transport.feed_join", id, |_| {
                feed.join().expect("feed thread")
            });
            let parsed_at = Instant::now();
            let folded_now: u64 = fleet
                .names
                .iter()
                .map(|s| service.watermark(s).expect("site").folded)
                .sum::<u64>()
                - HISTORY * sites as u64;
            let (stats, _) = tr.span("service.ingest_join", id, |_| ingest.join());
            let done = Instant::now();
            let first_byte = gen.join().expect("generator thread");
            rates.push(n as f64 / secs(done - first_byte));
            parse_s.push(secs(parsed_at - first_byte));
            drain_s.push(secs(done - parsed_at));
            backlog.push(feed_stats.forwarded.saturating_sub(folded_now) as f64);
            rep.check(
                feed_stats.forwarded == n && feed_stats.malformed == 0,
                || {
                    format!(
                        "feed forwarded {} of {n} ({} malformed)",
                        feed_stats.forwarded, feed_stats.malformed
                    )
                },
            );
            rep.check(stats.folded == n && stats.rejected == 0, || {
                format!(
                    "ingest folded {} of {n}, rejected {} ({:?})",
                    stats.folded, stats.rejected, stats.last_error
                )
            });
            rep.attempted += n;
            rep.failed += n.saturating_sub(stats.folded);
        });
        verify(&fleet, &service, seed, rep);
        if primary && rates.len() == 1 {
            // Later repetitions only add allocator retention from the
            // threads and channels before them.
            rep.e2e("peak_rss_mb", util::peak_rss_mb(), "MB", 1);
        }
    }
    rep.e2e("ingest_records_per_s", median(&rates), "1/s", rates.len());
    if primary {
        rep.e2e("setup_s", median(&setups), "s", setups.len());
    }
    let folded = n + HISTORY * sites as u64;
    let points = iriscast::serve::SiteModel::paper(1).points_per_snapshot() as u64;
    let evicted = (HISTORY + PER_SITE - RETAIN as u64) * sites as u64;
    rep.measured("bulk.repetitions", rates.len() as f64);
    rep.count("bulk.records_per_rep", n);
    rep.count("bulk.records_folded_per_rep", folded);
    rep.count("bulk.rows_appended_per_rep", folded * points);
    rep.count("bulk.rows_evicted_per_rep", evicted * points);
    rep.count("bulk.rows_merged_per_rep", 0);
    if tr.on() {
        rep.layer("feed.parse_s", median(&parse_s), "s", parse_s.len());
        rep.layer("feed.drain_s", median(&drain_s), "s", drain_s.len());
        rep.layer(
            "feed.backlog_peak",
            median(&backlog),
            "count",
            backlog.len(),
        );
        let inputs: Vec<SnapshotRecord> = (0..n.min(20_000))
            .map(|i| streamed(&fleet, seed, i))
            .collect();
        let (_, pending_peak) =
            probe::ingest_pass(&fleet, RETAIN, HISTORY, &inputs, false, tr, rep);
        rep.layer(
            "service.pending_peak",
            pending_peak as f64,
            "count",
            inputs.len(),
        );
        probe::stats_pass(&fleet, RETAIN, false, tr, rep);
        rep.layer(
            "stats.rows_held",
            (sites * RETAIN) as f64 * points as f64,
            "count",
            1,
        );
    }
    1.0 / median(&rates)
}

/// Every site's watermark equals the records sent with nothing
/// pending; one site's answers match an in-order in-process reference
/// bit for bit; a stale resend is refused and changes nothing.
fn verify(fleet: &Fleet, service: &AssessmentService, seed: u64, rep: &mut Report) {
    let expect = HISTORY + PER_SITE;
    for name in &fleet.names {
        let w = service.watermark(name).expect("registered site");
        rep.check(
            w.folded == expect && w.pending == 0 && w.evicted == expect - RETAIN as u64,
            || format!("{name}: watermark {w:?}, expected {expect} folded, 0 pending"),
        );
    }
    let site = (seed % fleet.len() as u64) as usize;
    let reference = AssessmentService::new();
    fleet.register(&reference, site, RETAIN);
    for seq in 0..expect {
        reference
            .ingest(&fleet.record(site, seq))
            .expect("in-order reference ingest");
    }
    let name = &fleet.names[site];
    for (kind, variant) in [(0, 1), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0)] {
        let req = fleet::request(name, kind, variant);
        same_answer(service, &reference, &req, rep);
    }
    same_answer(
        service,
        &reference,
        &QueryRequest::export(name.as_str()),
        rep,
    );
    let stale = service.ingest(&fleet.record(site, 0));
    rep.check(stale.is_err(), || {
        format!("{name}: stale resend of seq 0 was folded")
    });
    same_answer(
        service,
        &reference,
        &QueryRequest::export(name.as_str()),
        rep,
    );
}

fn same_answer(
    live: &AssessmentService,
    reference: &AssessmentService,
    req: &QueryRequest,
    rep: &mut Report,
) {
    let a = serde_json::to_string(&live.answer(req)).expect("reply encodes");
    let b = serde_json::to_string(&reference.answer(req)).expect("reply encodes");
    rep.check(a == b && a.contains("\"ok\":true"), || {
        format!("{} {}: live {a} != reference {b}", req.site, req.ask)
    });
}
