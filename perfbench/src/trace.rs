//! Spans around every call the benchmark makes into a layer.
//!
//! Every call is timed whether tracing is on or off (the end-to-end
//! figures are those timings); with tracing on, each call also leaves a
//! span — name, start, end, parent — in memory, written out once the
//! run ends. Self time is a span's duration minus the time its direct
//! children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug)]
struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// The in-memory span log. Span id 0 means "no parent".
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` as span `name` under `parent`, handing `f` the new
    /// span's id for its children. Returns the result and the elapsed
    /// wall time.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        f: impl FnOnce(u64) -> T,
    ) -> (T, Duration) {
        let id = if self.on {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        if self.on {
            let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
            self.spans.lock().expect("span log lock").push(Span {
                id,
                parent,
                name,
                start_ns: ns(start),
                end_ns: ns(end),
            });
        }
        (out, end - start)
    }

    /// Writes every span as TSV (id, parent, name, start, end, self) to
    /// `path` and returns per-name totals: (count, total s, self s).
    pub fn write(&self, path: &std::path::Path) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let spans = self.spans.lock().expect("span log lock");
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_insert(0) += s.end_ns - s.start_ns;
        }
        let mut totals: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        let mut out = Vec::with_capacity(spans.len() * 48);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns\tself_ns").expect("write to Vec");
        for s in spans.iter() {
            let dur = s.end_ns - s.start_ns;
            let self_ns = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, self_ns
            )
            .expect("write to Vec");
            let t = totals.entry(s.name).or_insert((0, 0.0, 0.0));
            t.0 += 1;
            t.1 += dur as f64 * 1e-9;
            t.2 += self_ns as f64 * 1e-9;
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create span output directory");
        }
        std::fs::write(path, out).expect("write span log");
        totals
    }
}
