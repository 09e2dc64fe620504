//! Small shared pieces: the seeded generator, order statistics, process
//! readings from `/proc/self`, and the report every phase writes into.

use std::collections::BTreeMap;
use std::time::Duration;

/// SplitMix64: a tiny seeded generator, so the inputs depend only on
/// `--seed` and on nothing inside the program under test.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Linear-interpolated quantile of unsorted samples (sorts a copy).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = q * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The `q` quantile of each stretch of at least `window` consecutive
/// samples, median over the stretches: a tail figure that one burst of
/// host preemption, landing in a single stretch, cannot move.
pub fn windowed_quantile(samples: &[f64], q: f64, window: usize) -> f64 {
    let (len, n) = (samples.len(), (samples.len() / window).max(1));
    let per: Vec<f64> = (0..n)
        .map(|k| quantile(&samples[k * len / n..(k + 1) * len / n], q))
        .collect();
    median(&per)
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The process high-water resident set, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// User and system CPU seconds of the whole process so far. Linux
/// reports both in USER_HZ ticks, 100 per second.
pub fn cpu_user_sys_s() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line, 12 and 13 after the name.
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields[i].parse::<f64>().expect("numeric tick field") / 100.0;
    (tick(11), tick(12))
}

/// One reported figure: value, unit, and how many samples it rests on.
#[derive(Clone, Debug)]
pub struct Figure {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Everything a run reports: end-to-end and per-layer figures, exact
/// work counts, other run-dependent totals, operations attempted and
/// failed, and failed checks.
#[derive(Debug, Default)]
pub struct Report {
    pub e2e: BTreeMap<String, Figure>,
    pub layer: BTreeMap<String, Figure>,
    pub counts: BTreeMap<String, u64>,
    pub measured: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: Vec<String>,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.e2e.insert(
            name.into(),
            Figure {
                value,
                unit,
                samples,
            },
        );
    }

    /// Per-layer figure; the first phase to report a name keeps it, so
    /// the workload's own phase (run first) wins over companions.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.layer.entry(name.into()).or_insert(Figure {
            value,
            unit,
            samples,
        });
    }

    /// Adds to an exact work count, keyed `<phase>.<what>`: a quantity
    /// fixed by the seed and `--seconds` alone.
    pub fn count(&mut self, name: &str, n: u64) {
        *self.counts.entry(name.into()).or_insert(0) += n;
    }

    /// Adds to a total that depends on how fast the run went, such as
    /// repetitions finished or reply bytes.
    pub fn measured(&mut self, name: &str, v: f64) {
        *self.measured.entry(name.into()).or_insert(0.0) += v;
    }

    /// Records a correctness check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.wrong.push(what());
        }
    }

    /// Counts one operation against the program, failed or not.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}
