//! Seeded serve-side inputs shared by the `backfill` and `dashboard`
//! phases: site fleets, snapshot records and their NDJSON frames, and
//! services built and pre-filled in process.

use crate::util::Rng;
use iriscast::serve::{AssessmentService, QueryRequest, SiteModel, SnapshotRecord};
use std::fmt::Write as _;

/// Every snapshot covers one hour.
pub const WINDOW_S: i64 = 3_600;

/// A set of sites: names, fleet sizes, and the seed their energies
/// derive from.
#[derive(Clone, Debug)]
pub struct Fleet {
    pub names: Vec<String>,
    pub servers: Vec<u32>,
    seed: u64,
}

impl Fleet {
    pub fn new(prefix: &str, sites: usize, seed: u64) -> Self {
        let mut rng = Rng::new(seed, 0xF1EE7);
        Fleet {
            names: (0..sites).map(|i| format!("{prefix}{i:02}")).collect(),
            servers: (0..sites).map(|_| 200 + rng.below(2_200) as u32).collect(),
            seed,
        }
    }

    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Site `site`'s snapshot `seq`: a pure function of the seed, so a
    /// reference can regenerate any record.
    pub fn record(&self, site: usize, seq: u64) -> SnapshotRecord {
        let u = Rng::new(self.seed, ((site as u64) << 40) | seq).unit();
        SnapshotRecord {
            site: self.names[site].clone(),
            seq,
            window_start_s: seq as i64 * WINDOW_S,
            window_end_s: (seq as i64 + 1) * WINDOW_S,
            energy_kwh: f64::from(self.servers[site]) * 0.45 * (0.7 + 0.6 * u),
        }
    }

    /// A service hosting these sites under the paper's template, two
    /// tenants each, retention of `retain` windows, and `history`
    /// windows per site already folded in process (round-robin).
    pub fn service(&self, retain: usize, history: u64) -> AssessmentService {
        let service = AssessmentService::new();
        for site in 0..self.len() {
            self.register(&service, site, retain);
        }
        for seq in 0..history {
            for site in 0..self.len() {
                service
                    .ingest(&self.record(site, seq))
                    .expect("history replay folds in order");
            }
        }
        service
    }

    /// Registers one site (model, tenants, retention) on `service`.
    pub fn register(&self, service: &AssessmentService, site: usize, retain: usize) {
        let name = &self.names[site];
        service
            .register_site(name.as_str(), SiteModel::paper(self.servers[site]))
            .expect("fresh site");
        service.register_tenant(name, "lsst", 3.0).expect("tenant");
        service.register_tenant(name, "gaia", 1.0).expect("tenant");
        service.set_retention(name, retain).expect("retention");
    }
}

/// Appends one record as an NDJSON frame.
pub fn write_frame(out: &mut String, r: &SnapshotRecord) {
    writeln!(
        out,
        "{{\"site\":\"{}\",\"seq\":{},\"window_start_s\":{},\"window_end_s\":{},\"energy_kwh\":{:?}}}",
        r.site, r.seq, r.window_start_s, r.window_end_s, r.energy_kwh
    )
    .expect("write to String");
}

/// The query asks the benchmark issues, by name.
pub const ASKS: [&str; 6] = [
    "percentile",
    "watermark",
    "summary",
    "envelope",
    "marginal",
    "tenant_share",
];

/// A request for `ASKS[kind]` against `site`; `variant` picks the
/// quantile or marginal axis.
pub fn request(site: &str, kind: usize, variant: usize) -> QueryRequest {
    let mut req = QueryRequest::bare(site, ASKS[kind]);
    match ASKS[kind] {
        "percentile" => req.q = Some([0.05, 0.5, 0.95][variant % 3]),
        "marginal" => req.axis = Some(["pue", "embodied", "lifespan"][variant % 3].into()),
        "tenant_share" => req.tenant = Some(["lsst", "gaia"][variant % 2].into()),
        _ => {}
    }
    req
}

/// The seeded ask mix: 80 % O(1) (three quantiles and `watermark`,
/// 20 % each) and 20 % O(n) (`summary`, `envelope`, `marginal`,
/// `tenant_share`, 5 % each), so the median falls in the body of the
/// O(1) class and p99 inside the O(n) class. Returns (ask kind,
/// variant).
pub fn draw_ask(rng: &mut Rng) -> (usize, usize) {
    let r = rng.below(20);
    let variant = rng.below(6);
    match r {
        0..=11 => (0, r / 4),
        12..=15 => (1, 0),
        16 => (2, 0),
        17 => (3, 0),
        18 => (4, variant),
        _ => (5, variant),
    }
}
