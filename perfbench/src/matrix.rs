//! The attack-matrix workload: the three grids of
//! `tests/golden/scenario_matrix.txt` (the full vector x defence grid, the
//! CA issuance grid and the DNSSEC deployment grid), two runs per cell.
//! Set-up prepares every cell once (`PreparedCell::new`,
//! `PreparedIssuanceCell::new`); a timed pass runs every cell at seeds the
//! benchmark derives from `--seed` (`run_at`).

use crate::alloc::Allocs;
use crate::clock::Calibration;
use crate::host::digest;
use crate::trace::Tracer;
use crate::workload::{pass_seed, Check, WorkloadRun};
use attacks::prelude::*;
use ca::{IssuanceCampaign, IssuanceMatrix, IssuanceRun, IssuanceTally, PreparedIssuanceCell};
use std::collections::BTreeMap;
use std::time::Instant;
use xlayer_core::prelude::*;
use xlayer_core::scenario::{run_cell, MatrixTally, PreparedCell, ScenarioMatrix, ScenarioRun};

/// Runs per cell, as in the golden fixture.
pub const RUNS_PER_CELL: u64 = 2;

/// Stream salt of the benchmark's per-cell seeds.
const CELL_SALT: u64 = 0x3a71_c0de_2021_0002;

/// Which grid a cell belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Grid {
    /// `ScenarioCampaign::full_grid`.
    Full,
    /// `ca::IssuanceCampaign::standard`.
    Ca,
    /// `ScenarioCampaign::dnssec_grid`.
    Dnssec,
}

enum Prepared {
    Scenario(PreparedCell),
    Issuance(PreparedIssuanceCell),
}

/// One prepared cell with its grid coordinates.
pub struct Cell {
    grid: Grid,
    method_idx: usize,
    defence_idx: usize,
    method: PoisonMethod,
    prepared: Prepared,
}

impl Cell {
    /// The label its run times are reported under: the vector's slug for
    /// the full grid, `dnssec` for the DNSSEC grid, `ca` for issuance.
    pub fn vector(&self) -> &'static str {
        match self.grid {
            Grid::Full => self.method.slug(),
            Grid::Dnssec => "dnssec",
            Grid::Ca => "ca",
        }
    }
}

/// The grid layouts (methods and defences) in fixture order.
pub fn layouts() -> (ScenarioCampaign, IssuanceCampaign, ScenarioCampaign) {
    (
        ScenarioCampaign::full_grid(0, RUNS_PER_CELL),
        IssuanceCampaign::standard(0, RUNS_PER_CELL),
        ScenarioCampaign::dnssec_grid(0, RUNS_PER_CELL),
    )
}

/// Prepares every cell of the three grids, each inside a span.
pub fn prepare_all(tr: &mut Tracer) -> Vec<Cell> {
    let (full, ca, dnssec) = layouts();
    let mut cells = Vec::new();
    for (grid, campaign) in [(Grid::Full, &full), (Grid::Dnssec, &dnssec)] {
        for (mi, &m) in campaign.methods.iter().enumerate() {
            for (di, &d) in campaign.defences.iter().enumerate() {
                let p = tr.span("PreparedCell::new", |_| PreparedCell::new(m, d));
                cells.push(Cell { grid, method_idx: mi, defence_idx: di, method: m, prepared: Prepared::Scenario(p) });
            }
        }
    }
    for (mi, &m) in ca.methods.iter().enumerate() {
        for (di, &d) in ca.defences.iter().enumerate() {
            let p = tr.span("PreparedIssuanceCell::new", |_| PreparedIssuanceCell::new(m, d));
            cells.push(Cell {
                grid: Grid::Ca,
                method_idx: mi,
                defence_idx: di,
                method: m,
                prepared: Prepared::Issuance(p),
            });
        }
    }
    cells.sort_by_key(|c| (c.grid, c.method_idx, c.defence_idx));
    cells
}

/// The outcome of one simulation, as the grids tally it.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A scenario-grid run.
    Scenario(AttackReport),
    /// An issuance-grid run.
    Issuance(IssuanceRun),
}

impl Outcome {
    /// Attacker packets the simulation sent.
    pub fn attacker_packets(&self) -> u64 {
        match self {
            Outcome::Scenario(r) => r.attacker_packets,
            Outcome::Issuance(r) => r.attacker_packets,
        }
    }
}

/// Runs cell `cell` at `seed` inside a span.
pub fn run_cell_at(cell: &Cell, seed: u64, tr: &mut Tracer) -> Outcome {
    match &cell.prepared {
        Prepared::Scenario(p) => Outcome::Scenario(tr.span("PreparedCell::run_at", |_| p.run_at(seed)).report),
        Prepared::Issuance(p) => {
            let c = tr.span("PreparedIssuanceCell::run_at", |_| p.run_at(seed));
            Outcome::Issuance(IssuanceRun {
                method_idx: cell.method_idx,
                defence_idx: cell.defence_idx,
                poisoned: c.poisoned,
                issued: c.issued,
                attacker_packets: c.report.attacker_packets,
                attacker_bytes: c.report.attacker_bytes,
            })
        }
    }
}

/// Seed of run `run` of cell `index` in the pass seeded `pass_seed`.
pub fn cell_seed(pass_seed: u64, index: usize, run: u64) -> u64 {
    derive_seed(pass_seed, CELL_SALT ^ ((index as u64 + 1) << 32), run)
}

/// One pass over every cell: outcomes in cell order and the host seconds of
/// each `run_at`, by vector label.
pub struct PassResult {
    /// `(cell index, run, outcome)` in execution order.
    pub outcomes: Vec<(usize, u64, Outcome)>,
    /// Host seconds of each simulation, by vector label.
    pub times: BTreeMap<&'static str, Vec<f64>>,
    /// Allocations made inside `run_at`.
    pub allocs: Allocs,
}

impl PassResult {
    /// Host seconds of all simulations.
    pub fn run_s(&self) -> f64 {
        self.times.values().flatten().sum()
    }
}

/// Runs one pass; the calibration ticks between cells.
pub fn run_pass(cells: &[Cell], pseed: u64, tr: &mut Tracer, cal: &mut Calibration) -> PassResult {
    let mut res = PassResult { outcomes: Vec::new(), times: BTreeMap::new(), allocs: Allocs::default() };
    tr.span("matrix", |tr| {
        for (ci, cell) in cells.iter().enumerate() {
            tr.span("cell", |tr| {
                for run in 0..RUNS_PER_CELL {
                    let seed = cell_seed(pseed, ci, run);
                    let a0 = Allocs::now();
                    let t0 = Instant::now();
                    let out = run_cell_at(cell, seed, tr);
                    let secs = t0.elapsed().as_secs_f64();
                    let a = a0.since();
                    res.allocs.count += a.count;
                    res.allocs.bytes += a.bytes;
                    res.times.entry(cell.vector()).or_default().push(secs);
                    res.outcomes.push((ci, run, out));
                }
            });
            tr.span("calibrate", |_| cal.tick());
        }
    });
    res
}

/// Folds a pass into the three matrices and renders them as the golden
/// fixture lays them out.
pub fn render(cells: &[Cell], outcomes: &[(usize, u64, Outcome)]) -> String {
    let (full, ca, dnssec) = layouts();
    let (mut t_full, mut t_ca, mut t_dnssec) =
        (MatrixTally::default(), IssuanceTally::default(), MatrixTally::default());
    for (ci, _, out) in outcomes {
        let cell = &cells[*ci];
        match out {
            Outcome::Scenario(report) => {
                let run =
                    ScenarioRun { method_idx: cell.method_idx, defence_idx: cell.defence_idx, report: report.clone() };
                if cell.grid == Grid::Full {
                    t_full.observe(&run);
                } else {
                    t_dnssec.observe(&run);
                }
            }
            Outcome::Issuance(run) => t_ca.observe(run),
        }
    }
    let scenario = |c: &ScenarioCampaign, t: MatrixTally| ScenarioMatrix {
        methods: c.methods.clone(),
        defences: c.defences.clone(),
        runs_per_cell: RUNS_PER_CELL,
        cells: t.cells,
    };
    let issuance = IssuanceMatrix {
        methods: ca.methods.clone(),
        defences: ca.defences.clone(),
        runs_per_cell: RUNS_PER_CELL,
        cells: t_ca.cells,
    };
    let mut out = render_scenario_matrix(&scenario(&full, t_full));
    out.push('\n');
    out.push_str(&ca::render_issuance_matrix(&issuance));
    out.push('\n');
    out.push_str(&render_dnssec_matrix(&scenario(&dnssec, t_dnssec)));
    out
}

/// The fixture text as the repository's golden test renders it, through the
/// public campaign path at `seed`.
pub fn render_campaigns(seed: u64) -> String {
    let mut out = render_scenario_matrix(&ScenarioCampaign::full_grid(seed, RUNS_PER_CELL).run(1));
    out.push('\n');
    out.push_str(&ca::render_issuance_matrix(&IssuanceCampaign::standard(seed, RUNS_PER_CELL).run(1)));
    out.push('\n');
    out.push_str(&render_dnssec_matrix(&ScenarioCampaign::dnssec_grid(seed, RUNS_PER_CELL).run(1)));
    out
}

/// Set-up repetitions; the median is reported.
const SETUP_REPS: usize = 15;

/// Runs the workload for `seconds` of wall time, whole passes, at least two.
/// Returns the run, the prepared cells and pass 0's outcomes.
pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    cal: &mut Calibration,
) -> (WorkloadRun, Vec<Cell>, Vec<(usize, u64, Outcome)>) {
    let mut w = WorkloadRun::new("matrix", "simulations", trace);
    w.trace_setup();
    let mut cells = Vec::new();
    for _ in 0..SETUP_REPS {
        let (prepared, secs) = cal.timed(|| w.tracer.span("setup", prepare_all));
        cells = prepared;
        w.setup_samples.push(secs);
    }
    let started = Instant::now();
    let mut pass = 0u64;
    let mut pass0 = Vec::new();
    let mut sims = 0u64;
    let mut by_vector: BTreeMap<&'static str, (f64, u64, u64)> = BTreeMap::new();
    while pass < 2 || started.elapsed().as_secs_f64() < seconds {
        let traced = w.begin_pass(pass);
        let res = run_pass(&cells, pass_seed(seed, pass), &mut w.tracer, cal);
        let n = res.outcomes.len() as u64;
        let agree = reference_row_agrees(&cells, pass_seed(seed, pass), &res.outcomes);
        w.checks.push(Check::pass(
            pass,
            "prepared cells equal the unprepared reference path (first row of each grid)",
            agree,
        ));
        w.acct.record_batch(n, agree);
        w.add_pass(traced, n, res.run_s());
        for (v, ts) in &res.times {
            let e = by_vector.entry(v).or_default();
            e.0 += ts.iter().sum::<f64>();
            e.1 += ts.len() as u64;
        }
        for (ci, _, out) in &res.outcomes {
            by_vector.entry(cells[*ci].vector()).or_default().2 += out.attacker_packets();
        }
        sims += n;
        if pass == 0 {
            w.pass0_allocs = res.allocs;
            w.pass0_ops = n;
            w.digest = digest(&render(&cells, &res.outcomes));
            pass0 = res.outcomes;
        }
        pass += 1;
    }
    let total: f64 = by_vector.values().map(|v| v.0).sum();
    let shares: Vec<String> = by_vector
        .iter()
        .map(|(v, (s, n, pk))| {
            format!("{v} {:.1}% ({} sims, {:.0} pkt/sim)", 100.0 * s / total, n, *pk as f64 / *n as f64)
        })
        .collect();
    w.sizes.push(format!(
        "matrix: {} cells x {RUNS_PER_CELL} runs = {} simulations per pass ({} full grid, {} CA, {} DNSSEC cells); \
         {pass} passes, {sims} simulations; share of run_at time: {}",
        cells.len(),
        cells.len() as u64 * RUNS_PER_CELL,
        cells.iter().filter(|c| c.grid == Grid::Full).count(),
        cells.iter().filter(|c| c.grid == Grid::Ca).count(),
        cells.iter().filter(|c| c.grid == Grid::Dnssec).count(),
        shares.join(", ")
    ));
    (w, cells, pass0)
}

/// Untimed check of a pass seeded `pseed`: the first run of every cell in
/// the first row of each grid (no defence; the first DNSSEC profile) equals
/// the unprepared reference path (`run_cell`, `run_issuance_cell`) at the
/// same seed.
pub fn reference_row_agrees(cells: &[Cell], pseed: u64, outcomes: &[(usize, u64, Outcome)]) -> bool {
    let (full, ca, dnssec) = layouts();
    let mut agree = true;
    for (ci, cell) in cells.iter().enumerate() {
        let seed = cell_seed(pseed, ci, 0);
        let reference = match cell.grid {
            Grid::Full if full.defences[cell.defence_idx] == Defence::None => {
                Outcome::Scenario(run_cell(cell.method, Defence::None, seed).report)
            }
            Grid::Dnssec if cell.defence_idx == 0 => {
                Outcome::Scenario(run_cell(cell.method, dnssec.defences[0], seed).report)
            }
            Grid::Ca if ca.defences[cell.defence_idx] == Defence::None => {
                let c = ca::run_issuance_cell(cell.method, Defence::None, seed);
                Outcome::Issuance(IssuanceRun {
                    method_idx: cell.method_idx,
                    defence_idx: cell.defence_idx,
                    poisoned: c.poisoned,
                    issued: c.issued,
                    attacker_packets: c.report.attacker_packets,
                    attacker_bytes: c.report.attacker_bytes,
                })
            }
            _ => continue,
        };
        let got = outcomes.iter().find(|(i, r, _)| *i == ci && *r == 0).map(|(_, _, o)| o);
        agree &= got == Some(&reference);
    }
    agree
}

/// Untimed check on pass 0: replaying it reproduces every outcome. The
/// replay's engine counters (`engine.*`, from the recorded path) join the
/// digest.
pub fn check_pass0(cells: &[Cell], pseed: u64, pass0: &[(usize, u64, Outcome)], w: &mut WorkloadRun) {
    let mut metrics = telemetry::MetricsSnapshot::new();
    let mut same = true;
    for (ci, run, out) in pass0 {
        let cell = &cells[*ci];
        let seed = cell_seed(pseed, *ci, *run);
        let again = match &cell.prepared {
            Prepared::Scenario(p) => Outcome::Scenario(p.run_at_recorded(seed, Some(&mut metrics)).report),
            Prepared::Issuance(_) => run_cell_at(cell, seed, &mut Tracer::new(false, 0)),
        };
        same &= &again == out;
    }
    w.checks.push(Check::new("a replay of pass 0 reproduces every outcome (recorded path for scenario cells)", same));
    let engine: String = metrics.render().lines().filter(|l| l.contains("engine.")).collect::<Vec<_>>().join("\n");
    w.digest = digest(&format!("{:016x}\n{engine}", w.digest));
}
