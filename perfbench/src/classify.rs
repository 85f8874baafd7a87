//! The classification workload: Table 3 and Table 4 over the full datasets
//! (every reported population, 3.1 M profiles per pass), one dataset at a
//! time through the public per-dataset entry points, which are exactly what
//! `run_table3_with` / `run_table4_with` iterate.

use crate::alloc::Allocs;
use crate::clock::Calibration;
use crate::host::digest;
use crate::trace::Tracer;
use crate::workload::{pass_seed, Check, WorkloadRun};
use std::time::Instant;
use xlayer_core::measurements::{classify_domain_dataset_with, classify_resolver_dataset_with};
use xlayer_core::prelude::*;

/// Sample cap that keeps every dataset at its reported size.
pub const FULL_CAP: u64 = u64::MAX;

/// Set-ups timed before every pass; the median over the run's untraced
/// passes is reported.
const SETUP_REPS: usize = 25;

/// Both tables of one pass.
pub type Tables = (Vec<ResolverDatasetResult>, Vec<DomainDatasetResult>);

/// Profiles one pass classifies at `cap`.
pub fn profiles(specs3: &[DatasetSpec], specs4: &[DatasetSpec], cap: u64) -> u64 {
    specs3.iter().chain(specs4).map(|s| s.sample_size(cap) as u64).sum()
}

/// Classifies every dataset of both tables at `cfg`, each inside a span.
/// The host seconds inside the classification calls are added to `secs`;
/// the calibration, if any, ticks between datasets.
pub fn run_pass(
    specs3: &[DatasetSpec],
    specs4: &[DatasetSpec],
    cfg: &CampaignConfig,
    tr: &mut Tracer,
    mut cal: Option<&mut Calibration>,
    secs: &mut f64,
) -> Tables {
    let mut timed = |tr: &mut Tracer, f: &mut dyn FnMut(&mut Tracer)| {
        let t0 = Instant::now();
        f(tr);
        *secs += t0.elapsed().as_secs_f64();
        if let Some(cal) = cal.as_deref_mut() {
            tr.span("calibrate", |_| cal.tick());
        }
    };
    let mut t3 = Vec::new();
    tr.span("table3", |tr| {
        for s in specs3 {
            timed(tr, &mut |tr| {
                t3.push(tr.span("classify_resolver_dataset_with", |_| classify_resolver_dataset_with(s, cfg)))
            });
        }
    });
    let mut t4 = Vec::new();
    tr.span("table4", |tr| {
        for s in specs4 {
            timed(tr, &mut |tr| {
                t4.push(tr.span("classify_domain_dataset_with", |_| classify_domain_dataset_with(s, cfg)))
            });
        }
    });
    (t3, t4)
}

/// Renders both tables as the golden fixtures hold them.
pub fn render(t: &Tables) -> (String, String) {
    (render_table3(&t.0), render_table4(&t.1))
}

/// Whether every row covers its whole sample with fractions in `[0, 1]`.
fn well_formed(specs3: &[DatasetSpec], specs4: &[DatasetSpec], t: &Tables, cap: u64) -> bool {
    let unit = |x: f64| (0.0..=1.0).contains(&x);
    t.0.len() == specs3.len()
        && t.1.len() == specs4.len()
        && t.0
            .iter()
            .zip(specs3)
            .all(|(r, s)| r.sample_size == s.sample_size(cap) && unit(r.hijack) && unit(r.saddns) && unit(r.frag))
        && t.1.iter().zip(specs4).all(|(r, s)| {
            r.sample_size == s.sample_size(cap)
                && [r.hijack, r.saddns, r.frag_any, r.frag_global, r.dnssec].into_iter().all(unit)
        })
}

/// Runs the workload for `seconds` of wall time, whole passes, at least two.
/// Returns the run and pass 0's tables.
pub fn run(seed: u64, seconds: f64, trace: bool, cal: &mut Calibration) -> (WorkloadRun, Tables) {
    let mut w = WorkloadRun::new("classify", "profiles", trace);
    let started = Instant::now();
    let mut pass = 0u64;
    let mut pass0 = (Vec::new(), Vec::new());
    let (mut specs3, mut specs4) = (Vec::new(), Vec::new());
    while pass < 2 || started.elapsed().as_secs_f64() < seconds {
        let traced = w.begin_pass(pass);
        let mark = cal.mark();
        // The program's whole set-up for a classification campaign is
        // building the dataset specs; everything else happens inside the
        // timed calls. It takes about a tenth of a microsecond, so it is
        // timed several times before every pass and calibrated by that
        // pass's kernel samples, which spreads the samples over the run.
        let mut setup = Vec::with_capacity(SETUP_REPS);
        w.tracer.span("setup", |_| {
            for _ in 0..SETUP_REPS {
                let t0 = Instant::now();
                (specs3, specs4) = (table3_datasets(), table4_datasets());
                setup.push(t0.elapsed().as_secs_f64());
            }
        });
        let per_pass = profiles(&specs3, &specs4, FULL_CAP);
        let cfg = CampaignConfig::new(pass_seed(seed, pass), FULL_CAP);
        let a0 = Allocs::now();
        let mut secs = 0.0;
        let tables = w.tracer.span("classify", |tr| run_pass(&specs3, &specs4, &cfg, tr, Some(&mut *cal), &mut secs));
        let allocs = a0.since();
        let ok = well_formed(&specs3, &specs4, &tables, FULL_CAP);
        w.checks.push(Check::pass(pass, "every dataset fully classified", ok));
        w.acct.record_batch(per_pass, ok);
        w.add_pass(traced, per_pass, secs);
        if !traced {
            let slowness = cal.slowness_since(mark);
            w.setup_samples.extend(setup.iter().map(|h| h / slowness));
        }
        if pass == 0 {
            w.pass0_allocs = allocs;
            w.pass0_ops = per_pass;
            let (a, b) = render(&tables);
            w.digest = digest(&format!("{a}{b}"));
            pass0 = tables;
        }
        pass += 1;
    }
    w.sizes.push(format!(
        "classify: {} resolver + {} domain datasets at their reported sizes = {} profiles per pass; \
         {pass} passes; set-up = building the dataset specs, {SETUP_REPS} times per pass",
        specs3.len(),
        specs4.len(),
        profiles(&specs3, &specs4, FULL_CAP),
    ));
    (w, pass0)
}

/// Untimed check: pass 0 equals the public table entry points at two
/// workers (thread-count invariance of the sharded campaign).
pub fn check_parallel(seed: u64, pass0: &Tables, w: &mut WorkloadRun) {
    let cfg = CampaignConfig::new(pass_seed(seed, 0), FULL_CAP).with_workers(2);
    let again = (run_table3_with(&cfg), run_table4_with(&cfg));
    w.checks.push(Check::new("pass 0 equals run_table3_with/run_table4_with at workers=2", &again == pass0));
}
