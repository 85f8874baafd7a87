//! What every workload returns: timed passes, set-up samples, the failure
//! accounting, output checks and the behaviour digest.

use crate::alloc::Allocs;
use crate::clock::Calibration;
use crate::stats::Summary;
use crate::trace::Tracer;
use xlayer_core::prelude::derive_seed;

/// Stream salt of the per-pass seeds the benchmark derives from `--seed`.
const PASS_SALT: u64 = 0xbe4c_4a11_2021_0001;

/// Seed of pass `pass` of a run started with `--seed seed`.
pub fn pass_seed(seed: u64, pass: u64) -> u64 {
    derive_seed(seed, PASS_SALT, pass)
}

/// One output check and whether it held.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub what: String,
    /// Whether it held.
    pub ok: bool,
    /// The pass it covers; `None` for a check of the whole run.
    pub pass: Option<u64>,
}

impl Check {
    /// A check of the whole run.
    pub fn new(what: impl Into<String>, ok: bool) -> Self {
        Check { what: what.into(), ok, pass: None }
    }

    /// A check of one pass, whose failure fails that pass's operations.
    pub fn pass(pass: u64, what: &str, ok: bool) -> Self {
        Check { what: format!("pass {pass}: {what}"), ok, pass: Some(pass) }
    }
}

/// Operations attempted and failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Accounting {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Accounting {
    /// Records `attempted` operations of which `failed` failed.
    pub fn record(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed.min(attempted);
    }

    /// Records a batch of `n` operations whose output check passed or not:
    /// a failed check fails the whole batch.
    pub fn record_batch(&mut self, n: u64, ok: bool) {
        self.record(n, if ok { 0 } else { n });
    }

    /// Failed operations over attempted ones (0 when nothing was attempted).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Host time of one timed pass.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// Whether spans were recorded during the pass.
    pub traced: bool,
    /// Operations completed.
    pub ops: u64,
    /// Host seconds inside the program's timed calls.
    pub run_s: f64,
}

/// The measurements and checks of one workload run.
pub struct WorkloadRun {
    /// Workload name.
    pub name: &'static str,
    /// What one operation is (`queries`, `simulations`, `profiles`).
    pub op_name: &'static str,
    /// Span recorder.
    pub tracer: Tracer,
    trace_mode: bool,
    /// Timed passes in order.
    pub passes: Vec<Pass>,
    /// Calibrated seconds of each set-up.
    pub setup_samples: Vec<f64>,
    /// Packets delivered in the timed calls (farms).
    pub packets: u64,
    /// Failure accounting.
    pub acct: Accounting,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Lines stating the workload's sizes and measured properties.
    pub sizes: Vec<String>,
    /// Digest of pass 0's simulated statistics.
    pub digest: u64,
    /// Allocations in pass 0's timed calls.
    pub pass0_allocs: Allocs,
    /// Operations of pass 0.
    pub pass0_ops: u64,
}

impl WorkloadRun {
    /// An empty run; `trace_mode` alternates traced and untraced passes.
    pub fn new(name: &'static str, op_name: &'static str, trace_mode: bool) -> Self {
        WorkloadRun {
            name,
            op_name,
            tracer: Tracer::new(false, std::process::id().into()),
            trace_mode,
            passes: Vec::new(),
            setup_samples: Vec::new(),
            packets: 0,
            acct: Accounting::default(),
            checks: Vec::new(),
            sizes: Vec::new(),
            digest: 0,
            pass0_allocs: Allocs::default(),
            pass0_ops: 0,
        }
    }

    /// Starts pass `pass`: in trace mode odd passes record spans. Returns
    /// whether this pass is traced.
    pub fn begin_pass(&mut self, pass: u64) -> bool {
        let traced = self.trace_mode && pass % 2 == 1;
        self.tracer.set_enabled(traced);
        traced
    }

    /// Records a finished pass.
    pub fn add_pass(&mut self, traced: bool, ops: u64, run_s: f64) {
        self.passes.push(Pass { traced, ops, run_s });
    }

    /// Switches span recording on for set-up in trace mode.
    pub fn trace_setup(&mut self) {
        self.tracer.set_enabled(self.trace_mode);
    }

    fn untraced(&self) -> impl Iterator<Item = &Pass> {
        self.passes.iter().filter(|p| !p.traced)
    }

    /// Operations and host seconds over the untraced passes.
    pub fn untraced_totals(&self) -> (u64, f64) {
        self.untraced().fold((0, 0.0), |(o, s), p| (o + p.ops, s + p.run_s))
    }

    /// Calibrated operations per second over the untraced passes (ratio of
    /// sums), and the summary of the per-pass rates.
    pub fn ops_per_s(&self, cal: &Calibration) -> (f64, Option<Summary>) {
        let (ops, secs) = self.untraced_totals();
        let rates: Vec<f64> = self.untraced().map(|p| p.ops as f64 / cal.calibrate(p.run_s)).collect();
        (ops as f64 / cal.calibrate(secs), Summary::of(&rates))
    }

    /// Traced over untraced host time per operation, minus one, in percent.
    pub fn trace_overhead_pct(&self) -> Option<f64> {
        let (uo, us) = self.untraced_totals();
        let (to, ts) = self.passes.iter().filter(|p| p.traced).fold((0u64, 0.0), |(o, s), p| (o + p.ops, s + p.run_s));
        (uo > 0 && to > 0).then(|| ((ts / to as f64) / (us / uo as f64) - 1.0) * 100.0)
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Operations attempted and failed: a failed check of the whole run
    /// fails every operation.
    pub fn accounting(&self) -> Accounting {
        let run_ok = self.checks.iter().filter(|c| c.pass.is_none()).all(|c| c.ok);
        let attempted = self.acct.attempted.max(1);
        Accounting { attempted, failed: if run_ok { self.acct.failed } else { attempted } }
    }

    /// The workload-specific name of its throughput in the report.
    pub fn rate_name(&self) -> &'static str {
        match self.op_name {
            "queries" => "queries_per_s",
            "simulations" => "sims_per_s",
            _ => "profiles_per_s",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_ratio_counts_failures_against_attempts() {
        let mut a = Accounting::default();
        assert_eq!(a.failed_ratio(), 0.0, "nothing attempted, nothing failed");
        a.record(1000, 0);
        a.record(1000, 10);
        assert_eq!((a.attempted, a.failed), (2000, 10));
        assert!((a.failed_ratio() - 0.005).abs() < 1e-15);
        a.record_batch(146, false);
        a.record_batch(146, true);
        assert_eq!((a.attempted, a.failed), (2292, 156));
        // More failures than attempts cannot be recorded.
        a.record(5, 9);
        assert_eq!((a.attempted, a.failed), (2297, 161));
    }

    #[test]
    fn a_failed_run_check_fails_every_operation() {
        let mut w = WorkloadRun::new("x", "ops", false);
        w.acct.record_batch(100, true);
        w.acct.record_batch(100, false);
        w.checks.push(Check::pass(1, "ok", false));
        assert_eq!(w.accounting(), Accounting { attempted: 200, failed: 100 }, "a failed pass fails its own batch");
        w.checks.push(Check::new("golden", false));
        assert_eq!(w.accounting(), Accounting { attempted: 200, failed: 200 });
        assert!(!w.correct());
    }

    #[test]
    fn trace_mode_alternates_passes() {
        let mut w = WorkloadRun::new("x", "ops", true);
        assert!(!w.begin_pass(0));
        assert!(w.begin_pass(1));
        assert!(!w.begin_pass(2));
        let mut plain = WorkloadRun::new("x", "ops", false);
        assert!(!plain.begin_pass(1));
    }

    #[test]
    fn overhead_compares_time_per_operation() {
        let mut w = WorkloadRun::new("x", "ops", true);
        w.add_pass(false, 100, 1.0);
        w.add_pass(true, 100, 1.1);
        w.add_pass(false, 200, 2.0);
        let pct = w.trace_overhead_pct().expect("both kinds of pass");
        assert!((pct - 10.0).abs() < 1e-9, "{pct}");
        assert_eq!(w.untraced_totals(), (300, 3.0));
    }

    #[test]
    fn pass_seeds_are_distinct_and_repeatable() {
        assert_eq!(pass_seed(3, 0), pass_seed(3, 0));
        assert_ne!(pass_seed(3, 0), pass_seed(3, 1));
        assert_ne!(pass_seed(3, 0), pass_seed(4, 0));
    }
}
