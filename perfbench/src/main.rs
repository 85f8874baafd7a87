//! `perfbench`: the end-to-end and per-layer benchmark of the cross-layer
//! attack simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <farm-hit|farm-miss|matrix|classify> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Run from the repository root. One run measures one workload for `S`
//! seconds of wall time (whole passes), checks its outputs, and prints a
//! report followed, as the last line, by one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` passes alternate
//! between untraced and traced (the difference is the tracing overhead), the
//! report lists every recorded span as a `# span` JSON line, and the metrics
//! are the per-layer ones. See `perfbench/README.md`.

mod alloc;
mod classify;
mod clock;
mod farm;
mod host;
mod layers;
mod matrix;
mod stats;
mod trace;
mod workload;

use clock::{Calibration, Kernel};
use std::fmt::Write as _;
use workload::{Check, WorkloadRun};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["farm-hit", "farm-miss", "matrix", "classify"];

/// End-to-end metrics every `--trace 0` run reports.
const END_TO_END: [&str; 3] = ["ops_per_s", "setup_s", "peak_rss_mb"];

/// Workload-level per-layer metrics reported next to [`layers::NAMES`].
const WORKLOAD_LAYER: [&str; 4] =
    ["workload.trace_overhead_pct", "workload.allocs_per_op", "workload.alloc_bytes_per_op", "host.slowness"];

/// Seed and sample cap of the golden fixtures.
const GOLDEN_SEED: u64 = 2021;
const GOLDEN_CAP: u64 = 5_000;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(*WORKLOADS.iter().find(|w| **w == v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

/// The last line of a run.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(valid_name(&m.name), "invalid metric name {}", m.name);
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn golden(name: &str) -> Option<String> {
    std::fs::read_to_string(format!("tests/golden/{name}.txt")).ok()
}

fn golden_check(name: &str, rendered: &str) -> Check {
    Check::new(
        format!("output equals tests/golden/{name}.txt at seed {GOLDEN_SEED}"),
        golden(name).as_deref() == Some(rendered),
    )
}

/// Runs the workload, then its untimed checks. Returns the run and the
/// peak RSS of the timed phase, without the calibration kernel's buffer.
fn run_workload(args: &Args, cal: &mut Calibration) -> (WorkloadRun, f64) {
    let kernel_mb = cal.buffer_bytes() as f64 / (1024.0 * 1024.0);
    let peak_rss_mb = || host::peak_rss_mb() - kernel_mb;
    match args.workload {
        "farm-hit" | "farm-miss" => {
            let shape = if args.workload == "farm-hit" { farm::FARM_HIT } else { farm::FARM_MISS };
            let (mut w, (seed0, stats0)) = farm::run(shape, args.seed, args.seconds, args.trace, cal);
            let rss = peak_rss_mb();
            farm::check_campaign_equivalence(shape, &mut w, seed0, &stats0);
            (w, rss)
        }
        "matrix" => {
            let (mut w, cells, pass0) = matrix::run(args.seed, args.seconds, args.trace, cal);
            let rss = peak_rss_mb();
            matrix::check_pass0(&cells, workload::pass_seed(args.seed, 0), &pass0, &mut w);
            w.checks.push(golden_check("scenario_matrix", &matrix::render_campaigns(GOLDEN_SEED)));
            (w, rss)
        }
        "classify" => {
            let (mut w, pass0) = classify::run(args.seed, args.seconds, args.trace, cal);
            let rss = peak_rss_mb();
            classify::check_parallel(args.seed, &pass0, &mut w);
            let (specs3, specs4) = (xlayer_core::prelude::table3_datasets(), xlayer_core::prelude::table4_datasets());
            let cfg = xlayer_core::prelude::CampaignConfig::new(GOLDEN_SEED, GOLDEN_CAP);
            let tables = classify::run_pass(&specs3, &specs4, &cfg, &mut trace::Tracer::new(false, 0), None, &mut 0.0);
            let (t3, t4) = classify::render(&tables);
            w.checks.push(golden_check("table3", &t3));
            w.checks.push(golden_check("table4", &t4));
            (w, rss)
        }
        other => unreachable!("workload {other} was validated by parse_args"),
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <{}> --seed N --seconds S --trace <0|1>", WORKLOADS.join("|"));
            std::process::exit(2);
        }
    };
    let record = host::RunRecord::collect();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let _ = writeln!(
        report,
        "# host cpu=\"{}\" nproc={} rustc=\"{}\" commit={} source_digest={}",
        record.cpu, record.nproc, record.rustc, record.commit, record.source_digest
    );

    let kernel = if args.workload == "classify" { Kernel::Stream } else { Kernel::Scatter };
    let mut cal = Calibration::new(kernel);
    let (w, peak_rss) = run_workload(&args, &mut cal);
    let layer = args.trace.then(|| {
        let mut net_cal = Calibration::new(Kernel::Scatter);
        let (metrics, pop_cal) = layers::measure(args.seed, &mut net_cal);
        (metrics, net_cal, pop_cal)
    });

    let slowness = cal.slowness();
    let _ = writeln!(
        report,
        "# calibration: {:?} kernel {:.3} ms mean over {} samples (fastest {:.3} ms), nominal {:.3} ms, \
         slowness {slowness:.4}; calibrated times are host times divided by the slowness",
        cal.kernel(),
        slowness * cal.kernel().nominal_s() * 1e3,
        cal.count(),
        cal.fastest() * 1e3,
        cal.kernel().nominal_s() * 1e3
    );
    for line in &w.sizes {
        let _ = writeln!(report, "# size {line}");
    }
    let correct = w.correct();
    let acct = w.accounting();
    for c in &w.checks {
        let _ = writeln!(report, "# check {}: {}", if c.ok { "ok" } else { "FAILED" }, c.what);
    }
    let _ = writeln!(report, "# digest {} seed={} pass0={:016x}", w.name, args.seed, w.digest);

    let mut metrics = Vec::new();
    if !args.trace {
        let (ops_per_s, per_pass) = w.ops_per_s(&cal);
        let (ops, host_s) = w.untraced_totals();
        let setup = stats::Summary::of(&w.setup_samples).expect("set-up is sampled");
        let summary = |s: Option<stats::Summary>| {
            s.map_or_else(String::new, |s| {
                format!(" (per pass: median {:.1} q1 {:.1} q3 {:.1} n={})", s.median, s.q1, s.q3, s.n)
            })
        };
        let _ = writeln!(
            report,
            "# e2e {} {ops_per_s:.1} 1/s{}; host-time rate {:.1} 1/s",
            w.rate_name(),
            summary(per_pass),
            ops as f64 / host_s
        );
        if w.packets > 0 {
            let _ = writeln!(report, "# e2e packets_per_s {:.1} 1/s", w.packets as f64 / cal.calibrate(host_s));
        }
        let setup_s = setup.median;
        let _ = writeln!(
            report,
            "# e2e setup_s {setup_s:.4e} s (median of n={}, q1 {:.4e} q3 {:.4e})",
            setup.n, setup.q1, setup.q3
        );
        let _ = writeln!(
            report,
            "# e2e peak_rss_mb {peak_rss:.2} MB (VmHWM less the {:.2} MB calibration buffer)",
            cal.buffer_bytes() as f64 / (1024.0 * 1024.0)
        );
        let _ = writeln!(
            report,
            "# e2e failed_ratio {} ({} of {} {})",
            acct.failed_ratio(),
            acct.failed,
            acct.attempted,
            w.op_name
        );
        for (name, (unit, value)) in END_TO_END.into_iter().zip([("1/s", ops_per_s), ("s", setup_s), ("MB", peak_rss)])
        {
            metrics.push(Metric { name: name.into(), unit, value });
        }
    }
    if let Some((layer, net_cal, pop_cal)) = layer {
        for record in w.tracer.records() {
            let _ = writeln!(report, "# span {record}");
        }
        for (name, (total, own, count)) in trace::by_name(w.tracer.spans()) {
            let _ = writeln!(
                report,
                "# span-total {name}: {count} spans, total {:.3} ms, self {:.3} ms",
                cal.calibrate(total as f64 / 1e6),
                cal.calibrate(own as f64 / 1e6)
            );
        }
        let overhead = w.trace_overhead_pct().unwrap_or(0.0);
        let ops0 = w.pass0_ops.max(1) as f64;
        let workload_layer = [
            (WORKLOAD_LAYER[0], "%", overhead),
            (WORKLOAD_LAYER[1], "count", w.pass0_allocs.count as f64 / ops0),
            (WORKLOAD_LAYER[2], "B", w.pass0_allocs.bytes as f64 / ops0),
            (WORKLOAD_LAYER[3], "ratio", net_cal.slowness()),
        ];
        for (name, unit, value) in workload_layer {
            metrics.push(Metric { name: name.into(), unit, value });
        }
        let _ = writeln!(
            report,
            "# calibration of the per-layer suite: {:?} kernel slowness {:.4}, {:?} kernel slowness {:.4}",
            net_cal.kernel(),
            net_cal.slowness(),
            pop_cal.kernel(),
            pop_cal.slowness()
        );
        let measured: Vec<&str> = layer.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(measured, layers::NAMES, "the suite measures exactly the declared per-layer metrics");
        for m in layer {
            let value = match m.time {
                Some(Kernel::Scatter) => net_cal.calibrate(m.value),
                Some(Kernel::Stream) => pop_cal.calibrate(m.value),
                None => m.value,
            };
            metrics.push(Metric { name: m.name, unit: m.unit, value });
        }
        for m in &metrics {
            let _ = writeln!(report, "# layer {} {} {}", m.name, m.value, m.unit);
        }
    }
    print!("{report}");
    println!("{}", result_json(correct, acct.attempted, acct.failed, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_use_the_allowed_alphabet_once() {
        let all: Vec<&str> = END_TO_END.iter().chain(&WORKLOAD_LAYER).chain(layers::NAMES).copied().collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let unique: std::collections::BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "every metric name is used once");
        for bad in ["", ".lead", "has space", "slash/x", "quote\"", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn benchmark_json_declares_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = doc.matches("\"name\":").count();
        let metrics: Vec<&str> = END_TO_END.iter().chain(&WORKLOAD_LAYER).chain(layers::NAMES).copied().collect();
        for name in &metrics {
            assert!(doc.contains(&format!("\"name\": \"{name}\"")), "{name} is not declared");
        }
        assert_eq!(
            declared,
            metrics.len() + WORKLOADS.len(),
            "BENCHMARK.json declares only these metrics and workloads"
        );
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let m = [Metric { name: "ops_per_s".into(), unit: "1/s", value: 1.25 }];
        assert_eq!(
            result_json(true, 10, 0, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"ops_per_s\": {\"value\": 1.25, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let ok = parse("--workload matrix --seed 3 --seconds 10 --trace 1").expect("valid");
        assert_eq!((ok.workload, ok.seed, ok.seconds, ok.trace), ("matrix", 3, 10.0, true));
        assert!(parse("--workload nope --seed 3 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload matrix --seed 3 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload matrix --seed 3 --trace 0").is_err());
        assert!(parse("--workload matrix --seed x --seconds 10 --trace 0").is_err());
    }
}
