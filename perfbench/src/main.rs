//! The imufit campaign benchmark.
//!
//! ```text
//! perfbench --workload paper-quick|attack-traced|serve-tenants
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the workload runs untraced and the last line of
//! standard output is a JSON object with the end-to-end metrics; with
//! `--trace 1` the benchmark times every layer from outside (run and tick
//! spans, an allocation counter, the stage profiler at period 1, a kernel
//! replay of a captured gold flight) and reports the per-layer metrics.
//! Every run checks the program's outputs and exits 1 when a check fails.
//! See `perfbench/README.md` for why each workload and metric exists.

mod alloc;
mod campaign;
mod checks;
mod replay;
mod report;
mod serve;
mod stats;
mod sys;

use std::path::PathBuf;
use std::time::Duration;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The cargo features the benchmark builds the program with (the root
/// crate's defaults).
pub const FEATURES: &str = "imufit/default (obs, trace)";

/// Threads and connections the load may use: the benchmark machine's
/// `nproc`.
pub const THREADS: usize = 2;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("runs_per_s", "runs/s"),
    ("cpu_ms_per_run", "ms"),
    ("ok_share", "ratio"),
    ("turnaround_mean_s", "s"),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("process.peak_rss_mb", "MiB"),
    ("core.run_ms_p50", "ms"),
    ("core.run_ms_p90", "ms"),
    ("core.worker_idle_share", "ratio"),
    ("uav.ticks", "count"),
    ("uav.prefix_tick_share", "ratio"),
    ("uav.tick_ns_p50", "ns"),
    ("uav.tick_ns_p99", "ns"),
    ("uav.build_us_p50", "us"),
    ("uav.allocs_per_tick", "count"),
    ("env.share", "ratio"),
    ("sensors.share", "ratio"),
    ("faults.share", "ratio"),
    ("voter.share", "ratio"),
    ("estimator.share", "ratio"),
    ("controller.share", "ratio"),
    ("dynamics.share", "ratio"),
    ("bookkeeping.share", "ratio"),
    ("estimator.predict_ns_p50", "ns"),
    ("estimator.fuse_gps_ns_p50", "ns"),
    ("estimator.fuse_baro_ns_p50", "ns"),
    ("estimator.fuse_yaw_ns_p50", "ns"),
    ("sensors.sample_all_ns_p50", "ns"),
    ("mathkit.normal_ns", "ns"),
    ("voter.vote_ns_p50", "ns"),
    ("faults.apply_bank_ns_p50", "ns"),
    ("controller.update_ns_p50", "ns"),
    ("dynamics.step_ns_p50", "ns"),
    ("trace.boxes", "count"),
    ("trace.bytes", "bytes"),
    ("trace.take_box_us_p50", "us"),
    ("trace.decode_us_p50", "us"),
    ("scenario.parse_us_p50", "us"),
    ("serve.turnaround_p50_s", "s"),
    ("serve.cache_hit_p50_ms", "ms"),
    ("serve.http_p50_ms", "ms"),
    ("serve.http_p99_ms", "ms"),
    ("serve.submit_miss_ms_p50", "ms"),
    ("serve.submit_hit_ms_p50", "ms"),
    ("serve.status_ms_p50", "ms"),
    ("serve.status_ms_p99", "ms"),
    ("serve.results_ms_p50", "ms"),
    ("serve.slow_client_ms_p50", "ms"),
    ("fleet.dispatch_wait_ms_p50", "ms"),
    ("fleet.dispatch_per_unit", "ratio"),
    ("fleet.cache_hit_ratio", "ratio"),
    ("harness.trace_overhead_pct", "%"),
];

/// One benchmark invocation.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured time budget.
    pub seconds: Duration,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Scratch directory for stores, black boxes and span dumps, inside
    /// the checkout.
    pub scratch: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload paper-quick|attack-traced|serve-tenants \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !["paper-quick", "attack-traced", "serve-tenants"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let scratch = PathBuf::from(".perfbench").join(format!("{workload}-{}", std::process::id()));
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        scratch,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("perfbench: cannot create {}: {e}", args.scratch.display());
        std::process::exit(2);
    }
    let steal0 = sys::steal();
    let mut report = match (args.workload.as_str(), args.trace) {
        ("serve-tenants", false) => serve::workload(&args),
        ("serve-tenants", true) => serve::traced(&args),
        (_, false) => campaign::workload(&args),
        (_, true) => campaign::traced(&args),
    };
    let _ = std::fs::remove_dir_all(&args.scratch);

    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let line = report.result_line(names);
    for (name, unit) in names {
        if let Some(v) = report.value(name) {
            eprintln!("{:<28} {:>16.4} {unit}", name, v);
        }
    }
    // Time the hypervisor gave to other guests: wall-clock metrics of a
    // run with much steal read slow for reasons outside the program.
    eprintln!(
        "{:<28} {:>16.4} s",
        "(cpu steal during run)",
        (sys::steal() - steal0).as_secs_f64()
    );
    for failure in report.failures() {
        eprintln!("CHECK FAILED: {failure}");
    }
    println!(
        "# workload={} seed={} seconds={} trace={} fingerprint={}",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace),
        sys::fingerprint_json()
    );
    println!("{line}");
    if !report.failures().is_empty() {
        std::process::exit(1);
    }
}
