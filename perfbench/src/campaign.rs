//! The in-process campaign workloads (`paper-quick`, `attack-traced`), and
//! the run-level and tick-level passes every traced run uses to time the
//! campaign, run and tick layers from outside.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use imufit::core::{Campaign, CampaignConfig, CampaignResults, ExperimentRecord, ExperimentSpec};
use imufit::scenario::ScenarioSpec;
use imufit::uav::{FlightSimulator, VehicleBuilder};
use imufit_obs::profile;

use crate::checks::Gold;
use crate::report::Report;
use crate::{checks, replay, serve, stats, sys, Args, THREADS};

/// In-process set-up repetitions per CPU whose median goes into
/// `setup_s`: one set-up takes ~15 µs, so many are needed for a steady
/// median.
const SETUP_REPS: usize = 201;

/// The workload's scenario: a preset with the seed applied and the
/// campaign pinned to [`THREADS`] workers.
fn scenario(workload: &str, seed: u64) -> ScenarioSpec {
    let preset = match workload {
        "paper-quick" => "quick",
        _ => "attack-sweep",
    };
    let mut spec = ScenarioSpec::preset(preset).expect("preset exists");
    spec.campaign.seed = seed;
    spec.campaign.threads = THREADS;
    if preset == "attack-sweep" {
        spec.trace.enabled = true;
    }
    spec.validate().expect("preset with a seed stays valid");
    spec
}

/// One set-up: scenario validation, campaign configuration, the experiment
/// matrix and the first vehicle, as `Campaign::run` pays before its first
/// run.
fn setup_once(spec: &ScenarioSpec) -> Duration {
    let t = Instant::now();
    spec.validate().expect("scenario is valid");
    let config = CampaignConfig::from_scenario(spec);
    let matrix = config.matrix();
    let vehicle = Campaign::build_vehicle(&config, &matrix[0]).expect("first vehicle builds");
    std::hint::black_box((&vehicle, &matrix));
    t.elapsed()
}

/// The median of [`SETUP_REPS`] in-process set-ups on each CPU, averaged
/// over the CPUs, seconds. On a shared host the CPUs need not be equally
/// fast (on a 2-vCPU VM one ran set-ups at 13 µs, the other at 18–19 µs),
/// so a median taken on whichever CPU the thread happened to start on
/// would jump between the two from run to run.
fn setup_seconds(spec: &ScenarioSpec) -> f64 {
    let medians = sys::on_each_cpu(|| {
        let reps: Vec<f64> = (0..SETUP_REPS)
            .map(|_| setup_once(spec).as_secs_f64())
            .collect();
        stats::median(&reps)
    });
    stats::mean(&medians)
}

/// The untraced workload: whole `Campaign::run` passes until `--seconds`
/// have passed, then the output checks.
pub fn workload(args: &Args) -> Report {
    let mut report = Report::default();
    let attack = args.workload == "attack-traced";
    let spec = scenario(&args.workload, args.seed);
    report.metric("setup_s", setup_seconds(&spec), "s");

    let config = CampaignConfig::from_scenario(&spec);
    let rows = config.matrix().len();
    let mut walls = Vec::new();
    let mut csvs = Vec::new();
    let mut box_dirs = Vec::new();
    let cpu0 = sys::process_cpu();
    let start = Instant::now();
    loop {
        let mut pass = config.clone();
        if attack {
            let dir = args.scratch.join(format!("boxes-{}", walls.len()));
            pass.trace_dir = Some(dir.clone());
            box_dirs.push(dir);
        }
        let t = Instant::now();
        let csv = Campaign::new(pass).run().to_csv();
        walls.push(t.elapsed().as_secs_f64());
        csvs.push(csv);
        if start.elapsed() >= args.seconds {
            break;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let cpu = (sys::process_cpu() - cpu0).as_secs_f64();
    let runs = rows * walls.len();

    check_campaign(&mut report, &args.workload, args.seed, &csvs[0], rows);
    for (i, csv) in csvs.iter().enumerate().skip(1) {
        report.fail_all(checks::identical(
            &format!("pass {i} CSV vs pass 0"),
            &csvs[0],
            csv,
        ));
    }
    for dir in &box_dirs {
        check_boxes(&mut report, dir, rows, None);
    }
    if attack {
        check_untraced_reference(&mut report, &config, &csvs[0]);
    }
    let aborted = csvs
        .iter()
        .map(|csv| csv.lines().filter(|l| l.contains(",aborted,")).count())
        .sum::<usize>();

    report.attempted = runs as u64;
    report.failed = aborted as u64;
    report.metric("runs_per_s", runs as f64 / wall, "runs/s");
    report.metric("cpu_ms_per_run", cpu * 1e3 / runs as f64, "ms");
    report.metric("ok_share", 1.0 - aborted as f64 / runs as f64, "ratio");
    report.metric("turnaround_mean_s", stats::mean(&walls), "s");
    report
}

/// Row-count and abort checks. On `paper-quick` every gold run must
/// complete; at the paper seed, where the committed results show it, also
/// without an inner-bubble violation, and mission 0 must match the golden
/// fixture. (At other seeds a gold run may brush the inner bubble: seed
/// 207 completes mission 1's gold run with 3 inner violations. Gold runs
/// of `attack-traced` fly with innovation monitors on and are not checked.)
fn check_campaign(report: &mut Report, workload: &str, seed: u64, csv: &str, rows: usize) {
    let paper_seed = seed == checks::GOLDEN_SEED;
    let gold = match (workload, paper_seed) {
        ("paper-quick", true) => Gold::Clean,
        ("paper-quick", false) => Gold::Completed,
        _ => Gold::Any,
    };
    report.fail_all(checks::campaign_csv(workload, csv, rows, gold));
    if workload == "paper-quick" && paper_seed {
        report.fail_all(checks::golden_rows(csv));
    }
}

/// Tracing must not change results: the traced CSV equals an untraced
/// run of the same scenario (computed outside the timed section).
fn check_untraced_reference(report: &mut Report, config: &CampaignConfig, traced_csv: &str) {
    let mut untraced = config.clone();
    untraced.trace = Default::default();
    untraced.trace_dir = None;
    let reference = Campaign::new(untraced).run().to_csv();
    report.fail_all(checks::identical(
        "traced CSV vs untraced run",
        &reference,
        traced_csv,
    ));
}

/// One black box per run in `dir`, each passing a strict decode. Returns
/// the file sizes; with `decode_ns`, also times every decode.
fn check_boxes(
    report: &mut Report,
    dir: &Path,
    runs: usize,
    mut decode_ns: Option<&mut Vec<f64>>,
) -> Vec<usize> {
    let files = checks::box_files(dir);
    report.check(files.len() == runs, || {
        format!(
            "{}: {} black boxes for {runs} runs",
            dir.display(),
            files.len()
        )
    });
    let mut sizes = Vec::new();
    for file in files {
        let bytes = std::fs::read(&file).unwrap_or_default();
        let t = Instant::now();
        let failures = checks::black_box(&file.display().to_string(), &bytes);
        if let Some(samples) = decode_ns.as_deref_mut() {
            samples.push(t.elapsed().as_nanos() as f64);
        }
        report.fail_all(failures);
        sizes.push(bytes.len());
    }
    sizes
}

/// One experiment of one campaign configuration.
#[derive(Debug, Clone, Copy)]
pub struct Item {
    /// Index into the configuration list.
    pub config: usize,
    /// The experiment.
    pub spec: ExperimentSpec,
}

/// Every experiment of every configuration, in matrix order.
pub fn items(configs: &[CampaignConfig]) -> Vec<Item> {
    configs
        .iter()
        .enumerate()
        .flat_map(|(c, config)| {
            config
                .matrix()
                .into_iter()
                .map(move |spec| Item { config: c, spec })
        })
        .collect()
}

/// Per-configuration CSVs from records in item order.
fn assemble(configs: usize, items: &[Item], records: Vec<ExperimentRecord>) -> Vec<String> {
    let mut grouped: Vec<Vec<ExperimentRecord>> = vec![Vec::new(); configs];
    for (item, record) in items.iter().zip(records) {
        grouped[item.config].push(record);
    }
    grouped
        .into_iter()
        .map(|records| CampaignResults::from_records(records).to_csv())
        .collect()
}

/// One run's span on a pass's worker.
#[derive(Debug, Clone, Copy)]
pub struct RunSpan {
    worker: usize,
    item: usize,
    start_us: u64,
    end_us: u64,
    ticks: u64,
}

/// The run-level pass: [`THREADS`] workers pull experiments off a shared
/// cursor and time each `Campaign::run_experiment_isolated_into` call.
pub struct RunPass {
    /// One CSV per configuration.
    pub csvs: Vec<String>,
    /// Wall time of each run, ms.
    pub run_ms: Vec<f64>,
    /// Worker time outside any run over total worker time.
    pub idle_share: f64,
    /// Pass wall time.
    pub wall: Duration,
    spans: Vec<RunSpan>,
}

/// Runs `items` at run-level tracing.
pub fn run_level(configs: &[CampaignConfig], items: &[Item]) -> RunPass {
    let next = AtomicUsize::new(0);
    let records: Mutex<Vec<Option<ExperimentRecord>>> = Mutex::new(vec![None; items.len()]);
    let start = Instant::now();
    let per_worker: Vec<Vec<RunSpan>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|worker| {
                let (next, records) = (&next, &records);
                scope.spawn(move || {
                    let mut slot = None;
                    let mut spans = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        let t = Instant::now();
                        let record = Campaign::run_experiment_isolated_into(
                            &configs[item.config],
                            item.spec,
                            &mut slot,
                        );
                        spans.push(RunSpan {
                            worker,
                            item: i,
                            start_us: (t - start).as_micros() as u64,
                            end_us: start.elapsed().as_micros() as u64,
                            ticks: 0,
                        });
                        records.lock().expect("no worker panics holding the lock")[i] =
                            Some(record);
                    }
                    spans
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("run-level worker"))
            .collect()
    });
    let wall = start.elapsed();
    let spans: Vec<RunSpan> = per_worker.into_iter().flatten().collect();
    let busy_us: u64 = spans.iter().map(|s| s.end_us - s.start_us).sum();
    let total_us = wall.as_micros() as f64 * THREADS as f64;
    let records = records
        .into_inner()
        .expect("workers joined")
        .into_iter()
        .map(|r| r.expect("every item ran"))
        .collect();
    RunPass {
        csvs: assemble(configs.len(), items, records),
        run_ms: spans
            .iter()
            .map(|s| (s.end_us - s.start_us) as f64 / 1e3)
            .collect(),
        idle_share: 1.0 - busy_us as f64 / total_us,
        wall,
        spans,
    }
}

/// What one tick-level worker measured.
#[derive(Default)]
struct TickCounts {
    ticks: u64,
    prefix_ticks: u64,
    allocs: u64,
    tick_ns: Vec<u32>,
    build_ns: Vec<f64>,
    take_box_ns: Vec<f64>,
    box_bytes: Vec<usize>,
    spans: Vec<RunSpan>,
}

/// The tick-level pass: every `FlightSimulator::step` timed and its
/// allocations counted, the stage profiler at period 1.
pub struct TickPass {
    /// One CSV per configuration.
    pub csvs: Vec<String>,
    /// Ticks that advanced simulated time.
    pub ticks: u64,
    /// Ticks of faulted or attacked runs that started before onset.
    pub prefix_ticks: u64,
    /// Heap allocations made inside `step()`.
    pub allocs: u64,
    /// Wall time of each tick, ns.
    pub tick_ns: Vec<u32>,
    /// Wall time of each `VehicleBuilder::build_into`, ns.
    pub build_ns: Vec<f64>,
    /// Wall time of each `FlightSimulator::take_black_box`, ns.
    pub take_box_ns: Vec<f64>,
    /// Sizes of the black boxes taken.
    pub box_bytes: Vec<usize>,
    /// Profiler self-time per stage, ns.
    pub stage_nanos: [u64; profile::STAGE_COUNT],
    /// Pass wall time.
    pub wall: Duration,
    spans: Vec<RunSpan>,
}

/// Runs `items` at tick-level tracing. Work is split round-robin, not
/// through a shared cursor, so each worker's recycled vehicle flies the
/// same runs every time and allocation counts repeat exactly. Black boxes
/// of traced configurations are written under `box_dir`.
pub fn tick_level(configs: &[CampaignConfig], items: &[Item], box_dir: &Path) -> TickPass {
    profile::reset();
    profile::set_sample_period(1);
    let records: Mutex<Vec<Option<ExperimentRecord>>> = Mutex::new(vec![None; items.len()]);
    let start = Instant::now();
    let per_worker: Vec<TickCounts> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|worker| {
                let records = &records;
                scope.spawn(move || {
                    let mut slot = None;
                    let mut counts = TickCounts::default();
                    for i in (worker..items.len()).step_by(THREADS) {
                        let t = Instant::now();
                        let ticks_before = counts.ticks;
                        let record =
                            stepped_run(configs, items[i], i, &mut slot, &mut counts, box_dir);
                        counts.spans.push(RunSpan {
                            worker,
                            item: i,
                            start_us: (t - start).as_micros() as u64,
                            end_us: start.elapsed().as_micros() as u64,
                            ticks: counts.ticks - ticks_before,
                        });
                        records.lock().expect("no worker panics holding the lock")[i] =
                            Some(record);
                    }
                    counts
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tick-level worker"))
            .collect()
    });
    let wall = start.elapsed();
    let stage_nanos = profile::stage_nanos();
    profile::set_sample_period(profile::DEFAULT_SAMPLE_PERIOD);
    let records = records
        .into_inner()
        .expect("workers joined")
        .into_iter()
        .map(|r| r.expect("every item ran"))
        .collect();
    let mut pass = TickPass {
        csvs: assemble(configs.len(), items, records),
        ticks: 0,
        prefix_ticks: 0,
        allocs: 0,
        tick_ns: Vec::new(),
        build_ns: Vec::new(),
        take_box_ns: Vec::new(),
        box_bytes: Vec::new(),
        stage_nanos,
        wall,
        spans: Vec::new(),
    };
    for c in per_worker {
        pass.ticks += c.ticks;
        pass.prefix_ticks += c.prefix_ticks;
        pass.allocs += c.allocs;
        pass.tick_ns.extend(c.tick_ns);
        pass.build_ns.extend(c.build_ns);
        pass.take_box_ns.extend(c.take_box_ns);
        pass.box_bytes.extend(c.box_bytes);
        pass.spans.extend(c.spans);
    }
    pass
}

/// One experiment flown tick by tick through the public simulator API;
/// the record must equal what `run_experiment_isolated_into` produces.
fn stepped_run(
    configs: &[CampaignConfig],
    item: Item,
    index: usize,
    slot: &mut Option<FlightSimulator>,
    counts: &mut TickCounts,
    box_dir: &Path,
) -> ExperimentRecord {
    let config = &configs[item.config];
    let spec = item.spec;
    let mission = &config.missions[spec.mission_index];
    let onset = spec
        .fault
        .map(|f| f.window.start)
        .or(spec.attack.map(|a| a.window.start));
    let flown = catch_unwind(AssertUnwindSafe(|| {
        let t = Instant::now();
        VehicleBuilder::new(
            mission,
            config.sim_config(mission, spec.derive_seed(config.seed)),
        )
        .with_faults(spec.fault.map(|f| vec![f]).unwrap_or_default())
        .with_attacks(spec.attack.map(|a| vec![a]).unwrap_or_default())
        .build_into(slot)
        .expect("campaign configurations build");
        counts.build_ns.push(t.elapsed().as_nanos() as f64);
        let sim = slot.as_mut().expect("build_into fills the slot");
        loop {
            let before = sim.time();
            let allocs = crate::alloc::thread_allocs();
            let t = Instant::now();
            sim.step();
            let ns = t.elapsed().as_nanos();
            let allocs = crate::alloc::thread_allocs() - allocs;
            if sim.time() == before {
                break;
            }
            counts.ticks += 1;
            counts.allocs += allocs;
            counts.tick_ns.push(ns.min(u32::MAX as u128) as u32);
            if onset.is_some_and(|onset| before < onset) {
                counts.prefix_ticks += 1;
            }
        }
        let summary = sim.run_summary();
        if config.trace.enabled {
            let t = Instant::now();
            let taken = sim.take_black_box(&format!("item={index} seed={}", config.seed));
            counts.take_box_ns.push(t.elapsed().as_nanos() as f64);
            if let Some(bytes) = taken {
                counts.box_bytes.push(bytes.len());
                let _ = std::fs::write(box_dir.join(format!("{index}.ifbb")), bytes);
            }
        }
        summary
    }));
    match flown {
        Ok(summary) => Campaign::record_from_summary(config, spec, &summary),
        Err(_) => {
            *slot = None;
            Campaign::aborted_record_for(config, spec)
        }
    }
}

/// Black boxes sealed in a traced run: the workload's own plus the
/// replay flight's.
#[derive(Default)]
pub struct BoxStats {
    /// Box sizes, bytes.
    pub sizes: Vec<usize>,
    /// `take_black_box` times, ns.
    pub take_ns: Vec<f64>,
    /// Strict decode times, ns.
    pub decode_ns: Vec<f64>,
}

impl BoxStats {
    /// Reports the `trace.*` metrics.
    pub fn report(&self, report: &mut Report) {
        report.metric("trace.boxes", self.sizes.len() as f64, "count");
        report.metric(
            "trace.bytes",
            self.sizes.iter().sum::<usize>() as f64,
            "bytes",
        );
        report.metric(
            "trace.take_box_us_p50",
            stats::median(&self.take_ns) / 1e3,
            "us",
        );
        report.metric(
            "trace.decode_us_p50",
            stats::median(&self.decode_ns) / 1e3,
            "us",
        );
    }
}

/// The `core.*`, `uav.*`, stage-share and overhead metrics of one pair of
/// passes over the same experiments; their CSVs must agree.
pub fn layer_metrics(report: &mut Report, a: &RunPass, b: &mut TickPass) {
    for (i, (x, y)) in a.csvs.iter().zip(&b.csvs).enumerate() {
        report.fail_all(checks::identical(
            &format!("campaign {i}: stepped CSV vs run_experiment_isolated_into"),
            x,
            y,
        ));
    }
    report.metric("core.run_ms_p50", stats::q(&a.run_ms, 0.5), "ms");
    report.metric("core.run_ms_p90", stats::q(&a.run_ms, 0.9), "ms");
    report.metric("core.worker_idle_share", a.idle_share, "ratio");
    report.metric("uav.ticks", b.ticks as f64, "count");
    report.metric(
        "uav.prefix_tick_share",
        b.prefix_ticks as f64 / b.ticks.max(1) as f64,
        "ratio",
    );
    let tick_p50 = stats::quantile(&mut b.tick_ns, 0.5).unwrap_or(0);
    let tick_p99 = stats::quantile(&mut b.tick_ns, 0.99).unwrap_or(0);
    report.metric("uav.tick_ns_p50", tick_p50 as f64, "ns");
    report.metric("uav.tick_ns_p99", tick_p99 as f64, "ns");
    report.metric("uav.build_us_p50", stats::median(&b.build_ns) / 1e3, "us");
    report.metric(
        "uav.allocs_per_tick",
        b.allocs as f64 / b.ticks.max(1) as f64,
        "count",
    );
    let total: u64 = b.stage_nanos.iter().sum();
    for (name, nanos) in profile::STAGE_NAMES.iter().zip(b.stage_nanos) {
        report.metric(
            &format!("{name}.share"),
            nanos as f64 / total.max(1) as f64,
            "ratio",
        );
    }
    report.metric(
        "harness.trace_overhead_pct",
        (b.wall.as_secs_f64() / a.wall.as_secs_f64() - 1.0) * 100.0,
        "%",
    );
}

/// Writes the traced run's run spans, one JSON object per line, to
/// `.perfbench/spans/<workload>-<seed>.jsonl`.
pub fn write_spans(args: &Args, a: &RunPass, b: &TickPass, extra: &[String]) {
    let dir = PathBuf::from(".perfbench").join("spans");
    let mut out = String::new();
    for (pass, spans) in [("run", &a.spans), ("tick", &b.spans)] {
        for s in spans.iter() {
            out.push_str(&format!(
                "{{\"pass\": \"{pass}\", \"worker\": {}, \"item\": {}, \"start_us\": {}, \
                 \"end_us\": {}, \"ticks\": {}}}\n",
                s.worker, s.item, s.start_us, s.end_us, s.ticks
            ));
        }
    }
    for line in extra {
        out.push_str(line);
        out.push('\n');
    }
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(
            dir.join(format!("{}-{}.jsonl", args.workload, args.seed)),
            out,
        )
    });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write spans: {e}");
    }
}

/// `SubmissionRequest::parse` times over `bodies`, µs (20 parses each).
pub fn parse_us(bodies: &[String]) -> Vec<f64> {
    let mut samples = Vec::new();
    for body in bodies {
        for _ in 0..20 {
            let t = Instant::now();
            let parsed = imufit::scenario::SubmissionRequest::parse("tenant=alpha", body);
            samples.push(t.elapsed().as_nanos() as f64 / 1e3);
            assert!(parsed.is_ok(), "workload bodies parse");
        }
    }
    samples
}

/// The traced run of an in-process workload.
pub fn traced(args: &Args) -> Report {
    let mut report = Report::default();
    let attack = args.workload == "attack-traced";
    let spec = scenario(&args.workload, args.seed);
    let mut config = CampaignConfig::from_scenario(&spec);
    let rows = config.matrix().len();
    let dir_a = args.scratch.join("boxes-run");
    let dir_b = args.scratch.join("boxes-tick");
    if attack {
        // `Campaign::run` creates its trace directory; the per-run entry
        // point the run-level pass calls does not.
        for dir in [&dir_a, &dir_b] {
            std::fs::create_dir_all(dir).expect("scratch directory is writable");
        }
        config.trace_dir = Some(dir_a.clone());
    }
    let configs = [config];
    let items = items(&configs);
    let a = run_level(&configs, &items);
    report.metric("process.peak_rss_mb", sys::peak_rss_mib(), "MiB");
    let mut b = tick_level(&configs, &items, &dir_b);

    check_campaign(&mut report, &args.workload, args.seed, &a.csvs[0], rows);
    layer_metrics(&mut report, &a, &mut b);
    let mut boxes = BoxStats::default();
    if attack {
        boxes.sizes = check_boxes(&mut report, &dir_a, rows, Some(&mut boxes.decode_ns));
        check_boxes(&mut report, &dir_b, rows, None);
        check_untraced_reference(&mut report, &configs[0], &a.csvs[0]);
        boxes.take_ns = b.take_box_ns.clone();
    }
    replay::run(args.seed, &mut report, &mut boxes);
    boxes.report(&mut report);
    let toml = spec.to_toml();
    let parse = parse_us(&[serve::reorder_keys(&toml), toml]);
    report.metric("scenario.parse_us_p50", stats::median(&parse), "us");
    let requests = serve::probe(args, &mut report);
    write_spans(args, &a, &b, &requests);
    report.attempted = (rows * 2) as u64;
    report
}
