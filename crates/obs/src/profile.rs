//! Tick-stage statistical profiler: where the simulated tick's wall-clock
//! actually goes.
//!
//! The tick pipeline is stage-major (sensors → faults → voter → estimator
//! → controller → dynamics); this module samples every Nth tick per thread
//! (default [`DEFAULT_SAMPLE_PERIOD`]) and, on sampled ticks only,
//! timestamps each stage seam. Unsampled ticks pay one thread-local
//! counter increment and a branch, which is what is meant to keep the
//! profiler cheap enough to leave on. That cost is not measured yet: the
//! `sim/profiled_tick`/`sim/unprofiled_tick` bench pair links this crate
//! without `enabled`, so both benches run the same no-op profiler.
//!
//! Because one `Instant::now()` closes a stage and opens the next, the
//! per-stage self-times tile the sampled tick exactly: the accounted
//! fraction ([`accounted_fraction`]) answers "EKF predict is N% of the
//! tick" with data. [`folded`] renders the totals as folded-stack lines
//! (`tick;estimator 123456`) for flamegraph tooling.
//!
//! The profiler is also the only source of the tick latency histograms
//! `/metrics` exports: when a sampled tick closes, each stage's self-time
//! is observed into its [`STAGE_HISTOGRAMS`] entry and the whole tick into
//! [`TICK_HISTOGRAM`]. Their counts therefore grow by one per *sampled*
//! tick (1 in 64 by default), and their quantiles — `tick_p99_us` among
//! them — estimate the distribution over a uniform sample of ticks.
//!
//! Like every obs facility the profiler is write-only with respect to the
//! simulation — it reads clocks and writes its own atomics, never
//! simulation state or RNG streams — and compiles to zero-sized no-ops
//! without the `enabled` feature.

/// One stage of the vehicle tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Clock advance + wind field step.
    Env = 0,
    /// Body-truth read + IMU bank sampling (and aiding-sensor cadences).
    Sensors = 1,
    /// IMU fault bank injection + sensor-attack schedules.
    Faults = 2,
    /// Consensus voter pass.
    Voter = 3,
    /// Estimator predict + sensor fusion.
    Estimator = 4,
    /// Mitigation, cascade and controller update.
    Controller = 5,
    /// Rigid-body dynamics step.
    Dynamics = 6,
    /// Tracking, conflict bookkeeping and end-of-flight classification.
    Bookkeeping = 7,
}

/// Number of stages in [`Stage`].
pub const STAGE_COUNT: usize = 8;

/// Stage names, indexed by `Stage as usize` (folded-stack frame names).
pub const STAGE_NAMES: [&str; STAGE_COUNT] = [
    "env",
    "sensors",
    "faults",
    "voter",
    "estimator",
    "controller",
    "dynamics",
    "bookkeeping",
];

/// Histogram each stage's sampled self-time is observed into, indexed by
/// `Stage as usize`. The names are those of the per-tick span timers the
/// profiler replaced, so `/metrics`, alert selectors and `triage metrics`
/// read the same series.
pub const STAGE_HISTOGRAMS: [&str; STAGE_COUNT] = [
    "sim_stage_env_seconds",
    "sim_stage_sensors_seconds",
    "fault_injector_seconds",
    "sim_stage_voter_seconds",
    "ekf_update_seconds",
    "sim_stage_control_seconds",
    "sim_stage_dynamics_seconds",
    "sim_stage_bookkeeping_seconds",
];

/// Histogram of whole sampled ticks (the `tick_p99_us` alert selector).
pub const TICK_HISTOGRAM: &str = "sim_tick_seconds";

/// Default sampling period: one tick in 64 is timed.
pub const DEFAULT_SAMPLE_PERIOD: u64 = 64;

#[cfg(feature = "enabled")]
mod real {
    use super::{
        Stage, DEFAULT_SAMPLE_PERIOD, STAGE_COUNT, STAGE_HISTOGRAMS, STAGE_NAMES, TICK_HISTOGRAM,
    };
    use crate::Histogram;
    use std::cell::Cell;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::OnceLock;
    use std::time::Instant;

    static ENABLED: AtomicBool = AtomicBool::new(true);
    static SAMPLE_PERIOD: AtomicU64 = AtomicU64::new(DEFAULT_SAMPLE_PERIOD);
    static STAGE_NANOS: [AtomicU64; STAGE_COUNT] = [
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
    ];
    static SAMPLED_TICK_NANOS: AtomicU64 = AtomicU64::new(0);
    static SAMPLED_TICKS: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        static TICK_COUNTER: Cell<u64> = const { Cell::new(0) };
    }

    /// Registry handles for the tick and stage histograms, resolved on the
    /// first sampled tick so the hot path never touches the registry.
    struct Histograms {
        tick: Histogram,
        stages: [Histogram; STAGE_COUNT],
    }

    fn histograms() -> &'static Histograms {
        static HISTOGRAMS: OnceLock<Histograms> = OnceLock::new();
        HISTOGRAMS.get_or_init(|| Histograms {
            tick: crate::histogram(TICK_HISTOGRAM, crate::buckets::LATENCY_S),
            stages: STAGE_HISTOGRAMS.map(|name| crate::histogram(name, crate::buckets::LATENCY_S)),
        })
    }

    /// Turns the profiler on or off at runtime (independent of the metric
    /// kill-switch so benches can isolate its overhead). Off, no tick is
    /// sampled and the tick histograms receive nothing.
    pub fn set_enabled(on: bool) {
        ENABLED.store(on, Ordering::Relaxed);
    }

    /// Sets the per-thread sampling period (clamped to ≥1). Period 1 times
    /// every tick — used by tests to prove the stage seams tile the tick.
    pub fn set_sample_period(period: u64) {
        SAMPLE_PERIOD.store(period.max(1), Ordering::Relaxed);
    }

    /// Zeroes every accumulator (tests and benches). The histograms are
    /// registry metrics and keep their counts.
    pub fn reset() {
        for slot in &STAGE_NANOS {
            slot.store(0, Ordering::Relaxed);
        }
        SAMPLED_TICK_NANOS.store(0, Ordering::Relaxed);
        SAMPLED_TICKS.store(0, Ordering::Relaxed);
    }

    /// An open tick sample. `None` inside means this tick was not sampled
    /// (the common case): every method is then a no-op.
    #[derive(Debug)]
    pub struct TickGuard {
        active: Option<ActiveTick>,
    }

    #[derive(Debug)]
    struct ActiveTick {
        tick_start: Instant,
        mark: Instant,
        stage: usize,
        /// Self-time per stage so far this tick, flushed on drop.
        nanos: [u64; STAGE_COUNT],
    }

    impl ActiveTick {
        /// Attributes the time since the last mark to the open stage.
        #[inline]
        fn close(&mut self, now: Instant) {
            self.nanos[self.stage] += now.duration_since(self.mark).as_nanos() as u64;
            self.mark = now;
        }
    }

    /// Opens a tick. On the sampled ticks (every Nth per thread, and only
    /// while the profiler and the global metric runtime are enabled) the
    /// guard timestamps stage seams; otherwise it is inert.
    pub fn tick_begin() -> TickGuard {
        if !ENABLED.load(Ordering::Relaxed) || !crate::runtime_enabled() {
            return TickGuard { active: None };
        }
        let sampled = TICK_COUNTER.with(|c| {
            let n = c.get().wrapping_add(1);
            c.set(n);
            n % SAMPLE_PERIOD.load(Ordering::Relaxed) == 0
        });
        if !sampled {
            return TickGuard { active: None };
        }
        let now = Instant::now();
        TickGuard {
            active: Some(ActiveTick {
                tick_start: now,
                mark: now,
                stage: Stage::Env as usize,
                nanos: [0; STAGE_COUNT],
            }),
        }
    }

    impl TickGuard {
        /// Marks a stage seam: the time since the previous mark is
        /// attributed to the stage that just ended, and `stage` begins.
        /// One clock read closes and opens, so stages tile the tick with
        /// no gaps.
        #[inline]
        pub fn stage(&mut self, stage: Stage) {
            if let Some(active) = &mut self.active {
                active.close(Instant::now());
                active.stage = stage as usize;
            }
        }
    }

    impl Drop for TickGuard {
        /// Closes the open stage and publishes the sample: the global
        /// per-stage totals, and one observation into every stage
        /// histogram and the tick histogram.
        fn drop(&mut self) {
            if let Some(mut active) = self.active.take() {
                let now = Instant::now();
                active.close(now);
                let tick_nanos = now.duration_since(active.tick_start).as_nanos() as u64;
                let histograms = histograms();
                for ((total, histogram), nanos) in
                    STAGE_NANOS.iter().zip(&histograms.stages).zip(active.nanos)
                {
                    total.fetch_add(nanos, Ordering::Relaxed);
                    histogram.observe(nanos as f64 * 1e-9);
                }
                histograms.tick.observe(tick_nanos as f64 * 1e-9);
                SAMPLED_TICK_NANOS.fetch_add(tick_nanos, Ordering::Relaxed);
                SAMPLED_TICKS.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Per-stage sampled self-time, `(name, nanos)`, stage order.
    pub fn report() -> Vec<(&'static str, u64)> {
        STAGE_NAMES
            .iter()
            .zip(&STAGE_NANOS)
            .map(|(name, nanos)| (*name, nanos.load(Ordering::Relaxed)))
            .collect()
    }

    /// Raw per-stage nanos, for delta-based attribution (fleet workers
    /// snapshot before/after a unit).
    pub fn stage_nanos() -> [u64; STAGE_COUNT] {
        let mut out = [0u64; STAGE_COUNT];
        for (slot, cell) in out.iter_mut().zip(&STAGE_NANOS) {
            *slot = cell.load(Ordering::Relaxed);
        }
        out
    }

    /// Total wall-clock of all sampled ticks, nanoseconds.
    pub fn sampled_tick_nanos() -> u64 {
        SAMPLED_TICK_NANOS.load(Ordering::Relaxed)
    }

    /// Number of ticks that were sampled.
    pub fn sampled_ticks() -> u64 {
        SAMPLED_TICKS.load(Ordering::Relaxed)
    }
}

#[cfg(feature = "enabled")]
pub use real::{
    report, reset, sampled_tick_nanos, sampled_ticks, set_enabled, set_sample_period, stage_nanos,
    tick_begin, TickGuard,
};

#[cfg(not(feature = "enabled"))]
mod noop {
    use super::{Stage, STAGE_COUNT};

    /// No-op tick sample.
    #[derive(Debug)]
    pub struct TickGuard;

    impl TickGuard {
        /// Discards the seam.
        #[inline(always)]
        pub fn stage(&mut self, _stage: Stage) {}
    }

    /// No-op tick open.
    #[inline(always)]
    pub fn tick_begin() -> TickGuard {
        TickGuard
    }

    /// No-op enable toggle.
    #[inline(always)]
    pub fn set_enabled(_on: bool) {}

    /// No-op period setter.
    #[inline(always)]
    pub fn set_sample_period(_period: u64) {}

    /// No-op reset.
    #[inline(always)]
    pub fn reset() {}

    /// Always empty without the `enabled` feature.
    #[inline(always)]
    pub fn report() -> Vec<(&'static str, u64)> {
        Vec::new()
    }

    /// Always zero without the `enabled` feature.
    #[inline(always)]
    pub fn stage_nanos() -> [u64; STAGE_COUNT] {
        [0; STAGE_COUNT]
    }

    /// Always zero without the `enabled` feature.
    #[inline(always)]
    pub fn sampled_tick_nanos() -> u64 {
        0
    }

    /// Always zero without the `enabled` feature.
    #[inline(always)]
    pub fn sampled_ticks() -> u64 {
        0
    }
}

#[cfg(not(feature = "enabled"))]
pub use noop::{
    report, reset, sampled_tick_nanos, sampled_ticks, set_enabled, set_sample_period, stage_nanos,
    tick_begin, TickGuard,
};

/// The fraction of sampled tick wall-clock accounted to stages. With the
/// seams tiling the tick this sits at ~1.0; anything below ~0.95 means a
/// pipeline stage is running outside the marked seams.
pub fn accounted_fraction() -> f64 {
    let total = sampled_tick_nanos();
    if total == 0 {
        return 0.0;
    }
    let stages: u64 = report().iter().map(|(_, n)| n).sum();
    stages as f64 / total as f64
}

/// Renders the accumulated self-times as folded-stack lines
/// (`tick;<stage> <nanos>`), the input format of flamegraph tooling.
/// Zero-time stages are omitted.
pub fn folded() -> String {
    let mut out = String::new();
    for (name, nanos) in report() {
        if nanos > 0 {
            out.push_str(&format!("tick;{name} {nanos}\n"));
        }
    }
    out
}

/// Renders a human percentage table of per-stage self-time, largest first.
pub fn render_table() -> String {
    let total = sampled_tick_nanos();
    let ticks = sampled_ticks();
    let mut out = String::new();
    if total == 0 || ticks == 0 {
        out.push_str("tick profile: no sampled ticks\n");
        return out;
    }
    out.push_str(&format!(
        "tick profile: {} sampled ticks, mean {:.2} us/tick, {:.1}% accounted\n",
        ticks,
        total as f64 / ticks as f64 / 1e3,
        accounted_fraction() * 100.0
    ));
    let mut stages = report();
    stages.sort_by_key(|&(_, nanos)| std::cmp::Reverse(nanos));
    for (name, nanos) in stages {
        if nanos == 0 {
            continue;
        }
        out.push_str(&format!(
            "  {:<12} {:>6.1}%  {:>8.2} us/tick\n",
            name,
            nanos as f64 / total as f64 * 100.0,
            nanos as f64 / ticks as f64 / 1e3
        ));
    }
    out
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Global accumulators; tests must not interleave.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn sampled_stages_tile_the_tick() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_sample_period(1);
        for _ in 0..50 {
            let mut guard = tick_begin();
            guard.stage(Stage::Sensors);
            std::hint::black_box((0..100).sum::<u64>());
            guard.stage(Stage::Estimator);
            std::hint::black_box((0..300).sum::<u64>());
            guard.stage(Stage::Dynamics);
            std::hint::black_box((0..100).sum::<u64>());
        }
        assert_eq!(sampled_ticks(), 50);
        let fraction = accounted_fraction();
        assert!(
            fraction > 0.99 && fraction < 1.01,
            "stages must tile the tick: accounted {fraction}"
        );
        let folded = folded();
        assert!(folded.contains("tick;estimator "), "{folded}");
        let table = render_table();
        assert!(table.contains("estimator"), "{table}");
        set_sample_period(DEFAULT_SAMPLE_PERIOD);
    }

    #[test]
    fn unsampled_ticks_record_nothing() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_sample_period(1_000_000);
        let histograms_before = histogram_counts();
        // Fresh thread: its tick counter starts at zero, so none of these
        // ticks hit the sampling period.
        std::thread::spawn(|| run_full_ticks(100)).join().unwrap();
        assert_eq!(sampled_ticks(), 0);
        assert_eq!(sampled_tick_nanos(), 0);
        assert_eq!(histogram_counts(), histograms_before);
        set_sample_period(DEFAULT_SAMPLE_PERIOD);
    }

    /// Runs `ticks` profiled ticks that pass through every stage seam.
    fn run_full_ticks(ticks: usize) {
        const SEAMS: [Stage; STAGE_COUNT - 1] = [
            Stage::Sensors,
            Stage::Faults,
            Stage::Voter,
            Stage::Estimator,
            Stage::Controller,
            Stage::Dynamics,
            Stage::Bookkeeping,
        ];
        for _ in 0..ticks {
            let mut guard = tick_begin();
            for stage in SEAMS {
                std::hint::black_box((0..20).sum::<u64>());
                guard.stage(stage);
            }
        }
    }

    /// Observation counts of the tick histogram and every stage histogram,
    /// in that order.
    fn histogram_counts() -> Vec<u64> {
        std::iter::once(TICK_HISTOGRAM)
            .chain(STAGE_HISTOGRAMS)
            .map(|name| crate::histogram(name, crate::buckets::LATENCY_S).count())
            .collect()
    }

    #[test]
    fn sampled_ticks_feed_every_stage_histogram() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_sample_period(1);
        let before = histogram_counts();
        run_full_ticks(40);
        let after = histogram_counts();
        assert_eq!(sampled_ticks(), 40);
        for ((name, b), a) in std::iter::once(TICK_HISTOGRAM)
            .chain(STAGE_HISTOGRAMS)
            .zip(&before)
            .zip(&after)
        {
            assert_eq!(
                a - b,
                40,
                "{name} must gain one observation per sampled tick"
            );
        }
        set_sample_period(DEFAULT_SAMPLE_PERIOD);
    }

    #[test]
    fn histograms_keep_the_legacy_timer_names() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let mut names: Vec<&str> = STAGE_HISTOGRAMS.to_vec();
        names.push(TICK_HISTOGRAM);
        names.sort_unstable();
        let mut legacy = vec![
            "sim_tick_seconds",
            "fault_injector_seconds",
            "ekf_update_seconds",
            "sim_stage_sensors_seconds",
            "sim_stage_voter_seconds",
            "sim_stage_control_seconds",
            "sim_stage_dynamics_seconds",
            "sim_stage_env_seconds",
            "sim_stage_bookkeeping_seconds",
        ];
        legacy.sort_unstable();
        assert_eq!(names, legacy);
        assert_eq!(
            STAGE_HISTOGRAMS[Stage::Faults as usize],
            "fault_injector_seconds"
        );
        assert_eq!(
            STAGE_HISTOGRAMS[Stage::Estimator as usize],
            "ekf_update_seconds"
        );
        assert_eq!(
            STAGE_HISTOGRAMS[Stage::Controller as usize],
            "sim_stage_control_seconds"
        );
        // One sampled tick registers all of them with the exporter.
        set_sample_period(1);
        run_full_ticks(1);
        set_sample_period(DEFAULT_SAMPLE_PERIOD);
        let json = crate::export::json();
        for name in legacy {
            assert!(json.contains(name), "{name} missing from {json}");
        }
    }

    #[test]
    fn disabled_profiler_is_inert() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        let histograms_before = histogram_counts();
        set_enabled(false);
        set_sample_period(1);
        run_full_ticks(10);
        assert_eq!(sampled_ticks(), 0);
        assert_eq!(histogram_counts(), histograms_before);
        set_enabled(true);
        set_sample_period(DEFAULT_SAMPLE_PERIOD);
    }
}
