//! The metric runtime kill-switch silences the profiler-fed tick and stage
//! histograms. A binary of its own: throwing the global switch inside the
//! crate's unit tests would race every other test that records metrics.

#![cfg(feature = "enabled")]

use imufit_obs::profile::{self, Stage, STAGE_HISTOGRAMS, TICK_HISTOGRAM};

fn histogram_counts() -> Vec<u64> {
    std::iter::once(TICK_HISTOGRAM)
        .chain(STAGE_HISTOGRAMS)
        .map(|name| imufit_obs::histogram(name, imufit_obs::buckets::LATENCY_S).count())
        .collect()
}

fn run_ticks(ticks: usize) {
    for _ in 0..ticks {
        let mut guard = profile::tick_begin();
        guard.stage(Stage::Sensors);
        guard.stage(Stage::Estimator);
        guard.stage(Stage::Bookkeeping);
    }
}

#[test]
fn kill_switch_stops_every_tick_histogram() {
    profile::set_sample_period(1);
    run_ticks(3);
    let before = histogram_counts();
    assert!(before[0] >= 3, "sampled ticks must reach {TICK_HISTOGRAM}");
    let sampled = profile::sampled_ticks();

    imufit_obs::set_runtime_enabled(false);
    run_ticks(20);
    imufit_obs::set_runtime_enabled(true);

    assert_eq!(histogram_counts(), before);
    assert_eq!(profile::sampled_ticks(), sampled);

    // Back on, the same ticks record again.
    run_ticks(5);
    assert_eq!(histogram_counts()[0], before[0] + 5);
    profile::set_sample_period(profile::DEFAULT_SAMPLE_PERIOD);
}
