//! Integration tests for the campaign engine: real simulated experiments
//! aggregated into the paper's tables.

use imufit::core::tables::{Table2, Table3, Table4};
use imufit::core::{report, Campaign, CampaignConfig, ExperimentRecord};
use imufit::prelude::{FaultKind, FaultTarget};

/// One shared tiny-but-real campaign for all assertions in this file
/// (1 mission x 2 durations = 43 experiments; the expensive part).
fn tiny_results() -> imufit::core::CampaignResults {
    let config = CampaignConfig::scaled(1, vec![2.0, 30.0], 4242);
    Campaign::new(config).run()
}

#[test]
fn campaign_to_tables_end_to_end() {
    let results = tiny_results();
    assert_eq!(results.records().len(), 1 + 2 * 21);

    let records = results.records();
    let t2 = Table2::from_records(records);
    assert_eq!(t2.gold.n, 1);
    assert_eq!(t2.gold.completed_pct, 100.0);
    assert_eq!(t2.rows.len(), 2);
    assert_eq!(t2.rows.iter().map(|r| r.n).sum::<usize>(), 42);

    let t3 = Table3::from_records(records);
    assert_eq!(t3.rows.len(), 21, "all 21 fault experiments present");
    for row in &t3.rows {
        assert_eq!(row.n, 2, "each fault type ran at both durations");
        assert!(row.inner_violations >= row.outer_violations - 1e-9);
    }

    let t4 = Table4::from_records(records);
    assert_eq!(t4.by_duration.len(), 2);
    assert_eq!(t4.by_component.len(), 3);
    for row in t4.by_duration.iter().chain(&t4.by_component) {
        assert!((0.0..=100.0).contains(&row.failed_pct));
        // Crash + failsafe account for every failure.
        if row.failed_pct > 0.0 {
            assert!((row.crash_pct + row.failsafe_pct - 100.0).abs() < 1e-9);
        }
    }

    // The experiments document renders with every section.
    let md = report::render_experiments_md(&results, &[]);
    for needle in [
        "# EXPERIMENTS",
        "Shape targets",
        "Table II",
        "Table III",
        "Table IV",
        "Gold Run",
        "Acc Zeros",
        "IMU Freeze",
    ] {
        assert!(md.contains(needle), "missing section {needle}");
    }

    // CSV export round-trip sanity: header + one line per record.
    let csv = results.to_csv();
    assert_eq!(csv.lines().count(), 1 + results.records().len());
    // Every line has the same number of fields.
    let fields = csv.lines().next().unwrap().split(',').count();
    for line in csv.lines() {
        assert_eq!(line.split(',').count(), fields);
    }
}

#[test]
fn parallel_and_serial_execution_agree() {
    let mut config = CampaignConfig::scaled(1, vec![], 99);
    config.threads = 1;
    let serial = Campaign::new(config.clone()).run();
    config.threads = 4;
    let parallel = Campaign::new(config).run();
    assert_eq!(serial.records().len(), parallel.records().len());
    for (a, b) in serial.records().iter().zip(parallel.records()) {
        assert_eq!(a.outcome.label(), b.outcome.label());
        assert_eq!(a.flight_duration, b.flight_duration);
        assert_eq!(a.distance_est, b.distance_est);
        assert_eq!(a.inner_violations, b.inner_violations);
    }
}

#[test]
fn progress_callback_counts_every_experiment() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let config = CampaignConfig::scaled(1, vec![], 7);
    let total_expected = config.matrix().len();
    let count = AtomicUsize::new(0);
    let cb = |_done: usize, total: usize| {
        assert_eq!(total, total_expected);
        count.fetch_add(1, Ordering::Relaxed);
    };
    let _ = Campaign::new(config).run_with_progress(Some(&cb));
    assert_eq!(count.load(Ordering::Relaxed), total_expected);
}

/// Every field of two records, floats compared as raw IEEE-754 bits.
fn assert_records_bitwise(want: &ExperimentRecord, got: &ExperimentRecord, cell: &str) {
    assert_eq!(want.spec, got.spec, "{cell}");
    assert_eq!(want.drone_id, got.drone_id, "{cell}");
    assert_eq!(want.outcome, got.outcome, "{cell}");
    for (name, a, b) in [
        ("duration", want.flight_duration, got.flight_duration),
        ("distance_est", want.distance_est, got.distance_est),
        ("distance_true", want.distance_true, got.distance_true),
    ] {
        assert_eq!(a.to_bits(), b.to_bits(), "{cell}: {name} {a} vs {b}");
    }
    assert_eq!(want.inner_violations, got.inner_violations, "{cell}");
    assert_eq!(want.outer_violations, got.outer_violations, "{cell}");
    assert_eq!(want.ekf_resets, got.ekf_resets, "{cell}");
}

/// The split entry points benchmarks and the allocation-free tick test
/// use (`build_vehicle`, then `run_summary`, then `record_from_summary`)
/// must reproduce, bit for bit, the record a campaign writes, and so must
/// the isolated harness flying every spec through one recycled vehicle.
#[test]
fn split_and_recycled_runs_match_the_campaign_bitwise() {
    for seed in [7u64, 99] {
        let mut config = CampaignConfig::scaled(1, vec![2.0], seed);
        config.faults.kinds = vec![FaultKind::Min, FaultKind::Freeze];
        config.faults.targets = vec![FaultTarget::Gyrometer];
        let specs = config.matrix();
        assert_eq!(specs.len(), 3, "1 gold + 2 gyro kinds");

        let campaign = Campaign::new(config.clone()).run();
        assert_eq!(campaign.records().len(), specs.len());

        let mut slot = None;
        for (spec, want) in specs.iter().zip(campaign.records()) {
            let cell = format!("seed={seed} spec={spec:?}");
            let summary = Campaign::build_vehicle(&config, spec)
                .expect("campaign specs build")
                .run_summary();
            let split = Campaign::record_from_summary(&config, *spec, &summary);
            assert_records_bitwise(want, &split, &format!("{cell} split"));

            let recycled = Campaign::run_experiment_isolated_into(&config, *spec, &mut slot);
            assert_records_bitwise(want, &recycled, &format!("{cell} recycled"));
        }
    }
}
