//! The steady-state simulation tick must not touch the heap.
//!
//! A campaign pays its tick tens of millions of times, so one stray `Vec`
//! per tick is a measurable share of the run. This test counts every heap
//! allocation made inside `FlightSimulator::step` with a counting global
//! allocator and requires **zero** on every tick that emits nothing to
//! the flight log. Two kinds of tick are exempt, both rare by design:
//!
//! - ticks that push a flight-log event (fault window edges, voter
//!   exclusions, failsafe latches): their details are formatted strings;
//! - the 1 Hz report ticks, which log a track point and publish the
//!   vehicle's position to the U-space broker as an owned wire frame.
//!
//! The checked ticks cover GPS, barometer and compass fusion, a faulted
//! run's pre-onset prefix and its active fault window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use imufit_core::{Campaign, CampaignConfig, ExperimentSpec};
use imufit_faults::{FaultKind, FaultTarget, InjectionWindow};
use imufit_uav::FlightSimulator;

/// [`System`] plus a per-thread allocation count.
struct CountingAlloc;

thread_local! {
    // `const` initialisation with a `Drop`-free type: reading it from
    // inside the allocator never allocates or registers a destructor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn thread_allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter update
// touches only a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Simulated seconds flown before counting starts: long enough for every
/// per-flight buffer to reach its steady size and for the stage profiler
/// to have sampled (and registered its histograms).
const WARM_UP_S: f64 = 2.0;

/// What the checked (event-free) ticks of one flight exercised.
#[derive(Debug, Default)]
struct Coverage {
    checked: u64,
    gps: u64,
    baro: u64,
    compass: u64,
    prefix: u64,
    fault_active: u64,
    /// Checked ticks that allocated.
    allocating: u64,
    /// `(tick, sim time, allocations)` of the first few of them.
    offenders: Vec<(u64, f64, u64)>,
}

/// Flies `sim` until `until` seconds or its end, recording for every
/// checked tick how many allocations `step` made and which cadences fired.
fn fly(sim: &mut FlightSimulator, until: f64, window: Option<InjectionWindow>) -> Coverage {
    let config = sim.config().clone();
    let period = |rate: f64| (config.physics_rate / rate).round() as u64;
    let (gps, baro, compass, report) = (
        period(config.gps_rate),
        period(config.baro_rate),
        period(config.compass_rate),
        period(config.tracking_rate),
    );
    let mut coverage = Coverage::default();
    let mut tick = 0u64;
    // Reserved up front so the bookkeeping itself never allocates mid-run.
    coverage.offenders.reserve(8);
    while sim.time() < until {
        let events = sim.recorder().events().len();
        let clock = sim.time();
        let before = thread_allocs();
        sim.step();
        let allocs = thread_allocs() - before;
        if sim.time() == clock {
            // The flight ended: `step` no longer advances the clock.
            break;
        }
        tick += 1;
        let t = sim.time();
        if t < WARM_UP_S || tick.is_multiple_of(report) || sim.recorder().events().len() != events {
            continue;
        }
        coverage.checked += 1;
        coverage.gps += u64::from(tick.is_multiple_of(gps));
        coverage.baro += u64::from(tick.is_multiple_of(baro));
        coverage.compass += u64::from(tick.is_multiple_of(compass));
        if let Some(w) = window {
            coverage.prefix += u64::from(t < w.start);
            coverage.fault_active += u64::from(w.contains(t));
        }
        if allocs != 0 {
            coverage.allocating += 1;
            if coverage.offenders.len() < coverage.offenders.capacity() {
                coverage.offenders.push((tick, t, allocs));
            }
        }
    }
    coverage
}

fn assert_clean(label: &str, coverage: &Coverage) {
    assert_eq!(
        coverage.allocating, 0,
        "{label}: {} of {} checked ticks allocated; first (tick, time s, allocs): {:?}",
        coverage.allocating, coverage.checked, coverage.offenders
    );
}

#[test]
fn gold_tick_is_allocation_free() {
    let config = CampaignConfig::scaled(1, vec![30.0], 2024);
    let mut sim = Campaign::build_vehicle(&config, &ExperimentSpec::gold(0)).expect("gold builds");
    let coverage = fly(&mut sim, 120.0, None);
    assert_clean("gold run", &coverage);
    assert!(coverage.checked > 20_000, "{coverage:?}");
    assert!(coverage.gps > 100, "{coverage:?}");
    assert!(coverage.baro > 500, "{coverage:?}");
    assert!(coverage.compass > 200, "{coverage:?}");
}

#[test]
fn faulted_three_imu_tick_is_allocation_free() {
    let config = CampaignConfig::scaled(1, vec![30.0], 2024);
    assert_eq!(config.imu_redundancy, 3);
    let window = InjectionWindow::new(InjectionWindow::CAMPAIGN_START, 30.0);
    let spec = ExperimentSpec::faulty(0, FaultKind::Noise, FaultTarget::Accelerometer, window);
    let mut sim = Campaign::build_vehicle(&config, &spec).expect("faulted vehicle builds");
    assert_eq!(sim.config().imu_redundancy, 3);
    let coverage = fly(&mut sim, window.start + window.duration + 5.0, Some(window));
    assert_clean("faulted run", &coverage);
    assert!(coverage.prefix > 20_000, "{coverage:?}");
    assert!(coverage.fault_active > 250, "{coverage:?}");
    assert!(coverage.gps > 100, "{coverage:?}");
}
