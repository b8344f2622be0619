//! Gold-flight capture and kernel replay: one gold flight of mission 0 is
//! flown through `FlightSimulator::step`, its per-tick truth is captured
//! through public getters, and the stream is replayed into standalone
//! stage kernels. The kernels therefore run on states the campaign really
//! visits (a covariance that fuses GPS every 50 ticks, a controller
//! tracking a real mission), which a kernel micro-bench never reaches.

use std::time::Instant;

use imufit::controller::{ControllerParams, FlightController, RedundancyStatus};
use imufit::dynamics::{Quadrotor, QuadrotorParams, RigidBodyState};
use imufit::estimator::{Ekf, EkfParams};
use imufit::faults::{FaultInjector, FaultKind, FaultSpec, FaultTarget, InjectionWindow};
use imufit::math::rng::Pcg;
use imufit::math::Vec3;
use imufit::missions::all_missions;
use imufit::sensors::{
    yaw_from_mag, BaroSpec, Barometer, Gps, GpsSpec, ImuSample, ImuSpec, ImuVoter, MagSpec,
    Magnetometer, RedundantImu, VoterConfig,
};
use imufit::uav::{SimConfig, VehicleBuilder};

use crate::campaign::BoxStats;
use crate::report::Report;
use crate::{checks, stats};

/// Ground truth at the start of one physics tick: what the simulator's
/// sensor stage reads.
struct TickTruth {
    specific_force: Vec3,
    angular_rate: Vec3,
    state: RigidBodyState,
}

/// The sub-rate scheduler of the simulator: an event at `rate` Hz is due
/// on physics tick `tick` (counted from 1).
fn due(tick: u64, physics_rate: f64, rate: f64) -> bool {
    let period = (physics_rate / rate).round() as u64;
    period <= 1 || tick.is_multiple_of(period)
}

/// Times `f` in ns.
fn timed<T>(samples: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    samples.push(t.elapsed().as_nanos() as f64);
    out
}

/// Flies the gold flight (black box armed), replays it into the kernels
/// and reports the kernel metrics; the flight's black box joins `boxes`.
pub fn run(seed: u64, report: &mut Report, boxes: &mut BoxStats) {
    let mission = &all_missions()[0];
    let mut config = SimConfig::default_for(mission, seed);
    config.trace.enabled = true;
    let rates = (
        config.physics_rate,
        config.gps_rate,
        config.baro_rate,
        config.compass_rate,
    );
    let wind_model = config.wind.clone();
    let mut sim = VehicleBuilder::new(mission, config)
        .build()
        .expect("default configuration builds");
    let mut truth = Vec::new();
    loop {
        let before = sim.time();
        let q = sim.vehicle();
        truth.push(TickTruth {
            specific_force: q.specific_force_body(),
            angular_rate: q.angular_rate_body(),
            state: *q.state(),
        });
        sim.step();
        if sim.time() == before {
            truth.pop();
            break;
        }
    }
    let summary = sim.run_summary();
    report.check(summary.outcome.label() == "completed", || {
        format!("replay gold flight ended {}", summary.outcome.label())
    });
    let t = Instant::now();
    let bytes = sim.take_black_box(&format!("mission=0 kind=gold seed={seed}"));
    boxes.take_ns.push(t.elapsed().as_nanos() as f64);
    match bytes {
        Some(bytes) => {
            let t = Instant::now();
            report.fail_all(checks::black_box("replay gold flight", &bytes));
            boxes.decode_ns.push(t.elapsed().as_nanos() as f64);
            boxes.sizes.push(bytes.len());
        }
        None => report.check(false, || "replay gold flight sealed no black box".into()),
    }

    let (physics_rate, gps_rate, baro_rate, compass_rate) = rates;
    let dt = 1.0 / physics_rate;
    let master = Pcg::seed_from(seed);
    let mut rng_init = master.derive(&[0]);
    let mut rng_imu = master.derive(&[1]);
    let mut rng_gps = master.derive(&[2]);
    let mut rng_baro = master.derive(&[3]);
    let mut rng_mag = master.derive(&[4]);
    let mut rng_wind = master.derive(&[5]);
    let mut rng_fault = master.derive(&[6]);

    let imu_spec = ImuSpec::default();
    let mut bank = RedundantImu::new(imu_spec, 3, &mut rng_init);
    let mut voter = ImuVoter::new(VoterConfig::default(), 3);
    let window = InjectionWindow::new(90.0, 30.0);
    let fault = FaultSpec::new(FaultKind::Random, FaultTarget::Imu, window);
    let mut injector = FaultInjector::new(imu_spec, vec![fault]);
    let mut gps = Gps::try_new(GpsSpec::default()).expect("default GPS spec is valid");
    let mut baro = Barometer::try_new(BaroSpec::default(), 16.0).expect("default baro spec");
    let mag = Magnetometer::try_new(MagSpec::default(), &mut rng_init).expect("default mag spec");
    let mut ekf = Ekf::new(EkfParams::default());
    ekf.initialize(mission.home, Vec3::ZERO, 0.0);
    let params = QuadrotorParams::default_airframe().with_payload(mission.drone.payload_kg);
    let mut controller = FlightController::new(
        ControllerParams::for_vehicle(params.mass, 4.0 * params.rotor_max_thrust),
        mission.plan(),
    );
    let mut quad = Quadrotor::with_state(params, truth[0].state);
    let mut wind = wind_model;

    let mut sample_ns = Vec::new();
    let mut inject_ns = Vec::new();
    let mut vote_ns = Vec::new();
    let mut predict_ns = Vec::new();
    let mut gps_ns = Vec::new();
    let mut baro_ns = Vec::new();
    let mut yaw_ns = Vec::new();
    let mut control_ns = Vec::new();
    let mut dynamics_ns = Vec::new();
    let mut samples: Vec<ImuSample> = Vec::with_capacity(3);
    let mut faulted: Vec<ImuSample> = Vec::with_capacity(3);
    let status = RedundancyStatus {
        instances: 3,
        ..RedundancyStatus::default()
    };
    for (k, tick) in truth.iter().enumerate() {
        let n = k as u64 + 1;
        let time = n as f64 * dt;
        timed(&mut sample_ns, || {
            bank.sample_all_into(
                tick.specific_force,
                tick.angular_rate,
                dt,
                &mut rng_imu,
                &mut samples,
            )
        });
        // The injector corrupts a copy; the flight stack below keeps
        // consuming the gold stream.
        faulted.clone_from(&samples);
        if window.contains(time) {
            timed(&mut inject_ns, || {
                injector.apply_bank(&mut faulted, &mut rng_fault)
            });
        } else {
            injector.apply_bank(&mut faulted, &mut rng_fault);
        }
        let merged = timed(&mut vote_ns, || voter.vote(&samples, 0)).merged;
        timed(&mut predict_ns, || ekf.predict(&merged, dt));
        let s = tick.state;
        if due(n, physics_rate, gps_rate) {
            let fix = gps.sample(s.position, s.velocity, 1.0 / gps_rate, &mut rng_gps);
            timed(&mut gps_ns, || ekf.fuse_gps(&fix));
        }
        if due(n, physics_rate, baro_rate) {
            let sample = baro.sample(s.altitude(), 1.0 / baro_rate, &mut rng_baro);
            timed(&mut baro_ns, || ekf.fuse_baro(&sample));
        }
        if due(n, physics_rate, compass_rate) {
            let sample = mag.sample(s.attitude, &mut rng_mag);
            let (roll, pitch, _) = ekf.state().attitude.to_euler();
            let yaw = yaw_from_mag(&sample, roll, pitch, mag.spec().declination);
            timed(&mut yaw_ns, || ekf.fuse_yaw(yaw));
        }
        let nav = *ekf.state();
        let rejecting = ekf.health().any_rejecting();
        let out = timed(&mut control_ns, || {
            controller.update_with_redundancy(time, dt, &nav, &merged, rejecting, status)
        });
        let gust = wind.step(dt, &mut rng_wind);
        quad.set_state(s);
        timed(&mut dynamics_ns, || {
            quad.step_with_wind(out.throttles, gust, dt)
        });
    }

    let p50 = |v: &[f64]| stats::median(v);
    report.metric("sensors.sample_all_ns_p50", p50(&sample_ns), "ns");
    report.metric("faults.apply_bank_ns_p50", p50(&inject_ns), "ns");
    report.metric("voter.vote_ns_p50", p50(&vote_ns), "ns");
    report.metric("estimator.predict_ns_p50", p50(&predict_ns), "ns");
    report.metric("estimator.fuse_gps_ns_p50", p50(&gps_ns), "ns");
    report.metric("estimator.fuse_baro_ns_p50", p50(&baro_ns), "ns");
    report.metric("estimator.fuse_yaw_ns_p50", p50(&yaw_ns), "ns");
    report.metric("controller.update_ns_p50", p50(&control_ns), "ns");
    report.metric("dynamics.step_ns_p50", p50(&dynamics_ns), "ns");
    report.metric("mathkit.normal_ns", normal_ns(seed), "ns");
}

/// Median cost of one `Pcg::normal` draw over 21 blocks of 100 000.
fn normal_ns(seed: u64) -> f64 {
    const DRAWS: u32 = 100_000;
    let mut rng = Pcg::seed_from(seed);
    let blocks: Vec<f64> = (0..21)
        .map(|_| {
            let t = Instant::now();
            let mut acc = 0.0;
            for _ in 0..DRAWS {
                acc += rng.normal();
            }
            std::hint::black_box(acc);
            t.elapsed().as_nanos() as f64 / f64::from(DRAWS)
        })
        .collect();
    stats::median(&blocks)
}
