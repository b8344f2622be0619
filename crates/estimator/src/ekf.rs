//! The error-state EKF core.
//!
//! State ordering of the 15-dimensional error state:
//!
//! | indices | error |
//! |---|---|
//! | 0..3   | position (NED, m) |
//! | 3..6   | velocity (NED, m/s) |
//! | 6..9   | attitude (body-frame small angle, rad) |
//! | 9..12  | gyro bias (rad/s) |
//! | 12..15 | accel bias (m/s^2) |
//!
//! IMU samples drive the prediction; GNSS position/velocity, barometric
//! height and compass yaw are fused as sequential scalar updates with
//! chi-square innovation gating. Persistent rejection triggers a PX4-style
//! reset of the offending states to the measurement.

use serde::{Deserialize, Serialize};

use imufit_math::{wrap_pi, Mat3, Quat, SMatrix, Vec3, GRAVITY};
use imufit_sensors::{BaroSample, GpsSample, ImuSample};

use crate::health::EstimatorHealth;
use crate::state::NavState;

/// Dimension of the error state.
pub const N: usize = 15;

type Cov = SMatrix<N, N>;

const IDX_POS: usize = 0;
const IDX_VEL: usize = 3;
const IDX_ANG: usize = 6;
const IDX_BG: usize = 9;
const IDX_BA: usize = 12;

/// EKF tuning parameters. Defaults follow PX4 EKF2 orders of magnitude.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EkfParams {
    /// Accelerometer white-noise density used for process noise, m/s^2.
    pub accel_noise: f64,
    /// Gyro white-noise density used for process noise, rad/s.
    pub gyro_noise: f64,
    /// Accel bias random-walk process noise, m/s^2 / sqrt(s).
    pub accel_bias_walk: f64,
    /// Gyro bias random-walk process noise, rad/s / sqrt(s).
    pub gyro_bias_walk: f64,
    /// Barometer measurement noise (1-sigma), meters.
    pub baro_noise: f64,
    /// Compass yaw measurement noise (1-sigma), radians.
    pub yaw_noise: f64,
    /// Innovation gate, in standard deviations (PX4 default gates are 3-5).
    pub gate_sigma: f64,
    /// Seconds of continuous rejection after which the filter resets the
    /// offending states to the measurement.
    pub reset_timeout: f64,
    /// Hard clamp on the estimated gyro bias magnitude per axis, rad/s.
    pub max_gyro_bias: f64,
    /// Hard clamp on the estimated accel bias magnitude per axis, m/s^2.
    pub max_accel_bias: f64,
    /// "Bad accelerometer" threshold, m/s^2: a specific-force magnitude
    /// below this is physically impossible outside free fall, so the
    /// prediction falls back to a hover assumption (EKF2's bad-accel
    /// handling). This is what keeps "Acc Zeros" faults survivable.
    pub bad_accel_threshold: f64,
}

impl Default for EkfParams {
    fn default() -> Self {
        EkfParams {
            accel_noise: 0.35,
            gyro_noise: 0.006,
            accel_bias_walk: 0.003,
            gyro_bias_walk: 1e-4,
            baro_noise: 0.3,
            yaw_noise: 0.035,
            gate_sigma: 5.0,
            reset_timeout: 1.0,
            max_gyro_bias: 0.2,
            max_accel_bias: 1.2,
            bad_accel_threshold: 1.0,
        }
    }
}

/// The error-state extended Kalman filter.
#[derive(Debug, Clone)]
pub struct Ekf {
    params: EkfParams,
    nominal: NavState,
    covariance: Cov,
    health: EstimatorHealth,
    /// Seconds since a horizontal-position measurement was accepted; the
    /// trigger for the PX4-style reset (velocity agreement alone must not
    /// mask a diverged position).
    time_since_pos_aiding: f64,
    /// Seconds since a horizontal-velocity measurement was accepted.
    time_since_vel_aiding: f64,
    /// Seconds since a height measurement was accepted.
    time_since_hgt_aiding: f64,
    initialized: bool,
    /// Accumulated flight distance from the estimated position — the paper's
    /// "Distance Traveled" metric is explicitly computed from EKF output.
    distance_traveled: f64,
    last_position: Vec3,
}

impl Ekf {
    /// Creates an uninitialized filter.
    pub fn new(params: EkfParams) -> Self {
        Ekf {
            params,
            nominal: NavState::default(),
            covariance: Self::initial_covariance(),
            health: EstimatorHealth::default(),
            time_since_pos_aiding: 0.0,
            time_since_vel_aiding: 0.0,
            time_since_hgt_aiding: 0.0,
            initialized: false,
            distance_traveled: 0.0,
            last_position: Vec3::ZERO,
        }
    }

    fn initial_covariance() -> Cov {
        let mut d = [0.0; N];
        for i in 0..3 {
            d[IDX_POS + i] = 1.0;
            d[IDX_VEL + i] = 0.25;
            d[IDX_ANG + i] = 0.03;
            d[IDX_BG + i] = 1e-4;
            d[IDX_BA + i] = 0.01;
        }
        Cov::from_diagonal(d)
    }

    /// Initializes the nominal state at a known position/velocity/yaw
    /// (pre-takeoff alignment on the ground).
    pub fn initialize(&mut self, position: Vec3, velocity: Vec3, yaw: f64) {
        self.nominal = NavState {
            position,
            velocity,
            attitude: Quat::from_yaw(yaw),
            gyro_bias: Vec3::ZERO,
            accel_bias: Vec3::ZERO,
        };
        self.covariance = Self::initial_covariance();
        self.health = EstimatorHealth::default();
        self.time_since_pos_aiding = 0.0;
        self.time_since_vel_aiding = 0.0;
        self.time_since_hgt_aiding = 0.0;
        self.initialized = true;
        self.distance_traveled = 0.0;
        self.last_position = position;
    }

    /// True once [`Ekf::initialize`] has been called.
    pub fn is_initialized(&self) -> bool {
        self.initialized
    }

    /// The current nominal state estimate.
    pub fn state(&self) -> &NavState {
        &self.nominal
    }

    /// Innovation-consistency health flags.
    pub fn health(&self) -> EstimatorHealth {
        self.health
    }

    /// Total distance traveled according to the estimated position, meters.
    /// This is the paper's "Distance Traveled" metric.
    pub fn distance_traveled(&self) -> f64 {
        self.distance_traveled
    }

    /// Diagonal of the error covariance (for diagnostics and tests).
    pub fn covariance_diagonal(&self) -> [f64; N] {
        self.covariance.diagonal()
    }

    /// The full error covariance (for consistency diagnostics and tests).
    pub fn covariance(&self) -> SMatrix<N, N> {
        self.covariance
    }

    /// Propagates the state and covariance with one IMU sample over `dt`
    /// seconds.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `dt` is not positive.
    pub fn predict(&mut self, imu: &ImuSample, dt: f64) {
        debug_assert!(dt > 0.0, "dt must be positive");
        if !self.initialized {
            return;
        }
        let p = self.params;

        // Guard: non-finite sensor data freezes the prediction (real drivers
        // drop such samples too).
        if !imu.accel.is_finite() || !imu.gyro.is_finite() {
            return;
        }

        let omega = imu.gyro - self.nominal.gyro_bias;
        // EKF2-style bad-accel fallback: a near-zero specific force cannot
        // occur in normal flight (it reads -g at hover); substitute the
        // hover assumption so a zeroed accelerometer does not integrate a
        // phantom free fall.
        let raw_accel = imu.accel - self.nominal.accel_bias;
        let accel_body = if imu.accel.norm() < p.bad_accel_threshold {
            self.nominal
                .attitude
                .rotate_inverse(Vec3::new(0.0, 0.0, -GRAVITY))
        } else {
            raw_accel
        };
        let rot = self.nominal.attitude.to_rotation_matrix();
        let gravity = Vec3::new(0.0, 0.0, GRAVITY);
        let accel_world = rot * accel_body + gravity;

        // Nominal state propagation (semi-implicit Euler: position uses the
        // updated velocity, which is the standard stable choice).
        self.nominal.velocity += accel_world * dt;
        self.nominal.position += self.nominal.velocity * dt;
        self.nominal.attitude = self.nominal.attitude.integrate(omega, dt);

        self.distance_traveled += (self.nominal.position - self.last_position).norm();
        self.last_position = self.nominal.position;

        // Error-state Jacobian F = I + A dt.
        let mut f = Cov::identity();
        let i3 = Mat3::IDENTITY;
        // d(dp)/d(dv) = I dt
        set_block3(&mut f, IDX_POS, IDX_VEL, &i3.scale(dt));
        // d(dv)/d(dtheta) = -R [a]x dt
        let ra = (rot * Mat3::skew(accel_body)).scale(-dt);
        set_block3(&mut f, IDX_VEL, IDX_ANG, &ra);
        // d(dv)/d(dba) = -R dt
        set_block3(&mut f, IDX_VEL, IDX_BA, &rot.scale(-dt));
        // d(dtheta)/d(dtheta) = I - [w]x dt
        let ww = i3 - Mat3::skew(omega).scale(dt);
        set_block3(&mut f, IDX_ANG, IDX_ANG, &ww);
        // d(dtheta)/d(dbg) = -I dt
        set_block3(&mut f, IDX_ANG, IDX_BG, &i3.scale(-dt));

        // Process noise.
        let mut q = [0.0; N];
        for i in 0..3 {
            q[IDX_POS + i] = 1e-9;
            q[IDX_VEL + i] = p.accel_noise * p.accel_noise * dt;
            q[IDX_ANG + i] = p.gyro_noise * p.gyro_noise * dt;
            q[IDX_BG + i] = p.gyro_bias_walk * p.gyro_bias_walk * dt;
            q[IDX_BA + i] = p.accel_bias_walk * p.accel_bias_walk * dt;
        }

        self.covariance =
            (f * self.covariance * f.transpose() + Cov::from_diagonal(q)).symmetrize();
        self.clamp_covariance();

        self.health.time_since_aiding += dt;
        self.time_since_pos_aiding += dt;
        self.time_since_vel_aiding += dt;
        self.time_since_hgt_aiding += dt;
    }

    /// Fuses a GNSS fix: three position scalars then three velocity scalars.
    pub fn fuse_gps(&mut self, gps: &GpsSample) {
        if !self.initialized {
            return;
        }
        let r_pos_h = gps.horizontal_accuracy * gps.horizontal_accuracy;
        let r_pos_v = gps.vertical_accuracy * gps.vertical_accuracy;
        let r_vel = 0.3 * 0.3;

        let mut worst_pos: f64 = 0.0;
        let mut worst_vel: f64 = 0.0;
        let mut any_accepted = false;
        // The reset clock only clears when BOTH horizontal axes pass the
        // gate: a diverged north estimate must not be masked by a healthy
        // east axis.
        let mut horizontal_pos_accepted = true;

        for axis in 0..3 {
            let r = if axis == 2 { r_pos_v } else { r_pos_h };
            let innovation = gps.position[axis] - self.nominal.position[axis];
            let (accepted, ratio) = self.fuse_scalar(IDX_POS + axis, innovation, r);
            worst_pos = worst_pos.max(ratio);
            any_accepted |= accepted;
            if axis < 2 {
                horizontal_pos_accepted &= accepted;
            }
        }
        let mut all_vel_accepted = true;
        for axis in 0..3 {
            let innovation = gps.velocity[axis] - self.nominal.velocity[axis];
            let (accepted, ratio) = self.fuse_scalar(IDX_VEL + axis, innovation, r_vel);
            worst_vel = worst_vel.max(ratio);
            any_accepted |= accepted;
            all_vel_accepted &= accepted;
        }

        self.health.pos_test_ratio = worst_pos;
        self.health.vel_test_ratio = worst_vel;

        if any_accepted {
            self.health.time_since_aiding = 0.0;
        }
        if horizontal_pos_accepted {
            self.time_since_pos_aiding = 0.0;
        } else if self.time_since_pos_aiding > self.params.reset_timeout {
            // PX4-style recovery: after persistent rejection of the
            // horizontal position, reset the kinematic states to the
            // measurement and reinflate covariance.
            self.reset_to_gps(gps);
        }
        if all_vel_accepted {
            self.time_since_vel_aiding = 0.0;
        } else if self.time_since_vel_aiding > self.params.reset_timeout {
            // Velocity-only reset (EKF2's velocity reset): any axis stuck in
            // rejection (an IMU fault can blow up just the vertical channel)
            // resets the whole velocity to the GPS fix.
            self.reset_velocity(gps);
        }
    }

    /// Resets the velocity states to a GPS fix after persistent rejection.
    fn reset_velocity(&mut self, gps: &GpsSample) {
        self.nominal.velocity = gps.velocity;
        for i in 0..3 {
            for j in 0..N {
                self.covariance[(IDX_VEL + i, j)] = 0.0;
                self.covariance[(j, IDX_VEL + i)] = 0.0;
            }
            self.covariance[(IDX_VEL + i, IDX_VEL + i)] = 0.25;
        }
        self.health.reset_count += 1;
        self.time_since_vel_aiding = 0.0;
    }

    /// Fuses a barometric height measurement.
    pub fn fuse_baro(&mut self, baro: &BaroSample) {
        if !self.initialized {
            return;
        }
        let r = self.params.baro_noise * self.params.baro_noise;
        // Measurement: altitude = -p_z, so innovation on p_z is negated.
        let innovation = -baro.altitude - self.nominal.position.z;
        let (accepted, ratio) = self.fuse_scalar(IDX_POS + 2, innovation, r);
        self.health.hgt_test_ratio = ratio;
        if accepted {
            self.time_since_hgt_aiding = 0.0;
        } else if self.time_since_hgt_aiding > self.params.reset_timeout {
            // Height reset (EKF2's height reset to baro).
            self.nominal.position.z = -baro.altitude;
            self.last_position.z = self.nominal.position.z;
            for j in 0..N {
                self.covariance[(IDX_POS + 2, j)] = 0.0;
                self.covariance[(j, IDX_POS + 2)] = 0.0;
            }
            self.covariance[(IDX_POS + 2, IDX_POS + 2)] = r.max(1.0);
            self.health.reset_count += 1;
            self.time_since_hgt_aiding = 0.0;
        }
    }

    /// Fuses a compass yaw measurement (radians).
    ///
    /// The paper's fault model excludes the magnetometer, so this channel is
    /// always clean; it keeps yaw observable like PX4's mag fusion does.
    pub fn fuse_yaw(&mut self, measured_yaw: f64) {
        if !self.initialized {
            return;
        }
        let r = self.params.yaw_noise * self.params.yaw_noise;
        let innovation = wrap_pi(measured_yaw - self.nominal.yaw());
        // Small-angle approximation maps the yaw error onto the body-z
        // attitude error for near-level flight.
        let (_, ratio) = self.fuse_scalar(IDX_ANG + 2, innovation, r);
        self.health.yaw_test_ratio = ratio;
    }

    /// Adds `dv` to the velocity estimate without telling the filter.
    ///
    /// Models a single-event upset in estimator memory: the nominal state is
    /// corrupted but the covariance is not inflated, exactly the blind spot a
    /// state glitch exploits — the filter keeps trusting a state it should
    /// not. Subsequent GPS innovations are what surface the damage.
    pub fn perturb_velocity(&mut self, dv: Vec3) {
        if !self.initialized {
            return;
        }
        self.nominal.velocity += dv;
    }

    /// One scalar measurement update on error-state component `idx`.
    /// Returns `(accepted, test_ratio)`.
    #[allow(clippy::needless_range_loop)] // dense Kalman index math reads clearer indexed
    fn fuse_scalar(&mut self, idx: usize, innovation: f64, r: f64) -> (bool, f64) {
        if !innovation.is_finite() {
            return (false, f64::MAX);
        }
        let s = self.covariance[(idx, idx)] + r;
        if s <= 0.0 || !s.is_finite() {
            return (false, f64::MAX);
        }
        let gate = self.params.gate_sigma;
        let ratio = (innovation * innovation) / (gate * gate * s);
        if ratio > 1.0 {
            return (false, ratio);
        }

        // Kalman gain K = P e_idx / s.
        let mut k = [0.0; N];
        for (i, ki) in k.iter_mut().enumerate() {
            *ki = self.covariance[(i, idx)] / s;
        }

        // Inject the correction into the nominal state.
        let mut delta = [0.0; N];
        for i in 0..N {
            delta[i] = k[i] * innovation;
        }
        self.inject(&delta);

        // Covariance update: P <- (I - K H) P, H = e_idx^T.
        let p_row: [f64; N] = std::array::from_fn(|j| self.covariance[(idx, j)]);
        for i in 0..N {
            for j in 0..N {
                self.covariance[(i, j)] -= k[i] * p_row[j];
            }
        }
        self.covariance = self.covariance.symmetrize();
        (true, ratio)
    }

    /// Applies an error-state correction to the nominal state.
    fn inject(&mut self, delta: &[f64; N]) {
        let dp = Vec3::new(delta[IDX_POS], delta[IDX_POS + 1], delta[IDX_POS + 2]);
        let dv = Vec3::new(delta[IDX_VEL], delta[IDX_VEL + 1], delta[IDX_VEL + 2]);
        let dth = Vec3::new(delta[IDX_ANG], delta[IDX_ANG + 1], delta[IDX_ANG + 2]);
        let dbg = Vec3::new(delta[IDX_BG], delta[IDX_BG + 1], delta[IDX_BG + 2]);
        let dba = Vec3::new(delta[IDX_BA], delta[IDX_BA + 1], delta[IDX_BA + 2]);

        self.nominal.position += dp;
        self.nominal.velocity += dv;
        self.nominal.attitude =
            (self.nominal.attitude * Quat::from_axis_angle(dth, dth.norm())).normalize();
        let mg = self.params.max_gyro_bias;
        let ma = self.params.max_accel_bias;
        self.nominal.gyro_bias = (self.nominal.gyro_bias + dbg).clamp(-mg, mg);
        self.nominal.accel_bias = (self.nominal.accel_bias + dba).clamp(-ma, ma);
    }

    /// Resets position and velocity to a GPS fix after persistent rejection.
    fn reset_to_gps(&mut self, gps: &GpsSample) {
        self.nominal.position = gps.position;
        self.nominal.velocity = gps.velocity;
        self.last_position = gps.position;
        // Reinflate the kinematic covariance blocks.
        for i in 0..3 {
            for j in 0..N {
                self.covariance[(IDX_POS + i, j)] = 0.0;
                self.covariance[(j, IDX_POS + i)] = 0.0;
                self.covariance[(IDX_VEL + i, j)] = 0.0;
                self.covariance[(j, IDX_VEL + i)] = 0.0;
            }
            self.covariance[(IDX_POS + i, IDX_POS + i)] =
                gps.horizontal_accuracy * gps.horizontal_accuracy;
            self.covariance[(IDX_VEL + i, IDX_VEL + i)] = 0.25;
        }
        self.health.reset_count += 1;
        self.health.time_since_aiding = 0.0;
        self.time_since_pos_aiding = 0.0;
    }

    /// Keeps the covariance numerically sane during extreme fault windows.
    fn clamp_covariance(&mut self) {
        const MAX_VAR: f64 = 1e9;
        if !self.covariance.is_finite() || self.covariance.max_abs() > MAX_VAR {
            // Rebuild a conservative diagonal from the clamped current one.
            let d = self.covariance.diagonal();
            let mut nd = [0.0; N];
            for i in 0..N {
                nd[i] = if d[i].is_finite() {
                    d[i].clamp(1e-12, MAX_VAR)
                } else {
                    MAX_VAR
                };
            }
            self.covariance = Cov::from_diagonal(nd);
        }
        // Variances must stay positive.
        for i in 0..N {
            if self.covariance[(i, i)] < 1e-12 {
                self.covariance[(i, i)] = 1e-12;
            }
        }
    }
}

/// Writes a 3x3 block into the big matrix.
fn set_block3(m: &mut Cov, row: usize, col: usize, b: &Mat3) {
    for r in 0..3 {
        for c in 0..3 {
            m[(row + r, col + c)] = b.at(r, c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imufit_math::rng::Pcg;

    fn level_imu(t: f64) -> ImuSample {
        ImuSample {
            accel: Vec3::new(0.0, 0.0, -GRAVITY),
            gyro: Vec3::ZERO,
            time: t,
        }
    }

    fn gps_at(p: Vec3, v: Vec3) -> GpsSample {
        GpsSample {
            position: p,
            velocity: v,
            horizontal_accuracy: 1.2,
            vertical_accuracy: 1.8,
        }
    }

    #[test]
    fn uninitialized_filter_ignores_inputs() {
        let mut ekf = Ekf::new(EkfParams::default());
        ekf.predict(&level_imu(0.0), 0.004);
        ekf.fuse_gps(&gps_at(Vec3::splat(100.0), Vec3::ZERO));
        assert_eq!(ekf.state().position, Vec3::ZERO);
        assert!(!ekf.is_initialized());
    }

    #[test]
    fn stationary_state_stays_put() {
        let mut ekf = Ekf::new(EkfParams::default());
        ekf.initialize(Vec3::ZERO, Vec3::ZERO, 0.0);
        for i in 0..2500 {
            ekf.predict(&level_imu(i as f64 * 0.004), 0.004);
        }
        assert!(ekf.state().velocity.norm() < 0.01);
        assert!(ekf.state().position.norm() < 0.05);
    }

    #[test]
    fn covariance_grows_without_aiding() {
        let mut ekf = Ekf::new(EkfParams::default());
        ekf.initialize(Vec3::ZERO, Vec3::ZERO, 0.0);
        let d0 = ekf.covariance_diagonal();
        for i in 0..2500 {
            ekf.predict(&level_imu(i as f64 * 0.004), 0.004);
        }
        let d1 = ekf.covariance_diagonal();
        assert!(d1[0] > d0[0], "position variance should grow");
        assert!(d1[3] > d0[3], "velocity variance should grow");
    }

    #[test]
    fn gps_fusion_pulls_position() {
        let mut ekf = Ekf::new(EkfParams::default());
        ekf.initialize(Vec3::ZERO, Vec3::ZERO, 0.0);
        let truth = Vec3::new(0.8, -0.5, -0.3);
        for i in 0..500 {
            ekf.predict(&level_imu(i as f64 * 0.004), 0.004);
            if i % 50 == 0 {
                ekf.fuse_gps(&gps_at(truth, Vec3::ZERO));
            }
        }
        assert!(
            (ekf.state().position - truth).norm() < 0.3,
            "estimate {} vs {}",
            ekf.state().position,
            truth
        );
        assert_eq!(ekf.health().reset_count, 0);
    }

    #[test]
    fn baro_fusion_corrects_height() {
        let mut ekf = Ekf::new(EkfParams::default());
        ekf.initialize(Vec3::ZERO, Vec3::ZERO, 0.0);
        for i in 0..1000 {
            ekf.predict(&level_imu(i as f64 * 0.004), 0.004);
            if i % 10 == 0 {
                ekf.fuse_baro(&BaroSample {
                    altitude: 10.0,
                    pressure_pa: 101_000.0,
                });
            }
        }
        assert!(
            (ekf.state().altitude() - 10.0).abs() < 0.5,
            "alt {}",
            ekf.state().altitude()
        );
    }

    #[test]
    fn yaw_fusion_corrects_heading() {
        let mut ekf = Ekf::new(EkfParams::default());
        ekf.initialize(Vec3::ZERO, Vec3::ZERO, 0.0);
        for i in 0..1000 {
            ekf.predict(&level_imu(i as f64 * 0.004), 0.004);
            if i % 25 == 0 {
                ekf.fuse_yaw(0.5);
            }
        }
        assert!(
            (ekf.state().yaw() - 0.5).abs() < 0.05,
            "yaw {}",
            ekf.state().yaw()
        );
    }

    #[test]
    fn innovation_gate_rejects_outliers() {
        let mut ekf = Ekf::new(EkfParams::default());
        ekf.initialize(Vec3::ZERO, Vec3::ZERO, 0.0);
        // Tight covariance after some aiding.
        for i in 0..500 {
            ekf.predict(&level_imu(i as f64 * 0.004), 0.004);
            if i % 50 == 0 {
                ekf.fuse_gps(&gps_at(Vec3::ZERO, Vec3::ZERO));
            }
        }
        // A wild 500 m outlier must be rejected.
        let before = ekf.state().position;
        ekf.fuse_gps(&gps_at(Vec3::new(500.0, 0.0, 0.0), Vec3::ZERO));
        assert!((ekf.state().position - before).norm() < 1.0);
        assert!(ekf.health().pos_test_ratio > 1.0);
    }

    #[test]
    fn persistent_rejection_triggers_reset() {
        let mut ekf = Ekf::new(EkfParams::default());
        ekf.initialize(Vec3::ZERO, Vec3::ZERO, 0.0);
        for i in 0..500 {
            ekf.predict(&level_imu(i as f64 * 0.004), 0.004);
            if i % 50 == 0 {
                ekf.fuse_gps(&gps_at(Vec3::ZERO, Vec3::ZERO));
            }
        }
        // The "truth" jumps 500 m away (as if the estimate had diverged
        // during a fault); keep feeding consistent GPS there.
        let far = Vec3::new(500.0, 0.0, 0.0);
        for i in 0..2000 {
            ekf.predict(&level_imu(2.0 + i as f64 * 0.004), 0.004);
            if i % 50 == 0 {
                ekf.fuse_gps(&gps_at(far, Vec3::ZERO));
            }
        }
        assert!(ekf.health().reset_count >= 1, "expected a reset");
        assert!(
            (ekf.state().position - far).norm() < 5.0,
            "pos {}",
            ekf.state().position
        );
    }

    #[test]
    fn estimates_gyro_bias() {
        let mut ekf = Ekf::new(EkfParams::default());
        ekf.initialize(Vec3::ZERO, Vec3::ZERO, 0.0);
        let true_bias = Vec3::new(0.01, -0.02, 0.005);
        let mut rng = Pcg::seed_from(1);
        for i in 0..25_000 {
            let imu = ImuSample {
                accel: Vec3::new(0.0, 0.0, -GRAVITY),
                gyro: true_bias
                    + Vec3::new(
                        rng.normal_with(0.0, 1e-3),
                        rng.normal_with(0.0, 1e-3),
                        rng.normal_with(0.0, 1e-3),
                    ),
                time: i as f64 * 0.004,
            };
            ekf.predict(&imu, 0.004);
            if i % 50 == 0 {
                ekf.fuse_gps(&gps_at(Vec3::ZERO, Vec3::ZERO));
            }
            if i % 10 == 0 {
                ekf.fuse_baro(&BaroSample {
                    altitude: 0.0,
                    pressure_pa: 101_325.0,
                });
            }
            if i % 25 == 0 {
                ekf.fuse_yaw(0.0);
            }
        }
        let err = (ekf.state().gyro_bias - true_bias).norm();
        assert!(
            err < 0.008,
            "bias error {err}, est {}",
            ekf.state().gyro_bias
        );
    }

    #[test]
    fn bias_estimates_are_clamped() {
        let params = EkfParams::default();
        let mut ekf = Ekf::new(params);
        ekf.initialize(Vec3::ZERO, Vec3::ZERO, 0.0);
        // Feed an absurd constant gyro signal; the filter will try to blame
        // bias but must respect the clamp.
        for i in 0..5000 {
            let imu = ImuSample {
                accel: Vec3::new(0.0, 0.0, -GRAVITY),
                gyro: Vec3::splat(30.0),
                time: i as f64 * 0.004,
            };
            ekf.predict(&imu, 0.004);
            if i % 25 == 0 {
                ekf.fuse_yaw(0.0);
            }
        }
        assert!(ekf.state().gyro_bias.max_abs() <= params.max_gyro_bias + 1e-12);
    }

    #[test]
    fn survives_saturated_imu_stream() {
        // 30 s of full-scale IMU garbage must not produce NaNs.
        let mut ekf = Ekf::new(EkfParams::default());
        ekf.initialize(Vec3::ZERO, Vec3::ZERO, 0.0);
        let bad = ImuSample {
            accel: Vec3::splat(16.0 * GRAVITY),
            gyro: Vec3::splat(34.9),
            time: 0.0,
        };
        for i in 0..7500 {
            ekf.predict(
                &ImuSample {
                    time: i as f64 * 0.004,
                    ..bad
                },
                0.004,
            );
            if i % 50 == 0 {
                ekf.fuse_gps(&gps_at(Vec3::ZERO, Vec3::ZERO));
            }
        }
        assert!(ekf.state().is_finite());
        assert!(ekf.covariance_diagonal().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn non_finite_imu_is_dropped() {
        let mut ekf = Ekf::new(EkfParams::default());
        ekf.initialize(Vec3::ZERO, Vec3::ZERO, 0.0);
        let bad = ImuSample {
            accel: Vec3::new(f64::NAN, 0.0, 0.0),
            gyro: Vec3::ZERO,
            time: 0.0,
        };
        ekf.predict(&bad, 0.004);
        assert!(ekf.state().is_finite());
        assert_eq!(ekf.state().position, Vec3::ZERO);
    }

    #[test]
    fn distance_traveled_accumulates() {
        let mut ekf = Ekf::new(EkfParams::default());
        ekf.initialize(Vec3::ZERO, Vec3::ZERO, 0.0);
        // Constant forward specific force for 1 s then coast: distance grows.
        for i in 0..250 {
            let imu = ImuSample {
                accel: Vec3::new(1.0, 0.0, -GRAVITY),
                gyro: Vec3::ZERO,
                time: i as f64 * 0.004,
            };
            ekf.predict(&imu, 0.004);
        }
        assert!(ekf.distance_traveled() > 0.3);
    }

    #[test]
    fn covariance_stays_symmetric_positive() {
        let mut ekf = Ekf::new(EkfParams::default());
        ekf.initialize(Vec3::ZERO, Vec3::ZERO, 0.0);
        let mut rng = Pcg::seed_from(2);
        for i in 0..5000 {
            let imu = ImuSample {
                accel: Vec3::new(rng.normal(), rng.normal(), -GRAVITY + rng.normal()),
                gyro: Vec3::new(rng.normal(), rng.normal(), rng.normal()) * 0.1,
                time: i as f64 * 0.004,
            };
            ekf.predict(&imu, 0.004);
            if i % 50 == 0 {
                ekf.fuse_gps(&gps_at(Vec3::ZERO, Vec3::ZERO));
            }
            if i % 10 == 0 {
                ekf.fuse_baro(&BaroSample {
                    altitude: 0.0,
                    pressure_pa: 101_325.0,
                });
            }
        }
        for v in ekf.covariance_diagonal() {
            assert!(v > 0.0 && v.is_finite(), "variance {v}");
        }
    }
}
