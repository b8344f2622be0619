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

        propagate_covariance(
            &mut self.covariance,
            &Jacobian::new(rot, accel_body, omega, dt),
            &process_noise(&p, dt),
        );

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

        // Covariance update P <- sym((I - K H) P), H = e_idx^T, in place:
        // the rank-1 update row by row, then each upper-triangle pair is
        // averaged and written to both halves. Bit for bit the dense update
        // followed by `symmetrize()`, without the copies.
        let p_row = self.covariance.rows()[idx];
        let m = self.covariance.rows_mut();
        for (row, ki) in m.iter_mut().zip(k) {
            for (v, pj) in row.iter_mut().zip(p_row) {
                *v -= ki * pj;
            }
        }
        for i in 0..N {
            for j in i..N {
                let v = 0.5 * (m[i][j] + m[j][i]);
                m[i][j] = v;
                m[j][i] = v;
            }
        }
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
}

/// The diagonal process noise of one prediction over `dt` seconds.
fn process_noise(p: &EkfParams, dt: f64) -> [f64; N] {
    let mut q = [0.0; N];
    for i in 0..3 {
        q[IDX_POS + i] = 1e-9;
        q[IDX_VEL + i] = p.accel_noise * p.accel_noise * dt;
        q[IDX_ANG + i] = p.gyro_noise * p.gyro_noise * dt;
        q[IDX_BG + i] = p.gyro_bias_walk * p.gyro_bias_walk * dt;
        q[IDX_BA + i] = p.accel_bias_walk * p.accel_bias_walk * dt;
    }
    q
}

/// Largest covariance magnitude the filter carries before it falls back to
/// a conservative diagonal.
const MAX_VAR: f64 = 1e9;

/// Smallest variance the filter carries.
const MIN_VAR: f64 = 1e-12;

/// True while `v` needs no clamp: one comparison that is false for NaN and
/// both infinities, so over a matrix it is `is_finite() && max_abs() <=
/// MAX_VAR` in a single pass.
fn within_max_var(v: f64) -> bool {
    v.abs() <= MAX_VAR
}

/// Most structural nonzeros in one row of the Jacobian (a velocity row).
const ROW_NNZ_MAX: usize = 7;

/// Columns of the structural nonzeros of each row of the error-state
/// Jacobian, ascending; 45 of its 225 entries. Position rows hold the
/// identity and `dt`, velocity rows the identity, `-R [a]x dt` and `-R dt`,
/// attitude rows `I - [w]x dt` and `-dt`, bias rows the identity.
const F_COLS: [&[usize]; N] = [
    &[0, 3],
    &[1, 4],
    &[2, 5],
    &[3, 6, 7, 8, 12, 13, 14],
    &[4, 6, 7, 8, 12, 13, 14],
    &[5, 6, 7, 8, 12, 13, 14],
    &[6, 7, 8, 9],
    &[6, 7, 8, 10],
    &[6, 7, 8, 11],
    &[9],
    &[10],
    &[11],
    &[12],
    &[13],
    &[14],
];

/// The error-state Jacobian `F = I + A dt` of one prediction, kept as its
/// structural nonzeros: `vals[r][i]` is the entry in column `F_COLS[r][i]`,
/// and every entry outside that pattern is exactly zero.
#[derive(Debug, Clone, Copy)]
struct Jacobian {
    vals: [[f64; ROW_NNZ_MAX]; N],
}

impl Jacobian {
    fn new(rot: Mat3, accel_body: Vec3, omega: Vec3, dt: f64) -> Self {
        // d(dv)/d(dtheta) = -R [a]x dt
        let ra = (rot * Mat3::skew(accel_body)).scale(-dt);
        // d(dv)/d(dba) = -R dt
        let rb = rot.scale(-dt);
        // d(dtheta)/d(dtheta) = I - [w]x dt
        let ww = Mat3::IDENTITY - Mat3::skew(omega).scale(dt);
        let mut vals = [[0.0; ROW_NNZ_MAX]; N];
        for i in 0..3 {
            // d(dp)/d(dv) = I dt
            vals[IDX_POS + i][..2].copy_from_slice(&[1.0, dt]);
            vals[IDX_VEL + i] = [
                1.0,
                ra.at(i, 0),
                ra.at(i, 1),
                ra.at(i, 2),
                rb.at(i, 0),
                rb.at(i, 1),
                rb.at(i, 2),
            ];
            // d(dtheta)/d(dbg) = -I dt
            vals[IDX_ANG + i][..4].copy_from_slice(&[ww.at(i, 0), ww.at(i, 1), ww.at(i, 2), -dt]);
            vals[IDX_BG + i][0] = 1.0;
            vals[IDX_BA + i][0] = 1.0;
        }
        Jacobian { vals }
    }

    /// Row `r`'s `(column, value)` pairs in ascending column order.
    fn row(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        F_COLS[r].iter().copied().zip(self.vals[r])
    }
}

/// One covariance prediction in place: `P <- sym(F P F^T + diag(q))`, then
/// the clamp that keeps `P` sane through extreme fault windows.
///
/// Bit-identical to the dense `(F * P * F^T + diag(q)).symmetrize()` and
/// the clamp after it (DESIGN.md §6, "Covariance propagation"): both
/// products sum the same nonzero terms in the same order from `+0.0`, and a
/// skipped term is a zero that cannot change such a sum.
fn propagate_covariance(p: &mut Cov, f: &Jacobian, q: &[f64; N]) {
    // A = F P: one axpy of a row of P per nonzero of F, in ascending column
    // order, skipping exact zeros just as `SMatrix::mul` does. Each row of
    // A is stored as a column of `at` (A transposed).
    let mut at = [[0.0; N]; N];
    for r in 0..N {
        let mut ar = [0.0; N];
        for (k, fv) in f.row(r) {
            if fv == 0.0 {
                continue;
            }
            for (acc, pv) in ar.iter_mut().zip(&p.rows()[k]) {
                *acc += fv * pv;
            }
        }
        for (atc, v) in at.iter_mut().zip(ar) {
            atc[r] = v;
        }
    }
    // M^T = F A^T the same way: row c of M^T accumulates one row of A^T
    // per nonzero of F's row c.
    let mut mt = [[0.0; N]; N];
    for (c, mtc) in mt.iter_mut().enumerate() {
        for (k, fv) in f.row(c) {
            for (acc, av) in mtc.iter_mut().zip(&at[k]) {
                *acc += av * fv;
            }
        }
    }
    // P = sym(M + diag(q)), testing the clamp on the way.
    let out = p.rows_mut();
    let mut sane = true;
    for r in 0..N {
        let d = mt[r][r] + q[r];
        let v = 0.5 * (d + d);
        sane &= within_max_var(v);
        out[r][r] = v;
        for c in r + 1..N {
            let v = 0.5 * (mt[c][r] + mt[r][c]);
            sane &= within_max_var(v);
            out[r][c] = v;
            out[c][r] = v;
        }
    }
    if !sane {
        // The dense product adds A[i][k] * F[i][k] for every k, zero F or
        // not, so a non-finite entry anywhere in A's row i leaves diagonal
        // entry i non-finite. The sparse product skips the zero-F terms;
        // mark the entry so the rebuild sees the same diagonal.
        for i in 0..N {
            if !at.iter().all(|atc| atc[i].is_finite()) {
                out[i][i] = f64::NAN;
            }
        }
        // Rebuild a conservative diagonal from the clamped current one.
        let d = p.diagonal();
        *p = Cov::from_diagonal(d.map(|v| {
            if v.is_finite() {
                v.clamp(MIN_VAR, MAX_VAR)
            } else {
                MAX_VAR
            }
        }));
    }
    // Variances must stay positive.
    for (i, row) in p.rows_mut().iter_mut().enumerate() {
        if row[i] < MIN_VAR {
            row[i] = MIN_VAR;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imufit_math::rng::Pcg;
    use proptest::prelude::*;

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

    /// Writes a 3x3 block into the big matrix.
    fn set_block3(m: &mut Cov, row: usize, col: usize, b: &Mat3) {
        for r in 0..3 {
            for c in 0..3 {
                m[(row + r, col + c)] = b.at(r, c);
            }
        }
    }

    /// The dense Jacobian the sparse one replaced: the identity plus five
    /// 3x3 blocks.
    fn dense_jacobian(rot: Mat3, accel_body: Vec3, omega: Vec3, dt: f64) -> Cov {
        let mut f = Cov::identity();
        let i3 = Mat3::IDENTITY;
        set_block3(&mut f, IDX_POS, IDX_VEL, &i3.scale(dt));
        let ra = (rot * Mat3::skew(accel_body)).scale(-dt);
        set_block3(&mut f, IDX_VEL, IDX_ANG, &ra);
        set_block3(&mut f, IDX_VEL, IDX_BA, &rot.scale(-dt));
        let ww = i3 - Mat3::skew(omega).scale(dt);
        set_block3(&mut f, IDX_ANG, IDX_ANG, &ww);
        set_block3(&mut f, IDX_ANG, IDX_BG, &i3.scale(-dt));
        f
    }

    /// The two-pass clamp the fused predicate replaced.
    fn dense_clamp(p: &mut Cov) {
        if !p.is_finite() || p.max_abs() > MAX_VAR {
            let d = p.diagonal();
            let mut nd = [0.0; N];
            for i in 0..N {
                nd[i] = if d[i].is_finite() {
                    d[i].clamp(1e-12, MAX_VAR)
                } else {
                    MAX_VAR
                };
            }
            *p = Cov::from_diagonal(nd);
        }
        for i in 0..N {
            if p[(i, i)] < 1e-12 {
                p[(i, i)] = 1e-12;
            }
        }
    }

    /// The oracle: the dense covariance prediction and clamp that
    /// `propagate_covariance` must reproduce bit for bit.
    fn dense_propagate(p: &Cov, f: &Cov, q: &[f64; N]) -> Cov {
        let mut out = (*f * *p * f.transpose() + Cov::from_diagonal(*q)).symmetrize();
        dense_clamp(&mut out);
        out
    }

    /// An SPD covariance `L L^T` whose largest entry is about `magnitude`,
    /// passed through the clamp as every covariance entering `predict` is,
    /// with the rows and columns of one reset zeroed: 0 none, 1
    /// `reset_velocity`, 2 `reset_to_gps`, 3 the baro height reset.
    fn spd_covariance(seed: u64, magnitude: f64, reset: usize) -> Cov {
        let mut rng = Pcg::seed_from(seed);
        let l = Cov::from_fn(|r, c| match c.cmp(&r) {
            std::cmp::Ordering::Greater => 0.0,
            std::cmp::Ordering::Equal => 0.1 + rng.uniform(),
            std::cmp::Ordering::Less => rng.normal(),
        });
        let llt = l * l.transpose();
        let mut p = llt.scale(magnitude / llt.max_abs());
        let mut zero = |idx: usize, var: f64| {
            for j in 0..N {
                p[(idx, j)] = 0.0;
                p[(j, idx)] = 0.0;
            }
            p[(idx, idx)] = var;
        };
        match reset {
            1 => (IDX_VEL..IDX_VEL + 3).for_each(|i| zero(i, 0.25)),
            2 => {
                (IDX_POS..IDX_POS + 3).for_each(|i| zero(i, 1.44));
                (IDX_VEL..IDX_VEL + 3).for_each(|i| zero(i, 0.25));
            }
            3 => zero(IDX_POS + 2, 1.0),
            _ => {}
        }
        dense_clamp(&mut p);
        p
    }

    /// Runs the sparse kernel and the dense oracle on one input and
    /// requires the same bits in all 225 entries.
    fn assert_matches_oracle(p: &Cov, rot: Mat3, accel_body: Vec3, omega: Vec3, dt: f64) {
        let q = process_noise(&EkfParams::default(), dt);
        let mut sparse = *p;
        propagate_covariance(&mut sparse, &Jacobian::new(rot, accel_body, omega, dt), &q);
        let dense = dense_propagate(p, &dense_jacobian(rot, accel_body, omega, dt), &q);
        for r in 0..N {
            for c in 0..N {
                let (s, d) = (sparse[(r, c)], dense[(r, c)]);
                assert_eq!(
                    s.to_bits(),
                    d.to_bits(),
                    "entry ({r}, {c}): sparse {s:e}, dense {d:e}"
                );
            }
        }
    }

    proptest! {
        /// The sparse in-place kernel reproduces the dense expression on
        /// the inputs where sparsity and signed zeros matter: yaw-only
        /// attitudes (exact zeros in R), gyro axes of exactly 0, the whole
        /// dt range, reset rows and columns, entries near the 1e9 clamp,
        /// and accelerations large enough to overflow the products.
        #[test]
        fn sparse_propagation_matches_the_dense_oracle_bitwise(
            attitude in (0usize..3, -3.2f64..3.2, -0.7f64..0.7, -0.7f64..0.7),
            gyro in (0u8..8, -4.0f64..4.0, -4.0f64..4.0, -4.0f64..4.0),
            accel in (
                prop::sample::select(vec![1.0, 1.0, 1.0, 1e3, 1e300, 1e306]),
                -2.0f64..2.0,
                -2.0f64..2.0,
                -12.0f64..2.0,
            ),
            dt in 1e-4f64..0.02,
            cov in (
                0u64..u64::MAX,
                prop::sample::select(vec![1e-6, 1.0, 1e3, 5e8, 9.9e8, 1e9]),
                0usize..4,
            ),
        ) {
            let (kind, yaw, roll, pitch) = attitude;
            let rot = match kind {
                0 => Quat::from_yaw(yaw),
                1 => Quat::from_euler(roll, pitch, yaw),
                _ => Quat::IDENTITY,
            }
            .to_rotation_matrix();
            let (zero_axes, gx, gy, gz) = gyro;
            let axis = |bit: u8, v: f64| if zero_axes & bit != 0 { 0.0 } else { v };
            let omega = Vec3::new(axis(1, gx), axis(2, gy), axis(4, gz));
            let (scale, ax, ay, az) = accel;
            let accel_body = Vec3::new(ax, ay, az) * scale;
            let (seed, magnitude, reset) = cov;
            let p = spd_covariance(seed, magnitude, reset);
            assert_matches_oracle(&p, rot, accel_body, omega, dt);
        }
    }

    #[test]
    fn oracle_cases_reach_both_clamp_paths() {
        // Yaw-only, so -R dt holds exact zeros that both kernels skip.
        let rot = Quat::from_yaw(0.7).to_rotation_matrix();
        let omega = Vec3::new(0.0, 0.3, 0.0);
        let hover = Vec3::new(0.3, -0.2, -9.8);
        // A covariance a fusion overflowed: an infinite accel-bias entry
        // meets those zeros, which only the zero skip keeps out of A.
        let mut overflowed = spd_covariance(7, 1.0, 0);
        overflowed[(IDX_BA, IDX_BA + 1)] = f64::INFINITY;
        overflowed[(IDX_BA + 1, IDX_BA)] = f64::INFINITY;
        let cases = [
            // Finite products past 1e9.
            (spd_covariance(7, 1e9, 0), hover),
            // Products that overflow inside A, the path that marks the
            // diagonal NaN.
            (spd_covariance(7, 1.0, 0), hover * 1e300),
            (spd_covariance(7, 1e9, 0), hover * 1e306),
            (overflowed, hover),
        ];
        let q = process_noise(&EkfParams::default(), 0.02);
        for (p, accel) in cases {
            assert_matches_oracle(&p, rot, accel, omega, 0.02);
            let mut out = p;
            propagate_covariance(&mut out, &Jacobian::new(rot, accel, omega, 0.02), &q);
            assert_eq!(out[(0, 1)], 0.0, "clamp fired for accel {accel}");
        }
    }

    #[test]
    fn fused_clamp_predicate_matches_the_two_pass_test() {
        let edges = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            MAX_VAR,
            -MAX_VAR,
            MAX_VAR.next_up(),
            -MAX_VAR.next_up(),
            0.0,
            -0.0,
        ];
        for v in edges {
            for (r, c) in [(0, 0), (3, 7), (14, 2)] {
                let mut m = Cov::identity();
                m[(r, c)] = v;
                let two_pass = !m.is_finite() || m.max_abs() > MAX_VAR;
                let fused = !m.rows().iter().flatten().all(|&x| within_max_var(x));
                assert_eq!(fused, two_pass, "{v:e} at ({r}, {c})");
            }
        }
    }

    #[test]
    fn fused_rank_one_update_matches_the_dense_update_bitwise() {
        for (seed, idx) in [
            (1, IDX_POS),
            (2, IDX_VEL + 1),
            (3, IDX_POS + 2),
            (4, IDX_ANG + 2),
        ] {
            let mut ekf = Ekf::new(EkfParams::default());
            ekf.initialize(Vec3::ZERO, Vec3::ZERO, 0.0);
            ekf.covariance = spd_covariance(seed, 2.0, (seed % 4) as usize);
            let before = ekf.covariance;
            let s = before[(idx, idx)] + 0.09;
            let (accepted, _) = ekf.fuse_scalar(idx, 0.1, 0.09);
            assert!(accepted);
            let mut dense = before;
            for i in 0..N {
                for j in 0..N {
                    dense[(i, j)] -= before[(i, idx)] / s * before[(idx, j)];
                }
            }
            let dense = dense.symmetrize();
            for i in 0..N {
                for j in 0..N {
                    assert_eq!(ekf.covariance[(i, j)].to_bits(), dense[(i, j)].to_bits());
                }
            }
        }
    }
}
