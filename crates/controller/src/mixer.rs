//! Control allocation: maps collective thrust + normalized torque commands
//! to the four rotor throttles of the quad-X layout, with desaturation.
//!
//! Rotor indexing matches `imufit_dynamics::RotorLayout::quad_x`:
//! 0 = front-right (CCW), 1 = back-left (CCW), 2 = front-left (CW),
//! 3 = back-right (CW).

use serde::{Deserialize, Serialize};

/// Per-rotor (roll, pitch, yaw) contribution signs for quad-X.
///
/// Positive roll command = right side down = more thrust on the left rotors
/// (1, 2). Positive pitch command = nose up = more thrust on the front
/// rotors (0, 2). Positive yaw command = nose right = more thrust on the CCW
/// rotors (0, 1).
const MIX: [[f64; 3]; 4] = [
    [-1.0, 1.0, 1.0],   // 0 front-right, CCW
    [1.0, -1.0, 1.0],   // 1 back-left,  CCW
    [1.0, 1.0, -1.0],   // 2 front-left,  CW
    [-1.0, -1.0, -1.0], // 3 back-right,  CW
];

/// Normalized actuator demands produced by the control cascade.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ActuatorDemand {
    /// Collective throttle in `[0, 1]`.
    pub collective: f64,
    /// Normalized roll torque command.
    pub roll: f64,
    /// Normalized pitch torque command.
    pub pitch: f64,
    /// Normalized yaw torque command.
    pub yaw: f64,
}

/// Maps demands to rotor throttles.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Mixer;

impl Mixer {
    /// Creates a quad-X mixer.
    pub fn new() -> Self {
        Mixer
    }

    /// Computes the four rotor throttles.
    ///
    /// Desaturation: attitude (roll/pitch) authority has priority over yaw,
    /// and the collective is shifted to keep the attitude deltas intact when
    /// possible — the same priority PX4's control allocator uses.
    pub fn mix(&self, demand: &ActuatorDemand) -> [f64; 4] {
        let collective = if demand.collective.is_finite() {
            demand.collective.clamp(0.0, 1.0)
        } else {
            0.0
        };
        let sanitize = |v: f64| {
            if v.is_finite() {
                v.clamp(-1.0, 1.0)
            } else {
                0.0
            }
        };
        let roll = sanitize(demand.roll);
        let pitch = sanitize(demand.pitch);
        let mut yaw = sanitize(demand.yaw);

        // First pass: attitude-only deltas.
        let attitude_delta: [f64; 4] = MIX.map(|m| m[0] * roll + m[1] * pitch);

        // Shift collective so attitude deltas fit in [0, 1].
        let max_d = attitude_delta.iter().cloned().fold(f64::MIN, f64::max);
        let min_d = attitude_delta.iter().cloned().fold(f64::MAX, f64::min);
        let mut base = collective;
        if base + max_d > 1.0 {
            base = 1.0 - max_d;
        }
        if base + min_d < 0.0 {
            base = -min_d;
        }
        base = base.clamp(0.0, 1.0);

        // Scale yaw down if it would push any rotor out of range.
        let headroom: f64 = attitude_delta
            .iter()
            .zip(MIX.iter())
            .map(|(d, m)| {
                let y = m[2] * yaw;
                let v = base + d + y;
                if v > 1.0 {
                    (1.0 - (base + d)).max(0.0) / y.abs().max(1e-9)
                } else if v < 0.0 {
                    (base + d).max(0.0) / y.abs().max(1e-9)
                } else {
                    1.0
                }
            })
            .fold(1.0, f64::min);
        yaw *= headroom.clamp(0.0, 1.0);

        let mut out = [0.0; 4];
        for (i, m) in MIX.iter().enumerate() {
            out[i] = (base + attitude_delta[i] + m[2] * yaw).clamp(0.0, 1.0);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(c: f64, r: f64, p: f64, y: f64) -> ActuatorDemand {
        ActuatorDemand {
            collective: c,
            roll: r,
            pitch: p,
            yaw: y,
        }
    }

    #[test]
    fn pure_collective_is_uniform() {
        let m = Mixer::new();
        let t = m.mix(&demand(0.6, 0.0, 0.0, 0.0));
        for v in t {
            assert!((v - 0.6).abs() < 1e-12);
        }
    }

    #[test]
    fn positive_roll_boosts_left_rotors() {
        let m = Mixer::new();
        let t = m.mix(&demand(0.5, 0.2, 0.0, 0.0));
        // Left rotors are 1 (back-left) and 2 (front-left).
        assert!(t[1] > t[0] && t[2] > t[3]);
        assert!((t[1] - 0.7).abs() < 1e-12);
        assert!((t[0] - 0.3).abs() < 1e-12);
    }

    #[test]
    fn positive_pitch_boosts_front_rotors() {
        let m = Mixer::new();
        let t = m.mix(&demand(0.5, 0.0, 0.2, 0.0));
        assert!(t[0] > t[1] && t[2] > t[3]);
    }

    #[test]
    fn positive_yaw_boosts_ccw_rotors() {
        let m = Mixer::new();
        let t = m.mix(&demand(0.5, 0.0, 0.0, 0.2));
        assert!(t[0] > t[2] && t[1] > t[3]);
    }

    #[test]
    fn outputs_always_in_unit_range() {
        let m = Mixer::new();
        for c in [-1.0, 0.0, 0.3, 0.9, 2.0] {
            for r in [-2.0, -0.5, 0.0, 0.5, 2.0] {
                for y in [-1.5, 0.0, 1.5] {
                    let t = m.mix(&demand(c, r, r * 0.5, y));
                    for v in t {
                        assert!((0.0..=1.0).contains(&v), "out of range: {v}");
                    }
                }
            }
        }
    }

    #[test]
    fn attitude_priority_over_yaw_when_saturated() {
        let m = Mixer::new();
        // Huge yaw with meaningful roll: roll differential must survive.
        let t = m.mix(&demand(0.5, 0.3, 0.0, 1.0));
        let roll_diff = (t[1] + t[2]) - (t[0] + t[3]);
        assert!(roll_diff > 0.5, "roll authority lost: {t:?}");
    }

    #[test]
    fn collective_shifts_to_preserve_attitude() {
        let m = Mixer::new();
        // Full collective with roll demand: base must drop so the roll
        // differential still exists.
        let t = m.mix(&demand(1.0, 0.3, 0.0, 0.0));
        assert!(
            t[1] > t[0],
            "roll differential lost at full throttle: {t:?}"
        );
    }

    #[test]
    fn non_finite_demands_are_safe() {
        let m = Mixer::new();
        let t = m.mix(&demand(f64::NAN, f64::INFINITY, -f64::INFINITY, f64::NAN));
        for v in t {
            assert!(v.is_finite() && (0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn mix_signs_match_dynamics_layout() {
        // Cross-check against imufit-dynamics conventions: rotor 0 sits at
        // (+x, +y) and spins CCW. More thrust on rotor 0 gives negative roll
        // torque (-y*T) and positive pitch torque (+x*T) and positive yaw.
        assert_eq!(MIX[0], [-1.0, 1.0, 1.0]);
        // Sum of each column is zero: commands are pure differentials.
        for col in 0..3 {
            let s: f64 = MIX.iter().map(|m| m[col]).sum();
            assert_eq!(s, 0.0);
        }
    }
}
