//! Cross-instance consensus voting over a redundant IMU bank.
//!
//! The paper's platform merges redundant IMUs by trusting one primary
//! instance, which is why all-instance faults defeat it. [`ImuVoter`] adds
//! the middle layer the paper's mitigation discussion calls for: every tick
//! it compares each instance against the per-axis median of the healthy
//! subset, flags instances whose deviation persists above threshold,
//! **excludes** them from the merged output, and **reinstates** them after
//! a sustained clean streak (sensor recovered, e.g. the fault window ended).
//!
//! The voter is deliberately unable to help when *all* instances agree on a
//! wrong value (an all-instance fault corrupts every sample identically, so
//! consensus follows the corruption) — that is precisely the paper's
//! finding, and the recovery cascade must escalate past redundancy in that
//! case.

use serde::{Deserialize, Serialize};

use crate::bank::BankVec;
use crate::imu::{consensus, ImuSample};

/// Voting thresholds and persistence counts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VoterConfig {
    /// Gyro deviation (rad/s, vector norm vs consensus) flagging an
    /// instance. Natural cross-instance spread (noise + turn-on bias) stays
    /// under ~0.05 rad/s; the default leaves a wide margin.
    pub gyro_threshold: f64,
    /// Accelerometer deviation (m/s^2) flagging an instance.
    pub accel_threshold: f64,
    /// Deviations beyond `threshold * hard_factor` are *gross*: saturated
    /// or zeroed outputs, not drift. A gross outlier is excluded on the
    /// very tick it appears — waiting out the persistence count would feed
    /// the flight stack garbage for no diagnostic gain, since no healthy
    /// sensor ever deviates that far.
    pub hard_factor: f64,
    /// Consecutive flagged ticks before an instance is excluded.
    pub exclude_after: u32,
    /// Consecutive clean ticks before an excluded instance is reinstated.
    pub reinstate_after: u32,
}

impl Default for VoterConfig {
    fn default() -> Self {
        VoterConfig {
            gyro_threshold: 0.25,
            accel_threshold: 2.0,
            // 10x threshold = 2.5 rad/s / 20 m/s^2: far beyond any healthy
            // spread, far below a saturated full-scale output.
            hard_factor: 10.0,
            // 5 ticks = 20 ms at the 250 Hz IMU rate: fast enough to beat
            // the EKF's divergence, slow enough to ignore single glitches.
            exclude_after: 5,
            // Half a second of clean agreement before trusting it again.
            reinstate_after: 125,
        }
    }
}

/// Per-instance health as seen by the voter this tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct InstanceHealth {
    /// The instance is currently excluded from the merged output.
    pub excluded: bool,
    /// The instance deviated beyond threshold this tick.
    pub flagged: bool,
    /// Gyro deviation vs consensus, rad/s.
    pub gyro_deviation: f64,
    /// Accelerometer deviation vs consensus, m/s^2.
    pub accel_deviation: f64,
}

/// The outcome of one voting tick.
#[derive(Debug, Clone, PartialEq)]
pub struct VoterReport {
    /// The sample the flight stack should consume: the primary instance if
    /// healthy, otherwise the healthiest included instance.
    pub merged: ImuSample,
    /// Per-instance health (inline for banks of up to
    /// [`crate::INLINE_INSTANCES`] instances).
    pub health: BankVec<InstanceHealth>,
    /// Instances excluded on this tick (events for the flight log).
    pub newly_excluded: Vec<usize>,
    /// Instances reinstated on this tick.
    pub newly_reinstated: Vec<usize>,
    /// The instance the merged sample came from.
    pub selected: usize,
    /// True if the configured primary itself is excluded and the voter had
    /// to select a substitute (a primary-switch recommendation).
    pub primary_excluded: bool,
}

impl VoterReport {
    /// Number of instances currently trusted.
    pub fn included_count(&self) -> usize {
        self.health.iter().filter(|h| !h.excluded).count()
    }

    /// True if any instance is currently excluded.
    pub fn any_excluded(&self) -> bool {
        self.health.iter().any(|h| h.excluded)
    }
}

/// Majority-voting monitor for a redundant IMU bank.
///
/// Stateless per-tick input (`&[ImuSample]`), stateful streak tracking
/// inside. Needs at least three instances to out-vote a liar; with fewer it
/// degrades to a pass-through of the primary (no exclusion is ever
/// possible, because consensus cannot identify the faulty party).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImuVoter {
    config: VoterConfig,
    flag_streak: Vec<u32>,
    clean_streak: Vec<u32>,
    excluded: Vec<bool>,
}

impl ImuVoter {
    /// Creates a voter for `count` instances.
    pub fn new(config: VoterConfig, count: usize) -> Self {
        ImuVoter {
            config,
            flag_streak: vec![0; count],
            clean_streak: vec![0; count],
            excluded: vec![false; count],
        }
    }

    /// Creates a voter with default thresholds.
    pub fn with_defaults(count: usize) -> Self {
        ImuVoter::new(VoterConfig::default(), count)
    }

    /// The configuration.
    pub fn config(&self) -> &VoterConfig {
        &self.config
    }

    /// Currently excluded instances.
    pub fn excluded(&self) -> Vec<usize> {
        self.excluded
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.then_some(i))
            .collect()
    }

    /// Processes one bank of samples and selects the merged output.
    ///
    /// `primary` is the flight stack's currently preferred instance; the
    /// merged sample is that instance's unless the voter excluded it.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or its length differs from the count
    /// the voter was built for.
    pub fn vote(&mut self, samples: &[ImuSample], primary: usize) -> VoterReport {
        assert!(!samples.is_empty(), "vote over zero samples");
        assert_eq!(
            samples.len(),
            self.excluded.len(),
            "bank size changed under the voter"
        );
        let n = samples.len();
        let primary = primary.min(n - 1);

        let mut newly_excluded = Vec::new();
        let mut newly_reinstated = Vec::new();

        // Consensus over the trusted subset; if everything is excluded
        // (can't happen through normal updates, but be safe) use the full
        // bank.
        let mut trusted = BankVec::<ImuSample>::with_capacity(n, samples[0]);
        for (s, e) in samples.iter().zip(&self.excluded) {
            if !e {
                trusted.push(*s);
            }
        }
        let reference = if trusted.is_empty() {
            consensus(samples)
        } else {
            consensus(&trusted)
        };

        // Voting needs a majority to out-vote a liar: with fewer than three
        // instances the deviations are symmetric and exclusion would be a
        // coin flip, so streaks only accumulate when n >= 3.
        let can_vote = n >= 3;

        let mut health = BankVec::with_capacity(n, InstanceHealth::default());
        for (i, s) in samples.iter().enumerate() {
            let gyro_deviation = (s.gyro - reference.gyro).norm();
            let accel_deviation = (s.accel - reference.accel).norm();
            let flagged = gyro_deviation > self.config.gyro_threshold
                || accel_deviation > self.config.accel_threshold;
            let gross = gyro_deviation > self.config.gyro_threshold * self.config.hard_factor
                || accel_deviation > self.config.accel_threshold * self.config.hard_factor;

            if can_vote {
                if flagged {
                    self.flag_streak[i] = if gross {
                        // Gross outliers skip the persistence wait.
                        self.config.exclude_after.max(1)
                    } else {
                        self.flag_streak[i].saturating_add(1)
                    };
                    self.clean_streak[i] = 0;
                } else {
                    self.clean_streak[i] = self.clean_streak[i].saturating_add(1);
                    self.flag_streak[i] = 0;
                }

                if !self.excluded[i] && self.flag_streak[i] >= self.config.exclude_after {
                    // Never exclude the last trusted instance: a wrong
                    // sensor beats no sensor, and the cascade above us
                    // handles the rest.
                    let included = self.excluded.iter().filter(|e| !**e).count();
                    if included > 1 {
                        self.excluded[i] = true;
                        newly_excluded.push(i);
                    }
                } else if self.excluded[i] && self.clean_streak[i] >= self.config.reinstate_after {
                    self.excluded[i] = false;
                    newly_reinstated.push(i);
                }
            }

            health.push(InstanceHealth {
                excluded: self.excluded[i],
                flagged,
                gyro_deviation,
                accel_deviation,
            });
        }

        // Exclusions and reinstatements are rare edge events, so the
        // registry lookup here stays off the per-tick path.
        if !newly_excluded.is_empty() {
            imufit_obs::counter("voter_exclusions_total").add(newly_excluded.len() as u64);
        }
        if !newly_reinstated.is_empty() {
            imufit_obs::counter("voter_reinstatements_total").add(newly_reinstated.len() as u64);
        }

        // Select the merged sample: the primary if trusted, otherwise the
        // included instance closest to consensus.
        let primary_excluded = self.excluded[primary];
        let selected = if !primary_excluded {
            primary
        } else {
            let score = |s: &ImuSample| {
                (s.gyro - reference.gyro).norm() + 0.1 * (s.accel - reference.accel).norm()
            };
            samples
                .iter()
                .enumerate()
                .filter(|(i, _)| !self.excluded[*i])
                .min_by(|(_, a), (_, b)| {
                    score(a)
                        .partial_cmp(&score(b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|(i, _)| i)
                .unwrap_or(primary)
        };

        VoterReport {
            merged: samples[selected],
            health,
            newly_excluded,
            newly_reinstated,
            selected,
            primary_excluded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imufit_math::Vec3;

    fn sample(gx: f64, az: f64, t: f64) -> ImuSample {
        ImuSample {
            accel: Vec3::new(0.0, 0.0, az),
            gyro: Vec3::new(gx, 0.0, 0.0),
            time: t,
        }
    }

    fn healthy_bank(t: f64) -> Vec<ImuSample> {
        vec![
            sample(0.010, -9.80, t),
            sample(0.012, -9.79, t),
            sample(0.011, -9.81, t),
        ]
    }

    #[test]
    fn healthy_bank_passes_primary_through() {
        let mut voter = ImuVoter::with_defaults(3);
        let bank = healthy_bank(1.0);
        let report = voter.vote(&bank, 0);
        assert_eq!(report.merged, bank[0]);
        assert_eq!(report.selected, 0);
        assert!(!report.primary_excluded);
        assert!(report.newly_excluded.is_empty());
        assert_eq!(report.included_count(), 3);
    }

    #[test]
    fn persistent_outlier_is_excluded() {
        let mut voter = ImuVoter::with_defaults(3);
        let mut excluded_at = None;
        for tick in 0..10 {
            let mut bank = healthy_bank(tick as f64 * 0.004);
            // A subtle liar: above the flag threshold, below the gross one.
            bank[1] = sample(1.0, -9.8, bank[1].time);
            let report = voter.vote(&bank, 0);
            if report.newly_excluded.contains(&1) {
                excluded_at = Some(tick);
                break;
            }
        }
        // Default persistence: excluded on the 5th flagged tick.
        assert_eq!(excluded_at, Some(4));
        assert_eq!(voter.excluded(), vec![1]);
    }

    #[test]
    fn gross_outlier_is_excluded_immediately() {
        // A saturated instance (deviation far past threshold * hard_factor)
        // must not poison even one merged sample beyond the tick it appears.
        let mut voter = ImuVoter::with_defaults(3);
        let mut bank = healthy_bank(0.0);
        bank[0] = sample(30.0, -9.8, 0.0); // full-scale gyro liar on primary
        let report = voter.vote(&bank, 0);
        assert_eq!(report.newly_excluded, vec![0]);
        assert!(report.primary_excluded);
        assert_ne!(report.selected, 0);
        assert_eq!(report.merged, bank[report.selected]);
    }

    #[test]
    fn excluded_primary_triggers_substitute_selection() {
        let mut voter = ImuVoter::with_defaults(3);
        for tick in 0..10 {
            let mut bank = healthy_bank(tick as f64 * 0.004);
            bank[0] = sample(0.01, 120.0, bank[0].time); // accel liar on primary
            let report = voter.vote(&bank, 0);
            if report.primary_excluded {
                assert_ne!(report.selected, 0);
                assert_eq!(report.merged, bank[report.selected]);
                return;
            }
        }
        panic!("primary was never excluded");
    }

    #[test]
    fn reinstatement_after_sustained_clean_streak() {
        let cfg = VoterConfig {
            reinstate_after: 10,
            ..VoterConfig::default()
        };
        let mut voter = ImuVoter::new(cfg, 3);
        // Break instance 2...
        for tick in 0..8 {
            let mut bank = healthy_bank(tick as f64 * 0.004);
            bank[2] = sample(-25.0, -9.8, bank[2].time);
            voter.vote(&bank, 0);
        }
        assert_eq!(voter.excluded(), vec![2]);
        // ...then let it recover.
        let mut reinstated = false;
        for tick in 8..30 {
            let report = voter.vote(&healthy_bank(tick as f64 * 0.004), 0);
            if report.newly_reinstated.contains(&2) {
                reinstated = true;
                break;
            }
        }
        assert!(reinstated);
        assert!(voter.excluded().is_empty());
    }

    #[test]
    fn all_instance_fault_produces_no_exclusions() {
        // Identical corruption on every instance: consensus follows the
        // fault, deviations are tiny, the voter (correctly) does nothing.
        let mut voter = ImuVoter::with_defaults(3);
        for tick in 0..50 {
            let t = tick as f64 * 0.004;
            let bank = vec![sample(30.0, 80.0, t); 3];
            let report = voter.vote(&bank, 0);
            assert!(report.newly_excluded.is_empty());
            assert_eq!(report.merged, bank[0]);
        }
    }

    #[test]
    fn fewer_than_three_instances_never_exclude() {
        let mut voter = ImuVoter::with_defaults(2);
        for tick in 0..50 {
            let t = tick as f64 * 0.004;
            let bank = vec![sample(0.01, -9.8, t), sample(30.0, 50.0, t)];
            let report = voter.vote(&bank, 0);
            assert!(report.newly_excluded.is_empty());
            assert_eq!(report.merged, bank[0]);
        }
    }

    #[test]
    fn never_excludes_the_last_trusted_instance() {
        let mut voter = ImuVoter::with_defaults(3);
        // Two liars that agree with each other out-vote the honest one:
        // the honest instance is the outlier vs the (corrupted) majority
        // consensus, but the voter must keep at least one instance.
        for tick in 0..100 {
            let t = tick as f64 * 0.004;
            let bank = vec![
                sample(0.01, -9.8, t),
                sample(30.0, 50.0, t),
                sample(30.0, 50.0, t),
            ];
            voter.vote(&bank, 0);
        }
        assert!(voter.excluded().len() < 3);
        let report = voter.vote(
            &[
                sample(0.01, -9.8, 1.0),
                sample(30.0, 50.0, 1.0),
                sample(30.0, 50.0, 1.0),
            ],
            0,
        );
        assert!(report.included_count() >= 1);
    }

    #[test]
    fn banks_beyond_the_inline_size_vote_the_same_way() {
        // More instances than the inline buffers hold: the heap fallback
        // must out-vote a liar exactly as a small bank does.
        let n = crate::INLINE_INSTANCES + 2;
        let mut voter = ImuVoter::with_defaults(n);
        let mut excluded_at = None;
        for tick in 0..10 {
            let t = tick as f64 * 0.004;
            let mut bank: Vec<ImuSample> = (0..n)
                .map(|i| sample(0.010 + 0.001 * i as f64, -9.8, t))
                .collect();
            bank[3] = sample(1.0, -9.8, t);
            let report = voter.vote(&bank, 0);
            assert_eq!(report.health.len(), n);
            assert_eq!(report.merged, bank[0]);
            if report.newly_excluded.contains(&3) {
                excluded_at = Some(tick);
                break;
            }
        }
        assert_eq!(excluded_at, Some(4));
        assert_eq!(voter.excluded(), vec![3]);
    }

    #[test]
    #[should_panic(expected = "vote over zero samples")]
    fn empty_bank_panics() {
        let mut voter = ImuVoter::with_defaults(0);
        let _ = voter.vote(&[], 0);
    }
}
