//! Scenario zoo — canned drift/fault storylines for closed-loop serving.
//!
//! The adaptive experiments in Section 6.3 of the paper perturb workloads
//! with a single [`PatternChange`] applied every epoch. Real systems see
//! richer weather: daily cycles, flash crowds, regional outages, lossy
//! partitions, and read/write role swaps. A [`Scenario`] names one such
//! storyline and compiles it — purely and deterministically — into the
//! existing per-epoch machinery: a [`PatternChange`] drift (applied with the
//! epoch's seeded drift RNG), an optional Zipf-exponent spike that reshapes
//! read popularity, and a [`FaultSpec`] that the serve layer arms on the
//! epoch's simulator.
//!
//! Compilation takes no RNG: the same `(scenario, epochs, num_sites,
//! period)` always yields the same shift plan. All randomness enters later
//! through the seeded drift/trace/fault streams, so a scenario run is
//! bitwise reproducible end to end.

use drp_core::DenseMatrix;
use drp_net::sim::FaultPlan;
use serde::{Deserialize, Serialize};

use crate::generator::WorkloadError;
use crate::{PatternChange, Result};

/// Faults injected into one serving epoch, by a scenario or given
/// explicitly: `crashes` are `(site, from, until)` outage windows in
/// simulator ticks, and the drop/jitter knobs degrade message delivery for
/// the whole epoch.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Site outage windows as `(site, from, until)` with `from < until`.
    pub crashes: Vec<(usize, u64, u64)>,
    /// Probability in `[0, 1]` that any message is silently dropped.
    pub drop_probability: f64,
    /// Maximum extra delivery delay in ticks.
    pub jitter: u64,
}

impl FaultSpec {
    /// The simulator's fault schedule for these windows, seeded for the
    /// drop and jitter draws.
    pub fn plan(&self, seed: u64) -> FaultPlan {
        let mut plan = FaultPlan::new(seed);
        for &(site, from, until) in &self.crashes {
            plan = plan.crash(site, from, until);
        }
        if self.drop_probability > 0.0 {
            plan = plan.drop_probability(self.drop_probability);
        }
        if self.jitter > 0 {
            plan = plan.jitter(self.jitter);
        }
        plan
    }

    /// Checks the fault windows for degenerate values.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::BadSpec`] on NaN drop probabilities,
    /// probabilities outside `[0, 1]`, crash sites out of range, or
    /// zero-length crash windows.
    pub fn validate(&self, num_sites: usize) -> Result<()> {
        if !(0.0..=1.0).contains(&self.drop_probability) {
            return Err(WorkloadError::BadSpec {
                reason: format!("drop probability {} out of [0, 1]", self.drop_probability),
            });
        }
        for &(site, from, until) in &self.crashes {
            if site >= num_sites {
                return Err(WorkloadError::BadSpec {
                    reason: format!("crash site {site} out of range (M={num_sites})"),
                });
            }
            if until <= from {
                return Err(WorkloadError::BadSpec {
                    reason: format!("crash window {from}..{until} on site {site} is empty"),
                });
            }
        }
        Ok(())
    }
}

/// A deterministic multiplicative read surge on a strided object subset.
///
/// Objects whose index satisfies `k % stride == phase` have every read
/// count scaled by `num / den`, computed exactly in integer arithmetic.
/// Surges take no RNG, so a boost of `num/1` at one epoch is exactly
/// undone by `1/num` at a later one — scenarios use matched pairs to
/// model periodic demand (day/night tides, ramp-and-collapse crowds)
/// that a forecaster can genuinely anticipate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObjectSurge {
    /// Subset stride: objects with `k % stride == phase` are affected.
    pub stride: usize,
    /// Subset phase within the stride, `phase < stride`.
    pub phase: usize,
    /// Scale numerator.
    pub num: u64,
    /// Scale denominator.
    pub den: u64,
}

impl ObjectSurge {
    /// Checks the surge for degenerate values.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::BadSpec`] on a zero stride, a phase outside
    /// the stride, or a zero numerator or denominator.
    pub fn validate(&self) -> Result<()> {
        if self.stride == 0 {
            return Err(WorkloadError::BadSpec {
                reason: "surge stride must be at least 1".into(),
            });
        }
        if self.phase >= self.stride {
            return Err(WorkloadError::BadSpec {
                reason: format!("surge phase {} outside stride {}", self.phase, self.stride),
            });
        }
        if self.num == 0 || self.den == 0 {
            return Err(WorkloadError::BadSpec {
                reason: format!("surge scale {}/{} must be positive", self.num, self.den),
            });
        }
        Ok(())
    }

    /// Scales the affected read columns in place, exactly.
    pub fn apply(&self, reads: &mut DenseMatrix<u64>) {
        for k in (self.phase..reads.cols()).step_by(self.stride) {
            for i in 0..reads.rows() {
                let v = *reads.get(i, k);
                *reads.get_mut(i, k) =
                    (u128::from(v) * u128::from(self.num) / u128::from(self.den)) as u64;
            }
        }
    }
}

/// What happens at one epoch boundary of a compiled scenario.
///
/// `drift`, `zipf_exponent` and `surges` describe the transition *into* the
/// epoch and are always empty at epoch 0 (the boot workload is the starting
/// point); `faults` applies *during* the epoch and may fire from epoch 0
/// onward.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochShift {
    /// Pattern drift applied before the epoch starts.
    pub drift: Option<PatternChange>,
    /// Zipf exponent used to re-skew read popularity before the epoch.
    pub zipf_exponent: Option<f64>,
    /// Deterministic read surges applied before the epoch (and before any
    /// Zipf re-skew or drift).
    pub surges: Vec<ObjectSurge>,
    /// Fault windows active during the epoch.
    pub faults: Option<FaultSpec>,
}

impl EpochShift {
    const fn quiet() -> Self {
        EpochShift {
            drift: None,
            zipf_exponent: None,
            surges: Vec::new(),
            faults: None,
        }
    }
}

/// A named drift/fault storyline for the serve loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scenario {
    /// Day and night epochs alternate: reads on even-indexed objects swell
    /// fourfold by day, odd-indexed objects by night, with each tide exactly
    /// undone at the next boundary. Perfectly periodic, so a smoothing
    /// forecaster tunes for the average while a reactive policy chases each
    /// phase one epoch late.
    DiurnalCycle,
    /// Quiet, then a small ramp, then a Zipf-exponent spike concentrates a
    /// large read surge on few objects; the crowd persists afterwards.
    FlashCrowd,
    /// A quarter of the sites go dark for the middle third of the run while
    /// the surviving traffic turns write-lean.
    RegionalFailover,
    /// Odd epochs pair message loss and jitter with strong mixed drift —
    /// partitions correlated with the pattern change they mask.
    PartitionDrift,
    /// Read surges in the first half of the run, write surges in the
    /// second — the access mix turns inside out.
    ReadWriteInversion,
}

impl Scenario {
    /// Every scenario, in canonical order.
    pub const ALL: [Scenario; 5] = [
        Scenario::DiurnalCycle,
        Scenario::FlashCrowd,
        Scenario::RegionalFailover,
        Scenario::PartitionDrift,
        Scenario::ReadWriteInversion,
    ];

    /// The scenario's canonical CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::DiurnalCycle => "diurnal",
            Scenario::FlashCrowd => "flash-crowd",
            Scenario::RegionalFailover => "regional-failover",
            Scenario::PartitionDrift => "partition-drift",
            Scenario::ReadWriteInversion => "read-write-inversion",
        }
    }

    /// Parses a CLI name.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::BadSpec`] listing the valid names when the
    /// input matches none of them.
    pub fn parse(name: &str) -> Result<Scenario> {
        Scenario::ALL
            .into_iter()
            .find(|s| s.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Scenario::ALL.iter().map(|s| s.name()).collect();
                WorkloadError::BadSpec {
                    reason: format!(
                        "unknown scenario `{name}` (expected one of: {})",
                        names.join(", ")
                    ),
                }
            })
    }

    /// Compiles the scenario into one [`EpochShift`] per epoch.
    ///
    /// Pure and deterministic: no RNG is consulted, so the same arguments
    /// always produce the same plan. Every generated drift and fault window
    /// is validated before the plan is returned.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::BadSpec`] when `epochs`, `num_sites`, or
    /// `period` is zero, or when a generated shift fails validation.
    pub fn compile(self, epochs: usize, num_sites: usize, period: u64) -> Result<Vec<EpochShift>> {
        if epochs == 0 {
            return Err(WorkloadError::BadSpec {
                reason: "scenario needs at least one epoch".into(),
            });
        }
        if num_sites == 0 {
            return Err(WorkloadError::BadSpec {
                reason: "scenario needs at least one site".into(),
            });
        }
        if period == 0 {
            return Err(WorkloadError::BadSpec {
                reason: "scenario needs a non-zero period".into(),
            });
        }

        let mut plan = vec![EpochShift::quiet(); epochs];
        match self {
            Scenario::DiurnalCycle => {
                // Odd epochs are day (even-indexed objects surge), even
                // epochs are night (odd-indexed objects surge); the previous
                // tide recedes exactly before the next one rises. The
                // alternation is exact and RNG-free, so the cycle is the one
                // scenario a demand forecaster can fully anticipate.
                const TIDE: u64 = 4;
                for (e, shift) in plan.iter_mut().enumerate().skip(1) {
                    // Day (odd e) boosts phase 0, night boosts phase 1.
                    let rising = 1 - e % 2;
                    let receding = e % 2;
                    if e >= 2 {
                        shift.surges.push(ObjectSurge {
                            stride: 2,
                            phase: receding,
                            num: 1,
                            den: TIDE,
                        });
                    }
                    shift.surges.push(ObjectSurge {
                        stride: 2,
                        phase: rising,
                        num: TIDE,
                        den: 1,
                    });
                }
            }
            Scenario::FlashCrowd => {
                let spike = (epochs / 2).max(1);
                if spike >= 2 {
                    plan[spike - 1].drift = Some(PatternChange {
                        change_percent: 150.0,
                        objects_percent: 20.0,
                        read_share: 1.0,
                    });
                }
                if spike < epochs {
                    plan[spike].zipf_exponent = Some(2.0);
                    plan[spike].drift = Some(PatternChange {
                        change_percent: 500.0,
                        objects_percent: 20.0,
                        read_share: 1.0,
                    });
                }
            }
            Scenario::RegionalFailover => {
                let region = num_sites.div_ceil(4);
                let from = (epochs / 3).max(1);
                let until = (2 * epochs / 3).max(from + 1).min(epochs);
                let crashes: Vec<(usize, u64, u64)> = (0..region)
                    .map(|site| (site, period / 8, period / 2 + 1))
                    .collect();
                for shift in &mut plan[from..until] {
                    shift.faults = Some(FaultSpec {
                        crashes: crashes.clone(),
                        drop_probability: 0.0,
                        jitter: 0,
                    });
                }
                if from < epochs {
                    plan[from].drift = Some(PatternChange {
                        change_percent: 200.0,
                        objects_percent: 30.0,
                        read_share: 0.2,
                    });
                }
            }
            Scenario::PartitionDrift => {
                for (e, shift) in plan.iter_mut().enumerate() {
                    if e % 2 == 1 {
                        shift.drift = Some(PatternChange {
                            change_percent: 400.0,
                            objects_percent: 50.0,
                            read_share: 0.7,
                        });
                        shift.faults = Some(FaultSpec {
                            crashes: Vec::new(),
                            drop_probability: 0.05,
                            jitter: 3,
                        });
                    }
                }
            }
            Scenario::ReadWriteInversion => {
                let half = epochs.div_ceil(2);
                for (e, shift) in plan.iter_mut().enumerate().skip(1) {
                    shift.drift = Some(PatternChange {
                        change_percent: 250.0,
                        objects_percent: 40.0,
                        read_share: if e < half { 1.0 } else { 0.0 },
                    });
                }
            }
        }

        for (e, shift) in plan.iter().enumerate() {
            if let Some(drift) = &shift.drift {
                drift.validate()?;
            }
            if let Some(s) = shift.zipf_exponent {
                if !s.is_finite() || s <= 0.0 {
                    return Err(WorkloadError::BadSpec {
                        reason: format!("zipf exponent {s} at epoch {e} must be finite and > 0"),
                    });
                }
            }
            for surge in &shift.surges {
                surge.validate()?;
            }
            if let Some(faults) = &shift.faults {
                faults.validate(num_sites)?;
            }
            if e == 0
                && (shift.drift.is_some()
                    || shift.zipf_exponent.is_some()
                    || !shift.surges.is_empty())
            {
                return Err(WorkloadError::BadSpec {
                    reason: "epoch 0 cannot carry drift (it is the boot workload)".into(),
                });
            }
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_compiles_and_validates() {
        for scenario in Scenario::ALL {
            for epochs in [1, 2, 3, 4, 6, 9] {
                let plan = scenario.compile(epochs, 8, 256).unwrap();
                assert_eq!(plan.len(), epochs, "{}", scenario.name());
                assert!(plan[0].drift.is_none());
                assert!(plan[0].zipf_exponent.is_none());
                assert!(plan[0].surges.is_empty());
            }
        }
    }

    #[test]
    fn compilation_is_deterministic() {
        for scenario in Scenario::ALL {
            let a = scenario.compile(6, 10, 128).unwrap();
            let b = scenario.compile(6, 10, 128).unwrap();
            assert_eq!(a, b, "{}", scenario.name());
        }
    }

    #[test]
    fn names_round_trip_and_unknowns_list_the_menu() {
        for scenario in Scenario::ALL {
            assert_eq!(Scenario::parse(scenario.name()).unwrap(), scenario);
        }
        let err = Scenario::parse("rush-hour").unwrap_err().to_string();
        assert!(err.contains("rush-hour"), "{err}");
        for scenario in Scenario::ALL {
            assert!(err.contains(scenario.name()), "{err}");
        }
    }

    #[test]
    fn degenerate_dimensions_are_rejected() {
        assert!(Scenario::DiurnalCycle.compile(0, 8, 256).is_err());
        assert!(Scenario::DiurnalCycle.compile(4, 0, 256).is_err());
        assert!(Scenario::DiurnalCycle.compile(4, 8, 0).is_err());
    }

    #[test]
    fn fault_validation_rejects_degenerates() {
        let empty_window = FaultSpec {
            crashes: vec![(0, 5, 5)],
            drop_probability: 0.0,
            jitter: 0,
        };
        assert!(empty_window.validate(4).is_err());
        let nan_drop = FaultSpec {
            crashes: Vec::new(),
            drop_probability: f64::NAN,
            jitter: 0,
        };
        assert!(nan_drop.validate(4).is_err());
        let out_of_range_site = FaultSpec {
            crashes: vec![(9, 0, 1)],
            drop_probability: 0.0,
            jitter: 0,
        };
        assert!(out_of_range_site.validate(4).is_err());
    }

    #[test]
    fn fault_plans_arm_exactly_the_spec() {
        let spec = FaultSpec {
            crashes: vec![(1, 10, 60), (3, 0, 5)],
            drop_probability: 0.02,
            jitter: 2,
        };
        let want = FaultPlan::new(7)
            .crash(1, 10, 60)
            .crash(3, 0, 5)
            .drop_probability(0.02)
            .jitter(2);
        assert_eq!(spec.plan(7), want);
        // The default spec arms nothing beyond the seed.
        assert_eq!(FaultSpec::default().plan(7), FaultPlan::new(7));
        assert!(FaultSpec::default().validate(1).is_ok());
    }

    #[test]
    fn nan_change_percent_is_rejected() {
        let bad = PatternChange {
            change_percent: f64::NAN,
            objects_percent: 10.0,
            read_share: 0.5,
        };
        assert!(bad.validate().is_err());
        let bad = PatternChange {
            change_percent: f64::INFINITY,
            objects_percent: 10.0,
            read_share: 0.5,
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn diurnal_tides_alternate_and_cancel_exactly() {
        let plan = Scenario::DiurnalCycle.compile(6, 8, 256).unwrap();
        // Odd epochs boost even objects, even epochs boost odd objects.
        assert_eq!(
            plan[1].surges,
            vec![ObjectSurge {
                stride: 2,
                phase: 0,
                num: 4,
                den: 1
            }]
        );
        assert_eq!(
            plan[2].surges,
            vec![
                ObjectSurge {
                    stride: 2,
                    phase: 0,
                    num: 1,
                    den: 4
                },
                ObjectSurge {
                    stride: 2,
                    phase: 1,
                    num: 4,
                    den: 1
                },
            ]
        );
        // Replaying the whole plan restores the boosted column exactly
        // whenever the opposite tide is in (epoch 2 sees column 0 at base).
        let mut reads = DenseMatrix::from_rows(1, 2, vec![7u64, 9]).unwrap();
        for surge in &plan[1].surges {
            surge.apply(&mut reads);
        }
        assert_eq!((*reads.get(0, 0), *reads.get(0, 1)), (28, 9));
        for surge in &plan[2].surges {
            surge.apply(&mut reads);
        }
        assert_eq!((*reads.get(0, 0), *reads.get(0, 1)), (7, 36));
    }

    #[test]
    fn surge_validation_rejects_degenerates() {
        assert!(ObjectSurge {
            stride: 0,
            phase: 0,
            num: 2,
            den: 1
        }
        .validate()
        .is_err());
        assert!(ObjectSurge {
            stride: 2,
            phase: 2,
            num: 2,
            den: 1
        }
        .validate()
        .is_err());
        assert!(ObjectSurge {
            stride: 2,
            phase: 0,
            num: 0,
            den: 1
        }
        .validate()
        .is_err());
        assert!(ObjectSurge {
            stride: 2,
            phase: 0,
            num: 2,
            den: 0
        }
        .validate()
        .is_err());
        assert!(ObjectSurge {
            stride: 3,
            phase: 2,
            num: 5,
            den: 2
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn regional_failover_crashes_a_quarter_of_sites() {
        let plan = Scenario::RegionalFailover.compile(6, 8, 256).unwrap();
        let faulted: Vec<&EpochShift> = plan.iter().filter(|s| s.faults.is_some()).collect();
        assert!(!faulted.is_empty());
        let faults = faulted[0].faults.as_ref().unwrap();
        assert_eq!(faults.crashes.len(), 2);
        for &(_, from, until) in &faults.crashes {
            assert!(until > from);
        }
    }

    #[test]
    fn inversion_flips_read_share_at_half_time() {
        let plan = Scenario::ReadWriteInversion.compile(6, 8, 256).unwrap();
        assert_eq!(plan[1].drift.unwrap().read_share, 1.0);
        assert_eq!(plan[5].drift.unwrap().read_share, 0.0);
    }
}
