//! Declarative policy specification (DESIGN.md §8).
//!
//! The paper's evaluation is a sweep — policies × patterns × granularities ×
//! fabrics — so policies must be *data*, not closures: a [`PolicySpec`] is a
//! serializable, comparable, parseable value that [builds](PolicySpec::build)
//! the corresponding [`AllocationPolicy`] on demand. Experiment harnesses
//! store and iterate specs; only the innermost runner ever instantiates a
//! policy.
//!
//! Specs round-trip through compact strings (the `--policy` CLI grammar):
//!
//! | String | Meaning |
//! |---|---|
//! | `baseline` | corner-anchored greedy mapping |
//! | `rotation` | snake pattern, per-execution movement (the paper) |
//! | `rotation:raster` | explicit pattern, per-execution movement |
//! | `rotation:snake@per-load` | explicit pattern and granularity |
//! | `rotation@every-8` | snake pattern, advance every 8 executions |
//! | `random:42` | uniform-random pivots from seed 42 |
//! | `health-aware` | the oracle scan (paper future work) |
//! | `exact` | leximin argmin against live wear, per allocation |

use std::fmt;
use std::str::FromStr;

use cgra::Fabric;
use serde::{Deserialize, Serialize};

use crate::exact::ExactPolicy;
use crate::policy::{
    AllocationPolicy, BaselinePolicy, HealthAwarePolicy, MovementGranularity, RandomPolicy,
    RotationPolicy,
};

/// Default seed for [`PolicySpec::Random`] when none is given (the
/// workspace-wide experiment seed).
pub const DEFAULT_RANDOM_SEED: u64 = 0xDAC2020;

/// A fabric-covering movement pattern (paper Fig. 3b) as data:
/// [`offset_at`](PatternSpec::offset_at) is its pivot sequence.
///
/// # Examples
///
/// ```
/// use uaware::PatternSpec;
///
/// let p: PatternSpec = "column-major".parse().unwrap();
/// assert_eq!(p, PatternSpec::ColumnMajor);
/// assert_eq!(p.to_string(), "column-major");
/// ```
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum PatternSpec {
    /// Boustrophedon scan (the paper's choice).
    #[default]
    Snake,
    /// Plain raster scan.
    Raster,
    /// Column-major scan.
    ColumnMajor,
}

impl PatternSpec {
    /// Every built-in full-coverage pattern, in sweep order.
    pub const ALL: [PatternSpec; 3] =
        [PatternSpec::Snake, PatternSpec::Raster, PatternSpec::ColumnMajor];

    /// The pattern's compact name (`snake`, `raster`, `column-major`).
    pub fn name(&self) -> &'static str {
        match self {
            PatternSpec::Snake => "snake",
            PatternSpec::Raster => "raster",
            PatternSpec::ColumnMajor => "column-major",
        }
    }
}

impl fmt::Display for PatternSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for PatternSpec {
    type Err = ParseSpecError;

    fn from_str(s: &str) -> Result<PatternSpec, ParseSpecError> {
        match s {
            "snake" => Ok(PatternSpec::Snake),
            "raster" => Ok(PatternSpec::Raster),
            "column-major" => Ok(PatternSpec::ColumnMajor),
            other => Err(ParseSpecError::new(format!(
                "unknown pattern `{other}` (expected snake, raster or column-major)"
            ))),
        }
    }
}

/// An allocation policy as data (DESIGN.md §8): the enumerable, serializable
/// point every sweep iterates over. [`build`](PolicySpec::build) turns a spec
/// into a fresh policy instance; [`fmt::Display`]/[`FromStr`] round-trip the
/// compact string grammar used by the `--policy` CLI flag.
///
/// # Examples
///
/// ```
/// use uaware::{MovementGranularity, PatternSpec, PolicySpec};
///
/// let spec: PolicySpec = "rotation:snake@per-load".parse().unwrap();
/// assert_eq!(
///     spec,
///     PolicySpec::Rotation {
///         pattern: PatternSpec::Snake,
///         granularity: MovementGranularity::PerLoad,
///     }
/// );
/// // The built policy reports the spec's canonical name.
/// assert_eq!(spec.build().name(), spec.to_string());
/// // And the string form round-trips.
/// assert_eq!(spec.to_string().parse::<PolicySpec>().unwrap(), spec);
/// ```
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicySpec {
    /// Corner-anchored greedy mapping (no movement hardware required).
    #[default]
    Baseline,
    /// The paper's utilization-aware rotation.
    Rotation {
        /// The fabric-covering movement pattern.
        pattern: PatternSpec,
        /// How often the pivot advances.
        granularity: MovementGranularity,
    },
    /// Uniform-random pivot per execution.
    Random {
        /// RNG seed (deterministic experiments).
        seed: u64,
    },
    /// The oracle scan steering allocation with run-time aging information.
    HealthAware,
    /// The exact-mapping oracle (DESIGN.md §15): per allocation, the
    /// leximin argmin of the live wear over the legal pivots — the
    /// yardstick every heuristic's optimality gap is measured against
    /// (`results/gap.json`).
    Exact {
        /// Executions decided per solve. The oracle decides one execution
        /// at a time, so `1` is the only value that builds; the string
        /// grammar (`exact`) yields nothing else.
        every: u32,
    },
}

impl PolicySpec {
    /// The paper's default proposal: snake rotation, advanced per execution.
    pub fn rotation() -> PolicySpec {
        PolicySpec::Rotation {
            pattern: PatternSpec::Snake,
            granularity: MovementGranularity::PerExecution,
        }
    }

    /// Instantiates a fresh policy for this spec.
    ///
    /// # Panics
    ///
    /// Panics on `Exact { every }` with `every != 1` (an unconstructable
    /// spec via the string grammar; reachable only by literal).
    pub fn build(&self) -> Box<dyn AllocationPolicy> {
        match *self {
            PolicySpec::Baseline => Box::new(BaselinePolicy),
            PolicySpec::Rotation { pattern, granularity } => {
                Box::new(RotationPolicy::with_granularity(pattern, granularity))
            }
            PolicySpec::Random { seed } => Box::new(RandomPolicy::seeded(seed)),
            PolicySpec::HealthAware => Box::new(HealthAwarePolicy::default()),
            PolicySpec::Exact { every } => {
                assert_eq!(every, 1, "the exact oracle decides one execution at a time");
                Box::new(ExactPolicy::default())
            }
        }
    }

    /// Whether policies built from this spec need the movement hardware
    /// extensions (paper §III.B). Mirrors
    /// [`AllocationPolicy::needs_movement`] without instantiating.
    pub fn needs_movement(&self) -> bool {
        !matches!(self, PolicySpec::Baseline)
    }

    /// Every spec the standard sweep evaluates on `fabric`: the baseline,
    /// per-execution rotation for each built-in pattern, the coarser snake
    /// granularities (including a periodic step scaled to half the fabric's
    /// coverage period), the seeded random ablation and the health-aware
    /// oracle. The [`Exact`](PolicySpec::Exact) oracle is deliberately
    /// excluded — it is the bound the standard series are measured
    /// *against* (the `gap` experiment), not a sweep point itself.
    ///
    /// # Examples
    ///
    /// ```
    /// use cgra::Fabric;
    /// use uaware::PolicySpec;
    ///
    /// let specs = PolicySpec::all_specs(&Fabric::be());
    /// assert!(specs.len() >= 7);
    /// assert!(specs.iter().all(|s| s.to_string().parse::<PolicySpec>().unwrap() == *s));
    /// ```
    pub fn all_specs(fabric: &Fabric) -> Vec<PolicySpec> {
        let mut specs = vec![PolicySpec::Baseline];
        for pattern in PatternSpec::ALL {
            specs.push(PolicySpec::Rotation {
                pattern,
                granularity: MovementGranularity::PerExecution,
            });
        }
        specs.push(PolicySpec::Rotation {
            pattern: PatternSpec::Snake,
            granularity: MovementGranularity::PerLoad,
        });
        specs.push(PolicySpec::Rotation {
            pattern: PatternSpec::Snake,
            granularity: MovementGranularity::Periodic((fabric.fu_count() / 2).max(1)),
        });
        specs.push(PolicySpec::Random { seed: DEFAULT_RANDOM_SEED });
        specs.push(PolicySpec::HealthAware);
        specs
    }
}

impl fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicySpec::Baseline => f.write_str("baseline"),
            PolicySpec::Rotation { pattern, granularity } => {
                write!(f, "rotation:{pattern}@{granularity}")
            }
            PolicySpec::Random { seed } => write!(f, "random:{seed}"),
            PolicySpec::HealthAware => f.write_str("health-aware"),
            PolicySpec::Exact { every: 1 } => f.write_str("exact"),
            PolicySpec::Exact { every } => write!(f, "exact@every-{every}"),
        }
    }
}

impl FromStr for PolicySpec {
    type Err = ParseSpecError;

    fn from_str(s: &str) -> Result<PolicySpec, ParseSpecError> {
        let (head, rest) = match s.find([':', '@']) {
            Some(i) => (&s[..i], Some((s.as_bytes()[i] as char, &s[i + 1..]))),
            None => (s, None),
        };
        match (head, rest) {
            ("baseline", None) => Ok(PolicySpec::Baseline),
            ("health-aware", None) => Ok(PolicySpec::HealthAware),
            ("random", None) => Ok(PolicySpec::Random { seed: DEFAULT_RANDOM_SEED }),
            ("random", Some((':', seed))) => {
                let seed = seed.parse().map_err(|_| {
                    ParseSpecError::new(format!("invalid random seed `{seed}` in `{s}`"))
                })?;
                Ok(PolicySpec::Random { seed })
            }
            ("exact", None) => Ok(PolicySpec::Exact { every: 1 }),
            ("exact", Some(('@', _))) => Err(ParseSpecError::new(format!(
                "invalid exact oracle `{s}`: it decides one execution at a time (expected `exact`)"
            ))),
            ("rotation", rest) => {
                let (pattern, granularity) = match rest {
                    None => (None, None),
                    Some(('@', gran)) => (None, Some(gran)),
                    Some((':', tail)) => match tail.split_once('@') {
                        Some((pat, gran)) => (Some(pat), Some(gran)),
                        None => (Some(tail), None),
                    },
                    Some(_) => unreachable!("find() only matched `:` or `@`"),
                };
                Ok(PolicySpec::Rotation {
                    pattern: pattern.map_or(Ok(PatternSpec::Snake), str::parse)?,
                    granularity: granularity
                        .map_or(Ok(MovementGranularity::PerExecution), str::parse)?,
                })
            }
            _ => Err(ParseSpecError::new(format!(
                "unknown policy spec `{s}` (expected baseline, rotation[:pattern][@granularity], \
                 random[:seed], health-aware or exact)"
            ))),
        }
    }
}

/// A policy/pattern/granularity string failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseSpecError {
    message: String,
}

impl ParseSpecError {
    /// Wraps a diagnostic message (for tools layering their own spec
    /// grammars, e.g. CLI flag parsers).
    pub fn new(message: String) -> ParseSpecError {
        ParseSpecError { message }
    }
}

impl fmt::Display for ParseSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ParseSpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_strings_parse_to_the_expected_specs() {
        let cases = [
            ("baseline", PolicySpec::Baseline),
            ("health-aware", PolicySpec::HealthAware),
            ("random:42", PolicySpec::Random { seed: 42 }),
            ("rotation:snake@per-exec", PolicySpec::rotation()),
            (
                "rotation:raster@per-load",
                PolicySpec::Rotation {
                    pattern: PatternSpec::Raster,
                    granularity: MovementGranularity::PerLoad,
                },
            ),
            (
                "rotation:column-major@every-8",
                PolicySpec::Rotation {
                    pattern: PatternSpec::ColumnMajor,
                    granularity: MovementGranularity::Periodic(8),
                },
            ),
            ("exact", PolicySpec::Exact { every: 1 }),
        ];
        for (s, spec) in cases {
            assert_eq!(s.parse::<PolicySpec>().unwrap(), spec, "{s}");
            assert_eq!(spec.to_string(), s, "{spec:?}");
        }
    }

    #[test]
    fn shorthand_forms_fill_in_defaults() {
        assert_eq!("rotation".parse::<PolicySpec>().unwrap(), PolicySpec::rotation());
        assert_eq!(
            "rotation:raster".parse::<PolicySpec>().unwrap(),
            PolicySpec::Rotation {
                pattern: PatternSpec::Raster,
                granularity: MovementGranularity::PerExecution,
            }
        );
        assert_eq!(
            "rotation@per-load".parse::<PolicySpec>().unwrap(),
            PolicySpec::Rotation {
                pattern: PatternSpec::Snake,
                granularity: MovementGranularity::PerLoad,
            }
        );
        assert_eq!(
            "random".parse::<PolicySpec>().unwrap(),
            PolicySpec::Random { seed: DEFAULT_RANDOM_SEED }
        );
    }

    #[test]
    fn malformed_strings_are_rejected() {
        for s in [
            "",
            "rotations",
            "baseline:snake",
            "health-aware@per-load",
            "random:notanumber",
            "rotation:diagonal",
            "rotation:snake@sometimes",
            "rotation:snake@every-",
            "rotation:snake@every-x",
            "exact:snake",
            "exact@",
            "exact@every-0",
            "exact@every-",
            "exact@per-load",
            "exact@every-1",
            "exact@every-4",
        ] {
            assert!(s.parse::<PolicySpec>().is_err(), "`{s}` should not parse");
        }
    }

    #[test]
    fn built_policies_report_canonical_names() {
        for spec in PolicySpec::all_specs(&Fabric::be()) {
            assert_eq!(spec.build().name(), spec.to_string());
        }
    }

    #[test]
    fn needs_movement_matches_built_policies() {
        for spec in PolicySpec::all_specs(&Fabric::bp()) {
            assert_eq!(spec.needs_movement(), spec.build().needs_movement(), "{spec}");
        }
    }

    #[test]
    fn specs_survive_json() {
        for spec in PolicySpec::all_specs(&Fabric::bu()) {
            let json = serde_json::to_string(&spec).unwrap();
            let back: PolicySpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec, "{json}");
        }
    }

    #[test]
    fn exact_round_trips_and_builds() {
        let spec = PolicySpec::Exact { every: 1 };
        assert_eq!(spec.to_string(), "exact");
        assert_eq!("exact".parse::<PolicySpec>().unwrap(), spec);
        assert_eq!(spec.build().name(), "exact");
        assert!(spec.needs_movement() && spec.build().needs_movement());
        let json = serde_json::to_string(&spec).unwrap();
        assert_eq!(serde_json::from_str::<PolicySpec>(&json).unwrap(), spec, "{json}");
        let excluded = PolicySpec::all_specs(&Fabric::be());
        assert!(
            !excluded.iter().any(|s| matches!(s, PolicySpec::Exact { .. })),
            "the oracle is the yardstick, not a standard sweep point"
        );
    }

    #[test]
    fn exact_epochs_are_rejected_with_the_reason() {
        for s in ["exact@every-1", "exact@every-4"] {
            let err = s.parse::<PolicySpec>().unwrap_err().to_string();
            assert!(err.contains("one execution at a time"), "`{s}`: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "one execution at a time")]
    fn exact_with_a_longer_epoch_does_not_build() {
        let _ = PolicySpec::Exact { every: 4 }.build();
    }
}
