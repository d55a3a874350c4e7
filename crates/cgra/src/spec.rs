//! Declarative fabric specification (DESIGN.md §14).
//!
//! Layout sweeps iterate over fabrics the same way policy sweeps iterate
//! over policies, so fabrics must be *data* too: a [`FabricSpec`] is a
//! serializable, comparable, parseable value that [builds](FabricSpec::build)
//! the corresponding [`Fabric`] on demand, mirroring the established
//! `PolicySpec`/`TrafficSpec`/`ProbeSpec` pattern.
//!
//! Specs round-trip through compact strings (the `--fabric` CLI grammar):
//!
//! | String | Meaning |
//! |---|---|
//! | `be`, `bp`, `bu`, `fig1` | the paper's preset geometries |
//! | `4x8` | uniform 4-row × 8-column fabric |
//! | `4x8:het-checker` | checkerboard of full cells and bare ALUs |
//! | `4x8:het-rows` / `4x8:het-cols` | full/bare-ALU row or column stripes |
//! | `4x8:het-mem` / `4x8:het-mul` | uniformly `alu+mem` / `alu+mul` cells |
//! | `4x8@ctx-32` | explicit context-line count (default 16) |
//! | `4x8+bw-2` | column interconnect budget of 2 FUs (default unlimited) |
//! | `4x8:het-checker@ctx-16+bw-2` | suffixes compose, in this order |

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::fabric::{CellClass, ClassMap, Fabric, FabricError};

/// A fabric layout as data (DESIGN.md §14): the enumerable, serializable
/// point every layout sweep iterates over. [`build`](FabricSpec::build)
/// turns a spec into a [`Fabric`]; [`fmt::Display`]/[`FromStr`] round-trip
/// the compact string grammar used by the `--fabric` CLI flag.
///
/// # Examples
///
/// ```
/// use cgra::{ClassMap, FabricSpec};
///
/// let spec: FabricSpec = "4x8:het-checker+bw-2".parse().unwrap();
/// assert_eq!((spec.rows, spec.cols), (4, 8));
/// assert_eq!(spec.classes, ClassMap::Checker);
/// assert_eq!(spec.col_bandwidth, 2);
/// // The string form round-trips through the canonical rendering.
/// assert_eq!(spec.to_string().parse::<FabricSpec>().unwrap(), spec);
/// // Presets canonicalize to their geometry.
/// assert_eq!("be".parse::<FabricSpec>().unwrap().to_string(), "2x16");
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FabricSpec {
    /// Number of rows `W`.
    pub rows: u32,
    /// Number of columns `L`.
    pub cols: u32,
    /// Per-cell capability classes (default: uniformly full).
    pub classes: ClassMap,
    /// Context-line count (default 16, the paper's value).
    pub ctx_lines: u16,
    /// Per-column interconnect bandwidth budget (default 0 = unlimited).
    pub col_bandwidth: u32,
}

impl FabricSpec {
    /// The uniform (homogeneous, unlimited-bandwidth) spec for a geometry —
    /// the layout every heterogeneous mix is compared against.
    pub fn uniform(rows: u32, cols: u32) -> FabricSpec {
        FabricSpec { rows, cols, classes: ClassMap::default(), ctx_lines: 16, col_bandwidth: 0 }
    }

    /// The spec describing an existing fabric's layout-relevant fields
    /// (geometry, classes, context lines, bandwidth). Technology parameters
    /// the spec grammar does not cover (`cfg_lines`, latencies, ports) are
    /// assumed to be at their defaults; [`build`](FabricSpec::build) always
    /// produces default-parameter fabrics.
    pub fn from_fabric(fabric: &Fabric) -> FabricSpec {
        FabricSpec {
            rows: fabric.rows,
            cols: fabric.cols,
            classes: fabric.classes,
            ctx_lines: fabric.ctx_lines,
            col_bandwidth: fabric.col_bandwidth,
        }
    }

    /// Builds the fabric this spec describes.
    ///
    /// # Errors
    ///
    /// The [`FabricError`] of an impossible geometry (zero dimension, or
    /// too few columns for a memory op) — typed, so spec-driven sweeps and
    /// `System::with_spec` reject bad layouts without panicking.
    pub fn build(&self) -> Result<Fabric, FabricError> {
        let mut fabric = Fabric::try_new(self.rows, self.cols)?;
        fabric.ctx_lines = self.ctx_lines;
        fabric.classes = self.classes;
        fabric.col_bandwidth = self.col_bandwidth;
        Ok(fabric)
    }
}

impl fmt::Display for FabricSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.rows, self.cols)?;
        if let Some(mix) = mix_name(self.classes) {
            write!(f, ":het-{mix}")?;
        }
        if self.ctx_lines != 16 {
            write!(f, "@ctx-{}", self.ctx_lines)?;
        }
        if self.col_bandwidth != 0 {
            write!(f, "+bw-{}", self.col_bandwidth)?;
        }
        Ok(())
    }
}

impl FromStr for FabricSpec {
    type Err = ParseFabricError;

    fn from_str(s: &str) -> Result<FabricSpec, ParseFabricError> {
        let bad = |what: &str| {
            ParseFabricError::new(format!(
                "{what} in `{s}` (expected \
                 <preset|RxC>[:het-<mix>][@ctx-<n>][+bw-<n>], e.g. 4x8:het-checker+bw-2)"
            ))
        };
        // Peel the suffixes right to left, in canonical order.
        let (head, bw) = match s.rsplit_once("+bw-") {
            Some((head, n)) => {
                (head, n.parse::<u32>().map_err(|_| bad("invalid bandwidth budget"))?)
            }
            None => (s, 0),
        };
        let (head, ctx) = match head.rsplit_once("@ctx-") {
            Some((head, n)) => {
                (head, n.parse::<u16>().map_err(|_| bad("invalid context-line count"))?)
            }
            None => (head, 16),
        };
        let (head, classes) = match head.rsplit_once(":het-") {
            Some((head, mix)) => (head, parse_mix(mix).ok_or_else(|| bad("unknown mix"))?),
            None => (head, ClassMap::default()),
        };
        let (rows, cols) = match head {
            "fig1" => (4, 8),
            "be" => (2, 16),
            "bp" => (4, 32),
            "bu" => (8, 32),
            dims => match dims.split_once('x') {
                Some((r, c)) => (
                    r.parse::<u32>().map_err(|_| bad("invalid row count"))?,
                    c.parse::<u32>().map_err(|_| bad("invalid column count"))?,
                ),
                None => return Err(bad("unknown geometry")),
            },
        };
        Ok(FabricSpec { rows, cols, classes, ctx_lines: ctx, col_bandwidth: bw })
    }
}

/// The grammar token of a class map, or `None` for the uniform-full default
/// (which the canonical rendering omits).
fn mix_name(classes: ClassMap) -> Option<&'static str> {
    match classes {
        ClassMap::Uniform(CellClass::Full) => None,
        ClassMap::Uniform(CellClass::Alu) => Some("alu"),
        ClassMap::Uniform(CellClass::AluMem) => Some("mem"),
        ClassMap::Uniform(CellClass::AluMul) => Some("mul"),
        ClassMap::Checker => Some("checker"),
        ClassMap::RowStripes => Some("rows"),
        ClassMap::ColStripes => Some("cols"),
    }
}

fn parse_mix(mix: &str) -> Option<ClassMap> {
    match mix {
        "checker" => Some(ClassMap::Checker),
        "rows" => Some(ClassMap::RowStripes),
        "cols" => Some(ClassMap::ColStripes),
        "alu" => Some(ClassMap::Uniform(CellClass::Alu)),
        "mem" => Some(ClassMap::Uniform(CellClass::AluMem)),
        "mul" => Some(ClassMap::Uniform(CellClass::AluMul)),
        _ => None,
    }
}

/// A fabric-spec string failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseFabricError {
    message: String,
}

impl ParseFabricError {
    /// Wraps a diagnostic message (for tools layering their own spec
    /// grammars, e.g. CLI flag parsers).
    pub fn new(message: String) -> ParseFabricError {
        ParseFabricError { message }
    }
}

impl fmt::Display for ParseFabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ParseFabricError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_strings_parse_to_the_expected_specs() {
        let cases = [
            ("4x8", FabricSpec::uniform(4, 8)),
            ("2x16", FabricSpec::uniform(2, 16)),
            (
                "4x8:het-checker",
                FabricSpec { classes: ClassMap::Checker, ..FabricSpec::uniform(4, 8) },
            ),
            (
                "4x8:het-rows",
                FabricSpec { classes: ClassMap::RowStripes, ..FabricSpec::uniform(4, 8) },
            ),
            (
                "4x8:het-cols",
                FabricSpec { classes: ClassMap::ColStripes, ..FabricSpec::uniform(4, 8) },
            ),
            (
                "4x8:het-mem",
                FabricSpec {
                    classes: ClassMap::Uniform(CellClass::AluMem),
                    ..FabricSpec::uniform(4, 8)
                },
            ),
            ("4x8@ctx-32", FabricSpec { ctx_lines: 32, ..FabricSpec::uniform(4, 8) }),
            ("4x8+bw-2", FabricSpec { col_bandwidth: 2, ..FabricSpec::uniform(4, 8) }),
            (
                "8x32:het-checker@ctx-8+bw-3",
                FabricSpec {
                    classes: ClassMap::Checker,
                    ctx_lines: 8,
                    col_bandwidth: 3,
                    ..FabricSpec::uniform(8, 32)
                },
            ),
        ];
        for (s, spec) in cases {
            assert_eq!(s.parse::<FabricSpec>().unwrap(), spec, "{s}");
            assert_eq!(spec.to_string(), s, "{spec:?}");
        }
    }

    #[test]
    fn presets_and_defaults_fill_in() {
        assert_eq!("fig1".parse::<FabricSpec>().unwrap(), FabricSpec::uniform(4, 8));
        assert_eq!("be".parse::<FabricSpec>().unwrap(), FabricSpec::uniform(2, 16));
        assert_eq!("bp".parse::<FabricSpec>().unwrap(), FabricSpec::uniform(4, 32));
        assert_eq!("bu".parse::<FabricSpec>().unwrap(), FabricSpec::uniform(8, 32));
        // Presets compose with suffixes and canonicalize to their geometry.
        let constrained: FabricSpec = "be+bw-1".parse().unwrap();
        assert_eq!(constrained.col_bandwidth, 1);
        assert_eq!(constrained.to_string(), "2x16+bw-1");
        // `@ctx-16` is the default and parses back to the bare form.
        assert_eq!("4x8@ctx-16".parse::<FabricSpec>().unwrap().to_string(), "4x8");
    }

    #[test]
    fn malformed_strings_are_rejected() {
        for s in [
            "",
            "4",
            "x8",
            "4x",
            "4x8x2",
            "4x8:het-",
            "4x8:het-diagonal",
            "4x8:checker",
            "4x8@ctx-",
            "4x8@ctx-many",
            "4x8+bw-",
            "4x8+bw-lots",
            "4x8+bw-2:het-checker", // suffixes only compose in canonical order
            "bee",
        ] {
            assert!(s.parse::<FabricSpec>().is_err(), "`{s}` should not parse");
        }
    }

    #[test]
    fn build_applies_every_field_and_types_bad_geometries() {
        let spec: FabricSpec = "4x8:het-checker@ctx-8+bw-2".parse().unwrap();
        let fabric = spec.build().unwrap();
        assert_eq!((fabric.rows, fabric.cols), (4, 8));
        assert_eq!(fabric.ctx_lines, 8);
        assert_eq!(fabric.classes, ClassMap::Checker);
        assert_eq!(fabric.col_bandwidth, 2);
        assert_eq!(FabricSpec::from_fabric(&fabric), spec, "from_fabric round-trips");

        // Impossible geometries parse (they are syntactically fine) but
        // build to a typed error instead of a panic (DESIGN.md §14).
        assert_eq!("0x8".parse::<FabricSpec>().unwrap().build(), Err(FabricError::EmptyFabric));
        assert_eq!(
            "2x2".parse::<FabricSpec>().unwrap().build(),
            Err(FabricError::MemLatencyTooLong { cols: 2, mem: 4 })
        );
    }

    #[test]
    fn uniform_spec_builds_the_preset_fabrics() {
        assert_eq!("be".parse::<FabricSpec>().unwrap().build().unwrap(), Fabric::be());
        assert_eq!("bp".parse::<FabricSpec>().unwrap().build().unwrap(), Fabric::bp());
        assert_eq!("bu".parse::<FabricSpec>().unwrap().build().unwrap(), Fabric::bu());
        assert_eq!("fig1".parse::<FabricSpec>().unwrap().build().unwrap(), Fabric::fig1());
    }

    #[test]
    fn specs_survive_json() {
        for s in ["4x8", "4x8:het-checker", "be+bw-2", "8x32:het-rows@ctx-8+bw-1"] {
            let spec: FabricSpec = s.parse().unwrap();
            let json = serde_json::to_string(&spec).unwrap();
            let back: FabricSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec, "{json}");
        }
    }
}
