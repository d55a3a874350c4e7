//! # solve — deterministic branch-and-bound for pivot epochs
//!
//! The paper's allocation policies are heuristics; this crate provides the
//! *oracle* they are measured against (DESIGN.md §15): a registry-free,
//! bit-reproducible branch-and-bound solver for one **pivot epoch** — assign
//! each of the next `slots` executions of one configuration footprint a
//! legal pivot offset, minimizing the maximum post-epoch per-FU stress
//! ([`OffsetProblem`]). The slots are identical executions, so the search
//! explores non-decreasing pivot sequences only. A one-slot epoch — what
//! the `exact` oracle solves on every allocation — needs no search: its
//! optimum is the leximin argmin over the legal pivots, which [`solve`]
//! computes directly, comparing pivots only on the FUs they touch, and
//! reports with the counters the search's root expansion would have.
//!
//! Everything is integer arithmetic with fixed iteration order, so two runs
//! on the same problem return byte-identical solutions — the property the
//! CI determinism tree-diff relies on.
//!
//! # Examples
//!
//! ```
//! use cgra::Fabric;
//! use solve::{solve, OffsetProblem};
//!
//! // Three executions of an L-shaped footprint on a cold 3×4 fabric: the
//! // greedy incumbent stacks two of them (stress 2), the search finds
//! // three disjoint placements (stress 1).
//! let fabric = Fabric::new(3, 4);
//! let p = OffsetProblem::new(&fabric, &[(0, 0), (0, 1), (1, 1)], &[0; 12], 3, |_| true);
//! let s = solve(&p).unwrap();
//! assert_eq!(s.objective, 1);
//! assert!(s.stats.expanded > 0);
//! ```

#![warn(missing_docs)]

mod bnb;
mod offsets;

pub use bnb::{solve, Solution, SolveStats};
pub use offsets::OffsetProblem;
