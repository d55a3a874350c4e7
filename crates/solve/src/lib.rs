//! # solve — the exact oracle's decision
//!
//! The paper's allocation policies are heuristics; this crate computes the
//! decision of the *oracle* they are measured against (DESIGN.md §15): for
//! the next execution of one configuration footprint, the legal pivot
//! whose post-placement per-FU stress vector, sorted descending, is
//! lexicographically smallest — the leximin argmin, whose maximum is the
//! lowest any pivot reaches ([`OffsetProblem`], [`solve`]). Pivots are
//! compared only on the FUs they touch, with no sort and no search.
//!
//! Everything is integer arithmetic with fixed iteration order, so two runs
//! on the same problem return the same pivot — the property the CI
//! determinism tree-diff relies on.
//!
//! # Examples
//!
//! ```
//! use cgra::{Fabric, Offset};
//! use solve::{solve, OffsetProblem};
//!
//! // An L-shaped footprint on a 3×4 fabric whose corner FU is hot: the
//! // argmin lands it on three cold FUs, the first such pivot in row-major
//! // order.
//! let mut loads = [0; 12];
//! loads[0] = 5;
//! let p = OffsetProblem::new(&Fabric::new(3, 4), &[(0, 0), (0, 1), (1, 1)], &loads, |_| true);
//! let (choice, hot) = solve(&p).unwrap();
//! assert_eq!((p.offset(choice), hot), (Offset::new(0, 1), 1));
//! ```

#![warn(missing_docs)]

mod bnb;
mod offsets;

pub use bnb::solve;
pub use offsets::OffsetProblem;
