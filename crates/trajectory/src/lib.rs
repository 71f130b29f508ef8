//! Trajectory and facility data model.
//!
//! The paper distinguishes two kinds of trajectories:
//!
//! * **user trajectories** `u ∈ U` — sequences of visited points (taxi
//!   pick-up/drop-off pairs, check-in sequences, GPS traces), modelled by
//!   [`Trajectory`], and
//! * **facility trajectories** `f ∈ F` — sequences of *stop* points of a
//!   candidate service route (e.g. a bus route), modelled by [`Facility`].
//!
//! [`UserSet`] and [`FacilitySet`] are the corresponding collections with the
//! bookkeeping (ids, bounding boxes, aggregate statistics) that index
//! construction and the experiment harness need. [`snapshot`] offers a tiny
//! length-prefixed binary (de)serialization so generated datasets can be
//! cached between benchmark runs.

#![warn(missing_docs)]

mod facility;
pub mod io;
pub mod snapshot;
mod trajectory;

pub use facility::{Facility, FacilityId, FacilitySet};
pub use io::LocalProjection;
pub use trajectory::{SegmentRef, Trajectory, TrajectoryId, UserSet, USER_CHUNK};
