//! # `pran-mc` — exhaustive model checking of the PRAN control plane
//!
//! Randomized chaos testing (`pran-chaos`) samples the schedule space;
//! this crate *enumerates* it. A compact abstract model of the
//! controller — placement, liveness belief vs physical truth, and a
//! `(last, peak)` summary of each cell's report window — is explored
//! breadth-first over every interleaving of control-plane operations up
//! to a depth bound, with the chaos harness's own checks run on every
//! transition: one `pran_chaos::InvariantChecker` judges each abstract
//! view against physical truth, and each discovered state's controller
//! goes through the harness's `pran_chaos::restore_drill`. A violation
//! found here therefore reads word for word as the harness reports it.
//!
//! The experiment's independent variable is [`ViewSemantics`]: under
//! `Linearizable` views the controller learns of every crash in the
//! same transition it happens; under `Stale { k }` the notification
//! rides a FIFO queue for up to `k` transitions while the controller
//! keeps scheduling on yesterday's truth. The headline result (E17) is
//! the pair: *zero* invariant violations in any schedule up to the
//! depth bound under linearizable views, and a characterization of
//! exactly which stale-view schedules strand cells on dead servers.
//!
//! Three properties keep the enumeration honest:
//!
//! * **Exactness** — the model is a bitwise-faithful projection of
//!   [`pran::Controller`]: epochs call the real `incremental_repack`,
//!   crash delivery runs the real [`pran::apps::FailoverApp`], and the
//!   demand table is computed through the controller's own
//!   compute-model path. The [`conformance`] layer *checks* this by
//!   carrying a concrete controller down the discovery tree and
//!   comparing views with `==` on every field at every state.
//! * **Soundness** — deduplication hashes exact canonical state
//!   encodings. Symmetry reduction over identical servers is reported
//!   as a diagnostic orbit count but deliberately not used for pruning:
//!   id-order tie-breaking in the placement heuristics breaks
//!   permutation-equivariance (see [`mod@explore`]'s module docs for the
//!   counterexample), so symmetry pruning would skip reachable states.
//! * **Reproducibility** — any counterexample is compiled to a
//!   `pran-chaos` scenario (silent-crash / delayed-notify events),
//!   serialized to JSON, re-parsed, and replayed through the concrete
//!   harness, which must reproduce the same invariant violation
//!   ([`counterexample::emit_reproducing`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod conformance;
pub mod counterexample;
pub mod explore;
pub mod model;
pub mod view;

pub use conformance::{replay_path, Conformance};
pub use counterexample::{emit_reproducing, to_scenario, Reproduction};
pub use explore::{explore, McReport, McViolation};
pub use model::{McCell, McConfig, Model, Notice, Operation, StateView, StepOutcome};
pub use view::{OpMix, ViewSemantics};
