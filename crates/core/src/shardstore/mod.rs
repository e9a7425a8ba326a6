//! A globally-shared, **address-sharded** store backend for the
//! parallel fixpoint engine.
//!
//! The concurrent-abstract-interpretation literature licenses sharing
//! the store: it is a single join-semilattice that workers race on
//! monotonically, so a fact is interned once and joined once, however
//! many workers run —
//!
//! * `pool` — a global concurrent interner (sharded index, chunked
//!   append-only slots, lock-free `get`). Ids are process-global; a
//!   fact is interned once, ever;
//! * [`store`] — [`SharedStore`]: rows partitioned by address-id hash
//!   into one *owner* shard per worker. Writes go through the shared
//!   row (mutex-serialized, immediate read-your-writes); anyone reads
//!   via epoch-stamped `Arc<Vec<u32>>` snapshots (the same
//!   [`crate::store::Flow`] discipline as the single-threaded store);
//!   per-row delta logs live next to the snapshot so semi-naive
//!   evaluation keeps exact deltas;
//! * [`engine`] — [`run_fixpoint_sharded`]: the worker loop, with
//!   growth notifications and dependency registrations routed to row
//!   owners (who alone hold dependency lists), wakeups point-to-point
//!   instead of broadcast, the fabric's pending-counter termination
//!   protocol, and a result assembly that just drains the shared store.
//!
//! [`crate::parallel::Sharded`] selects this backend through
//! [`crate::parallel::StoreBackend`].

pub mod engine;
pub(crate) mod pool;
pub mod store;

pub use engine::{run_fixpoint_sharded, run_fixpoint_sharded_with};
pub use store::{ShardView, SharedStore};
