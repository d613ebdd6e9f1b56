//! # hermes-backend
//!
//! The backend-side data plane of the L7 load balancer. Hermes gets a
//! connection to the *right worker* fast (userspace-directed dispatch);
//! this crate is what that worker does next: pick a backend server and
//! keep forwarding to it while the pool churns.
//!
//! Design, borrowed from two places the repo already trusts:
//!
//! * **Epoch-versioned frozen tables** (the map-registry idiom): the
//!   control plane mutates a [`BackendPool`] under a lock and *publishes*
//!   an immutable [`BackendTable`] snapshot per change. A connection
//!   captures an `Arc` of the table it was admitted under, so its request
//!   path resolves backends with zero locks — an `Arc` deref plus one
//!   relaxed atomic health load — and is immune to later pool changes.
//! * **O(1) stateless selection** (Concury-style): each table carries a
//!   dense power-of-two slot array; selection is `slots[mix(hash) & mask]`,
//!   keyed on the connection 5-tuple hash. Per-connection consistency
//!   falls out of version pinning: the same hash against the same table
//!   always yields the same backend, and the table never changes. Only
//!   when every backend of the admitted version has gone [`HealthState::Down`]
//!   does resolution fall back to the live table (version retirement).
//!
//! Health is *shared* across versions through [`HealthCells`] — one atomic
//! byte per backend — so an old table can observe that its pinned backend
//! died without any republish reaching it.
//!
//! The crate also holds the §7 "Experiences" models: the
//! synchronized-round-robin-restart imbalance ([`RoundRobin`],
//! [`fleet_distribution`]) and the keep-alive connection-pool
//! fragmentation ([`PoolSim`]).

pub mod health;
pub mod pool;
pub mod poolsim;
pub mod rr;
pub mod table;

pub use health::{HealthCells, HealthState};
pub use pool::{BackendPool, TableCache};
pub use poolsim::{PoolModel, PoolSim};
pub use rr::{fleet_distribution, RestartPolicy, RoundRobin};
pub use table::{Admission, BackendTable, Resolution};

/// Dense backend index within a pool.
pub type BackendId = usize;
