//! The ring's atomics and the control lane's lock.
//!
//! Every build but this crate's own tests uses `std`'s types. This crate's
//! test build takes both from `check`, the interleaving checker, whose
//! types are `std`'s with a scheduling point before each operation: in one
//! of its runs every load, store, lock and unlock is a step whose order it
//! chooses, and outside one they pass straight through.

pub(crate) use std::sync::atomic::Ordering;
#[cfg(not(test))]
pub(crate) use std::sync::{atomic::AtomicU64, Mutex};

#[cfg(test)]
pub(crate) use crate::check::{AtomicU64, Mutex};
