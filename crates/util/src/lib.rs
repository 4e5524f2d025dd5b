//! # facile-util
//!
//! Small, dependency-free performance utilities shared across the
//! workspace's hot paths (the repository is built offline, so these are
//! in-tree stand-ins for the usual `rustc-hash`/`smallvec` crates):
//!
//! * [`fxhash`] — a fast, deterministic, non-cryptographic hasher for
//!   interning and sharding. Never use it for untrusted keys where
//!   HashDoS matters; every table in this workspace is keyed by data the
//!   process itself generated or decoded.
//! * [`SmallVec`] — an inline-first vector for `Copy` element types,
//!   written entirely in safe Rust: the first `N` elements live on the
//!   stack and the buffer spills to a heap `Vec` only when it outgrows
//!   the inline capacity.
//! * [`json`] — the JSON span parser and string escaper shared by
//!   every JSON reader and writer in the workspace.
//! * [`PoisonlessMutex`] — a `Mutex` wrapper that recovers from lock
//!   poisoning instead of propagating it, so one contained panic cannot
//!   wedge every later lock acquisition.

#![warn(missing_docs)]

pub mod cache;
pub mod fxhash;
pub mod json;
mod smallvec;
pub mod sync;

pub use cache::{GlobalBudget, HeapSize, Shrinkable, SlruCache};
pub use fxhash::{hash_bytes, FxBuildHasher, FxHashMap, FxHasher};
pub use smallvec::SmallVec;
pub use sync::{recover, PoisonlessMutex};
