#![warn(missing_docs)]
//! Embedded single-writer relational store (S6/S7 in `DESIGN.md`).
//!
//! The CEEMS API server stores compute units and their aggregate metrics in
//! SQLite, continuously backed up by Litestream. This crate is the stand-in:
//!
//! * [`value`] / [`schema`] — typed values, rows and table schemas.
//! * [`table`] — in-memory tables with a primary-key BTree and optional
//!   secondary indices.
//! * [`query`] — filter/sort/limit queries (the listings behind Fig. 2b).
//! * [`log`] — the segmented log under this store and the TSDB: CRC32
//!   frames in size-rotated segments, recovery up to the first bad frame,
//!   fsync policy, durable file writes and disk-fault hooks.
//! * [`wal`] — this store's log payloads: a commit's records as JSON, one
//!   frame a commit, and a whole database as one such frame.
//! * [`db`] — the database: single-writer discipline (the paper's stated
//!   reason SQLite suffices), durable commits, recovery by replaying the
//!   log, which is the only thing it keeps on disk and which it compacts
//!   by itself with snapshot frames.
//! * [`backup`] — Litestream-style continuous shipping of the log's
//!   segments into backup generations.

pub mod backup;
pub mod db;
pub mod log;
pub mod query;
pub mod schema;
pub mod table;
pub mod value;
pub mod wal;

pub use db::{Db, DbError};
pub use log::FsyncMode;
pub use query::{Filter, Order, Query};
pub use schema::{Column, ColumnType, Schema};
pub use table::Table;
pub use value::{Row, Value};
