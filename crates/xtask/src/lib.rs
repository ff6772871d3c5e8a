//! `xtask` — workspace static analysis for the vamor solver crates.
//!
//! Run as `cargo xtask analyze` (the alias lives in `.cargo/config.toml`).
//! Four project-specific lints are implemented over a self-contained Rust
//! lexer (the workspace carries no third-party dependencies, so there is no
//! `syn` here):
//!
//! - **panic-freedom** — no `unwrap`/`expect`/panic macros in non-test
//!   solver code; `[]`-indexing additionally flagged in Result-returning
//!   functions of the orchestration modules.
//! - **checkpoint-coverage** — every outermost loop of a function taking
//!   `&RunControl` must call `checkpoint*`.
//! - **lock-discipline** — the shift cache's factor-map mutex and the
//!   session's leaf locks are never acquired re-entrantly, never nested
//!   (leaf locks), and never held around calls into caller-supplied code.
//! - **hot-path-alloc** — `*_into` kernels never allocate
//!   (`Vec::new`/`vec!`/`.clone()`/`.to_vec()`).
//!
//! Justified residue is annotated in-source as
//! `// vamor: allow(<lint>, reason = "...")`; the analyzer fails on any
//! unannotated finding, on malformed annotations, and on stale (unused)
//! allows.
//!
//! `cargo xtask bench-trend` ([`trend`]) is the one regression gate over the
//! committed `BENCH_PR*.json` snapshots and a fresh `reproduce --json` run.

pub mod lexer;
pub mod lints;
pub mod model;
pub mod report;
pub mod trend;
pub mod workspace;
