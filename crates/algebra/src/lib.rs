//! # aio-algebra — relational algebra with the paper's four new operations
//!
//! Implements the algebraic machinery of *"All-in-One: Graph Processing in
//! RDBMSs Revisited"* (Zhao & Yu, SIGMOD 2017), Section 4:
//!
//! * the six basic relational-algebra operations (σ, Π, ∪, −, ×, ρ) plus
//!   group-by & aggregation and θ-joins under three physical strategies;
//! * **MM-join** and **MV-join** — semiring aggregate-joins (Eqs. 1–4);
//! * **anti-join** with its three SQL spellings (`not exists`,
//!   `left outer join`, `not in`);
//! * **union-by-update** with its four implementations (`merge`,
//!   `full outer join`, `drop/alter`, `update from`);
//! * logical [`plan::Plan`]s and an evaluator;
//! * [`profile::EngineProfile`]s that emulate the paper's three RDBMSs by
//!   their *mechanisms* (join/aggregation strategy, WAL policy, index use).

pub mod agg;
mod batch;
pub mod error;
pub mod explain;
pub mod expr;
pub mod fault;
pub mod ops;
pub mod optimize;
pub mod par;
pub mod plan;
pub mod profile;
pub mod semiring;
pub mod stats;
pub mod wcoj;

pub use agg::AggFunc;
pub use error::{AlgebraError, Result};
pub use expr::{seed_random, BinOp, Func, ScalarExpr, UnaryOp};
pub use fault::{
    aggjoin_fault_armed, fault_hits, inject_aggjoin_drop_last_match, inject_ubu_off_by_one,
    inject_wcoj_seek_off_by_one, ubu_fault_armed, wcoj_fault_armed,
};
pub use ops::{AntiJoinImpl, JoinKeys, JoinType, MvOrientation, UbuImpl};
pub use optimize::{optimize_plan, push_selections};
pub use plan::{execute, execute_traced, Evaluator, Plan};
pub use profile::{
    all_profiles, db2_like, oracle_like, postgres_like, AggStrategy, EngineProfile,
    ExecMode, JoinStrategy, Optimizer, DEFAULT_BATCH_SIZE,
};
pub use semiring::{Semiring, BOOLEAN, COUNTING, MIN_MUL, TROPICAL};
pub use stats::{estimate_nodes, ExecStats};
pub use wcoj::{agm_bound, choose_order, is_cyclic, last_wcoj_phases, WcojPhases};
