//! Relational operators: the six basic operations, group-by & aggregation,
//! θ-joins, and the paper's four new operations.

pub mod aggjoin;
pub mod anti_join;
pub mod basic;
pub mod groupby;
pub mod join;
pub mod merge_improve;
pub mod union_by_update;

pub use aggjoin::{
    agg_join, mm_join, mm_join_basic_ops, mv_join, AggJoinInput, AggJoinOutput, MvOrientation,
};
pub use anti_join::{
    anti_join, anti_join_basic_ops, anti_join_par, semi_join, semi_join_par, AntiJoinImpl,
};
pub use basic::{
    difference, distinct, product, project, project_par, rename, select, select_par,
    union_all, union_distinct,
};
pub use groupby::{group_by, group_by_par, window};
pub use join::{join, join_on, join_par, last_join_phases, JoinKeys, JoinOrders, JoinPhases, JoinType};
pub use merge_improve::ubu_merge_improve;
pub use union_by_update::{union_by_update, UbuImpl};
