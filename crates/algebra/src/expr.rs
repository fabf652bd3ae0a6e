//! Scalar expressions with SQL three-valued semantics.
//!
//! Expressions are built name-based (as a parser produces them), *bound*
//! against a schema (column names become indexes), then evaluated per row.
//! Aggregate calls ([`ScalarExpr::Agg`]) may appear only inside a grouped
//! projection; the group-by operator extracts them and replaces them with
//! [`ScalarExpr::AggRef`] slots (see `ops::groupby`).

use crate::agg::AggFunc;
use crate::error::{AlgebraError, Result};
use aio_storage::{Schema, Value};
use std::cell::Cell;
use std::cmp::Ordering;
use std::fmt;

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinOp {
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "and",
            BinOp::Or => "or",
        };
        f.write_str(s)
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnaryOp {
    Neg,
    Not,
    IsNull,
    IsNotNull,
}

/// Built-in scalar functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Func {
    Sqrt,
    Abs,
    Ln,
    Exp,
    Floor,
    Ceil,
    /// First non-NULL argument — the paper's full-outer-join implementation
    /// of union-by-update leans on `coalesce` (Section 6).
    Coalesce,
    Least,
    Greatest,
    /// Uniform float in [0, 1) — needed by the random-priority MIS
    /// algorithm ("RDBMSs have a Rand function", Section 7).
    Random,
}

/// A scalar expression tree.
#[derive(Clone, Debug, PartialEq)]
pub enum ScalarExpr {
    /// Unbound column reference (possibly qualified, `"E.F"`).
    Col(String),
    /// Bound column reference (index into the input row).
    BoundCol(usize),
    Lit(Value),
    Unary(UnaryOp, Box<ScalarExpr>),
    Binary(BinOp, Box<ScalarExpr>, Box<ScalarExpr>),
    Func(Func, Vec<ScalarExpr>),
    /// Aggregate call over an argument expression. `Count` with a `Lit(1)`
    /// argument encodes `count(*)`.
    Agg(AggFunc, Box<ScalarExpr>),
    /// Post-grouping reference to the i-th extracted aggregate (internal).
    AggRef(usize),
}

impl ScalarExpr {
    pub fn col(name: impl Into<String>) -> Self {
        ScalarExpr::Col(name.into())
    }

    pub fn lit(v: impl Into<Value>) -> Self {
        ScalarExpr::Lit(v.into())
    }

    pub fn binary(op: BinOp, l: ScalarExpr, r: ScalarExpr) -> Self {
        ScalarExpr::Binary(op, Box::new(l), Box::new(r))
    }

    pub fn eq(l: ScalarExpr, r: ScalarExpr) -> Self {
        Self::binary(BinOp::Eq, l, r)
    }

    pub fn and(l: ScalarExpr, r: ScalarExpr) -> Self {
        Self::binary(BinOp::And, l, r)
    }

    /// Whether evaluating this expression twice on the same row yields the
    /// same value. `random()` draws from a thread-local stream, so any
    /// expression containing it must stay on one thread in a fixed row
    /// order — morsel-parallel operators check this before fanning out.
    pub fn is_deterministic(&self) -> bool {
        match self {
            ScalarExpr::Func(Func::Random, _) => false,
            ScalarExpr::Func(_, args) => args.iter().all(ScalarExpr::is_deterministic),
            ScalarExpr::Unary(_, x) => x.is_deterministic(),
            ScalarExpr::Binary(_, l, r) => l.is_deterministic() && r.is_deterministic(),
            ScalarExpr::Agg(_, x) => x.is_deterministic(),
            ScalarExpr::Col(_) | ScalarExpr::BoundCol(_) | ScalarExpr::Lit(_) | ScalarExpr::AggRef(_) => true,
        }
    }

    /// Bind every [`ScalarExpr::Col`] against `schema`, producing an
    /// index-based expression ready for evaluation.
    pub fn bind(&self, schema: &Schema) -> Result<ScalarExpr> {
        Ok(match self {
            ScalarExpr::Col(name) => ScalarExpr::BoundCol(schema.index_of(name)?),
            ScalarExpr::BoundCol(i) => ScalarExpr::BoundCol(*i),
            ScalarExpr::Lit(v) => ScalarExpr::Lit(v.clone()),
            ScalarExpr::Unary(op, e) => ScalarExpr::Unary(*op, Box::new(e.bind(schema)?)),
            ScalarExpr::Binary(op, l, r) => {
                ScalarExpr::Binary(*op, Box::new(l.bind(schema)?), Box::new(r.bind(schema)?))
            }
            ScalarExpr::Func(f, args) => ScalarExpr::Func(
                *f,
                args.iter().map(|a| a.bind(schema)).collect::<Result<_>>()?,
            ),
            ScalarExpr::Agg(f, e) => ScalarExpr::Agg(*f, Box::new(e.bind(schema)?)),
            ScalarExpr::AggRef(i) => ScalarExpr::AggRef(*i),
        })
    }

    /// Does this expression contain an aggregate call?
    pub fn has_agg(&self) -> bool {
        match self {
            ScalarExpr::Agg(..) => true,
            ScalarExpr::Unary(_, e) => e.has_agg(),
            ScalarExpr::Binary(_, l, r) => l.has_agg() || r.has_agg(),
            ScalarExpr::Func(_, args) => args.iter().any(|a| a.has_agg()),
            _ => false,
        }
    }

    /// Collect unbound column references (for dependency analysis).
    pub fn collect_cols(&self, out: &mut Vec<String>) {
        match self {
            ScalarExpr::Col(n) => out.push(n.clone()),
            ScalarExpr::Unary(_, e) | ScalarExpr::Agg(_, e) => e.collect_cols(out),
            ScalarExpr::Binary(_, l, r) => {
                l.collect_cols(out);
                r.collect_cols(out);
            }
            ScalarExpr::Func(_, args) => {
                for a in args {
                    a.collect_cols(out);
                }
            }
            _ => {}
        }
    }

    /// Evaluate against a row. All `Col` references must be bound; `Agg`
    /// nodes must have been extracted by the group-by operator first.
    pub fn eval(&self, row: &[Value]) -> Result<Value> {
        self.eval_env(row, &[])
    }

    /// Evaluate with an aggregate-result environment (`AggRef(i)` reads
    /// `aggs[i]`).
    pub fn eval_env(&self, row: &[Value], aggs: &[Value]) -> Result<Value> {
        self.eval_cols(&|i| row.get(i), aggs)
    }

    /// Evaluate against the concatenation `left ++ right` without building
    /// it (the fused aggregate-join's matched pairs).
    pub fn eval_pair(&self, left: &[Value], right: &[Value]) -> Result<Value> {
        let split = left.len();
        self.eval_cols(
            &|i| if i < split { left.get(i) } else { right.get(i - split) },
            &[],
        )
    }

    /// The evaluator proper, over any column accessor.
    fn eval_cols<'r, F>(&self, row: &F, aggs: &[Value]) -> Result<Value>
    where
        F: Fn(usize) -> Option<&'r Value>,
    {
        Ok(match self {
            ScalarExpr::Col(n) => {
                return Err(AlgebraError::Expr(format!("unbound column reference {n}")))
            }
            ScalarExpr::BoundCol(i) => row(*i)
                .cloned()
                .ok_or_else(|| AlgebraError::Expr(format!("column index {i} out of range")))?,
            ScalarExpr::Lit(v) => v.clone(),
            ScalarExpr::Unary(op, e) => eval_unary(*op, e.eval_cols(row, aggs)?),
            ScalarExpr::Binary(op, l, r) => {
                // And/Or need 3VL short-circuit handling of both sides.
                let lv = l.eval_cols(row, aggs)?;
                match op {
                    BinOp::And => {
                        if lv == Value::Int(0) {
                            return Ok(Value::Int(0));
                        }
                        let rv = r.eval_cols(row, aggs)?;
                        return Ok(logic_and(lv, rv));
                    }
                    BinOp::Or => {
                        if lv == Value::Int(1) {
                            return Ok(Value::Int(1));
                        }
                        let rv = r.eval_cols(row, aggs)?;
                        return Ok(logic_or(lv, rv));
                    }
                    _ => {}
                }
                let rv = r.eval_cols(row, aggs)?;
                eval_binary(*op, lv, rv)?
            }
            ScalarExpr::Func(f, args) => {
                let vals: Vec<Value> = args
                    .iter()
                    .map(|a| a.eval_cols(row, aggs))
                    .collect::<Result<_>>()?;
                eval_func(*f, vals)?
            }
            ScalarExpr::Agg(f, _) => {
                return Err(AlgebraError::Aggregate(format!(
                    "aggregate {f} outside a grouped projection"
                )))
            }
            ScalarExpr::AggRef(i) => aggs
                .get(*i)
                .cloned()
                .ok_or_else(|| AlgebraError::Aggregate(format!("AggRef({i}) out of range")))?,
        })
    }

    /// Evaluate as a predicate: SQL WHERE keeps a row iff the condition is
    /// *true* (unknown filters the row out).
    pub fn eval_pred(&self, row: &[Value]) -> Result<bool> {
        Ok(matches!(self.eval(row)?, Value::Int(v) if v != 0))
    }
}

fn eval_unary(op: UnaryOp, v: Value) -> Value {
    match op {
        UnaryOp::Neg => match v {
            Value::Int(i) => Value::Int(-i),
            Value::Float(f) => Value::Float(-f),
            _ => Value::Null,
        },
        UnaryOp::Not => match v {
            Value::Int(0) => Value::Int(1),
            Value::Int(_) => Value::Int(0),
            _ => Value::Null,
        },
        UnaryOp::IsNull => Value::Int(v.is_null() as i64),
        UnaryOp::IsNotNull => Value::Int(!v.is_null() as i64),
    }
}

fn logic_and(l: Value, r: Value) -> Value {
    match (truth(&l), truth(&r)) {
        (Some(false), _) | (_, Some(false)) => Value::Int(0),
        (Some(true), Some(true)) => Value::Int(1),
        _ => Value::Null,
    }
}

fn logic_or(l: Value, r: Value) -> Value {
    match (truth(&l), truth(&r)) {
        (Some(true), _) | (_, Some(true)) => Value::Int(1),
        (Some(false), Some(false)) => Value::Int(0),
        _ => Value::Null,
    }
}

fn truth(v: &Value) -> Option<bool> {
    match v {
        Value::Int(i) => Some(*i != 0),
        _ => None,
    }
}

/// Numeric binary evaluation with SQL NULL propagation and int→float
/// coercion. Exposed for reuse by the semiring `⊙` step.
pub fn eval_binary(op: BinOp, l: Value, r: Value) -> Result<Value> {
    if op.is_comparison() {
        let cmp = l.sql_cmp(&r);
        return Ok(match cmp {
            None => Value::Null,
            Some(o) => {
                let b = match op {
                    BinOp::Eq => o == Ordering::Equal,
                    BinOp::Ne => o != Ordering::Equal,
                    BinOp::Lt => o == Ordering::Less,
                    BinOp::Le => o != Ordering::Greater,
                    BinOp::Gt => o == Ordering::Greater,
                    BinOp::Ge => o != Ordering::Less,
                    _ => unreachable!(),
                };
                Value::Int(b as i64)
            }
        });
    }
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match (&l, &r) {
        (Value::Int(a), Value::Int(b)) => Ok(match op {
            BinOp::Add => Value::Int(a.wrapping_add(*b)),
            BinOp::Sub => Value::Int(a.wrapping_sub(*b)),
            BinOp::Mul => Value::Int(a.wrapping_mul(*b)),
            BinOp::Div => {
                if *b == 0 {
                    return Err(AlgebraError::Expr("integer division by zero".into()));
                }
                Value::Int(a / b)
            }
            BinOp::Mod => {
                if *b == 0 {
                    return Err(AlgebraError::Expr("integer modulo by zero".into()));
                }
                Value::Int(a % b)
            }
            BinOp::And | BinOp::Or => unreachable!("handled in eval_env"),
            _ => unreachable!(),
        }),
        _ => {
            let (a, b) = (
                l.as_f64()
                    .ok_or_else(|| AlgebraError::Expr(format!("non-numeric operand {l}")))?,
                r.as_f64()
                    .ok_or_else(|| AlgebraError::Expr(format!("non-numeric operand {r}")))?,
            );
            Ok(Value::Float(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
                BinOp::Mod => a % b,
                _ => unreachable!(),
            }))
        }
    }
}

fn eval_func(f: Func, mut vals: Vec<Value>) -> Result<Value> {
    let need = |n: usize, vals: &[Value]| -> Result<()> {
        if vals.len() != n {
            Err(AlgebraError::Expr(format!(
                "function {f:?} expects {n} arguments, got {}",
                vals.len()
            )))
        } else {
            Ok(())
        }
    };
    match f {
        Func::Sqrt | Func::Abs | Func::Ln | Func::Exp | Func::Floor | Func::Ceil => {
            need(1, &vals)?;
            let v = vals.pop().unwrap();
            if v.is_null() {
                return Ok(Value::Null);
            }
            let x = v
                .as_f64()
                .ok_or_else(|| AlgebraError::Expr(format!("non-numeric argument {v}")))?;
            Ok(Value::Float(match f {
                Func::Sqrt => x.sqrt(),
                Func::Abs => x.abs(),
                Func::Ln => x.ln(),
                Func::Exp => x.exp(),
                Func::Floor => x.floor(),
                Func::Ceil => x.ceil(),
                _ => unreachable!(),
            }))
        }
        Func::Coalesce => {
            if vals.is_empty() {
                return Err(AlgebraError::Expr("coalesce needs arguments".into()));
            }
            Ok(vals
                .into_iter()
                .find(|v| !v.is_null())
                .unwrap_or(Value::Null))
        }
        Func::Least | Func::Greatest => {
            if vals.is_empty() {
                return Err(AlgebraError::Expr("least/greatest need arguments".into()));
            }
            if vals.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            let mut best = vals.remove(0);
            for v in vals {
                let keep = match best.sql_cmp(&v) {
                    Some(Ordering::Greater) => f == Func::Greatest,
                    Some(Ordering::Less) => f == Func::Least,
                    _ => true,
                };
                if !keep {
                    best = v;
                }
            }
            Ok(best)
        }
        Func::Random => {
            need(0, &vals)?;
            Ok(Value::Float(next_random()))
        }
    }
}

thread_local! {
    /// xorshift64* state for `random()`. Seedable for reproducible MIS runs.
    static RNG: Cell<u64> = const { Cell::new(0x9E3779B97F4A7C15) };
}

/// Seed the SQL `random()` function for this thread.
pub fn seed_random(seed: u64) {
    RNG.with(|r| r.set(seed | 1));
}

fn next_random() -> f64 {
    RNG.with(|r| {
        let mut x = r.get();
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        r.set(x);
        let bits = x.wrapping_mul(0x2545F4914F6CDD1D);
        // top 53 bits → uniform in [0, 1)
        (bits >> 11) as f64 / (1u64 << 53) as f64
    })
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Col(n) => write!(f, "{n}"),
            ScalarExpr::BoundCol(i) => write!(f, "#{i}"),
            ScalarExpr::Lit(v) => write!(f, "{v}"),
            ScalarExpr::Unary(op, e) => match op {
                UnaryOp::Neg => write!(f, "-({e})"),
                UnaryOp::Not => write!(f, "not ({e})"),
                UnaryOp::IsNull => write!(f, "({e}) is null"),
                UnaryOp::IsNotNull => write!(f, "({e}) is not null"),
            },
            ScalarExpr::Binary(op, l, r) => write!(f, "({l} {op} {r})"),
            ScalarExpr::Func(func, args) => {
                write!(f, "{func:?}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            ScalarExpr::Agg(a, e) => write!(f, "{a}({e})"),
            ScalarExpr::AggRef(i) => write!(f, "agg#{i}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aio_storage::DataType;

    fn schema() -> Schema {
        Schema::of(&[("ID", DataType::Int), ("vw", DataType::Float)])
    }

    #[test]
    fn bind_and_eval_arithmetic() {
        let e = ScalarExpr::binary(
            BinOp::Add,
            ScalarExpr::binary(BinOp::Mul, ScalarExpr::col("vw"), ScalarExpr::lit(2.0)),
            ScalarExpr::lit(1i64),
        );
        let b = e.bind(&schema()).unwrap();
        let v = b.eval(&[Value::Int(7), Value::Float(1.5)]).unwrap();
        assert_eq!(v, Value::Float(4.0));
    }

    #[test]
    fn unbound_column_errors() {
        let e = ScalarExpr::col("nope");
        assert!(e.bind(&schema()).is_err());
        assert!(e.eval(&[]).is_err());
    }

    #[test]
    fn null_propagates_through_arithmetic() {
        let e = ScalarExpr::binary(BinOp::Add, ScalarExpr::lit(1i64), ScalarExpr::Lit(Value::Null));
        assert_eq!(e.eval(&[]).unwrap(), Value::Null);
    }

    #[test]
    fn comparisons_are_three_valued() {
        let lt = |a: Value, b: Value| {
            ScalarExpr::Binary(
                BinOp::Lt,
                Box::new(ScalarExpr::Lit(a)),
                Box::new(ScalarExpr::Lit(b)),
            )
            .eval(&[])
            .unwrap()
        };
        assert_eq!(lt(Value::Int(1), Value::Int(2)), Value::Int(1));
        assert_eq!(lt(Value::Int(2), Value::Float(1.5)), Value::Int(0));
        assert_eq!(lt(Value::Null, Value::Int(2)), Value::Null);
    }

    #[test]
    fn predicate_filters_unknown() {
        let p = ScalarExpr::eq(ScalarExpr::Lit(Value::Null), ScalarExpr::lit(1i64));
        assert!(!p.eval_pred(&[]).unwrap(), "unknown is not true");
    }

    #[test]
    fn and_or_three_valued() {
        let t = ScalarExpr::lit(1i64);
        let f = ScalarExpr::lit(0i64);
        let n = ScalarExpr::Lit(Value::Null);
        let and = |a: &ScalarExpr, b: &ScalarExpr| {
            ScalarExpr::and(a.clone(), b.clone()).eval(&[]).unwrap()
        };
        let or = |a: &ScalarExpr, b: &ScalarExpr| {
            ScalarExpr::binary(BinOp::Or, a.clone(), b.clone())
                .eval(&[])
                .unwrap()
        };
        assert_eq!(and(&t, &n), Value::Null);
        assert_eq!(and(&f, &n), Value::Int(0), "false and unknown = false");
        assert_eq!(or(&t, &n), Value::Int(1), "true or unknown = true");
        assert_eq!(or(&f, &n), Value::Null);
    }

    #[test]
    fn coalesce_picks_first_non_null() {
        let e = ScalarExpr::Func(
            Func::Coalesce,
            vec![
                ScalarExpr::Lit(Value::Null),
                ScalarExpr::lit(5i64),
                ScalarExpr::lit(9i64),
            ],
        );
        assert_eq!(e.eval(&[]).unwrap(), Value::Int(5));
    }

    #[test]
    fn sqrt_and_abs() {
        let e = ScalarExpr::Func(Func::Sqrt, vec![ScalarExpr::lit(9.0)]);
        assert_eq!(e.eval(&[]).unwrap(), Value::Float(3.0));
        let e = ScalarExpr::Func(Func::Abs, vec![ScalarExpr::lit(-2i64)]);
        assert_eq!(e.eval(&[]).unwrap(), Value::Float(2.0));
    }

    #[test]
    fn least_greatest() {
        let e = ScalarExpr::Func(
            Func::Greatest,
            vec![ScalarExpr::lit(1i64), ScalarExpr::lit(3i64), ScalarExpr::lit(2i64)],
        );
        assert_eq!(e.eval(&[]).unwrap(), Value::Int(3));
        let e = ScalarExpr::Func(
            Func::Least,
            vec![ScalarExpr::lit(1.5), ScalarExpr::lit(0.5)],
        );
        assert_eq!(e.eval(&[]).unwrap(), Value::Float(0.5));
    }

    #[test]
    fn random_is_seedable_and_in_range() {
        seed_random(42);
        let a: Vec<f64> = (0..5)
            .map(|_| {
                ScalarExpr::Func(Func::Random, vec![])
                    .eval(&[])
                    .unwrap()
                    .as_f64()
                    .unwrap()
            })
            .collect();
        seed_random(42);
        let b: Vec<f64> = (0..5)
            .map(|_| {
                ScalarExpr::Func(Func::Random, vec![])
                    .eval(&[])
                    .unwrap()
                    .as_f64()
                    .unwrap()
            })
            .collect();
        assert_eq!(a, b, "seed makes random() reproducible");
        assert!(a.iter().all(|x| (0.0..1.0).contains(x)));
        assert!(a.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn agg_outside_group_errors() {
        let e = ScalarExpr::Agg(AggFunc::Sum, Box::new(ScalarExpr::lit(1i64)));
        assert!(matches!(e.eval(&[]), Err(AlgebraError::Aggregate(_))));
        assert!(e.has_agg());
    }

    #[test]
    fn int_division_by_zero_errors() {
        let e = ScalarExpr::binary(BinOp::Div, ScalarExpr::lit(1i64), ScalarExpr::lit(0i64));
        assert!(e.eval(&[]).is_err());
    }

    #[test]
    fn collect_cols_walks_tree() {
        let e = ScalarExpr::binary(
            BinOp::Mul,
            ScalarExpr::col("E.ew"),
            ScalarExpr::Func(Func::Coalesce, vec![ScalarExpr::col("vw"), ScalarExpr::lit(0.0)]),
        );
        let mut cols = vec![];
        e.collect_cols(&mut cols);
        assert_eq!(cols, vec!["E.ew".to_string(), "vw".to_string()]);
    }
}
