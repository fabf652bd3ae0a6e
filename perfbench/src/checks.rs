//! Output checks: every answer the engine returns is compared with a
//! native `aio_graph::reference` implementation or validator. A mismatch
//! is a failed operation and feeds `error_rate`.

use crate::{median, ms};
use aio_graph::{reference, Graph};
use aio_storage::{Relation, Row};
use std::collections::BTreeSet;
use std::time::Instant;

/// Run a reference implementation three times; returns its answer and the
/// median wall time in ms (the native floor).
pub fn time_reference<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut out = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        out = Some(std::hint::black_box(f()));
        times.push(ms(t0.elapsed()));
    }
    (out.expect("ran three times"), median(&times))
}

fn id(r: &Row, n: usize) -> Result<usize, String> {
    r[0].as_int()
        .and_then(|v| usize::try_from(v).ok())
        .filter(|&v| v < n)
        .ok_or_else(|| format!("bad node id {:?}", r[0]))
}

fn num(r: &Row, col: usize) -> Result<f64, String> {
    r[col]
        .as_f64()
        .ok_or_else(|| format!("non-numeric value {:?}", r[col]))
}

/// `(ID, value)` rows cover every node once and match `expected` within
/// `tol` (infinities must match exactly).
pub fn node_f64(rel: &Relation, expected: &[f64], tol: f64) -> Result<(), String> {
    if rel.len() != expected.len() {
        return Err(format!("{} rows, expected {}", rel.len(), expected.len()));
    }
    let mut seen = vec![false; expected.len()];
    for r in rel.iter() {
        let v = id(r, expected.len())?;
        let (got, want) = (num(r, 1)?, expected[v]);
        let ok = if want.is_finite() {
            (got - want).abs() <= tol
        } else {
            got == want
        };
        if !ok || std::mem::replace(&mut seen[v], true) {
            return Err(format!("node {v}: {got} vs reference {want}"));
        }
    }
    Ok(())
}

/// `(ID, label)` rows equal `expected` exactly, one per node.
pub fn node_label(rel: &Relation, expected: &[i64]) -> Result<(), String> {
    let as_f64: Vec<f64> = expected.iter().map(|&l| l as f64).collect();
    node_f64(rel, &as_f64, 0.0)
}

/// The node ids in column 0 equal `expected` as a set.
pub fn node_set(ids: impl Iterator<Item = i64>, expected: &BTreeSet<i64>) -> Result<(), String> {
    let got: BTreeSet<i64> = ids.collect();
    if &got == expected {
        Ok(())
    } else {
        let extra = got.difference(expected).next();
        let missing = expected.difference(&got).next();
        Err(format!(
            "{} nodes vs reference {} (extra {extra:?}, missing {missing:?})",
            got.len(),
            expected.len()
        ))
    }
}

/// HITS as the Fig. 6 program defines it: only nodes in `R_ha` (with both
/// an in- and an out-edge) are updated, and the 2-norms are taken over
/// `R_ha` jointly. `reference::hits` normalizes over every node, so it is
/// the native floor but not the oracle.
pub fn hits_sql_semantics(g: &Graph, iters: usize) -> (Vec<f64>, Vec<f64>) {
    let n = g.node_count();
    let (mut h, mut a) = (vec![1.0f64; n], vec![1.0f64; n]);
    for _ in 0..iters {
        let (mut na, mut has_a) = (vec![0.0f64; n], vec![false; n]);
        for (u, v, w) in g.edges() {
            na[v as usize] += h[u as usize] * w;
            has_a[v as usize] = true;
        }
        let (mut nh, mut has_h) = (vec![0.0f64; n], vec![false; n]);
        for (u, v, w) in g.edges() {
            if has_a[v as usize] {
                nh[u as usize] += na[v as usize] * w;
                has_h[u as usize] = true;
            }
        }
        let in_rha: Vec<bool> = (0..n).map(|v| has_a[v] && has_h[v]).collect();
        let norm = |x: &[f64]| {
            (0..n)
                .filter(|&v| in_rha[v])
                .map(|v| x[v] * x[v])
                .sum::<f64>()
                .sqrt()
        };
        let (norm_h, norm_a) = (norm(&nh), norm(&na));
        for v in (0..n).filter(|&v| in_rha[v]) {
            h[v] = nh[v] / norm_h;
            a[v] = na[v] / norm_a;
        }
    }
    (h, a)
}

/// `(ID, h, a)` rows match the SQL-semantics HITS within `tol`.
pub fn hits(rel: &Relation, h: &[f64], a: &[f64], tol: f64) -> Result<(), String> {
    if rel.len() != h.len() {
        return Err(format!("{} rows, expected {}", rel.len(), h.len()));
    }
    for r in rel.iter() {
        let v = id(r, h.len())?;
        let (gh, ga) = (num(r, 1)?, num(r, 2)?);
        if (gh - h[v]).abs() > tol || (ga - a[v]).abs() > tol {
            return Err(format!(
                "node {v}: ({gh}, {ga}) vs reference ({}, {})",
                h[v], a[v]
            ));
        }
    }
    Ok(())
}

/// TopoSort on a graph that may have cycles: the sorted nodes are exactly
/// those Kahn's algorithm peels. Their induced subgraph is a DAG whose
/// `reference::topo_levels` equal the returned levels (a peeled node's
/// predecessors are all peeled), and every node left out has a predecessor
/// that was left out too.
pub fn toposort(rel: &Relation, g: &Graph) -> Result<(), String> {
    let n = g.node_count();
    let mut level = vec![None; n];
    for r in rel.iter() {
        let v = id(r, n)?;
        let l = num(r, 1)? as i64;
        if level[v].replace(l).is_some() {
            return Err(format!("node {v} sorted twice"));
        }
    }
    let sorted: Vec<u32> = (0..n as u32)
        .filter(|&v| level[v as usize].is_some())
        .collect();
    let mut index = vec![u32::MAX; n];
    for (i, &v) in sorted.iter().enumerate() {
        index[v as usize] = i as u32;
    }
    let mut sub = Vec::new();
    for (u, v, w) in g.edges() {
        match (index[u as usize], index[v as usize]) {
            (iu, iv) if iu != u32::MAX && iv != u32::MAX => sub.push((iu, iv, w)),
            (iu, iv) if iu == u32::MAX && iv != u32::MAX => {
                return Err(format!("node {v} sorted although predecessor {u} is not"))
            }
            _ => {}
        }
    }
    let levels = reference::topo_levels(&Graph::from_edges(sorted.len(), &sub, true))
        .ok_or("sorted nodes contain a cycle")?;
    for (i, &v) in sorted.iter().enumerate() {
        if level[v as usize] != Some(levels[i] as i64) {
            return Err(format!(
                "node {v}: level {:?} vs reference {}",
                level[v as usize], levels[i]
            ));
        }
    }
    let mut has_unsorted_pred = vec![false; n];
    for (u, v, _) in g.edges() {
        if level[u as usize].is_none() {
            has_unsorted_pred[v as usize] = true;
        }
    }
    match (0..n).find(|&v| level[v].is_none() && !has_unsorted_pred[v]) {
        Some(v) => Err(format!("node {v} is sortable but was left out")),
        None => Ok(()),
    }
}

/// Two row multisets are equal (`expected` sorted).
pub fn same_rows(got: &Relation, expected: &[Row]) -> Result<(), String> {
    let rows = sorted_rows(got);
    if rows == expected {
        Ok(())
    } else {
        Err(format!(
            "{} rows vs {} expected",
            rows.len(),
            expected.len()
        ))
    }
}

pub fn sorted_rows(rel: &Relation) -> Vec<Row> {
    let mut rows: Vec<Row> = rel.iter().cloned().collect();
    rows.sort();
    rows
}
