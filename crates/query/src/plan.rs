//! The logical plan: a pipeline of operators over binding environments.
//!
//! `build_plan` maps AST clauses onto plan nodes 1:1; the optimizer then
//! rewrites node sequences (e.g. `Scan + Filter` into `IndexScan`).

use mmdb_types::{Result, Value};

use crate::ast::{AggFunc, Clause, Expr, Query, SortOrder, TraversalDirection};

/// Inclusive/exclusive bound for index scans.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanBound {
    /// No bound.
    Unbounded,
    /// `>= v` / `<= v`.
    Included(Value),
    /// `> v` / `< v`.
    Excluded(Value),
}

/// Logical plan operators.
#[derive(Debug, Clone)]
pub enum PlanNode {
    /// `FOR var IN <expr>` — iterate an expression (collection name as a
    /// bare `Var` resolves to a store scan at runtime unless the variable
    /// is bound).
    For {
        /// Loop variable.
        var: String,
        /// Source expression.
        source: Expr,
    },
    /// Index-served scan over a named source with a single-path bound,
    /// produced by the optimizer from `For` + `Filter`.
    IndexScan {
        /// Loop variable.
        var: String,
        /// Collection/table name.
        source: String,
        /// Field path (document path or column name).
        path: String,
        /// Lower bound.
        lo: PlanBound,
        /// Upper bound.
        hi: PlanBound,
        /// The conjunct the index serves (`var.path op literal`); evaluated
        /// only when a variable shadows `source` at runtime and the node
        /// falls back to the `For` + `Filter` pair it replaced.
        cond: Expr,
        /// Remaining predicate conjuncts, re-checked per row.
        residual: Option<Expr>,
    },
    /// Equality-correlated store scan, produced by the optimizer from
    /// `For var IN <store>` + a `Filter` whose first conjunct is
    /// `var.path == key` with `key` reading outer variables. The store is
    /// scanned once per query into a hash table on `var.path`; each
    /// incoming row evaluates `key` and takes the matching group.
    HashProbe {
        /// Loop variable.
        var: String,
        /// Collection/table name.
        source: String,
        /// The build side: a field/index chain rooted at `var`.
        path: Expr,
        /// The probe side, evaluated once per incoming row.
        key: Expr,
        /// Remaining predicate conjuncts, re-checked per matched row.
        residual: Option<Expr>,
    },
    /// Graph traversal.
    Traverse {
        /// Vertex variable.
        var: String,
        /// Minimum depth.
        min_depth: u32,
        /// Maximum depth.
        max_depth: u32,
        /// Direction.
        direction: TraversalDirection,
        /// Start-vertex handle expression.
        start: Expr,
        /// Edge collection.
        edges: String,
    },
    /// Keep rows where the expression is truthy.
    Filter(Expr),
    /// Bind a variable.
    Let {
        /// Variable name.
        var: String,
        /// Value expression.
        value: Expr,
    },
    /// Sort rows by key expressions.
    Sort(Vec<(Expr, SortOrder)>),
    /// Offset/limit.
    Limit {
        /// Rows skipped.
        offset: usize,
        /// Rows kept.
        count: usize,
    },
    /// Group rows.
    Collect {
        /// Group key `(var, expr)`; `None` = single group.
        key: Option<(String, Expr)>,
        /// INTO variable.
        into: Option<String>,
        /// Aggregates.
        aggregates: Vec<(String, AggFunc, Expr)>,
    },
}

/// A complete plan.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Operator pipeline.
    pub nodes: Vec<PlanNode>,
    /// RETURN expression.
    pub ret: Expr,
    /// Deduplicate results?
    pub distinct: bool,
}

impl PlanNode {
    /// The node's one-line textual form, shared by `EXPLAIN` and the
    /// `EXPLAIN ANALYZE` renderer.
    pub fn describe(&self) -> String {
        match self {
            PlanNode::For { var, source } => format!("For {var} IN {source:?}"),
            PlanNode::IndexScan { var, source, path, lo, hi, residual, .. } => format!(
                "IndexScan {var} IN {source} ON {path} [{lo:?}, {hi:?}] residual={}",
                residual.is_some()
            ),
            PlanNode::HashProbe { var, source, path, residual, .. } => format!(
                "HashProbe {var} IN {source} ON {} residual={}",
                probe_path(var, path),
                residual.is_some()
            ),
            PlanNode::Traverse { var, min_depth, max_depth, direction, edges, .. } => {
                format!("Traverse {var} {min_depth}..{max_depth} {direction:?} {edges}")
            }
            PlanNode::Filter(_) => "Filter".to_string(),
            PlanNode::Let { var, .. } => format!("Let {var}"),
            PlanNode::Sort(keys) => format!("Sort ({} keys)", keys.len()),
            PlanNode::Limit { offset, count } => format!("Limit {offset},{count}"),
            PlanNode::Collect { key, aggregates, .. } => format!(
                "Collect key={} aggs={}",
                key.as_ref().map(|(v, _)| v.as_str()).unwrap_or("-"),
                aggregates.len()
            ),
        }
    }
}

/// The dotted form of a `HashProbe` build path (`customer_id`,
/// `address.city`): its `EXPLAIN` name and its hash table's key.
pub(crate) fn probe_path(var: &str, path: &Expr) -> String {
    crate::optimize::path_of(path, var).unwrap_or_default()
}

impl Plan {
    /// The RETURN line's textual form (the pipeline's final operator).
    pub fn describe_return(&self) -> String {
        if self.distinct { "Return DISTINCT".to_string() } else { "Return".to_string() }
    }

    /// One-line-per-node textual form (EXPLAIN).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        for n in &self.nodes {
            out.push_str(&n.describe());
            out.push('\n');
        }
        out.push_str(&self.describe_return());
        out
    }
}

/// Lower the AST into the initial (unoptimized) plan.
pub fn build_plan(query: &Query) -> Result<Plan> {
    let nodes = query
        .clauses
        .iter()
        .map(|c| match c {
            Clause::For { var, source } => PlanNode::For { var: var.clone(), source: source.clone() },
            Clause::Traverse { var, min_depth, max_depth, direction, start, edges } => {
                PlanNode::Traverse {
                    var: var.clone(),
                    min_depth: *min_depth,
                    max_depth: *max_depth,
                    direction: *direction,
                    start: (**start).clone(),
                    edges: edges.clone(),
                }
            }
            Clause::Filter(e) => PlanNode::Filter(e.clone()),
            Clause::Let { var, value } => PlanNode::Let { var: var.clone(), value: value.clone() },
            Clause::Sort(keys) => PlanNode::Sort(keys.clone()),
            Clause::Limit { offset, count } => PlanNode::Limit { offset: *offset, count: *count },
            Clause::Collect { key, into, aggregates } => PlanNode::Collect {
                key: key.clone(),
                into: into.clone(),
                aggregates: aggregates.clone(),
            },
        })
        .collect();
    Ok(Plan { nodes, ret: query.ret.clone(), distinct: query.distinct })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_query;

    #[test]
    fn lowering_is_one_to_one() {
        let q = parse_query(
            "FOR c IN customers FILTER c.a > 1 SORT c.a LIMIT 3 RETURN DISTINCT c.a",
        )
        .unwrap();
        let p = build_plan(&q).unwrap();
        assert_eq!(p.nodes.len(), 4);
        assert!(p.distinct);
        let text = p.explain();
        assert!(text.contains("For c"));
        assert!(text.contains("Limit 0,3"));
        assert!(text.contains("RETURN DISTINCT".to_uppercase().as_str()) || text.contains("Return DISTINCT"));
    }
}
