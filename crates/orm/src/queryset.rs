//! Django-flavoured query sets.
//!
//! A [`QuerySet`] accumulates filters, ordering, limits, and relation
//! joins, then compiles to a parameterized [`Select`]: filter *values*
//! become positional parameters, so structurally identical queries produce
//! byte-identical SQL templates. That canonicalization is what CacheGenie
//! pattern-matches against (its cached objects are compiled from the same
//! builder), and it mirrors how Django reduces model methods to a small
//! family of SQL shapes.

use crate::model::ModelDef;
use genie_storage::{CmpOp, Expr, OrderKey, QueryResult, Row, Select, SelectItem, TableRef, Value};

/// A filter operator (Django lookup).
#[derive(Debug, Clone, PartialEq)]
pub enum FilterOp {
    /// `field = value` (`exact`).
    Eq,
    /// `field <> value`.
    Ne,
    /// `field < value` (`lt`).
    Lt,
    /// `field <= value` (`lte`).
    Lte,
    /// `field > value` (`gt`).
    Gt,
    /// `field >= value` (`gte`).
    Gte,
    /// `field IN (...)` (`in`).
    In(Vec<Value>),
    /// `field LIKE pattern` (`contains`/`startswith` family).
    Like(String),
    /// `field IS [NOT] NULL` (`isnull`).
    IsNull(bool),
}

#[derive(Debug, Clone)]
struct Filter {
    /// Binding (table or alias) the field lives on.
    binding: String,
    field: String,
    op: FilterOp,
    value: Option<Value>,
}

#[derive(Debug, Clone)]
struct RelationJoin {
    /// Table being joined.
    table: String,
    /// Join column on the previous table in the chain.
    base_column: String,
    /// Join column on the joined table.
    target_column: String,
    /// Binding the join hangs off (the previous table in the chain).
    from_binding: String,
}

/// One result row with named access.
#[derive(Debug, Clone, PartialEq)]
pub struct OrmRow {
    columns: std::sync::Arc<Vec<String>>,
    row: Row,
}

impl OrmRow {
    /// Wraps executor output.
    pub fn new(columns: std::sync::Arc<Vec<String>>, row: Row) -> Self {
        OrmRow { columns, row }
    }

    /// Converts a whole [`QueryResult`] into rows, moving them out of it.
    pub fn from_result(result: QueryResult) -> Vec<OrmRow> {
        let cols = std::sync::Arc::new(result.columns);
        result
            .rows
            .into_iter()
            .map(|r| OrmRow::new(std::sync::Arc::clone(&cols), r))
            .collect()
    }

    /// The first column named `name`, or NULL if absent.
    pub fn get(&self, name: &str) -> &Value {
        static NULL: Value = Value::Null;
        match self.columns.iter().position(|c| c == name) {
            Some(i) => self.row.get(i),
            None => &NULL,
        }
    }

    /// The value at position `i`.
    pub fn get_at(&self, i: usize) -> &Value {
        self.row.get(i)
    }

    /// The `id` column as an integer.
    ///
    /// # Panics
    ///
    /// Panics if there is no integer `id` column — every ORM-built query
    /// on a model includes it, so a panic indicates misuse on a projection.
    pub fn id(&self) -> i64 {
        self.get("id").as_int().expect("row has integer id column")
    }

    /// Column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The underlying storage row.
    pub fn row(&self) -> &Row {
        &self.row
    }
}

/// A lazily-built query over one model (plus joined relations).
///
/// Build with [`crate::OrmSession::objects`]; execute with the terminal
/// methods there (`all`, `get`, `count`, …) which apply cache
/// interception.
#[derive(Debug, Clone)]
pub struct QuerySet {
    model: ModelDef,
    filters: Vec<Filter>,
    joins: Vec<RelationJoin>,
    order: Vec<(String, bool)>,
    limit: Option<u64>,
    offset: Option<u64>,
    /// Projection override: qualified (binding, column) pairs.
    projection: Option<Vec<(String, String)>>,
}

impl QuerySet {
    /// A query over every row of `model`.
    pub fn new(model: ModelDef) -> Self {
        QuerySet {
            model,
            filters: Vec::new(),
            joins: Vec::new(),
            order: Vec::new(),
            limit: None,
            offset: None,
            projection: None,
        }
    }

    /// The base model.
    pub fn model(&self) -> &ModelDef {
        &self.model
    }

    fn current_binding(&self) -> String {
        self.joins
            .last()
            .map(|j| j.table.clone())
            .unwrap_or_else(|| self.model.table().to_owned())
    }

    /// Adds `field <op> value` on the base model.
    pub fn filter(
        mut self,
        field: impl Into<String>,
        op: FilterOp,
        value: impl Into<Value>,
    ) -> Self {
        self.filters.push(Filter {
            binding: self.model.table().to_owned(),
            field: field.into(),
            op,
            value: Some(value.into()),
        });
        self
    }

    /// Shorthand for the ubiquitous equality filter.
    pub fn filter_eq(self, field: impl Into<String>, value: impl Into<Value>) -> Self {
        self.filter(field, FilterOp::Eq, value)
    }

    /// Adds a filter on the most recently joined relation.
    pub fn filter_related(
        mut self,
        field: impl Into<String>,
        op: FilterOp,
        value: impl Into<Value>,
    ) -> Self {
        self.filters.push(Filter {
            binding: self.current_binding(),
            field: field.into(),
            op,
            value: Some(value.into()),
        });
        self
    }

    /// Adds a valueless filter (IN / LIKE / IS NULL carry their own data).
    pub fn filter_where(mut self, field: impl Into<String>, op: FilterOp) -> Self {
        self.filters.push(Filter {
            binding: self.model.table().to_owned(),
            field: field.into(),
            op,
            value: None,
        });
        self
    }

    /// Joins `target` on an arbitrary column pair:
    /// `target.<target_column> = current.<base_column>`. The general form
    /// behind [`QuerySet::join_forward`] and [`QuerySet::join_reverse`];
    /// CacheGenie's LinkQuery uses it for non-PK traversals (e.g. joining
    /// bookmark instances on a friendship's `friend_id`).
    pub fn join_on(
        mut self,
        target: &ModelDef,
        base_column: impl Into<String>,
        target_column: impl Into<String>,
    ) -> Self {
        let from = self.current_binding();
        self.joins.push(RelationJoin {
            table: target.table().to_owned(),
            base_column: base_column.into(),
            target_column: target_column.into(),
            from_binding: from,
        });
        self
    }

    /// Follows a forward FK from the current chain tail: joins `target`
    /// where `target.id = current.fk_column`. (Django `select_related`.)
    pub fn join_forward(self, fk_column: impl Into<String>, target: &ModelDef) -> Self {
        self.join_on(target, fk_column, "id")
    }

    /// Follows a reverse FK: joins `target` where
    /// `target.fk_column = current.id` (Django related manager).
    pub fn join_reverse(self, target: &ModelDef, fk_column: impl Into<String>) -> Self {
        self.join_on(target, "id", fk_column)
    }

    /// Django-style ordering: `"-date_posted"` for descending.
    pub fn order_by(mut self, spec: &str) -> Self {
        let (col, desc) = match spec.strip_prefix('-') {
            Some(c) => (c, true),
            None => (spec, false),
        };
        self.order.push((col.to_owned(), desc));
        self
    }

    /// Limits output rows (Django slicing).
    pub fn limit(mut self, n: u64) -> Self {
        self.limit = Some(n);
        self
    }

    /// Skips leading rows.
    pub fn offset(mut self, n: u64) -> Self {
        self.offset = Some(n);
        self
    }

    /// Projects qualified columns `(binding, column)` instead of `*`.
    pub fn values(mut self, cols: &[(&str, &str)]) -> Self {
        self.projection = Some(
            cols.iter()
                .map(|(b, c)| ((*b).to_owned(), (*c).to_owned()))
                .collect(),
        );
        self
    }

    /// Compiles to a parameterized SELECT plus its parameter vector.
    ///
    /// Filter values become `$n` parameters in filter order; everything
    /// else is structural. Two query sets with the same shape therefore
    /// produce identical [`Select`]s — the property CacheGenie's
    /// pattern-matcher relies on.
    pub fn compile(&self) -> (Select, Vec<Value>) {
        let mut sel = Select::star(self.model.table());
        // Joins.
        for j in &self.joins {
            let on = Expr::qcol(&j.table, &j.target_column)
                .eq(Expr::qcol(&j.from_binding, &j.base_column));
            sel = sel.join(TableRef::new(&j.table), on);
        }
        // Filters.
        let mut params = Vec::new();
        let mut pred: Option<Expr> = None;
        for f in &self.filters {
            let col = Expr::qcol(&f.binding, &f.field);
            let e = match &f.op {
                FilterOp::Eq
                | FilterOp::Ne
                | FilterOp::Lt
                | FilterOp::Lte
                | FilterOp::Gt
                | FilterOp::Gte => {
                    let v = f.value.clone().expect("comparison filter carries a value");
                    params.push(v);
                    let op = match f.op {
                        FilterOp::Eq => CmpOp::Eq,
                        FilterOp::Ne => CmpOp::Ne,
                        FilterOp::Lt => CmpOp::Lt,
                        FilterOp::Lte => CmpOp::Le,
                        FilterOp::Gt => CmpOp::Gt,
                        FilterOp::Gte => CmpOp::Ge,
                        _ => unreachable!(),
                    };
                    Expr::Cmp(Box::new(col), op, Box::new(Expr::Param(params.len() - 1)))
                }
                FilterOp::In(vals) => {
                    // IN lists are structural (length matters), so inline
                    // as parameters one by one.
                    let mut list = Vec::with_capacity(vals.len());
                    for v in vals {
                        params.push(v.clone());
                        list.push(Expr::Param(params.len() - 1));
                    }
                    Expr::InList {
                        expr: Box::new(col),
                        list,
                    }
                }
                FilterOp::Like(pattern) => Expr::Like {
                    expr: Box::new(col),
                    pattern: pattern.clone(),
                },
                FilterOp::IsNull(negated_is_not) => Expr::IsNull {
                    expr: Box::new(col),
                    negated: !negated_is_not,
                },
            };
            pred = Some(match pred {
                Some(p) => p.and(e),
                None => e,
            });
        }
        if let Some(p) = pred {
            sel = sel.filter(p);
        }
        // Projection.
        if let Some(proj) = &self.projection {
            sel = sel.project(
                proj.iter()
                    .map(|(b, c)| SelectItem::Expr {
                        expr: Expr::qcol(b, c),
                        alias: None,
                    })
                    .collect(),
            );
        }
        // Order / limit / offset. Keys are qualified to the base model's
        // binding: Django orders by base-model fields, and the qualified
        // form is the metadata the whole-query planner needs to attribute
        // the ORDER BY unambiguously once joins are in the statement
        // (an ordered index scan can then survive single-row joins).
        for (col, desc) in &self.order {
            sel.order_by.push(OrderKey {
                expr: Expr::qcol(self.model.table(), col),
                desc: *desc,
            });
        }
        if let Some(l) = self.limit {
            sel = sel.limit(l);
        }
        sel.offset = self.offset;
        (sel, params)
    }

    /// Compiles to a `SELECT COUNT(*)` with the same FROM/WHERE.
    pub fn compile_count(&self) -> (Select, Vec<Value>) {
        let (mut sel, params) = self.compile();
        sel.projection = vec![SelectItem::count_star()];
        sel.order_by.clear();
        sel.limit = None;
        sel.offset = None;
        (sel, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FieldDef, ModelDef};
    use genie_storage::ValueType;

    fn wall() -> ModelDef {
        ModelDef::builder("WallPost", "wall")
            .foreign_key("user_id", "User")
            .field(FieldDef::new("content", ValueType::Text))
            .field(FieldDef::new("date_posted", ValueType::Timestamp).indexed())
            .build()
    }

    fn user() -> ModelDef {
        ModelDef::builder("User", "users")
            .field(FieldDef::new("name", ValueType::Text))
            .build()
    }

    #[test]
    fn compile_is_canonical() {
        let (s1, p1) = QuerySet::new(wall())
            .filter_eq("user_id", 42i64)
            .order_by("-date_posted")
            .limit(20)
            .compile();
        let (s2, p2) = QuerySet::new(wall())
            .filter_eq("user_id", 99i64)
            .order_by("-date_posted")
            .limit(20)
            .compile();
        // Same template, different parameters.
        assert_eq!(s1, s2);
        assert_eq!(s1.to_string(), s2.to_string());
        assert_eq!(p1, vec![Value::Int(42)]);
        assert_eq!(p2, vec![Value::Int(99)]);
    }

    #[test]
    fn compile_top_k_shape() {
        let (sel, _) = QuerySet::new(wall())
            .filter_eq("user_id", 42i64)
            .order_by("-date_posted")
            .limit(20)
            .compile();
        assert_eq!(
            sel.to_string(),
            "SELECT * FROM wall WHERE (wall.user_id = $1) ORDER BY wall.date_posted DESC LIMIT 20"
        );
    }

    #[test]
    fn forward_join_compiles() {
        let (sel, _) = QuerySet::new(wall())
            .filter_eq("user_id", 1i64)
            .join_forward("user_id", &user())
            .compile();
        let s = sel.to_string();
        assert!(s.contains("JOIN users ON (users.id = wall.user_id)"), "{s}");
    }

    #[test]
    fn reverse_join_compiles() {
        let (sel, _) = QuerySet::new(user())
            .filter_eq("id", 1i64)
            .join_reverse(&wall(), "user_id")
            .compile();
        let s = sel.to_string();
        assert!(s.contains("JOIN wall ON (wall.user_id = users.id)"), "{s}");
    }

    #[test]
    fn join_chain_binds_to_tail() {
        let m3 = ModelDef::builder("Extra", "extra")
            .foreign_key("wall_id", "WallPost")
            .build();
        let (sel, _) = QuerySet::new(user())
            .join_reverse(&wall(), "user_id")
            .join_reverse(&m3, "wall_id")
            .compile();
        let s = sel.to_string();
        assert!(s.contains("JOIN extra ON (extra.wall_id = wall.id)"), "{s}");
    }

    #[test]
    fn in_filter_inlines_params() {
        let (sel, params) = QuerySet::new(user())
            .filter_where("id", FilterOp::In(vec![Value::Int(1), Value::Int(2)]))
            .compile();
        assert!(sel.to_string().contains("IN ($1, $2)"));
        assert_eq!(params.len(), 2);
    }

    #[test]
    fn isnull_and_like_filters() {
        let (sel, params) = QuerySet::new(user())
            .filter_where("name", FilterOp::IsNull(true))
            .filter_where("name", FilterOp::Like("a%".into()))
            .compile();
        let s = sel.to_string();
        assert!(s.contains("IS NULL"), "{s}");
        assert!(s.contains("LIKE 'a%'"), "{s}");
        assert!(params.is_empty());
    }

    #[test]
    fn count_strips_order_and_limit() {
        let (sel, params) = QuerySet::new(wall())
            .filter_eq("user_id", 7i64)
            .order_by("-date_posted")
            .limit(20)
            .compile_count();
        assert_eq!(
            sel.to_string(),
            "SELECT COUNT(*) FROM wall WHERE (wall.user_id = $1)"
        );
        assert_eq!(params, vec![Value::Int(7)]);
    }

    #[test]
    fn values_projection() {
        let (sel, _) = QuerySet::new(wall())
            .join_forward("user_id", &user())
            .values(&[("wall", "content"), ("users", "name")])
            .compile();
        assert!(sel
            .to_string()
            .starts_with("SELECT wall.content, users.name"));
    }

    #[test]
    fn orm_row_named_access() {
        let cols = std::sync::Arc::new(vec!["id".to_owned(), "name".to_owned()]);
        let r = OrmRow::new(cols, genie_storage::row![7i64, "bob"]);
        assert_eq!(r.id(), 7);
        assert_eq!(r.get("name"), &Value::Text("bob".into()));
        assert!(r.get("missing").is_null());
        assert_eq!(r.get_at(1), &Value::Text("bob".into()));
    }
}
