//! A delegating [`Adapter`] that records `db.*` spans around the real
//! adapter's calls, for the nodes the benchmark builds itself.

use crate::trace;
use std::collections::BTreeMap;
use std::sync::Arc;
use synapse_db::query::OrderBy;
use synapse_db::{Engine, Filter, QueryResult, Row};
use synapse_model::{Id, ModelSchema, Record, Value};
use synapse_orm::{Adapter, OrmError};

/// Which side of replication the wrapped adapter serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// A publisher's database: `db.pub_write`, `db.pub_read`, and the
    /// bootstrap copier's paged reads as `db.page_read`.
    Publisher,
    /// A subscriber's database: `db.sub_write`.
    Subscriber,
}

/// See the module docs.
pub struct TracedAdapter {
    inner: Arc<dyn Adapter>,
    side: Side,
}

impl TracedAdapter {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn Adapter>, side: Side) -> Arc<TracedAdapter> {
        Arc::new(TracedAdapter { inner, side })
    }

    fn write_span(&self) -> Option<trace::Guard> {
        trace::enter(match self.side {
            Side::Publisher => "db.pub_write",
            Side::Subscriber => "db.sub_write",
        })
    }

    fn read_span(&self, filter: Option<&Filter>) -> Option<trace::Guard> {
        match (self.side, filter) {
            (Side::Subscriber, _) => None,
            (Side::Publisher, Some(Filter::IdAfter(_))) => trace::enter("db.page_read"),
            (Side::Publisher, _) => trace::enter("db.pub_read"),
        }
    }
}

impl Adapter for TracedAdapter {
    fn orm_name(&self) -> &'static str {
        self.inner.orm_name()
    }

    fn engine(&self) -> &dyn Engine {
        self.inner.engine()
    }

    fn table_for(&self, model: &str) -> String {
        self.inner.table_for(model)
    }

    fn define_model(&self, schema: &ModelSchema) -> Result<(), OrmError> {
        self.inner.define_model(schema)
    }

    fn encode_attrs(&self, schema: &ModelSchema, attrs: &BTreeMap<String, Value>) -> Row {
        self.inner.encode_attrs(schema, attrs)
    }

    fn decode_row(&self, schema: &ModelSchema, id: Id, row: Row) -> Record {
        self.inner.decode_row(schema, id, row)
    }

    fn insert(&self, schema: &ModelSchema, record: &Record) -> Result<Record, OrmError> {
        let _span = self.write_span();
        self.inner.insert(schema, record)
    }

    fn update(
        &self,
        schema: &ModelSchema,
        id: Id,
        changes: &BTreeMap<String, Value>,
    ) -> Result<Record, OrmError> {
        let _span = self.write_span();
        self.inner.update(schema, id, changes)
    }

    fn delete(&self, schema: &ModelSchema, id: Id) -> Result<Option<Record>, OrmError> {
        let _span = self.write_span();
        self.inner.delete(schema, id)
    }

    fn find(&self, schema: &ModelSchema, id: Id) -> Result<Option<Record>, OrmError> {
        let mut span = self.read_span(None);
        let found = self.inner.find(schema, id)?;
        if let Some(s) = span.as_mut() {
            s.items(u64::from(found.is_some()));
        }
        Ok(found)
    }

    fn select(
        &self,
        schema: &ModelSchema,
        filter: Filter,
        order: Option<OrderBy>,
        limit: Option<usize>,
    ) -> Result<Vec<Record>, OrmError> {
        let mut span = self.read_span(Some(&filter));
        let rows = self.inner.select(schema, filter, order, limit)?;
        if let Some(s) = span.as_mut() {
            s.items(rows.len() as u64);
        }
        Ok(rows)
    }

    fn count(&self, schema: &ModelSchema, filter: Filter) -> Result<u64, OrmError> {
        let _span = self.read_span(Some(&filter));
        self.inner.count(schema, filter)
    }

    fn written_image(
        &self,
        schema: &ModelSchema,
        table: &str,
        id: Id,
        res: QueryResult,
    ) -> Result<Record, OrmError> {
        self.inner.written_image(schema, table, id, res)
    }
}
