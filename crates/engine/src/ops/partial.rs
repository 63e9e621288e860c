//! Cross-shard partial aggregation.
//!
//! The morsel-parallel scan merges thread-local [`Acc`] partials inside
//! one process; this module extends the same
//! [`PartialState`](crate::ops::acc::PartialState) protocol
//! across process (or machine) boundaries: each disjoint shard runs
//! [`partial_aggregate`] and ships the resulting [`ShardPartial`] as
//! versioned bytes; a coordinator deserializes, [merges](ShardPartial::merge)
//! in any order, and [finalizes](ShardPartial::finalize) into the same
//! table a single-pass aggregation of the union would produce — the
//! contract the shard-merge differential oracle proves for every
//! aggregate function (DESIGN.md §14).
//!
//! Group keys are carried as materialized [`Value`] rows (never as
//! shard-local dense codes, which are not comparable across shards), and
//! the finalized table is sorted by key in [`Value::total_cmp`] order so
//! the output does not depend on the merge order.
//!
//! A partial is the scan core's result stopped before finish
//! (DESIGN.md "Scan core"): [`partial_aggregate`] plans one level, runs
//! the scan, and decodes the merged groups' keys once.

use crate::error::{EngineError, Result};
use crate::guard::ResourceGuard;
use crate::ops::acc::Acc;
use crate::ops::aggregate::{check_level, lane_column, AggFunc, AggSpec, PBits};
use crate::parallel::ParallelConfig;
use crate::scan::ScanPlan;
use crate::stats::ExecStats;
use pa_storage::partial::{
    frame, frame_into, put_dtype, put_f64, put_string, put_u32, put_value, unframe, Cursor,
};
use pa_storage::{Column, DataType, Field, FxHashMap, Schema, StorageError, Table, Value};

/// Frame tag distinguishing a whole shard partial from a single
/// accumulator frame (whose tags are small function discriminants).
const SHARD_FRAME_TAG: u8 = 200;

/// The partial result of aggregating one shard: group keys plus the
/// in-flight accumulator matrix, with enough schema to finalize anywhere.
#[derive(Debug, Clone)]
pub struct ShardPartial {
    key_fields: Vec<Field>,
    funcs: Vec<AggFunc>,
    agg_names: Vec<String>,
    agg_types: Vec<DataType>,
    /// Insertion-ordered groups; the index maps key → position.
    groups: Vec<(Vec<Value>, Vec<Acc>)>,
    index: FxHashMap<Vec<Value>, usize>,
}

/// Aggregate `input` grouped by `group_cols`, stopping *before* finalize:
/// the returned [`ShardPartial`] can merge with partials of disjoint
/// shards computed by other workers, processes, or replicas. Groups are
/// held in first-appearance order; parallelism and kernel path follow the
/// environment ([`ParallelConfig::from_env`]).
pub fn partial_aggregate(
    input: &Table,
    group_cols: &[usize],
    aggs: &[AggSpec],
    stats: &mut ExecStats,
) -> Result<ShardPartial> {
    check_level(input, group_cols, aggs)?;
    stats.statements += 1;
    stats.holistic_lanes += aggs.iter().filter(|s| s.func.is_holistic()).count() as u64;
    let config = ParallelConfig::from_env();
    let mut plan = ScanPlan::new(input.into(), &config);
    plan.push_level(group_cols, aggs, stats);
    stats.rows_scanned += input.num_rows() as u64;
    let guard = ResourceGuard::unlimited();
    let mut span = guard.span("partial");
    // (A global aggregate has its one group even over an empty shard, so
    // the merged total keeps SQL's one-row shape.)
    let mut levels = plan.run("partial_aggregate", &guard, &mut span, stats)?;
    let mut level = levels.pop().expect("one level in, one level out");
    // Keys are decoded here, once, from the merged codes, and the groups
    // enter the merge/serialize/finalize protocol in the scan's
    // first-appearance order.
    let schema = input.schema();
    let mut accs = std::mem::take(&mut level.accs).into_iter();
    let groups: Vec<(Vec<Value>, Vec<Acc>)> = (0..level.len())
        .map(|gid| {
            let key = (0..group_cols.len()).map(|d| level.key_value(input, gid, d));
            (key.collect(), accs.by_ref().take(aggs.len()).collect())
        })
        .collect();
    let index = groups
        .iter()
        .enumerate()
        .map(|(gid, (key, _))| (key.clone(), gid))
        .collect();
    Ok(ShardPartial {
        key_fields: group_cols
            .iter()
            .map(|&c| schema.field_at(c).clone())
            .collect(),
        funcs: aggs.iter().map(|s| s.func).collect(),
        agg_names: aggs.iter().map(|s| s.name.clone()).collect(),
        agg_types: aggs.iter().map(|s| s.output_type(schema)).collect(),
        groups,
        index,
    })
}

/// The canonical group order: key tuples in [`Value::total_cmp`] order.
fn cmp_keys(a: &[Value], b: &[Value]) -> std::cmp::Ordering {
    a.iter()
        .zip(b)
        .map(|(x, y)| x.total_cmp(y))
        .find(|o| o.is_ne())
        .unwrap_or(std::cmp::Ordering::Equal)
}

fn put_func(buf: &mut Vec<u8>, func: AggFunc) {
    let (tag, p) = match func {
        AggFunc::Sum => (1u8, 0.0),
        AggFunc::Count => (2, 0.0),
        AggFunc::CountDistinct => (3, 0.0),
        AggFunc::CountStar => (4, 0.0),
        AggFunc::Avg => (5, 0.0),
        AggFunc::Min => (6, 0.0),
        AggFunc::Max => (7, 0.0),
        AggFunc::Percentile(p) => (8, p.value()),
        AggFunc::ApproxPercentile(p) => (9, p.value()),
        AggFunc::ApproxCountDistinct => (10, 0.0),
    };
    buf.push(tag);
    put_f64(buf, p);
}

fn read_func(cur: &mut Cursor<'_>) -> Result<AggFunc> {
    let tag = cur.u8()?;
    let p = cur.f64()?;
    Ok(match tag {
        1 => AggFunc::Sum,
        2 => AggFunc::Count,
        3 => AggFunc::CountDistinct,
        4 => AggFunc::CountStar,
        5 => AggFunc::Avg,
        6 => AggFunc::Min,
        7 => AggFunc::Max,
        8 => AggFunc::Percentile(PBits::new(p)),
        9 => AggFunc::ApproxPercentile(PBits::new(p)),
        10 => AggFunc::ApproxCountDistinct,
        t => {
            return Err(EngineError::Storage(StorageError::PartialCodec(format!(
                "unknown aggregate function tag {t}"
            ))));
        }
    })
}

impl ShardPartial {
    /// Number of groups discovered on this shard so far.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    fn check_compatible(&self, other: &ShardPartial) -> Result<()> {
        if self.funcs != other.funcs
            || self.key_fields != other.key_fields
            || self.agg_names != other.agg_names
        {
            return Err(EngineError::InvalidOperator(format!(
                "cannot merge shard partials with different shapes: \
                 {:?}/{:?} vs {:?}/{:?}",
                self.key_fields, self.funcs, other.key_fields, other.funcs
            )));
        }
        Ok(())
    }

    /// Fold another shard's partial into this one. Order-insensitive for
    /// every exact aggregate and HLL; t-digest lanes are deterministic
    /// for a fixed merge order (DESIGN.md §14).
    pub fn merge(&mut self, other: ShardPartial) -> Result<()> {
        self.check_compatible(&other)?;
        for (key, accs) in other.groups {
            match self.index.get(&key) {
                Some(&gid) => {
                    for (mine, theirs) in self.groups[gid].1.iter_mut().zip(accs) {
                        mine.merge(theirs)?;
                    }
                }
                None => {
                    let gid = self.groups.len();
                    self.groups.push((key.clone(), accs));
                    self.index.insert(key, gid);
                }
            }
        }
        Ok(())
    }

    /// Canonical byte form: groups sorted by key, every accumulator in
    /// its own CRC-framed partial, the whole wrapped in one outer frame.
    pub fn serialize(&self) -> Vec<u8> {
        // Sized for typical sum/count lanes so the payload grows without
        // reallocating; wider accumulators (digests, HLL) just extend.
        let mut payload = Vec::with_capacity(
            64 + self.groups.len() * (12 * self.key_fields.len() + 40 * self.funcs.len()),
        );
        put_u32(&mut payload, self.key_fields.len() as u32);
        for f in &self.key_fields {
            put_string(&mut payload, &f.name);
            put_dtype(&mut payload, f.dtype);
        }
        put_u32(&mut payload, self.funcs.len() as u32);
        for ((func, name), dt) in self.funcs.iter().zip(&self.agg_names).zip(&self.agg_types) {
            put_func(&mut payload, *func);
            put_string(&mut payload, name);
            put_dtype(&mut payload, *dt);
        }
        let mut order: Vec<usize> = (0..self.groups.len()).collect();
        order.sort_by(|&a, &b| cmp_keys(&self.groups[a].0, &self.groups[b].0));
        put_u32(&mut payload, self.groups.len() as u32);
        // One scratch buffer for every accumulator payload: the framed
        // bytes are identical to `acc.serialize()`, but the two
        // allocations per accumulator it would cost dominate a store of
        // thousands of groups. The inner frame adds a 12-byte envelope
        // (header + CRC trailer) around the staged payload.
        let mut scratch = Vec::new();
        for gid in order {
            let (key, accs) = &self.groups[gid];
            for v in key {
                put_value(&mut payload, v);
            }
            for acc in accs {
                scratch.clear();
                let tag = acc.write_payload(&mut scratch);
                put_u32(&mut payload, (scratch.len() + 12) as u32);
                frame_into(&mut payload, tag, &scratch);
            }
        }
        frame(SHARD_FRAME_TAG, &payload)
    }

    /// Decode a frame produced by [`ShardPartial::serialize`]. Any
    /// corruption — outer frame or any inner accumulator frame — is a
    /// typed error, never a panic.
    pub fn deserialize(bytes: &[u8]) -> Result<ShardPartial> {
        let (tag, payload) = unframe(bytes)?;
        if tag != SHARD_FRAME_TAG {
            return Err(EngineError::Storage(StorageError::PartialCodec(format!(
                "expected a shard-partial frame (tag {SHARD_FRAME_TAG}), got tag {tag}"
            ))));
        }
        let mut cur = Cursor::new(payload);
        let n_keys = cur.u32()? as usize;
        let mut key_fields = Vec::with_capacity(n_keys.min(64));
        for _ in 0..n_keys {
            let name = cur.string()?;
            let dtype = cur.dtype()?;
            key_fields.push(Field::new(name, dtype));
        }
        let n_aggs = cur.u32()? as usize;
        let mut funcs = Vec::with_capacity(n_aggs.min(64));
        let mut agg_names = Vec::with_capacity(n_aggs.min(64));
        let mut agg_types = Vec::with_capacity(n_aggs.min(64));
        for _ in 0..n_aggs {
            funcs.push(read_func(&mut cur)?);
            agg_names.push(cur.string()?);
            agg_types.push(cur.dtype()?);
        }
        if n_aggs == 0 {
            return Err(EngineError::Storage(StorageError::PartialCodec(
                "shard partial declares zero aggregate lanes".into(),
            )));
        }
        let n_groups = cur.u32()? as usize;
        let mut groups = Vec::with_capacity(n_groups.min(1 << 16));
        let mut index = FxHashMap::default();
        for _ in 0..n_groups {
            let mut key = Vec::with_capacity(n_keys);
            for _ in 0..n_keys {
                key.push(cur.value()?);
            }
            let mut accs = Vec::with_capacity(n_aggs);
            for (i, func) in funcs.iter().enumerate() {
                let len = cur.u32()? as usize;
                let acc = Acc::deserialize(cur.take(len)?)?;
                if acc.func() != *func {
                    return Err(EngineError::Storage(StorageError::PartialCodec(format!(
                        "lane {i} carries {:?}, header declares {func:?}",
                        acc.func()
                    ))));
                }
                accs.push(acc);
            }
            index.insert(key.clone(), groups.len());
            groups.push((key, accs));
        }
        cur.finish()?;
        Ok(ShardPartial {
            key_fields,
            funcs,
            agg_names,
            agg_types,
            groups,
            index,
        })
    }

    /// Finalize into a result table sorted by group key — the same rows a
    /// single-pass aggregation over the shards' union produces (sorted on
    /// the keys), independent of merge order.
    pub fn finalize(mut self, stats: &mut ExecStats) -> Result<Table> {
        self.groups.sort_by(|(ka, _), (kb, _)| cmp_keys(ka, kb));
        let mut fields = self.key_fields.clone();
        for (name, dt) in self.agg_names.iter().zip(&self.agg_types) {
            fields.push(Field::new(name.clone(), *dt));
        }
        let schema = Schema::new(fields)?.into_shared();
        let mut columns: Vec<Column> = Vec::with_capacity(self.key_fields.len() + self.funcs.len());
        for (k, f) in self.key_fields.iter().enumerate() {
            let mut col = Column::with_capacity(f.dtype, self.groups.len());
            for (key, _) in &self.groups {
                col.push(key[k].clone())?;
            }
            columns.push(col);
        }
        for (i, dt) in self.agg_types.iter().enumerate() {
            let lane = self.groups.iter().map(|(_, accs)| &accs[i]);
            columns.push(lane_column(*dt, lane, stats)?);
        }
        stats.rows_materialized += self.groups.len() as u64;
        Ok(Table::from_columns(schema, columns)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::ops::aggregate::hash_aggregate;

    fn sales() -> Table {
        let schema = Schema::from_pairs(&[("state", DataType::Str), ("a", DataType::Float)])
            .unwrap()
            .into_shared();
        let mut t = Table::empty(schema);
        for (s, a) in [
            ("CA", 13.0),
            ("CA", 3.0),
            ("TX", 5.0),
            ("TX", 35.0),
            ("CA", 67.0),
            ("TX", 10.0),
        ] {
            t.push_row(&[Value::str(s), Value::Float(a)]).unwrap();
        }
        t
    }

    fn slice(t: &Table, rows: std::ops::Range<usize>) -> Table {
        t.take(&rows.collect::<Vec<_>>())
    }

    fn specs(t: &Table) -> Vec<AggSpec> {
        let a = Expr::col(t.schema(), "a").unwrap();
        vec![
            AggSpec::new(AggFunc::Sum, a.clone(), "s"),
            AggSpec::new(AggFunc::Percentile(PBits::new(0.5)), a.clone(), "med"),
            AggSpec::new(AggFunc::ApproxCountDistinct, a, "adx"),
        ]
    }

    #[test]
    fn two_shard_merge_equals_single_pass() {
        let t = sales();
        let sp = specs(&t);
        let mut st = ExecStats::default();
        let mut left = partial_aggregate(&slice(&t, 0..3), &[0], &sp, &mut st).unwrap();
        let right = partial_aggregate(&slice(&t, 3..6), &[0], &sp, &mut st).unwrap();
        left.merge(right).unwrap();
        let merged = left.finalize(&mut st).unwrap();
        let single = hash_aggregate(&t, &[0], &sp, &mut st)
            .unwrap()
            .sorted_by(&[0]);
        let a: Vec<Vec<Value>> = merged.rows().collect();
        let b: Vec<Vec<Value>> = single.rows().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn shard_partial_round_trips_over_the_wire() {
        let t = sales();
        let sp = specs(&t);
        let mut st = ExecStats::default();
        let p = partial_aggregate(&t, &[0], &sp, &mut st).unwrap();
        let bytes = p.serialize();
        let back = ShardPartial::deserialize(&bytes).unwrap();
        assert_eq!(back.serialize(), bytes, "canonical bytes");
        let a: Vec<Vec<Value>> = p.clone().finalize(&mut st).unwrap().rows().collect();
        let b: Vec<Vec<Value>> = back.finalize(&mut st).unwrap().rows().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn corrupted_shard_partial_is_a_typed_error() {
        let t = sales();
        let sp = specs(&t);
        let p = partial_aggregate(&t, &[0], &sp, &mut ExecStats::default()).unwrap();
        let bytes = p.serialize();
        for bit in (0..bytes.len() * 8).step_by(61) {
            let mut corrupt = bytes.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            let err = ShardPartial::deserialize(&corrupt).unwrap_err();
            assert!(
                matches!(err, EngineError::Storage(StorageError::PartialCodec(_))),
                "bit {bit}: {err}"
            );
        }
        for cut in 0..bytes.len() {
            assert!(ShardPartial::deserialize(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn mismatched_partials_refuse_to_merge() {
        let t = sales();
        let a = Expr::col(t.schema(), "a").unwrap();
        let mut st = ExecStats::default();
        let mut p1 = partial_aggregate(
            &t,
            &[0],
            &[AggSpec::new(AggFunc::Sum, a.clone(), "s")],
            &mut st,
        )
        .unwrap();
        let p2 =
            partial_aggregate(&t, &[0], &[AggSpec::new(AggFunc::Avg, a, "s")], &mut st).unwrap();
        assert!(p1.merge(p2).is_err());
    }

    #[test]
    fn global_aggregate_over_empty_shards_still_yields_one_row() {
        let t = sales();
        let sp = specs(&t);
        let mut st = ExecStats::default();
        let empty = Table::empty(t.schema().clone());
        let mut p = partial_aggregate(&empty, &[], &sp, &mut st).unwrap();
        let q = partial_aggregate(&empty, &[], &sp, &mut st).unwrap();
        p.merge(q).unwrap();
        let out = p.finalize(&mut st).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.get(0, 0), Value::Null, "sum of nothing");
    }
}
