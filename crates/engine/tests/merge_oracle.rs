//! Shard-merge differential oracle for the mergeable partial-aggregate
//! protocol (DESIGN.md §14).
//!
//! The contract under test: for **any** aggregate function, splitting a
//! table into `k` disjoint shards, aggregating each shard independently
//! with [`partial_aggregate`], shipping each [`ShardPartial`] through its
//! versioned wire encoding, merging the decoded partials in **any** order,
//! and finalizing must produce the exact table a single-pass aggregation
//! of the union produces — byte-identical, across shard counts, shuffle
//! seeds, and worker-thread counts.
//!
//! Determinism classes (the header of `ops/acc.rs`):
//!
//! * **Order-insensitive** — every exact aggregate plus the HLL sketch:
//!   byte-identical under any shard split and merge order. Measures are
//!   integer-valued floats, so float sums are exact under regrouping
//!   (same convention as the strategy differential oracle).
//! * **Ordered-deterministic** — the t-digest (`ApproxPercentile`):
//!   byte-identical when partials merge in a fixed order; within the
//!   documented rank-error bound under shuffles.
//!
//! The proptest half pins the merge algebra itself: `merge` is
//! associative and commutative with `Acc::new` as identity, every partial
//! survives a serialize → deserialize → merge round trip, and corrupted
//! or truncated bytes yield typed errors, never panics.

use pa_engine::{
    hash_aggregate_with_config, partial_aggregate, Acc, AggFunc, AggSpec, ExecStats, Expr, PBits,
    ParallelConfig, ResourceGuard, ShardPartial, TDIGEST_RANK_EPSILON,
};
use pa_storage::{DataType, Schema, Table, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[path = "support/reference.rs"]
mod reference;

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

/// Deterministic fact table: two dimension columns (with NULLs), one
/// integer-valued float measure (exact under regrouped addition, with
/// NULLs), one string measure for distinct counts.
fn fact_table(rows: usize, seed: u64) -> Table {
    let schema = Schema::from_pairs(&[
        ("g", DataType::Int),
        ("d", DataType::Str),
        ("a", DataType::Float),
        ("s", DataType::Str),
    ])
    .unwrap()
    .into_shared();
    let mut t = Table::empty(schema);
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..rows {
        let g = if rng.gen_bool(0.05) {
            Value::Null
        } else {
            Value::Int(rng.gen_range(0..5i64))
        };
        let d = Value::str(["x", "y", "z"][rng.gen_range(0..3usize)]);
        let a = if rng.gen_bool(0.1) {
            Value::Null
        } else {
            Value::Float(rng.gen_range(-50..=50i64) as f64)
        };
        let s = Value::str(format!("s{}", rng.gen_range(0..40u32)));
        t.push_row(&[g, d, a, s]).unwrap();
    }
    t
}

/// Every aggregate function of the protocol, exercised in one lane list.
/// `ApproxPercentile` is ordered-deterministic, not order-insensitive, so
/// the shuffled oracle splits the lane list on [`order_insensitive`].
fn all_funcs() -> Vec<(AggFunc, &'static str, &'static str)> {
    vec![
        (AggFunc::Sum, "a", "sum_a"),
        (AggFunc::Count, "a", "cnt_a"),
        (AggFunc::CountStar, "a", "n"),
        (AggFunc::Avg, "a", "avg_a"),
        (AggFunc::Min, "a", "min_a"),
        (AggFunc::Max, "a", "max_a"),
        (AggFunc::CountDistinct, "s", "ds"),
        (AggFunc::Percentile(PBits::new(0.5)), "a", "med_a"),
        (AggFunc::Percentile(PBits::new(0.95)), "a", "p95_a"),
        (AggFunc::ApproxPercentile(PBits::new(0.5)), "a", "amed_a"),
        (AggFunc::ApproxCountDistinct, "s", "ads"),
    ]
}

fn order_insensitive(func: AggFunc) -> bool {
    !matches!(func, AggFunc::ApproxPercentile(_))
}

fn specs_of(t: &Table, funcs: &[(AggFunc, &'static str, &'static str)]) -> Vec<AggSpec> {
    funcs
        .iter()
        .map(|(f, col, name)| AggSpec::new(*f, Expr::col(t.schema(), col).unwrap(), *name))
        .collect()
}

/// Split `t` into `k` disjoint shards by a seeded random assignment
/// (shards may be empty — the protocol must tolerate that).
fn random_shards(t: &Table, k: usize, seed: u64) -> Vec<Table> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); k];
    for row in 0..t.num_rows() {
        assignment[rng.gen_range(0..k)].push(row);
    }
    assignment
        .into_iter()
        .map(|rows| {
            let columns = t.columns().iter().map(|c| c.take(&rows)).collect();
            Table::from_columns(t.schema().clone(), columns).unwrap()
        })
        .collect()
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Shard, aggregate each shard, ship every partial through its wire
/// encoding, merge in a shuffled order, finalize.
fn sharded_result(
    t: &Table,
    group_cols: &[usize],
    specs: &[AggSpec],
    k: usize,
    seed: u64,
) -> Table {
    let mut stats = ExecStats::default();
    let mut wires: Vec<Vec<u8>> = random_shards(t, k, seed)
        .iter()
        .map(|shard| {
            partial_aggregate(shard, group_cols, specs, &mut stats)
                .unwrap()
                .serialize()
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    shuffle(&mut wires, &mut rng);
    let mut merged: Option<ShardPartial> = None;
    for bytes in &wires {
        let p = ShardPartial::deserialize(bytes).unwrap();
        match &mut merged {
            None => merged = Some(p),
            Some(m) => m.merge(p).unwrap(),
        }
    }
    merged.unwrap().finalize(&mut stats).unwrap()
}

fn single_pass(t: &Table, group_cols: &[usize], specs: &[AggSpec]) -> Table {
    let mut stats = ExecStats::default();
    partial_aggregate(t, group_cols, specs, &mut stats)
        .unwrap()
        .finalize(&mut stats)
        .unwrap()
}

fn rows_of(t: &Table) -> Vec<Vec<Value>> {
    t.rows().collect()
}

/// Rows of a hash-aggregate result, re-sorted into the finalize order
/// (keys ascending in `Value::total_cmp` order, NULLs first).
fn sorted_rows(t: &Table, key_cols: usize) -> Vec<Vec<Value>> {
    let mut rows = rows_of(t);
    rows.sort_by(|a, b| {
        a[..key_cols]
            .iter()
            .zip(&b[..key_cols])
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| *o != std::cmp::Ordering::Equal)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

// ---------------------------------------------------------------------
// The differential oracle
// ---------------------------------------------------------------------

/// Headline oracle: any split, any merge order, byte-identical to the
/// single pass — for every order-insensitive aggregate at once.
#[test]
fn shard_merge_identical_to_single_pass_any_split_any_order() {
    let t = fact_table(700, 7);
    let funcs: Vec<_> = all_funcs()
        .into_iter()
        .filter(|(f, ..)| order_insensitive(*f))
        .collect();
    let specs = specs_of(&t, &funcs);
    for group_cols in [vec![0usize], vec![0, 1], vec![]] {
        let want = rows_of(&single_pass(&t, &group_cols, &specs));
        for k in [1usize, 2, 3, 5, 8] {
            for seed in [1u64, 2, 3] {
                let got = rows_of(&sharded_result(&t, &group_cols, &specs, k, seed));
                assert_eq!(
                    got, want,
                    "k={k} seed={seed} group_cols={group_cols:?} diverged"
                );
            }
        }
    }
}

/// The sharded protocol agrees with the morsel-parallel operator the
/// query engine actually runs, at 1, 2, and 4 worker threads. Shards and
/// the single pass ride the same scan core, so the single pass also runs
/// with the fused kernels off: the per-row loop shares no block loop with
/// the shards. The full lane list keeps every level on that loop (min/max
/// and `count(DISTINCT)` cannot fuse); the fusable sublist sends the
/// shards through the block loop.
#[test]
fn shard_merge_matches_parallel_hash_aggregate_at_1_2_4_threads() {
    let t = fact_table(900, 11);
    let fusable: Vec<_> = all_funcs()
        .into_iter()
        .filter(|(f, col, _)| {
            *col == "a" && !matches!(f, AggFunc::Min | AggFunc::Max | AggFunc::CountDistinct)
        })
        .collect();
    for funcs in [all_funcs(), fusable] {
        let specs = specs_of(&t, &funcs);
        let group_cols = vec![0usize, 1];
        // Fixed merge order (seed-stable shards merged unshuffled) keeps the
        // t-digest lane deterministic too; compare against every thread count.
        let mut stats = ExecStats::default();
        let mut merged: Option<ShardPartial> = None;
        for shard in random_shards(&t, 4, 21) {
            let p = ShardPartial::deserialize(
                &partial_aggregate(&shard, &group_cols, &specs, &mut stats)
                    .unwrap()
                    .serialize(),
            )
            .unwrap();
            match &mut merged {
                None => merged = Some(p),
                Some(m) => m.merge(p).unwrap(),
            }
        }
        let sharded = merged.unwrap().finalize(&mut stats).unwrap();

        // The t-digest lane is ordered-deterministic: the engine's serial scan
        // updates row-by-row while the sharded path merges four digests, so
        // compare that lane by rank error, everything else byte-identically.
        let tdigest_lane = group_cols.len()
            + funcs
                .iter()
                .position(|(f, ..)| !order_insensitive(*f))
                .expect("the list has a t-digest lane");
        for threads in [1usize, 2, 4] {
            let what = format!("threads={threads} lanes={}", funcs.len());
            let config = ParallelConfig {
                threads,
                morsel_rows: 64,
                min_parallel_rows: 0,
                ..ParallelConfig::serial()
            };
            let mut engine_stats = ExecStats::default();
            let engine_out = hash_aggregate_with_config(
                &t,
                &group_cols,
                &specs,
                &ResourceGuard::unlimited(),
                &mut engine_stats,
                &config,
            )
            .unwrap();
            assert_eq!(engine_stats.scalar_kernel_rows, 0, "{what}");
            let want = sorted_rows(&engine_out, group_cols.len());
            let got = rows_of(&sharded);
            assert_eq!(got.len(), want.len(), "{what} group count");
            for (g, w) in got.iter().zip(&want) {
                for (lane, (gv, wv)) in g.iter().zip(w).enumerate() {
                    if lane == tdigest_lane {
                        let (gx, wx) = (gv.as_f64().unwrap_or(0.0), wv.as_f64().unwrap_or(0.0));
                        assert!(
                            (gx - wx).abs() <= 101.0 * TDIGEST_RANK_EPSILON,
                            "{what} t-digest lane drifted: {gx} vs {wx}"
                        );
                    } else {
                        assert_eq!(gv, wv, "{what} lane={lane} key={:?}", &g[..2]);
                    }
                }
            }
        }
    }
}

/// The t-digest lane is byte-identical under a *fixed* merge order, and
/// rank-bounded under shuffles.
#[test]
fn tdigest_lane_deterministic_under_fixed_merge_order() {
    let t = fact_table(600, 13);
    let specs = specs_of(
        &t,
        &[(AggFunc::ApproxPercentile(PBits::new(0.9)), "a", "p90")],
    );
    let group_cols = [0usize];
    let run = |_: u64| {
        let mut stats = ExecStats::default();
        let mut merged: Option<ShardPartial> = None;
        for shard in random_shards(&t, 3, 99) {
            let p = partial_aggregate(&shard, &group_cols, &specs, &mut stats).unwrap();
            match &mut merged {
                None => merged = Some(p),
                Some(m) => m.merge(p).unwrap(),
            }
        }
        merged.unwrap().serialize()
    };
    assert_eq!(run(0), run(1), "fixed merge order must be reproducible");

    // Shuffled orders stay within the documented rank-error bound of the
    // exact percentile (|a| <= 50, so 2·epsilon·range = 10).
    let exact_specs = specs_of(&t, &[(AggFunc::Percentile(PBits::new(0.9)), "a", "p90")]);
    let exact = single_pass(&t, &group_cols, &exact_specs);
    for seed in [5u64, 6, 7] {
        let approx = sharded_result(&t, &group_cols, &specs, 3, seed);
        for (a, e) in rows_of(&approx).iter().zip(rows_of(&exact)) {
            let (av, ev) = (a[1].as_f64().unwrap_or(0.0), e[1].as_f64().unwrap_or(0.0));
            assert!(
                (av - ev).abs() <= 101.0 * TDIGEST_RANK_EPSILON,
                "seed={seed}: approx {av} too far from exact {ev}"
            );
        }
    }
}

/// Empty shards, empty tables, and the one-row global-aggregate shape.
#[test]
fn empty_shards_and_global_aggregates() {
    let t = fact_table(40, 3);
    let funcs = all_funcs();
    let specs = specs_of(&t, &funcs);
    // 16 shards over 40 rows: some shards are empty with high probability.
    let want = rows_of(&single_pass(&t, &[], &specs));
    assert_eq!(want.len(), 1, "global aggregate is one row");
    let got = rows_of(&sharded_result(&t, &[], &specs, 16, 2));
    // Drop the t-digest lane from the byte comparison (ordered class).
    let lane = 9;
    for (g, w) in got.iter().zip(&want) {
        for (i, (gv, wv)) in g.iter().zip(w).enumerate() {
            if i != lane {
                assert_eq!(gv, wv, "lane {i}");
            }
        }
    }

    // An all-empty union finalizes to the SQL empty-aggregate row.
    let schema = t.schema().clone();
    let empty = Table::empty(schema);
    let out = single_pass(&empty, &[], &specs);
    assert_eq!(out.num_rows(), 1);
    assert_eq!(rows_of(&out)[0][0], Value::Null, "sum of nothing is NULL");
    // ... and grouped aggregation of nothing is zero rows.
    let out = single_pass(&empty, &[0], &specs);
    assert_eq!(out.num_rows(), 0);
}

// ---------------------------------------------------------------------
// Holistic lanes at block speed: vectorized vs scalar (DESIGN.md §12)
// ---------------------------------------------------------------------

/// `fact_table` plus an integer measure `m` and an all-NULL measure `z`,
/// optionally sorted on the keys (long runs: the kernels' RLE path).
fn holistic_table(rows: usize, seed: u64, sorted: bool) -> Table {
    let base = fact_table(rows, seed);
    let mut order: Vec<usize> = (0..rows).collect();
    if sorted {
        order.sort_by(|&a, &b| {
            let key = |r: usize| [base.get(r, 0), base.get(r, 1)];
            let (ka, kb) = (key(a), key(b));
            ka[0].total_cmp(&kb[0]).then(ka[1].total_cmp(&kb[1]))
        });
    }
    let schema = Schema::from_pairs(&[
        ("g", DataType::Int),
        ("d", DataType::Str),
        ("a", DataType::Float),
        ("m", DataType::Int),
        ("z", DataType::Float),
    ])
    .unwrap()
    .into_shared();
    let mut t = Table::empty(schema);
    for (i, &r) in order.iter().enumerate() {
        let m = if i % 13 == 0 {
            Value::Null
        } else {
            Value::Int((1 << 53) + (r % 17) as i64)
        };
        t.push_row(&[
            base.get(r, 0),
            base.get(r, 1),
            base.get(r, 2),
            m,
            Value::Null,
        ])
        .unwrap();
    }
    t
}

/// A result table down to the bit: `Value` equality calls `Int(3)` and
/// `Float(3.0)`, `0.0` and `-0.0` equal; these strings do not.
fn exact_rows(t: &Table) -> Vec<Vec<String>> {
    t.rows()
        .map(|row| {
            row.iter()
                .map(|v| match v {
                    Value::Float(x) => format!("f{:016x}", x.to_bits()),
                    other => format!("{other:?}"),
                })
                .collect()
        })
        .collect()
}

/// Every holistic function over a numeric column, alone and beside
/// `sum`/`count(*)`: the fused lanes and the naive reference over the same
/// worker chunks return the same table and the same `sketch_spills` — at
/// 1, 2 and 4 workers, on the dense
/// and the wide tier and with an empty GROUP BY, on unsorted (scatter) and
/// key-sorted (RLE) input, over NULL-carrying, all-NULL and past-2^53
/// integer measures, with groups inside the percentile budget and crossing
/// it in mid-block.
#[test]
fn holistic_lanes_match_the_reference_across_the_kernel_matrix() {
    const N: usize = 9_000;
    let holistic = [
        (AggFunc::Percentile(PBits::new(0.5)), "a"),
        (AggFunc::Percentile(PBits::new(0.9)), "m"),
        (AggFunc::ApproxPercentile(PBits::new(0.5)), "a"),
        (AggFunc::ApproxCountDistinct, "m"),
        (AggFunc::ApproxCountDistinct, "a"),
        (AggFunc::Percentile(PBits::new(0.25)), "z"),
        (AggFunc::ApproxPercentile(PBits::new(0.25)), "z"),
        (AggFunc::ApproxCountDistinct, "z"),
    ];
    let mut spills_seen = 0;
    for sorted in [false, true] {
        let t = holistic_table(N, 29, sorted);
        let mut lane_lists: Vec<Vec<(AggFunc, &str, &str)>> = Vec::new();
        for &(func, col) in &holistic {
            lane_lists.push(vec![(func, col, "h")]);
            lane_lists.push(vec![
                (AggFunc::Sum, "a", "s"),
                (func, col, "h"),
                (AggFunc::CountStar, "a", "n"),
            ]);
        }
        for lanes in &lane_lists {
            let specs = specs_of(&t, lanes);
            let order_insensitive = lanes.iter().all(|(f, ..)| order_insensitive(*f));
            for group_cols in [vec![0usize], vec![0, 1], vec![]] {
                // (dense budget, percentile budget): both tiers, and groups
                // of ~600–1 800 rows inside and across the percentile budget.
                for (dense_budget, percentile_budget) in
                    [(1 << 20, 1 << 16), (0, 1 << 16), (1 << 20, 700), (0, 700)]
                {
                    let mut serial: Option<Vec<Vec<String>>> = None;
                    for threads in [1usize, 2, 4] {
                        let what = format!(
                            "sorted={sorted} lanes={lanes:?} group_cols={group_cols:?} \
                             dense_budget={dense_budget} percentile_budget={percentile_budget} \
                             threads={threads}"
                        );
                        let config = ParallelConfig {
                            threads,
                            morsel_rows: 2_048,
                            min_parallel_rows: 0,
                            dense_budget,
                            percentile_budget,
                        };
                        let mut fused_stats = ExecStats::default();
                        let fused = hash_aggregate_with_config(
                            &t,
                            &group_cols,
                            &specs,
                            &ResourceGuard::unlimited(),
                            &mut fused_stats,
                            &config,
                        )
                        .unwrap();
                        let fused = exact_rows(&fused);
                        // The naive reference over the same worker chunks.
                        let rows = || reference::Rows::all(N).chunked(config.chunks(N));
                        let want = reference::aggregate(
                            &t,
                            &rows(),
                            &group_cols,
                            &specs,
                            percentile_budget,
                        );
                        assert_eq!(fused, exact_rows(&want), "{what}");
                        let (_, accs) =
                            reference::groups(&t, &rows(), &group_cols, &specs, percentile_budget);
                        let spills = accs.iter().flatten().filter(|acc| acc.spilled()).count();
                        assert_eq!(fused_stats.sketch_spills, spills as u64, "{what}");
                        spills_seen += fused_stats.sketch_spills;
                        assert_eq!(fused_stats.scalar_kernel_rows, 0, "{what}");
                        assert_eq!(fused_stats.vectorized_kernel_rows, N as u64, "{what}");
                        if sorted && !group_cols.is_empty() {
                            assert!(fused_stats.rle_runs > 0, "{what}: run path");
                        }
                        // Exact states and HLL merge identically in any
                        // worker split; a digest (or a spilled percentile)
                        // is only ordered-deterministic.
                        if order_insensitive && percentile_budget > N {
                            let want = serial.get_or_insert_with(|| fused.clone());
                            assert_eq!(&fused, want, "{what}: vs one worker");
                        }
                    }
                }
            }
        }
    }
    assert!(spills_seen > 0, "the small budget must make groups spill");
}

// ---------------------------------------------------------------------
// Merge-algebra laws (proptest)
// ---------------------------------------------------------------------

/// Values drawn for accumulator streams: ints, floats (integer-valued for
/// exactness), strings, and NULLs.
fn value_stream() -> impl Strategy<Value = Vec<Value>> {
    prop::collection::vec(
        prop_oneof![
            3 => (-40i64..40).prop_map(Value::Int),
            3 => (-40i64..40).prop_map(|x| Value::Float(x as f64)),
            1 => Just(Value::Null),
        ],
        0..60,
    )
}

fn str_stream() -> impl Strategy<Value = Vec<Value>> {
    prop::collection::vec(
        prop_oneof![
            4 => (0u32..25).prop_map(|i| Value::str(format!("k{i}"))),
            1 => Just(Value::Null),
        ],
        0..60,
    )
}

/// Functions whose serialized accumulator state must be identical under
/// any merge tree (the order-insensitive class).
fn exact_and_hll_funcs() -> Vec<AggFunc> {
    vec![
        AggFunc::Sum,
        AggFunc::Count,
        AggFunc::CountStar,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::CountDistinct,
        AggFunc::Percentile(PBits::new(0.25)),
        AggFunc::Percentile(PBits::new(0.5)),
        AggFunc::ApproxCountDistinct,
    ]
}

fn acc_of(func: AggFunc, values: &[Value]) -> Acc {
    let mut acc = Acc::new(func);
    for v in values {
        acc.update(v).unwrap();
    }
    acc
}

fn stream_for(func: AggFunc, nums: &[Value], strs: &[Value]) -> Vec<Value> {
    if matches!(func, AggFunc::CountDistinct | AggFunc::ApproxCountDistinct) {
        strs.to_vec()
    } else {
        nums.to_vec()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// merge is associative and commutative, with `Acc::new` as identity,
    /// down to the serialized bytes — for every order-insensitive function.
    #[test]
    fn merge_algebra_laws(nums in value_stream(), strs in str_stream(),
                          cut1 in 0usize..60, cut2 in 0usize..60) {
        for func in exact_and_hll_funcs() {
            let stream = stream_for(func, &nums, &strs);
            let c1 = cut1.min(stream.len());
            let c2 = cut2.min(stream.len()).max(c1);
            let (xs, ys, zs) = (&stream[..c1], &stream[c1..c2], &stream[c2..]);

            let whole = acc_of(func, &stream);

            // Associativity: (x+y)+z == x+(y+z) == whole.
            let mut left = acc_of(func, xs);
            left.merge(acc_of(func, ys)).unwrap();
            left.merge(acc_of(func, zs)).unwrap();
            let mut right = acc_of(func, ys);
            right.merge(acc_of(func, zs)).unwrap();
            let mut x = acc_of(func, xs);
            x.merge(right).unwrap();
            prop_assert_eq!(left.serialize(), x.serialize(), "assoc {:?}", func);
            prop_assert_eq!(left.serialize(), whole.serialize(), "split {:?}", func);
            prop_assert_eq!(left.finish(), whole.finish(), "finalize {:?}", func);

            // Commutativity: x+y == y+x.
            let mut xy = acc_of(func, xs);
            xy.merge(acc_of(func, &stream[c1..])).unwrap();
            let mut yx = acc_of(func, &stream[c1..]);
            yx.merge(acc_of(func, xs)).unwrap();
            prop_assert_eq!(xy.serialize(), yx.serialize(), "comm {:?}", func);

            // Identity: new + x == x == x + new.
            let mut id = Acc::new(func);
            id.merge(acc_of(func, &stream)).unwrap();
            prop_assert_eq!(id.serialize(), whole.serialize(), "lid {:?}", func);
            let mut xid = acc_of(func, &stream);
            xid.merge(Acc::new(func)).unwrap();
            prop_assert_eq!(xid.serialize(), whole.serialize(), "rid {:?}", func);
        }
    }

    /// The t-digest is deterministic under a fixed merge order: folding
    /// the same splits in the same order twice gives identical bytes.
    #[test]
    fn tdigest_fixed_order_reproducible(nums in value_stream(), cut in 0usize..60) {
        let func = AggFunc::ApproxPercentile(PBits::new(0.5));
        let c = cut.min(nums.len());
        let fold = || {
            let mut acc = acc_of(func, &nums[..c]);
            acc.merge(acc_of(func, &nums[c..])).unwrap();
            acc.serialize()
        };
        prop_assert_eq!(fold(), fold());
        // Identity holds for the ordered class too.
        let mut id = Acc::new(func);
        id.merge(acc_of(func, &nums)).unwrap();
        prop_assert_eq!(id.serialize(), acc_of(func, &nums).serialize());
    }

    /// Every partial survives serialize → deserialize → merge, and the
    /// decoded copy is indistinguishable from the original.
    #[test]
    fn serialization_round_trip_then_merge(nums in value_stream(), strs in str_stream()) {
        let mut funcs = exact_and_hll_funcs();
        funcs.push(AggFunc::ApproxPercentile(PBits::new(0.75)));
        for func in funcs {
            let stream = stream_for(func, &nums, &strs);
            let acc = acc_of(func, &stream);
            let decoded = Acc::deserialize(&acc.serialize()).unwrap();
            prop_assert_eq!(acc.serialize(), decoded.serialize(), "{:?}", func);
            prop_assert_eq!(acc.finish(), decoded.finish(), "{:?}", func);
            // A decoded partial must keep merging.
            let mut m = decoded;
            m.merge(Acc::deserialize(&acc.serialize()).unwrap()).unwrap();
            let mut direct = acc_of(func, &stream);
            direct.merge(acc_of(func, &stream)).unwrap();
            if order_insensitive(func) {
                prop_assert_eq!(m.serialize(), direct.serialize(), "{:?}", func);
            }
        }
    }

    /// Corrupting any single bit, or truncating at any length, of a
    /// serialized shard partial yields a typed error — never a panic,
    /// never a silently wrong decode that differs from the original.
    #[test]
    fn corrupted_partials_fail_typed(seed in 0u64..500) {
        let t = fact_table(30, seed);
        let specs = specs_of(&t, &all_funcs());
        let mut stats = ExecStats::default();
        let wire = partial_aggregate(&t, &[0], &specs, &mut stats).unwrap().serialize();
        // Truncations: every prefix must fail cleanly.
        let step = (wire.len() / 23).max(1);
        for cut in (0..wire.len()).step_by(step) {
            prop_assert!(ShardPartial::deserialize(&wire[..cut]).is_err(), "cut={cut}");
        }
        // Bit flips: CRC coverage means any decode is an error (flips in
        // the checksum itself included).
        let bit_step = (wire.len() * 8 / 61).max(1);
        for bit in (0..wire.len() * 8).step_by(bit_step) {
            let mut bad = wire.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(ShardPartial::deserialize(&bad).is_err(), "bit={bit}");
        }
    }
}

/// `CountDistinct` merge determinism regression: the FxHashSet union used
/// to leak iteration order into serialized bytes; the canonical encoding
/// sorts elements, so any accumulation path yields identical bytes.
#[test]
fn count_distinct_bytes_independent_of_accumulation_path() {
    let keys: Vec<Value> = (0..50).map(|i| Value::str(format!("k{i}"))).collect();
    let whole = acc_of(AggFunc::CountDistinct, &keys);
    let mut rng = StdRng::seed_from_u64(17);
    for _ in 0..10 {
        let mut shuffled = keys.clone();
        shuffle(&mut shuffled, &mut rng);
        // Random split points, merged in random order.
        let cut = rng.gen_range(0..shuffled.len());
        let mut a = acc_of(AggFunc::CountDistinct, &shuffled[cut..]);
        a.merge(acc_of(AggFunc::CountDistinct, &shuffled[..cut]))
            .unwrap();
        assert_eq!(a.serialize(), whole.serialize());
        assert_eq!(a.finish(), Value::Int(50));
    }
}
