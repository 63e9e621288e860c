#!/usr/bin/env sh
# Local CI gate: run everything the hosted pipeline runs, in the same order.
# Fails fast on the first broken step.
set -eu

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> temp-table gate: no query path registers, logs or sweeps a table"
# A query's intermediates and results are values (DESIGN.md §8). The one
# plan that stores a table, the Update materialization's Fk, goes through
# Catalog::write / drop_table in vertical.rs::StoredFk and needs none of
# these.
if grep -rnE 'create_or_replace_table|create_table_as|drop_prefixed' \
  crates/core/src crates/service/src; then
  echo "temp-table machinery reappeared under crates/core/src or crates/service/src" >&2
  exit 1
fi

echo "==> selection gate: no query path applies a predicate by copying rows"
# WHERE, and each SPJ combination, is a selection the scan core reads in
# place (DESIGN.md §16). The materialising form, pa_engine::filter, is for
# callers that want the rows themselves (the benchmark's probe and replay,
# tests, examples); nothing under core or service may call it, by path or
# by imported name, or bring back the executor's filter_fact.
if grep -rnE '(^|[^.[:alnum:]_])filter\(|filter_fact' \
  crates/core/src crates/service/src; then
  echo "a query path copies rows to filter them (crates/core/src or crates/service/src)" >&2
  exit 1
fi

echo "==> distinct gate: DISTINCT is a scan-core pass, not a tuple-hash loop"
# `SELECT DISTINCT cols` is `GROUP BY cols` with no aggregate: one level of
# the scan core with no lanes (DESIGN.md §16), under the statement's guard
# and configuration. The per-row tuple hash it used to walk survives only as
# the reference of the operator's own differential test.
if sed '/^#\[cfg(test)\]/,$d' crates/engine/src/ops/distinct.rs | grep -n 'RowKeyMap'; then
  echo "crates/engine/src/ops/distinct.rs names RowKeyMap outside #[cfg(test)]" >&2
  exit 1
fi

echo "==> pivot gate: rows and cells come through parent, not a tuple-hash map"
# The pivot's rows are its cell level's `parent` projections and its cells
# are placed by projected code (DESIGN.md §16, §17); the per-key lookups a
# level without codes needs live in the scan core, beside `parent`. A
# `RowKeyMap` in the adapter is the `address` pass and the row map coming
# back.
if sed '/^#\[cfg(test)\]/,$d' crates/engine/src/ops/pivot.rs | grep -n 'RowKeyMap'; then
  echo "crates/engine/src/ops/pivot.rs names RowKeyMap outside #[cfg(test)]" >&2
  exit 1
fi

echo "==> one scan mode gate: every key is coded and every lane rides the block loop"
# The scan core has one mode (DESIGN.md §16): a key is coded dense, wide,
# or — when no coder packs it — hashed as a tuple of key fragments, and a
# lane no typed kernel reads rides the same block loop as an `Acc` lane.
# The per-row mode, its `Value`-keyed group map and the knob that selected
# it are gone: outside #[cfg(test)], crates/*/src names no `ScalarScan`,
# `GroupMap` or `PA_VECTOR`, and `ParallelConfig` has no `vector:` field.
if find crates/*/src -name '*.rs' | sort | while read -r f; do
  sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nwE 'ScalarScan|GroupMap|PA_VECTOR' | sed "s|^|$f:|"
done | grep .; then
  echo "the per-row scan mode reappeared (ScalarScan, GroupMap or PA_VECTOR under crates/*/src)" >&2
  exit 1
fi
if sed -n '/^pub struct ParallelConfig/,/^}/p' crates/engine/src/parallel.rs | grep -nE '\bvector[[:space:]]*:'; then
  echo "ParallelConfig has a vector: field again (crates/engine/src/parallel.rs)" >&2
  exit 1
fi

echo "==> divide gate: the lattice assembles typed columns and joins nothing"
# A percentage is a measure looked up through `parent` (DESIGN.md §17):
# the assembler appends whole columns and calls `divide`. A `Value::` in
# crates/core/src/lattice.rs outside its tests is a per-row push or a
# per-row divide coming back; a `hash_join` is the lookup `parent` replaced.
if sed '/^#\[cfg(test)\]/,$d' crates/core/src/lattice.rs | grep -nE 'Value::|hash_join'; then
  echo "crates/core/src/lattice.rs names Value:: or hash_join outside #[cfg(test)]" >&2
  exit 1
fi
# One equi-join: a lookup returning one `parent` row per left row (DESIGN.md
# §17). The Value-keyed join, its join-type switch, the Option gather and
# the per-row UPDATE expression are gone from every source, bench and test.
# The index and the UPDATE name no `Value::` outside their tests: no key,
# probe or quotient is built as a `Value` (the after image the catalog logs
# is read from the divided column).
if grep -rnwE 'hash_join|hash_join_guarded|JoinType|take_opt|eval2|SetClause' \
  crates/*/src crates/*/benches crates/*/tests tests; then
  echo "a second join path reappeared (hash_join, JoinType, take_opt, eval2 or SetClause)" >&2
  exit 1
fi
for f in crates/storage/src/index.rs crates/engine/src/ops/update.rs; do
  sed '/^#\[cfg(test)\]/,$d' "$f" | grep -n 'Value::' | sed "s|^|$f:|"
done | if grep .; then
  echo "the join index or the keyed UPDATE builds a Value outside #[cfg(test)]" >&2
  exit 1
fi

echo "==> typed-columns gate: after the scan, a column is one typed operation"
# After the scan every result column is moved, divided (`divide`) or filled
# (`Column::zero_nulls`) whole (DESIGN.md §17): the row-by-row projection,
# its specs and the expression forms only it evaluated are gone, and the
# horizontal post-projection, the OLAP divide, the missing-row pads and the
# vertical plans push no row of `Value`s and hash no `Value` tuple.
if [ -e crates/engine/src/ops/project.rs ]; then
  echo "crates/engine/src/ops/project.rs reappeared" >&2
  exit 1
fi
if grep -rnE '(^|[^.:[:alnum:]_])project\(' crates/*/src | grep -v 'fn project(' ||
  grep -rnwE 'ProjSpec|SafeDiv|IsNull' crates/*/src ||
  grep -rn 'Expr::Cast' crates/*/src; then
  echo "a per-row projection reappeared (project, ProjSpec, SafeDiv, Expr::Cast or IsNull)" >&2
  exit 1
fi
for f in crates/core/src/horizontal.rs crates/core/src/olap.rs \
  crates/core/src/missing.rs crates/core/src/vertical.rs; do
  sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE 'push_row|RowKeyMap' | sed "s|^|$f:|"
done | if grep .; then
  echo "a result is assembled row by row (push_row or RowKeyMap outside #[cfg(test)])" >&2
  exit 1
fi

echo "==> one cache, one producer: combinations are cached levels, the lattice adapter returns tables"
# The catalog holds one cache of derived data, the level cache, whose
# zero-lane entries are the BY combinations (DESIGN.md §15), and
# `lattice_aggregate` hands core finished, key-sorted level tables. A
# `ComboCache` anywhere under crates/*/src is the second cache coming back;
# a `ShardPartial` or a `finalize(` in crates/core/src/lattice.rs outside its
# tests is the per-`Value` detour through the shard wire form coming back.
if [ -e crates/storage/src/combos.rs ] || grep -rn 'ComboCache' crates/*/src; then
  echo "a second cache of derived data reappeared (combos.rs / ComboCache)" >&2
  exit 1
fi
if sed '/^#\[cfg(test)\]/,$d' crates/core/src/lattice.rs | grep -nE 'ShardPartial|finalize\('; then
  echo "crates/core/src/lattice.rs names ShardPartial or finalize( outside #[cfg(test)]" >&2
  exit 1
fi

echo "==> transcript gate: the generated SQL is EXPLAIN's, executing renders none"
# A statement's SQL script is rendered when EXPLAIN asks for it (DESIGN.md
# §2), never on the execute path: outside the tests, the code generator is
# called from one place under crates/core/src, the EXPLAIN renderer
# `executor.rs::codegen_lines`.
if for f in crates/core/src/*.rs; do
  explain=''
  if [ "$f" = crates/core/src/executor.rs ]; then
    explain='/ fn codegen_lines(/,/^    }$/d'
  fi
  sed -e '/^#\[cfg(test)\]/,$d' -e "$explain" "$f" | grep -n 'codegen::' | sed "s|^|$f:|"
done | grep .; then
  echo "codegen:: is called outside executor.rs::codegen_lines under crates/core/src" >&2
  exit 1
fi

echo "==> planned-once gate: SQL text is parsed in prepare, a lattice request lowered once"
# A statement's text maps to one shared plan (DESIGN.md §19): outside the
# tests, SQL is parsed in one place under crates/core/src and
# crates/service/src, `executor.rs::prepare`; and a lattice request's lanes
# and levels are lowered by `Request::lower` alone (which `Request::new`,
# the batch constructor and EXPLAIN go through), never per execution.
if for f in crates/core/src/*.rs crates/service/src/*.rs; do
  prepare=''
  if [ "$f" = crates/core/src/executor.rs ]; then
    prepare='/ fn prepare(/,/^    }$/d'
  fi
  sed -e '/^#\[cfg(test)\]/,$d' -e "$prepare" "$f" |
    grep -nE 'pa_sql::parse\(|parse_statement\(' | sed "s|^|$f:|"
done | grep .; then
  echo "SQL text is parsed outside executor.rs::prepare" >&2
  exit 1
fi
if sed -e '/^#\[cfg(test)\]/,$d' -e '/ fn lower(/,/^    }$/d' -e '/^fn request_levels(/d' \
  crates/core/src/lattice.rs | grep -nE 'Lanes::of\(|request_levels\('; then
  echo "crates/core/src/lattice.rs lowers a request outside Request::lower" >&2
  exit 1
fi

echo "==> one-Vpct-plan gate: every knob-less Vpct is one lattice request"
# A `Vpct` without strategy knobs runs as one lattice request whatever its
# term count (DESIGN.md §15, §19); the paper's strategies run only when a
# knob names them. Outside the tests, executor.rs forks on no term count,
# and asks the optimizer for a vertical strategy only where EXPLAIN renders
# the paper's script, `executor.rs::codegen_lines`.
if sed '/^#\[cfg(test)\]/,$d' crates/core/src/executor.rs | grep -n 'terms\.len()' ||
  sed -e '/^#\[cfg(test)\]/,$d' -e '/ fn codegen_lines(/,/^    }$/d' \
    crates/core/src/executor.rs | grep -n 'choose_vpct_strategy('; then
  echo "crates/core/src/executor.rs forks a knob-less Vpct off the lattice request" >&2
  exit 1
fi

echo "==> no-process-state gate: a statement is handed its configuration and its injector"
# A statement's scan configuration is its engine's (`with_config`, else the
# `PA_*` deployment settings read once at the door by `Fact::config`) and a
# fault injector rides on the guard it was armed for (DESIGN.md §18): no
# test or bench writes the environment, nothing holds
# a process-wide trigger or a lock around one, and engine configuration
# does not come back as a horizontal option. (`scale.rs` keeps
# `hash_dispatch` as the name of a results row: the same pivot by an engine
# handed dense budget 0.)
if grep -rnE 'set_var|remove_var' crates src tests examples; then
  echo "something writes the process environment" >&2
  exit 1
fi
if grep -rnE 'static (PANIC_AFTER|CHAOS|ENV)\b' crates src tests examples; then
  echo "a process-global trigger or window lock reappeared" >&2
  exit 1
fi
if grep -rnE 'ParallelMode|hash_dispatch|scalar_kernels' crates/*/src |
  grep -v '^crates/bench/src/bin/scale.rs:'; then
  echo "engine configuration reappeared as a strategy option under crates/*/src" >&2
  exit 1
fi

# For the log: the two sizes the pruning items (ROADMAP item 7) are judged
# by. The second was 4 268 with combos.rs and lattice_kernel.rs in it.
echo "workspace pub fn: $(grep -rn 'pub fn' crates/*/src src | wc -l)"
budget=0
for f in crates/storage/src/lattice.rs crates/storage/src/catalog.rs \
  crates/engine/src/ops/aggregate.rs crates/engine/src/ops/partial.rs \
  crates/core/src/lattice.rs crates/core/src/horizontal.rs; do
  budget=$((budget + $(sed '/^#\[cfg(test)\]/,$d' "$f" | wc -l)))
done
echo "level-cache and level-producer non-test lines: $budget"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (workspace, PA_THREADS=1)"
PA_THREADS=1 cargo test --workspace -q

echo "==> cargo test (workspace, PA_THREADS=4)"
PA_THREADS=4 cargo test --workspace -q

echo "==> chaos gate: fault-tolerance suites, serial and parallel"
# Seeded and bounded (proptest case counts are fixed in the test files), so
# this is deterministic-ish and cheap; PA_THREADS exercises both the exact
# serial path and real worker fan-out under injected panics and deadlines.
PA_THREADS=1 cargo test -q -p pa-engine --test fault_containment
PA_THREADS=4 cargo test -q -p pa-engine --test fault_containment
PA_THREADS=1 cargo test -q -p pa-core --test fault_isolation
PA_THREADS=4 cargo test -q -p pa-core --test fault_isolation
PA_THREADS=1 cargo test -q -p pa-service
PA_THREADS=4 cargo test -q -p pa-service
# The service chaos suite draws 8 seeds a run and compares every success
# with the fault-free answer to the bit — degraded SPJ answers included,
# whose totals are row-order sums. Twenty runs (40 ms each), so a plan that
# breaks bit identity on a few seeds in a hundred cannot pass on a lucky
# draw; the deterministic form is service.rs's SPJ-rung test.
i=0
while [ "$i" -lt 20 ]; do
  PA_PROPTEST_SEED="$i" PA_THREADS=$((1 + 3 * (i % 2))) cargo test -q -p pa-service --test chaos
  i=$((i + 1))
done

echo "==> checkpoint-crash matrix: torn writes, compaction, recovery load"
# Every crash point in the checkpoint lifecycle, serial and parallel:
# * crash_offsets — exhaustive byte-level cuts of the WAL tail and of the
#   checkpoint frame mid-append (fault on checkpoint write / between save
#   and compaction), checkpoints enabled AND disabled;
# * the catalog's seeded FaultInjector suites — torn checkpoint device,
#   unreadable store at recovery load, degraded WAL-only operation;
# * write_path — a write whose log append the device refuses is not
#   visible afterwards, per logged kind, and WAL frames and checkpoint
#   image are byte-identical to the hand-written protocol's;
# * prop_recovery — seeded cuts and torn writes recover a committed
#   prefix, and the four-way oracle: under seeded refused appends the live
#   catalog, recovery from the log alone, recovery from image + suffix and
#   a replica synced over a direct transport agree row for row;
# * combo_regressions — recovery (plain and checkpoint-aware) must leave
#   the level cache, cached combination sets included, verifiably cold;
# * snapshot_oracle — pinned-view reads stay byte-identical under
#   concurrent seeded writers at each thread count, and after every seeded
#   append + update each `ingest` statement shape answers as a fresh load
#   of the same rows does;
# * stats_oracle — under seeded interleavings of every table mutator with
#   pins and readers, each built statistics record and slot vector equals
#   a fresh build of its column, and a pin's stay the objects they were.
PA_THREADS=1 cargo test -q -p pa-storage --test crash_offsets --test write_path --test prop_recovery --test stats_oracle
PA_THREADS=4 cargo test -q -p pa-storage --test crash_offsets --test write_path --test prop_recovery --test stats_oracle
PA_THREADS=1 cargo test -q -p pa-storage --lib checkpoint
PA_THREADS=4 cargo test -q -p pa-storage --lib checkpoint
PA_THREADS=1 cargo test -q -p pa-engine --test combo_regressions --test snapshot_oracle
PA_THREADS=4 cargo test -q -p pa-engine --test combo_regressions --test snapshot_oracle
# The optimized build is the one whose readers outran the writers.
PA_THREADS=1 cargo test --release -q -p pa-engine --test snapshot_oracle
PA_THREADS=4 cargo test --release -q -p pa-engine --test snapshot_oracle

echo "==> replication chaos gate: shipped-WAL replicas, failover, split-brain"
# Seeded end-to-end replication suites at both thread counts:
# * storage replication — chaos transports (drop/dup/corrupt/reorder) must
#   still converge to byte identity; compacted primaries force the
#   checkpoint-image bootstrap; stale-term streams are refused;
# * file_faults — FileLogStore/FileCheckpointStore through the same
#   FaultInjector (torn temp-file renames, failed fsyncs, bit rot);
# * replica_set — lag-aware routing with staleness fallback, seeded
#   primary-kill failover promoting the most-caught-up replica, the
#   deposed primary's writes refused (split-brain seal), and the
#   differential oracle under writer + transport + failover chaos.
PA_THREADS=1 cargo test -q -p pa-storage --test replication --test file_faults
PA_THREADS=4 cargo test -q -p pa-storage --test replication --test file_faults
PA_THREADS=1 cargo test -q -p pa-service --test replica_set
PA_THREADS=4 cargo test -q -p pa-service --test replica_set

echo "==> replication bench gate: image bootstrap >= 2x full-history ship (n=1M)"
# The bench gates write under target/ci/: a green run leaves `git status`
# clean, and the tracked results/BENCH_*.json stay the runs EXPERIMENTS.md
# quotes.
mkdir -p target/ci
cargo run --release -p pa-bench --bin replication -- \
  --n 1000000 --gate 2.0 \
  --out target/ci/BENCH_replication.json

echo "==> merge-oracle gate: shard-merge protocol, sketch bounds, SQL e2e"
# The mergeable partial-state protocol (DESIGN.md §14) at both thread
# counts: k-way random shard splits with shuffled merges must be
# byte-identical to the single pass for every aggregate (holistic ones
# included), merge algebra laws hold down to the serialized bytes,
# t-digest/HLL stay inside their documented error bounds, and the holistic
# aggregates work end to end through SQL under every legal strategy. The
# `sketch` unit tests (sketch.rs, and vector.rs's distinct lane) pin the
# t-digest compaction and the HLL lane's hash memo to their bit-identical
# references (DESIGN.md §12, §14).
PA_THREADS=1 cargo test -q -p pa-engine --lib sketch
PA_THREADS=4 cargo test -q -p pa-engine --lib sketch
PA_THREADS=1 cargo test -q -p pa-engine --test merge_oracle --test sketch_accuracy
PA_THREADS=4 cargo test -q -p pa-engine --test merge_oracle --test sketch_accuracy
PA_THREADS=1 cargo test -q -p pa-core --test shard_oracle_sql
PA_THREADS=4 cargo test -q -p pa-core --test shard_oracle_sql

echo "==> oracle gates: differential, golden, parser fuzz"
# Covered by the workspace run above, but named here so a divergence fails
# as its own step with the harness's actionable message (strategy pair +
# first divergent row, unified snapshot diff, or the panicking fuzz seed).
cargo test -q -p pa-engine --test differential
cargo test -q --test golden
cargo test -q -p pa-sql --test fuzz_corpus

echo "==> determinism leg: the suites that used to serialize on process state, five runs"
# Every test of these binaries held a process-wide lock (an `ENV` or `CHAOS`
# window) while the chaos trigger was a static and configuration was read
# from the environment. Now each arms its own injector and hands its own
# engine a configuration, so they run at cargo's default test parallelism,
# `PA_THREADS` as the machine gives it: a test that still shared state with
# its neighbours would go red here within a few draws. `lattice_oracle`
# includes `the_assembled_result_matches_the_per_set_plan_at_every_seam`:
# the warm lattice assembler's sized columns, copied keys, NULL runs and
# in-place percentages against the per-set plan, bit for bit, at threads 1
# and 4, cold and warm.
i=0
while [ "$i" -lt 5 ]; do
  env -u PA_THREADS cargo test -q -p pa-engine --test differential --test fault_containment
  env -u PA_THREADS cargo test -q -p pa-core \
    --test lattice_oracle --test fault_isolation --test prop_parallel_pivot
  env -u PA_THREADS cargo test -q -p pa-service --test service --test chaos
  i=$((i + 1))
done

echo "==> scale bench smoke (writes target/ci/BENCH_scale_smoke.json)"
# Rows now carry an "operators" per-operator breakdown (rows/morsels/ns per
# span) — the JSON artifact a hosted pipeline would upload.
cargo run --release -p pa-bench --bin scale -- \
  --n 20000 --d 7 --threads 1,2 --iters 1 \
  --out target/ci/BENCH_scale_smoke.json

echo "==> code-path + kernel gate: case_direct within 2x of hash_dispatch, pivot within 1.5x of its two-level aggregate, vectorized (n=1M, d=50)"
# One 1M-row run, three same-run checks. The dense CASE plan must keep the
# paper's worst case (wide BY list) within 2x of the same plan on the hash
# tier measured beside it; the pivot pass must stay within 1.5x of the
# work it fuses — `multi_hash_aggregate` over (GROUP BY ∪ BY, GROUP BY),
# the level it transposes and the level its totals come from
# (`pivot_over_aggregate`);
# and the kernel-path smoke proves the fused kernels (DESIGN.md "Scan
# core", §12) actually engaged — case_direct block-at-a-time, the sorted
# scenario through the RLE fast path — rather than silently falling back
# to the scalar loop. Rows also record
# group_path, kernel_path, pack_width and combo_cache_hit_rate in the JSON
# artifact. (No wall-clock ceiling: a millisecond constant only means
# something on the host it was recorded on.)
cargo run --release -p pa-bench --bin scale -- \
  --n 1000000 --d 50 --threads 1 --iters 2 \
  --assert-case-within 2.0 --assert-pivot-within 1.5 --assert-vectorized \
  --out target/ci/BENCH_codepath_gate.json

echo "==> lattice gates: fused 4-level batch <= 1.6x single-level pass, warm <= 0.2x cold (n=1M, d=7)"
# One scan feeds every lattice level (DESIGN.md §15): the cache-cold
# k=4-prefix CUBE batch must stay within 1.6x of one level's own direct
# pass under the same cache discipline — naive per-level recompute runs
# ~4x. And the same batch cache-warm — every level a table out of the
# lattice cache, no fact row read — must cost at most 0.2x its own cold
# run (it read 0.25x when a hit still decoded a serialized partial, on a
# cold run a third slower than today's). Both are same-run ratios. The lattice row's JSON records the cold/warm split,
# warm_over_cold, per-level warm solo timings and levels_from_cache.
cargo run --release -p pa-bench --bin scale -- \
  --n 1000000 --d 7 --threads 1 --iters 2 \
  --assert-lattice-within 1.6 --assert-lattice-warm-within 0.2 \
  --out target/ci/BENCH_lattice_gate.json

echo "==> trace overhead smoke (writes target/ci/BENCH_obs_smoke.json)"
# Hard-gates tracing-on vs tracing-off overhead; also records obs-off
# throughput against the scale smoke's case_direct t=1 cell written above.
cargo run --release -p pa-bench --bin obs_overhead -- \
  --n 100000 --iters 3 \
  --baseline target/ci/BENCH_scale_smoke.json \
  --out target/ci/BENCH_obs_smoke.json

echo "==> trajectory: the benchmark package builds, its tests pass, --check is green"
# `trajectory/` is a package of its own (outside the workspace), so nothing
# above compiles it: a change to the library APIs it calls shows only here.
# `--check` runs all five workloads on tiny tables, timed and traced, and
# compares every statement with the harness's own naive reference.
cargo test --release --manifest-path trajectory/Cargo.toml
cargo run --release --manifest-path trajectory/Cargo.toml -- --check

echo "CI gate passed."
