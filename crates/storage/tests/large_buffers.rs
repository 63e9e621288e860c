//! Once a write has copied a table away from a snapshot, a freed large
//! buffer leaves the resident set, however many buffers of that size came
//! and went before it. One test in its own binary, so no neighbour
//! allocates while the resident set is read.

#![cfg(all(target_os = "linux", target_env = "gnu"))]

use pa_storage::memory::LARGE_BUFFER_BYTES;
use pa_storage::{DataType, Schema, Table, Value};

/// This process's resident set in KiB (`VmRSS`).
fn resident_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .expect("a VmRSS line");
    let kib = line.split_whitespace().next().expect("a VmRSS value");
    kib.parse().expect("VmRSS in KiB")
}

#[test]
fn a_freed_large_buffer_leaves_the_resident_set_after_a_detach() {
    let schema = Schema::from_pairs(&[("x", DataType::Int)])
        .unwrap()
        .into_shared();
    let mut table = Table::empty(schema);
    table.push_row(&[Value::Int(1)]).unwrap();
    let snapshot = table.clone();
    table.push_row(&[Value::Int(2)]).unwrap();
    assert!(!table.shares_columns(&snapshot), "the push detached");

    let bytes = 2 * LARGE_BUFFER_BYTES;
    let kib = bytes as u64 / 1024;
    // The first round frees a mapping; left to itself, glibc would serve
    // the later rounds from an arena and keep their pages after the free.
    for round in 0..3 {
        let before = resident_kib();
        let buffer = std::hint::black_box(vec![1u8; bytes]);
        let held = resident_kib();
        drop(buffer);
        let after = resident_kib();
        assert!(
            held >= before + kib * 3 / 4,
            "round {round}: the buffer was never resident ({before} -> {held} KiB)"
        );
        assert!(
            after <= before + kib / 8,
            "round {round}: {} KiB stayed resident after the free",
            after.saturating_sub(before)
        );
    }
}
