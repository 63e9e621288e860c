//! Where a large buffer's pages go when it is freed.
//!
//! The big buffers here are short-lived copies: a write to a pinned table
//! detaches a private copy of its columns, a checkpoint encodes the whole
//! catalog into one image, and each is freed when the last snapshot or save
//! holding it lets go. glibc's allocator maps a buffer that large on its own,
//! but the first time it unmaps one it raises its threshold to that size (up
//! to 32 MiB), and from then on buffers of that size come from its arenas,
//! which keep freed pages resident. How many stay resident then depends on
//! how the copies happened to interleave with the pins, so the resident set of
//! one workload wandered by a quarter from run to run, and its peak with it.
//!
//! [`settle_large_buffers`] fixes the threshold at [`LARGE_BUFFER_BYTES`]:
//! every buffer from that size up is mapped on its own and unmapped when
//! freed, so the resident set follows the live data. Below it, an arena keeps
//! up to twice that much free at its top, as glibc's own rule would at that
//! threshold, so a query's temporaries reuse warm pages. The first write
//! that copies a table's columns away from a snapshot calls it
//! ([`crate::Table`]); a process that never writes under a pin makes no such
//! copies and keeps glibc's own policy, under which a table loaded again
//! reuses the warm pages of the one it replaced.
//!
//! What a dead version leaves in the arenas — its statistics and slot
//! vectors, the batch buffers around its writes — is freed in holes the
//! arenas keep resident, and under a reader that pins every statement a
//! version dies with nearly every write. [`release_free_pages`] gives those
//! pages back: the first live write after a sweep dropped a version calls it
//! (`Catalog::write`), on the writer's time. On `ingest` (2-vCPU Xeon, six
//! 15 s runs without and six with it) the median per-round peak read 229.6
//! → 207.8 MB, at ~130 µs a call.
//!
//! A copy at exactly its column's length would miss the threshold in the
//! very case it is for: an 8-byte column of 500 000 rows is 4.0 MB, just
//! under 4 MiB, so its copies came from the main arena, stayed resident
//! after the snapshot let go (41–81 MB free in that arena across the
//! `ingest` workload's rounds), and the append that followed at once
//! reallocated them. So a copy is made with room for the rows the write
//! brings, rounded up to a power of two — what the vector's own doubling
//! would have grown it to — and an 8-byte column from 262 145 rows up, a
//! table-sized copy, is a buffer of at least [`LARGE_BUFFER_BYTES`],
//! mapped on its own.

use std::sync::Once;

/// Buffers of at least this many bytes are mapped on their own and returned
/// to the operating system when freed: an 8-byte column past 524 288 rows,
/// but not a `u32` per row of a million-row table, a query's usual
/// temporary.
pub const LARGE_BUFFER_BYTES: usize = 4 << 20;

/// Fix the allocator's mapping threshold at [`LARGE_BUFFER_BYTES`] for the
/// rest of the process. Idempotent; a no-op where the C library is not glibc.
pub(crate) fn settle_large_buffers() {
    static SETTLED: Once = Once::new();
    SETTLED.call_once(|| {
        #[cfg(all(target_os = "linux", target_env = "gnu"))]
        {
            use std::os::raw::c_int;
            extern "C" {
                fn mallopt(param: c_int, value: c_int) -> c_int;
            }
            // glibc's parameter numbers. Setting either stops both from
            // moving.
            const M_TRIM_THRESHOLD: c_int = -1;
            const M_MMAP_THRESHOLD: c_int = -3;
            // SAFETY: `mallopt` takes two integers, touches only the
            // allocator's parameters, and locks the allocator while it does.
            unsafe {
                mallopt(M_MMAP_THRESHOLD, LARGE_BUFFER_BYTES as c_int);
                mallopt(M_TRIM_THRESHOLD, 2 * LARGE_BUFFER_BYTES as c_int);
            }
        }
    });
}

/// Return the whole free pages of every allocator arena to the operating
/// system. A no-op where the C library is not glibc.
pub(crate) fn release_free_pages() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: `malloc_trim` takes a size, touches only the allocator's
        // free lists, and locks each arena while it does.
        unsafe {
            malloc_trim(0);
        }
    }
}
