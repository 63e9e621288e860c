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
