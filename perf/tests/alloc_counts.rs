//! The counting allocator's totals match a fixture counted by hand.
//!
//! One test only: counting is process-wide, so a second test thread
//! allocating at the same time would be counted too.

use dbac_perf::alloc::{self, Counting, Counts};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn totals_match_a_hand_counted_fixture() {
    // Allocated before counting starts, freed during it: must not count as
    // an allocation, and must not push the peak below zero.
    let before = vec![0u8; 4096];

    alloc::start();
    let a: Vec<u64> = Vec::with_capacity(100); // 1 alloc, 800 bytes
    let b = Box::new(7u32); // 1 alloc, 4 bytes; live 804 — the peak
    drop(a); // live 4
    let mut c: Vec<u8> = Vec::with_capacity(16); // 1 alloc, 16 bytes; live 20
    c.extend_from_slice(&[1; 16]);
    c.reserve_exact(48); // realloc to 64: 1 more, 64 bytes; live 68
    let z = vec![0u16; 50]; // alloc_zeroed: 1 alloc, 100 bytes; live 168
    drop(before);
    drop((b, c, z));
    let counts = alloc::stop();

    assert_eq!(counts, Counts { allocs: 5, bytes: 800 + 4 + 16 + 64 + 100, peak_live_bytes: 804 });

    // Off means off.
    let _ignored = vec![1u8; 1 << 20];
    assert_eq!(alloc::stop(), counts);
}
