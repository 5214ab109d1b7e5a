//! A fixed reference computation that measures the host's current speed.
//!
//! On a shared host the same code runs up to 1.7 times slower for tens
//! of seconds to minutes at a time, through contention the thread's CPU
//! clock does not exclude: other tenants on the same cache and memory
//! bus, on the sibling hyperthread, or under the same power budget. The
//! reference computation does the same work on every call and uses none
//! of the repository's code, so a change to the program leaves its time
//! unchanged; its CPU time measures how fast the host runs at that
//! moment. The benchmark runs it between repetitions and reports times
//! scaled to a host that runs it in [`NOMINAL_S`].
//!
//! It has two halves of about equal time, because the workloads slow
//! down differently: the storm and mesh workloads churn heaps of
//! hundreds of megabytes and follow the memory system, the paper
//! deployment signs and hashes in a small working set and follows the
//! core. The memory half allocates, hashes and looks up small byte
//! strings in an ordered map several times larger than a core's private
//! cache; the compute half runs independent multiply-xorshift lanes in
//! registers.

use std::collections::BTreeMap;
use std::hint::black_box;

use crate::clock;

/// CPU seconds of one call on the reference host, the unit that
/// reported times are scaled to. It is about what one call takes on an
/// idle 2-vCPU Intel Xeon virtual machine.
pub const NOMINAL_S: f64 = 0.25;

/// Map operations of the memory half.
const OPERATIONS: u64 = 75_000;
/// Distinct keys: with values of 32 to 255 bytes the map holds about
/// 7 MB by the end of the memory half.
const KEYS: u64 = 100_000;
/// Rounds of the compute half.
const ROUNDS: u64 = 14_000_000;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(*byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn memory_half() {
    let mut map: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let (mut state, mut check) = (0, 0u64);
    for op in 0..OPERATIONS {
        let x = splitmix(&mut state);
        let len = 32 + (x % 224) as usize;
        let value: Vec<u8> = (0..len).map(|i| (x >> (i % 57)) as u8).collect();
        check ^= fnv(&value);
        map.insert(x % KEYS, value);
        if let Some(found) = map.get(&(x.rotate_left(17) % KEYS)) {
            check = check.wrapping_add(fnv(found));
        }
        if op % 3 == 0 {
            map.remove(&(x.rotate_left(31) % KEYS));
        }
    }
    black_box((check, map.len()));
}

fn compute_half() {
    let mut lanes: [u64; 8] = black_box([1, 2, 3, 4, 5, 6, 7, 8]);
    for _ in 0..ROUNDS {
        for lane in &mut lanes {
            *lane ^= *lane << 13;
            *lane ^= *lane >> 7;
            *lane = lane.wrapping_mul(0x2545_f491_4f6c_dd1d);
        }
    }
    black_box(lanes);
}

/// Runs the reference computation once; returns its CPU seconds.
pub fn run() -> f64 {
    let ((), cpu_s) = clock::timed(|| {
        memory_half();
        compute_half();
    });
    cpu_s
}
