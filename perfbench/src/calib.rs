//! The calibration kernel: a fixed piece of work, built from the
//! standard library alone, timed beside every scenario run.
//!
//! On a shared host the CPU time of the same run moves by a third or
//! more from one minute to the next: neighbours take the core, the
//! caches and the hypervisor's attention in spells of a few seconds.
//! The kernel is timed on the same clock right before and after each
//! run, so its time moves with the host and not with the code under
//! test. The CPU-clock end-to-end metrics divide by it and are read at
//! the kernel's reference speed.
//!
//! The kernel copies the kinds of work whose cost swings with the host
//! as the workload's does. Every kernel updates ordered and hashed maps
//! whose entries and allocations outgrow the core's private caches, as
//! the simulator, consensus logs and state stores do. A workload whose
//! time swings with thread start-up also spawns and joins short-lived
//! scoped threads, as `execute_parallel` does for every block. The
//! kernel depends on no crate of the repository, so a change to the
//! program cannot change it.

use crate::clock::cpu_ns;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;

/// Map updates per calibration.
const MAP_OPS: usize = 50_000;
/// Keys the map updates draw from: the maps grow to tens of thousands
/// of entries, several MiB with their values.
const MAP_KEYS: u64 = 1 << 19;
/// Pairs of scoped threads spawned and joined per calibration.
const SPAWN_PAIRS: usize = 200;

/// A workload's calibration kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// The map updates alone.
    Maps,
    /// The map updates, then the thread spawns.
    MapsAndSpawns,
}

impl Kernel {
    /// The reference speed: the kernel's CPU time, ns, on a host like the
    /// 2-core host the benchmark was written on, in a middling spell. A
    /// calibration of the map part took 17 to 31 ms there, 25 ms at the
    /// median; the spawns added 5 to 30 ms, 15 ms at the median.
    pub fn reference_ns(self) -> f64 {
        match self {
            Kernel::Maps => 25e6,
            Kernel::MapsAndSpawns => 40e6,
        }
    }

    /// Runs the kernel once and returns its CPU time, ns.
    pub fn calibrate(self) -> u64 {
        let t0 = cpu_ns();
        black_box(maps(MAP_OPS));
        if self == Kernel::MapsAndSpawns {
            black_box(spawns(SPAWN_PAIRS));
        }
        cpu_ns() - t0
    }

    /// `value` measured on a host where the kernel took `calibration_ns`,
    /// read at the reference speed.
    pub fn at_reference(self, value: f64, calibration_ns: f64) -> f64 {
        value * self.reference_ns() / calibration_ns
    }
}

/// splitmix64: the kernel's deterministic stream.
fn splitmix(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *z;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// `ops` inserts of small vectors into a `BTreeMap`, each followed by a
/// range lookup and a `HashMap` update. The hasher has fixed keys, so
/// every calibration probes the same slots.
fn maps(ops: usize) -> u64 {
    let mut z = 0xB7EE;
    let mut tree: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut hash: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut acc = 0u64;
    for _ in 0..ops {
        let k = splitmix(&mut z);
        tree.insert(k % MAP_KEYS, vec![k as u8; (k % 64) as usize + 8]);
        *hash.entry(k % (MAP_KEYS / 4)).or_default() ^= k;
        if let Some((_, v)) = tree.range(k % MAP_KEYS..).next() {
            acc = acc.wrapping_add(v.len() as u64);
        }
    }
    acc ^ hash.values().fold(0, |a, b| a ^ b)
}

/// `pairs` pairs of scoped threads that each sum half of a small vector.
fn spawns(pairs: usize) -> u64 {
    let mut acc = 0;
    for j in 0..pairs as u64 {
        let data: Vec<u64> = (0..16).map(|k| k * j).collect();
        let (a, b) = data.split_at(8);
        let (x, y) = std::thread::scope(|s| {
            let left = s.spawn(|| a.iter().sum::<u64>());
            let right = s.spawn(|| b.iter().sum::<u64>());
            (left.join().expect("calibration thread"), right.join().expect("calibration thread"))
        });
        acc ^= x.wrapping_add(y.rotate_left(17));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_parts_are_deterministic() {
        assert_eq!(maps(1000), maps(1000));
        assert_ne!(maps(1000), maps(1001));
        assert_eq!(spawns(4), spawns(4));
    }

    #[test]
    fn reference_speed_scales_inversely_with_the_kernel() {
        for k in [Kernel::Maps, Kernel::MapsAndSpawns] {
            assert_eq!(k.at_reference(100.0, k.reference_ns()), 100.0);
            assert_eq!(k.at_reference(100.0, 2.0 * k.reference_ns()), 50.0);
        }
    }
}
