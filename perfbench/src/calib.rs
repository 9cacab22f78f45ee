//! A fixed calibration kernel that tells how fast this host runs right now,
//! used to state `recovery_ms` at a reference host speed.
//!
//! A failover takes 2–150 ms. Timed alone on a shared virtual machine, its
//! median over one process spread by 0.07–0.31 (interquartile range ÷
//! median) over sets of five or ten processes; scaled by this kernel, timed
//! right before and right after each failover, by 0.03–0.12. The kernel is
//! benchmark code that no change to the program touches, so a faster
//! failover shows in full. Slices of the unpaced runs are not scaled: they
//! last 100–300 ms, and over half an hour the kernel ran 27% faster while
//! the program ran at the same speed.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// About what the kernel takes on an idle 2-vCPU KVM guest (Intel Xeon): a
/// scaled wall is stated at the speed where the kernel takes this long.
pub const REFERENCE_S: f64 = 3.0e-3;

/// `wall_s` at the reference speed, given the kernel's walls just before
/// and just after it.
pub fn scaled(wall_s: f64, before_s: f64, after_s: f64) -> f64 {
    wall_s * REFERENCE_S * 2.0 / (before_s + after_s)
}

/// Shortest wall of three runs of the kernel, in seconds.
pub fn kernel_s() -> f64 {
    KERNEL.with(|state| {
        let mut state = state.borrow_mut();
        (0..3)
            .map(|_| {
                let began = Instant::now();
                black_box(state.work());
                began.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    })
}

thread_local! {
    static KERNEL: RefCell<Kernel> = RefCell::new(Kernel::new());
}

/// The kernel's working set, built once: a 4 MB table, a hash map and a
/// buffer to sort.
struct Kernel {
    table: Vec<u64>,
    map: HashMap<u64, u64>,
    keys: Vec<u64>,
    sorted: Vec<f64>,
    x: u64,
}

impl Kernel {
    const TABLE: usize = 1 << 19;
    const KEYS: usize = 4_096;

    fn new() -> Kernel {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let table = (0..Self::TABLE).map(|_| xorshift(&mut x)).collect();
        let keys: Vec<u64> = (0..Self::KEYS).map(|_| xorshift(&mut x)).collect();
        let map = keys.iter().enumerate().map(|(i, &k)| (k, i as u64)).collect();
        Kernel { table, map, keys, sorted: Vec::with_capacity(Self::KEYS), x }
    }

    /// A mix like the program's own: scattered reads over 4 MB, hash-map
    /// lookups, a sort and floating-point arithmetic.
    fn work(&mut self) -> u64 {
        let mut acc = 0u64;
        let mut at = self.x as usize;
        for _ in 0..8 * Self::KEYS {
            at = (self.table[at % Self::TABLE] as usize) ^ (acc as usize);
            acc = acc.wrapping_add(at as u64);
        }
        for i in 0..2 * Self::KEYS {
            let k = if i % 2 == 0 {
                self.keys[xorshift(&mut self.x) as usize % Self::KEYS]
            } else {
                xorshift(&mut self.x)
            };
            acc = acc.wrapping_add(self.map.get(&k).copied().unwrap_or(1));
        }
        self.sorted.clear();
        self.sorted.extend(self.keys.iter().map(|&k| (k >> 11) as f64));
        self.sorted.sort_by(f64::total_cmp);
        let f: f64 = self.sorted.iter().map(|v| (v.sqrt() + 1.0).ln()).sum();
        acc ^ f.to_bits()
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_host_twice_as_slow_reads_the_same_at_the_reference_speed() {
        let slow = REFERENCE_S * 2.0;
        assert!((scaled(0.5, slow, slow) - 0.25).abs() < 1e-12);
        assert!((scaled(0.5, REFERENCE_S, REFERENCE_S) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn the_kernel_takes_a_few_milliseconds() {
        let kernel = kernel_s();
        assert!(kernel > 0.0 && kernel < 0.5, "{kernel}");
    }
}
