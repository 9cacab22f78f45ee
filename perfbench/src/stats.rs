//! Order statistics and the estimator reuse meter.

use qonductor::circuit::Circuit;
use qonductor::core::digest::Fnv64;
use std::collections::HashSet;

/// Nearest-rank percentile (`q` in `[0, 1]`) of an unsorted sample; 0 for an
/// empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A percentile with the size of the sample it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    pub value: f64,
    pub samples: usize,
}

impl Quantile {
    pub fn of(values: &[f64], q: f64) -> Quantile {
        Quantile { value: percentile(values, q), samples: values.len() }
    }
}

/// Fingerprints of what transpilation reads from a circuit, computed outside
/// the program: `exact` covers its width and every gate, operand and angle;
/// `shape` is the same with rotation angles left out. Shots and the
/// mitigation stack apply after transpilation, so a compile cache would not
/// key on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InputKey {
    pub exact: u64,
    pub shape: u64,
}

impl InputKey {
    pub fn of(circuit: &Circuit) -> InputKey {
        let mut exact = Fnv64::new();
        let mut shape = Fnv64::new();
        for h in [&mut exact, &mut shape] {
            h.absorb(&circuit.num_qubits().to_le_bytes());
        }
        for instr in circuit.instructions() {
            for h in [&mut exact, &mut shape] {
                h.absorb(instr.gate.name().as_bytes());
                for q in instr.qubits() {
                    h.absorb(&q.to_le_bytes());
                }
                h.absorb(&instr.cbit.to_le_bytes());
            }
            for p in instr.gate.params() {
                exact.absorb(&p.to_bits().to_le_bytes());
            }
        }
        InputKey { exact: exact.value(), shape: shape.value() }
    }
}

/// Counts estimate calls whose `(input, QPU, calibration epoch)` was already
/// seen in the run, exactly and ignoring rotation angles: the share a compile
/// cache keyed either way could have served.
#[derive(Debug, Default)]
pub struct ReuseMeter {
    exact: HashSet<(u64, usize, u64)>,
    shape: HashSet<(u64, usize, u64)>,
    pub calls: u64,
    pub exact_repeats: u64,
    pub shape_repeats: u64,
}

impl ReuseMeter {
    pub fn record(&mut self, key: InputKey, qpu: usize, epoch: u64) {
        self.calls += 1;
        if !self.exact.insert((key.exact, qpu, epoch)) {
            self.exact_repeats += 1;
        }
        if !self.shape.insert((key.shape, qpu, epoch)) {
            self.shape_repeats += 1;
        }
    }

    pub fn exact_share(&self) -> f64 {
        ratio(self.exact_repeats as f64, self.calls as f64)
    }

    pub fn shape_share(&self) -> f64 {
        ratio(self.shape_repeats as f64, self.calls as f64)
    }
}

/// `num / den`, or 0 when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qonductor::circuit::generators::{qaoa_maxcut, MaxCutGraph};

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn shape_key_ignores_angles_only() {
        let graph = MaxCutGraph::ring(6);
        let a = qaoa_maxcut(&graph, &[0.1], &[0.2]);
        let b = qaoa_maxcut(&graph, &[0.3], &[0.4]);
        let (ka, kb) = (InputKey::of(&a), InputKey::of(&b));
        assert_ne!(ka.exact, kb.exact);
        assert_eq!(ka.shape, kb.shape);
        let mut more_shots = a.clone();
        more_shots.set_shots(a.shots() * 2);
        assert_eq!(InputKey::of(&more_shots), ka, "shots apply after transpilation");
        assert_ne!(
            InputKey::of(&qaoa_maxcut(&MaxCutGraph::ring(7), &[0.1], &[0.2])).shape,
            ka.shape
        );
    }
}
