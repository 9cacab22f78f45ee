//! Qubit routing: make every two-qubit gate act on physically coupled qubits by
//! inserting SWAP gates along shortest paths (Figure 1's "routing" step).
//!
//! The router is a greedy shortest-path router: for every two-qubit gate whose
//! operands are not adjacent on the device, SWAPs are inserted along a shortest
//! path (the moving qubit walks toward its partner), updating the running
//! layout as it goes. This matches the paper's needs — the orchestrator only
//! consumes the *post-routing* gate counts, depth, and duration.

use crate::layout::Layout;
use qonductor_backend::CouplingMap;
use qonductor_circuit::{Circuit, Gate, NO_OPERAND};

/// Result of routing a circuit onto a device.
#[derive(Debug, Clone)]
pub struct RoutedCircuit {
    /// The routed circuit, expressed over *physical* qubit indices.
    pub circuit: Circuit,
    /// Final layout after all SWAP insertions.
    pub final_layout: Layout,
    /// Number of SWAP gates inserted.
    pub swaps_inserted: usize,
}

/// Marks a physical qubit that holds no logical qubit.
const UNMAPPED: u32 = u32::MAX;

/// Route `circuit` onto `coupling` starting from `initial_layout`.
///
/// The input circuit is expressed over logical qubits; the output circuit is
/// expressed over physical qubits of the device (width = device size).
pub fn route(circuit: &Circuit, coupling: &CouplingMap, initial_layout: &Layout) -> RoutedCircuit {
    route_with(circuit, coupling, initial_layout, |out, a, b| {
        out.swap(a, b);
    })
}

/// [`route`], with every inserted SWAP on physical qubits `(a, b)` written by
/// `emit_swap(out, a, b)` (the pipeline emits it in the device basis).
pub(crate) fn route_with(
    circuit: &Circuit,
    coupling: &CouplingMap,
    initial_layout: &Layout,
    mut emit_swap: impl FnMut(&mut Circuit, u32, u32),
) -> RoutedCircuit {
    assert!(
        initial_layout.len() >= circuit.num_qubits() as usize,
        "layout covers {} qubits but the circuit has {}",
        initial_layout.len(),
        circuit.num_qubits()
    );
    // The running layout in both directions, so a SWAP updates it in O(1).
    let mut physical: Vec<u32> = initial_layout.mapping().to_vec();
    let mut logical = vec![UNMAPPED; coupling.num_qubits() as usize];
    for (l, &p) in physical.iter().enumerate() {
        logical[p as usize] = l as u32;
    }
    let mut out = Circuit::named(coupling.num_qubits(), circuit.name().to_string());
    out.set_shots(circuit.shots());
    out.instructions_mut().reserve(circuit.len());
    let mut swaps = 0usize;

    for instr in circuit.instructions() {
        match instr.gate {
            Gate::Barrier => {
                out.barrier();
            }
            g if g.is_two_qubit() => {
                let mut pa = physical[instr.q0 as usize];
                let pb = physical[instr.q1 as usize];
                let to_b = coupling.distances_from(pb);
                // Walk qubit A along a shortest path toward B until adjacent,
                // stepping to the first neighbour (in edge order) nearest B.
                while to_b[pa as usize] != 1 {
                    let next = *coupling
                        .neighbors(pa)
                        .iter()
                        .min_by_key(|&&nb| to_b[nb as usize])
                        .expect("coupling map must be connected for routing");
                    // Guard against disconnected maps (would loop forever).
                    assert!(
                        to_b[next as usize] < to_b[pa as usize],
                        "no path from {pa} to {pb} on this coupling map"
                    );
                    emit_swap(&mut out, pa, next);
                    let (la, lb) = (logical[pa as usize], logical[next as usize]);
                    logical.swap(pa as usize, next as usize);
                    if la != UNMAPPED {
                        physical[la as usize] = next;
                    }
                    if lb != UNMAPPED {
                        physical[lb as usize] = pa;
                    }
                    swaps += 1;
                    pa = next;
                }
                let mut ni = *instr;
                ni.q0 = pa;
                ni.q1 = pb;
                out.push(ni);
            }
            _ => {
                let mut ni = *instr;
                ni.q0 = physical[instr.q0 as usize];
                if ni.gate == Gate::Measure {
                    // Classical bit index keeps the logical qubit number so results
                    // remain comparable across devices.
                    ni.cbit = instr.q0;
                }
                debug_assert_eq!(ni.q1, NO_OPERAND);
                out.push(ni);
            }
        }
    }

    RoutedCircuit { circuit: out, final_layout: Layout::new(physical), swaps_inserted: swaps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qonductor_backend::Simulator;
    use qonductor_circuit::generators::ghz;

    #[test]
    fn adjacent_gates_need_no_swaps() {
        let coupling = CouplingMap::linear(4);
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        let routed = route(&c, &coupling, &Layout::trivial(2));
        assert_eq!(routed.swaps_inserted, 0);
        assert_eq!(routed.circuit.num_qubits(), 4);
    }

    #[test]
    fn distant_gate_inserts_swaps_on_linear_chain() {
        let coupling = CouplingMap::linear(5);
        let mut c = Circuit::new(5);
        c.cx(0, 4);
        let routed = route(&c, &coupling, &Layout::trivial(5));
        // Distance 4 → need 3 swaps to become adjacent.
        assert_eq!(routed.swaps_inserted, 3);
        // All two-qubit gates in the output are physically adjacent.
        for instr in routed.circuit.instructions() {
            if instr.gate.is_two_qubit() {
                assert!(coupling.are_coupled(instr.q0, instr.q1));
            }
        }
    }

    #[test]
    fn routed_ghz_preserves_distribution_on_heavy_hex() {
        let coupling = CouplingMap::heavy_hex_27();
        let c = ghz(6);
        let routed = route(&c, &coupling, &Layout::trivial(6));
        let sim = Simulator::default();
        let original = sim.ideal_distribution(&c);
        let after = sim.ideal_distribution(&routed.circuit);
        assert!(qonductor_backend::hellinger_fidelity(&original, &after) > 0.999);
    }

    #[test]
    fn routing_respects_all_adjacency_on_ghz_ring() {
        let coupling = CouplingMap::ring(8);
        let c = ghz(8);
        let routed = route(&c, &coupling, &Layout::trivial(8));
        for instr in routed.circuit.instructions() {
            if instr.gate.is_two_qubit() {
                assert!(
                    coupling.are_coupled(instr.q0, instr.q1),
                    "gate on non-adjacent qubits {} {}",
                    instr.q0,
                    instr.q1
                );
            }
        }
    }

    #[test]
    fn final_layout_tracks_swaps() {
        let coupling = CouplingMap::linear(3);
        let mut c = Circuit::new(3);
        c.cx(0, 2);
        let routed = route(&c, &coupling, &Layout::trivial(3));
        assert!(routed.swaps_inserted >= 1);
        // The final layout is still injective.
        let mut phys = routed.final_layout.mapping().to_vec();
        phys.sort_unstable();
        phys.dedup();
        assert_eq!(phys.len(), 3);
    }

    #[test]
    fn measurement_cbits_stay_logical() {
        let coupling = CouplingMap::heavy_hex_27();
        let c = ghz(4);
        let layout = Layout::new(vec![10, 12, 13, 14]);
        let routed = route(&c, &coupling, &layout);
        for instr in routed.circuit.instructions() {
            if instr.gate == Gate::Measure {
                assert!(instr.cbit < 4, "cbit must remain a logical index");
            }
        }
    }

    #[test]
    fn swaps_through_unmapped_physical_qubits_move_only_the_walker() {
        // Logical 0 sits on physical 0 and walks through unmapped 1, 2 and 3
        // toward logical 1 on physical 4.
        let coupling = CouplingMap::linear(5);
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let routed = route(&c, &coupling, &Layout::new(vec![0, 4]));
        assert_eq!(routed.swaps_inserted, 3);
        assert_eq!(routed.final_layout.mapping(), &[3, 4]);
        let last = routed.circuit.instructions().last().unwrap();
        assert_eq!((last.q0, last.q1), (3, 4));
    }
}
