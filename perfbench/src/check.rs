//! The output check, independent of the search engine: an optimized circuit
//! is accepted only if state-vector simulation with
//! `quartz_ir::semantics::apply_circuit` maps seeded random states to the
//! same states as its Clifford+T input, up to one global phase. Nothing on
//! this path touches the structural hash, the match cache or the delta
//! coster that produced the circuit.

use crate::Rng;
use quartz_ir::semantics::{apply_circuit, inner_product, StateVector};
use quartz_ir::Circuit;
use quartz_math::Complex64;
use std::collections::{HashMap, HashSet};

/// Largest `1 - |⟨a|b⟩|` (and phase disagreement) accepted as equal.
const TOLERANCE: f64 = 1e-6;

/// Above this many qubits one random state is used instead of two: a
/// 21-qubit state is 32 MiB and takes seconds to push through a circuit.
const TWO_STATE_MAX_QUBITS: usize = 16;

/// Checks optimized circuits against their inputs, caching each input's
/// images and each output already accepted (outputs of repeated passes are
/// identical, so they are simulated once).
pub struct EquivalenceChecker {
    seed: u64,
    references: HashMap<String, (Vec<StateVector>, Vec<StateVector>)>,
    accepted: HashSet<(String, Circuit)>,
}

impl EquivalenceChecker {
    /// A checker whose random states derive from `seed`.
    pub fn new(seed: u64) -> EquivalenceChecker {
        EquivalenceChecker {
            seed,
            references: HashMap::new(),
            accepted: HashSet::new(),
        }
    }

    /// `Ok(())` if `output` equals `input` (registered under `key`) up to a
    /// global phase on every check state; otherwise the reason.
    pub fn check(&mut self, key: &str, input: &Circuit, output: &Circuit) -> Result<(), String> {
        if self.accepted.contains(&(key.to_string(), output.clone())) {
            return Ok(());
        }
        if output.num_qubits() != input.num_qubits() {
            return Err(format!(
                "{key}: output has {} qubits, input {}",
                output.num_qubits(),
                input.num_qubits()
            ));
        }
        let seed = self.seed;
        let (states, images) = self.references.entry(key.to_string()).or_insert_with(|| {
            let n = input.num_qubits();
            let count = if n <= TWO_STATE_MAX_QUBITS { 2 } else { 1 };
            let mut rng = Rng::new(seed ^ fnv(key));
            let states: Vec<StateVector> = (0..count).map(|_| random_state(n, &mut rng)).collect();
            let images = states
                .iter()
                .map(|s| apply_circuit(input, s, &[]))
                .collect();
            (states, images)
        });
        let mut phase: Option<Complex64> = None;
        for (state, image) in states.iter().zip(images.iter()) {
            let got = apply_circuit(output, state, &[]);
            let overlap = inner_product(image, &got);
            if (1.0 - overlap.norm()).abs() > TOLERANCE {
                return Err(format!(
                    "{key}: output is not equivalent to its input (|<a|b>| = {:.9})",
                    overlap.norm()
                ));
            }
            match phase {
                None => phase = Some(overlap),
                Some(p) if !p.approx_eq(overlap, TOLERANCE) => {
                    return Err(format!("{key}: global phase differs between check states"))
                }
                Some(_) => {}
            }
        }
        self.accepted.insert((key.to_string(), output.clone()));
        Ok(())
    }
}

/// A normalized state with independent uniform amplitudes in the unit
/// square, from `rng`.
fn random_state(num_qubits: usize, rng: &mut Rng) -> StateVector {
    let mut state: StateVector = (0..1usize << num_qubits)
        .map(|_| Complex64::new(rng.unit() - 0.5, rng.unit() - 0.5))
        .collect();
    let norm = state.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
    for amp in &mut state {
        *amp = Complex64::new(amp.re / norm, amp.im / norm);
    }
    state
}

/// FNV-1a of a key, to give every circuit its own check states.
fn fnv(key: &str) -> u64 {
    key.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
