//! Equivalent circuit classes (ECCs) and ECC sets (paper §2).
//!
//! An [`EccSet`] is the compact representation of a transformation library:
//! each class's representative pairs with every other member to yield the
//! optimizer's rewrite rules (see [`crate::transformations_from_ecc_set`]).
//! Sets serialize two ways — as interchange JSON ([`EccSet::to_json`],
//! [`EccSet::save`]) and as the compact binary `QTZL` artifacts of
//! [`crate::library`] that services load at startup (`quartz-lib pack` and
//! `unpack` convert between the two).
//!
//! The JSON codec is built on [`crate::json`]: encoding builds a
//! [`Json`] tree and writes it compactly, decoding walks the parsed tree.
//! The format is the one the original Quartz tooling reads:
//!
//! ```json
//! {"num_qubits":2,"num_params":1,"eccs":[{"circuits":[
//!   {"num_qubits":2,"num_params":1,"instructions":[
//!     {"gate":"rz","qubits":[0],"params":[{"coeffs":[1],"const_pi4":0}]}
//!   ]}
//! ]}]}
//! ```
//!
//! Syntax errors carry the line, column and byte of the offending token;
//! shape errors name the JSON path of the offending value, e.g.
//! `eccs[0].circuits[1].instructions[2].gate: unknown gate "nope"`.
//!
//! # Examples
//!
//! ```
//! use quartz_gen::{Ecc, EccSet};
//! use quartz_ir::{Circuit, Gate, Instruction};
//!
//! let mut hh = Circuit::new(1, 0);
//! hh.push(Instruction::new(Gate::H, vec![0], vec![]));
//! hh.push(Instruction::new(Gate::H, vec![0], vec![]));
//! let mut set = EccSet::new(1, 0);
//! set.eccs.push(Ecc::new(vec![hh, Circuit::new(1, 0)]));
//!
//! // The empty circuit is ≺-minimal, so it becomes the representative,
//! // and the two-member class represents 2·1 = 2 transformations.
//! assert!(set.eccs[0].representative().is_empty());
//! assert_eq!(set.num_transformations(), 2);
//! assert_eq!(EccSet::from_json(&set.to_json()).unwrap(), set);
//! ```

use crate::json::{self, Json};
use quartz_ir::{Circuit, Gate, Instruction, ParamExpr};
use std::fmt;
use std::path::Path;

/// An equivalence class of circuits. The first circuit is the representative
/// (the ≺-minimal member).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ecc {
    circuits: Vec<Circuit>,
}

impl Ecc {
    /// Creates a singleton ECC.
    pub fn singleton(circuit: Circuit) -> Self {
        Ecc {
            circuits: vec![circuit],
        }
    }

    /// Creates an ECC from a list of circuits, making the ≺-minimal member
    /// the representative.
    ///
    /// # Panics
    ///
    /// Panics if the list is empty.
    pub fn new(mut circuits: Vec<Circuit>) -> Self {
        assert!(
            !circuits.is_empty(),
            "an ECC must contain at least one circuit"
        );
        circuits.sort_by(|a, b| a.precedence_cmp(b));
        Ecc { circuits }
    }

    /// The representative circuit (≺-minimal member).
    pub fn representative(&self) -> &Circuit {
        &self.circuits[0]
    }

    /// All member circuits, representative first.
    pub fn circuits(&self) -> &[Circuit] {
        &self.circuits
    }

    /// Number of member circuits.
    pub fn len(&self) -> usize {
        self.circuits.len()
    }

    /// Returns `true` if the ECC has exactly one member (and therefore yields
    /// no transformations).
    pub fn is_singleton(&self) -> bool {
        self.circuits.len() == 1
    }

    /// `is_empty` is never true for a constructed ECC; provided for
    /// completeness alongside [`Ecc::len`].
    pub fn is_empty(&self) -> bool {
        self.circuits.is_empty()
    }

    /// Number of transformations the ECC represents: x·(x−1).
    pub fn transformation_count(&self) -> usize {
        self.circuits.len() * (self.circuits.len().saturating_sub(1))
    }

    /// Adds a circuit, keeping the representative ≺-minimal.
    pub fn insert(&mut self, circuit: Circuit) {
        let pos = self
            .circuits
            .binary_search_by(|c| c.precedence_cmp(&circuit))
            .unwrap_or_else(|p| p);
        self.circuits.insert(pos, circuit);
    }

    /// Returns `true` if any member equals `circuit`.
    pub fn contains(&self, circuit: &Circuit) -> bool {
        self.circuits.contains(circuit)
    }
}

impl fmt::Display for Ecc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ECC with {} circuits:", self.len())?;
        for c in &self.circuits {
            writeln!(f, "  {c}")?;
        }
        Ok(())
    }
}

/// A set of ECCs over a fixed number of qubits and parameters — the compact
/// representation of a transformation library.
#[derive(Debug, Clone, PartialEq)]
pub struct EccSet {
    /// Number of qubits every member circuit is defined over.
    pub num_qubits: usize,
    /// Number of formal parameters.
    pub num_params: usize,
    /// The classes.
    pub eccs: Vec<Ecc>,
}

impl EccSet {
    /// Creates an empty ECC set.
    pub fn new(num_qubits: usize, num_params: usize) -> Self {
        EccSet {
            num_qubits,
            num_params,
            eccs: Vec::new(),
        }
    }

    /// Number of ECCs.
    pub fn len(&self) -> usize {
        self.eccs.len()
    }

    /// Returns `true` if the set has no ECCs.
    pub fn is_empty(&self) -> bool {
        self.eccs.is_empty()
    }

    /// Total number of circuits across all ECCs.
    pub fn total_circuits(&self) -> usize {
        self.eccs.iter().map(Ecc::len).sum()
    }

    /// Total number of transformations represented (|T| in the paper):
    /// Σ x·(x−1) over the ECCs.
    pub fn num_transformations(&self) -> usize {
        self.eccs.iter().map(Ecc::transformation_count).sum()
    }

    /// Drops singleton ECCs (they yield no transformations).
    pub fn without_singletons(&self) -> EccSet {
        EccSet {
            num_qubits: self.num_qubits,
            num_params: self.num_params,
            eccs: self
                .eccs
                .iter()
                .filter(|e| !e.is_singleton())
                .cloned()
                .collect(),
        }
    }

    /// Serializes to a compact JSON string (format in the module docs).
    pub fn to_json(&self) -> String {
        let eccs = self.eccs.iter().map(|ecc| {
            let circuits = ecc.circuits().iter().map(circuit_to_json).collect();
            Json::Object(vec![("circuits".into(), Json::Array(circuits))])
        });
        Json::Object(vec![
            ("num_qubits".into(), Json::Int(self.num_qubits as i128)),
            ("num_params".into(), Json::Int(self.num_params as i128)),
            ("eccs".into(), Json::Array(eccs.collect())),
        ])
        .to_string()
    }

    /// Deserializes from a JSON string.
    ///
    /// # Errors
    ///
    /// Returns a description of the first error on malformed input: syntax
    /// errors carry the line, column and byte offset of the offending
    /// token, shape errors the JSON path of the offending value.
    pub fn from_json(json: &str) -> Result<EccSet, String> {
        let doc = json::parse(json).map_err(|e| e.to_string())?;
        let root = Node {
            path: String::new(),
            value: &doc,
        };
        let mut set = EccSet::new(
            root.field("num_qubits")?.usize()?,
            root.field("num_params")?.usize()?,
        );
        for ecc in root.field("eccs")?.items()? {
            let circuits = ecc
                .field("circuits")?
                .items()?
                .map(|circuit| circuit_from_json(&circuit))
                .collect::<Result<Vec<_>, _>>()?;
            if circuits.is_empty() {
                return Err(ecc.error("an ECC must contain at least one circuit"));
            }
            set.eccs.push(Ecc::new(circuits));
        }
        Ok(set)
    }

    /// Writes the set as JSON to a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors, with `path` included in the error message.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        std::fs::write(path, self.to_json()).map_err(|e| crate::path_io_error(path, e))
    }

    /// Reads a set from a JSON file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and reports malformed JSON; either way the
    /// error message names the offending path.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<EccSet> {
        let path = path.as_ref();
        let s = std::fs::read_to_string(path).map_err(|e| crate::path_io_error(path, e))?;
        EccSet::from_json(&s).map_err(|e| {
            crate::path_io_error(
                path,
                std::io::Error::new(std::io::ErrorKind::InvalidData, e),
            )
        })
    }
}

impl fmt::Display for EccSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ECC set over {} qubits, {} parameters: {} classes, {} circuits, {} transformations",
            self.num_qubits,
            self.num_params,
            self.len(),
            self.total_circuits(),
            self.num_transformations()
        )
    }
}

fn circuit_to_json(circuit: &Circuit) -> Json {
    let instructions = circuit.instructions().iter().map(|instr| {
        let qubits = instr.qubits.iter().map(|&q| Json::Int(q as i128));
        let params = instr.params.iter().map(|p| {
            let coeffs = p.coeffs().iter().map(|&c| Json::Int(c.into()));
            Json::Object(vec![
                ("coeffs".into(), Json::Array(coeffs.collect())),
                ("const_pi4".into(), Json::Int(p.const_pi4().into())),
            ])
        });
        Json::Object(vec![
            ("gate".into(), Json::Str(instr.gate.name().into())),
            ("qubits".into(), Json::Array(qubits.collect())),
            ("params".into(), Json::Array(params.collect())),
        ])
    });
    Json::Object(vec![
        ("num_qubits".into(), Json::Int(circuit.num_qubits() as i128)),
        ("num_params".into(), Json::Int(circuit.num_params() as i128)),
        ("instructions".into(), Json::Array(instructions.collect())),
    ])
}

fn circuit_from_json(node: &Node<'_>) -> Result<Circuit, String> {
    let num_qubits = node.field("num_qubits")?.usize()?;
    let num_params = node.field("num_params")?.usize()?;
    let mut circuit = Circuit::new(num_qubits, num_params);
    for instr in node.field("instructions")?.items()? {
        circuit.push(instruction_from_json(&instr, num_qubits, num_params)?);
    }
    Ok(circuit)
}

fn instruction_from_json(
    node: &Node<'_>,
    num_qubits: usize,
    num_params: usize,
) -> Result<Instruction, String> {
    let gate_node = node.field("gate")?;
    let name = gate_node.str()?;
    let gate = Gate::from_name(name)
        .ok_or_else(|| gate_node.error(format_args!("unknown gate {name:?}")))?;
    let mut qubits = Vec::new();
    for q_node in node.field("qubits")?.items()? {
        let q = q_node.usize()?;
        if q >= num_qubits {
            return Err(q_node.error(format_args!(
                "qubit {q} out of range for circuit with {num_qubits} qubits"
            )));
        }
        if qubits.contains(&q) {
            return Err(q_node.error(format_args!("repeated qubit operand {q} for gate {name}")));
        }
        qubits.push(q);
    }
    if qubits.len() != gate.num_qubits() {
        return Err(node.error(format_args!(
            "gate {name} expects {} qubit operands, got {}",
            gate.num_qubits(),
            qubits.len()
        )));
    }
    let mut params = Vec::new();
    for p_node in node.field("params")?.items()? {
        let coeffs = p_node
            .field("coeffs")?
            .items()?
            .map(|c| c.i32())
            .collect::<Result<Vec<_>, _>>()?;
        if coeffs.len() != num_params {
            return Err(p_node.error(format_args!(
                "parameter expression has {} coefficients, circuit has {num_params} parameters",
                coeffs.len()
            )));
        }
        let const_pi4 = p_node.field("const_pi4")?.i32()?;
        params.push(ParamExpr::from_parts(coeffs, const_pi4));
    }
    if params.len() != gate.num_params() {
        return Err(node.error(format_args!(
            "gate {name} expects {} parameters, got {}",
            gate.num_params(),
            params.len()
        )));
    }
    Ok(Instruction::new(gate, qubits, params))
}

/// A value of a parsed ECC document and its JSON path (`eccs[0].circuits`),
/// which every shape error names.
struct Node<'a> {
    path: String,
    value: &'a Json,
}

impl<'a> Node<'a> {
    fn error(&self, message: impl fmt::Display) -> String {
        if self.path.is_empty() {
            message.to_string()
        } else {
            format!("{}: {message}", self.path)
        }
    }

    fn mismatch(&self, expected: &str) -> String {
        let found = match self.value {
            Json::Null => "null".to_string(),
            Json::Bool(b) => format!("boolean {b}"),
            Json::Int(n) => format!("integer {n}"),
            Json::Float(x) => format!("number {x}"),
            Json::Str(s) => format!("string {s:?}"),
            Json::Array(_) => "an array".to_string(),
            Json::Object(_) => "an object".to_string(),
        };
        self.error(format_args!("expected {expected}, found {found}"))
    }

    fn field(&self, name: &str) -> Result<Node<'a>, String> {
        let Json::Object(_) = self.value else {
            return Err(self.mismatch("an object"));
        };
        let value = self
            .value
            .get(name)
            .ok_or_else(|| self.error(format_args!("missing field {name:?}")))?;
        let path = if self.path.is_empty() {
            name.to_string()
        } else {
            format!("{}.{name}", self.path)
        };
        Ok(Node { path, value })
    }

    fn items(&self) -> Result<impl Iterator<Item = Node<'a>> + '_, String> {
        let items = self
            .value
            .as_array()
            .ok_or_else(|| self.mismatch("an array"))?;
        Ok(items.iter().enumerate().map(move |(i, value)| Node {
            path: format!("{}[{i}]", self.path),
            value,
        }))
    }

    fn str(&self) -> Result<&'a str, String> {
        self.value.as_str().ok_or_else(|| self.mismatch("a string"))
    }

    fn usize(&self) -> Result<usize, String> {
        self.value
            .as_usize()
            .ok_or_else(|| self.mismatch("a non-negative integer"))
    }

    fn i32(&self) -> Result<i32, String> {
        match self.value {
            Json::Int(n) => i32::try_from(*n)
                .map_err(|_| self.error(format_args!("integer {n} out of i32 range"))),
            _ => Err(self.mismatch("an integer")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single(gate: Gate, q: usize) -> Circuit {
        let mut c = Circuit::new(2, 0);
        c.push(Instruction::new(gate, vec![q], vec![]));
        c
    }

    #[test]
    fn representative_is_precedence_minimal() {
        let big = single(Gate::X, 0).appended(Instruction::new(Gate::X, vec![0], vec![]));
        let small = single(Gate::H, 1);
        let ecc = Ecc::new(vec![big.clone(), small.clone()]);
        assert_eq!(ecc.representative(), &small);
        assert_eq!(ecc.transformation_count(), 2);
        assert!(ecc.contains(&big));
    }

    #[test]
    fn insert_keeps_order() {
        let mut ecc = Ecc::singleton(single(Gate::X, 0));
        ecc.insert(single(Gate::H, 0));
        assert_eq!(ecc.representative(), &single(Gate::H, 0));
        assert_eq!(ecc.len(), 2);
        assert!(!ecc.is_singleton());
    }

    #[test]
    fn ecc_set_counts() {
        let mut set = EccSet::new(2, 0);
        set.eccs.push(Ecc::new(vec![
            single(Gate::H, 0),
            single(Gate::H, 1),
            single(Gate::X, 0),
        ]));
        set.eccs.push(Ecc::singleton(single(Gate::X, 1)));
        assert_eq!(set.len(), 2);
        assert_eq!(set.total_circuits(), 4);
        assert_eq!(set.num_transformations(), 6);
        assert_eq!(set.without_singletons().len(), 1);
    }

    #[test]
    fn json_round_trip() {
        let mut set = EccSet::new(2, 1);
        set.eccs
            .push(Ecc::new(vec![single(Gate::H, 0), single(Gate::X, 0)]));
        let json = set.to_json();
        let back = EccSet::from_json(&json).unwrap();
        assert_eq!(set, back);
        assert!(EccSet::from_json("not json").is_err());
    }

    #[test]
    fn deeply_nested_json_is_rejected_at_the_depth_bound() {
        // Unbounded recursion would overflow the stack on this input.
        let err = EccSet::from_json(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.contains("maximum nesting depth 64 exceeded"), "{err}");
    }

    #[test]
    fn save_and_load() {
        let dir = std::env::temp_dir().join("quartz_ecc_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("set.json");
        let mut set = EccSet::new(1, 0);
        set.eccs.push(Ecc::new(vec![single(Gate::H, 0)]));
        set.save(&path).unwrap();
        let back = EccSet::load(&path).unwrap();
        assert_eq!(set, back);
    }

    #[test]
    fn save_and_load_errors_name_the_path() {
        let missing = std::env::temp_dir().join("quartz_ecc_test_no_such_file.json");
        let err = EccSet::load(&missing).unwrap_err();
        assert!(
            err.to_string()
                .contains("quartz_ecc_test_no_such_file.json"),
            "load error must name the path: {err}"
        );

        let bad = std::env::temp_dir().join("quartz_ecc_test_bad.json");
        std::fs::write(&bad, "{ not json").unwrap();
        let err = EccSet::load(&bad).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("quartz_ecc_test_bad.json"));

        let set = EccSet::new(1, 0);
        let err = set
            .save(std::env::temp_dir().join("quartz_no_such_dir/set.json"))
            .unwrap_err();
        assert!(err.to_string().contains("quartz_no_such_dir"));
    }
}
