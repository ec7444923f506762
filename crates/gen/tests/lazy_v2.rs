//! Adversarial tests for the QTZL container at its edges: truncation at
//! every section boundary must surface as a *typed* [`LibraryError`] at
//! open, `quartz-lib inspect` must report the format version of the one
//! container it reads and refuse the retired version 2, and I/O failures
//! must name the offending path.

use quartz_gen::{Ecc, EccSet, Library, LibraryError, LibraryReader, Registry, HEADER_LEN};
use quartz_ir::{Circuit, Gate, Instruction};

fn pair(gate: Gate, qubits: &[usize]) -> Circuit {
    let mut c = Circuit::new(2, 0);
    c.push(Instruction::new(gate, qubits.to_vec(), vec![]));
    c.push(Instruction::new(gate, qubits.to_vec(), vec![]));
    c
}

/// Three classes with distinct anchors, packed with a prebuilt index.
fn sample() -> Library {
    let mut set = EccSet::new(2, 0);
    set.eccs
        .push(Ecc::new(vec![pair(Gate::H, &[0]), Circuit::new(2, 0)]));
    set.eccs
        .push(Ecc::new(vec![pair(Gate::X, &[1]), Circuit::new(2, 0)]));
    set.eccs.push(Ecc::new(vec![
        pair(Gate::Cnot, &[0, 1]),
        Circuit::new(2, 0),
    ]));
    Library::new("Nam", set, true)
}

#[test]
fn truncation_at_every_section_boundary_is_a_typed_error() {
    let library = sample();
    let bytes = library.to_bytes();
    let ecc_end = HEADER_LEN + library.header().ecc_len as usize;
    assert!(library.header().has_index() && ecc_end < bytes.len());

    let boundaries = [
        0,
        1,
        HEADER_LEN - 1,
        HEADER_LEN,
        ecc_end - 1,
        ecc_end,
        bytes.len() - 1,
    ];
    for cut in boundaries {
        let truncated = &bytes[..cut];
        // The reader validates lengths before trusting any offset: every
        // truncation is a typed Truncated error, never a panic or a silent
        // partial library.
        match LibraryReader::new(truncated) {
            Err(LibraryError::Truncated { .. }) => {}
            // Cuts inside the 4-byte magic can't even prove the file is ours.
            Err(LibraryError::NotALibrary) if cut < 4 => {}
            Err(other) => panic!("truncation at {cut} gave a non-truncation error: {other}"),
            Ok(_) => panic!("truncation at {cut} opened successfully"),
        }
        assert!(
            Library::from_bytes(truncated).is_err(),
            "decode accepted a truncation at {cut}"
        );
    }
}

#[test]
fn inspect_prints_the_format_version_for_both_container_versions() {
    let dir = std::env::temp_dir().join(format!("quartz_inspect_fmt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let inspect = |path: &std::path::Path| {
        std::process::Command::new(env!("CARGO_BIN_EXE_quartz-lib"))
            .args(["inspect", path.to_str().unwrap()])
            .output()
            .unwrap()
    };
    let library = sample();
    let v1 = dir.join("v1.qtzl");
    library.save(&v1).unwrap();
    let output = inspect(&v1);
    assert!(output.status.success(), "inspect failed: {output:?}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(
        stdout.contains("format version:     1"),
        "inspect output lacks the format version:\n{stdout}"
    );

    // A file stamped with the retired version 2 is refused by name.
    let mut bytes = library.to_bytes();
    bytes[4..6].copy_from_slice(&2u16.to_le_bytes());
    let v2 = dir.join("v2.qtzl");
    std::fs::write(&v2, bytes).unwrap();
    let output = inspect(&v2);
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(
        stderr.contains("unsupported library format version 2"),
        "inspect must name the refused version:\n{stderr}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn io_errors_name_the_offending_path() {
    let dir = std::env::temp_dir().join(format!("quartz_library_io_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // A missing artifact: the Io error's Display names the path.
    let missing = dir.join("not_there.qtzl");
    let err = Library::load(&missing).unwrap_err();
    assert!(matches!(err, LibraryError::Io(_)), "{err:?}");
    assert!(
        err.to_string().contains("not_there.qtzl"),
        "I/O error must name the offending path, got: {err}"
    );

    // A registry root that collides with an existing file: the layout
    // creation fails with the path in the message.
    let clobbered = dir.join("registry_root");
    std::fs::write(&clobbered, b"in the way").unwrap();
    let err = Registry::open(&clobbered).unwrap_err();
    assert!(matches!(err, LibraryError::Io(_)), "{err:?}");
    assert!(
        err.to_string().contains("registry_root"),
        "registry I/O error must name the offending path, got: {err}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
