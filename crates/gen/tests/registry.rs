//! Concurrency battery for the content-addressed registry (DESIGN.md
//! §12.2): racing publishers must converge on one intact winner, and
//! readers racing publishers and the garbage collector must only ever see
//! a key as *absent* or *fully intact* — never torn.

use quartz_gen::{Ecc, EccSet, Library, LibraryError, Registry, RegistryKey};
use quartz_ir::{Circuit, Gate, Instruction};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn pair(gate: Gate, qubits: &[usize]) -> Circuit {
    let mut c = Circuit::new(2, 0);
    c.push(Instruction::new(gate, qubits.to_vec(), vec![]));
    c.push(Instruction::new(gate, qubits.to_vec(), vec![]));
    c
}

/// A small Nam-legal library; `with_index` toggles the trailing index
/// section, which changes the artifact checksum but not its registry key.
fn sample_library(with_index: bool) -> Library {
    let mut set = EccSet::new(2, 0);
    set.eccs
        .push(Ecc::new(vec![pair(Gate::H, &[0]), Circuit::new(2, 0)]));
    set.eccs.push(Ecc::new(vec![
        pair(Gate::Cnot, &[0, 1]),
        Circuit::new(2, 0),
    ]));
    Library::new("Nam", set, with_index)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("quartz_registry_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Reads the blob a `get` resolved to, tolerating a concurrent gc sweep
/// between the resolve and the read (`None` = vanished, treat as absent).
fn read_blob(path: &Path) -> Option<Vec<u8>> {
    std::fs::read(path).ok()
}

#[test]
fn racing_adds_converge_on_one_winner_byte_identical_to_a_solo_add() {
    let dir = temp_dir("race_add");
    let library = sample_library(true);
    let artifact = dir.join("input.qtzl");
    library.save(&artifact).unwrap();

    // The reference: a solo add into its own registry.
    let solo_root = dir.join("solo");
    let solo = Registry::open(&solo_root).unwrap();
    let key = solo.add(&artifact).unwrap();
    let solo_blob = read_blob(&solo.get(&key).unwrap()).expect("solo blob is stable");

    // The race: 8 threads publishing the same artifact into one registry.
    let contended_root = dir.join("contended");
    Registry::open(&contended_root).unwrap();
    let results: Vec<RegistryKey> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let root = contended_root.clone();
                let artifact = artifact.clone();
                scope.spawn(move || Registry::open(root).unwrap().add(&artifact).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for k in &results {
        assert_eq!(k, &key, "every racer derived the same content key");
    }

    // One intact winner, byte-identical to the solo publish.
    let contended = Registry::open(&contended_root).unwrap();
    let raced_blob = read_blob(&contended.get(&key).unwrap()).expect("winner blob is stable");
    assert_eq!(raced_blob, solo_blob, "raced publish is torn or diverged");
    assert_eq!(contended.list().unwrap().len(), 1);

    // No torn staging files survive the race: gc sweeps tmp/ only.
    let leftover = std::fs::read_dir(contended_root.join("tmp"))
        .unwrap()
        .count();
    assert_eq!(leftover, 0, "{leftover} torn staging file(s) left behind");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_gets_during_adds_and_gcs_see_absent_or_intact_only() {
    let dir = temp_dir("race_get");
    // Two versions under the SAME key (the index toggle changes only the
    // checksum): republishing retargets the manifest and strands the old
    // blob for gc, so readers race both the publish and the sweep.
    let version_a = sample_library(false);
    let version_b = sample_library(true);
    let key = RegistryKey::from_header(version_a.header());
    assert_eq!(key, RegistryKey::from_header(version_b.header()));
    let bytes_a = version_a.to_bytes();
    let bytes_b = version_b.to_bytes();
    assert_ne!(bytes_a, bytes_b);
    let path_a = dir.join("a.qtzl");
    let path_b = dir.join("b.qtzl");
    version_a.save(&path_a).unwrap();
    version_b.save(&path_b).unwrap();

    let root = dir.join("registry");
    Registry::open(&root).unwrap();
    let done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        // The writer: flip between the two versions, sweeping after each
        // publish so the superseded blob actually vanishes mid-run.
        let writer_root = root.clone();
        let writer_done = Arc::clone(&done);
        let (path_a, path_b) = (path_a.clone(), path_b.clone());
        scope.spawn(move || {
            let registry = Registry::open(writer_root).unwrap();
            for round in 0..24 {
                let src = if round % 2 == 0 { &path_a } else { &path_b };
                registry.add(src).unwrap();
                registry.gc().unwrap();
            }
            writer_done.store(true, Ordering::Release);
        });

        // The readers: every successful resolve must be one of the two
        // intact versions, bit-for-bit. A miss (NotFound) is the only
        // acceptable failure — that's "absent", racing the sweep.
        for _ in 0..3 {
            let reader_root = root.clone();
            let reader_done = Arc::clone(&done);
            let (bytes_a, bytes_b) = (bytes_a.clone(), bytes_b.clone());
            let reader_key = key.clone();
            scope.spawn(move || {
                let registry = Registry::open(reader_root).unwrap();
                let mut intact = 0usize;
                while !reader_done.load(Ordering::Acquire) {
                    match registry.get(&reader_key) {
                        Ok(path) => {
                            if let Some(blob) = read_blob(&path) {
                                assert!(
                                    blob == bytes_a || blob == bytes_b,
                                    "reader observed a torn artifact ({} bytes)",
                                    blob.len()
                                );
                                intact += 1;
                            }
                        }
                        Err(LibraryError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {}
                        Err(e) => panic!("reader saw a non-absent failure: {e}"),
                    }
                }
                assert!(intact > 0, "reader never observed an intact artifact");
            });
        }
    });

    let _ = std::fs::remove_dir_all(&dir);
}
