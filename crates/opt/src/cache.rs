//! Load-once caching of persisted transformation libraries (DESIGN.md §7).
//!
//! Generation is offline; a service process should pay for a library at most
//! once, as a cold file read. [`LibraryCache`] maps artifact paths to
//! [`LoadedLibrary`] entries — the decoded header plus the dispatch index
//! behind an [`Arc`] — so any number of [`crate::Optimizer`]s and
//! [`crate::OptimizationService`]s share one in-memory index per artifact,
//! exactly as batches already share one index per service (DESIGN.md §6).
//!
//! When the artifact carries a prebuilt index section the index is decoded
//! directly (zero construction work); otherwise it is built once from the
//! ECC payload and cached all the same
//! ([`LoadedLibrary::index_was_prebuilt`] records which happened).
//!
//! # Examples
//!
//! ```
//! use quartz_gen::{EccSet, Library};
//! use quartz_opt::{LibraryCache, Optimizer, SearchConfig};
//! use std::sync::Arc;
//!
//! let dir = std::env::temp_dir().join("quartz_library_cache_doctest");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("tiny.qtzl");
//! Library::new("Nam", EccSet::new(2, 0), true).save(&path).unwrap();
//!
//! let cache = LibraryCache::new();
//! let first = cache.get_or_load(&path).unwrap();
//! let second = cache.get_or_load(&path).unwrap();
//! // The second request is served from memory: same Arc, no file read.
//! assert!(Arc::ptr_eq(&first, &second));
//! assert!(first.index_was_prebuilt());
//!
//! let optimizer = Optimizer::from_library(&first, SearchConfig::default());
//! assert_eq!(optimizer.transformations().len(), 0);
//! ```

use quartz_gen::TransformationIndex;
use quartz_gen::{
    transformations_from_ecc_set, AuditStamp, LibraryError, LibraryHeader, LibraryReader, Registry,
    RegistryKey,
};
use quartz_verify::VerifierConfig;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A library artifact resident in memory: its header and its dispatch
/// index, shareable across optimizers and services via [`Arc`].
#[derive(Debug)]
pub struct LoadedLibrary {
    path: PathBuf,
    header: LibraryHeader,
    index: Arc<TransformationIndex>,
    index_was_prebuilt: bool,
    load_time: Duration,
}

impl LoadedLibrary {
    /// The path the artifact was loaded from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The artifact header (gate set, `(n, q, m)`, counts, checksum).
    pub fn header(&self) -> &LibraryHeader {
        &self.header
    }

    /// The dispatch index, shared — cloning the `Arc` is the whole cost of
    /// handing the library to another optimizer or service.
    pub fn shared_index(&self) -> Arc<TransformationIndex> {
        Arc::clone(&self.index)
    }

    /// `true` when the index was decoded from the artifact's prebuilt
    /// section, `false` when it had to be built from the ECC payload.
    pub fn index_was_prebuilt(&self) -> bool {
        self.index_was_prebuilt
    }

    /// Wall-clock time the read + validate + decode took.
    pub fn load_time(&self) -> Duration {
        self.load_time
    }
}

/// A load-once, share-everywhere cache of library artifacts, keyed by
/// canonical path. See the module-level docs for an example.
#[derive(Debug, Default)]
pub struct LibraryCache {
    entries: Mutex<HashMap<PathBuf, Arc<LoadedLibrary>>>,
    registry: Option<Registry>,
    require_audit: bool,
}

impl LibraryCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        LibraryCache::default()
    }

    /// Creates an empty cache that refuses artifacts without a live audit
    /// stamp: the `<artifact>.audit` sidecar written by
    /// `quartz-lib audit --write-stamp` must exist and
    /// [certify](quartz_gen::AuditStamp::certifies) the artifact's checksum
    /// under the default verifier configuration. Loads of unstamped (or
    /// stale-stamped) artifacts fail with
    /// [`LibraryError::NotAudited`] and nothing is cached.
    pub fn requiring_audit() -> Self {
        LibraryCache {
            require_audit: true,
            ..LibraryCache::default()
        }
    }

    /// Creates a cache backed by the content-addressed registry at `root`
    /// (DESIGN.md §12.2): [`LibraryCache::get_for_key`] resolves keys to
    /// blob paths through it and loads them like any other path.
    /// Path-based [`LibraryCache::get_or_load`] keeps working alongside.
    ///
    /// # Errors
    ///
    /// I/O errors creating the registry layout.
    pub fn with_registry(root: impl Into<PathBuf>) -> Result<Self, LibraryError> {
        Ok(LibraryCache {
            registry: Some(Registry::open(root)?),
            ..LibraryCache::default()
        })
    }

    /// [`LibraryCache::with_registry`] + [`LibraryCache::requiring_audit`]:
    /// every registry blob must carry a live audit stamp published
    /// alongside it, and path loads are gated the same way.
    ///
    /// # Errors
    ///
    /// I/O errors creating the registry layout.
    pub fn with_registry_requiring_audit(root: impl Into<PathBuf>) -> Result<Self, LibraryError> {
        Ok(LibraryCache {
            registry: Some(Registry::open(root)?),
            require_audit: true,
            ..LibraryCache::default()
        })
    }

    /// The backing registry, when this cache was built with
    /// [`LibraryCache::with_registry`].
    pub fn registry(&self) -> Option<&Registry> {
        self.registry.as_ref()
    }

    /// Whether this cache was built with [`LibraryCache::requiring_audit`].
    pub fn requires_audit(&self) -> bool {
        self.require_audit
    }

    /// Returns the library at `path`, reading and validating the artifact on
    /// the first request and serving every later request from memory.
    ///
    /// # Errors
    ///
    /// Propagates I/O and artifact-validation errors
    /// ([`quartz_gen::LibraryError`]); nothing is cached on failure.
    pub fn get_or_load(&self, path: impl AsRef<Path>) -> Result<Arc<LoadedLibrary>, LibraryError> {
        let path = path.as_ref();
        // Canonicalize so `libraries/x.qtzl` and `./libraries/x.qtzl` share
        // an entry; fall back to the verbatim path when the file is missing
        // (the load below will produce the error, with the path in it).
        let key = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
        if let Some(entry) = self.lock().get(&key) {
            return Ok(Arc::clone(entry));
        }
        let loaded = Arc::new(Self::load(path, &key, self.require_audit)?);
        // A concurrent load of the same artifact may have won the race;
        // keep the incumbent so every caller sees one shared index.
        let mut entries = self.lock();
        let entry = entries.entry(key).or_insert(loaded);
        Ok(Arc::clone(entry))
    }

    /// Resolves `key` through the backing registry to its blob and returns
    /// that blob's library through [`LibraryCache::get_or_load`]: loaded
    /// on the first request, served from memory afterwards. Blobs are
    /// content-addressed, so a republished key resolves to a new path and
    /// a new entry. Every call re-verifies the blob ([`Registry::get`]).
    ///
    /// # Errors
    ///
    /// [`LibraryError::Malformed`] when the cache has no registry;
    /// resolution and integrity errors from [`Registry::get`]; every
    /// [`LibraryCache::get_or_load`] error, including
    /// [`LibraryError::NotAudited`] for a blob without a live stamp when
    /// auditing is required.
    pub fn get_for_key(&self, key: &RegistryKey) -> Result<Arc<LoadedLibrary>, LibraryError> {
        let registry = self.registry.as_ref().ok_or_else(|| {
            LibraryError::Malformed(
                "this cache has no registry — build it with LibraryCache::with_registry"
                    .to_string(),
            )
        })?;
        self.get_or_load(registry.get(key)?)
    }

    /// Number of artifacts resident in the cache.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Returns `true` when no artifact has been loaded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<PathBuf, Arc<LoadedLibrary>>> {
        self.entries
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn load(path: &Path, key: &Path, require_audit: bool) -> Result<LoadedLibrary, LibraryError> {
        let start = Instant::now();
        let bytes = std::fs::read(path)
            .map_err(|e| LibraryError::Io(quartz_gen::path_io_error(path, e)))?;
        let reader = LibraryReader::new(&bytes)?;
        reader.verify_checksum()?;
        if require_audit {
            let certified = AuditStamp::load_for(path).is_some_and(|stamp| {
                stamp.certifies(reader.header().checksum, VerifierConfig::default().digest())
            });
            if !certified {
                return Err(LibraryError::NotAudited {
                    path: path.display().to_string(),
                });
            }
        }
        let (index, index_was_prebuilt) = match reader.decode_index()? {
            Some(index) => (index, true),
            None => {
                let set = reader.decode_ecc_set()?;
                (
                    TransformationIndex::new(transformations_from_ecc_set(&set, true)),
                    false,
                )
            }
        };
        Ok(LoadedLibrary {
            path: key.to_path_buf(),
            header: reader.header().clone(),
            index: Arc::new(index),
            index_was_prebuilt,
            load_time: start.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quartz_gen::{Ecc, EccSet, Library};
    use quartz_ir::{Circuit, Gate, Instruction};

    fn sample_set() -> EccSet {
        let mut hh = Circuit::new(2, 0);
        hh.push(Instruction::new(Gate::H, vec![0], vec![]));
        hh.push(Instruction::new(Gate::H, vec![0], vec![]));
        let mut set = EccSet::new(2, 0);
        set.eccs.push(Ecc::new(vec![hh, Circuit::new(2, 0)]));
        set
    }

    fn temp_artifact(name: &str, with_index: bool) -> PathBuf {
        let dir = std::env::temp_dir().join("quartz_cache_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        Library::new("Nam", sample_set(), with_index)
            .save(&path)
            .unwrap();
        path
    }

    #[test]
    fn second_load_is_served_from_memory() {
        let path = temp_artifact("cached.qtzl", true);
        let cache = LibraryCache::new();
        assert!(cache.is_empty());
        let a = cache.get_or_load(&path).unwrap();
        let b = cache.get_or_load(&path).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
        assert!(a.index_was_prebuilt());
        assert_eq!(a.header().gate_set, "Nam");
        assert_eq!(a.shared_index().len(), 1); // HH → empty
    }

    #[test]
    fn artifacts_without_an_index_build_one_on_load() {
        let path = temp_artifact("no_index.qtzl", false);
        let cache = LibraryCache::new();
        let loaded = cache.get_or_load(&path).unwrap();
        assert!(!loaded.index_was_prebuilt());
        assert_eq!(loaded.shared_index().len(), 1);
    }

    #[test]
    fn load_failures_are_reported_and_not_cached() {
        let cache = LibraryCache::new();
        let missing = std::env::temp_dir().join("quartz_cache_tests/definitely_missing.qtzl");
        let err = cache.get_or_load(&missing).unwrap_err();
        assert!(err.to_string().contains("definitely_missing.qtzl"));
        assert!(cache.is_empty());

        // A corrupted artifact is rejected by the checksum.
        let path = temp_artifact("corrupt.qtzl", true);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, bytes).unwrap();
        assert!(matches!(
            cache.get_or_load(&path),
            Err(LibraryError::ChecksumMismatch { .. })
        ));
        assert!(cache.is_empty());
    }

    #[test]
    fn requiring_audit_rejects_unstamped_artifacts() {
        let path = temp_artifact("unstamped.qtzl", true);
        let _ = std::fs::remove_file(AuditStamp::sidecar_path(&path));
        let cache = LibraryCache::requiring_audit();
        assert!(cache.requires_audit());
        assert!(!LibraryCache::new().requires_audit());
        let err = cache.get_or_load(&path).unwrap_err();
        assert!(matches!(err, LibraryError::NotAudited { .. }));
        assert!(err.to_string().contains("unstamped.qtzl"));
        assert!(cache.is_empty());
    }

    fn three_class_set() -> EccSet {
        let mut set = EccSet::new(2, 0);
        for gate in [Gate::H, Gate::X] {
            let mut pair = Circuit::new(2, 0);
            pair.push(Instruction::new(gate, vec![0], vec![]));
            pair.push(Instruction::new(gate, vec![0], vec![]));
            set.eccs.push(Ecc::new(vec![pair, Circuit::new(2, 0)]));
        }
        let mut cnots = Circuit::new(2, 0);
        cnots.push(Instruction::new(Gate::Cnot, vec![0, 1], vec![]));
        cnots.push(Instruction::new(Gate::Cnot, vec![0, 1], vec![]));
        set.eccs.push(Ecc::new(vec![cnots, Circuit::new(2, 0)]));
        set
    }

    fn temp_registry_dir(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!(
            "quartz_cache_registry_{tag}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn registry_whole_artifacts_resolve_lazily_and_keyless_caches_refuse_keys() {
        let root = temp_registry_dir("whole");
        let library = Library::new("Nam", three_class_set(), true);
        let registry = Registry::open(&root).unwrap();
        registry.add_library(&library).unwrap();

        // Nothing is loaded until the first request for the key.
        let cache = LibraryCache::with_registry(&root).unwrap();
        assert!(cache.registry().is_some());
        assert!(cache.is_empty());
        let key = RegistryKey::from_header(library.header());
        let loaded = cache.get_for_key(&key).unwrap();
        assert_eq!(loaded.header(), library.header());
        assert!(loaded.index_was_prebuilt());
        assert_eq!(
            loaded.shared_index().transformations(),
            library.index().unwrap().transformations()
        );

        // Later requests, by key or by the blob's path, share the entry.
        assert!(Arc::ptr_eq(&loaded, &cache.get_for_key(&key).unwrap()));
        let blob = registry.get(&key).unwrap();
        assert!(Arc::ptr_eq(&loaded, &cache.get_or_load(&blob).unwrap()));
        assert_eq!(cache.len(), 1);

        let keyless = LibraryCache::new();
        let err = keyless.get_for_key(&key).unwrap_err();
        assert!(err.to_string().contains("with_registry"), "{err}");

        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn registry_audit_gating_is_per_shard() {
        use quartz_gen::{AuditConfig, Auditor};

        let root = temp_registry_dir("audit");
        let staging = root.join("staging");
        std::fs::create_dir_all(&staging).unwrap();
        let path = staging.join("three.qtzl");
        let library = Library::new("Nam", three_class_set(), true);
        library.save(&path).unwrap();
        let registry = Registry::open(&root).unwrap();
        registry.add(&path).unwrap();

        // Published without a stamp: the blob is refused.
        let cache = LibraryCache::with_registry_requiring_audit(&root).unwrap();
        assert!(cache.requires_audit());
        let key = RegistryKey::from_header(library.header());
        let err = cache.get_for_key(&key).unwrap_err();
        assert!(matches!(err, LibraryError::NotAudited { .. }), "{err}");
        assert!(cache.is_empty(), "nothing may be cached on a refused load");

        // Stamping the artifact and republishing it publishes the sidecar
        // next to the same blob, which unblocks the key.
        let report = Auditor::new(AuditConfig::default())
            .audit_artifact(&path, false)
            .unwrap();
        report
            .stamp()
            .expect("the sample set audits clean")
            .save_for(&path)
            .unwrap();
        registry.add(&path).unwrap();
        let loaded = cache.get_for_key(&key).unwrap();
        assert_eq!(loaded.header().checksum, library.header().checksum);

        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn requiring_audit_accepts_certified_artifacts_and_rejects_stale_stamps() {
        use quartz_gen::{AuditConfig, Auditor};

        let path = temp_artifact("stamped.qtzl", true);
        let report = Auditor::new(AuditConfig::default())
            .audit_artifact(&path, false)
            .unwrap();
        let stamp = report.stamp().expect("the sample set audits clean");
        stamp.save_for(&path).unwrap();

        let cache = LibraryCache::requiring_audit();
        let loaded = cache.get_or_load(&path).unwrap();
        assert_eq!(loaded.header().gate_set, "Nam");

        // Re-packing different content under the same path invalidates the
        // stamp: the sidecar certifies the old checksum only.
        let mut grown = sample_set();
        let mut xx = Circuit::new(2, 0);
        xx.push(Instruction::new(Gate::X, vec![0], vec![]));
        xx.push(Instruction::new(Gate::X, vec![0], vec![]));
        grown.eccs.push(Ecc::new(vec![xx, Circuit::new(2, 0)]));
        Library::new("Nam", grown, true).save(&path).unwrap();

        let fresh = LibraryCache::requiring_audit();
        assert!(matches!(
            fresh.get_or_load(&path),
            Err(LibraryError::NotAudited { .. })
        ));
    }
}
