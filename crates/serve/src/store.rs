//! The warm model store: loads and validates a pretrained network once at
//! startup, then hands out per-worker [`AdaptiveModeler`] instances that
//! share the options and start from the same validated weights.
//!
//! Each generation holds one warm modeler, built once per checkpoint: its
//! network and inference snapshots (the pre-packed f64 weights and, under
//! `quantize`, the gated int8 ones) sit behind `Arc`s. A worker's modeler
//! is a clone of it, so every worker reads the same single copy of the
//! weights, and a worker that adapts copies them on write.
//!
//! The store is also the server's **hot-swap point**. The validated
//! network lives behind a shared epoch pointer: [`ModelStore::swap`]
//! atomically publishes a new network and bumps the epoch, cloned handles
//! (one per worker, one in the adaptation engine) all observe the change,
//! and anything that already cloned the old weights — an in-flight
//! request's modeler — simply finishes on them. Workers compare
//! [`ModelStore::epoch`] against the epoch their warmed modeler was built
//! at and rebuild lazily, so a swap never blocks the request path.
//!
//! A generation is named by its checkpoint's content hash, computed once
//! from what the caller already holds: [`ModelStore::open`] hashes the
//! file bytes it reads, callers of [`ModelStore::from_checkpoint`] and
//! [`ModelStore::swap`] pass the registry name or the hash of the bytes
//! they stored, and only [`ModelStore::from_network`] — a network that
//! exists only in memory — serializes it to JSON to name it.

use nrpm_core::adaptive::{AdaptiveModeler, AdaptiveOptions};
use nrpm_core::fingerprint::bytes_hash;
use nrpm_core::preprocess::NUM_INPUTS;
use nrpm_extrap::NUM_CLASSES;
use nrpm_nn::{Network, NetworkError};
use nrpm_registry::parse_checkpoint;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Errors raised while warming up the store.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// The checkpoint could not be read, parsed, or validated
    /// (non-finite weights and inconsistent layer dimensions are rejected
    /// by [`Network::load`] itself).
    Load(NetworkError),
    /// The checkpoint is a valid network, but not one the modeler can
    /// serve: its input/output widths do not match the fixed encoding.
    Shape {
        /// The checkpoint's input width.
        input_dim: usize,
        /// The checkpoint's class count.
        num_classes: usize,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Load(e) => write!(f, "cannot warm model store: {e}"),
            StoreError::Shape {
                input_dim,
                num_classes,
            } => write!(
                f,
                "checkpoint shape {input_dim}→{num_classes} does not fit the \
                 modeler (needs {NUM_INPUTS}→{NUM_CLASSES})"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// One immutable generation of the store: the warm modeler (a validated
/// network, its inference snapshots and the shared options) and the
/// network's content hash. Swaps replace the whole generation atomically,
/// so readers never see a half-updated pair (e.g. new weights with the old
/// hash, which would poison cache keys).
#[derive(Debug)]
struct StoreInner {
    modeler: AdaptiveModeler,
    checkpoint_hash: u64,
}

impl StoreInner {
    fn build(
        network: Network,
        checkpoint_hash: u64,
        opts: AdaptiveOptions,
    ) -> Result<Self, StoreError> {
        if network.input_dim() != NUM_INPUTS || network.num_classes() != NUM_CLASSES {
            return Err(StoreError::Shape {
                input_dim: network.input_dim(),
                num_classes: network.num_classes(),
            });
        }
        Ok(StoreInner {
            modeler: AdaptiveModeler::from_network(opts, network),
            checkpoint_hash,
        })
    }
}

/// A validated base network plus the modeling options every worker shares,
/// behind an atomically swappable epoch pointer.
///
/// The network is loaded and checked exactly once per generation; workers
/// obtain their own [`AdaptiveModeler`] via [`ModelStore::modeler`], so
/// domain adaptation in one worker can never mutate another worker's
/// weights. Cloning the store clones the *handle*: all clones share the
/// same swap point, so [`ModelStore::swap`] through any handle is visible
/// to every other.
#[derive(Debug, Clone)]
pub struct ModelStore {
    inner: Arc<Mutex<Arc<StoreInner>>>,
    epoch: Arc<AtomicU64>,
}

impl ModelStore {
    /// Loads a checkpoint from disk and warms the store. The file is read
    /// once, and the bytes read are both hashed and parsed
    /// ([`parse_checkpoint`]), so the checkpoint is named by the bytes on
    /// disk, as the registry names the same bytes.
    pub fn open(path: &Path, opts: AdaptiveOptions) -> Result<Self, StoreError> {
        let (network, hash) = {
            let bytes = std::fs::read(path)
                .map_err(|e| StoreError::Load(NetworkError::Io(e.to_string())))?;
            parse_checkpoint(&bytes).map_err(StoreError::Load)?
        };
        Self::from_checkpoint(network, hash, opts)
    }

    /// Warms the store from a network that exists only in memory (tests,
    /// benchmarks, a cluster without a registry): the network is
    /// serialized once to name it by its canonical JSON bytes.
    pub fn from_network(network: Network, opts: AdaptiveOptions) -> Result<Self, StoreError> {
        let hash = bytes_hash(network.to_json().as_bytes());
        Self::from_checkpoint(network, hash, opts)
    }

    /// Warms the store from a network whose content hash the caller
    /// already holds (a registry object, or bytes it has hashed). The hash
    /// is trusted: it must be the name of the bytes `network` was parsed
    /// from, or of its canonical JSON.
    pub fn from_checkpoint(
        network: Network,
        checkpoint_hash: u64,
        opts: AdaptiveOptions,
    ) -> Result<Self, StoreError> {
        let inner = StoreInner::build(network, checkpoint_hash, opts)?;
        Ok(ModelStore {
            inner: Arc::new(Mutex::new(Arc::new(inner))),
            epoch: Arc::new(AtomicU64::new(0)),
        })
    }

    /// Forces the domain-adaptation flag of the shared options, returning
    /// the adjusted store. The server uses this so its `adapt` knob is the
    /// single source of truth. Mutates the shared generation, so every
    /// clone of this handle observes the flag.
    pub fn with_adaptation(self, on: bool) -> Self {
        {
            let mut slot = self.inner.lock().unwrap_or_else(|p| p.into_inner());
            *slot = Arc::new(StoreInner {
                modeler: slot.modeler.clone().with_domain_adaptation(on),
                checkpoint_hash: slot.checkpoint_hash,
            });
        }
        self
    }

    fn snapshot(&self) -> Arc<StoreInner> {
        Arc::clone(&self.inner.lock().unwrap_or_else(|p| p.into_inner()))
    }

    /// Atomically replaces the serving network with `network`, named
    /// `checkpoint_hash`, keeping the shared options. Every caller already
    /// holds the hash of what it swaps in (a registry object, a candidate
    /// it stored, the checkpoint it rolls back to), so it is trusted as
    /// given, as in [`Self::from_checkpoint`]. The new network passes the
    /// same shape validation as the one loaded at startup — a candidate
    /// that does not fit the modeler is rejected *before* anything
    /// observable changes.
    ///
    /// In-flight requests keep the weights they already cloned; new
    /// modelers built after the swap use the new weights. The new
    /// generation's inference snapshots are built here, once, before the
    /// lock is taken, so workers warming a modeler do not wait for them.
    /// The epoch counter is bumped after the pointer is published, so a
    /// worker that sees the new epoch is guaranteed to also see the new
    /// generation.
    pub fn swap(&self, network: Network, checkpoint_hash: u64) -> Result<(), StoreError> {
        let inner = StoreInner::build(network, checkpoint_hash, self.options())?;
        *self.inner.lock().unwrap_or_else(|p| p.into_inner()) = Arc::new(inner);
        self.epoch.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// Generation counter: bumped on every [`ModelStore::swap`]. Workers
    /// cache it alongside their warmed modeler and rebuild when it moves.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// A clone of the current validated base network.
    pub fn network(&self) -> Network {
        self.snapshot().modeler.dnn().network().clone()
    }

    /// A clone of the shared modeling options.
    pub fn options(&self) -> AdaptiveOptions {
        self.snapshot().modeler.options().clone()
    }

    /// Content hash of the current checkpoint: the FNV-1a hash of the
    /// bytes it was loaded from ([`Self::open`], a registry object), or of
    /// its canonical JSON when it only ever existed in memory
    /// ([`Self::from_network`]). For every checkpoint nrpm writes the two
    /// agree, since the file is the canonical JSON byte for byte. Two
    /// stores with equal hashes serve bit-identical answers, so this is
    /// the registry address of the network and one of the inputs to every
    /// result-cache key.
    pub fn checkpoint_hash(&self) -> u64 {
        self.snapshot().checkpoint_hash
    }

    /// A fresh modeler on the current warm base weights: a clone of the
    /// generation's warm modeler, sharing its weights and snapshots.
    pub fn modeler(&self) -> AdaptiveModeler {
        self.snapshot().modeler.clone()
    }

    /// A fresh modeler (see [`Self::modeler`]) together with the checkpoint
    /// hash and store epoch of the exact generation it was warmed from. The
    /// hash is taken from the *same* snapshot as the weights, so a
    /// concurrent swap can never mislabel a modeler — that exactness is
    /// what lets the server refuse to cache an answer under a checkpoint
    /// hash it was not computed with. (The epoch is read separately and may
    /// lag a swap by one bump; it is only used for statistical windows,
    /// never for cache keying.)
    pub fn warm_modeler(&self) -> (AdaptiveModeler, u64, u64) {
        let inner = self.snapshot();
        let epoch = self.epoch.load(Ordering::Acquire);
        (inner.modeler.clone(), inner.checkpoint_hash, epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrpm_nn::NetworkConfig;
    use nrpm_registry::CheckpointRegistry;

    fn serveable_network() -> Network {
        Network::new(&NetworkConfig::new(&[NUM_INPUTS, 8, NUM_CLASSES]), 42)
    }

    /// The hash of a network's canonical JSON bytes.
    fn canonical_hash(network: &Network) -> u64 {
        bytes_hash(network.to_json().as_bytes())
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "nrpm-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn accepts_a_network_with_the_modeler_shape() {
        let store = ModelStore::from_network(serveable_network(), AdaptiveOptions::default());
        assert!(store.is_ok());
    }

    #[test]
    fn rejects_wrong_shapes_with_a_descriptive_error() {
        let err = ModelStore::from_network(
            Network::new(&NetworkConfig::new(&[4, 8, 3]), 42),
            AdaptiveOptions::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            StoreError::Shape {
                input_dim: 4,
                num_classes: 3
            }
        );
        assert!(err.to_string().contains("4→3"), "{err}");
    }

    #[test]
    fn open_propagates_checkpoint_validation() {
        let dir = std::env::temp_dir().join("nrpm_serve_store_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.json");
        std::fs::write(&path, "{\"layers\": oops").unwrap();
        let err = ModelStore::open(&path, AdaptiveOptions::default()).unwrap_err();
        assert!(matches!(err, StoreError::Load(_)), "{err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_hash_is_content_addressed() {
        let a = ModelStore::from_network(serveable_network(), AdaptiveOptions::default()).unwrap();
        let b = ModelStore::from_network(serveable_network(), AdaptiveOptions::default()).unwrap();
        assert_eq!(
            a.checkpoint_hash(),
            b.checkpoint_hash(),
            "same weights, same address"
        );
        let other = ModelStore::from_network(
            Network::new(&NetworkConfig::new(&[NUM_INPUTS, 8, NUM_CLASSES]), 43),
            AdaptiveOptions::default(),
        )
        .unwrap();
        assert_ne!(
            a.checkpoint_hash(),
            other.checkpoint_hash(),
            "different weights must not collide into one cache keyspace"
        );
    }

    #[test]
    fn modelers_start_from_the_warm_weights() {
        let net = serveable_network();
        let store = ModelStore::from_network(net.clone(), AdaptiveOptions::default()).unwrap();
        assert_eq!(store.modeler().dnn().network(), &net);
        assert_eq!(store.network(), net);
    }

    #[test]
    fn swap_publishes_new_weights_hash_and_epoch_to_all_clones() {
        let net1 = serveable_network();
        let net2 = Network::new(&NetworkConfig::new(&[NUM_INPUTS, 8, NUM_CLASSES]), 77);
        let store = ModelStore::from_network(net1, AdaptiveOptions::default()).unwrap();
        let handle = store.clone();
        let hash1 = store.checkpoint_hash();
        assert_eq!(handle.epoch(), 0);

        let hash2 = canonical_hash(&net2);
        store.swap(net2.clone(), hash2).unwrap();
        assert_ne!(hash1, hash2);
        // The clone observes the swap: new epoch, new hash, new weights.
        assert_eq!(handle.epoch(), 1);
        assert_eq!(handle.checkpoint_hash(), hash2);
        assert_eq!(handle.network(), net2);
        assert_eq!(handle.modeler().dnn().network(), &net2);
    }

    #[test]
    fn swap_rejects_wrong_shapes_without_changing_anything() {
        let store =
            ModelStore::from_network(serveable_network(), AdaptiveOptions::default()).unwrap();
        let hash = store.checkpoint_hash();
        let err = store
            .swap(Network::new(&NetworkConfig::new(&[4, 8, 3]), 1), hash ^ 1)
            .unwrap_err();
        assert!(matches!(err, StoreError::Shape { .. }), "{err:?}");
        assert_eq!(store.checkpoint_hash(), hash, "failed swap must be a no-op");
        assert_eq!(store.epoch(), 0);
    }

    #[test]
    fn in_flight_modelers_keep_the_old_weights_across_a_swap() {
        let net1 = serveable_network();
        let net2 = Network::new(&NetworkConfig::new(&[NUM_INPUTS, 8, NUM_CLASSES]), 77);
        let store = ModelStore::from_network(net1.clone(), AdaptiveOptions::default()).unwrap();
        let in_flight = store.modeler();
        let hash2 = canonical_hash(&net2);
        store.swap(net2, hash2).unwrap();
        assert_eq!(
            in_flight.dnn().network(),
            &net1,
            "a modeler cloned before the swap finishes on the old network"
        );
    }

    #[test]
    fn with_adaptation_is_visible_through_clones() {
        let store =
            ModelStore::from_network(serveable_network(), AdaptiveOptions::default()).unwrap();
        let handle = store.clone();
        let store = store.with_adaptation(true);
        assert!(handle.options().use_domain_adaptation);
        assert!(store.options().use_domain_adaptation);
    }

    #[test]
    fn a_saved_checkpoint_opens_under_its_canonical_and_registry_hash() {
        let dir = scratch_dir("saved");
        let network = serveable_network();
        let path = dir.join("net.json");
        network.save(&path).unwrap();
        let registry = CheckpointRegistry::open(dir.join("registry")).unwrap();
        let store = ModelStore::open(&path, AdaptiveOptions::default()).unwrap();
        assert_eq!(store.checkpoint_hash(), canonical_hash(&network));
        assert_eq!(store.checkpoint_hash(), registry.put(&network).unwrap());
        assert_eq!(
            store.checkpoint_hash(),
            ModelStore::from_network(network, AdaptiveOptions::default())
                .unwrap()
                .checkpoint_hash()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_reformatted_checkpoint_opens_under_the_hash_of_its_own_bytes() {
        let dir = scratch_dir("pretty");
        let network = serveable_network();
        let pretty = serde_json::to_string_pretty(&network).unwrap();
        assert_ne!(pretty, network.to_json());
        let path = dir.join("pretty.json");
        std::fs::write(&path, &pretty).unwrap();
        let registry = CheckpointRegistry::open(dir.join("registry")).unwrap();
        let (_, registered) = registry.put_bytes(&pretty).unwrap();

        let store = ModelStore::open(&path, AdaptiveOptions::default()).unwrap();
        assert_eq!(store.checkpoint_hash(), registered);
        assert_eq!(store.checkpoint_hash(), bytes_hash(pretty.as_bytes()));
        assert_eq!(store.network(), network, "same weights, other bytes");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn swapping_in_a_registry_object_reports_the_object_hash() {
        let dir = scratch_dir("swap-registry");
        let registry = CheckpointRegistry::open(&dir).unwrap();
        let next = Network::new(&NetworkConfig::new(&[NUM_INPUTS, 8, NUM_CLASSES]), 77);
        let hash = registry.put(&next).unwrap();
        let store =
            ModelStore::from_network(serveable_network(), AdaptiveOptions::default()).unwrap();
        store.swap(registry.get(hash).unwrap(), hash).unwrap();
        assert_eq!(store.checkpoint_hash(), hash);
        assert_eq!(store.warm_modeler().1, hash);
        assert_eq!(store.network(), next);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
