//! A content-addressed store of trained [`Network`] checkpoints.
//!
//! Every checkpoint is addressed by the FNV-1a-64 hash of its stored
//! bytes, rendered as 16 lowercase hex digits. For a network stored with
//! [`CheckpointRegistry::put`] those bytes are its canonical JSON (what
//! [`Network::save`] writes); [`CheckpointRegistry::put_bytes`] keeps the
//! caller's bytes as they are, and [`parse_checkpoint`] names a file read
//! from disk the same way. Layout under the registry root:
//!
//! ```text
//! objects/<hex16>.json   the checkpoint bytes, named by their own hash
//! refs/<name>            a text file holding the hex hash a name points to
//! ```
//!
//! Writes go through a temp file plus rename, so an object file either
//! exists with its full content or not at all — and because the name *is*
//! the content hash, re-putting an existing checkpoint is a no-op.
//! [`CheckpointRegistry::get`] re-hashes an object against its name before
//! parsing it, so a damaged object is never handed out under a hash it does
//! not have; [`CheckpointRegistry::verify`] does the same for every object
//! and checks every ref resolves; [`CheckpointRegistry::gc`] deletes
//! objects that neither a ref nor a journal in the registry's directory
//! (the swap and rollout journals) keeps alive.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

use nrpm_core::fingerprint::bytes_hash;
use nrpm_nn::{Network, NetworkError};

use crate::rollout::{RolloutJournal, ROLLOUT_JOURNAL_FILE};
use crate::swap::{SwapJournal, SWAP_JOURNAL_FILE};

/// Why checkpoint-registry operations fail.
#[derive(Debug)]
pub enum RegistryError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// A ref name contains characters that could escape `refs/`.
    InvalidRefName(String),
    /// A ref was asked to point at (or a lookup named) a hash with no
    /// stored object.
    UnknownCheckpoint(String),
    /// A stored object failed to parse back into a [`Network`], or its
    /// bytes no longer hash to the name it is stored under.
    Corrupt(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Io(e) => write!(f, "registry I/O error: {e}"),
            RegistryError::InvalidRefName(name) => {
                write!(f, "invalid ref name {name:?}: use [A-Za-z0-9._-] only")
            }
            RegistryError::UnknownCheckpoint(id) => write!(f, "unknown checkpoint {id}"),
            RegistryError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<std::io::Error> for RegistryError {
    fn from(e: std::io::Error) -> Self {
        RegistryError::Io(e)
    }
}

/// Renders a content hash the way the registry names files: 16 lowercase
/// hex digits.
pub fn hex16(hash: u64) -> String {
    format!("{hash:016x}")
}

/// Parses a [`hex16`] string back to a hash.
pub fn parse_hex16(s: &str) -> Option<u64> {
    if s.len() == 16 {
        u64::from_str_radix(s, 16).ok()
    } else {
        None
    }
}

/// Parses checkpoint bytes and names them by their own hash — the name the
/// registry gives the same bytes.
pub fn parse_checkpoint<B: AsRef<[u8]> + ?Sized>(
    bytes: &B,
) -> Result<(Network, u64), NetworkError> {
    let bytes = bytes.as_ref();
    let hash = bytes_hash(bytes);
    Network::from_json(bytes).map(|network| (network, hash))
}

fn valid_ref_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

/// One problem found by [`CheckpointRegistry::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyIssue {
    /// An object's bytes hash to something other than its file name claims.
    HashMismatch {
        /// Hash the file name claims.
        named: u64,
        /// Hash the bytes actually have.
        actual: u64,
    },
    /// An object's bytes are not a loadable [`Network`].
    Unloadable {
        /// The object's hash (from its file name).
        hash: u64,
        /// Parser error text.
        error: String,
    },
    /// A ref points at a hash with no object, or holds unparseable text.
    DanglingRef {
        /// The ref's name.
        name: String,
        /// The ref file's content.
        target: String,
    },
}

/// Outcome of a full [`CheckpointRegistry::verify`] sweep.
#[derive(Debug, Clone, Default)]
pub struct VerifyOutcome {
    /// Objects whose name, hash, and content all agree.
    pub intact: usize,
    /// Everything that does not.
    pub issues: Vec<VerifyIssue>,
}

impl VerifyOutcome {
    /// `true` when the sweep found nothing wrong.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }
}

/// Reads the checkpoints a journal in a registry directory names.
type LiveHashes = fn(&Path) -> std::io::Result<HashSet<u64>>;

/// Every journal that can name a checkpoint no ref points at (a swap's
/// serving and rollback targets, a rollout's target); collecting one could
/// leave a recovering, rolling-back or resumed server on a deleted object.
const PINNING_JOURNALS: [(&str, &str, LiveHashes); 2] = [
    ("swap", SWAP_JOURNAL_FILE, |dir| {
        Ok(SwapJournal::open(dir)?.0.live_hashes())
    }),
    ("rollout", ROLLOUT_JOURNAL_FILE, |dir| {
        Ok(RolloutJournal::open(dir)?.0.live_hashes())
    }),
];

/// The on-disk checkpoint store. See the [module docs](self) for layout
/// and guarantees.
#[derive(Debug, Clone)]
pub struct CheckpointRegistry {
    root: PathBuf,
    objects: PathBuf,
    refs: PathBuf,
}

impl CheckpointRegistry {
    /// Opens (creating if absent) the registry rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, RegistryError> {
        let dir = dir.as_ref();
        let objects = dir.join("objects");
        let refs = dir.join("refs");
        fs::create_dir_all(&objects)?;
        fs::create_dir_all(&refs)?;
        Ok(CheckpointRegistry {
            root: dir.to_path_buf(),
            objects,
            refs,
        })
    }

    /// The directory the registry is rooted at.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn object_path(&self, hash: u64) -> PathBuf {
        self.objects.join(format!("{}.json", hex16(hash)))
    }

    /// Writes `bytes` as the object named `hash` (temp file plus rename),
    /// unless that object is already stored.
    fn write_object(&self, hash: u64, bytes: &[u8]) -> Result<(), RegistryError> {
        let path = self.object_path(hash);
        if !path.exists() {
            let tmp = path.with_extension("json.tmp");
            fs::write(&tmp, bytes)?;
            fs::rename(&tmp, &path)?;
        }
        Ok(())
    }

    /// Reads the bytes stored under `hash`, checking they still hash to it.
    fn read_object(&self, hash: u64) -> Result<Vec<u8>, RegistryError> {
        let path = self.object_path(hash);
        if !path.exists() {
            return Err(RegistryError::UnknownCheckpoint(hex16(hash)));
        }
        let bytes = fs::read(&path)?;
        let actual = bytes_hash(&bytes);
        if actual != hash {
            return Err(RegistryError::Corrupt(format!(
                "object {} holds bytes hashing to {}",
                hex16(hash),
                hex16(actual)
            )));
        }
        Ok(bytes)
    }

    /// Stores `network`, returning its content hash. Idempotent: storing
    /// the same network twice writes nothing the second time.
    pub fn put(&self, network: &Network) -> Result<u64, RegistryError> {
        let json = network.to_json();
        let hash = bytes_hash(json.as_bytes());
        self.write_object(hash, json.as_bytes())?;
        Ok(hash)
    }

    /// Registers already-serialized checkpoint bytes (e.g. a file trained
    /// elsewhere) after checking they load, keeping the bytes as they are.
    /// Returns the network they hold and their content hash.
    pub fn put_bytes<B: AsRef<[u8]> + ?Sized>(
        &self,
        bytes: &B,
    ) -> Result<(Network, u64), RegistryError> {
        let bytes = bytes.as_ref();
        let (network, hash) =
            parse_checkpoint(bytes).map_err(|e| RegistryError::Corrupt(e.to_string()))?;
        self.write_object(hash, bytes)?;
        Ok((network, hash))
    }

    /// Loads the checkpoint stored under `hash`. The object's bytes are
    /// checked against `hash` before they are parsed: a mismatch is
    /// [`RegistryError::Corrupt`], so the network returned is always the
    /// one `hash` names.
    pub fn get(&self, hash: u64) -> Result<Network, RegistryError> {
        let bytes = self.read_object(hash)?;
        Network::from_json(&bytes)
            .map_err(|e| RegistryError::Corrupt(format!("checkpoint {}: {e}", hex16(hash))))
    }

    /// `true` if an object for `hash` is stored.
    pub fn contains(&self, hash: u64) -> bool {
        self.object_path(hash).exists()
    }

    /// Points the named ref (e.g. `default`, `best`) at `hash`, which must
    /// name a stored object.
    pub fn set_ref(&self, name: &str, hash: u64) -> Result<(), RegistryError> {
        if !valid_ref_name(name) {
            return Err(RegistryError::InvalidRefName(name.to_string()));
        }
        if !self.contains(hash) {
            return Err(RegistryError::UnknownCheckpoint(hex16(hash)));
        }
        let path = self.refs.join(name);
        let tmp = self.refs.join(format!("{name}.tmp"));
        fs::write(&tmp, hex16(hash))?;
        fs::rename(&tmp, &path)?;
        Ok(())
    }

    /// The hash a named ref points at, if the ref exists.
    pub fn ref_hash(&self, name: &str) -> Result<Option<u64>, RegistryError> {
        if !valid_ref_name(name) {
            return Err(RegistryError::InvalidRefName(name.to_string()));
        }
        let path = self.refs.join(name);
        if !path.exists() {
            return Ok(None);
        }
        let text = fs::read_to_string(&path)?;
        parse_hex16(text.trim())
            .map(Some)
            .ok_or_else(|| RegistryError::Corrupt(format!("ref {name} holds {:?}", text.trim())))
    }

    /// Resolves a user-supplied identifier: a ref name first, then a bare
    /// 16-digit hex hash.
    pub fn resolve(&self, id: &str) -> Result<u64, RegistryError> {
        if valid_ref_name(id) {
            if let Some(hash) = self.ref_hash(id)? {
                return Ok(hash);
            }
        }
        match parse_hex16(id) {
            Some(hash) if self.contains(hash) => Ok(hash),
            _ => Err(RegistryError::UnknownCheckpoint(id.to_string())),
        }
    }

    /// Every stored object hash, sorted.
    pub fn list(&self) -> Result<Vec<u64>, RegistryError> {
        let mut hashes = Vec::new();
        for entry in fs::read_dir(&self.objects)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(stem) = name.strip_suffix(".json") {
                if let Some(hash) = parse_hex16(stem) {
                    hashes.push(hash);
                }
            }
        }
        hashes.sort_unstable();
        Ok(hashes)
    }

    /// Every ref as `(name, hash)`, sorted by name. Refs holding garbage
    /// are skipped here; [`Self::verify`] reports them.
    pub fn refs(&self) -> Result<Vec<(String, u64)>, RegistryError> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.refs)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if !valid_ref_name(&name) {
                continue; // leftover .tmp or foreign file
            }
            if let Some(hash) = fs::read_to_string(entry.path())
                .ok()
                .and_then(|t| parse_hex16(t.trim()))
            {
                out.push((name, hash));
            }
        }
        out.sort();
        Ok(out)
    }

    /// Re-hashes every object against its file name, checks every object
    /// loads, and checks every ref resolves to a stored object.
    pub fn verify(&self) -> Result<VerifyOutcome, RegistryError> {
        let mut outcome = VerifyOutcome::default();
        for hash in self.list()? {
            let bytes = fs::read(self.object_path(hash))?;
            let actual = bytes_hash(&bytes);
            if actual != hash {
                outcome.issues.push(VerifyIssue::HashMismatch {
                    named: hash,
                    actual,
                });
                continue;
            }
            match Network::from_json(&bytes) {
                Ok(_) => outcome.intact += 1,
                Err(e) => outcome.issues.push(VerifyIssue::Unloadable {
                    hash,
                    error: e.to_string(),
                }),
            }
        }
        for entry in fs::read_dir(&self.refs)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if !valid_ref_name(&name) {
                continue;
            }
            let text = fs::read_to_string(entry.path())?;
            let target = text.trim().to_string();
            let resolves = parse_hex16(&target)
                .map(|h| self.contains(h))
                .unwrap_or(false);
            if !resolves {
                outcome
                    .issues
                    .push(VerifyIssue::DanglingRef { name, target });
            }
        }
        Ok(outcome)
    }

    /// Deletes every object that neither a ref nor a journal in the
    /// registry's directory keeps alive. Returns the deleted hashes.
    pub fn gc(&self) -> Result<Vec<u64>, RegistryError> {
        let doomed = self.gc_plan()?;
        for &hash in &doomed {
            fs::remove_file(self.object_path(hash))?;
        }
        Ok(doomed)
    }

    /// The hashes [`Self::gc`] would delete, sorted, without touching
    /// disk. Backs `nrpm registry gc --dry-run`.
    pub fn gc_plan(&self) -> Result<Vec<u64>, RegistryError> {
        let mut live: HashSet<u64> = self.refs()?.into_iter().map(|(_, h)| h).collect();
        for (_, pinned) in self.journal_pins()? {
            live.extend(pinned);
        }
        Ok(self
            .list()?
            .into_iter()
            .filter(|hash| !live.contains(hash))
            .collect())
    }

    /// Every journal present in the registry's directory (`swap`, then
    /// `rollout`) with the checkpoints it pins, sorted: [`Self::gc`] keeps
    /// them even when no ref points at them.
    pub fn journal_pins(&self) -> Result<Vec<(&'static str, Vec<u64>)>, RegistryError> {
        let mut pins = Vec::new();
        for (journal, file, live_hashes) in PINNING_JOURNALS {
            if !self.root.join(file).exists() {
                continue;
            }
            let live = live_hashes(&self.root).map_err(|e| {
                let message = format!("cannot read {journal} journal: {e}");
                RegistryError::Io(std::io::Error::new(e.kind(), message))
            })?;
            let mut hashes: Vec<u64> = live.into_iter().collect();
            hashes.sort_unstable();
            pins.push((journal, hashes));
        }
        Ok(pins)
    }

    /// Writes the checkpoint stored under `hash` to `path` — the object's
    /// bytes, checked against `hash`, so the file opens under the same
    /// name — via a temp file plus rename so a crashed export never leaves
    /// a half-written model behind. A shard can load the exported file
    /// directly.
    pub fn export(&self, hash: u64, path: impl AsRef<Path>) -> Result<(), RegistryError> {
        let bytes = self.read_object(hash)?;
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        fs::write(&tmp, &bytes)?;
        fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Copies the object for `hash` into `dest` (a no-op when `dest`
    /// already holds it, because the name is the content hash). Returns
    /// `true` when bytes actually moved. This is the checkpoint
    /// distribution primitive: the cluster supervisor fans the serving
    /// checkpoint out to per-shard registries with it. The bytes are
    /// checked against `hash`, not parsed: they are the bytes that were
    /// validated when the object was stored.
    pub fn sync_to(&self, dest: &CheckpointRegistry, hash: u64) -> Result<bool, RegistryError> {
        if dest.contains(hash) {
            return Ok(false);
        }
        let bytes = self.read_object(hash)?;
        dest.write_object(hash, &bytes)?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tmp_dir;
    use nrpm_nn::NetworkConfig;

    fn tiny_network(seed: u64) -> Network {
        Network::new(&NetworkConfig::new(&[3, 4, 2]), seed)
    }

    #[test]
    fn put_get_round_trips_and_is_idempotent() {
        let dir = tmp_dir("ckpt-roundtrip");
        let registry = CheckpointRegistry::open(&dir).unwrap();
        let network = tiny_network(7);
        let hash = registry.put(&network).unwrap();
        assert_eq!(registry.put(&network).unwrap(), hash);
        let loaded = registry.get(hash).unwrap();
        assert_eq!(loaded.to_json(), network.to_json());
        assert_eq!(registry.list().unwrap(), vec![hash]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn distinct_networks_get_distinct_hashes() {
        let dir = tmp_dir("ckpt-distinct");
        let registry = CheckpointRegistry::open(&dir).unwrap();
        let a = registry.put(&tiny_network(1)).unwrap();
        let b = registry.put(&tiny_network(2)).unwrap();
        assert_ne!(a, b);
        assert_eq!(registry.list().unwrap().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn refs_point_resolve_and_validate() {
        let dir = tmp_dir("ckpt-refs");
        let registry = CheckpointRegistry::open(&dir).unwrap();
        let hash = registry.put(&tiny_network(3)).unwrap();
        registry.set_ref("default", hash).unwrap();
        registry.set_ref("best", hash).unwrap();
        assert_eq!(registry.ref_hash("default").unwrap(), Some(hash));
        assert_eq!(registry.resolve("best").unwrap(), hash);
        assert_eq!(registry.resolve(&hex16(hash)).unwrap(), hash);
        assert_eq!(
            registry.refs().unwrap(),
            vec![("best".to_string(), hash), ("default".to_string(), hash)]
        );
        assert!(matches!(
            registry.set_ref("../escape", hash),
            Err(RegistryError::InvalidRefName(_))
        ));
        assert!(matches!(
            registry.set_ref("default", hash ^ 1),
            Err(RegistryError::UnknownCheckpoint(_))
        ));
        assert!(registry.resolve("nonexistent").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_flags_tampered_objects_and_dangling_refs() {
        let dir = tmp_dir("ckpt-verify");
        let registry = CheckpointRegistry::open(&dir).unwrap();
        let good = registry.put(&tiny_network(4)).unwrap();
        let victim = registry.put(&tiny_network(5)).unwrap();
        assert!(registry.verify().unwrap().is_clean());

        // Tamper with one object in place.
        let path = dir.join("objects").join(format!("{}.json", hex16(victim)));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        // And plant a dangling ref by hand.
        std::fs::write(dir.join("refs").join("stale"), hex16(good ^ 0xdead)).unwrap();

        let outcome = registry.verify().unwrap();
        assert_eq!(outcome.intact, 1);
        assert_eq!(outcome.issues.len(), 2);
        assert!(outcome
            .issues
            .iter()
            .any(|i| matches!(i, VerifyIssue::HashMismatch { named, .. } if *named == victim)));
        assert!(outcome
            .issues
            .iter()
            .any(|i| matches!(i, VerifyIssue::DanglingRef { name, .. } if name == "stale")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn get_refuses_an_object_whose_bytes_changed_under_its_name() {
        let dir = tmp_dir("ckpt-get-corrupt");
        let dest_dir = tmp_dir("ckpt-get-corrupt-dest");
        let registry = CheckpointRegistry::open(&dir).unwrap();
        let dest = CheckpointRegistry::open(&dest_dir).unwrap();
        let hash = registry.put(&tiny_network(4)).unwrap();

        // Flip one digit of a weight: the bytes still parse into a
        // network — a different one — so only the name check can tell.
        let path = dir.join("objects").join(format!("{}.json", hex16(hash)));
        let mut bytes = std::fs::read(&path).unwrap();
        let json = String::from_utf8(bytes.clone()).unwrap();
        let weights = json.find("\"data\":[").unwrap();
        let at = weights + json[weights..].find('.').unwrap() + 1;
        bytes[at] = if bytes[at] == b'9' {
            b'0'
        } else {
            bytes[at] + 1
        };
        std::fs::write(&path, &bytes).unwrap();
        assert!(Network::from_json(std::str::from_utf8(&bytes).unwrap()).is_ok());

        assert!(
            matches!(registry.get(hash), Err(RegistryError::Corrupt(_))),
            "a damaged object must not load under its old name"
        );
        assert!(matches!(
            registry.sync_to(&dest, hash),
            Err(RegistryError::Corrupt(_))
        ));
        assert!(!dest.contains(hash), "nothing damaged is distributed");
        assert!(matches!(
            registry.export(hash, dir.join("out.json")),
            Err(RegistryError::Corrupt(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dest_dir);
    }

    #[test]
    fn put_bytes_keeps_and_names_the_bytes_as_given() {
        let dir = tmp_dir("ckpt-put-bytes");
        let registry = CheckpointRegistry::open(&dir).unwrap();
        let network = tiny_network(17);
        let pretty = serde_json::to_string_pretty(&network).unwrap();
        let (parsed, hash) = registry.put_bytes(&pretty).unwrap();
        assert_eq!(hash, bytes_hash(pretty.as_bytes()));
        assert_eq!(parse_checkpoint(&pretty).unwrap(), (network.clone(), hash));
        assert_eq!(parsed, network);
        assert_ne!(
            hash,
            registry.put(&network).unwrap(),
            "other bytes, other name"
        );
        assert_eq!(registry.get(hash).unwrap(), network);
        assert!(matches!(
            registry.put_bytes("{\"layers\": oops"),
            Err(RegistryError::Corrupt(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_keeps_referenced_objects_only() {
        let dir = tmp_dir("ckpt-gc");
        let registry = CheckpointRegistry::open(&dir).unwrap();
        let keep = registry.put(&tiny_network(6)).unwrap();
        let drop_a = registry.put(&tiny_network(7)).unwrap();
        let drop_b = registry.put(&tiny_network(8)).unwrap();
        registry.set_ref("default", keep).unwrap();

        let mut removed = registry.gc().unwrap();
        removed.sort_unstable();
        let mut expected = vec![drop_a, drop_b];
        expected.sort_unstable();
        assert_eq!(removed, expected);
        assert_eq!(registry.list().unwrap(), vec![keep]);
        assert!(registry.get(keep).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_keeps_a_committed_swaps_previous_hash_and_a_pending_rollouts_target() {
        let dir = tmp_dir("ckpt-gc-journals");
        let registry = CheckpointRegistry::open(&dir).unwrap();
        let serving = registry.put(&tiny_network(9)).unwrap();
        let previous = registry.put(&tiny_network(10)).unwrap();
        let target = registry.put(&tiny_network(11)).unwrap();
        let doomed = registry.put(&tiny_network(16)).unwrap();
        let (mut swaps, _) = SwapJournal::open(&dir).unwrap();
        let seq = swaps.begin(serving, previous).unwrap();
        swaps.mark_validated(seq).unwrap();
        swaps.commit(seq).unwrap();
        let (mut rollouts, _) = RolloutJournal::open(&dir).unwrap();
        rollouts.begin(target, serving).unwrap(); // interrupted: pending

        let pins = registry.journal_pins().unwrap();
        assert_eq!(
            pins.iter().map(|p| p.0).collect::<Vec<_>>(),
            ["swap", "rollout"]
        );
        assert_eq!(registry.gc().unwrap(), vec![doomed], "no ref, yet pinned");
        assert!(registry.get(previous).is_ok(), "rollback target collected");
        assert!(registry.get(target).is_ok(), "rollout target collected");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_plan_lists_doomed_hashes_without_deleting() {
        let dir = tmp_dir("ckpt-gc-plan");
        let registry = CheckpointRegistry::open(&dir).unwrap();
        let reffed = registry.put(&tiny_network(12)).unwrap();
        let pinned = registry.put(&tiny_network(13)).unwrap();
        let doomed = registry.put(&tiny_network(14)).unwrap();
        registry.set_ref("default", reffed).unwrap();
        let (mut rollouts, _) = RolloutJournal::open(&dir).unwrap();
        let seq = rollouts.begin(pinned, reffed).unwrap();
        rollouts.finish(seq).unwrap();

        let plan = registry.gc_plan().unwrap();
        assert_eq!(plan, vec![doomed]);
        // Nothing was touched: all three objects still load.
        assert_eq!(registry.list().unwrap().len(), 3);
        assert!(registry.get(doomed).is_ok());
        // The real gc then removes exactly what the plan promised.
        assert_eq!(registry.gc().unwrap(), plan);
        assert!(registry.get(doomed).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_writes_loadable_checkpoint_bytes() {
        let dir = tmp_dir("ckpt-export");
        let registry = CheckpointRegistry::open(&dir).unwrap();
        let network = tiny_network(15);
        let hash = registry.put(&network).unwrap();
        let out = dir.join("exported.json");
        registry.export(hash, &out).unwrap();
        let loaded = Network::load(&out).unwrap();
        assert_eq!(loaded.to_json(), network.to_json());
        assert!(matches!(
            registry.export(hash ^ 1, dir.join("missing.json")),
            Err(RegistryError::UnknownCheckpoint(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_to_copies_once_and_verifies_hash() {
        let src_dir = tmp_dir("ckpt-sync-src");
        let dest_dir = tmp_dir("ckpt-sync-dest");
        let src = CheckpointRegistry::open(&src_dir).unwrap();
        let dest = CheckpointRegistry::open(&dest_dir).unwrap();
        let hash = src.put(&tiny_network(16)).unwrap();

        assert!(src.sync_to(&dest, hash).unwrap(), "first sync copies");
        assert!(!src.sync_to(&dest, hash).unwrap(), "second sync is a no-op");
        assert_eq!(
            dest.get(hash).unwrap().to_json(),
            src.get(hash).unwrap().to_json()
        );
        assert!(matches!(
            src.sync_to(&dest, hash ^ 1),
            Err(RegistryError::UnknownCheckpoint(_))
        ));
        let _ = std::fs::remove_dir_all(&src_dir);
        let _ = std::fs::remove_dir_all(&dest_dir);
    }

    #[test]
    fn hex_round_trips() {
        for hash in [0u64, 1, u64::MAX, 0xcbf2_9ce4_8422_2325] {
            assert_eq!(parse_hex16(&hex16(hash)), Some(hash));
        }
        assert_eq!(parse_hex16("xyz"), None);
        assert_eq!(parse_hex16("abc"), None, "short strings must not parse");
    }
}
