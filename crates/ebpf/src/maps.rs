//! eBPF maps: the kernel/userspace shared state.
//!
//! §5.4: the scheduling bitmap travels through a `BPF_MAP_TYPE_ARRAY` whose
//! single element is updated atomically ("eBPF maps inherently support
//! `atomic<int>`"), and the worker→socket mapping lives in a
//! `BPF_MAP_TYPE_REUSEPORT_SOCKARRAY` populated at program init. Maps are
//! registered in a [`MapRegistry`] and referenced from bytecode by fd.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// `BPF_MAP_TYPE_ARRAY` with `u64` values: index-keyed, atomic per element.
#[derive(Debug)]
pub struct ArrayMap {
    elems: Box<[AtomicU64]>,
}

impl ArrayMap {
    /// Create an array map with `size` zeroed elements.
    pub fn new(size: usize) -> Self {
        assert!(size >= 1, "array map needs at least one element");
        let elems: Vec<AtomicU64> = (0..size).map(|_| AtomicU64::new(0)).collect();
        Self {
            elems: elems.into_boxed_slice(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// True when the map has no elements (never: construction requires 1+).
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// `bpf_map_lookup_elem`: value at `key`, `None` when out of range.
    #[inline]
    pub fn lookup(&self, key: usize) -> Option<u64> {
        self.elems.get(key).map(|e| e.load(Ordering::Acquire))
    }

    /// `bpf_map_update_elem` from userspace: store `value` at `key`.
    /// Returns false when the key is out of range.
    #[inline]
    pub fn update(&self, key: usize, value: u64) -> bool {
        match self.elems.get(key) {
            Some(e) => {
                e.store(value, Ordering::Release);
                true
            }
            None => false,
        }
    }
}

/// Sentinel for an empty sockarray slot.
const NO_SOCK: usize = usize::MAX;

/// `BPF_MAP_TYPE_REUSEPORT_SOCKARRAY`: worker index → socket handle.
#[derive(Debug)]
pub struct SockArrayMap {
    slots: Box<[AtomicUsize]>,
}

impl SockArrayMap {
    /// Create a sockarray with `size` empty slots.
    pub fn new(size: usize) -> Self {
        assert!(size >= 1, "sockarray needs at least one slot");
        let slots: Vec<AtomicUsize> = (0..size).map(|_| AtomicUsize::new(NO_SOCK)).collect();
        Self {
            slots: slots.into_boxed_slice(),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the map has no slots (never by construction).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Register a socket handle at `key` (program init / worker restart).
    pub fn register(&self, key: usize, sock: usize) -> bool {
        assert!(sock != NO_SOCK, "socket handle collides with sentinel");
        match self.slots.get(key) {
            Some(s) => {
                s.store(sock, Ordering::Release);
                true
            }
            None => false,
        }
    }

    /// Clear slot `key` (worker crash / drain).
    pub fn unregister(&self, key: usize) {
        if let Some(s) = self.slots.get(key) {
            s.store(NO_SOCK, Ordering::Release);
        }
    }

    /// Socket handle at `key`, `None` when empty or out of range.
    #[inline]
    pub fn lookup(&self, key: usize) -> Option<usize> {
        match self.slots.get(key)?.load(Ordering::Acquire) {
            NO_SOCK => None,
            s => Some(s),
        }
    }
}

/// A registered map: either kind, behind an fd.
#[derive(Clone, Debug)]
pub enum MapRef {
    /// An array map.
    Array(Arc<ArrayMap>),
    /// A reuseport sockarray.
    SockArray(Arc<SockArrayMap>),
}

/// Map type tag, as the static analysis sees it (`BPF_MAP_TYPE_*`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapKind {
    /// `BPF_MAP_TYPE_ARRAY`.
    Array,
    /// `BPF_MAP_TYPE_REUSEPORT_SOCKARRAY`.
    SockArray,
}

impl std::fmt::Display for MapKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapKind::Array => write!(f, "array"),
            MapKind::SockArray => write!(f, "sockarray"),
        }
    }
}

/// The immutable post-freeze snapshot: a dense fd-indexed table plus the
/// layout the abstract interpreter binds against. Published once through a
/// `OnceLock`; every resolution after that is a slice index with no lock.
#[derive(Debug)]
struct Frozen {
    table: Box<[MapRef]>,
    layout: Box<[(u32, MapKind, usize)]>,
}

/// Map registry: fd → map, as the kernel's fd table would resolve map
/// references inside a loaded program.
///
/// Mirrors the kernel's lifecycle: maps are created (registered) first,
/// then `BPF_PROG_LOAD` verifies programs against the fd table, after
/// which the table is effectively immutable — map *contents* stay mutable
/// and atomic, but no fds appear or disappear. [`freeze`](Self::freeze)
/// marks that point: the registry publishes a dense `Box<[MapRef]>`
/// snapshot and all fd resolution becomes lock-free. The `RwLock` then
/// guards only registration-time writes; registering after the freeze
/// panics (it would invalidate loaded programs' resolved fds).
#[derive(Debug, Default)]
pub struct MapRegistry {
    maps: RwLock<Vec<MapRef>>,
    frozen: OnceLock<Frozen>,
}

/// The lock is held only across a `Vec::push` or a read of the table.
const POISONED: &str = "a thread panicked while registering a map";

impl MapRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a map, returning its fd. Panics once the registry is
    /// frozen — all maps must exist before programs load against them.
    pub fn register(&self, map: MapRef) -> u32 {
        assert!(
            self.frozen.get().is_none(),
            "map registry is frozen: register all maps before program load"
        );
        let mut maps = self.maps.write().expect(POISONED);
        maps.push(map);
        (maps.len() - 1) as u32
    }

    /// Freeze the fd table into its immutable snapshot. Idempotent; called
    /// implicitly by [`layout`](Self::layout) (program-load time).
    pub fn freeze(&self) {
        self.frozen.get_or_init(|| {
            let maps = self.maps.read().expect(POISONED);
            let layout = maps
                .iter()
                .enumerate()
                .map(|(fd, m)| match m {
                    MapRef::Array(a) => (fd as u32, MapKind::Array, a.len()),
                    MapRef::SockArray(s) => (fd as u32, MapKind::SockArray, s.len()),
                })
                .collect();
            Frozen {
                table: maps.as_slice().into(),
                layout,
            }
        });
    }

    /// Resolve an fd: lock-free against the frozen table once frozen,
    /// via the registration lock before that.
    pub fn get(&self, fd: u32) -> Option<MapRef> {
        match self.frozen.get() {
            Some(f) => f.table.get(fd as usize).cloned(),
            None => self.maps.read().expect(POISONED).get(fd as usize).cloned(),
        }
    }

    /// Resolve an fd expecting an array map.
    pub fn array(&self, fd: u32) -> Option<Arc<ArrayMap>> {
        match self.get(fd)? {
            MapRef::Array(m) => Some(m),
            MapRef::SockArray(_) => None,
        }
    }

    /// Resolve an fd expecting a sockarray.
    pub fn sockarray(&self, fd: u32) -> Option<Arc<SockArrayMap>> {
        match self.get(fd)? {
            MapRef::SockArray(m) => Some(m),
            MapRef::Array(_) => None,
        }
    }

    /// `(fd, kind, size)` for every registered map — the layout the
    /// abstract interpreter binds program analysis against. Computed once
    /// at freeze time (program load implies the fd table is final, as with
    /// `BPF_PROG_LOAD`) and returned as a cached slice thereafter; sizes
    /// are fixed at map creation, so the snapshot stays valid for the
    /// registry's lifetime.
    pub fn layout(&self) -> &[(u32, MapKind, usize)] {
        self.freeze();
        &self.frozen.get().expect("frozen by freeze()").layout
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_map_lookup_update() {
        let m = ArrayMap::new(2);
        assert_eq!(m.lookup(0), Some(0));
        assert!(m.update(1, 42));
        assert_eq!(m.lookup(1), Some(42));
        assert_eq!(m.lookup(2), None);
        assert!(!m.update(2, 1));
    }

    #[test]
    fn sockarray_register_cycle() {
        let m = SockArrayMap::new(3);
        assert_eq!(m.lookup(0), None);
        assert!(m.register(0, 99));
        assert_eq!(m.lookup(0), Some(99));
        m.unregister(0);
        assert_eq!(m.lookup(0), None);
        assert!(!m.register(7, 1));
        m.unregister(7); // out of range unregister is a no-op
    }

    #[test]
    fn registry_type_checked_resolution() {
        let reg = MapRegistry::new();
        let a_fd = reg.register(MapRef::Array(Arc::new(ArrayMap::new(1))));
        let s_fd = reg.register(MapRef::SockArray(Arc::new(SockArrayMap::new(1))));
        assert!(reg.array(a_fd).is_some());
        assert!(reg.sockarray(a_fd).is_none());
        assert!(reg.sockarray(s_fd).is_some());
        assert!(reg.array(s_fd).is_none());
        assert!(reg.get(99).is_none());
    }

    #[test]
    fn array_map_concurrent_update_and_lookup() {
        // The M_Sel pattern: many userspace writers, one kernel reader.
        let m = Arc::new(ArrayMap::new(1));
        let writers: Vec<_> = (1..=4u64)
            .map(|v| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        m.update(0, v * 0x1111_1111_1111_1111);
                    }
                })
            })
            .collect();
        let m2 = Arc::clone(&m);
        let reader = std::thread::spawn(move || {
            for _ in 0..10_000 {
                let v = m2.lookup(0).unwrap();
                assert!(
                    v == 0 || v.is_multiple_of(0x1111_1111_1111_1111),
                    "torn read {v:#x}"
                );
            }
        });
        for w in writers {
            w.join().unwrap();
        }
        reader.join().unwrap();
    }

    #[test]
    #[should_panic(expected = "at least one element")]
    fn empty_array_map_rejected() {
        ArrayMap::new(0);
    }

    #[test]
    fn freeze_publishes_lock_free_snapshot() {
        let reg = MapRegistry::new();
        let a_fd = reg.register(MapRef::Array(Arc::new(ArrayMap::new(2))));
        let s_fd = reg.register(MapRef::SockArray(Arc::new(SockArrayMap::new(3))));
        // layout() freezes implicitly and the cached slice is stable.
        let layout = reg.layout();
        assert_eq!(
            layout,
            &[(0, MapKind::Array, 2), (1, MapKind::SockArray, 3)]
        );
        assert_eq!(layout.as_ptr(), reg.layout().as_ptr());
        // Resolution still works, now against the frozen table.
        assert!(reg.array(a_fd).is_some());
        assert!(reg.sockarray(s_fd).is_some());
        assert!(reg.get(9).is_none());
        // freeze() is idempotent.
        reg.freeze();
        assert_eq!(reg.layout().len(), 2);
    }

    #[test]
    #[should_panic(expected = "frozen")]
    fn register_after_freeze_panics() {
        let reg = MapRegistry::new();
        reg.register(MapRef::Array(Arc::new(ArrayMap::new(1))));
        reg.freeze();
        reg.register(MapRef::Array(Arc::new(ArrayMap::new(1))));
    }
}
