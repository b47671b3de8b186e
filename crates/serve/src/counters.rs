//! Counter tables: an enum declares each counter once, with its doc
//! comment and its wire key, and [`Counters`] holds one relaxed atomic per
//! entry. The server's [`crate::metrics::Counter`] table and the cluster
//! router's counters are both declared with [`counter_table!`].

use serde::Value;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// An enum of counters declared with [`counter_table!`].
pub trait CounterTable: Copy {
    /// Wire keys, one per variant, in declaration order.
    const KEYS: &'static [&'static str];
    /// The variant's position in [`Self::KEYS`].
    fn index(self) -> usize;
}

/// Declares a counter table: an enum with one variant per counter, each
/// carrying its doc comment and (after `=>`) its wire key. `stats` prints
/// the counters in declaration order.
#[macro_export]
macro_rules! counter_table {
    ($(#[$attr:meta])* $vis:vis enum $table:ident {
        $($(#[$doc:meta])* $counter:ident => $key:literal,)*
    }) => {
        $(#[$attr])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        $vis enum $table { $($(#[$doc])* $counter,)* }

        impl $crate::counters::CounterTable for $table {
            const KEYS: &'static [&'static str] = &[$($key),*];
            fn index(self) -> usize {
                self as usize
            }
        }
    };
}

/// One relaxed `AtomicU64` per counter of table `C`. Individual counters
/// are read relaxed; cross-counter relations (e.g. `responses_ok + errors
/// == requests`) hold once the process is idle.
#[derive(Debug)]
pub struct Counters<C> {
    values: Box<[AtomicU64]>,
    table: PhantomData<C>,
}

impl<C: CounterTable> Default for Counters<C> {
    fn default() -> Self {
        Counters {
            values: C::KEYS.iter().map(|_| AtomicU64::new(0)).collect(),
            table: PhantomData,
        }
    }
}

impl<C: CounterTable> Counters<C> {
    /// Adds one to `counter`.
    pub fn bump(&self, counter: C) {
        self.add(counter, 1);
    }

    /// Adds `n` to `counter`.
    pub fn add(&self, counter: C, n: u64) {
        self.values[counter.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Raises `counter` to `value` if it is lower (a high-water mark).
    pub fn raise(&self, counter: C, value: u64) {
        self.values[counter.index()].fetch_max(value, Ordering::Relaxed);
    }

    /// Every counter as a `(wire key, value)` entry, in declaration order.
    pub fn entries(&self) -> impl Iterator<Item = (String, Value)> + '_ {
        C::KEYS
            .iter()
            .zip(self.values.iter())
            .map(|(key, value)| (key.to_string(), Value::U64(value.load(Ordering::Relaxed))))
    }
}
