//! Property tests for the checkpoint surface of the vendored RNG.
//!
//! The checkpoint/restart contract (PR 7) leans on `StdRng::state()` /
//! `StdRng::from_state()` being a bitwise resume — not a re-seed. The
//! property below drives that from arbitrary seeds and warm-up depths
//! instead of the handful of fixed seeds in the unit tests.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `state()` → `from_state()` resumes the stream bitwise: from any
    /// seed and any warm-up depth, the restored generator reproduces the
    /// identical next-N `u64` draws.
    #[test]
    fn state_roundtrip_preserves_next_draws(seed in any::<u64>(), warmup in 0usize..257) {
        let mut original = StdRng::seed_from_u64(seed);
        for _ in 0..warmup {
            original.next_u64();
        }
        let snap = original.state();
        let mut restored = StdRng::from_state(snap);
        prop_assert_eq!(restored.state(), snap);
        for _ in 0..64 {
            prop_assert_eq!(original.next_u64(), restored.next_u64());
        }
    }

    /// Restoring must not perturb the donor: interleaving draws between
    /// the original and the restored copy keeps them in lockstep.
    #[test]
    fn restored_stream_stays_in_lockstep(seed in any::<u64>()) {
        let mut original = StdRng::seed_from_u64(seed);
        let mut restored = StdRng::from_state(original.state());
        for _ in 0..32 {
            prop_assert_eq!(original.next_u64(), restored.next_u64());
            prop_assert_eq!(original.random_range(0usize..1024), restored.random_range(0usize..1024));
        }
    }
}
