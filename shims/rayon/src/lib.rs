//! Empty offline stand-in for `rayon`.
//!
//! Nothing in the workspace calls it: the crew fan-out starts its threads
//! with `std::thread::scope`. The crate stays only because manifests still
//! name it and `benchmark/Cargo.lock` pins those manifests; it goes with
//! them (ROADMAP item 1).
