// fixture-class: physics
// Wall clocks, OS entropy, hash-map iteration and interior mutability in
// a physics crate.

use std::collections::HashMap; //~ determinism
use std::collections::HashSet; //~ determinism

/// A cell would let a `&` serializer or digest change the walker.
pub struct CachedWalker {
    pub weight: std::cell::RefCell<f64>, //~ determinism
    pub age: std::cell::Cell<u32>, //~ determinism
    pub raw: std::cell::UnsafeCell<u64>, //~ determinism
}

pub fn stamp() -> std::time::SystemTime { //~ determinism
    unreachable!()
}

pub fn sample() -> f64 {
    let mut rng = thread_rng(); //~ determinism
    rng.random() //~ rng-discipline
}
