// fixture-path: crates/drivers/src/serialize.rs
//! The checkpoint decoder builds the walker in a struct literal with the
//! restored stream, so it is not a sanctioned re-key site: a decoder that
//! builds a fresh walker and then replaces its stream fires.

/// Decoder in the assign-after-construct shape.
pub(crate) fn decode_walker(pos: Vec<Pos>, state: [u64; 4]) -> Walker {
    let mut w = Walker::new(pos, 0);
    w.rng = StdRng::from_state(state); //~ rng-discipline
    w
}
