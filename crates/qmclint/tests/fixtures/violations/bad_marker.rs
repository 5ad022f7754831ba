// fixture-class: plain
// Suppression markers that fail the marker grammar: each is itself a
// diagnostic, and none of them actually suppresses anything.

//~v bad-marker (missing justification)
// qmclint: allow(precision-cast)
pub fn unjustified() {}

//~v bad-marker (unknown rule name)
// qmclint: allow(not-a-rule) — sincere but misspelled
pub fn misspelled() {}

//~v bad-marker (unknown directive)
// qmclint: suppress(hot-path) — wrong verb
pub fn wrong_verb() {}

//~v bad-marker (cold without justification)
// qmclint: cold
pub fn lazy_cold() {}

//~v bad-marker (deleted rule id: destructuring carries checkpoint coverage now)
// qmclint: allow(state-coverage) — the field is carried by hand
pub struct Checkpointed;
