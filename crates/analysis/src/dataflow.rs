//! The worklist fixpoint driver shared by the LIR EFLAGS liveness
//! ([`crate::flags`]) and the binary-level abstract interpreter
//! ([`crate::absint`]).

/// Runs a worklist to a fixpoint over blocks `0..n`.
///
/// `step(b)` recomputes block `b`'s fact and returns the indices whose
/// input changed as a result (its dependents); the driver re-enqueues them
/// with duplicate suppression until no block reports a change. Termination
/// is the caller's obligation: `step` must be monotone over a lattice of
/// finite height (or widen).
pub fn fixpoint(
    n: usize,
    seed: impl IntoIterator<Item = usize>,
    mut step: impl FnMut(usize) -> Vec<usize>,
) {
    let mut queued = vec![false; n];
    let mut worklist: Vec<usize> = Vec::with_capacity(n);
    for b in seed {
        if b < n && !queued[b] {
            queued[b] = true;
            worklist.push(b);
        }
    }
    while let Some(b) = worklist.pop() {
        queued[b] = false;
        for d in step(b) {
            if d < n && !queued[d] {
                queued[d] = true;
                worklist.push(d);
            }
        }
    }
}
