//! Static profile estimation (no training run).
//!
//! A loop-nesting heuristic in the tradition of Ball–Larus static branch
//! prediction: each block's count is `10^depth`, where `depth` counts the
//! natural loops containing the block. Used as the ablation baseline for
//! "how much does *real* profiling buy over a static guess" and as a
//! fallback when no training input exists.

use pgsd_cc::ir::{Function, Module};

use crate::profile::{FuncProfile, Profile};

/// Maximum loop depth credited by the estimator (counts grow as
/// `10^depth`, so deeper nests saturate at 10^6).
pub const MAX_DEPTH: u32 = 6;

/// Produces an estimated [`Profile`] for `module` without executing it.
pub fn estimate(module: &Module) -> Profile {
    let mut profile = Profile::default();
    for func in &module.funcs {
        let depths = loop_depths(func);
        let counts: Vec<u64> = depths
            .iter()
            .map(|&d| 10u64.pow(d.min(MAX_DEPTH)))
            .collect();
        profile.funcs.insert(
            func.name.clone(),
            FuncProfile {
                block_counts: counts,
                invocations: 1,
            },
        );
    }
    profile
}

/// Approximates the loop-nesting depth of every block using natural
/// loops: for each back edge `latch → header` (DFS ancestor test), all
/// blocks that reach `latch` without passing through `header` belong to
/// the loop.
pub fn loop_depths(func: &Function) -> Vec<u32> {
    let n = func.blocks.len();
    let mut depth = vec![0u32; n];
    let preds = func.predecessors();

    for (latch, header) in back_edges(func) {
        // Collect the natural loop body by walking predecessors from the
        // latch, stopping at the header.
        let mut body = vec![false; n];
        body[header] = true;
        let mut stack = vec![latch];
        while let Some(b) = stack.pop() {
            if body[b] {
                continue;
            }
            body[b] = true;
            for p in &preds[b] {
                stack.push(p.0 as usize);
            }
        }
        for (b, &inside) in body.iter().enumerate() {
            if inside {
                depth[b] += 1;
            }
        }
    }
    depth
}

fn back_edges(func: &Function) -> Vec<(usize, usize)> {
    let n = func.blocks.len();
    let succs: Vec<Vec<usize>> = func
        .blocks
        .iter()
        .map(|b| b.term.successors().iter().map(|s| s.0 as usize).collect())
        .collect();
    let mut state = vec![0u8; n];
    let mut out = Vec::new();
    let mut stack: Vec<(usize, usize)> = Vec::new();
    if n == 0 {
        return out;
    }
    state[0] = 1;
    stack.push((0, 0));
    while let Some(&(node, next)) = stack.last() {
        if next < succs[node].len() {
            stack.last_mut().expect("non-empty").1 += 1;
            let to = succs[node][next];
            match state[to] {
                0 => {
                    state[to] = 1;
                    stack.push((to, 0));
                }
                1 => out.push((node, to)),
                _ => {}
            }
        } else {
            state[node] = 2;
            stack.pop();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgsd_cc::driver::frontend;

    fn est(src: &str) -> Profile {
        estimate(&frontend("t", src).unwrap())
    }

    #[test]
    fn flat_function_is_uniform() {
        let p = est("int main(int a) { if (a) { return 1; } return 2; }");
        let f = p.func("main").unwrap();
        assert!(f.block_counts.iter().all(|&c| c == 1));
    }

    #[test]
    fn loop_bodies_are_hotter() {
        let p = est("int main(int n) { int s = 0; while (n > 0) { s += n; n -= 1; } return s; }");
        let f = p.func("main").unwrap();
        let max = *f.block_counts.iter().max().unwrap();
        let min = *f.block_counts.iter().min().unwrap();
        assert_eq!(max, 10);
        assert_eq!(min, 1);
    }

    #[test]
    fn nested_loops_multiply() {
        let p = est("int main(int n) {
                int s = 0;
                for (int i = 0; i < n; i++) {
                    for (int j = 0; j < n; j++) { s += j; }
                }
                return s;
             }");
        assert_eq!(p.max_count(), 100);
    }

    #[test]
    fn depth_saturates() {
        // 8 nested loops saturate at 10^MAX_DEPTH.
        let mut src = String::from("int main(int n) { int s = 0;");
        for i in 0..8 {
            src.push_str(&format!("for (int i{i} = 0; i{i} < n; i{i}++) {{"));
        }
        src.push_str("s += 1;");
        for _ in 0..8 {
            src.push('}');
        }
        src.push_str("return s; }");
        let p = est(&src);
        assert_eq!(p.max_count(), 10u64.pow(MAX_DEPTH));
    }
}
