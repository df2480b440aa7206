//! The synthetic SPEC CPU 2006 stand-in suite.
//!
//! One workload per benchmark in the paper's Figure 4 / Tables 2–3, each
//! engineered to reproduce the *properties the experiments depend on*
//! rather than the original's semantics:
//!
//! * relative **code size** (gadget counts in Table 2 span three orders of
//!   magnitude: 470.lbm at the bottom, 483.xalancbmk at the top);
//! * **hot/cold structure** (470.lbm = one memory-bound kernel;
//!   400.perlbench = branchy opcode dispatch; 403.gcc = many functions
//!   with a flat profile; 456.hmmer = the highest x_max; 473.astar =
//!   counts spread out, median ≪ max);
//! * distinct **train** and **ref** inputs (the paper trains on SPEC's
//!   `train` set and measures on `ref`).
//!
//! Execution counts are scaled down ~10³ from the originals so the
//! emulator completes runs in milliseconds (documented in DESIGN.md).

use pgsd_core::driver::Input;

use crate::gen::{generate_program, support_layer, GenConfig};

/// A benchmark program with its training and measurement inputs.
#[derive(Debug, Clone)]
pub struct Workload {
    /// SPEC-style name, e.g. `"400.perlbench"`.
    pub name: &'static str,
    /// What the synthetic kernel models.
    pub description: &'static str,
    /// MiniC source text.
    pub source: String,
    /// Training inputs (the paper's `train` set).
    pub train: Vec<Input>,
    /// Measurement input (the paper's `ref` set).
    pub reference: Input,
}

impl Workload {
    fn new(
        name: &'static str,
        description: &'static str,
        source: impl Into<String>,
        train_args: &[&[i32]],
        ref_args: &[i32],
    ) -> Workload {
        Workload {
            name,
            description,
            source: source.into(),
            train: train_args.iter().map(|a| Input::args(a)).collect(),
            reference: Input::args(ref_args),
        }
    }

    /// Appends a cold support layer of `functions` generated helpers,
    /// seeded from the workload name — modeling the rarely executed bulk
    /// (startup, error handling, unused features) that dominates real
    /// binaries' gadget counts without touching the hot profile.
    fn with_support(mut self, functions: usize) -> Workload {
        let seed = self.name.bytes().map(u64::from).sum::<u64>();
        self.source.push_str(&support_layer(functions, seed));
        self
    }
}

/// Builds one workload: its source, train inputs and reference input.
type Constructor = fn() -> Workload;

/// Every workload's name and constructor, in the paper's Figure 4 order.
/// Each constructor builds only its own program, so a lookup by name
/// never generates the other eighteen.
const SUITE: [(&str, Constructor); 19] = [
    ("400.perlbench", perlbench),
    ("401.bzip2", bzip2),
    ("403.gcc", gcc),
    ("429.mcf", mcf),
    ("433.milc", milc),
    ("444.namd", namd),
    ("445.gobmk", gobmk),
    ("447.dealII", dealii),
    ("450.soplex", soplex),
    ("453.povray", povray),
    ("456.hmmer", hmmer),
    ("458.sjeng", sjeng),
    ("462.libquantum", libquantum),
    ("464.h264ref", h264ref),
    ("470.lbm", lbm),
    ("471.omnetpp", omnetpp),
    ("473.astar", astar),
    ("482.sphinx3", sphinx3),
    ("483.xalancbmk", xalancbmk),
];

/// The full 19-benchmark suite, in the paper's Figure 4 order.
pub fn spec_suite() -> Vec<Workload> {
    SUITE.iter().map(|(_, make)| make()).collect()
}

/// Looks up a workload by name, building only that one program.
pub fn by_name(name: &str) -> Option<Workload> {
    SUITE
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, make)| make())
}

fn perlbench() -> Workload {
    // Interpreter opcode dispatch: tight, branchy, ALU-only — the paper's
    // worst-case NOP overhead (~25% at pNOP=50%).
    let src = r#"
int prog[256];
int stk[64];

int main(int n) {
    int s = 12345;
    for (int i = 0; i < 256; i++) {
        s = s * 1103515245 + 12345;
        prog[i] = (s >> 16) & 7;
    }
    int pc = 0; int sp = 0; int acc = 0;
    for (int steps = 0; steps < n; steps++) {
        int op = prog[pc & 255];
        if (op == 0) { acc += 1; }
        else if (op == 1) { acc -= 2; }
        else if (op == 2) { acc ^= pc; }
        else if (op == 3) { stk[sp & 63] = acc; sp += 1; }
        else if (op == 4) { sp -= 1; acc += stk[sp & 63]; }
        else if (op == 5) { acc <<= 1; }
        else if (op == 6) { acc = acc * 3 + 1; }
        else { if (acc & 1) { pc += 3; } }
        pc += 1;
    }
    return acc & 0xffff;
}
"#;
    Workload::new(
        "400.perlbench",
        "branchy bytecode-interpreter dispatch loop (scripting-language core)",
        src,
        &[&[30000]],
        &[400000],
    )
    .with_support(720)
}

fn bzip2() -> Workload {
    // Block transform: run-length + move-to-front over a buffer.
    let src = r#"
int data[8192];
int mtf[64];

int main(int n) {
    int s = 7;
    for (int i = 0; i < 8192; i++) {
        s = s * 75 + 74;
        data[i] = (s >> 8) & 63;
    }
    int out = 0;
    for (int pass = 0; pass < n; pass++) {
        for (int i = 0; i < 64; i++) { mtf[i] = i; }
        int run = 0;
        for (int i = 0; i < 8192; i++) {
            int sym = data[i];
            int j = 0;
            while (mtf[j] != sym) { j += 1; }
            if (j == 0) { run += 1; }
            else {
                out += run; run = 0;
                while (j > 0) { mtf[j] = mtf[j - 1]; j -= 1; }
                mtf[0] = sym;
                out += j + sym;
            }
        }
        out += run;
        data[pass & 8191] = (out >> 3) & 63;
    }
    return out & 0x7fffff;
}
"#;
    Workload::new(
        "401.bzip2",
        "run-length + move-to-front block compression passes",
        src,
        &[&[1]],
        &[8],
    )
    .with_support(24)
}

fn gcc() -> Workload {
    // Many functions, flat profile, lowest x_max among the big codes
    // (paper §3.1: 403.gcc has the smallest maximum count, 14M).
    let src = generate_program(&GenConfig {
        functions: 1500,
        seed: 403,
        active_per_iter: 24,
    });
    Workload {
        name: "403.gcc",
        description: "large many-function program with a flat profile (compiler-like)",
        source: src,
        train: vec![Input::args(&[60])],
        reference: Input::args(&[420]),
    }
}

fn mcf() -> Workload {
    // Pointer-chasing over a successor array: memory-latency bound.
    let src = r#"
int nxt[8192];
int cost[8192];

int main(int n) {
    int s = 99;
    for (int i = 0; i < 8192; i++) {
        s = s * 1103515245 + 12345;
        nxt[i] = (s >> 12) & 8191;
        cost[i] = (s >> 4) & 255;
    }
    int total = 0;
    int at = 0;
    for (int hop = 0; hop < n; hop++) {
        total += cost[at];
        at = nxt[at];
        if (cost[at] > 200) { total -= 3; }
    }
    return total & 0xffffff;
}
"#;
    Workload::new(
        "429.mcf",
        "pointer-chasing network traversal (memory bound)",
        src,
        &[&[40000]],
        &[500000],
    )
    .with_support(8)
}

fn milc() -> Workload {
    // Dense small-matrix arithmetic in nested loops.
    let src = r#"
int a[16384];
int b[16384];
int c[16384];

int main(int n) {
    for (int i = 0; i < 16384; i++) { a[i] = i * 3 + 1; b[i] = 288 - (i & 511); }
    int check = 0;
    for (int rep = 0; rep < n; rep++) {
        int base = (rep * 144) % 16240;
        for (int i = 0; i < 12; i++) {
            for (int j = 0; j < 12; j++) {
                int s = 0;
                for (int k = 0; k < 12; k++) {
                    s += a[base + i * 12 + k] * b[base + k * 12 + j];
                }
                c[base + i * 12 + j] = s >> 4;
            }
        }
        check ^= c[base + (rep * 7) % 144];
        a[base] = check & 1023;
    }
    return check & 0xfffff;
}
"#;
    Workload::new(
        "433.milc",
        "12×12 integer matrix products (lattice-QCD-like)",
        src,
        &[&[40]],
        &[450],
    )
    .with_support(60)
}

fn namd() -> Workload {
    // Pairwise-interaction kernel: arithmetic heavy, some memory.
    let src = r#"
int px[256]; int py[256]; int pz[256];
int fx[256];

int main(int n) {
    for (int i = 0; i < 256; i++) {
        px[i] = i * 7 % 101; py[i] = i * 13 % 97; pz[i] = i * 29 % 89;
        fx[i] = 0;
    }
    int e = 0;
    for (int step = 0; step < n; step++) {
        for (int i = 0; i < 256; i++) {
            int f = 0;
            int xi = px[i]; int yi = py[i]; int zi = pz[i];
            for (int j = i + 1; j < 256; j += 17) {
                int dx = xi - px[j]; int dy = yi - py[j]; int dz = zi - pz[j];
                int r2 = dx * dx + dy * dy + dz * dz + 1;
                f += (dx * 1024) / r2;
            }
            fx[i] += f;
            e += f >> 5;
        }
        px[step & 255] = (px[step & 255] + 1) % 101;
    }
    return e & 0xffffff;
}
"#;
    Workload::new(
        "444.namd",
        "pairwise force kernel (molecular-dynamics-like)",
        src,
        &[&[25]],
        &[220],
    )
    .with_support(100)
}

fn gobmk() -> Workload {
    let src = generate_program(&GenConfig {
        functions: 900,
        seed: 445,
        active_per_iter: 14,
    });
    Workload {
        name: "445.gobmk",
        description: "many branchy evaluation functions (game-tree evaluation)",
        source: src,
        train: vec![Input::args(&[80])],
        reference: Input::args(&[700]),
    }
}

fn dealii() -> Workload {
    let src = generate_program(&GenConfig {
        functions: 430,
        seed: 447,
        active_per_iter: 8,
    });
    Workload {
        name: "447.dealII",
        description: "medium-sized numerical library shape (finite elements)",
        source: src,
        train: vec![Input::args(&[120])],
        reference: Input::args(&[1100]),
    }
}

fn soplex() -> Workload {
    // Simplex-style pivoting over a dense tableau.
    let src = r#"
int tab[4096];

int main(int n) {
    int s = 3;
    for (int i = 0; i < 4096; i++) {
        s = s * 1103515245 + 12345;
        tab[i] = ((s >> 10) & 2047) - 1024;
    }
    int obj = 0;
    for (int pivot = 0; pivot < n; pivot++) {
        int col = 0; int best = tab[0];
        for (int j = 0; j < 64; j++) {
            if (tab[j] < best) { best = tab[j]; col = j; }
        }
        int row = (pivot * 31) & 63;
        int p = tab[row * 64 + col];
        if (p == 0) { p = 1; }
        for (int i = 0; i < 64; i++) {
            int factor = tab[i * 64 + col];
            for (int j = 0; j < 8; j++) {
                tab[i * 64 + j] -= (factor * tab[row * 64 + j]) / p;
            }
        }
        obj += best;
    }
    return obj & 0xffffff;
}
"#;
    Workload::new(
        "450.soplex",
        "dense tableau pivoting (linear programming)",
        src,
        &[&[60]],
        &[550],
    )
    .with_support(420)
}

fn povray() -> Workload {
    let src = generate_program(&GenConfig {
        functions: 700,
        seed: 453,
        active_per_iter: 10,
    });
    Workload {
        name: "453.povray",
        description: "many mixed-arithmetic functions (ray-tracing shading stack)",
        source: src,
        train: vec![Input::args(&[90])],
        reference: Input::args(&[800]),
    }
}

fn hmmer() -> Workload {
    // Viterbi-style DP: the suite's highest x_max (paper: 456.hmmer has
    // the largest maximum count, 4B — ours is the scaled-down maximum).
    let src = r#"
int vit[8192];
int emis[65536];
int trans[64];

int main(int n) {
    for (int i = 0; i < 8192; i++) { vit[i] = 0; }
    for (int i = 0; i < 65536; i++) { emis[i] = (i * 37) & 31; }
    for (int i = 0; i < 64; i++) { trans[i] = (i * 37) % 23 - 11; }
    int score = 0;
    for (int row = 0; row < n; row++) {
        int prev = vit[(row & 1) * 4096];
        int erow = (row * 4096) & 65535;
        for (int j = 1; j < 4096; j++) {
            int stay = vit[(row & 1) * 4096 + j] + emis[(erow + (j >> 1)) & 65535];
            int move = prev + trans[(j * 7) & 63];
            int best = stay;
            if (move > best) { best = move; }
            prev = vit[(row & 1) * 4096 + j];
            vit[(1 - (row & 1)) * 4096 + j] = best;
        }
        score ^= vit[(1 - (row & 1)) * 4096 + 4095];
    }
    return score & 0xffffff;
}
"#;
    Workload::new(
        "456.hmmer",
        "Viterbi dynamic-programming inner loop (highest x_max)",
        src,
        &[&[100]],
        &[200],
    )
    .with_support(85)
}

fn sjeng() -> Workload {
    // Recursive alpha-beta-style search with a branchy evaluator.
    let src = r#"
int board[64];
int nodes;

int eval(int depth, int alpha, int side) {
    nodes += 1;
    int s = 0;
    for (int i = 0; i < 8; i++) { s += board[(i * 11 + depth) & 63] * (1 - 2 * (i & 1)); }
    if (side != 0) { s = -s; }
    if (s > alpha) { return s; }
    return alpha;
}

int search(int depth, int alpha, int beta, int side) {
    if (depth == 0) { return eval(depth, alpha, side); }
    int best = alpha;
    for (int mv = 0; mv < 3; mv++) {
        int from = (depth * 13 + mv * 7) & 63;
        int save = board[from];
        board[from] = board[from] + mv - 1;
        int score = -search(depth - 1, -beta, -best, 1 - side);
        board[from] = save;
        if (score > best) { best = score; }
        if (best >= beta) { return best; }
    }
    return best;
}

int main(int n) {
    for (int i = 0; i < 64; i++) { board[i] = (i * 29) % 19 - 9; }
    nodes = 0;
    int total = 0;
    for (int game = 0; game < n; game++) {
        total += search(5, -30000, 30000, game & 1);
        board[game & 63] += 1;
    }
    return (total + nodes) & 0xffffff;
}
"#;
    Workload::new(
        "458.sjeng",
        "recursive alpha-beta game-tree search",
        src,
        &[&[18]],
        &[150],
    )
    .with_support(65)
}

fn libquantum() -> Workload {
    // Bit-twiddling sweeps over a register array.
    let src = r#"
int reg[65536];

int main(int n) {
    for (int i = 0; i < 65536; i++) { reg[i] = i; }
    int phase = 0;
    for (int gate = 0; gate < n; gate++) {
        int target = gate & 10;
        int mask = 1 << target;
        for (int i = 0; i < 65536; i++) {
            if ((reg[i] & mask) != 0) { reg[i] ^= mask >> 1; phase += 1; }
            else { reg[i] ^= mask; }
        }
        phase ^= reg[gate & 65535];
    }
    return phase & 0xffffff;
}
"#;
    Workload::new(
        "462.libquantum",
        "quantum-gate bit manipulation sweeps",
        src,
        &[&[2]],
        &[11],
    )
    .with_support(14)
}

fn h264ref() -> Workload {
    // Sum-of-absolute-differences block matching.
    let src = r#"
int frame0[65536];
int frame1[65536];

int best_sad(int bx, int by) {
    int best = 0x7fffffff;
    for (int dy = 0; dy < 4; dy++) {
        for (int dx = 0; dx < 4; dx++) {
            int sad = 0;
            for (int y = 0; y < 8; y++) {
                for (int x = 0; x < 8; x++) {
                    int p0 = frame0[((by + y) & 255) * 256 + ((bx + x) & 255)];
                    int p1 = frame1[((by + y + dy) & 255) * 256 + ((bx + x + dx) & 255)];
                    int d = p0 - p1;
                    if (d < 0) { d = -d; }
                    sad += d;
                }
            }
            if (sad < best) { best = sad; }
        }
    }
    return best;
}

int main(int n) {
    int s = 17;
    for (int i = 0; i < 65536; i++) {
        s = s * 75 + 74;
        frame0[i] = (s >> 9) & 255;
        frame1[i] = (frame0[i] + ((s >> 3) & 7)) & 255;
    }
    int total = 0;
    for (int mb = 0; mb < n; mb++) {
        total += best_sad((mb * 24) & 255, (mb * 13) & 255);
    }
    return total & 0xffffff;
}
"#;
    Workload::new(
        "464.h264ref",
        "SAD block-matching motion estimation",
        src,
        &[&[40]],
        &[330],
    )
    .with_support(280)
}

fn lbm() -> Workload {
    // One memory-streaming kernel; smallest binary of the suite and the
    // paper's near-zero NOP overhead case.
    let src = r#"
int grid[32768];

int lbm_init(int seed) {
    for (int i = 0; i < 32768; i++) { grid[i] = ((i + seed) * 31) & 255; }
    return grid[seed & 32767];
}

int lbm_relax() {
    for (int i = 1; i < 32767; i++) {
        grid[i] = (grid[i - 1] + 2 * grid[i] + grid[i + 1]) >> 2;
    }
    return grid[1];
}

int lbm_boundary(int t) {
    grid[0] = (grid[1] + t) & 255;
    grid[32767] = (grid[32766] - t) & 255;
    if ((t & 7) == 0) { grid[(t * 11) & 32767] = 128; }
    return grid[0] + grid[32767];
}

int lbm_checksum(int stride) {
    int c = 0;
    for (int i = 0; i < 32768; i += 1024) { c ^= grid[(i + stride) & 32767]; }
    return c;
}

int lbm_report(int t, int c) {
    if (t < 0) { print(c); return 1; }
    return 0;
}

int main(int n) {
    lbm_init(7);
    int check = 0;
    for (int t = 0; t < n; t++) {
        lbm_relax();
        lbm_boundary(t);
        check += grid[(t * 97) & 32767];
    }
    check ^= lbm_checksum(3);
    lbm_report(n, check);
    return check & 0xffffff;
}
"#;
    Workload::new(
        "470.lbm",
        "memory-streaming stencil relaxation (fluid dynamics)",
        src,
        &[&[4]],
        &[30],
    )
    .with_support(6)
}

fn omnetpp() -> Workload {
    // Discrete-event simulation over a binary heap, wrapped in a
    // generated station-handler layer for code size.
    let mut src = generate_program(&GenConfig {
        functions: 1100,
        seed: 471,
        active_per_iter: 6,
    });
    src.push_str(
        r#"
int heap[1024];
int heap_n;

int heap_push(int key) {
    int i = heap_n;
    heap[i] = key;
    heap_n += 1;
    while (i > 0 && heap[(i - 1) / 2] > heap[i]) {
        int p = (i - 1) / 2;
        int t = heap[p]; heap[p] = heap[i]; heap[i] = t;
        i = p;
    }
    return i;
}

int heap_pop() {
    int top = heap[0];
    heap_n -= 1;
    heap[0] = heap[heap_n];
    int i = 0;
    while (1) {
        int l = 2 * i + 1; int r = 2 * i + 2; int m = i;
        if (l < heap_n && heap[l] < heap[m]) { m = l; }
        if (r < heap_n && heap[r] < heap[m]) { m = r; }
        if (m == i) { break; }
        int t = heap[m]; heap[m] = heap[i]; heap[i] = t;
        i = m;
    }
    return top;
}

int simulate(int events) {
    heap_n = 0;
    int clock = 0;
    int served = 0;
    heap_push(5);
    heap_push(3);
    heap_push(9);
    for (int e = 0; e < events; e++) {
        int now = heap_pop();
        clock = now;
        served += gen_0(now & 255, e & 127);
        heap_push(now + 1 + ((now * 7) & 15));
        if ((e & 3) == 0) { heap_push(now + 2); }
        else { if (heap_n > 1) { heap_pop(); } }
    }
    return clock + (served & 1023);
}
"#,
    );
    // Replace the generated main with an event-driven one.
    let src = src.replace("int main(int n) {", "int unused_main_gate(int n) {")
        + r#"
int main(int n) {
    int total = 0;
    for (int rep = 0; rep < 4; rep++) { total += simulate(n); }
    return total & 0x7fffff;
}
"#;
    Workload {
        name: "471.omnetpp",
        description: "discrete-event simulation on a binary heap plus a large handler layer",
        source: src,
        train: vec![Input::args(&[2500])],
        reference: Input::args(&[22000]),
    }
}

fn astar() -> Workload {
    // Grid search with an open list: counts spread widely between blocks
    // (paper §3.1: the 473.astar median is 117,635 vs a 2B maximum).
    let src = r#"
int cost[8192];
int dist[8192];
int open[8192];

int main(int n) {
    int s = 5;
    for (int i = 0; i < 8192; i++) {
        s = s * 1103515245 + 12345;
        cost[i] = ((s >> 20) & 7) + 1;
        dist[i] = 0x7fffffff;
    }
    int found = 0;
    for (int query = 0; query < n; query++) {
        int start = (query * 131) & 8191;
        int goal = (query * 197 + 4096) & 8191;
        for (int i = 0; i < 8192; i++) { dist[i] = 0x7fffffff; }
        dist[start] = 0;
        int head = 0; int tail = 0;
        open[tail] = start; tail += 1;
        int expanded = 0;
        while (head < tail && expanded < 900) {
            int at = open[head & 8191]; head += 1;
            expanded += 1;
            if (at == goal) { found += 1; break; }
            int d = dist[at];
            int x = at & 127; int y = at >> 7;
            for (int dir = 0; dir < 4; dir++) {
                int nx = x; int ny = y;
                if (dir == 0) { nx = x + 1; }
                else if (dir == 1) { nx = x - 1; }
                else if (dir == 2) { ny = y + 1; }
                else { ny = y - 1; }
                if (nx >= 0 && nx < 128 && ny >= 0 && ny < 64) {
                    int to = ny * 128 + nx;
                    int nd = d + cost[to];
                    if (nd < dist[to]) {
                        dist[to] = nd;
                        open[tail & 8191] = to;
                        tail += 1;
                    }
                }
            }
        }
    }
    return found;
}
"#;
    Workload::new(
        "473.astar",
        "grid pathfinding with an open list (spread-out profile)",
        src,
        &[&[16]],
        &[130],
    )
    .with_support(30)
}

fn sphinx3() -> Workload {
    // Tight dot-product scoring: the paper's other worst-case overhead.
    let src = r#"
int feat[512];
int means[4096];

int main(int n) {
    for (int i = 0; i < 512; i++) { feat[i] = (i * 19) & 127; }
    for (int i = 0; i < 4096; i++) { means[i] = (i * 7) & 127; }
    int best = 0;
    for (int frame = 0; frame < n; frame++) {
        int f = (frame * 64) & 511;
        int top = -1;
        for (int g = 0; g < 128; g++) {
            int score = 0;
            int m = g * 32;
            for (int k = 0; k < 32; k++) {
                int d = feat[(f + k) & 511] - means[m + k];
                score -= d * d;
            }
            if (score > top) { top = score; }
        }
        best ^= top;
        feat[frame & 511] = (feat[frame & 511] + 1) & 127;
    }
    return best & 0xffffff;
}
"#;
    Workload::new(
        "482.sphinx3",
        "Gaussian-scoring dot products (speech recognition)",
        src,
        &[&[24]],
        &[180],
    )
    .with_support(120)
}

fn xalancbmk() -> Workload {
    let src = generate_program(&GenConfig {
        functions: 2600,
        seed: 483,
        active_per_iter: 30,
    });
    Workload {
        name: "483.xalancbmk",
        description: "largest code body of the suite (XSLT-processor-like breadth)",
        source: src,
        train: vec![Input::args(&[40])],
        reference: Input::args(&[320]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgsd_cc::driver::frontend;
    use pgsd_core::driver::DEFAULT_GAS;
    use pgsd_core::Session;

    #[test]
    fn suite_has_nineteen_unique_workloads() {
        let suite = spec_suite();
        assert_eq!(suite.len(), 19);
        let mut names: Vec<&str> = suite.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 19);
        assert!(by_name("470.lbm").is_some());
        assert!(by_name("999.none").is_none());
    }

    #[test]
    fn by_name_builds_the_same_workload_as_the_suite() {
        for w in spec_suite() {
            let found = by_name(w.name).unwrap_or_else(|| panic!("{} not found", w.name));
            assert_eq!(found.name, w.name);
            assert_eq!(found.source, w.source, "{} source differs", w.name);
            assert_eq!(found.train, w.train, "{} train inputs differ", w.name);
            assert_eq!(found.reference, w.reference, "{} ref input differs", w.name);
        }
        assert!(by_name("").is_none());
        assert!(by_name("470.LBM").is_none());
    }

    #[test]
    fn every_workload_compiles() {
        for w in spec_suite() {
            frontend(w.name, &w.source).unwrap_or_else(|e| panic!("{} fails: {e}", w.name));
        }
    }

    #[test]
    fn every_workload_runs_on_train_input() {
        // Debug builds emulate slowly; the train inputs keep this test
        // fast everywhere. The `ref` inputs are exercised by the release
        // -mode `ref_runs_are_heavier_than_train` below and by the bench
        // harnesses.
        for w in spec_suite() {
            let session = Session::from_source(w.name, &w.source);
            let out = session.build_and_run(&w.train[0], DEFAULT_GAS).unwrap();
            assert!(
                out.status().is_some(),
                "{} did not exit cleanly on {:?}: {:?}",
                w.name,
                w.train[0].args,
                out.exit
            );
            assert!(out.stats.instructions > 1_000, "{} trivially short", w.name);
        }
    }

    /// Golden outputs of every reference run: exit status and retired
    /// instruction count. Guards the whole stack — frontend, optimizer,
    /// backend, emulator and the workload definitions themselves — against
    /// accidental behavioural drift (any intentional change to one of
    /// those layers must update this table consciously).
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "ref runs are sized for release-mode emulation"
    )]
    fn reference_runs_match_golden_snapshot() {
        const GOLDEN: &[(&str, i32, u64)] = &[
            ("400.perlbench", 14917, 12359308),
            ("401.bzip2", 2045999, 41033650),
            ("403.gcc", 1010517106, 2186616),
            ("429.mcf", 3013586, 11272059),
            ("433.milc", 250858, 23525639),
            ("444.namd", 16742628, 24480437),
            ("445.gobmk", 1087148991, 1643471),
            ("447.dealII", 434942994, 1502702),
            ("450.soplex", 13686578, 10691718),
            ("453.povray", 1300773660, 1335710),
            ("456.hmmer", 4455, 46585099),
            ("458.sjeng", 9215, 3806342),
            ("462.libquantum", 591117, 18809147),
            ("464.h264ref", 122244, 20695726),
            ("470.lbm", 3580, 25003178),
            ("471.omnetpp", 1058932, 19427940),
            ("473.astar", 7, 34685985),
            ("482.sphinx3", 0, 18276872),
            ("483.xalancbmk", 939861836, 1979337),
        ];
        for (name, status, instructions) in GOLDEN {
            let w = by_name(name).expect("workload exists");
            let session = Session::from_source(w.name, &w.source);
            let out = session.build_and_run(&w.reference, DEFAULT_GAS).unwrap();
            assert_eq!(out.status(), Some(*status), "{name} exit status drifted");
            assert_eq!(
                out.stats.instructions, *instructions,
                "{name} instruction count drifted"
            );
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "ref runs are sized for release-mode emulation"
    )]
    fn ref_runs_are_heavier_than_train() {
        for w in spec_suite() {
            let session = Session::from_source(w.name, &w.source);
            let reference = session.build_and_run(&w.reference, DEFAULT_GAS).unwrap();
            let (re, ref_stats) = (reference.exit, reference.stats);
            assert!(re.status().is_some(), "{}: {re:?}", w.name);
            let train_stats = session
                .build_and_run(&w.train[0], DEFAULT_GAS)
                .unwrap()
                .stats;
            // The paper's train inputs are smaller than ref but the ratio
            // varies per benchmark (456.hmmer trains long so its x_max
            // stays the suite's largest, as in §3.1).
            assert!(
                ref_stats.instructions as f64 > 1.5 * train_stats.instructions as f64,
                "{}: ref {} vs train {}",
                w.name,
                ref_stats.instructions,
                train_stats.instructions
            );
        }
    }

    #[test]
    fn size_ordering_matches_the_paper() {
        let suite = spec_suite();
        let size = |name: &str| {
            let w = suite.iter().find(|w| w.name == name).unwrap();
            pgsd_cc::driver::compile(w.name, &w.source)
                .unwrap()
                .text
                .len()
        };
        let lbm = size("470.lbm");
        let gcc = size("403.gcc");
        let xalan = size("483.xalancbmk");
        assert!(
            lbm < gcc && gcc < xalan,
            "lbm={lbm} gcc={gcc} xalan={xalan}"
        );
    }
}
