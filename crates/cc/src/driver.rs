//! Compilation driver: glues the pipeline stages together.
//!
//! The stages mirror the paper's Figure 3 and are individually public so
//! that the profiling crate can instrument the optimized IR and the
//! diversity crate can run its NOP-insertion pass on the lowered LIR —
//! both exactly where the paper puts them.

use crate::emit::runtime::{runtime_functions, PRINT_INDEX};
use crate::emit::{emit, Image};
use crate::error::Result;
use crate::frontend::{lex, parse};
use crate::ir::builder::build;
use crate::ir::passes::optimize;
use crate::ir::verify::verify;
use crate::ir::Module;
use crate::lir::frame::lower_frame;
use crate::lir::isel::{select, LowerCtx};
use crate::lir::regalloc::{allocate_with_order, ALLOCATABLE};
use crate::lir::MFunction;
use pgsd_telemetry::Telemetry;
use pgsd_x86::Reg;

/// Runs the frontend: lex, parse, build IR, verify, optimize.
///
/// The returned module's IR is final: instrumentation and code generation
/// both start from it, so block ids line up between a profiling build and
/// a measurement build of the same source.
///
/// # Errors
///
/// Propagates lexical, syntactic and semantic errors.
pub fn frontend(name: &str, source: &str) -> Result<Module> {
    frontend_with(name, source, &Telemetry::disabled())
}

/// Like [`frontend`], recording a span per stage (`lex`, `parse`,
/// `ir_build`, `verify`, `optimize` with per-pass children) into `tel`.
///
/// # Errors
///
/// Propagates lexical, syntactic and semantic errors.
pub fn frontend_with(name: &str, source: &str, tel: &Telemetry) -> Result<Module> {
    let _span = tel.span("frontend");
    let tokens = {
        let _s = tel.span("lex");
        lex(source)?
    };
    let program = {
        let _s = tel.span("parse");
        parse(tokens)?
    };
    let mut module = {
        let _s = tel.span("ir_build");
        build(name, &program)?
    };
    {
        let _s = tel.span("verify");
        verify(&module)?;
    }
    {
        let _s = tel.span("optimize");
        optimize(&mut module, tel);
    }
    {
        let _s = tel.span("verify");
        verify(&module)?;
    }
    tel.add("cc.source_bytes", source.len() as u64);
    tel.add("cc.functions", module.funcs.len() as u64);
    Ok(module)
}

/// The [`LowerCtx`] matching [`lower_module_seeded`]'s function layout.
pub fn lower_ctx() -> LowerCtx {
    LowerCtx {
        print_index: PRINT_INDEX as u32,
        user_func_base: runtime_functions().len() as u32,
    }
}

/// The six permutations of the allocatable register set.
fn permutation(k: u64) -> [Reg; 3] {
    let [a, b, c] = ALLOCATABLE;
    match k % 6 {
        0 => [a, b, c],
        1 => [a, c, b],
        2 => [b, a, c],
        3 => [b, c, a],
        4 => [c, a, b],
        _ => [c, b, a],
    }
}

/// Lowers a module to the final function list: runtime stubs and filler
/// first (undiversified, fixed bytes), then the user functions — selected,
/// register-allocated and frame-lowered, ready for the diversifying
/// passes and emission.
///
/// `reg_seed` turns on *register randomization* (paper §6): when it is
/// set, each user function receives a per-function permutation of the
/// allocatable register set, derived deterministically from the seed —
/// same-seed builds reproduce, different seeds shuffle which registers
/// carry which values (and therefore the ModRM bytes of the emitted
/// code). `None` is the deterministic baseline allocation. The runtime
/// library is unaffected.
///
/// # Errors
///
/// Propagates lowering and allocation failures.
pub fn lower_module_seeded(module: &Module, reg_seed: Option<u64>) -> Result<Vec<MFunction>> {
    lower_module_seeded_with(module, reg_seed, &Telemetry::disabled())
}

/// Like [`lower_module_seeded`], recording a `lower` span with per-user-
/// function children (`isel`, `regalloc`, `frame`) into `tel`.
///
/// # Errors
///
/// Propagates lowering and allocation failures.
pub fn lower_module_seeded_with(
    module: &Module,
    reg_seed: Option<u64>,
    tel: &Telemetry,
) -> Result<Vec<MFunction>> {
    let _span = tel.span("lower");
    let ctx = lower_ctx();
    let mut funcs = runtime_functions();
    for (i, f) in module.funcs.iter().enumerate() {
        let _fn_span = if tel.is_enabled() {
            Some(tel.span(&format!("lower:{}", f.name)))
        } else {
            None
        };
        let mut mf = {
            let _s = tel.span("isel");
            select(f, &ctx)?
        };
        let order = match reg_seed {
            Some(seed) => {
                // SplitMix-style hash of (seed, function index).
                let mut x = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                x ^= x >> 30;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x ^= x >> 27;
                permutation(x)
            }
            None => ALLOCATABLE,
        };
        {
            let _s = tel.span("regalloc");
            allocate_with_order(&mut mf, order)?;
        }
        {
            let _s = tel.span("frame");
            lower_frame(&mut mf);
        }
        funcs.push(mf);
    }
    Ok(funcs)
}

/// Emits the final image from lowered functions (possibly after a
/// diversity pass has inserted NOPs).
///
/// # Errors
///
/// Propagates emission failures; fails if the module has no `main`.
pub fn emit_image(funcs: &[MFunction], module: &Module) -> Result<Image> {
    emit_image_with(funcs, module, &Telemetry::disabled())
}

/// Like [`emit_image`], recording an `emit` span and the emitted text /
/// data sizes into `tel`.
///
/// # Errors
///
/// Propagates emission failures; fails if the module has no `main`.
pub fn emit_image_with(funcs: &[MFunction], module: &Module, tel: &Telemetry) -> Result<Image> {
    let _span = tel.span("emit");
    let image = emit(funcs, module, "main")?;
    tel.add("emit.functions", funcs.len() as u64);
    tel.add("emit.text_bytes", image.text.len() as u64);
    tel.add("emit.data_bytes", image.data.len() as u64);
    Ok(image)
}

/// One-call compilation without diversification: the baseline build.
///
/// # Errors
///
/// Propagates errors from every stage.
///
/// # Examples
///
/// ```
/// let image = pgsd_cc::driver::compile("demo", "int main() { return 7; }")?;
/// assert!(!image.text.is_empty());
/// # Ok::<(), pgsd_cc::error::CompileError>(())
/// ```
pub fn compile(name: &str, source: &str) -> Result<Image> {
    let module = frontend(name, source)?;
    let funcs = lower_module_seeded(&module, None)?;
    emit_image(&funcs, &module)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_is_deterministic() {
        let src = "int g; int main() { g = 5; return g * 3; }";
        let a = compile("t", src).unwrap();
        let b = compile("t", src).unwrap();
        assert_eq!(a.text, b.text);
        assert_eq!(a.data, b.data);
    }

    #[test]
    fn user_funcs_follow_runtime() {
        let module = frontend(
            "t",
            "int helper() { return 1; } int main() { return helper(); }",
        )
        .unwrap();
        let funcs = lower_module_seeded(&module, None).unwrap();
        let base = lower_ctx().user_func_base as usize;
        assert_eq!(funcs[base].name, "helper");
        assert_eq!(funcs[base + 1].name, "main");
        assert!(funcs[base].diversify);
        assert!(!funcs[0].diversify);
    }

    #[test]
    fn frontend_errors_carry_position() {
        let err = frontend("t", "int main() { return x; }").unwrap_err();
        assert!(err.pos.is_some());
    }
}
