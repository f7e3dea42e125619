//! # d16-cc — a retargetable optimizing Mini-C compiler
//!
//! Plays the role GCC 2.1 plays in the paper: one compiler technology,
//! "basing both \[targets\] on the same technology helps ensure a level
//! playing field", with "the minor differences between the instruction
//! sets ... handled by code generation parameters" — here, a
//! [`TargetSpec`].
//!
//! The pipeline: lex → parse → lower (type check, IR) → optimize
//! (constant folding, copy propagation, local CSE, branch folding, DCE,
//! strength reduction) → select (target feature restrictions applied) →
//! color registers (graph coloring with spilling) → emit (frames, delay
//! slots, literal pools).
//!
//! ```
//! use d16_cc::{compile_to_asm, TargetSpec};
//!
//! let asm = compile_to_asm(
//!     &["int main(void) { return 6 * 7; }"],
//!     &TargetSpec::d16(),
//! )?;
//! assert!(asm.contains("main:"));
//! # Ok::<(), d16_cc::BuildError>(())
//! ```

mod ast;
mod emit;
mod ir;
mod isel;
mod lower;
mod mach;
mod opt;
mod parser;
mod regalloc;
mod runtime;
mod target;
mod token;

pub use ast::{Program, Ty};
pub use parser::{parse, parse_into};
pub use regalloc::RegAllocError;
pub use runtime::RUNTIME_C;
pub use target::TargetSpec;
pub use token::CError;

use d16_asm::{AsmError, Image};
use d16_store::{CacheKey, StableHasher};

/// Version tag folded into every [`build_key`]. Bump whenever the
/// compiler changes observable output for any input, so stale
/// `d16-store` entries from older toolchains stop matching.
pub const TOOLCHAIN_TAG: &str = "d16-cc/2";

/// How much of the optimizer pipeline to run.
///
/// Differential testing compiles every program at both levels: a
/// miscompile in an optimization pass shows up as an `O0`/`O2`
/// disagreement, while a bug in lowering, selection, allocation or
/// emission shows up at both levels against the reference interpreter.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum OptLevel {
    /// Legalization only (multiply/divide become runtime calls — neither
    /// ISA has the instructions, so this much is mandatory); no folding,
    /// CSE, branch folding, DCE or strength reduction.
    O0,
    /// The full optimization pipeline.
    #[default]
    O2,
}

impl OptLevel {
    /// The level's name: `O0` or `O2`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            OptLevel::O0 => "O0",
            OptLevel::O2 => "O2",
        }
    }

    /// Parses a name; inverse of [`OptLevel::name`].
    #[must_use]
    pub fn parse(s: &str) -> Option<OptLevel> {
        [OptLevel::O0, OptLevel::O2].into_iter().find(|o| o.name() == s)
    }
}

/// Compiles Mini-C sources (plus the runtime library) to one assembly
/// unit for the given target, at the default [`OptLevel::O2`].
///
/// Sources share one global namespace; user sources come first so their
/// globals occupy the start of the data segment (the D16 gp window).
///
/// # Errors
///
/// Returns the first lexical, syntax, or type error as
/// [`BuildError::Compile`]; a register allocation that fails to converge
/// (a compiler bug, or the `regalloc-diverge` failpoint) surfaces as
/// [`BuildError::RegAlloc`] instead of a panic.
pub fn compile_to_asm(sources: &[&str], spec: &TargetSpec) -> Result<String, BuildError> {
    compile_to_asm_with(sources, spec, OptLevel::O2)
}

/// [`compile_to_asm`] with an explicit [`OptLevel`].
///
/// # Errors
///
/// Same as [`compile_to_asm`].
pub fn compile_to_asm_with(
    sources: &[&str],
    spec: &TargetSpec,
    opt: OptLevel,
) -> Result<String, BuildError> {
    let mut prog = Program::default();
    for src in sources {
        parser::parse_into(&mut prog, src).map_err(BuildError::Compile)?;
    }
    parser::parse_into(&mut prog, RUNTIME_C).map_err(BuildError::Compile)?;
    if prog.func("main").is_none() {
        return Err(BuildError::Compile(CError { line: 0, msg: "no `main` function".into() }));
    }
    let debug = std::env::var_os("D16CC_DEBUG").is_some();
    let mut module = lower::lower(&prog).map_err(BuildError::Compile)?;
    if debug {
        eprintln!("[d16cc] lowered {} functions", module.funcs.len());
    }
    match opt {
        OptLevel::O0 => opt::legalize_only(&mut module),
        OptLevel::O2 => opt::optimize(&mut module),
    }
    if debug {
        eprintln!("[d16cc] optimized");
    }
    let selected = isel::select(&module, spec);
    if debug {
        eprintln!("[d16cc] selected");
    }
    let mut funcs = Vec::with_capacity(selected.funcs.len());
    for mut mf in selected.funcs {
        if debug {
            eprintln!("[d16cc] allocating {}", mf.name);
        }
        let info = regalloc::allocate(&mut mf, spec).map_err(BuildError::RegAlloc)?;
        funcs.push((mf, info));
    }
    if debug {
        eprintln!("[d16cc] emitting");
    }
    Ok(emit::emit_unit(spec, &funcs, &selected.data, &selected.bss))
}

/// Errors from the full compile-assemble-link pipeline.
#[derive(Debug)]
pub enum BuildError {
    /// Compiler diagnostics.
    Compile(CError),
    /// Register allocation failed to converge.
    RegAlloc(RegAllocError),
    /// Assembler or linker diagnostics (with the offending assembly kept
    /// for debugging).
    Assemble(AsmError, String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Compile(e) => write!(f, "compile error: {e}"),
            BuildError::RegAlloc(e) => write!(f, "register allocation error: {e}"),
            BuildError::Assemble(e, _) => write!(f, "assemble error: {e}"),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Compile(e) => Some(e),
            BuildError::RegAlloc(e) => Some(e),
            BuildError::Assemble(e, _) => Some(e),
        }
    }
}

/// Compiles, assembles and links sources into a loadable image.
///
/// # Errors
///
/// Returns a [`BuildError`] wrapping the failing stage's diagnostic.
pub fn compile_to_image(sources: &[&str], spec: &TargetSpec) -> Result<Image, BuildError> {
    compile_to_image_with(sources, spec, OptLevel::O2)
}

/// [`compile_to_image`] with an explicit [`OptLevel`].
///
/// # Errors
///
/// Returns a [`BuildError`] wrapping the failing stage's diagnostic.
pub fn compile_to_image_with(
    sources: &[&str],
    spec: &TargetSpec,
    opt: OptLevel,
) -> Result<Image, BuildError> {
    let asm = compile_to_asm_with(sources, spec, opt)?;
    d16_asm::build(spec.isa, &[&asm]).map_err(|e| BuildError::Assemble(e, asm))
}

/// Content key for the image [`compile_to_image`] would produce: a stable
/// hash of both toolchain tags, every [`TargetSpec`] knob, the runtime
/// library, and every source in order. Equal keys mean byte-identical
/// images.
#[must_use]
pub fn build_key(sources: &[&str], spec: &TargetSpec) -> CacheKey {
    let mut h = StableHasher::new("d16-cc.build");
    h.field_str(TOOLCHAIN_TAG)
        .field_str(d16_asm::TOOLCHAIN_TAG)
        .field_str(&spec.knob_tag())
        .field_str(RUNTIME_C)
        .field_u64(sources.len() as u64);
    for src in sources {
        h.field_str(src);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use d16_sim::{Machine, NullSink, StopReason};

    /// Compiles and runs a program on every standard target, checking the
    /// exit status matches on all of them.
    #[track_caller]
    fn run_all(src: &str, expect: i32) {
        for spec in [
            TargetSpec::d16(),
            TargetSpec::dlxe(),
            TargetSpec::dlxe_restricted(true, true, true),
            TargetSpec::dlxe_restricted(true, false, false),
        ] {
            let image = match compile_to_image(&[src], &spec) {
                Ok(i) => i,
                Err(BuildError::Assemble(e, asm)) => {
                    panic!("[{}] assemble: {e}\n{asm}", spec.label())
                }
                Err(e) => panic!("[{}] {e}", spec.label()),
            };
            let mut m = Machine::load(&image);
            match m.run(200_000_000, &mut NullSink) {
                Ok(StopReason::Halted(v)) => {
                    assert_eq!(v, expect, "[{}] exit status", spec.label())
                }
                Ok(StopReason::OutOfFuel) => panic!("[{}] ran out of fuel", spec.label()),
                Err(e) => panic!("[{}] sim error: {e} at pc {:#x}", spec.label(), m.pc()),
            }
        }
    }

    #[test]
    fn constant_return() {
        run_all("int main(void) { return 42; }", 42);
    }

    #[test]
    fn arithmetic_and_precedence() {
        run_all("int main(void) { return (2 + 3 * 4 - 1) / 2; }", 6);
        run_all(
            "int main(void) { int a = 10, b = 3; return a % b + (a << 2) + (a >> 1); }",
            1 + 40 + 5,
        );
    }

    #[test]
    fn locals_and_loops() {
        run_all(
            "int main(void) { int s = 0; int i; for (i = 1; i <= 10; i++) s += i; return s; }",
            55,
        );
    }

    #[test]
    fn while_and_conditionals() {
        run_all(
            "
int main(void) {
    int n = 30, steps = 0;
    while (n != 1) {
        if (n % 2 == 0) n = n / 2; else n = 3 * n + 1;
        steps++;
    }
    return steps;
}",
            18, // Collatz steps for 30
        );
    }

    #[test]
    fn functions_and_recursion() {
        run_all(
            "
int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
int main(void) { return fib(10); }",
            55,
        );
    }

    #[test]
    fn many_arguments_spill_to_stack() {
        run_all(
            "
int sum8(int a, int b, int c, int d, int e, int f, int g, int h) {
    return a + b + c + d + e + f + g + h;
}
int main(void) { return sum8(1, 2, 3, 4, 5, 6, 7, 8); }",
            36,
        );
    }

    #[test]
    fn global_arrays_and_pointers() {
        run_all(
            "
int tab[8] = {1, 2, 3, 4, 5, 6, 7, 8};
int sum(int *p, int n) {
    int s = 0;
    while (n-- > 0) s += *p++;
    return s;
}
int main(void) { return sum(tab, 8); }",
            36,
        );
    }

    #[test]
    fn strings_and_chars() {
        run_all(
            "
int length(char *s) { int n = 0; while (*s++) n++; return n; }
int main(void) { return length(\"hello world\"); }",
            11,
        );
    }

    #[test]
    fn structs_and_linked_fields() {
        run_all(
            "
struct point { int x; int y; };
struct point pts[3];
int main(void) {
    int i;
    for (i = 0; i < 3; i++) { pts[i].x = i; pts[i].y = i * i; }
    return pts[2].x + pts[2].y + sizeof(struct point);
}",
            2 + 4 + 8,
        );
    }

    #[test]
    fn pointer_to_struct_fields() {
        run_all(
            "
struct node { int value; struct node *next; };
struct node a, b, c;
int main(void) {
    struct node *p;
    int s = 0;
    a.value = 1; a.next = &b;
    b.value = 2; b.next = &c;
    c.value = 4; c.next = (struct node *)0;
    for (p = &a; p; p = p->next) s += p->value;
    return s;
}",
            7,
        );
    }

    #[test]
    fn local_arrays_and_subword_access() {
        run_all(
            "
int main(void) {
    char buf[16];
    int i, s = 0;
    for (i = 0; i < 16; i++) buf[i] = (char)(i * 3);
    for (i = 0; i < 16; i++) s += buf[i];
    return s;
}",
            (0..16).map(|i| i * 3).sum::<i32>(),
        );
    }

    #[test]
    fn signed_char_extension() {
        run_all(
            "
char c = -5;
int main(void) { return c + 10; }",
            5,
        );
    }

    #[test]
    fn unsigned_semantics() {
        run_all(
            "
int main(void) {
    unsigned a = 0xFFFFFFF0u;
    unsigned b = a >> 4;      /* logical */
    int big = (a > 16) ? 1 : 0; /* unsigned compare */
    return (int)(b & 0xFF) + big;
}",
            0xFF + 1,
        );
    }

    #[test]
    fn division_runtime_helpers() {
        run_all(
            "
int main(void) {
    int a = -100, b = 7;
    unsigned ua = 1000u, ub = 24u;
    return a / b + a % b + (int)(ua / ub) + (int)(ua % ub);
}",
            -14 + -2 + 41 + 16,
        );
    }

    #[test]
    fn multiplication_strength_and_runtime() {
        run_all(
            "
int scale(int x, int k) { return x * k; }
int main(void) {
    return scale(7, 6) + 5 * 8 + 9 * 9 + (-3) * 4;
}",
            42 + 40 + 81 - 12,
        );
    }

    #[test]
    fn short_circuit_evaluation() {
        run_all(
            "
int calls = 0;
int bump(void) { calls++; return 1; }
int main(void) {
    int r = 0;
    if (0 && bump()) r += 100;
    if (1 || bump()) r += 10;
    if (1 && bump()) r += 1;
    return r * 10 + calls;
}",
            111,
        );
    }

    #[test]
    fn ternary_and_logical_values() {
        run_all(
            "
int main(void) {
    int a = 5, b = 9;
    int m = a > b ? a : b;
    int t = (a < b) + (a == 5) + !(b == 9);
    return m * 10 + t;
}",
            92,
        );
    }

    #[test]
    fn floating_point_double() {
        run_all(
            "
double area(double r) { return 3.141592653589793 * r * r; }
int main(void) { return (int)area(10.0); }",
            314,
        );
    }

    #[test]
    fn floating_point_single() {
        run_all(
            "
float half(float x) { return x / 2.0f; }
int main(void) {
    float s = 0.0f;
    int i;
    for (i = 0; i < 8; i++) s = s + half((float)i);
    return (int)(s * 10.0f);
}",
            140,
        );
    }

    #[test]
    fn float_comparisons() {
        run_all(
            "
int main(void) {
    double a = 1.5, b = 2.5;
    int r = 0;
    if (a < b) r += 1;
    if (b <= 2.5) r += 2;
    if (a == 1.5) r += 4;
    if (a != b) r += 8;
    if (b > a) r += 16;
    if (a >= 1.6) r += 32;
    return r;
}",
            31,
        );
    }

    #[test]
    fn address_of_locals() {
        run_all(
            "
void bump(int *p) { *p = *p + 1; }
int main(void) {
    int x = 41;
    bump(&x);
    return x;
}",
            42,
        );
    }

    #[test]
    fn multidimensional_arrays() {
        run_all(
            "
int m[3][4];
int main(void) {
    int i, j, s = 0;
    for (i = 0; i < 3; i++)
        for (j = 0; j < 4; j++)
            m[i][j] = i * 10 + j;
    for (i = 0; i < 3; i++) s += m[i][3];
    return s;
}",
            3 + 13 + 23,
        );
    }

    #[test]
    fn builtins_write_console() {
        let spec = TargetSpec::d16();
        let image = compile_to_image(
            &["int main(void) { __putc('o'); __putc('k'); __puti(-12); return 0; }"],
            &spec,
        )
        .unwrap();
        let mut m = Machine::load(&image);
        m.run(1_000_000, &mut NullSink).unwrap();
        assert_eq!(m.console_string(), "ok-12");
    }

    #[test]
    fn d16_binary_is_smaller() {
        let src = "
int data[32];
int work(int n) {
    int i, s = 0;
    for (i = 0; i < n; i++) { data[i] = i * i; s += data[i]; }
    return s;
}
int main(void) { return work(32) & 0xFF; }";
        let d16 = compile_to_image(&[src], &TargetSpec::d16()).unwrap();
        let dlxe = compile_to_image(&[src], &TargetSpec::dlxe()).unwrap();
        assert!(
            (d16.text.len() as f64) < 0.75 * dlxe.text.len() as f64,
            "D16 text {} vs DLXe {}",
            d16.text.len(),
            dlxe.text.len()
        );
    }

    #[test]
    fn compile_errors_are_reported() {
        let e = compile_to_asm(&["int main(void) { return x; }"], &TargetSpec::d16());
        assert!(e.is_err());
        let e = compile_to_asm(&["int f(void) { return 1; }"], &TargetSpec::d16());
        match e {
            Err(BuildError::Compile(c)) => assert!(c.msg.contains("main")),
            other => panic!("expected a compile error, got {other:?}"),
        }
    }

    /// `O0` (legalize-only) must produce runnable code on every target
    /// that agrees with the optimized build — including multiplies and
    /// divides, which only exist as runtime calls.
    #[test]
    fn o0_pipeline_matches_o2() {
        let src = "
int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
int main(void) {
    int a = fib(10) * 3;      /* 165 */
    int b = (a / 7) % 10;     /* 3 */
    return a % 100 + b;       /* 68 */
}";
        for spec in [
            TargetSpec::d16(),
            TargetSpec::dlxe(),
            TargetSpec::dlxe_restricted(true, true, false),
            TargetSpec::dlxe_restricted(false, true, false),
        ] {
            for opt in [OptLevel::O0, OptLevel::O2] {
                let image = compile_to_image_with(&[src], &spec, opt)
                    .unwrap_or_else(|e| panic!("[{} {opt:?}] {e}", spec.label()));
                let mut m = Machine::load(&image);
                match m.run(200_000_000, &mut NullSink) {
                    Ok(StopReason::Halted(v)) => {
                        assert_eq!(v, 68, "[{} {opt:?}]", spec.label())
                    }
                    other => panic!("[{} {opt:?}] {other:?}", spec.label()),
                }
            }
        }
    }

    /// Functions and globals named like registers must build and run on
    /// every target. `jal r15` on DLXe means an indirect jump through the
    /// register, so the compiler suffixes GPR-shaped identifiers with `$`
    /// when emitting symbols; without that, calling a function named
    /// `r15` jumped through whatever the register held.
    #[test]
    fn register_shaped_identifiers_build_everywhere() {
        let src = "
int r15(int n) { return n + 4; }
int f0(void) { return 7; }
int r2 = 5;
int main(void) { return r15(f0()) + r2; }";
        for spec in
            [TargetSpec::d16(), TargetSpec::dlxe(), TargetSpec::dlxe_restricted(true, true, false)]
        {
            for opt in [OptLevel::O0, OptLevel::O2] {
                let image = compile_to_image_with(&[src], &spec, opt)
                    .unwrap_or_else(|e| panic!("[{} {opt:?}] {e}", spec.label()));
                let mut m = Machine::load(&image);
                match m.run(10_000_000, &mut NullSink) {
                    Ok(StopReason::Halted(v)) => {
                        assert_eq!(v, 16, "[{} {opt:?}]", spec.label())
                    }
                    other => panic!("[{} {opt:?}] {other:?}", spec.label()),
                }
            }
        }
    }

    /// The global-initializer folder and the IR constant folder must agree
    /// with the machine on oversized and negative shift counts: the
    /// hardware masks the count to five bits, so `1 << 32 == 1` and
    /// `1 << -1 == 1 << 31`. Each global is compared against the same
    /// expression computed from runtime-opaque values, exercising both the
    /// `lower.rs` fold (globals) and the `opt.rs`/`ir.rs` fold (locals).
    #[test]
    fn shift_counts_mask_to_five_bits_on_every_fold_path() {
        run_all(
            "
int g_over = 1 << 32;
int g_33 = 1 << 33;
int g_neg = 1 << -1;
int g_sar = (-8) >> 32;
int volatile_looking; /* keeps main from folding entirely */
int main(void) {
    int one = 1, m8 = -8, c32 = 32, c33 = 33, cm1 = -1;
    volatile_looking = one;
    if (g_over != (one << c32)) return 1;
    if (g_33 != (one << c33)) return 2;
    if (g_neg != (one << cm1)) return 3;
    if (g_sar != (m8 >> c32)) return 4;
    if (g_over != 1) return 5;
    if (g_33 != 2) return 6;
    if (g_sar != -8) return 7;
    return 0;
}",
            0,
        );
        // g_neg == 1 << 31 == INT_MIN: check its bit pattern via unsigned.
        run_all(
            "
int g_neg = 1 << -1;
int main(void) { unsigned u = g_neg; return (u >> 28) == 8; }",
            1,
        );
    }

    /// Division and remainder edges must agree three ways: the constant
    /// folder (globals and locals), the runtime helpers `__divsi3` and
    /// `__modsi3` (reached via runtime-opaque operands), and the documented
    /// contract in `d16_isa::sem` (`n/0 == 0`, `INT_MIN / -1 == INT_MIN`,
    /// `INT_MIN % -1 == 0`).
    #[test]
    fn div_rem_edges_agree_between_folder_and_runtime() {
        run_all(
            "
int g_dz = 5 / 0;
int g_rz = 5 % 0;
int g_min_div = (-2147483647 - 1) / -1;
int g_min_rem = (-2147483647 - 1) % -1;
int main(void) {
    int five = 5, zero = 0, min = -2147483647 - 1, m1 = -1;
    if (g_dz != five / zero) return 1;
    if (g_rz != five % zero) return 2;
    if (g_min_div != min / m1) return 3;
    if (g_min_rem != min % m1) return 4;
    if (g_dz != 0) return 5;
    if (g_rz != 0) return 6;
    if (g_min_div != min) return 7;
    if (g_min_rem != 0) return 8;
    return 0;
}",
            0,
        );
        // Unsigned division by zero is zero too, on both paths.
        run_all(
            "
int main(void) {
    unsigned a = 123, z = 0;
    unsigned q = a / z, r = a % z;
    return q + r;
}",
            0,
        );
    }
}
