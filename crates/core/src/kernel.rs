//! Resolve-once element-wise kernels.
//!
//! [`crate::cmd::eval`] states what an element-wise op means, one
//! element at a time, by matching on `(OpKind, DataType)`. Running that
//! match for every element is what bound the functional simulator, so
//! execution instead resolves the pair once per command into a
//! [`Kernel`]: a function pointer to a slice loop in which the op and
//! the dtype's signedness are monomorphized, and whose loop-invariant
//! parameters (the immediate, already truncated, and the truncation
//! shift) are precomputed. Truncation to a `b`-bit dtype is the shift
//! pair `(v << (64 − b)) >> (64 − b)`, arithmetic for signed dtypes and
//! logical otherwise, so the inner loops are branch-free.
//!
//! `eval` stays the reference: `crates/core/tests/kernel_equivalence.rs`
//! compares every kernel with it on every element.

use std::ops::Range;

use pim_dram::exec;
use pim_microcode::gen::{BinaryOp, CmpOp};

use crate::dtype::DataType;
use crate::ops::OpKind;

/// Loop-invariant parameters of a resolved kernel.
#[derive(Debug, Clone, Copy)]
struct Params {
    /// The immediate (scalar operand, shift amount), pre-truncated.
    k: i64,
    /// `64 − bits`: the truncation shift.
    sh: u32,
}

impl Params {
    /// Truncates `v` to the dtype's canonical form.
    #[inline(always)]
    fn trunc<const S: bool>(self, v: i64) -> i64 {
        if S {
            (v << self.sh) >> self.sh
        } else {
            (((v as u64) << self.sh) >> self.sh) as i64
        }
    }
}

/// `x < y` in the dtype's order.
#[inline(always)]
fn lt<const S: bool>(x: i64, y: i64) -> bool {
    if S {
        x < y
    } else {
        (x as u64) < (y as u64)
    }
}

/// A monomorphized slice loop: `out[i] = op(ins[0][i], …)`.
type Body = fn(Params, &[&[i64]], &mut [i64]);

/// Elements per block when a destination is also an input: the block
/// is computed into a stack buffer, then copied over the destination.
const ALIAS_BLOCK: usize = 256;

/// One element-wise `(OpKind, DataType)` pair resolved to its slice
/// loop.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Kernel {
    body: Body,
    params: Params,
}

#[inline(always)]
fn map0(_: &[&[i64]], out: &mut [i64], f: impl Fn() -> i64) {
    out.fill(f());
}

#[inline(always)]
fn map1(ins: &[&[i64]], out: &mut [i64], f: impl Fn(i64) -> i64) {
    let &[a] = ins else {
        unreachable!("unary kernel")
    };
    let n = out.len();
    for (o, &x) in out.iter_mut().zip(&a[..n]) {
        *o = f(x);
    }
}

#[inline(always)]
fn map2(ins: &[&[i64]], out: &mut [i64], f: impl Fn(i64, i64) -> i64) {
    let &[a, b] = ins else {
        unreachable!("binary kernel")
    };
    let n = out.len();
    for ((o, &x), &y) in out.iter_mut().zip(&a[..n]).zip(&b[..n]) {
        *o = f(x, y);
    }
}

#[inline(always)]
fn map3(ins: &[&[i64]], out: &mut [i64], f: impl Fn(i64, i64, i64) -> i64) {
    let &[a, b, c] = ins else {
        unreachable!("ternary kernel")
    };
    let n = out.len();
    for (((o, &x), &y), &z) in out.iter_mut().zip(&a[..n]).zip(&b[..n]).zip(&c[..n]) {
        *o = f(x, y, z);
    }
}

#[inline(always)]
fn map4(ins: &[&[i64]], out: &mut [i64], f: impl Fn(i64, i64, i64, i64) -> i64) {
    let &[a, b, c, d] = ins else {
        unreachable!("quaternary kernel")
    };
    let n = out.len();
    for ((((o, &x), &y), &z), &u) in out
        .iter_mut()
        .zip(&a[..n])
        .zip(&b[..n])
        .zip(&c[..n])
        .zip(&d[..n])
    {
        *o = f(x, y, z, u);
    }
}

/// Defines one op's slice loop for both signednesses and evaluates to
/// `[unsigned, signed]`. The body names the parameters `$p`, the lanes
/// `$x…`, and may use the const generic `S` (true when signed); its
/// result is truncated to the dtype.
macro_rules! kernel {
    ($map:ident, |$p:ident $(, $x:ident)*| $e:expr) => {{
        fn body<const S: bool>($p: Params, ins: &[&[i64]], out: &mut [i64]) {
            $map(ins, out, |$($x),*| $p.trunc::<S>($e))
        }
        [body::<false> as Body, body::<true> as Body]
    }};
}

fn binary(b: BinaryOp) -> [Body; 2] {
    match b {
        BinaryOp::Add => kernel!(map2, |_p, x, y| x.wrapping_add(y)),
        BinaryOp::Sub => kernel!(map2, |_p, x, y| x.wrapping_sub(y)),
        BinaryOp::Mul => kernel!(map2, |_p, x, y| x.wrapping_mul(y)),
        BinaryOp::And => kernel!(map2, |_p, x, y| x & y),
        BinaryOp::Or => kernel!(map2, |_p, x, y| x | y),
        BinaryOp::Xor => kernel!(map2, |_p, x, y| x ^ y),
        BinaryOp::Xnor => kernel!(map2, |_p, x, y| !(x ^ y)),
    }
}

fn binary_scalar(b: BinaryOp) -> [Body; 2] {
    match b {
        BinaryOp::Add => kernel!(map1, |p, x| x.wrapping_add(p.k)),
        BinaryOp::Sub => kernel!(map1, |p, x| x.wrapping_sub(p.k)),
        BinaryOp::Mul => kernel!(map1, |p, x| x.wrapping_mul(p.k)),
        BinaryOp::And => kernel!(map1, |p, x| x & p.k),
        BinaryOp::Or => kernel!(map1, |p, x| x | p.k),
        BinaryOp::Xor => kernel!(map1, |p, x| x ^ p.k),
        BinaryOp::Xnor => kernel!(map1, |p, x| !(x ^ p.k)),
    }
}

fn cmp(c: CmpOp) -> [Body; 2] {
    match c {
        CmpOp::Lt => kernel!(map2, |_p, x, y| i64::from(lt::<S>(x, y))),
        CmpOp::Gt => kernel!(map2, |_p, x, y| i64::from(lt::<S>(y, x))),
        CmpOp::Eq => kernel!(map2, |_p, x, y| i64::from(x == y)),
    }
}

fn cmp_scalar(c: CmpOp) -> [Body; 2] {
    match c {
        CmpOp::Lt => kernel!(map1, |p, x| i64::from(lt::<S>(x, p.k))),
        CmpOp::Gt => kernel!(map1, |p, x| i64::from(lt::<S>(p.k, x))),
        CmpOp::Eq => kernel!(map1, |p, x| i64::from(x == p.k)),
    }
}

fn cmp_select(c: CmpOp) -> [Body; 2] {
    match c {
        CmpOp::Lt => kernel!(map4, |_p, a, b, x, y| if lt::<S>(a, b) { x } else { y }),
        CmpOp::Gt => kernel!(map4, |_p, a, b, x, y| if lt::<S>(b, a) { x } else { y }),
        CmpOp::Eq => kernel!(map4, |_p, a, b, x, y| if a == b { x } else { y }),
    }
}

impl Kernel {
    /// Resolves an element-wise `kind` writing a `dtype` destination.
    ///
    /// # Panics
    ///
    /// On reduction kinds, which fold across elements.
    pub(crate) fn resolve(kind: OpKind, dtype: DataType) -> Kernel {
        let bits = dtype.bits();
        let imm = |k: i64| dtype.truncate(k);
        let zero = kernel!(map1, |_p, _x| 0);
        let (bodies, k) = match kind {
            OpKind::Binary(b) => (binary(b), 0),
            OpKind::BinaryScalar(b, k) => (binary_scalar(b), imm(k)),
            OpKind::Cmp(c) => (cmp(c), 0),
            OpKind::CmpScalar(c, k) => (cmp_scalar(c), imm(k)),
            OpKind::FusedCmpSelect(c) => (cmp_select(c), 0),
            OpKind::Min => (
                kernel!(map2, |_p, x, y| if lt::<S>(x, y) { x } else { y }),
                0,
            ),
            OpKind::Max => (
                kernel!(map2, |_p, x, y| if lt::<S>(y, x) { x } else { y }),
                0,
            ),
            OpKind::MinScalar(k) => (
                kernel!(map1, |p, x| if lt::<S>(x, p.k) { x } else { p.k }),
                imm(k),
            ),
            OpKind::MaxScalar(k) => (
                kernel!(map1, |p, x| if lt::<S>(p.k, x) { x } else { p.k }),
                imm(k),
            ),
            OpKind::Not => (kernel!(map1, |_p, x| !x), 0),
            OpKind::Abs => (
                kernel!(map1, |_p, x| if S { x.wrapping_abs() } else { x }),
                0,
            ),
            // Shifting left by `64 − bits` keeps exactly the dtype's bits.
            OpKind::Popcount => (
                kernel!(map1, |p, x| i64::from(((x as u64) << p.sh).count_ones())),
                0,
            ),
            // Shifting a `bits`-wide value left by `bits` or more leaves
            // no bit inside the dtype.
            OpKind::ShiftL(k) if k >= bits => (zero, 0),
            OpKind::ShiftL(k) => (kernel!(map1, |p, x| x << p.k), i64::from(k)),
            // Signed values are sign-extended, so an arithmetic shift by
            // 63 already yields the sign fill; unsigned values shifted by
            // 64 or more are zero.
            OpKind::ShiftR(k) if !dtype.is_signed() && k >= 64 => (zero, 0),
            OpKind::ShiftR(k) => (
                kernel!(map1, |p, x| if S {
                    x >> p.k
                } else {
                    ((x as u64) << p.sh >> p.sh >> p.k) as i64
                }),
                i64::from(k.min(63)),
            ),
            OpKind::Select => (kernel!(map3, |_p, c, x, y| if c != 0 { x } else { y }), 0),
            // `trunc(trunc(a·k) + b) == trunc(a·k + b)`: truncation is
            // reduction mod 2^bits, which commutes with wrapping ops.
            OpKind::ScaledAdd(k) => (
                kernel!(map2, |p, x, y| x.wrapping_mul(p.k).wrapping_add(y)),
                imm(k),
            ),
            OpKind::Broadcast(v) => (kernel!(map0, |p| p.k), imm(v)),
            OpKind::Copy => (kernel!(map1, |_p, x| x), 0),
            OpKind::RedSum | OpKind::RedMin | OpKind::RedMax => {
                unreachable!("reductions fold across elements; kernels are element-wise")
            }
        };
        Kernel {
            body: bodies[usize::from(dtype.is_signed())],
            params: Params { k, sh: 64 - bits },
        }
    }

    /// `out[i] = op(ins[0][i], …)` over equal-length slices.
    #[inline]
    fn run(&self, ins: &[&[i64]], out: &mut [i64]) {
        (self.body)(self.params, ins, out);
    }

    /// Runs the kernel over `range` of its operands, writing `out`
    /// (which holds exactly that range of the destination). An operand
    /// of `None` is the destination itself: its current contents are
    /// read before being overwritten, block by block.
    pub(crate) fn run_range(&self, ins: &[Option<&[i64]>], range: Range<usize>, out: &mut [i64]) {
        if ins.iter().all(Option::is_some) {
            let mut args: [&[i64]; 4] = [&[]; 4];
            for (arg, input) in args.iter_mut().zip(ins) {
                *arg = &input.expect("checked above")[range.clone()];
            }
            return self.run(&args[..ins.len()], out);
        }
        let mut block = [0i64; ALIAS_BLOCK];
        for lo in (0..out.len()).step_by(ALIAS_BLOCK) {
            let hi = (lo + ALIAS_BLOCK).min(out.len());
            let mut args: [&[i64]; 4] = [&[]; 4];
            for (arg, input) in args.iter_mut().zip(ins) {
                *arg = match input {
                    Some(s) => &s[range.start + lo..range.start + hi],
                    None => &out[lo..hi],
                };
            }
            self.run(&args[..ins.len()], &mut block[..hi - lo]);
            out[lo..hi].copy_from_slice(&block[..hi - lo]);
        }
    }

    /// Runs the kernel over whole operands into `out`, fanning out
    /// across the exec pool above its size floor. `None` operands are
    /// `out` itself, as in [`Kernel::run_range`].
    pub(crate) fn apply(&self, ins: &[Option<&[i64]>], out: &mut [i64]) {
        exec::par_chunks_mut(&mut [out], |r, parts| self.run_range(ins, r, parts[0]));
    }
}
