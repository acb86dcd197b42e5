//! Pure-value interpretation helpers: arithmetic semantics (including
//! element-wise tensor broadcasting) and functional implementations of the
//! Linalg named ops.
//!
//! The engine (in [`crate::engine`]) owns time; this module owns data. Keeping
//! data semantics separate lets tests validate functional behaviour (e.g. a
//! convolution's numbers) without running the clock.

use crate::value::{SimValue, Tensor, TensorData};

/// Applies a binary `arith` op to two runtime values.
///
/// Tensors broadcast element-wise: `tensor ⊗ tensor` requires equal element
/// counts, `tensor ⊗ scalar` (either order) broadcasts the scalar. This is
/// what lets a systolic PE compute `ofmap = ifmap * weight + ofmap_old`
/// over register vectors.
///
/// # Errors
///
/// Returns a message for unsupported operand kinds, mismatched tensor
/// lengths, or division by zero.
pub(crate) fn apply_binary(op: BinOp, lhs: &SimValue, rhs: &SimValue) -> Result<SimValue, String> {
    let name = op.name();
    match (lhs, rhs) {
        (SimValue::Int(a), SimValue::Int(b)) => Ok(SimValue::Int(op.int(*a, *b)?)),
        (SimValue::Float(a), SimValue::Float(b)) => Ok(SimValue::Float(op.float(*a, *b))),
        (SimValue::Tensor(a), SimValue::Tensor(b)) => {
            if a.len() != b.len() {
                return Err(format!(
                    "'{name}' tensor length mismatch: {} vs {}",
                    a.len(),
                    b.len()
                ));
            }
            zip_tensors(op, a, b)
        }
        (SimValue::Tensor(a), s) if scalar(s) => map_tensor(op, a, s, false),
        (s, SimValue::Tensor(b)) if scalar(s) => map_tensor(op, b, s, true),
        (SimValue::Int(a), SimValue::Float(b)) => Ok(SimValue::Float(op.float(*a as f64, *b))),
        (SimValue::Float(a), SimValue::Int(b)) => Ok(SimValue::Float(op.float(*a, *b as f64))),
        _ => Err(format!("'{name}' cannot combine {lhs} and {rhs}")),
    }
}

fn scalar(v: &SimValue) -> bool {
    matches!(v, SimValue::Int(_) | SimValue::Float(_))
}

/// A binary `arith` operator, decoded once when the plan is built. The
/// single source of truth for scalar semantics: [`apply_binary`], the
/// engine's scalar fast path and fused traces all dispatch through it, so
/// they can never drift. Int/float behaviours mirror each other, including the
/// historical `addi`-accepted-on-floats promotions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BinOp {
    Addi,
    Addf,
    Subi,
    Muli,
    Mulf,
    Divi,
    Remi,
}

impl BinOp {
    pub(crate) const COUNT: usize = 7;
    pub(crate) const ALL: [BinOp; BinOp::COUNT] = [
        BinOp::Addi,
        BinOp::Addf,
        BinOp::Subi,
        BinOp::Muli,
        BinOp::Mulf,
        BinOp::Divi,
        BinOp::Remi,
    ];

    pub(crate) fn from_name(name: &str) -> Option<BinOp> {
        Some(match name {
            "arith.addi" => BinOp::Addi,
            "arith.addf" => BinOp::Addf,
            "arith.subi" => BinOp::Subi,
            "arith.muli" => BinOp::Muli,
            "arith.mulf" => BinOp::Mulf,
            "arith.divi" => BinOp::Divi,
            "arith.remi" => BinOp::Remi,
            _ => None?,
        })
    }

    /// The op name, for resolving a processor profile and for messages.
    pub(crate) fn name(self) -> &'static str {
        match self {
            BinOp::Addi => "arith.addi",
            BinOp::Addf => "arith.addf",
            BinOp::Subi => "arith.subi",
            BinOp::Muli => "arith.muli",
            BinOp::Mulf => "arith.mulf",
            BinOp::Divi => "arith.divi",
            BinOp::Remi => "arith.remi",
        }
    }

    pub(crate) fn int(self, a: i64, b: i64) -> Result<i64, String> {
        Ok(match self {
            BinOp::Addi | BinOp::Addf => a.wrapping_add(b),
            BinOp::Subi => a.wrapping_sub(b),
            BinOp::Muli | BinOp::Mulf => a.wrapping_mul(b),
            BinOp::Divi => {
                if b == 0 {
                    return Err("integer division by zero".into());
                }
                a / b
            }
            BinOp::Remi => {
                if b == 0 {
                    return Err("integer remainder by zero".into());
                }
                a % b
            }
        })
    }

    pub(crate) fn float(self, a: f64, b: f64) -> f64 {
        match self {
            BinOp::Addi | BinOp::Addf => a + b,
            BinOp::Subi => a - b,
            BinOp::Muli | BinOp::Mulf => a * b,
            BinOp::Divi => a / b,
            BinOp::Remi => a % b,
        }
    }
}

fn zip_tensors(op: BinOp, a: &Tensor, b: &Tensor) -> Result<SimValue, String> {
    let data = match (&a.data, &b.data) {
        (TensorData::Int(x), TensorData::Int(y)) => {
            let mut out = Vec::with_capacity(x.len());
            for (xa, yb) in x.iter().zip(y.iter()) {
                out.push(op.int(*xa, *yb)?);
            }
            TensorData::from_ints(out)
        }
        (TensorData::Float(x), TensorData::Float(y)) => {
            let mut out = Vec::with_capacity(x.len());
            for (xa, yb) in x.iter().zip(y.iter()) {
                out.push(op.float(*xa, *yb));
            }
            TensorData::from_floats(out)
        }
        _ => return Err(format!("'{}' mixes int and float tensors", op.name())),
    };
    Ok(SimValue::Tensor(Tensor {
        shape: a.shape.clone(),
        data,
    }))
}

fn map_tensor(op: BinOp, t: &Tensor, s: &SimValue, scalar_first: bool) -> Result<SimValue, String> {
    let name = op.name();
    let data = match &t.data {
        TensorData::Int(x) => {
            let sv = s
                .as_int()
                .ok_or_else(|| format!("'{name}' mixes int tensor and float"))?;
            let mut out = Vec::with_capacity(x.len());
            for &xa in x.iter() {
                let (a, b) = if scalar_first { (sv, xa) } else { (xa, sv) };
                out.push(op.int(a, b)?);
            }
            TensorData::from_ints(out)
        }
        TensorData::Float(x) => {
            let sv = s.as_float().ok_or_else(|| format!("'{name}' bad scalar"))?;
            let mut out = Vec::with_capacity(x.len());
            for &xa in x.iter() {
                let (a, b) = if scalar_first { (sv, xa) } else { (xa, sv) };
                out.push(op.float(a, b));
            }
            TensorData::from_floats(out)
        }
    };
    Ok(SimValue::Tensor(Tensor {
        shape: t.shape.clone(),
        data,
    }))
}

/// A pre-decoded `arith.cmpi` predicate. Single source of truth for the
/// comparison semantics: [`eval_cmpi`] and the engine's fused loop traces
/// both dispatch through [`CmpPred::eval`], so the two can never drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CmpPred {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpPred {
    pub(crate) fn from_name(pred: &str) -> Option<CmpPred> {
        Some(match pred {
            "eq" => CmpPred::Eq,
            "ne" => CmpPred::Ne,
            "lt" => CmpPred::Lt,
            "le" => CmpPred::Le,
            "gt" => CmpPred::Gt,
            "ge" => CmpPred::Ge,
            _ => None?,
        })
    }

    pub(crate) fn eval(self, a: i64, b: i64) -> bool {
        match self {
            CmpPred::Eq => a == b,
            CmpPred::Ne => a != b,
            CmpPred::Lt => a < b,
            CmpPred::Le => a <= b,
            CmpPred::Gt => a > b,
            CmpPred::Ge => a >= b,
        }
    }
}

/// Applies `arith.cmpi` with a decoded predicate; `Err` carries the name
/// of an unknown one. Operands are checked first, whatever the predicate.
pub(crate) fn eval_cmpi(
    pred: Result<CmpPred, &str>,
    lhs: &SimValue,
    rhs: &SimValue,
) -> Result<SimValue, String> {
    let a = lhs.as_int().ok_or("cmpi needs integer operands")?;
    let b = rhs.as_int().ok_or("cmpi needs integer operands")?;
    let p = pred.map_err(|name| format!("unknown cmpi predicate '{name}'"))?;
    Ok(SimValue::Int(p.eval(a, b) as i64))
}

/// Functional 2-D convolution over integer tensors (reference semantics for
/// `linalg.conv2d`).
///
/// Layouts: ifmap `[C][H][W]`, weights `[N][C][Fh][Fw]`, ofmap
/// `[N][Eh][Ew]` — all flattened row-major. Accumulation wraps on overflow
/// (two's-complement), matching the engine's `arith.muli`/`arith.addi`
/// semantics on adversarial inputs.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_int(
    ifmap: &[i64],
    weights: &[i64],
    ofmap: &mut [i64],
    c: usize,
    h: usize,
    w: usize,
    n: usize,
    fh: usize,
    fw: usize,
) {
    // A filter larger than the input yields an empty ofmap rather than an
    // arithmetic panic (the engine validates shapes before calling in).
    let eh = h.saturating_add(1).saturating_sub(fh);
    let ew = w.saturating_add(1).saturating_sub(fw);
    for on in 0..n {
        for oy in 0..eh {
            for ox in 0..ew {
                let mut acc = 0i64;
                for ic in 0..c {
                    for ky in 0..fh {
                        for kx in 0..fw {
                            let iv = ifmap[ic * h * w + (oy + ky) * w + (ox + kx)];
                            let wv = weights[on * c * fh * fw + ic * fh * fw + ky * fw + kx];
                            acc = acc.wrapping_add(iv.wrapping_mul(wv));
                        }
                    }
                }
                ofmap[on * eh * ew + oy * ew + ox] = acc;
            }
        }
    }
}

/// Functional integer matmul: `C = A × B` with `A: MxK`, `B: KxN`.
/// Accumulation wraps on overflow, matching `arith` semantics.
pub fn matmul_int(a: &[i64], b: &[i64], c: &mut [i64], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0i64;
            for p in 0..k {
                acc = acc.wrapping_add(a[i * k + p].wrapping_mul(b[p * n + j]));
            }
            c[i * n + j] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_scalar_ops() {
        assert_eq!(
            apply_binary(BinOp::Addi, &SimValue::Int(2), &SimValue::Int(3)).unwrap(),
            SimValue::Int(5)
        );
        assert_eq!(
            apply_binary(BinOp::Subi, &SimValue::Int(2), &SimValue::Int(3)).unwrap(),
            SimValue::Int(-1)
        );
        assert_eq!(
            apply_binary(BinOp::Muli, &SimValue::Int(4), &SimValue::Int(3)).unwrap(),
            SimValue::Int(12)
        );
        assert_eq!(
            apply_binary(BinOp::Divi, &SimValue::Int(7), &SimValue::Int(2)).unwrap(),
            SimValue::Int(3)
        );
        assert_eq!(
            apply_binary(BinOp::Remi, &SimValue::Int(7), &SimValue::Int(2)).unwrap(),
            SimValue::Int(1)
        );
        assert!(apply_binary(BinOp::Divi, &SimValue::Int(1), &SimValue::Int(0)).is_err());
        assert_eq!(BinOp::from_name("arith.bogus"), None);
    }

    #[test]
    fn float_and_mixed() {
        assert_eq!(
            apply_binary(BinOp::Addf, &SimValue::Float(1.5), &SimValue::Float(2.0)).unwrap(),
            SimValue::Float(3.5)
        );
        assert_eq!(
            apply_binary(BinOp::Mulf, &SimValue::Int(2), &SimValue::Float(2.5)).unwrap(),
            SimValue::Float(5.0)
        );
    }

    #[test]
    fn tensor_tensor() {
        let a = SimValue::Tensor(Tensor::from_int(vec![3], vec![1, 2, 3]));
        let b = SimValue::Tensor(Tensor::from_int(vec![3], vec![10, 20, 30]));
        let r = apply_binary(BinOp::Addi, &a, &b).unwrap();
        assert_eq!(
            r,
            SimValue::Tensor(Tensor::from_int(vec![3], vec![11, 22, 33]))
        );
        let short = SimValue::Tensor(Tensor::from_int(vec![2], vec![0, 0]));
        assert!(apply_binary(BinOp::Addi, &a, &short).is_err());
    }

    #[test]
    fn tensor_scalar_broadcast_order_matters() {
        let t = SimValue::Tensor(Tensor::from_int(vec![2], vec![10, 20]));
        let r = apply_binary(BinOp::Subi, &t, &SimValue::Int(1)).unwrap();
        assert_eq!(r, SimValue::Tensor(Tensor::from_int(vec![2], vec![9, 19])));
        let r = apply_binary(BinOp::Subi, &SimValue::Int(1), &t).unwrap();
        assert_eq!(
            r,
            SimValue::Tensor(Tensor::from_int(vec![2], vec![-9, -19]))
        );
    }

    #[test]
    fn cmpi_predicates() {
        let two = SimValue::Int(2);
        let three = SimValue::Int(3);
        let cmpi = |pred, a, b| eval_cmpi(CmpPred::from_name(pred).ok_or(pred), a, b);
        assert_eq!(cmpi("lt", &two, &three).unwrap(), SimValue::Int(1));
        assert_eq!(cmpi("ge", &two, &three).unwrap(), SimValue::Int(0));
        assert_eq!(cmpi("eq", &two, &two).unwrap(), SimValue::Int(1));
        assert!(cmpi("wat", &two, &two).is_err());
        assert!(cmpi("eq", &SimValue::Unit, &two).is_err());
    }

    #[test]
    fn conv2d_reference() {
        // 1 channel, 3x3 input, single 2x2 all-ones filter: each output is
        // the sum of a 2x2 window.
        let ifmap = vec![1, 2, 3, 4, 5, 6, 7, 8, 9];
        let weights = vec![1, 1, 1, 1];
        let mut ofmap = vec![0; 4];
        conv2d_int(&ifmap, &weights, &mut ofmap, 1, 3, 3, 1, 2, 2);
        assert_eq!(
            ofmap,
            vec![1 + 2 + 4 + 5, 2 + 3 + 5 + 6, 4 + 5 + 7 + 8, 5 + 6 + 8 + 9]
        );
    }

    #[test]
    fn conv2d_channels_accumulate() {
        // 2 channels of all-ones 2x2 inputs, 1x1 filter weighting channels
        // by 3 and 5: every output is 3+5.
        let ifmap = vec![1; 8];
        let weights = vec![3, 5];
        let mut ofmap = vec![0; 4];
        conv2d_int(&ifmap, &weights, &mut ofmap, 2, 2, 2, 1, 1, 1);
        assert_eq!(ofmap, vec![8; 4]);
    }

    #[test]
    fn matmul_reference() {
        let a = vec![1, 2, 3, 4]; // 2x2
        let b = vec![5, 6, 7, 8]; // 2x2
        let mut c = vec![0; 4];
        matmul_int(&a, &b, &mut c, 2, 2, 2);
        assert_eq!(c, vec![19, 22, 43, 50]);
    }
}
