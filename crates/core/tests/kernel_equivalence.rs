//! Element-wise kernel differential suite.
//!
//! [`pimeval::cmd::eval`] is the one statement of what an element-wise
//! op means. This suite drives every element-wise [`OpKind`] through
//! [`Device::issue`] — and through a batched [`pimeval::CommandStream`]
//! sweep — over every dtype, edge-case immediates and shift amounts,
//! lengths on both sides of the fan-out floor, and aliased
//! `dst == input` shapes, and compares every element of every result
//! with `eval` applied on the host.

use pimeval::exec::{self, MIN_CHUNK};
use pimeval::pim_microcode::gen::{BinaryOp, CmpOp};
use pimeval::{
    cmd, DataType, Device, DeviceConfig, ObjId, OpKind, PimCommand, PimScalar, PimTarget,
};

const DTYPES: [DataType; 9] = [
    DataType::Bool,
    DataType::Int8,
    DataType::Int16,
    DataType::Int32,
    DataType::Int64,
    DataType::UInt8,
    DataType::UInt16,
    DataType::UInt32,
    DataType::UInt64,
];

/// Lengths below, at and above one 64-element word, the AES block
/// width, and the smallest length that fans out across two workers.
const LENGTHS: [usize; 6] = [1, 63, 64, 65, 192, 2 * MIN_CHUNK + 1];

const BINARY: [BinaryOp; 7] = [
    BinaryOp::Add,
    BinaryOp::Sub,
    BinaryOp::Mul,
    BinaryOp::And,
    BinaryOp::Or,
    BinaryOp::Xor,
    BinaryOp::Xnor,
];

const CMP: [CmpOp; 3] = [CmpOp::Lt, CmpOp::Gt, CmpOp::Eq];

/// Deterministic SplitMix64 stream.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

/// The dtype's smallest and largest canonical values.
fn bounds(d: DataType) -> (i64, i64) {
    let bits = d.bits();
    match (d.is_signed(), bits) {
        (true, 64) => (i64::MIN, i64::MAX),
        (true, b) => (-(1i64 << (b - 1)), (1i64 << (b - 1)) - 1),
        (false, 64) => (0, -1),
        (false, b) => (0, (1i64 << b) - 1),
    }
}

/// Scalar immediates: 0, ±1, the dtype's min and max, and values
/// outside its range.
fn immediates(d: DataType) -> Vec<i64> {
    let (min, max) = bounds(d);
    vec![
        0,
        1,
        -1,
        min,
        max,
        max.wrapping_add(1),
        min.wrapping_sub(1),
        i64::MIN,
        i64::MAX,
        0x5A5A_5A5A_5A5A_5A5A,
    ]
}

/// Shift amounts: 0, 1, bits−1, the width itself, and the largest
/// amount the validator accepts.
fn shifts(d: DataType) -> Vec<u32> {
    let bits = d.bits();
    let mut v = vec![0, 1, bits - 1, bits, 63, 64, u32::MAX];
    v.sort_unstable();
    v.dedup();
    v
}

/// Every element-wise kind with its edge-case parameters.
fn kinds(d: DataType) -> Vec<OpKind> {
    let mut out = Vec::new();
    for b in BINARY {
        out.push(OpKind::Binary(b));
        out.extend(
            immediates(d)
                .into_iter()
                .map(|k| OpKind::BinaryScalar(b, k)),
        );
    }
    for c in CMP {
        out.push(OpKind::Cmp(c));
        out.push(OpKind::FusedCmpSelect(c));
        out.extend(immediates(d).into_iter().map(|k| OpKind::CmpScalar(c, k)));
    }
    out.extend([
        OpKind::Min,
        OpKind::Max,
        OpKind::Not,
        OpKind::Abs,
        OpKind::Popcount,
        OpKind::Select,
        OpKind::Copy,
    ]);
    for k in immediates(d) {
        out.extend([
            OpKind::MinScalar(k),
            OpKind::MaxScalar(k),
            OpKind::ScaledAdd(k),
            OpKind::Broadcast(k),
        ]);
    }
    for k in shifts(d) {
        out.extend([OpKind::ShiftL(k), OpKind::ShiftR(k)]);
    }
    out
}

/// Canonical operand values: random, with the dtype's edge values
/// (0, ±1, min, max) sprinkled in so abs/compare/eq hit their corners.
fn operand(rng: &mut Rng, d: DataType, n: usize) -> Vec<i64> {
    let (min, max) = bounds(d);
    let edges = [0, 1, -1, min, max];
    (0..n)
        .map(|i| {
            let raw = rng.next_u64() as i64;
            d.truncate(if i % 5 == 0 { edges[(i / 5) % 5] } else { raw })
        })
        .collect()
}

fn upload(dev: &mut Device, d: DataType, id: ObjId, vals: &[i64]) {
    fn up<T: PimScalar>(dev: &mut Device, id: ObjId, vals: &[i64]) {
        let host: Vec<T> = vals.iter().map(|&v| T::from_device(v)).collect();
        dev.copy_to_device(&host, id).unwrap();
    }
    match d {
        DataType::Bool => up::<bool>(dev, id, vals),
        DataType::Int8 => up::<i8>(dev, id, vals),
        DataType::Int16 => up::<i16>(dev, id, vals),
        DataType::Int32 => up::<i32>(dev, id, vals),
        DataType::Int64 => up::<i64>(dev, id, vals),
        DataType::UInt8 => up::<u8>(dev, id, vals),
        DataType::UInt16 => up::<u16>(dev, id, vals),
        DataType::UInt32 => up::<u32>(dev, id, vals),
        DataType::UInt64 => up::<u64>(dev, id, vals),
    }
}

fn download(dev: &mut Device, d: DataType, id: ObjId) -> Vec<i64> {
    fn down<T: PimScalar>(dev: &mut Device, id: ObjId) -> Vec<i64> {
        dev.to_vec::<T>(id)
            .unwrap()
            .into_iter()
            .map(T::to_device)
            .collect()
    }
    match d {
        DataType::Bool => down::<bool>(dev, id),
        DataType::Int8 => down::<i8>(dev, id),
        DataType::Int16 => down::<i16>(dev, id),
        DataType::Int32 => down::<i32>(dev, id),
        DataType::Int64 => down::<i64>(dev, id),
        DataType::UInt8 => down::<u8>(dev, id),
        DataType::UInt16 => down::<u16>(dev, id),
        DataType::UInt32 => down::<u32>(dev, id),
        DataType::UInt64 => down::<u64>(dev, id),
    }
}

/// One device with operands of dtype `d` and length `n` resident, plus
/// their host copies. Select conditions are `Bool`; every other input
/// shares `d`.
struct Fixture {
    dev: Device,
    d: DataType,
    /// `a`, `b`, `x`, `y` in dtype `d`.
    objs: [ObjId; 4],
    host: [Vec<i64>; 4],
    cond: ObjId,
    cond_host: Vec<i64>,
    dst: ObjId,
}

impl Fixture {
    fn new(config: DeviceConfig, d: DataType, n: usize, seed: u64) -> Fixture {
        let mut dev = Device::new(config).unwrap();
        let mut rng = Rng(seed);
        let mut host: [Vec<i64>; 4] = Default::default();
        for h in &mut host {
            *h = operand(&mut rng, d, n);
        }
        // Every third element of `b` equals `a`, so equality compares
        // hit both outcomes.
        for i in (0..n).step_by(3) {
            host[1][i] = host[0][i];
        }
        let cond_host = operand(&mut rng, DataType::Bool, n);
        let objs = host.each_ref().map(|h| {
            let id = dev.alloc(n as u64, d).unwrap();
            upload(&mut dev, d, id, h);
            id
        });
        let cond = dev.alloc_associated(objs[0], DataType::Bool).unwrap();
        upload(&mut dev, DataType::Bool, cond, &cond_host);
        let dst = dev.alloc_associated(objs[0], d).unwrap();
        Fixture {
            dev,
            d,
            objs,
            host,
            cond,
            cond_host,
            dst,
        }
    }

    /// The command's input objects and their host values.
    fn inputs(&self, kind: OpKind) -> Vec<(ObjId, &[i64])> {
        let [a, b, x, y] = self.objs;
        let [ha, hb, hx, hy] = &self.host;
        match kind.input_operands() {
            0 => vec![],
            1 => vec![(a, ha.as_slice())],
            2 => vec![(a, ha.as_slice()), (b, hb.as_slice())],
            3 => vec![
                (self.cond, self.cond_host.as_slice()),
                (x, hx.as_slice()),
                (y, hy.as_slice()),
            ],
            _ => vec![
                (a, ha.as_slice()),
                (b, hb.as_slice()),
                (x, hx.as_slice()),
                (y, hy.as_slice()),
            ],
        }
    }

    /// `eval` applied to every element of the command's host inputs.
    fn expected(&self, kind: OpKind) -> Vec<i64> {
        let ins = self.inputs(kind);
        let n = self.host[0].len();
        (0..n)
            .map(|i| {
                let args: Vec<i64> = ins.iter().map(|(_, h)| h[i]).collect();
                cmd::eval(kind, self.d, &args)
            })
            .collect()
    }

    fn command(&self, kind: OpKind, inputs: Vec<ObjId>, dst: ObjId) -> PimCommand {
        PimCommand {
            kind,
            inputs,
            dst: Some(dst),
        }
    }

    fn assert_matches(&mut self, what: &str, kind: OpKind, id: ObjId, want: &[i64]) {
        let got = download(&mut self.dev, self.d, id);
        if let Some(i) = (0..want.len()).find(|&i| got[i] != want[i]) {
            panic!(
                "{what}: {kind:?} on {} (n = {}) differs at element {i}: got {}, eval says {}",
                self.d,
                want.len(),
                got[i],
                want[i]
            );
        }
    }

    /// Issues `kind` into the fresh destination and compares.
    fn check_issue(&mut self, kind: OpKind) {
        let want = self.expected(kind);
        let ins = self.inputs(kind).iter().map(|&(o, _)| o).collect();
        let cmd = self.command(kind, ins, self.dst);
        self.dev.issue(cmd).unwrap();
        let dst = self.dst;
        self.assert_matches("issue", kind, dst, &want);
    }

    /// Issues `kind` once per input whose dtype is `d`, writing back
    /// into that input, compares, and restores the input.
    fn check_aliased(&mut self, kind: OpKind) {
        let want = self.expected(kind);
        let ins: Vec<(ObjId, Vec<i64>)> = self
            .inputs(kind)
            .iter()
            .map(|&(o, h)| (o, h.to_vec()))
            .collect();
        for (j, (alias, restore)) in ins.iter().enumerate() {
            if *alias == self.cond && self.d != DataType::Bool {
                continue;
            }
            let ids = ins.iter().map(|&(o, _)| o).collect();
            let cmd = self.command(kind, ids, *alias);
            self.dev.issue(cmd).unwrap();
            self.assert_matches(&format!("aliased input {j}"), kind, *alias, &want);
            let d = if *alias == self.cond {
                DataType::Bool
            } else {
                self.d
            };
            upload(&mut self.dev, d, *alias, restore);
        }
    }

    /// Records `kind` into the destination followed by a `not` of it in
    /// one stream, so the flush runs both as one batched sweep whose
    /// second step reads the first step's chunk-local result.
    fn check_batched(&mut self, kind: OpKind) {
        let want = self.expected(kind);
        let not_want: Vec<i64> = want
            .iter()
            .map(|&v| cmd::eval(OpKind::Not, self.d, &[v]))
            .collect();
        let ins = self.inputs(kind).iter().map(|&(o, _)| o).collect();
        let first = self.command(kind, ins, self.dst);
        let chained = self.dev.alloc_associated(self.objs[0], self.d).unwrap();
        let summary = self
            .dev
            .stream()
            .record(first)
            .record(PimCommand::elementwise1(OpKind::Not, self.dst, chained))
            .flush()
            .unwrap();
        assert_eq!(summary.batched_sweeps, 1, "{kind:?} did not batch");
        let dst = self.dst;
        self.assert_matches("batched", kind, dst, &want);
        self.assert_matches("batched chain", kind, chained, &not_want);
        self.dev.free(chained).unwrap();
    }
}

/// Runs `check` for every dtype × length × kind on `config`, with two
/// workers so the longest length takes the fan-out path.
fn sweep(config: impl Fn() -> DeviceConfig, check: impl Fn(&mut Fixture, OpKind)) {
    exec::with_thread_count(2, || {
        for (s, d) in DTYPES.into_iter().enumerate() {
            for n in LENGTHS {
                let mut fx = Fixture::new(config(), d, n, 0xC0FFEE ^ (s as u64) << 32 ^ n as u64);
                for kind in kinds(d) {
                    check(&mut fx, kind);
                }
            }
        }
    });
}

fn one_shard() -> DeviceConfig {
    DeviceConfig::new(PimTarget::Fulcrum, 1)
}

fn four_shards() -> DeviceConfig {
    DeviceConfig::new(PimTarget::Fulcrum, 4).with_shards(4)
}

#[test]
fn issued_kernels_match_eval_on_every_element() {
    sweep(one_shard, Fixture::check_issue);
}

#[test]
fn sharded_kernels_match_eval_on_every_element() {
    sweep(four_shards, Fixture::check_issue);
}

#[test]
fn aliased_destinations_match_eval_for_every_arity() {
    sweep(one_shard, |fx, kind| {
        if kind.input_operands() > 0 {
            fx.check_aliased(kind);
        }
    });
}

#[test]
fn batched_sweeps_match_eval_on_every_element() {
    sweep(four_shards, Fixture::check_batched);
}

#[test]
fn kind_list_covers_every_elementwise_variant() {
    // Maps each kind to its variant; the match is exhaustive, so a new
    // OpKind fails to compile here until `kinds` is taught about it.
    let variant = |kind: OpKind| match kind {
        OpKind::Binary(_) => 0,
        OpKind::BinaryScalar(..) => 1,
        OpKind::Cmp(_) => 2,
        OpKind::CmpScalar(..) => 3,
        OpKind::Min => 4,
        OpKind::Max => 5,
        OpKind::MinScalar(_) => 6,
        OpKind::MaxScalar(_) => 7,
        OpKind::Not => 8,
        OpKind::Abs => 9,
        OpKind::Popcount => 10,
        OpKind::ShiftL(_) => 11,
        OpKind::ShiftR(_) => 12,
        OpKind::Select => 13,
        OpKind::ScaledAdd(_) => 14,
        OpKind::FusedCmpSelect(_) => 15,
        OpKind::Broadcast(_) => 16,
        OpKind::Copy => 17,
        OpKind::RedSum | OpKind::RedMin | OpKind::RedMax => {
            panic!("reductions are not element-wise")
        }
    };
    let mut seen = [false; 18];
    for kind in kinds(DataType::Int32) {
        seen[variant(kind)] = true;
    }
    assert!(seen.iter().all(|&s| s), "uncovered variants: {seen:?}");
}
