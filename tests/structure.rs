//! The workspace's structural invariants, checked as text: one table of
//! lints over the sources, a check that every library `pub fn` has a caller
//! in shipped code, and the checks that keep DESIGN.md, README.md and the
//! verify skill true to the tree.
//!
//! A lint counts what a `grep` would over a set of files and holds the count
//! to a cap. It reads each file whole or only its *non-test prefix*: the
//! text above the file's first line that starts with `#[cfg(test)]`, because
//! the unit tests below it keep old loops verbatim as oracles. It counts
//! matching lines (`grep -c`), matches (`grep -o … | wc -l`) or, for an
//! invariant no single line shows, hits over a whole file. A word edge
//! is `(^|[^_[:alnum:]])` before a pattern and `\b` after it. The files are
//! the `*.rs` and `Cargo.toml` files under the listed roots. No `target/`
//! directory is read, and neither is this file, whose patterns and fixtures
//! would match every lint.
//!
//! Lower a cap when a site goes; never raise one. Every row carries one line
//! its matcher must count and one it must not, so a lint that silently stops
//! matching fails `lint_fixtures_match`.
//!
//! `cargo test -q --test structure -- --nocapture` prints every count.

use std::fmt;
use std::fs;
use std::path::Path;

/// Which part of each file a lint reads.
#[derive(Clone, Copy)]
enum Scope {
    File,
    /// The text above the file's first line that starts `#[cfg(test)]`.
    NonTest,
}

/// What a lint counts.
#[derive(Clone, Copy)]
enum Unit {
    /// Lines with at least one match.
    Lines,
    /// Matches.
    Hits,
    /// Matches over each file's whole text, for an invariant that no single
    /// line shows; the site is the file.
    Text,
}

#[derive(Clone, Copy)]
enum Cap {
    AtMost(usize),
    Exactly(usize),
}

impl Cap {
    fn holds(self, n: usize) -> bool {
        match self {
            Cap::AtMost(c) => n <= c,
            Cap::Exactly(c) => n == c,
        }
    }
}

impl fmt::Display for Cap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cap::AtMost(c) => write!(f, "cap {c}"),
            Cap::Exactly(c) => write!(f, "must be {c}"),
        }
    }
}

struct Lint {
    /// The invariant, then what is counted.
    name: &'static str,
    /// Files, directories, or paths with one `*` segment.
    files: &'static [&'static str],
    /// Paths left out: equal to an entry, under it, or ending in `/entry`.
    skip: &'static [&'static str],
    scope: Scope,
    unit: Unit,
    /// Matches in one line.
    hits: fn(&str) -> usize,
    cap: Cap,
    /// A line `hits` must count, and one it must not.
    yes: &'static str,
    no: &'static str,
}

const CODE: &[&str] = &["crates", "src", "tests", "examples"];
const CODE_AND_BENCHMARK: &[&str] = &["crates", "src", "tests", "examples", "benchmark"];
const CRATE_SRC: &[&str] = &["crates/*/src"];
const NOTHING: &[&str] = &[];

static LINTS: &[Lint] = &[
    // `Pipeline::forward` + `ExecCtx` is the one door into xmoe-core. The
    // five: the layer pass `padding_free::forward`, `MoeLayer::forward`,
    // `ExpertShard::{forward_segments, forward_segments_pooled}` and
    // `ssmb::forward_ssmb`.
    Lint {
        name: "Core forward surface only goes down: pub fn forward* in crates/core/src",
        files: &["crates/core/src"],
        skip: NOTHING,
        scope: Scope::File,
        unit: Unit::Lines,
        hits: |l| head(l, true, "pub fn forward", false),
        cap: Cap::AtMost(5),
        yes: "    pub fn forward_ep(",
        no: "    fn forward(",
    },
    // `route::EpRoute` serves every expert→rank assignment on both
    // schedules; a second route type or a private copy of the row<->wire
    // helpers is the fork coming back.
    Lint {
        name: "One expert route: ElasticRoute / RouteKind mentions",
        files: CODE,
        skip: NOTHING,
        scope: Scope::File,
        unit: Unit::Lines,
        hits: |l| word(l, &["ElasticRoute", "RouteKind"]),
        cap: Cap::Exactly(0),
        yes: "use xmoe_core::route::ElasticRoute;",
        no: "struct ElasticRouted;",
    },
    Lint {
        name: "One expert route: definitions of fn rows_to_vec under crates/*/src",
        files: CRATE_SRC,
        skip: NOTHING,
        scope: Scope::File,
        unit: Unit::Lines,
        hits: |l| find(l, "fn rows_to_vec", false, true),
        cap: Cap::Exactly(1),
        yes: "pub(crate) fn rows_to_vec(rows: &[f32]) -> Vec<f32> {",
        no: "fn rows_to_vec_into(",
    },
    Lint {
        name: "One expert route: definitions of fn vecs_to_tensor under crates/*/src",
        files: CRATE_SRC,
        skip: NOTHING,
        scope: Scope::File,
        unit: Unit::Lines,
        hits: |l| find(l, "fn vecs_to_tensor", false, true),
        cap: Cap::Exactly(1),
        yes: "fn vecs_to_tensor<'a>(",
        no: "let t = vecs_to_tensor(bufs);",
    },
    Lint {
        name: "One expert route: pub struct *Route under crates/*/src",
        files: CRATE_SRC,
        skip: NOTHING,
        scope: Scope::File,
        unit: Unit::Lines,
        hits: |l| {
            let Some(rest) = l.trim_start().strip_prefix("pub struct ") else {
                return 0;
            };
            ident(rest).ends_with("Route") as usize
        },
        cap: Cap::Exactly(1),
        yes: "pub struct EpRoute {",
        no: "pub struct EpRouter {",
    },
    // Every GEMM tier gives the scalar loops' bits: one fused multiply-add
    // breaks tier == tier and every pinned hash. `unsafe` in ops.rs is the
    // four `#[target_feature]` call sites, each behind CPU detection.
    Lint {
        name: "GEMM microkernels stay FMA-free: mul_add under crates/tensor/src",
        files: &["crates/tensor/src"],
        skip: NOTHING,
        scope: Scope::File,
        unit: Unit::Lines,
        hits: |l| word(l, &["mul_add"]),
        cap: Cap::Exactly(0),
        yes: "acc = a.mul_add(b, acc);",
        no: "let mul_adds = 0;",
    },
    Lint {
        name: "GEMM microkernels stay safe outside the tier call sites: unsafe lines in ops.rs",
        files: &["crates/tensor/src/ops.rs"],
        skip: NOTHING,
        scope: Scope::File,
        unit: Unit::Lines,
        hits: |l| word(l, &["unsafe"]),
        cap: Cap::AtMost(4),
        yes: "        unsafe { nn_avx2(a, b, c) }",
        no: "// unsafety lives in one place",
    },
    // The grouped engine in par.rs is the one GEMM scheduler: a dense
    // product is a grouped call over one segment, so the choice between the
    // caller's thread and the pool is made there only. A cutoff test in
    // ops.rs is a second scheduler coming back.
    Lint {
        name: "One GEMM scheduler: PAR_CUTOFF / is_parallel( in ops.rs",
        files: &["crates/tensor/src/ops.rs"],
        skip: NOTHING,
        scope: Scope::NonTest,
        unit: Unit::Lines,
        hits: |l| word(l, &["PAR_CUTOFF"]) + find(l, "is_parallel(", true, false),
        cap: Cap::Exactly(0),
        yes: "    if !crate::par::pool().is_parallel() || m * n * k < crate::par::PAR_CUTOFF {",
        no: "    crate::par::gemm_grouped(a, &[m], k, |_| b, n, c);",
    },
    Lint {
        name: "GEMM microkernels: definitions of fn acc_tile in ops.rs",
        files: &["crates/tensor/src/ops.rs"],
        skip: NOTHING,
        scope: Scope::File,
        unit: Unit::Lines,
        hits: |l| head(l, false, "fn acc_tile", true),
        cap: Cap::Exactly(1),
        yes: "fn acc_tile<TA: ReadA, const MR: usize, const NR: usize, S: Store>(",
        no: "    fn acc_tile(",
    },
    // Attention's six per-head products are `gemm_view` calls and every
    // weight gradient is `matmul_transpose_a_add`; a `.transpose()` is the
    // old transpose + matmul + add coming back.
    Lint {
        name: "The dense block stays on the tile family: .transpose() in attention.rs",
        files: &["crates/train/src/attention.rs"],
        skip: NOTHING,
        scope: Scope::NonTest,
        unit: Unit::Lines,
        hits: |l| sub(l, &[".transpose()"]),
        cap: Cap::Exactly(0),
        yes: "let kt = k.transpose();",
        no: "matmul_transpose_a_add(&x, &d, &mut g);",
    },
    Lint {
        name: "The dense block stays on the tile family: .transpose() in layers.rs",
        files: &["crates/train/src/layers.rs"],
        skip: NOTHING,
        scope: Scope::NonTest,
        unit: Unit::Lines,
        hits: |l| sub(l, &[".transpose()"]),
        cap: Cap::Exactly(0),
        yes: "let xt = x.transpose();",
        no: "let xt = transpose(x);",
    },
    Lint {
        name: "The dense block stays on the tile family: .transpose() in moe_math.rs",
        files: &["crates/train/src/moe_math.rs"],
        skip: NOTHING,
        scope: Scope::NonTest,
        unit: Unit::Lines,
        hits: |l| sub(l, &[".transpose()"]),
        cap: Cap::Exactly(0),
        yes: "let gt = g.transpose();",
        no: "gemm_grouped_transpose_a(x, d, counts, grads);",
    },
    // The one GELU calls the in-repo rational `xmoe_tensor::ops::tanh`; a
    // `.tanh()` is a libm call per element coming back.
    Lint {
        name: "GELU stays off libm: .tanh() under crates/*/src",
        files: CRATE_SRC,
        skip: NOTHING,
        scope: Scope::NonTest,
        unit: Unit::Lines,
        hits: |l| sub(l, &[".tanh()"]),
        cap: Cap::Exactly(0),
        yes: "let t = (c * x).tanh();",
        no: "let t = tanh(c * x);",
    },
    // Every activation, saved tensor and temporary of the train step is a
    // lease of the per-rank arena. What is left is constructors,
    // checkpoint capture/restore, the one arena `new_with_assignment` makes
    // and two `Range::clone`s in attention.rs.
    Lint {
        name: "The train step leases its buffers: owned tensors / throwaway arenas in dist.rs",
        files: &["crates/train/src/dist.rs"],
        skip: NOTHING,
        scope: Scope::NonTest,
        unit: Unit::Lines,
        hits: owned_or_throwaway,
        cap: Cap::AtMost(8),
        yes: "let ws = Workspace::default();",
        no: "let t = ws.take(rows, cols);",
    },
    Lint {
        name: "The train step leases its buffers: owned tensors / throwaway arenas in layers.rs",
        files: &["crates/train/src/layers.rs"],
        skip: NOTHING,
        scope: Scope::NonTest,
        unit: Unit::Lines,
        hits: owned_or_throwaway,
        cap: Cap::AtMost(7),
        yes: "let g = Tensor::zeros(rows, cols);",
        no: "let g = ws.take_for_overwrite(rows, cols);",
    },
    Lint {
        name: "The train step leases its buffers: owned tensors / throwaway arenas in attention.rs",
        files: &["crates/train/src/attention.rs"],
        skip: NOTHING,
        scope: Scope::NonTest,
        unit: Unit::Lines,
        hits: owned_or_throwaway,
        cap: Cap::AtMost(6),
        yes: "let saved = x.clone();",
        no: "let saved = ws.take(x.rows(), x.cols());",
    },
    Lint {
        name: "The train step leases its buffers: owned tensors / throwaway arenas in route.rs",
        files: &["crates/core/src/route.rs"],
        skip: NOTHING,
        scope: Scope::NonTest,
        unit: Unit::Lines,
        hits: owned_or_throwaway,
        cap: Cap::AtMost(0),
        yes: "let mut ws = Workspace::new();",
        no: "let buf = ws.take_f32(rows * h);",
    },
    // The arena picks a free buffer by the size a lease asks for; an
    // unsized lease filled by `extend` re-grows the smallest one behind
    // the arena's back.
    Lint {
        name: "Every arena lease is sized: take_f32(0) / take(0, 0) / take_u64(0) under crates/*/src",
        files: CRATE_SRC,
        skip: NOTHING,
        scope: Scope::NonTest,
        unit: Unit::Lines,
        hits: |l| sub(l, &["take_f32(0)", "take(0, 0)", "take_u64(0)"]),
        cap: Cap::Exactly(0),
        yes: "let mut buf = ws.take_f32(0);",
        no: "let mut buf = ws.take_f32(rows * h);",
    },
    // The single-process model is `DistMoeLm` on a one-rank world and its
    // parameter set is written once, in dist.rs's `walk`.
    Lint {
        name: "One model, one walk: MoeLm mentions",
        files: CODE,
        skip: NOTHING,
        scope: Scope::File,
        unit: Unit::Lines,
        hits: |l| word(l, &["MoeLm"]),
        cap: Cap::Exactly(0),
        yes: "let model = MoeLm::new(&cfg);",
        no: "let model = DistMoeLm::new(&cfg, comm);",
    },
    Lint {
        name: "One model, one walk: format!(\"block..\") sites in crates/train/src",
        files: &["crates/train/src"],
        skip: NOTHING,
        scope: Scope::File,
        unit: Unit::Lines,
        hits: |l| sub(l, &["format!(\"block"]),
        cap: Cap::AtMost(0),
        yes: "names.push(format!(\"block{i}.attn.wq\"));",
        no: "names.push(id.to_string());",
    },
    Lint {
        name: "One model, one walk: fn visit_grads_mut / is_replicated_grad",
        files: CODE,
        skip: NOTHING,
        scope: Scope::File,
        unit: Unit::Lines,
        hits: |l| sub(l, &["fn visit_grads_mut", "is_replicated_grad"]),
        cap: Cap::Exactly(0),
        yes: "    fn visit_grads_mut(&mut self, f: impl FnMut(&mut Tensor)) {",
        no: "        if id.is_replicated() {",
    },
    // The spin-then-park mailboxes replaced the std channel matrix, and
    // the wake-up protocol stays in safe Rust.
    Lint {
        name: "One rank transport: mpsc mentions under crates/*/src",
        files: CRATE_SRC,
        skip: NOTHING,
        scope: Scope::File,
        unit: Unit::Lines,
        hits: |l| word(l, &["mpsc"]),
        cap: Cap::Exactly(0),
        yes: "use std::sync::mpsc;",
        no: "// one mpsc_free mailbox per pair",
    },
    Lint {
        name: "One rank transport, safe Rust: unsafe lines in crates/collectives/src",
        files: &["crates/collectives/src"],
        skip: NOTHING,
        scope: Scope::File,
        unit: Unit::Lines,
        hits: |l| word(l, &["unsafe"]),
        cap: Cap::Exactly(0),
        yes: "unsafe impl Sync for Slot {}",
        no: "// no unsafe_code here",
    },
    // The panic census: non-test unwrap / expect / panic! / unreachable! per
    // library crate. `every_library_crate_has_a_census_cap` holds one row
    // per crate.
    Lint {
        name: "Panic census: crates/bench/src",
        files: &["crates/bench/src"],
        skip: NOTHING,
        scope: Scope::NonTest,
        unit: Unit::Lines,
        hits: panics,
        cap: Cap::AtMost(36),
        yes: "let v = it.next().unwrap();",
        no: "let v = it.next().unwrap_or(0);",
    },
    Lint {
        name: "Panic census: crates/collectives/src",
        files: &["crates/collectives/src"],
        skip: NOTHING,
        scope: Scope::NonTest,
        unit: Unit::Lines,
        hits: panics,
        cap: Cap::AtMost(2),
        yes: "panic!(\"overlap regions do not nest\");",
        no: "return Err(CommError::Diverged { op, rank });",
    },
    Lint {
        name: "Panic census: crates/core/src",
        files: &["crates/core/src"],
        skip: NOTHING,
        scope: Scope::NonTest,
        unit: Unit::Lines,
        hits: panics,
        cap: Cap::AtMost(6),
        yes: "let s = state.expect(\"pooled state\");",
        no: "let s = state.ok_or(PipelineError::MissingCtx(\"state\"))?;",
    },
    Lint {
        name: "Panic census: crates/serve/src",
        files: &["crates/serve/src"],
        skip: NOTHING,
        scope: Scope::NonTest,
        unit: Unit::Lines,
        hits: panics,
        cap: Cap::AtMost(2),
        yes: "_ => unreachable!(),",
        no: "let max = loads.iter().max().unwrap_or(&0);",
    },
    Lint {
        name: "Panic census: crates/tensor/src",
        files: &["crates/tensor/src"],
        skip: NOTHING,
        scope: Scope::NonTest,
        unit: Unit::Lines,
        hits: panics,
        cap: Cap::AtMost(17),
        yes: "let guard = lock.lock().unwrap();",
        no: "let guard = lock.lock().unwrap_or_else(PoisonError::into_inner);",
    },
    Lint {
        name: "Panic census: crates/topology/src",
        files: &["crates/topology/src"],
        skip: NOTHING,
        scope: Scope::NonTest,
        unit: Unit::Lines,
        hits: panics,
        cap: Cap::AtMost(4),
        yes: "let n: usize = v.parse().expect(\"a count\");",
        no: "let n: usize = v.parse().map_err(|_| bad(key))?;",
    },
    Lint {
        name: "Panic census: crates/train/src",
        files: &["crates/train/src"],
        skip: NOTHING,
        scope: Scope::NonTest,
        unit: Unit::Lines,
        hits: panics,
        cap: Cap::AtMost(8),
        yes: "    panic!(\"dead peer without a fault plan\");",
        no: "    return Err(e);",
    },
    // The gate (`gating::gate_rows`) and the expert FFN forward
    // (`expert::expert_ffn`) are written once, outside the tensor crate
    // (which defines the kernels) and `bench gemm` (which times them).
    Lint {
        name: "One MoE layer math: gemm_grouped( calls",
        files: CRATE_SRC,
        skip: LAYER_MATH_SKIP,
        scope: Scope::NonTest,
        unit: Unit::Lines,
        hits: |l| sub(l, &["gemm_grouped("]),
        cap: Cap::Exactly(2),
        yes: "    gemm_grouped(xy, counts, &w1s, h_pre);",
        no: "    gemm_grouped_transpose_b(d, counts, &w2s, dz);",
    },
    Lint {
        name: "One MoE layer math: gemm_grouped( calls in core/src/expert.rs",
        files: &["crates/core/src/expert.rs"],
        skip: NOTHING,
        scope: Scope::NonTest,
        unit: Unit::Lines,
        hits: |l| sub(l, &["gemm_grouped("]),
        cap: Cap::Exactly(2),
        yes: "    gemm_grouped(h_act, counts, &w2s, xy);",
        no: "    gemm_grouped_transpose_a(x, d, counts, g);",
    },
    Lint {
        name: "One MoE layer math: topk_rows_into( calls (in gating::gate_rows)",
        files: CRATE_SRC,
        skip: LAYER_MATH_SKIP,
        scope: Scope::NonTest,
        unit: Unit::Lines,
        hits: |l| sub(l, &["topk_rows_into("]),
        cap: Cap::Exactly(1),
        yes: "    topk_rows_into(scores, k, &mut out.experts, &mut out.weights);",
        no: "    topk_row(scores, k)",
    },
    Lint {
        name: "One MoE layer math: (Tensor, Tensor) in crates/train/src",
        files: &["crates/train/src"],
        skip: NOTHING,
        scope: Scope::NonTest,
        unit: Unit::Lines,
        hits: |l| sub(l, &["(Tensor, Tensor)"]),
        cap: Cap::Exactly(0),
        yes: "    experts: Vec<(Tensor, Tensor)>,",
        no: "    experts: Vec<Expert>,",
    },
    Lint {
        name: "One MoE layer math: expert_ffn_forward / ExpertWeights / RouteScratch / HierarchicalComm",
        files: CODE_AND_BENCHMARK,
        skip: NOTHING,
        scope: Scope::File,
        unit: Unit::Lines,
        hits: |l| {
            word(
                l,
                &["expert_ffn_forward", "ExpertWeights", "RouteScratch", "HierarchicalComm"],
            )
        },
        cap: Cap::Exactly(0),
        yes: "use crate::moe_math::expert_ffn_forward;",
        no: "use xmoe_core::expert::expert_ffn_forward_pooled;",
    },
    // The whole layer pass is one body: the forward is
    // `padding_free::forward`, the backward `moe_math::backward`; a second
    // call of any of the six below is a copy of the sequence coming back.
    Lint {
        name: "One MoE layer math: calls of scatter_rows_scaled(",
        files: CRATE_SRC,
        skip: LAYER_MATH_SKIP,
        scope: Scope::NonTest,
        unit: Unit::Lines,
        hits: |l| call(l, "scatter_rows_scaled"),
        cap: Cap::Exactly(1),
        yes: "        scatter_rows_scaled(rows, &pft.eri, &pft.weights, out);",
        no: "pub fn scatter_rows_scaled(rows: &[f32], out: &mut [f32]) {",
    },
    Lint {
        name: "One MoE layer math: calls of scatter_rows_unit(",
        files: CRATE_SRC,
        skip: LAYER_MATH_SKIP,
        scope: Scope::NonTest,
        unit: Unit::Lines,
        hits: |l| call(l, "scatter_rows_unit"),
        cap: Cap::Exactly(1),
        yes: "    scatter_rows_unit(&d_rows, &pft.eri, d_x);",
        no: "    my_scatter_rows_unit(&d_rows, &pft.eri, d_x);",
    },
    Lint {
        name: "One MoE layer math: calls of Pft::construct_into(",
        files: CRATE_SRC,
        skip: LAYER_MATH_SKIP,
        scope: Scope::NonTest,
        unit: Unit::Lines,
        hits: |l| call(l, "Pft::construct_into"),
        cap: Cap::Exactly(1),
        yes: "    Pft::construct_into(&gating, spec, scratch, &mut route.pft);",
        no: "    Pft::construct(&gating, spec);",
    },
    // The combine backward runs inside the experts' `d_h` GEMM
    // (`RowSink::DotScale`): `d_w = ⟨d_out[t]·W2ᵀ, h_act⟩`, so no transport
    // keeps the expert outputs `y` for the backward, and the sink has one
    // caller, the one layer backward's FFN backward.
    Lint {
        name: "No transport saves expert outputs: .combine_in / combine_in: in crates/{core,train}/src",
        files: &["crates/core/src", "crates/train/src"],
        skip: NOTHING,
        scope: Scope::NonTest,
        unit: Unit::Lines,
        hits: |l| sub(l, &[".combine_in", "combine_in:"]),
        cap: Cap::Exactly(0),
        yes: "        Some(saves) => saves.combine_in = combine_in,",
        no: "        ws.recycle(combine_in);",
    },
    Lint {
        name: "One combine backward: RowSink::DotScale { outside crates/tensor/src (in moe_math.rs)",
        files: CRATE_SRC,
        skip: &["crates/tensor/src"],
        scope: Scope::NonTest,
        unit: Unit::Lines,
        hits: |l| sub(l, &["RowSink::DotScale {"]),
        cap: Cap::Exactly(1),
        yes: "    let d_act = RowSink::DotScale { act: h_act, w };",
        no: "/// over `h_act` ([`RowSink::DotScale`]); then SiLU',",
    },
    Lint {
        name: "One MoE layer math: calls of expert_ffn_backward(",
        files: CRATE_SRC,
        skip: LAYER_MATH_SKIP,
        scope: Scope::NonTest,
        unit: Unit::Lines,
        hits: |l| call(l, "expert_ffn_backward"),
        cap: Cap::Exactly(1),
        yes: "        expert_ffn_backward(experts, counts, saves, rows, grads);",
        no: "        expert_ffn(experts, counts, xy, h_pre, h_act);",
    },
    Lint {
        name: "One MoE layer math: calls of router_backward(",
        files: CRATE_SRC,
        skip: LAYER_MATH_SKIP,
        scope: Scope::NonTest,
        unit: Unit::Lines,
        hits: |l| call(l, "router_backward"),
        cap: Cap::Exactly(1),
        yes: "    router_backward(&d_w, gate, x, ws);",
        no: "    my_router_backward(&d_w, gate, x, ws);",
    },
    Lint {
        name: "One MoE layer math: moe_math::route mentions",
        files: CODE_AND_BENCHMARK,
        skip: NOTHING,
        scope: Scope::File,
        unit: Unit::Lines,
        hits: |l| sub(l, &["moe_math::route"]),
        cap: Cap::Exactly(0),
        yes: "    let r = moe_math::route(x, gate, spec);",
        no: "    let r = moe_math::backward(x, saves);",
    },
    // RBD (§4.2) is the third transport of the one layer pass, its steps on
    // the crate-private `RbdScratch`; a standalone RBD forward or a second
    // gate + PFT + gather call is a third layer body coming back.
    Lint {
        name: "One MoE layer pass, RBD included: forward_ep_rbd_impl mentions",
        files: CODE_AND_BENCHMARK,
        skip: NOTHING,
        scope: Scope::File,
        unit: Unit::Lines,
        hits: |l| word(l, &["forward_ep_rbd_impl"]),
        cap: Cap::Exactly(0),
        yes: "        rbd::forward_ep_rbd_impl(tokens, router, experts, ctx)",
        no: "        rbd::forward_ep_rbd_impl_v2(tokens)",
    },
    Lint {
        name: "One MoE layer pass, RBD included: gate_and_gather( calls (in padding_free::forward)",
        files: CRATE_SRC,
        skip: NOTHING,
        scope: Scope::NonTest,
        unit: Unit::Lines,
        hits: |l| (l.contains("gate_and_gather(") && !l.contains("fn gate_and_gather(")) as usize,
        cap: Cap::Exactly(1),
        yes: "    gate_and_gather(tokens, gate, spec, state, lease, transport.meter());",
        no: "pub(crate) fn gate_and_gather(",
    },
    Lint {
        name: "One MoE layer pass, RBD included: pub(crate) struct RbdScratch in rbd.rs",
        files: &["crates/core/src/rbd.rs"],
        skip: NOTHING,
        scope: Scope::File,
        unit: Unit::Lines,
        hits: |l| head(l, false, "pub(crate) struct RbdScratch", true),
        cap: Cap::Exactly(1),
        yes: "pub(crate) struct RbdScratch {",
        no: "pub struct RbdScratch {",
    },
    // RBD copies a row only to send it or to feed an expert: S0 packs the
    // pilots straight from the tokens and the merge reads straight from the
    // wire buffers. A gather or a flat lease is a PFT-order or staging copy
    // of the routed rows coming back.
    Lint {
        name: "RBD ships its pilots straight from the tokens: gather_rows_into( / take_f32( in rbd.rs",
        files: &["crates/core/src/rbd.rs"],
        skip: NOTHING,
        scope: Scope::NonTest,
        unit: Unit::Hits,
        hits: |l| find(l, "gather_rows_into(", true, false) + find(l, "take_f32(", true, false),
        cap: Cap::Exactly(0),
        yes: "        let mut staging = ws.take_f32(n_rows * hidden);",
        no: "        let mut expert_input = ws.take_for_overwrite(n_rows, hidden);",
    },
    // The expert stage writes its outputs over the dispatch rows it reads,
    // the block kernel strips its padding back into its input, and the
    // combine backward writes `d_y` over the saved expert outputs. A
    // separate output lease is an [n, H] routed-row buffer coming back.
    // Comments count too; a `std::mem::take(` is a move, not a lease.
    Lint {
        name: "The layer pass computes in place: take( / take_for_overwrite( in padding_free.rs",
        files: &["crates/core/src/pipeline/padding_free.rs"],
        skip: NOTHING,
        scope: Scope::NonTest,
        unit: Unit::Hits,
        hits: leases,
        cap: Cap::AtMost(5),
        yes: "    let y = ws.take_for_overwrite(n, h);",
        no: "    let y = ws.my_take(n, h);",
    },
    Lint {
        name: "The layer pass computes in place: take( / take_for_overwrite( in block_sparse.rs",
        files: &["crates/core/src/pipeline/block_sparse.rs"],
        skip: NOTHING,
        scope: Scope::NonTest,
        unit: Unit::Hits,
        hits: leases,
        cap: Cap::AtMost(2),
        yes: "    let out = ws.take(rows, h);",
        no: "    let idx = ws.take_idx(rows);",
    },
    Lint {
        name: "The layer pass computes in place: take( / take_for_overwrite( in moe_math.rs",
        files: &["crates/train/src/moe_math.rs"],
        skip: NOTHING,
        scope: Scope::NonTest,
        unit: Unit::Hits,
        hits: leases,
        cap: Cap::AtMost(5),
        yes: "    let d_y = ws.take(n, h);",
        no: "    let d_y = ws.retake(n, h);",
    },
    // Under `Local` the expert input is the layer input read by token id
    // (`RowSource::Gathered`, which the TN kernel packs one expert at a
    // time); a gather in the backward is the `[n, H]` copy coming back.
    Lint {
        name: "The local backward re-reads the tokens: gather_rows_into( in moe_math.rs",
        files: &["crates/train/src/moe_math.rs"],
        skip: NOTHING,
        scope: Scope::NonTest,
        unit: Unit::Hits,
        hits: |l| find(l, "gather_rows_into(", true, false),
        cap: Cap::Exactly(0),
        yes: "    gather_rows_into(&ctx.x, &pft.token_ids, &mut input);",
        no: "    let input = RowSource::Gathered { src: x, ids };",
    },
    // Every MoE stage's simulated time is a function in price.rs; a
    // compute_time( / mem_bound_time( call elsewhere in core or train is a
    // second price. schedule.rs's `pp_fwd` prices a whole stage chunk and
    // has no analytic twin.
    Lint {
        name: "One price list: compute_time( / mem_bound_time( in crates/{core,train}/src",
        files: &["crates/core/src", "crates/train/src"],
        skip: &["price.rs", "pipeline/schedule.rs"],
        scope: Scope::NonTest,
        unit: Unit::Hits,
        hits: |l| sub(l, &["compute_time(", "mem_bound_time("]),
        cap: Cap::Exactly(0),
        yes: "    let t = cost.compute_time(flops);",
        no: "    let t = price::membound(cost, bytes, 1.0);",
    },
    // A backward compute stage costs `price::backward` of its forward price:
    // the stage list, the live backward's charges and the 1F1B `pp_bwd` call
    // it, so the factor is named nowhere else.
    Lint {
        name: "One backward price: BWD_COMPUTE_FACTOR in crates/{core,train}/src outside price.rs",
        files: &["crates/core/src", "crates/train/src"],
        skip: &["price.rs"],
        scope: Scope::NonTest,
        unit: Unit::Lines,
        hits: |l| word(l, &["BWD_COMPUTE_FACTOR"]),
        cap: Cap::Exactly(0),
        yes: "use xmoe_core::price::{self, BWD_COMPUTE_FACTOR as BWD, F32};",
        no: "    meter.charge(\"bwd_gating\", |c| bwd(price::gating(c, s, h, e, k)));",
    },
    Lint {
        name: "One price list: fn copy_time / expert_flops / charge_compute in crates/{core,collectives}",
        files: &["crates/core", "crates/collectives"],
        skip: NOTHING,
        scope: Scope::File,
        unit: Unit::Lines,
        hits: |l| {
            ["fn copy_time", "fn expert_flops", "fn charge_compute"]
                .iter()
                .map(|p| find(l, p, false, true))
                .sum()
        },
        cap: Cap::Exactly(0),
        yes: "pub fn expert_flops(h: f64, f: f64) -> f64 {",
        no: "pub fn expert_flops_total(h: f64) -> f64 {",
    },
    // The chaos engine builds its model in one `load` (start, restore,
    // join), and the rebalance commit is `RebalancePolicy::close_window`.
    // `chaos_builds_its_model_only_in_load` holds both constructor calls
    // inside `load`.
    Lint {
        name: "One chaos rebuild path: DistMoeLm constructor calls in chaos.rs",
        files: &["crates/train/src/chaos.rs"],
        skip: NOTHING,
        scope: Scope::NonTest,
        unit: Unit::Lines,
        hits: model_builds,
        cap: Cap::AtMost(2),
        yes: "        DistMoeLm::from_checkpoint(cfg, image, comm)",
        no: "        DistMoeLm::capture_checkpoint(&model)",
    },
    Lint {
        name: "One chaos rebuild path: bias_router( in chaos.rs",
        files: &["crates/train/src/chaos.rs"],
        skip: NOTHING,
        scope: Scope::NonTest,
        unit: Unit::Lines,
        hits: |l| sub(l, &["bias_router("]),
        cap: Cap::AtMost(2),
        yes: "        model.bias_router(layer, hot, bias);",
        no: "        model.router_bias();",
    },
    Lint {
        name: "One chaos rebuild path: set_route_tracking( in chaos.rs",
        files: &["crates/train/src/chaos.rs"],
        skip: NOTHING,
        scope: Scope::NonTest,
        unit: Unit::Lines,
        hits: |l| sub(l, &["set_route_tracking("]),
        cap: Cap::AtMost(1),
        yes: "        model.set_route_tracking(true);",
        no: "        model.route_tracking();",
    },
    Lint {
        name: "One chaos rebuild path: observe_window( / p2p_time( in chaos.rs and crates/bench/src",
        files: &["crates/train/src/chaos.rs", "crates/bench/src"],
        skip: NOTHING,
        scope: Scope::NonTest,
        unit: Unit::Lines,
        hits: |l| sub(l, &["observe_window(", "p2p_time("]),
        cap: Cap::Exactly(0),
        yes: "    let t = cost.p2p_time(src, dst, bytes);",
        no: "    let d = policy.close_window(&mut model, comm);",
    },
    // Every BENCH_*.json is written by `spine::render` and judged by the
    // bench's one `gates` list over `spine::parse`.
    Lint {
        name: "One BENCH_*.json writer and validator: render_*json / validate* fns outside spine.rs",
        files: &["src", "crates/bench/src"],
        skip: &["spine.rs"],
        scope: Scope::File,
        unit: Unit::Lines,
        hits: |l| {
            l.match_indices("fn ")
                .filter(|(i, m)| {
                    let rest = &l[i + m.len()..];
                    let id = ident(rest);
                    rest[id.len()..].starts_with('(')
                        && (id.starts_with("validate")
                            || (id.starts_with("render_") && id.ends_with("json") && id.len() >= 11))
                })
                .count()
        },
        cap: Cap::Exactly(0),
        yes: "pub fn render_mapping_json(records: &[Rec]) -> String {",
        no: "pub fn render(records: &[Record]) -> String {",
    },
    // The paper's tables and figures and the GEMM timings are entries of the
    // spine's registry, not binaries. `bench_has_no_binaries` holds
    // crates/bench/src/bin empty.
    Lint {
        name: "One door for every bench: Command::new under crates/bench/src",
        files: &["crates/bench/src"],
        skip: NOTHING,
        scope: Scope::File,
        unit: Unit::Lines,
        hits: |l| sub(l, &["Command::new"]),
        cap: Cap::Exactly(0),
        yes: "    let out = Command::new(exe).env(\"XMOE_THREADS\", \"1\").output();",
        no: "    let out = spine::drive(bench, args);",
    },
    Lint {
        name: "One door for every bench: [[bench]] stanzas in any Cargo.toml",
        files: &["Cargo.toml", "crates/*/Cargo.toml", "benchmark/Cargo.toml"],
        skip: NOTHING,
        scope: Scope::File,
        unit: Unit::Lines,
        hits: |l| head(l, false, "[[bench]]", false),
        cap: Cap::Exactly(0),
        yes: "[[bench]]",
        no: "[[bin]]",
    },
    // `Scope::NonTest` and the caller scan read a file above its first
    // `#[cfg(test)]`: shipped code below that line is code no lint sees.
    Lint {
        name: "Shipped code sits above the tests: top-level items below a file's first #[cfg(test)] without their own",
        files: CODE_AND_BENCHMARK,
        skip: NOTHING,
        scope: Scope::File,
        unit: Unit::Text,
        hits: untested_items_below_first_cfg_test,
        cap: Cap::Exactly(0),
        yes: "pub mod clock;\n#[cfg(test)]\n#[path = \"../tests/common/mod.rs\"]\nmod common;\nmod mailbox;\n",
        no: "mod mailbox;\n\n#[cfg(test)]\n#[path = \"../tests/common/mod.rs\"]\nmod common;\n/// Doc.\n#[cfg(test)]\nfn oracle() {\n}\n",
    },
    // A counting allocator is an opt-in of a test binary or of the benchmark
    // harness; the library and the CLI run on the system allocator.
    Lint {
        name: "No counting allocator in shipped code: #[global_allocator] outside tests/, crates/*/tests and benchmark/src",
        files: &["crates/*/src", "src", "examples", "benchmark"],
        skip: &["benchmark/src"],
        scope: Scope::File,
        unit: Unit::Lines,
        hits: |l| head(l, true, "#[global_allocator]", false),
        cap: Cap::Exactly(0),
        yes: "#[global_allocator]",
        no: "//! #[global_allocator]",
    },
];

/// The layer math is counted outside the tensor crate, which defines the
/// kernels, and `bench gemm`, which times them.
const LAYER_MATH_SKIP: &[&str] = &["crates/tensor", "crates/bench/src/gemm.rs"];

fn is_word(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// The identifier `s` starts with.
fn ident(s: &str) -> &str {
    &s[..s.find(|c: char| !is_word(c)).unwrap_or(s.len())]
}

/// Matches of `pat` in `line`, each with a word edge before it when
/// `before` and after it when `after`. As in `(^|[^_[:alnum:]])pat`, the
/// character before a match belongs to it, so two matches cannot share it.
fn find(line: &str, pat: &str, before: bool, after: bool) -> usize {
    let (mut n, mut end) = (0, 0);
    for (i, _) in line.match_indices(pat) {
        let edge = match line[..i].chars().next_back() {
            Some(c) => !is_word(c) && i - c.len_utf8() >= end,
            None => true,
        };
        let tail = line[i + pat.len()..].chars().next();
        if (!before || edge) && (!after || tail.is_none_or(|c| !is_word(c))) {
            n += 1;
            end = i + pat.len();
        }
    }
    n
}

/// Matches of any of `pats` (`grep -F`).
fn sub(line: &str, pats: &[&str]) -> usize {
    pats.iter().map(|p| line.matches(p).count()).sum()
}

/// Whole-word matches of any of `pats` (`grep -w`).
fn word(line: &str, pats: &[&str]) -> usize {
    pats.iter().map(|p| find(line, p, true, true)).sum()
}

/// `line` starts with `pat`, after any indent when `indent`, and `pat` ends
/// a word when `after`.
fn head(line: &str, indent: bool, pat: &str, after: bool) -> usize {
    let t = if indent { line.trim_start() } else { line };
    let tail = t.strip_prefix(pat).map(|r| r.chars().next());
    matches!(tail, Some(c) if !after || c.is_none_or(|c| !is_word(c))) as usize
}

/// A call `name(` with a word edge before it, on a line that does not
/// define `fn name(`.
fn call(line: &str, name: &str) -> usize {
    let open = format!("{name}(");
    (find(line, &open, true, false) > 0 && !line.contains(&format!("fn {open}"))) as usize
}

fn owned_or_throwaway(l: &str) -> usize {
    sub(
        l,
        &[
            "Tensor::zeros(",
            ".clone()",
            "Workspace::default()",
            "Workspace::new()",
        ],
    )
}

fn panics(l: &str) -> usize {
    sub(l, &[".unwrap()", ".expect(", "panic!(", "unreachable!("])
}

/// Arena leases: `take(` and `take_for_overwrite(` calls, but not
/// `std::mem::take(`, which moves a value out and leases nothing.
fn leases(l: &str) -> usize {
    let moves = l.matches("mem::take(").count();
    find(l, "take(", true, false) - moves + find(l, "take_for_overwrite(", true, false)
}

fn model_builds(l: &str) -> usize {
    sub(l, &["DistMoeLm::new", "DistMoeLm::from_checkpoint"])
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &str) -> String {
    fs::read_to_string(root().join(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Repo-relative paths under `dir`, sorted: every file when `all`, else the
/// `*.rs` and `Cargo.toml` files. `target/` directories and this file are
/// left out.
fn walk(dir: &str, all: bool, out: &mut Vec<String>) {
    let Ok(entries) = fs::read_dir(root().join(dir)) else {
        return;
    };
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .collect();
    names.sort();
    for name in names {
        let path = format!("{dir}/{name}");
        if root().join(&path).is_dir() {
            if name != "target" {
                walk(&path, all, out);
            }
        } else if path != "tests/structure.rs"
            && (all || name.ends_with(".rs") || name == "Cargo.toml")
        {
            out.push(path);
        }
    }
}

/// The files a lint reads.
fn files(lint: &Lint) -> Vec<String> {
    let mut out = files_under(lint.files);
    out.retain(|p| {
        !lint
            .skip
            .iter()
            .any(|s| p == s || p.starts_with(&format!("{s}/")) || p.ends_with(&format!("/{s}")))
    });
    out
}

/// The files under `patterns`: files, directories, or paths with one `*`
/// segment, which stands for each entry of the directory before it.
fn files_under(patterns: &[&str]) -> Vec<String> {
    let mut roots = Vec::new();
    for r in patterns {
        match r.split_once("/*/") {
            Some((dir, rest)) => {
                let mut subdirs = Vec::new();
                for e in fs::read_dir(root().join(dir))
                    .into_iter()
                    .flatten()
                    .flatten()
                {
                    if e.path().is_dir() {
                        subdirs.push(format!("{dir}/{}/{rest}", e.file_name().to_string_lossy()));
                    }
                }
                subdirs.sort();
                roots.extend(subdirs);
            }
            None => roots.push(r.to_string()),
        }
    }
    let mut out = Vec::new();
    for r in roots {
        if root().join(&r).is_file() {
            out.push(r);
        } else {
            walk(&r, false, &mut out);
        }
    }
    out
}

/// The text above the first line that starts `#[cfg(test)]`.
fn non_test(text: &str) -> &str {
    let mut at = 0;
    for line in text.split_inclusive('\n') {
        if line.starts_with("#[cfg(test)]") {
            return &text[..at];
        }
        at += line.len();
    }
    text
}

/// Top-level items below the first line that starts `#[cfg(test)]` without
/// a `#[cfg(test)]` of their own. An item starts at column 0 with a letter;
/// attributes, comments and blank lines between it and its `#[cfg(test)]`
/// keep that attribute pending.
fn untested_items_below_first_cfg_test(text: &str) -> usize {
    let lines = text.lines().skip_while(|l| !l.starts_with("#[cfg(test)]"));
    let (mut n, mut tested) = (0, false);
    for l in lines {
        if l.starts_with("#[cfg(test)]") {
            tested = true;
        } else if l.starts_with(|c: char| c.is_ascii_alphabetic()) {
            n += !tested as usize;
            tested = false;
        }
    }
    n
}

/// A lint's count and the `path:line` of every line that adds to it.
fn count(lint: &Lint) -> (usize, Vec<String>) {
    let paths = files(lint);
    assert!(
        !paths.is_empty(),
        "{}: no files under {:?}",
        lint.name,
        lint.files
    );
    let (mut n, mut sites) = (0, Vec::new());
    for path in paths {
        let text = read(&path);
        let text = match lint.scope {
            Scope::File => &text[..],
            Scope::NonTest => non_test(&text),
        };
        let chunks: Vec<(String, &str)> = match lint.unit {
            Unit::Text => vec![(path.clone(), text)],
            Unit::Lines | Unit::Hits => text
                .lines()
                .enumerate()
                .map(|(i, l)| (format!("{path}:{}", i + 1), l))
                .collect(),
        };
        for (site, chunk) in chunks {
            let h = (lint.hits)(chunk);
            if h > 0 {
                n += match lint.unit {
                    Unit::Lines => 1,
                    Unit::Hits | Unit::Text => h,
                };
                sites.push(site);
            }
        }
    }
    (n, sites)
}

#[test]
fn lints_hold() {
    let mut failed = Vec::new();
    for lint in LINTS {
        let (n, sites) = count(lint);
        println!("{}: {n} ({})", lint.name, lint.cap);
        if !lint.cap.holds(n) {
            failed.push(format!(
                "{}: {n} ({})\n  {}",
                lint.name,
                lint.cap,
                sites.join("\n  ")
            ));
        }
    }
    assert!(failed.is_empty(), "lints failed:\n{}", failed.join("\n"));
}

#[test]
fn lint_fixtures_match() {
    for lint in LINTS {
        assert!(
            (lint.hits)(lint.yes) > 0,
            "{}: misses {:?}",
            lint.name,
            lint.yes
        );
        assert_eq!(
            (lint.hits)(lint.no),
            0,
            "{}: matches {:?}",
            lint.name,
            lint.no
        );
    }
}

#[test]
fn matchers_keep_grep_edges() {
    // `grep -o '(^|[^_[:alnum:]])take\('` consumes the edge character.
    assert_eq!(leases("take(take(1))"), 1);
    assert_eq!(leases("ws.take(a); ws.take_for_overwrite(b)"), 2);
    assert_eq!(leases("ws.recycle(std::mem::take(t));"), 0);
    assert_eq!(word("unsafe{", &["unsafe"]), 1);
    assert_eq!(word("é_unsafe", &["unsafe"]), 0);
    assert_eq!(head("\t pub fn forward(", true, "pub fn forward", false), 1);
    assert_eq!(call("x.combine_backward(", "combine_backward"), 1);
    assert_eq!(call("fn combine_backward(", "combine_backward"), 0);
    assert_eq!(
        non_test("a\n    #[cfg(test)]\nb\n#[cfg(test)]\nc\n"),
        "a\n    #[cfg(test)]\nb\n"
    );
}

#[test]
fn every_library_crate_has_a_census_cap() {
    let mut crates = Vec::new();
    walk_dirs("crates", &mut crates);
    for c in &crates {
        let src = format!("{c}/src");
        let row = LINTS
            .iter()
            .any(|l| l.name.starts_with("Panic census: ") && l.files == [src.as_str()]);
        assert!(row, "{c} has no panic census row");
    }
    assert_eq!(crates.len(), 7, "library crates: {crates:?}");
}

fn walk_dirs(dir: &str, out: &mut Vec<String>) {
    for e in fs::read_dir(root().join(dir)).expect(dir).flatten() {
        if e.path().is_dir() {
            out.push(format!("{dir}/{}", e.file_name().to_string_lossy()));
        }
    }
    out.sort();
}

/// The lines of every range that starts at a line containing `start` and
/// ends at the next line containing `end` (the start line itself may end
/// it), like `awk '/start/,/end/'`.
fn ranges(text: &str, start: fn(&str) -> bool, end: fn(&str) -> bool) -> Vec<&str> {
    let (mut out, mut inside) = (Vec::new(), false);
    for line in text.lines() {
        inside |= start(line);
        if inside {
            out.push(line);
            inside = !end(line);
        }
    }
    out
}

/// `expert_ffn(experts, counts, rows, h_pre, h_act)` adds no `[Σ counts, H]`
/// buffer: its input and output rows are one `rows: FfnRows` parameter (in
/// place, or read by id and written to a buffer or the combine), and its
/// one `&mut [f32]` parameter is the hidden layer `h_pre` (`h_act` is an
/// `Option`). Returns the counts of `rows: FfnRows` and of `&mut [f32]`
/// parameters in the signature.
fn ffn_signature(text: &str) -> (usize, usize) {
    let sig = ranges(
        text,
        |l| l.contains("fn expert_ffn("),
        |l| l.contains(") {"),
    );
    let mut_param = |l: &str| {
        let t = l.trim_start();
        let name = &t[..t
            .find(|c: char| !(c.is_ascii_lowercase() || c == '_'))
            .unwrap_or(t.len())];
        !name.is_empty() && t[name.len()..].starts_with(": &mut [f32],")
    };
    let rows = sig
        .iter()
        .filter(|l| l.trim_start().starts_with("rows: FfnRows"))
        .count();
    (rows, sig.iter().filter(|l| mut_param(l)).count())
}

#[test]
fn expert_ffn_computes_in_place() {
    let yes = "pub fn expert_ffn(\n    experts: &[Expert],\n    counts: &[usize],\n    \
               rows: FfnRows,\n    h_pre: &mut [f32],\n    h_act: Option<&mut [f32]>,\n) {\n";
    let no = "pub fn expert_ffn(\n    experts: &[Expert],\n    counts: &[usize],\n    \
              x: &[f32],\n    h_pre: &mut [f32],\n    h_act: &mut [f32],\n    \
              y: &mut [f32],\n) {\n";
    assert_eq!(ffn_signature(yes), (1, 1), "positive fixture");
    assert_ne!(ffn_signature(no), (1, 1), "negative fixture");
    assert_eq!(
        ffn_signature(&read("crates/core/src/expert.rs")),
        (1, 1),
        "fn expert_ffn: rows: FfnRows parameters, &mut [f32] parameters"
    );
}

/// The chaos engine's only `DistMoeLm` constructor calls are inside `fn load`.
#[test]
fn chaos_builds_its_model_only_in_load() {
    let text = read("crates/train/src/chaos.rs");
    let all: usize = non_test(&text)
        .lines()
        .map(model_builds)
        .filter(|&h| h > 0)
        .count();
    let body = ranges(&text, |l| l.starts_with("fn load("), |l| l.starts_with('}'));
    let inside = body.iter().filter(|l| model_builds(l) > 0).count();
    assert_eq!(
        all, inside,
        "DistMoeLm constructor calls in chaos.rs outside fn load"
    );
}

/// `gemm` and the paper's experiments are registry entries, not binaries.
#[test]
fn bench_has_no_binaries() {
    let mut bins = Vec::new();
    walk("crates/bench/src/bin", true, &mut bins);
    assert!(
        bins.is_empty(),
        "files under crates/bench/src/bin: {bins:?}"
    );
}

/// Where a mention of a public function counts as a caller: the code that
/// ships, read in its non-test prefix.
const SHIPPED: &[&str] = &["crates/*/src", "src", "examples", "benchmark/src"];

/// The `pub fn`s under `crates/*/src` that no shipped code calls, each kept
/// for one reason: a hook an integration oracle needs, or the executable
/// evidence for a documented claim.
const TEST_ONLY_PUB: &[(&str, &str)] = &[
    (
        "routed_rows",
        "arena_oracles checks the capacity of the routed rows a pooled state keeps",
    ),
    (
        "poison_arena",
        "arena_oracles poisons the arena to catch a lease read before it is written",
    ),
    (
        "with_hot_bias",
        "tests/elastic.rs skews the chaos run's routing to force a migration",
    ),
    (
        "with_aux",
        "numeric_golden, pooled_trajectories, pool_determinism and aux_loss.rs pin it; goes with TrainableMoe (ROADMAP item 8)",
    ),
    (
        "with_router_guard",
        "numeric_golden, pooled_trajectories and pool_determinism pin it; goes with TrainableMoe (ROADMAP item 8)",
    ),
    (
        "aux_loss",
        "aux_loss.rs checks the balance loss against its gradient; goes with TrainableMoe (ROADMAP item 8)",
    ),
    (
        "z_loss",
        "moe_layer's tests check the router z-loss against its gradient; goes with TrainableMoe (ROADMAP item 8)",
    ),
    (
        "from_trainable",
        "the distributed oracles shard a TrainableMoe with it; goes with TrainableMoe (ROADMAP item 8)",
    ),
    (
        "forward_ssmb",
        "pipeline_equivalence holds the SSMB forward until ROADMAP item 5 replaces it",
    ),
    (
        "forward_ckpt",
        "with backward_ckpt, the live twin of fig 14: checkpointing costs 6 all-to-alls (DESIGN.md, EXPERIMENTS.md)",
    ),
    (
        "backward_ckpt",
        "with forward_ckpt, the live twin of fig 14: checkpointing costs 6 all-to-alls (DESIGN.md, EXPERIMENTS.md)",
    ),
];

/// The name a line defines with `pub fn`, `pub const fn` or `pub unsafe fn`.
fn pub_fn(line: &str) -> Option<&str> {
    let t = line.trim_start();
    let rest = ["pub fn ", "pub const fn ", "pub unsafe fn "]
        .iter()
        .find_map(|p| t.strip_prefix(p))?;
    Some(ident(rest))
}

/// The words of a line's code, before its `//` comment, except the name a
/// `fn` on the line defines.
fn mentions(line: &str) -> impl Iterator<Item = &str> {
    let code = line.split("//").next().unwrap_or(line);
    let mut prev = "";
    code.split(|c: char| !is_word(c))
        .filter(|w| !w.is_empty())
        .filter(move |&w| std::mem::replace(&mut prev, w) != "fn")
}

/// The `pub fn`s defined under `crates/*/src` among `files` (`(path, text)`
/// pairs) that no file mentions, each with its `path:line`. Every file is
/// read in its non-test prefix; a `pub use … ;` item, on one line or many,
/// re-exports the names it lists and so mentions none of them.
fn uncalled(files: &[(String, String)]) -> Vec<(&str, String)> {
    let mut called = std::collections::HashSet::new();
    let mut defs = Vec::new();
    for (path, text) in files {
        let crate_src = path.starts_with("crates/") && path.split('/').nth(2) == Some("src");
        let mut reexport = false;
        for (i, line) in non_test(text).lines().enumerate() {
            reexport |= line.trim_start().starts_with("pub use ");
            if reexport {
                reexport = !line.contains(';');
                continue;
            }
            called.extend(mentions(line));
            if let Some(name) = pub_fn(line).filter(|_| crate_src) {
                defs.push((name, format!("{path}:{}", i + 1)));
            }
        }
    }
    defs.retain(|(name, _)| !called.contains(name));
    defs
}

/// Every non-test `pub fn` under `crates/*/src` has a non-test caller or a
/// `TEST_ONLY_PUB` entry, and every entry names such a function.
#[test]
fn every_pub_fn_has_a_caller_or_a_reason() {
    let files = shipped_sources();
    let found = uncalled(&files);
    println!(
        "test-only public surface: {} (whitelist {})",
        found.len(),
        TEST_ONLY_PUB.len()
    );
    let bad = unlisted(&found, TEST_ONLY_PUB, ("pub fn", "TEST_ONLY_PUB"));
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

/// The `*.rs` files under `SHIPPED`, each with its text.
fn shipped_sources() -> Vec<(String, String)> {
    files_under(SHIPPED)
        .into_iter()
        .filter(|p| p.ends_with(".rs"))
        .map(|p| {
            let text = read(&p);
            (p, text)
        })
        .collect()
}

/// Where a scan's `found` names and its reason `table` disagree: each found
/// `kind` (`path:line`) without an entry, and each entry that names nothing
/// found.
fn unlisted(
    found: &[(&str, String)],
    table: &[(&str, &str)],
    (kind, table_name): (&str, &str),
) -> Vec<String> {
    let mut bad: Vec<String> = found
        .iter()
        .filter(|(name, _)| !table.iter().any(|&(n, _)| n == *name))
        .map(|(name, site)| format!("{site}: {kind} {name} is named by no shipped code"))
        .collect();
    for &(name, _) in table {
        if !found.iter().any(|&(n, _)| n == name) {
            bad.push(format!(
                "{table_name}: {name} is gone or named by shipped code"
            ));
        }
    }
    bad
}

#[test]
fn uncalled_fixtures_match() {
    let lib = "/// [`lonely`] is called by tests only.\n\
               pub fn lonely() {}\n\
               pub fn used() {}\n\
               pub unsafe fn risky() {}\n\
               pub fn listed() {}\n\
               pub fn also_listed() {}\n\
               pub use self::{\n    listed,\n};\n\
               pub use self::also_listed;\n\
               #[cfg(test)]\n\
               mod tests {\n    fn t() {\n        super::lonely();\n    }\n}\n";
    let files = [
        ("crates/a/src/lib.rs".to_string(), lib.to_string()),
        (
            "benchmark/src/main.rs".to_string(),
            "fn main() {\n    a::used();\n}\n".to_string(),
        ),
    ];
    let site = |line: usize| format!("crates/a/src/lib.rs:{line}");
    assert_eq!(
        uncalled(&files),
        [
            ("lonely", site(2)),
            ("risky", site(4)),
            ("listed", site(5)),
            ("also_listed", site(6)),
        ]
    );
}

/// The `pub` types under `crates/*/src` that no shipped code names, each
/// kept for one reason.
const TEST_ONLY_TYPES: &[(&str, &str)] = &[(
    "SsmbMoe",
    "ssmb_train.rs's tests run the SSMB train layer until ROADMAP item 5 builds DistMoeLm's MoE block from it",
)];

/// The type a line defines with `pub struct`, `pub enum` or `pub trait`.
fn pub_type(line: &str) -> Option<&str> {
    let t = line.trim_start();
    let rest = ["pub struct ", "pub enum ", "pub trait "]
        .iter()
        .find_map(|p| t.strip_prefix(p))?;
    Some(ident(rest))
}

/// The type whose definition or `impl` block a line opens: the type a `pub`
/// definition names, or the one after `for` in `impl … for T` (else after
/// `impl<…>`), without its path.
fn block_owner(line: &str) -> Option<&str> {
    if let Some(name) = pub_type(line) {
        return Some(name);
    }
    let mut rest = line.trim_start().strip_prefix("impl")?;
    if rest.starts_with('<') {
        let mut depth = 0;
        let end = rest.find(|c| {
            depth += (c == '<') as i32 - (c == '>') as i32;
            depth == 0
        })?;
        rest = &rest[end + 1..];
    } else if !rest.starts_with(' ') {
        return None;
    }
    let target = rest
        .split_once(" for ")
        .map_or(rest, |(_, t)| t)
        .trim_start();
    let path = &target[..target
        .find(|c: char| !(is_word(c) || c == ':'))
        .unwrap_or(target.len())];
    path.rsplit("::").next().filter(|n| !n.is_empty())
}

/// The `pub` types defined under `crates/*/src` among `files` that no file
/// names outside the type's own definition and `impl` blocks, each with its
/// `path:line`. Files are read as [`uncalled`] reads them: in their non-test
/// prefix, without comments or `pub use` items.
fn unnamed_types(files: &[(String, String)]) -> Vec<(&str, String)> {
    let mut named = std::collections::HashSet::new();
    let mut defs = Vec::new();
    for (path, text) in files {
        let crate_src = path.starts_with("crates/") && path.split('/').nth(2) == Some("src");
        let (mut reexport, mut owner) = (false, None::<(&str, usize)>);
        for (i, line) in non_test(text).lines().enumerate() {
            reexport |= line.trim_start().starts_with("pub use ");
            if reexport {
                reexport = !line.contains(';');
                continue;
            }
            let indent = line.len() - line.trim_start().len();
            if owner.is_none() {
                if let Some(name) = block_owner(line) {
                    let code = line.split("//").next().unwrap_or(line).trim_end();
                    if !code.ends_with([';', '}']) {
                        owner = Some((name, indent));
                    }
                    named.extend(mentions(line).filter(|&w| w != name));
                    if let Some(t) = pub_type(line).filter(|_| crate_src) {
                        defs.push((t, format!("{path}:{}", i + 1)));
                    }
                    continue;
                }
            }
            let own = owner.map(|(name, _)| name);
            named.extend(mentions(line).filter(|&w| Some(w) != own));
            if owner
                .is_some_and(|(_, at)| at == indent && line.trim_start().starts_with(['}', ')']))
            {
                owner = None;
            }
        }
    }
    defs.retain(|(name, _)| !named.contains(name));
    defs
}

/// Every non-test `pub struct`/`enum`/`trait` under `crates/*/src` is named
/// by shipped code outside its own definition and `impl` blocks, or has a
/// `TEST_ONLY_TYPES` entry, and every entry names such a type.
#[test]
fn every_pub_type_is_named_or_has_a_reason() {
    let files = shipped_sources();
    let found = unnamed_types(&files);
    println!(
        "test-only public types: {} (whitelist {})",
        found.len(),
        TEST_ONLY_TYPES.len()
    );
    let bad = unlisted(&found, TEST_ONLY_TYPES, ("pub type", "TEST_ONLY_TYPES"));
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

#[test]
fn unnamed_type_fixtures_match() {
    let lib = "/// [`Lonely`] is built by tests only.\n\
               pub struct Lonely {\n    next: Option<Box<Lonely>>,\n}\n\
               impl Lonely {\n    pub fn new() -> Lonely {\n        Lonely { next: None }\n    }\n}\n\
               impl<T: Into<u8>> From<T> for crate::Lonely {\n    fn from(_: T) -> Self {\n        Lonely::new()\n    }\n}\n\
               pub enum Used {\n    A,\n}\n\
               pub trait Listed {}\n\
               pub use self::Listed;\n\
               #[cfg(test)]\n\
               mod tests {\n    fn t() {\n        let _ = super::Lonely::new();\n    }\n}\n";
    let files = [
        ("crates/a/src/lib.rs".to_string(), lib.to_string()),
        (
            "benchmark/src/main.rs".to_string(),
            "fn main() {\n    let _ = a::Used::A;\n}\n".to_string(),
        ),
    ];
    let site = |line: usize| format!("crates/a/src/lib.rs:{line}");
    assert_eq!(
        unnamed_types(&files),
        [("Lonely", site(2)), ("Listed", site(18))]
    );
}

/// The documents whose paths and test references must resolve.
const DOCS: &[&str] = &["DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md"];

/// Where a bare `name.rs` in a document must name exactly one file.
const SOURCE_ROOTS: &[&str] = &["crates", "src", "tests", "examples", "benchmark/src"];

/// The prose lines of a document, numbered, outside fenced code blocks.
fn prose(text: &str) -> Vec<(usize, &str)> {
    let mut fenced = false;
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            out.push((i + 1, line));
        }
    }
    out
}

/// The inline code spans of a line.
fn spans(line: &str) -> impl Iterator<Item = &str> {
    line.split('`').skip(1).step_by(2)
}

/// The files under `SOURCE_ROOTS` named `name`.
fn by_name(name: &str) -> Vec<String> {
    let mut all = Vec::new();
    for r in SOURCE_ROOTS {
        walk(r, false, &mut all);
    }
    all.push("tests/structure.rs".into());
    all.retain(|p| p.rsplit('/').next() == Some(name));
    all
}

/// Whether `pattern` names at least one path. A segment may hold one
/// wildcard, `*` or a `<placeholder>`.
fn exists(pattern: &str) -> bool {
    let mut paths = vec![root().to_path_buf()];
    for seg in pattern.trim_end_matches('/').split('/') {
        let seg = match (seg.find('<'), seg.find('>')) {
            (Some(i), Some(j)) if i < j => format!("{}*{}", &seg[..i], &seg[j + 1..]),
            _ => seg.to_string(),
        };
        let mut next = Vec::new();
        for dir in &paths {
            match seg.split_once('*') {
                None => next.push(dir.join(&seg)),
                Some((pre, post)) => {
                    for e in fs::read_dir(dir).into_iter().flatten().flatten() {
                        let name = e.file_name().to_string_lossy().into_owned();
                        if name.len() >= pre.len() + post.len()
                            && name.starts_with(pre)
                            && name.ends_with(post)
                        {
                            next.push(e.path());
                        }
                    }
                }
            }
        }
        paths = next.into_iter().filter(|p| p.exists()).collect();
    }
    !paths.is_empty()
}

/// A code span that reads as a repo path: one word with a `/`, made of path
/// characters, not absolute and not a build output, that starts at an entry
/// of the repo root, ends in a file extension or ends in `/`. (`S/TP` and
/// `world/pp` are arithmetic.)
fn as_path(span: &str) -> Option<&str> {
    let path = span
        .split_once(".rs::")
        .map_or(span, |(p, _)| &span[..p.len() + 3]);
    let first = path.split('/').next().unwrap_or("");
    let last = path.rsplit('/').next().unwrap_or("");
    let ok = path.contains('/')
        && !path.starts_with(['/', '~', '.', '-'])
        && !path.starts_with("target/")
        && path
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_-./*<>".contains(c))
        && (root().join(first).exists() || last.contains('.') || last.is_empty());
    ok.then_some(path)
}

/// The bare `name.rs` words of a line: not part of a longer path.
fn bare_rs(line: &str) -> Vec<&str> {
    let mut out = Vec::new();
    for (i, _) in line.match_indices(".rs") {
        let start = line[..i].rfind(|c: char| !is_word(c)).map_or(0, |j| j + 1);
        let before = line[..start].chars().next_back();
        let after = line[i + 3..].chars().next();
        if start < i
            && before.is_none_or(|c| !(c == '/' || c == '.' || c == '-' || is_word(c)))
            && after.is_none_or(|c| !is_word(c))
        {
            out.push(&line[start..i + 3]);
        }
    }
    out
}

/// Every code-span path names something in the tree, every bare `name.rs`
/// names exactly one source file, and nothing cites a line number.
#[test]
fn docs_name_paths_that_exist() {
    let mut bad = Vec::new();
    for doc in DOCS {
        let text = read(doc);
        for (n, line) in prose(&text) {
            for span in spans(line) {
                if let Some(path) = as_path(span) {
                    if !exists(path) {
                        bad.push(format!("{doc}:{n}: `{span}` names no path"));
                    }
                }
            }
            for name in bare_rs(line) {
                let found = by_name(name);
                if found.len() != 1 {
                    bad.push(format!(
                        "{doc}:{n}: `{name}` names {} files {found:?}",
                        found.len()
                    ));
                }
            }
            for ext in [".rs:", ".toml:", ".md:", ".yml:", ".json:"] {
                for (i, _) in line.match_indices(ext) {
                    if line[i + ext.len()..].starts_with(|c: char| c.is_ascii_digit()) {
                        bad.push(format!("{doc}:{n}: cites a line number"));
                    }
                }
            }
        }
    }
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

/// The `path.rs::fn_name` references of a line.
fn fn_refs(line: &str) -> Vec<(&str, &str)> {
    spans(line)
        .filter_map(|s| {
            let (path, name) = s.split_once(".rs::")?;
            let ok = !name.is_empty() && ident(name) == name && !path.contains(char::is_whitespace);
            ok.then(|| (&s[..path.len() + 3], name))
        })
        .collect()
}

/// Every `path.rs::fn_name` in the documents names a `fn` of that file, and
/// every `##` section of DESIGN.md names at least one.
#[test]
fn doc_test_references_resolve() {
    let mut bad = Vec::new();
    for doc in DOCS {
        let text = read(doc);
        for (n, line) in prose(&text) {
            for (path, name) in fn_refs(line) {
                let file = if path.contains('/') {
                    path.to_string()
                } else {
                    match by_name(path).as_slice() {
                        [one] => one.clone(),
                        _ => {
                            bad.push(format!("{doc}:{n}: `{path}` is not one file"));
                            continue;
                        }
                    }
                };
                let src = fs::read_to_string(root().join(&file)).unwrap_or_default();
                let def = format!("fn {name}");
                let found = src
                    .match_indices(&def)
                    .any(|(i, _)| src[i + def.len()..].starts_with(['(', '<']));
                if !found {
                    bad.push(format!("{doc}:{n}: `{path}::{name}` names no fn"));
                }
            }
        }
    }
    let design = read("DESIGN.md");
    for section in design.split("\n## ").skip(1) {
        let refs: usize = prose(section).iter().map(|(_, l)| fn_refs(l).len()).sum();
        if refs == 0 {
            bad.push(format!(
                "DESIGN.md: section `{}` names no test",
                section.lines().next().unwrap_or("")
            ));
        }
    }
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

#[test]
fn design_stays_a_short_contract() {
    let lines = read("DESIGN.md").lines().count();
    assert!(lines <= 800, "DESIGN.md has {lines} lines (cap 800)");
}
