//! A layer-by-layer replica of `TransformerLm::train_step` and
//! `DroplessMoe::infer`, built only from the crates' public layer
//! objects and functions, with a span around every call.
//!
//! The replica mirrors the library's call order and accumulation order,
//! so its loss and gradients are bit-identical to the program it
//! describes; the training workloads check that on every traced step.

use megablocks_core::{
    load_balancing_loss, padded_gather, padded_gather_backward, padded_scatter,
    padded_scatter_backward, DroppingMoe, DroppingMoeCache, MoeConfig, Param, PermuteInfo, Router,
    Routing,
};
use megablocks_exec as exec;
use megablocks_sparse::{ops, BlockSparseMatrix, Topology};
use megablocks_tensor::ops::{cross_entropy, gelu_grad_scalar, gelu_scalar, LayerNormCache};
use megablocks_tensor::{matmul, matmul_nt, matmul_tn, Matrix};
use megablocks_transformer::{
    Attention, AttentionCache, FfnKind, LayerNorm, TransformerConfig, TransformerLm,
};
use rand::rngs::StdRng;

use crate::spans::Tracer;

/// Elements below this stay single-banded in the elementwise GeLU
/// plans, as in `megablocks_core::dmoe`.
const PARALLEL_THRESHOLD: usize = 1 << 16;

/// Attention FLOPs of one forward pass (QKV and output projections plus
/// scores and context, the causal mask computing full squares).
fn attention_fwd_flops(tokens: usize, batch: usize, seq: usize, h: usize) -> f64 {
    (8 * tokens * h * h + 4 * batch * seq * seq * h) as f64
}

/// FLOPs of one block-sparse product over `topo` with inner or outer
/// dense dimension `hidden`.
fn sparse_flops(topo: &Topology, hidden: usize) -> f64 {
    2.0 * topo.nnz() as f64 * hidden as f64
}

/// Padding counts of one MoE layer invocation.
#[derive(Debug, Clone, Copy, Default)]
pub struct MoeCounts {
    /// Rows of the padded (dMoE) or capacity (dropping) buffers.
    pub slot_rows: usize,
    /// Rows of those buffers that hold no token.
    pub padding_rows: usize,
}

impl std::ops::AddAssign for MoeCounts {
    fn add_assign(&mut self, o: Self) {
        self.slot_rows += o.slot_rows;
        self.padding_rows += o.padding_rows;
    }
}

struct DmoeCache {
    x: Matrix,
    routing: Routing,
    permute: PermuteInfo,
    xg: Matrix,
    h_pre: BlockSparseMatrix,
    h_act: BlockSparseMatrix,
    y: Matrix,
    d_probs_aux: Matrix,
}

enum Ffn {
    Dropless {
        cfg: MoeConfig,
        router: Router,
        w1: Param,
        w2: Param,
    },
    Dropping(DroppingMoe),
}

enum FfnCache {
    Dropless(Box<DmoeCache>),
    Dropping(Box<DroppingMoeCache>, f64),
}

struct ReplicaBlock {
    ln1: LayerNorm,
    attn: Attention,
    ln2: LayerNorm,
    ffn: Ffn,
}

struct BlockCache {
    x: Matrix,
    ln1: LayerNormCache,
    attn: AttentionCache,
    mid: Matrix,
    ln2: LayerNormCache,
    ffn: FfnCache,
}

/// The replica language model.
pub struct Replica {
    cfg: TransformerConfig,
    wte: Param,
    wpe: Param,
    blocks: Vec<ReplicaBlock>,
    ln_f: LayerNorm,
}

/// What one replayed micro-batch reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct MicroStats {
    pub ce_loss: f32,
    pub moe: MoeCounts,
}

impl Replica {
    /// A replica with the shapes of `cfg`; its values come from
    /// [`Replica::sync_from`].
    pub fn new(cfg: &TransformerConfig, rng: &mut StdRng) -> Self {
        let h = cfg.hidden_size;
        let blocks = (0..cfg.num_layers)
            .map(|_| {
                let ffn = match &cfg.ffn {
                    FfnKind::Dropless(m) => {
                        let inner = m.num_experts * m.ffn_hidden_size;
                        Ffn::Dropless {
                            cfg: m.clone(),
                            router: Router::new(h, m.num_experts, m.top_k, rng),
                            w1: Param::new(Matrix::zeros(h, inner)),
                            w2: Param::new(Matrix::zeros(inner, h)),
                        }
                    }
                    FfnKind::Dropping(m) => Ffn::Dropping(DroppingMoe::new(m.clone(), rng)),
                    other => panic!("the replica covers dMoE and dropping FFNs, not {other:?}"),
                };
                ReplicaBlock {
                    ln1: LayerNorm::new(h),
                    attn: Attention::new(h, cfg.num_heads, rng),
                    ln2: LayerNorm::new(h),
                    ffn,
                }
            })
            .collect();
        Replica {
            cfg: cfg.clone(),
            wte: Param::new(Matrix::zeros(cfg.vocab_size, h)),
            wpe: Param::new(Matrix::zeros(cfg.seq_len, h)),
            blocks,
            ln_f: LayerNorm::new(h),
        }
    }

    /// Parameters in `TransformerLm::params_mut` order.
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = vec![&mut self.wte, &mut self.wpe];
        for b in &mut self.blocks {
            p.extend(b.ln1.params_mut());
            p.extend(b.attn.params_mut());
            p.extend(b.ln2.params_mut());
            match &mut b.ffn {
                Ffn::Dropless { router, w1, w2, .. } => {
                    p.push(router.weight_mut());
                    p.push(w1);
                    p.push(w2);
                }
                Ffn::Dropping(moe) => p.extend(moe.params_mut()),
            }
        }
        p.extend(self.ln_f.params_mut());
        p
    }

    /// Copies every parameter value from `model` and zeroes the
    /// replica's gradients.
    pub fn sync_from(&mut self, model: &mut TransformerLm) {
        let src = model.params_mut();
        let dst = self.params_mut();
        assert_eq!(src.len(), dst.len(), "replica parameter count");
        for (d, s) in dst.into_iter().zip(src) {
            assert_eq!(d.value().shape(), s.value().shape(), "replica shape");
            d.value_mut()
                .as_mut_slice()
                .copy_from_slice(s.value().as_slice());
            d.zero_grad();
        }
    }

    /// Whether every replica gradient equals `model`'s bit for bit.
    pub fn grads_match(&mut self, model: &mut TransformerLm) -> bool {
        let src = model.params_mut();
        let dst = self.params_mut();
        dst.iter().zip(&src).all(|(d, s)| {
            d.grad()
                .as_slice()
                .iter()
                .zip(s.grad().as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits())
        })
    }

    /// Forward + backward over one micro-batch, accumulating gradients,
    /// with a span around every layer call.
    pub fn micro_batch(
        &mut self,
        t: &mut Tracer,
        inputs: &[usize],
        targets: &[usize],
        batch: usize,
    ) -> MicroStats {
        let seq = inputs.len() / batch;
        let h = self.cfg.hidden_size;
        let vocab = self.cfg.vocab_size;
        let tokens = batch * seq;

        let x0 = t.time("transformer.embed", || self.embed(inputs, seq));
        let mut x = x0;
        let mut caches = Vec::with_capacity(self.blocks.len());
        let mut moe = MoeCounts::default();
        for block in &self.blocks {
            let open = t.begin("block");
            let (out, cache, counts) = block.forward(t, &x, batch, seq);
            t.end(open);
            moe += counts;
            caches.push(cache);
            x = out;
        }
        let h_last = x;
        let (h_final, ln_f_cache) = t.time("transformer.norm", || self.ln_f.forward(&h_last));

        // Tied LM head forward, loss and backward.
        let open = t.begin("transformer.head");
        let logits = matmul_nt(&h_final, self.wte.value());
        let (ce_loss, d_logits) = cross_entropy(&logits, targets, None);
        let d_h_final = matmul(&d_logits, self.wte.value());
        self.wte.accumulate(&matmul_tn(&d_logits, &h_final));
        t.end_flops(open, 6.0 * (tokens * h * vocab) as f64);

        let mut d = t.time("transformer.norm", || {
            self.ln_f.backward(&h_last, &d_h_final, &ln_f_cache)
        });
        for (block, cache) in self.blocks.iter_mut().zip(&caches).rev() {
            let open = t.begin("block");
            d = block.backward(t, cache, &d, batch, seq);
            t.end(open);
        }

        let open = t.begin("transformer.embed");
        for (r, &tok) in inputs.iter().enumerate() {
            let pos = r % seq;
            let g = d.row(r);
            for (dst, v) in self.wte.grad_mut().row_mut(tok).iter_mut().zip(g) {
                *dst += v;
            }
            for (dst, v) in self.wpe.grad_mut().row_mut(pos).iter_mut().zip(g) {
                *dst += v;
            }
        }
        t.end(open);
        MicroStats { ce_loss, moe }
    }

    fn embed(&self, inputs: &[usize], seq: usize) -> Matrix {
        let mut x = Matrix::zeros(inputs.len(), self.cfg.hidden_size);
        for (r, &tok) in inputs.iter().enumerate() {
            let te = self.wte.value().row(tok);
            let pe = self.wpe.value().row(r % seq);
            for ((d, a), b) in x.row_mut(r).iter_mut().zip(te).zip(pe) {
                *d = a + b;
            }
        }
        x
    }
}

impl ReplicaBlock {
    fn forward(
        &self,
        t: &mut Tracer,
        x: &Matrix,
        batch: usize,
        seq: usize,
    ) -> (Matrix, BlockCache, MoeCounts) {
        let h = x.cols();
        let (n1, ln1) = t.time("transformer.norm", || self.ln1.forward(x));
        let open = t.begin("transformer.attention");
        let (a, attn) = self.attn.forward(&n1, batch, seq);
        t.end_flops(open, attention_fwd_flops(x.rows(), batch, seq, h));
        let mut mid = x.clone();
        mid.add_assign(&a);
        let (n2, ln2) = t.time("transformer.norm", || self.ln2.forward(&mid));
        let (f, ffn, counts) = match &self.ffn {
            Ffn::Dropless {
                cfg,
                router,
                w1,
                w2,
            } => {
                let open = t.begin("moe");
                let (f, cache, counts) = dmoe_forward(t, cfg, router, w1, w2, &n2);
                t.end(open);
                (f, FfnCache::Dropless(Box::new(cache)), counts)
            }
            Ffn::Dropping(layer) => {
                let open = t.begin("core.dropping");
                let out = layer.forward(&n2);
                let s = &out.stats;
                let kept: usize = s.expert_load.iter().sum();
                let slot_rows = kept + s.padding_rows;
                let cfg = layer.config();
                // Two batched GEMMs over every capacity slot.
                let fwd = 4.0 * (slot_rows * cfg.hidden_size * cfg.ffn_hidden_size) as f64;
                t.end_flops(open, fwd);
                let counts = MoeCounts {
                    slot_rows,
                    padding_rows: s.padding_rows,
                };
                (
                    out.output,
                    FfnCache::Dropping(Box::new(out.cache), fwd),
                    counts,
                )
            }
        };
        let mut out = mid.clone();
        out.add_assign(&f);
        let cache = BlockCache {
            x: x.clone(),
            ln1,
            attn,
            mid,
            ln2,
            ffn,
        };
        (out, cache, counts)
    }

    fn backward(
        &mut self,
        t: &mut Tracer,
        cache: &BlockCache,
        d_out: &Matrix,
        batch: usize,
        seq: usize,
    ) -> Matrix {
        let h = d_out.cols();
        let d_n2 = match (&mut self.ffn, &cache.ffn) {
            (
                Ffn::Dropless {
                    cfg,
                    router,
                    w1,
                    w2,
                },
                FfnCache::Dropless(c),
            ) => {
                let open = t.begin("moe");
                let dx = dmoe_backward(t, cfg, router, w1, w2, c, d_out);
                t.end(open);
                dx
            }
            (Ffn::Dropping(layer), FfnCache::Dropping(c, fwd)) => {
                let open = t.begin("core.dropping");
                let dx = layer.backward(c, d_out);
                // Four batched GEMMs per expert: twice the forward work.
                t.end_flops(open, 2.0 * fwd);
                dx
            }
            _ => unreachable!("cache flavor always matches the layer flavor"),
        };
        let mut d_mid = d_out.clone();
        let d_ln2 = t.time("transformer.norm", || {
            self.ln2.backward(&cache.mid, &d_n2, &cache.ln2)
        });
        d_mid.add_assign(&d_ln2);
        let open = t.begin("transformer.attention");
        let d_n1 = self.attn.backward(&cache.attn, &d_mid);
        t.end_flops(open, 2.0 * attention_fwd_flops(d_out.rows(), batch, seq, h));
        let mut dx = d_mid;
        let d_ln1 = t.time("transformer.norm", || {
            self.ln1.backward(&cache.x, &d_n1, &cache.ln1)
        });
        dx.add_assign(&d_ln1);
        dx
    }
}

/// Elementwise GeLU (or its gradient) as a launch plan, as the dMoE
/// layer runs it.
fn gelu_plan(op: &'static str, data: &mut [f32], body: &(dyn Fn(&mut [f32], usize) + Sync)) {
    let bands = exec::parallelism_for(data.len(), PARALLEL_THRESHOLD);
    let per_band = data.len().div_ceil(bands);
    exec::LaunchPlan::over_items(op, data, 1, per_band, body).launch();
}

/// `DroplessMoe::try_forward_ctx`, call for call.
fn dmoe_forward(
    t: &mut Tracer,
    cfg: &MoeConfig,
    router: &Router,
    w1: &Param,
    w2: &Param,
    x: &Matrix,
) -> (Matrix, DmoeCache, MoeCounts) {
    let h = cfg.hidden_size;
    let routing = t.time("core.router", || router.forward(x));
    let permute = t.time("core.permute", || {
        PermuteInfo::new(&routing, cfg.num_experts, cfg.block_size)
    });
    let topology = t.time("sparse.topology", || {
        Topology::for_moe(
            permute.padded_tokens_per_expert(),
            cfg.ffn_hidden_size,
            cfg.block_size,
        )
        .expect("padded counts are block multiples")
    });
    let xg = t.time("core.permute", || padded_gather(x, &permute));
    let flops = sparse_flops(&topology, h);

    let open = t.begin("sparse.sdd");
    let h_pre = ops::sdd(&xg, w1.value(), &topology);
    t.end_flops(open, flops);

    let open = t.begin("core.gelu");
    let pre = h_pre.as_slice();
    let mut act = exec::workspace::take_zeroed(pre.len());
    gelu_plan("moe.gelu", &mut act, &|band: &mut [f32], i0: usize| {
        for (i, v) in band.iter_mut().enumerate() {
            *v = gelu_scalar(pre[i0 + i]);
        }
    });
    let h_act = BlockSparseMatrix::from_raw(&topology, act).expect("activation matches topology");
    t.end(open);

    let open = t.begin("sparse.dsd");
    let y = ops::dsd(&h_act, w2.value());
    t.end_flops(open, flops);

    let output = t.time("core.permute", || {
        padded_scatter(&y, &permute, &routing.weights)
    });
    let lb = t.time("core.router", || {
        load_balancing_loss(&routing, cfg.load_balance_weight)
    });
    let counts = MoeCounts {
        slot_rows: permute.padded_rows(),
        padding_rows: permute.padding_rows(),
    };
    let cache = DmoeCache {
        x: x.clone(),
        routing,
        permute,
        xg,
        h_pre,
        h_act,
        y,
        d_probs_aux: lb.d_probs,
    };
    (output, cache, counts)
}

/// `DroplessMoe::backward`, call for call.
fn dmoe_backward(
    t: &mut Tracer,
    cfg: &MoeConfig,
    router: &mut Router,
    w1: &mut Param,
    w2: &mut Param,
    cache: &DmoeCache,
    d_out: &Matrix,
) -> Matrix {
    let topo = cache.h_pre.topology();
    let flops = sparse_flops(topo, cfg.hidden_size);
    let (dy, d_weights) = t.time("core.permute", || {
        padded_scatter_backward(d_out, &cache.y, &cache.permute, &cache.routing.weights)
    });

    let open = t.begin("sparse.sdd_t");
    let dh_act = ops::sdd_t(&dy, w2.value(), topo);
    t.end_flops(open, flops);

    let open = t.begin("sparse.dst_d");
    let dw2 = ops::dst_d(&cache.h_act, &dy);
    w2.accumulate(&dw2);
    dw2.recycle();
    t.end_flops(open, flops);
    dy.recycle();

    let open = t.begin("core.gelu");
    let mut dh = dh_act;
    let pre = cache.h_pre.as_slice();
    gelu_plan(
        "moe.gelu_grad",
        dh.as_mut_slice(),
        &|band: &mut [f32], i0| {
            for (i, g) in band.iter_mut().enumerate() {
                *g *= gelu_grad_scalar(pre[i0 + i]);
            }
        },
    );
    t.end(open);

    let open = t.begin("sparse.dsd_t");
    let dxg = ops::dsd_t(&dh, w1.value());
    t.end_flops(open, flops);

    let open = t.begin("sparse.ddt_s");
    let dw1 = ops::ddt_s(&cache.xg, &dh);
    w1.accumulate(&dw1);
    dw1.recycle();
    t.end_flops(open, flops);
    dh.recycle();

    let mut dx = t.time("core.permute", || {
        padded_gather_backward(&dxg, &cache.permute)
    });
    dxg.recycle();

    let open = t.begin("core.router");
    let dx_router = router.backward(
        &cache.x,
        &cache.routing,
        &d_weights,
        Some(&cache.d_probs_aux),
    );
    exec::workspace::recycle(d_weights);
    dx.add_assign(&dx_router);
    t.end(open);
    dx
}

/// `DroplessMoe::infer`, call for call, on the serving layer's own
/// router and weights. Returns the output and the padding counts.
pub fn dmoe_infer(
    t: &mut Tracer,
    cfg: &MoeConfig,
    router: &Router,
    w1: &Param,
    w2: &Param,
    x: &Matrix,
) -> (Matrix, MoeCounts) {
    let routing = t.time("core.router", || router.forward(x));
    let permute = t.time("core.permute", || {
        PermuteInfo::new(&routing, cfg.num_experts, cfg.block_size)
    });
    let topology = t.time("sparse.topology", || {
        Topology::for_moe(
            permute.padded_tokens_per_expert(),
            cfg.ffn_hidden_size,
            cfg.block_size,
        )
        .expect("padded counts are block multiples")
    });
    let xg = t.time("core.permute", || padded_gather(x, &permute));
    let flops = sparse_flops(&topology, cfg.hidden_size);

    let open = t.begin("sparse.sdd");
    let mut hm = ops::sdd(&xg, w1.value(), &topology);
    t.end_flops(open, flops);
    xg.recycle();

    let open = t.begin("core.gelu");
    gelu_plan("moe.gelu", hm.as_mut_slice(), &|band: &mut [f32], _| {
        for v in band.iter_mut() {
            *v = gelu_scalar(*v);
        }
    });
    t.end(open);

    let open = t.begin("sparse.dsd");
    let y = ops::dsd(&hm, w2.value());
    t.end_flops(open, flops);
    hm.recycle();

    let output = t.time("core.permute", || {
        padded_scatter(&y, &permute, &routing.weights)
    });
    y.recycle();
    let counts = MoeCounts {
        slot_rows: permute.padded_rows(),
        padding_rows: permute.padding_rows(),
    };
    (output, counts)
}
