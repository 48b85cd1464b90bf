//! Adam optimizer with global-norm gradient clipping.
//!
//! The model exposes its parameters through a visitor (a closure that calls
//! back once per `(param, grad)` pair — no list of borrows is built per
//! step); [`Adam`] keeps first/second moment buffers indexed by visitation
//! order, which is stable because the model's structure is fixed after
//! construction. The clip norm is the caller's: under data + expert
//! parallelism only the whole model's norm, agreed on by every rank, keeps
//! replicas identical (see `DistMoeLm::sync_grads`).

use xmoe_tensor::Tensor;

/// Adam state and hyperparameters.
pub struct Adam {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    /// Global-norm clip threshold (0 disables clipping).
    pub clip: f32,
    step: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip: 1.0,
            step: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Number of optimizer steps taken so far (drives bias correction).
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// First/second moment buffers in visitation order, for checkpointing.
    /// Slots the optimizer has not seen yet are simply absent.
    pub fn moments(&self) -> (&[Vec<f32>], &[Vec<f32>]) {
        (&self.m, &self.v)
    }

    /// Restore optimizer state captured by [`Adam::step_count`] and
    /// [`Adam::moments`]. The moment vectors must be in the same visitation
    /// order the optimizer will see on the next [`Adam::step`] call.
    pub fn restore(&mut self, step: u64, m: Vec<Vec<f32>>, v: Vec<Vec<f32>>) {
        assert_eq!(m.len(), v.len(), "mismatched moment buffer counts");
        self.step = step;
        self.m = m;
        self.v = v;
    }

    /// Apply one update over the `(param, grad)` pairs `visit` delivers, in
    /// the same order every step. `sq_norm` is the squared global gradient
    /// norm; gradients are scaled by its clip factor first.
    pub fn step(&mut self, sq_norm: f64, visit: impl FnOnce(&mut dyn FnMut(&mut Tensor, &Tensor))) {
        self.step += 1;
        let norm = sq_norm.sqrt() as f32;
        let scale = if self.clip > 0.0 && norm > self.clip {
            self.clip / norm
        } else {
            1.0
        };

        let bc1 = 1.0 - self.beta1.powi(self.step as i32);
        let bc2 = 1.0 - self.beta2.powi(self.step as i32);
        let mut idx = 0;
        visit(&mut |p, g| {
            if idx == self.m.len() {
                self.m.push(vec![0.0; p.len()]);
                self.v.push(vec![0.0; p.len()]);
            }
            let m = &mut self.m[idx];
            let v = &mut self.v[idx];
            assert_eq!(
                m.len(),
                p.len(),
                "parameter {idx} changed size between steps"
            );
            for ((pv, &gv), (mv, vv)) in p
                .as_mut_slice()
                .iter_mut()
                .zip(g.as_slice())
                .zip(m.iter_mut().zip(v.iter_mut()))
            {
                let g = gv * scale;
                *mv = self.beta1 * *mv + (1.0 - self.beta1) * g;
                *vv = self.beta2 * *vv + (1.0 - self.beta2) * g * g;
                let mhat = *mv / bc1;
                let vhat = *vv / bc2;
                *pv -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
            idx += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::sq_norm;

    #[test]
    fn adam_minimizes_a_quadratic() {
        // f(w) = 0.5 * ||w - target||^2, grad = w - target.
        let target = [3.0f32, -2.0, 0.5];
        let mut w = Tensor::from_vec(1, 3, vec![0.0, 0.0, 0.0]);
        let mut opt = Adam::new(0.05);
        opt.clip = 0.0;
        for _ in 0..2000 {
            let g = Tensor::from_vec(
                1,
                3,
                w.as_slice()
                    .iter()
                    .zip(&target)
                    .map(|(&wv, &t)| wv - t)
                    .collect(),
            );
            opt.step(sq_norm(g.as_slice()), |f| f(&mut w, &g));
        }
        for (wv, t) in w.as_slice().iter().zip(&target) {
            assert!((wv - t).abs() < 1e-2, "w {wv} target {t}");
        }
    }

    #[test]
    fn clipping_bounds_the_applied_update() {
        let mut w = Tensor::from_vec(1, 2, vec![0.0, 0.0]);
        let g = Tensor::from_vec(1, 2, vec![1e6, 1e6]);
        let mut opt = Adam::new(0.1);
        opt.clip = 1.0;
        opt.step(sq_norm(g.as_slice()), |f| f(&mut w, &g));
        // First Adam step magnitude is bounded by lr regardless of grad.
        assert!(
            w.as_slice().iter().all(|&v| v.abs() <= 0.11),
            "{:?}",
            w.as_slice()
        );
    }

    #[test]
    fn multiple_tensors_keep_independent_state() {
        let mut a = Tensor::from_vec(1, 1, vec![0.0]);
        let mut b = Tensor::from_vec(1, 1, vec![0.0]);
        let mut opt = Adam::new(0.01);
        opt.clip = 0.0;
        for _ in 0..500 {
            let ga = Tensor::from_vec(1, 1, vec![a.get(0, 0) - 1.0]);
            let gb = Tensor::from_vec(1, 1, vec![b.get(0, 0) + 1.0]);
            let sq = sq_norm(ga.as_slice()) + sq_norm(gb.as_slice());
            opt.step(sq, |f| {
                f(&mut a, &ga);
                f(&mut b, &gb);
            });
        }
        assert!((a.get(0, 0) - 1.0).abs() < 0.05);
        assert!((b.get(0, 0) + 1.0).abs() < 0.05);
    }
}
