//! Synthetic training corpus: a random sparse Markov chain.
//!
//! The paper's loss validation trains on a text corpus; what the experiment
//! needs from the data is only that it carries *learnable* next-token
//! structure so the loss demonstrably decreases. A first-order Markov chain
//! with a few successors per state provides exactly that, with entropy we
//! can compute in closed form to sanity-check convergence.

use xmoe_tensor::DetRng;

/// A deterministic Markov-chain token stream.
#[derive(Clone, Debug)]
pub struct MarkovCorpus {
    vocab: usize,
    /// `transitions[s]` — (successor, probability) pairs for state `s`.
    transitions: Vec<Vec<(usize, f64)>>,
    /// `weights[s]` — the probabilities of `transitions[s]`, as the slice
    /// the sampler takes (a token draw allocates nothing).
    weights: Vec<Vec<f64>>,
    rng: DetRng,
    state: usize,
}

impl MarkovCorpus {
    /// Build a corpus over `vocab` tokens where each state transitions to
    /// `branching` random successors with random (normalized) weights.
    pub fn new(vocab: usize, branching: usize, seed: u64) -> Self {
        assert!(vocab >= 2 && branching >= 1 && branching <= vocab);
        let mut rng = DetRng::new(seed);
        let transitions: Vec<Vec<(usize, f64)>> = (0..vocab)
            .map(|_| {
                // Sample distinct successors.
                let mut succ: Vec<usize> = (0..vocab).collect();
                rng.shuffle(&mut succ);
                succ.truncate(branching);
                let mut weights: Vec<f64> = (0..branching).map(|_| rng.next_f64() + 0.1).collect();
                let total: f64 = weights.iter().sum();
                for w in &mut weights {
                    *w /= total;
                }
                succ.into_iter().zip(weights).collect()
            })
            .collect();
        let state = rng.next_below(vocab);
        Self {
            vocab,
            weights: transitions
                .iter()
                .map(|options| options.iter().map(|&(_, p)| p).collect())
                .collect(),
            transitions,
            rng,
            state,
        }
    }

    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Next token in the stream.
    pub fn next_token(&mut self) -> usize {
        let choice = self.rng.sample_weighted(&self.weights[self.state]);
        self.state = self.transitions[self.state][choice].0;
        self.state
    }

    /// A batch of `batch` sequences of `seq_len + 1` tokens; the extra token
    /// makes (input, next-token target) pairs.
    pub fn batch(&mut self, batch: usize, seq_len: usize) -> Vec<Vec<usize>> {
        (0..batch)
            .map(|_| (0..=seq_len).map(|_| self.next_token()).collect())
            .collect()
    }

    /// The entropy rate of the chain (expected cross-entropy floor of a
    /// perfect model), in nats, under the stationary assumption of uniform
    /// state visitation (adequate for the shuffled construction).
    pub fn entropy_floor(&self) -> f64 {
        let per_state: f64 = self
            .transitions
            .iter()
            .map(|opts| -opts.iter().map(|&(_, p)| p * p.ln()).sum::<f64>())
            .sum();
        per_state / self.vocab as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_stay_in_vocab() {
        let mut c = MarkovCorpus::new(16, 3, 1);
        for _ in 0..1000 {
            assert!(c.next_token() < 16);
        }
    }

    #[test]
    fn transitions_respect_branching() {
        let mut c = MarkovCorpus::new(32, 2, 2);
        // Count observed successors per state.
        let mut succ = vec![std::collections::HashSet::new(); 32];
        let mut prev = c.next_token();
        for _ in 0..20_000 {
            let t = c.next_token();
            succ[prev].insert(t);
            prev = t;
        }
        for (s, set) in succ.iter().enumerate() {
            assert!(set.len() <= 2, "state {s} has {} successors", set.len());
        }
    }

    #[test]
    fn corpus_is_deterministic() {
        let mut a = MarkovCorpus::new(16, 3, 7);
        let mut b = MarkovCorpus::new(16, 3, 7);
        for _ in 0..100 {
            assert_eq!(a.next_token(), b.next_token());
        }
    }

    #[test]
    fn batch_shapes() {
        let mut c = MarkovCorpus::new(16, 3, 3);
        let b = c.batch(4, 8);
        assert_eq!(b.len(), 4);
        assert!(b.iter().all(|s| s.len() == 9));
    }

    #[test]
    fn entropy_floor_is_positive_and_below_uniform() {
        let c = MarkovCorpus::new(64, 4, 5);
        let h = c.entropy_floor();
        assert!(h > 0.0);
        assert!(h < (64f64).ln(), "floor {h} must be below uniform entropy");
        assert!(
            h < (4f64).ln() + 0.01,
            "floor {h} bounded by branching entropy"
        );
    }
}
