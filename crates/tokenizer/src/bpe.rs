//! The BPE vocabulary and encoder/decoder.
//!
//! Encoding is the hot path of the dataset pipeline (every corpus program
//! is token-counted to enforce the 8e3 cutoff), so `encode_chunk` uses a
//! linked-list + min-heap merge — O(n log n) per chunk instead of the
//! naive rescan-per-merge O(n²). Generated CUDA/OMP source repeats a
//! small set of identifiers, keywords and punctuation, so each call keeps
//! a private chunk memo and merges every distinct chunk once.
//! `count_batch` gives each worker one contiguous run of texts with its
//! own memo, so threads share nothing mutable.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use rayon::prelude::*;

use crate::pretokenizer::pretokenize;

/// A trained BPE vocabulary: 256 byte tokens plus learned merges.
///
/// Token ids `0..256` are the raw bytes; id `256 + r` is the token produced
/// by merge rank `r`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Vocab {
    /// Learned merges in rank order: `(left_id, right_id)`.
    pub merges: Vec<(u32, u32)>,
}

impl Vocab {
    /// An empty vocabulary (byte-level only).
    pub fn byte_level() -> Self {
        Vocab { merges: Vec::new() }
    }

    /// Total vocabulary size (256 bytes + merges).
    pub fn size(&self) -> usize {
        256 + self.merges.len()
    }

    /// Reconstruct the byte string of a token id.
    pub fn token_bytes(&self, id: u32) -> Vec<u8> {
        if id < 256 {
            vec![id as u8]
        } else {
            let (l, r) = self.merges[(id - 256) as usize];
            let mut out = self.token_bytes(l);
            out.extend(self.token_bytes(r));
            out
        }
    }
}

/// A chunk memo keyed by slices of the caller's own input, so building it
/// never copies text. It lives for one call (or one worker's run of a
/// batch) and is never shared, so it needs no lock.
type ChunkMemo<'t, V> = HashMap<&'t str, V, BuildHasherDefault<ChunkHasher>>;

/// The memo's hasher: a multiply-rotate over 8-byte words. Pre-token
/// chunks are a few bytes long and a corpus makes tens of millions of
/// lookups, where SipHash's rounds measured ~2× slower. It has no defence
/// against crafted collisions; the keys are program-generated corpus
/// source, and a collision would cost time, never a wrong result.
#[derive(Debug, Default)]
struct ChunkHasher(u64);

impl ChunkHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for ChunkHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let (words, tail) = bytes.split_at(bytes.len() & !7);
        for w in words.chunks_exact(8) {
            self.mix(u64::from_le_bytes(w.try_into().expect("8-byte word")));
        }
        // The tail folds onto the length, which keeps "a" and "a\0" apart.
        self.mix(
            tail.iter()
                .rev()
                .fold(bytes.len() as u64, |acc, &b| (acc << 8) | u64::from(b)),
        );
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The table indexes by the low bits, which the multiply mixes
        // least; rotate the well-mixed high bits down.
        self.0.rotate_left(26)
    }
}

/// A BPE encoder/decoder over a trained [`Vocab`]. An immutable value:
/// every method takes `&self` and shares nothing mutable between calls.
#[derive(Debug, Clone)]
pub struct Tokenizer {
    vocab: Vocab,
    /// merge pair -> (rank, produced id)
    ranks: HashMap<(u32, u32), (u32, u32)>,
}

/// A merge candidate in the encode heap: ordered by (rank, position) so
/// popping yields the lowest-rank, leftmost pair — exactly the naive
/// scan's greedy choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MergeCand {
    rank: u32,
    pos: u32,
    left: u32,
    right: u32,
    new_id: u32,
}

impl Ord for MergeCand {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the minimum
        // (rank, pos) on top.
        other
            .rank
            .cmp(&self.rank)
            .then_with(|| other.pos.cmp(&self.pos))
    }
}

impl PartialOrd for MergeCand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Sentinel for "no neighbor" in the linked-list arrays.
const NONE_IDX: u32 = u32::MAX;

impl Tokenizer {
    /// Wrap a vocabulary into an encoder.
    pub fn new(vocab: Vocab) -> Self {
        let mut ranks = HashMap::with_capacity(vocab.merges.len());
        for (rank, &(l, r)) in vocab.merges.iter().enumerate() {
            ranks.insert((l, r), (rank as u32, 256 + rank as u32));
        }
        Tokenizer { vocab, ranks }
    }

    /// The underlying vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// The merge-rank table (`pair -> (rank, produced id)`); used by the
    /// naive reference encoder.
    pub(crate) fn merge_ranks(&self) -> &HashMap<(u32, u32), (u32, u32)> {
        &self.ranks
    }

    /// Encode text to token ids. A chunk seen earlier in `text` replays
    /// its ids from the output instead of being merged again.
    pub fn encode(&self, text: &str) -> Vec<u32> {
        let mut out = Vec::with_capacity(text.len() / 3 + 1);
        // chunk -> (start, len) of its ids in `out`
        let mut memo: ChunkMemo<(usize, usize)> = ChunkMemo::default();
        for chunk in pretokenize(text) {
            let start = out.len();
            match memo.get(chunk) {
                Some(&(at, len)) => out.extend_from_within(at..at + len),
                None => {
                    self.encode_chunk(chunk.as_bytes(), &mut out);
                    memo.insert(chunk, (start, out.len() - start));
                }
            }
        }
        out
    }

    /// Number of tokens `text` encodes to.
    pub fn count(&self, text: &str) -> usize {
        self.count_run(&[text])[0]
    }

    /// Encode a batch of texts in parallel, one text per task.
    pub fn encode_batch(&self, texts: &[&str]) -> Vec<Vec<u32>> {
        texts.par_iter().map(|t| self.encode(t)).collect()
    }

    /// Token counts for a batch of texts. This is the pipeline's pruning
    /// hot path: the texts split into one contiguous run per worker, and
    /// each run counts with a private chunk memo, so a chunk repeated
    /// across the run's texts is merged once and workers never contend.
    pub fn count_batch(&self, texts: &[&str]) -> Vec<usize> {
        let run_len = texts.len().div_ceil(rayon::current_num_threads()).max(1);
        texts
            .par_chunks(run_len)
            .map(|run| self.count_run(run))
            .collect::<Vec<_>>()
            .concat()
    }

    /// Token counts for `texts`, in order, sharing one chunk -> count memo.
    fn count_run<'t>(&self, texts: &[&'t str]) -> Vec<usize> {
        let mut memo: ChunkMemo<'t, u32> = ChunkMemo::default();
        let mut scratch = Vec::new();
        texts
            .iter()
            .map(|text| {
                pretokenize(text)
                    .into_iter()
                    .map(|chunk| {
                        *memo.entry(chunk).or_insert_with(|| {
                            scratch.clear();
                            self.encode_chunk(chunk.as_bytes(), &mut scratch);
                            scratch.len() as u32
                        }) as usize
                    })
                    .sum()
            })
            .collect()
    }

    /// Merge one chunk with a linked list + min-heap: every adjacent pair
    /// with a known rank enters the heap; popping yields the lowest-rank,
    /// leftmost candidate (the canonical greedy order); merging patches
    /// the list and pushes at most two fresh candidates. O(n log n).
    fn encode_chunk(&self, bytes: &[u8], out: &mut Vec<u32>) {
        let n = bytes.len();
        if n == 0 {
            return;
        }
        if n == 1 || self.ranks.is_empty() {
            out.extend(bytes.iter().map(|&b| b as u32));
            return;
        }

        let mut ids: Vec<u32> = bytes.iter().map(|&b| b as u32).collect();
        let mut next: Vec<u32> = (1..=n as u32).collect();
        next[n - 1] = NONE_IDX;
        let mut prev: Vec<u32> = (0..n as u32).map(|i| i.wrapping_sub(1)).collect();
        prev[0] = NONE_IDX;

        let mut heap: BinaryHeap<MergeCand> = BinaryHeap::with_capacity(n);
        for i in 0..n - 1 {
            if let Some(&(rank, new_id)) = self.ranks.get(&(ids[i], ids[i + 1])) {
                heap.push(MergeCand {
                    rank,
                    pos: i as u32,
                    left: ids[i],
                    right: ids[i + 1],
                    new_id,
                });
            }
        }

        while let Some(cand) = heap.pop() {
            let i = cand.pos as usize;
            let j = next[i];
            // Validate: the position must still start a live pair with the
            // snapshotted ids (merges at or around it invalidate entries).
            if j == NONE_IDX || ids[i] != cand.left || ids[j as usize] != cand.right {
                continue;
            }
            let j = j as usize;

            // Fuse j into i.
            ids[i] = cand.new_id;
            let k = next[j];
            next[i] = k;
            if k != NONE_IDX {
                prev[k as usize] = i as u32;
            }
            next[j] = NONE_IDX; // invalidate stale candidates anchored at j

            // New candidates across the fused token.
            let p = prev[i];
            if p != NONE_IDX {
                if let Some(&(rank, new_id)) = self.ranks.get(&(ids[p as usize], ids[i])) {
                    heap.push(MergeCand {
                        rank,
                        pos: p,
                        left: ids[p as usize],
                        right: ids[i],
                        new_id,
                    });
                }
            }
            if k != NONE_IDX {
                if let Some(&(rank, new_id)) = self.ranks.get(&(ids[i], ids[k as usize])) {
                    heap.push(MergeCand {
                        rank,
                        pos: i as u32,
                        left: ids[i],
                        right: ids[k as usize],
                        new_id,
                    });
                }
            }
        }

        // In-place compaction: walk the surviving list from the head.
        let mut i = 0u32;
        while i != NONE_IDX {
            out.push(ids[i as usize]);
            i = next[i as usize];
        }
    }

    /// Decode token ids back to text.
    ///
    /// # Panics
    /// Panics if the byte stream is not valid UTF-8 (possible only for id
    /// sequences that never came from [`Tokenizer::encode`]).
    pub fn decode(&self, ids: &[u32]) -> String {
        let mut bytes = Vec::with_capacity(ids.len() * 3);
        for &id in ids {
            bytes.extend(self.vocab.token_bytes(id));
        }
        String::from_utf8(bytes).expect("decoded byte stream was not UTF-8")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::naive_encode;
    use crate::train::BpeTrainer;

    fn trained() -> Tokenizer {
        let corpus = [
            "__global__ void add(const float* a, float* b, int n) {",
            "  int i = blockIdx.x * blockDim.x + threadIdx.x;",
            "  if (i < n) { b[i] = a[i] + b[i]; }",
            "}",
            "#pragma omp target teams distribute parallel for",
            "for (int i = 0; i < n; ++i) b[i] += a[i];",
        ];
        Tokenizer::new(BpeTrainer::new(600).train(corpus.iter().copied()))
    }

    #[test]
    fn byte_level_encodes_one_token_per_byte() {
        let tok = Tokenizer::new(Vocab::byte_level());
        let ids = tok.encode("abc");
        assert_eq!(ids, vec![97, 98, 99]);
    }

    #[test]
    fn roundtrip_on_training_like_text() {
        let tok = trained();
        let text = "__global__ void add(const float* a) { int i = threadIdx.x; }";
        assert_eq!(tok.decode(&tok.encode(text)), text);
    }

    #[test]
    fn roundtrip_on_unseen_text_including_unicode() {
        let tok = trained();
        for text in [
            "zebra quux 0xDEADBEEF",
            "λ-calculus ∑",
            "\n\n\t  mixed \r\n",
        ] {
            assert_eq!(tok.decode(&tok.encode(text)), text, "failed on {text:?}");
        }
    }

    #[test]
    fn training_compresses_frequent_patterns() {
        let tok = trained();
        let text = "float* a, float* b, float* c";
        let trained_count = tok.count(text);
        let byte_count = Tokenizer::new(Vocab::byte_level()).count(text);
        assert!(
            trained_count < byte_count / 2,
            "trained {trained_count} vs bytes {byte_count}"
        );
    }

    #[test]
    fn count_matches_encode_len() {
        let tok = trained();
        let text = "if (i < n) { b[i] = a[i] + b[i]; }";
        assert_eq!(tok.count(text), tok.encode(text).len());
    }

    #[test]
    fn empty_text_is_zero_tokens() {
        let tok = trained();
        assert_eq!(tok.encode(""), Vec::<u32>::new());
        assert_eq!(tok.count(""), 0);
    }

    #[test]
    fn token_bytes_reconstruct_merges() {
        let tok = trained();
        for id in 256..(tok.vocab().size() as u32) {
            let bytes = tok.vocab().token_bytes(id);
            assert!(bytes.len() >= 2, "merge token must span >= 2 bytes");
        }
    }

    #[test]
    fn vocab_serde_round_trip() {
        let vocab = trained().vocab().clone();
        let json = serde_json::to_string(&vocab).unwrap();
        let back: Vocab = serde_json::from_str(&json).unwrap();
        assert_eq!(vocab, back);
    }

    #[test]
    fn deterministic_encoding() {
        let tok = trained();
        let text = "#pragma omp target teams distribute parallel for";
        assert_eq!(tok.encode(text), tok.encode(text));
    }

    #[test]
    fn heap_encoder_matches_naive() {
        let tok = trained();
        for text in [
            "__global__ void add(const float* a, float* b, int n) {",
            "aaaa aaa aa a",
            "completely unseen identifiers zebra_quux_9000",
            "for (int i = 0; i < n; ++i) b[i] += a[i];",
            "  \t\t  mixed   whitespace \r\n\n",
        ] {
            assert_eq!(tok.encode(text), naive_encode(&tok, text), "on {text:?}");
        }
    }

    #[test]
    fn memo_does_not_change_results() {
        let tok = trained();
        let text = "float float float float"; // identical chunks -> memo hits
        let ids = tok.encode(text);
        assert_eq!(ids, naive_encode(&tok, text));
        assert_eq!(tok.decode(&ids), text);
        assert_eq!(tok.count(text), ids.len());
    }

    #[test]
    fn batch_apis_match_sequential() {
        let tok = trained();
        let texts = [
            "__global__ void k(float* a) { a[0] = 1.0f; }",
            "#pragma omp parallel for",
            "",
            "λ λ λ",
        ];
        // A prime-length batch (longer than the thread count, so split
        // into uneven runs) whose texts repeat chunks across each other.
        let repeated: Vec<String> = (0..37)
            .map(|i| format!("float a{} = b[i] + {i}; {}", i % 5, texts[i % texts.len()]))
            .collect();
        for refs in [
            texts.to_vec(),
            repeated.iter().map(String::as_str).collect(),
        ] {
            let batch_ids = tok.encode_batch(&refs);
            let batch_counts = tok.count_batch(&refs);
            assert_eq!(batch_counts.len(), refs.len());
            for (i, t) in refs.iter().enumerate() {
                assert_eq!(batch_ids[i], naive_encode(&tok, t), "ids diverged on {t:?}");
                assert_eq!(batch_counts[i], tok.count(t), "count diverged on {t:?}");
                assert_eq!(batch_counts[i], batch_ids[i].len());
            }
        }
        assert!(tok.count_batch(&[]).is_empty());
    }
}
