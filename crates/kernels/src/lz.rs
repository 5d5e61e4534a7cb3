//! Lempel-Ziv match search (LZ kernel).
//!
//! Table III: LZ "hashes four input bytes to index into \[the\] first array of
//! \[the\] hash-chain, which records \[the\] position of \[the\] previous instance
//! of the same data; indexes \[the\] second array … and find[s the] distance
//! to \[the\] previous occurrence." The same PE front-ends both the LZ4 and
//! LZMA pipelines (PE reuse generalization, §IV-A); the history length is
//! the doctor-tunable parameter swept in Figure 7 (256–4096 bytes in Table
//! III, with 8192 evaluated — and rejected for power — in the sweep).

/// Minimum match length worth emitting (4 bytes — the hash width).
pub const MIN_MATCH: usize = 4;

/// Maximum match length a single op may carry.
pub const MAX_MATCH: usize = 65_535;

/// Smallest legal history window.
pub const MIN_HISTORY: usize = 256;

/// Largest history evaluated in the paper's design-space sweep (Figure 7).
pub const MAX_HISTORY: usize = 8_192;

/// One step of an LZ parse: a raw byte or a back-reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LzOp {
    /// A byte with no usable previous occurrence.
    Literal(u8),
    /// Copy `len` bytes from `dist` bytes back.
    Match {
        /// Match length in bytes (`MIN_MATCH..=MAX_MATCH`).
        len: u32,
        /// Back-reference distance in bytes (`1..=history`).
        dist: u32,
    },
}

/// Error returned for an unsupported history length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidHistory(pub usize);

impl std::fmt::Display for InvalidHistory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "history {} outside {MIN_HISTORY}..={MAX_HISTORY} or not a power of two",
            self.0
        )
    }
}

impl std::error::Error for InvalidHistory {}

/// Hash-chain match finder over a bounded history window.
///
/// # Example
///
/// ```
/// use halo_kernels::{LzMatcher, LzOp};
/// let lz = LzMatcher::new(4096).unwrap();
/// let data = b"neural data neural data neural data";
/// let ops = lz.parse(data);
/// assert!(ops.iter().any(|op| matches!(op, LzOp::Match { .. })));
/// assert_eq!(LzMatcher::reconstruct(&ops), data);
/// ```
#[derive(Debug, Clone)]
pub struct LzMatcher {
    history: usize,
    max_chain: usize,
    min_match: usize,
}

impl LzMatcher {
    /// Number of head-table entries ("first array size is 8KB": 2048 × u32).
    const HASH_ENTRIES: usize = 2048;

    /// Creates a matcher with the given power-of-two history window.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidHistory`] unless `history` is a power of two in
    /// `256..=8192`.
    pub fn new(history: usize) -> Result<Self, InvalidHistory> {
        if !history.is_power_of_two() || !(MIN_HISTORY..=MAX_HISTORY).contains(&history) {
            return Err(InvalidHistory(history));
        }
        Ok(Self {
            history,
            max_chain: 32,
            min_match: MIN_MATCH,
        })
    }

    /// Raises the minimum match length the parser will emit (≥ 4). Entropy
    /// coders with strong literal models (the MA/RC pair) price short
    /// matches above the literals they replace, so the LZMA pipeline parses
    /// with a higher floor.
    ///
    /// # Panics
    ///
    /// Panics if `min_match < MIN_MATCH`.
    pub fn with_min_match(mut self, min_match: usize) -> Self {
        assert!(min_match >= MIN_MATCH, "minimum match below {MIN_MATCH}");
        self.min_match = min_match;
        self
    }

    /// The configured minimum emitted match length.
    pub fn min_match(&self) -> usize {
        self.min_match
    }

    /// The configured history window in bytes.
    pub fn history(&self) -> usize {
        self.history
    }

    /// Total PE memory implied by the configuration, in bytes: the 8 KB
    /// head array plus the `2 × history` chain array plus the history
    /// window itself (Table III caps the total at 24 KB for H = 4096).
    pub fn memory_bytes(&self) -> usize {
        Self::HASH_ENTRIES * 4 + 2 * self.history + self.history
    }

    fn hash(window: &[u8]) -> usize {
        let v = u32::from_le_bytes([window[0], window[1], window[2], window[3]]);
        (v.wrapping_mul(2654435761) >> 21) as usize % Self::HASH_ENTRIES
    }

    /// Parses `input` into literals and matches, with one-step lazy
    /// matching: if deferring a match by one byte yields a strictly longer
    /// match, the current byte is emitted as a literal instead (the
    /// standard high-compression refinement of hash-chain parsers).
    pub fn parse(&self, input: &[u8]) -> Vec<LzOp> {
        let n = input.len();
        let mut ops = Vec::new();
        if n == 0 {
            return ops;
        }
        // head[h]: most recent position with hash h (+1; 0 = none).
        let mut head = vec![0u32; Self::HASH_ENTRIES];
        // chain[pos & (history - 1)]: previous position with the same hash
        // (+1).
        let mut chain = vec![0u32; self.history];
        let mut pos = 0usize;
        // A lookahead that won the lazy check is exactly the search the
        // next position would run: nothing is inserted in between.
        let mut lookahead = None;
        while pos < n {
            let (best_len, best_dist) = lookahead
                .take()
                .unwrap_or_else(|| self.find_match(input, pos, &head, &chain));
            if best_len >= self.min_match {
                // Lazy check: would starting one byte later find a longer
                // match?
                if pos + 1 < n {
                    self.insert(input, pos, &mut head, &mut chain);
                    let next = self.find_match(input, pos + 1, &head, &chain);
                    if next.0 > best_len {
                        ops.push(LzOp::Literal(input[pos]));
                        pos += 1;
                        lookahead = Some(next);
                        continue;
                    }
                    // Committed: cover the match (pos already inserted).
                    ops.push(LzOp::Match {
                        len: best_len as u32,
                        dist: best_dist as u32,
                    });
                    let end = pos + best_len;
                    pos += 1;
                    while pos < end {
                        self.insert(input, pos, &mut head, &mut chain);
                        pos += 1;
                    }
                    continue;
                }
                ops.push(LzOp::Match {
                    len: best_len as u32,
                    dist: best_dist as u32,
                });
                pos += best_len;
            } else {
                ops.push(LzOp::Literal(input[pos]));
                self.insert(input, pos, &mut head, &mut chain);
                pos += 1;
            }
        }
        ops
    }

    /// Walks the hash chain at `pos` for the longest in-window match: the
    /// first candidate in chain order reaching the greatest length. Only a
    /// length of at least `min_match` is meaningful to the parser, so the
    /// search starts there; a shorter best comes back as `min_match - 1`.
    fn find_match(&self, input: &[u8], pos: usize, head: &[u32], chain: &[u32]) -> (usize, usize) {
        let n = input.len();
        let mut best_len = self.min_match - 1;
        let mut best_dist = 0usize;
        if pos + MIN_MATCH <= n {
            let max = (n - pos).min(MAX_MATCH);
            let h = Self::hash(&input[pos..]);
            let mut candidate = head[h] as usize;
            let mut depth = 0;
            while candidate > 0 && depth < self.max_chain && best_len < max {
                let cand = candidate - 1;
                if cand >= pos || pos - cand > self.history {
                    break;
                }
                // A candidate can only beat `best_len` if it also matches
                // the byte at `best_len`: one compare rejects most.
                if input[cand + best_len] == input[pos + best_len] {
                    let len = Self::match_len(input, cand, pos, max);
                    if len > best_len {
                        best_len = len;
                        best_dist = pos - cand;
                    }
                }
                candidate = chain[cand & (self.history - 1)] as usize;
                depth += 1;
            }
        }
        (best_len, best_dist)
    }

    fn insert(&self, input: &[u8], pos: usize, head: &mut [u32], chain: &mut [u32]) {
        if pos + MIN_MATCH <= input.len() {
            let h = Self::hash(&input[pos..]);
            chain[pos & (self.history - 1)] = head[h];
            head[h] = (pos + 1) as u32;
        }
    }

    /// Length of the common run at `cand` and `pos`, up to `max`, compared
    /// eight bytes at a time. Overlapping matches (dist < len) are legal:
    /// both runs read the input itself.
    fn match_len(input: &[u8], cand: usize, pos: usize, max: usize) -> usize {
        let word =
            |at: usize| u64::from_le_bytes(input[at..at + 8].try_into().expect("eight-byte slice"));
        let mut len = 0;
        while len + 8 <= max {
            let diff = word(cand + len) ^ word(pos + len);
            if diff != 0 {
                return len + (diff.trailing_zeros() / 8) as usize;
            }
            len += 8;
        }
        while len < max && input[cand + len] == input[pos + len] {
            len += 1;
        }
        len
    }

    /// Rebuilds the original bytes from a parse — the decoder-side copy
    /// loop shared by the LZ4 and LZMA decompressors.
    pub fn reconstruct(ops: &[LzOp]) -> Vec<u8> {
        let mut out = Vec::new();
        for op in ops {
            match *op {
                LzOp::Literal(b) => out.push(b),
                LzOp::Match { len, dist } => {
                    let dist = dist as usize;
                    assert!(dist >= 1 && dist <= out.len(), "bad distance {dist}");
                    let start = out.len() - dist;
                    // Byte-by-byte to support overlapped copies.
                    for i in 0..len as usize {
                        let b = out[start + i];
                        out.push(b);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(lz: &LzMatcher, data: &[u8]) -> Vec<LzOp> {
        let ops = lz.parse(data);
        assert_eq!(LzMatcher::reconstruct(&ops), data, "round-trip failed");
        ops
    }

    #[test]
    fn history_validation() {
        assert!(LzMatcher::new(128).is_err());
        assert!(LzMatcher::new(300).is_err());
        assert!(LzMatcher::new(16_384).is_err());
        for h in [256, 512, 1024, 2048, 4096, 8192] {
            assert!(LzMatcher::new(h).is_ok(), "history {h}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let lz = LzMatcher::new(256).unwrap();
        assert!(lz.parse(&[]).is_empty());
        round_trip(&lz, b"a");
        round_trip(&lz, b"abc");
    }

    #[test]
    fn repetitive_data_produces_matches() {
        let lz = LzMatcher::new(1024).unwrap();
        let data: Vec<u8> = b"0123456789".repeat(50);
        let ops = round_trip(&lz, &data);
        let matches = ops
            .iter()
            .filter(|op| matches!(op, LzOp::Match { .. }))
            .count();
        assert!(matches >= 1);
        // Parse should be much shorter than the input.
        assert!(ops.len() < data.len() / 4, "{} ops", ops.len());
    }

    #[test]
    fn incompressible_data_is_all_literals() {
        let lz = LzMatcher::new(4096).unwrap();
        // A de Bruijn-ish sequence with no 4-byte repeats.
        let data: Vec<u8> = (0u32..1000)
            .flat_map(|i| i.wrapping_mul(2654435761).to_le_bytes())
            .collect();
        let ops = round_trip(&lz, &data);
        let literals = ops
            .iter()
            .filter(|op| matches!(op, LzOp::Literal(_)))
            .count();
        assert!(literals as f64 > ops.len() as f64 * 0.9);
    }

    #[test]
    fn overlapped_match_round_trips() {
        let lz = LzMatcher::new(256).unwrap();
        // "aaaaaaaa…" forces dist=1, len>1 overlapped copies.
        let data = vec![b'a'; 300];
        let ops = round_trip(&lz, &data);
        assert!(ops
            .iter()
            .any(|op| matches!(op, LzOp::Match { dist: 1, len } if *len > 1)));
    }

    #[test]
    fn matches_respect_history_window() {
        let lz = LzMatcher::new(256).unwrap();
        // Repeat a motif at distance 512 — outside the 256-byte window.
        let mut data = b"UNIQUEMOTIF".to_vec();
        data.extend(
            std::iter::repeat_n(0xAB, 512)
                .enumerate()
                .map(|(i, _)| (i % 251) as u8),
        );
        data.extend_from_slice(b"UNIQUEMOTIF");
        let ops = round_trip(&lz, &data);
        for op in &ops {
            if let LzOp::Match { dist, .. } = op {
                assert!(*dist as usize <= 256, "match crossed the window: {dist}");
            }
        }
    }

    #[test]
    fn larger_history_finds_more_matches() {
        // Motifs recur at ~1.5 KB spacing; only the larger window sees them.
        let motif: Vec<u8> = (0..64u8).collect();
        let mut data = Vec::new();
        for i in 0..20u32 {
            data.extend_from_slice(&motif);
            data.extend((0..1500u32).map(|j| ((i * 7 + j) % 251) as u8));
        }
        let small = LzMatcher::new(256).unwrap().parse(&data);
        let large = LzMatcher::new(4096).unwrap().parse(&data);
        assert!(
            large.len() < small.len(),
            "{} !< {}",
            large.len(),
            small.len()
        );
    }

    #[test]
    fn memory_model_matches_table_iii() {
        // Table III: max memory 24 KB at H = 4096 (8 KB head + 2H chain + window).
        let lz = LzMatcher::new(4096).unwrap();
        assert!(lz.memory_bytes() <= 24 * 1024);
    }
}
