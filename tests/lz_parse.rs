//! The LZ match finder's parse is a contract: the LZ4 and LZMA streams,
//! and every compression figure built on them, depend on which match it
//! picks. `reference` below is a frozen copy of the straightforward hash-
//! chain parser (byte-at-a-time compares, no shortcuts); the shipped
//! `LzMatcher::parse` must emit exactly the same ops for every history,
//! both minimum match lengths, and random, repetitive and neural inputs.

use halo::kernels::{LzMatcher, LzOp};
use halo::signal::{RecordingConfig, RegionProfile, SimRng};

const HASH_ENTRIES: usize = 2048;
const MAX_CHAIN: usize = 32;
const MAX_MATCH: usize = 65_535;

fn hash(window: &[u8]) -> usize {
    let v = u32::from_le_bytes([window[0], window[1], window[2], window[3]]);
    (v.wrapping_mul(2654435761) >> 21) as usize % HASH_ENTRIES
}

fn find_match(
    input: &[u8],
    pos: usize,
    history: usize,
    head: &[u32],
    chain: &[u32],
) -> (usize, usize) {
    let n = input.len();
    let (mut best_len, mut best_dist) = (0, 0);
    if pos + 4 <= n {
        let mut candidate = head[hash(&input[pos..])] as usize;
        let mut depth = 0;
        while candidate > 0 && depth < MAX_CHAIN {
            let cand = candidate - 1;
            if cand >= pos || pos - cand > history {
                break;
            }
            let max = (n - pos).min(MAX_MATCH);
            let mut len = 0;
            while len < max && input[cand + len] == input[pos + len] {
                len += 1;
            }
            if len > best_len {
                best_len = len;
                best_dist = pos - cand;
                if len >= MAX_MATCH {
                    break;
                }
            }
            candidate = chain[cand % history] as usize;
            depth += 1;
        }
    }
    (best_len, best_dist)
}

fn insert(input: &[u8], pos: usize, history: usize, head: &mut [u32], chain: &mut [u32]) {
    if pos + 4 <= input.len() {
        let h = hash(&input[pos..]);
        chain[pos % history] = head[h];
        head[h] = (pos + 1) as u32;
    }
}

fn reference(input: &[u8], history: usize, min_match: usize) -> Vec<LzOp> {
    let n = input.len();
    let mut ops = Vec::new();
    let mut head = vec![0u32; HASH_ENTRIES];
    let mut chain = vec![0u32; history];
    let mut pos = 0;
    while pos < n {
        let (best_len, best_dist) = find_match(input, pos, history, &head, &chain);
        if best_len < min_match {
            ops.push(LzOp::Literal(input[pos]));
            insert(input, pos, history, &mut head, &mut chain);
            pos += 1;
            continue;
        }
        let op = LzOp::Match {
            len: best_len as u32,
            dist: best_dist as u32,
        };
        if pos + 1 >= n {
            ops.push(op);
            pos += best_len;
            continue;
        }
        insert(input, pos, history, &mut head, &mut chain);
        let (next_len, _) = find_match(input, pos + 1, history, &head, &chain);
        if next_len > best_len {
            ops.push(LzOp::Literal(input[pos]));
            pos += 1;
            continue;
        }
        ops.push(op);
        let end = pos + best_len;
        pos += 1;
        while pos < end {
            insert(input, pos, history, &mut head, &mut chain);
            pos += 1;
        }
    }
    ops
}

/// Motifs copied with occasional mutations at varying distances: long,
/// overlapping and near-tie matches.
fn repetitive(rng: &mut SimRng, len: usize) -> Vec<u8> {
    let mut out = rng.bytes(16);
    while out.len() < len {
        if rng.range_u64(0, 4) == 0 {
            let fresh = rng.range_usize(1, 12);
            out.extend(rng.bytes(fresh));
        } else {
            let dist = rng.range_usize(1, out.len().min(9000) + 1);
            let run = rng.range_usize(1, 300);
            for _ in 0..run {
                let b = out[out.len() - dist];
                out.push(if rng.range_u64(0, 64) == 0 { b ^ 1 } else { b });
            }
        }
    }
    out.truncate(len);
    out
}

fn neural(seed: u64, frames: usize) -> Vec<u8> {
    RecordingConfig::new(RegionProfile::arm())
        .channels(8)
        .samples(frames)
        .generate(seed)
        .samples()
        .iter()
        .flat_map(|s| s.to_le_bytes())
        .collect()
}

#[test]
fn parse_matches_the_frozen_reference() {
    let mut rng = SimRng::new(0x12a5);
    for case in 0..24u64 {
        let len = rng.range_usize(0, 20_000);
        let input = match case % 3 {
            0 => rng.bytes(len),
            1 => repetitive(&mut rng, len),
            _ => neural(case, len / 16 + 1),
        };
        for history in [256, 512, 1024, 2048, 4096, 8192] {
            for min_match in [4, 8] {
                let lz = LzMatcher::new(history).unwrap().with_min_match(min_match);
                assert!(
                    lz.parse(&input) == reference(&input, history, min_match),
                    "case {case}: {} bytes, history {history}, min_match {min_match}",
                    input.len()
                );
            }
        }
    }
}
