//! AES-128 encryption (AES kernel).
//!
//! §III: "HIPAA, NIST, and NSA require using AES with an encryption key of
//! at least 128 bits" for patient data leaving the implant; Table III
//! specifies AES-128 in ECB mode. This is a from-scratch FIPS-197
//! implementation (encrypt and decrypt; decrypt exists so round-trip tests
//! can prove correctness — the device itself only encrypts).
//!
//! ECB mode is what the paper's PE implements, so that is what we model;
//! its well-known pattern-leakage caveat is a property of the paper's
//! design point, not of this reproduction. Encryption runs T-table rounds,
//! which index tables by secret state bytes as any S-box lookup does, so
//! this host model is not constant-time; the hardware PE is what the
//! paper deploys.

/// AES S-box (FIPS-197 §5.1.1).
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants for key expansion.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Encryption T-table: `TE[x]` is the MixColumns column of `S(x)` in row 0,
/// `(2·S(x), S(x), S(x), 3·S(x))` packed little-endian (row `r` in bits
/// `8r..8r+8`). Row `r`'s table is this one rotated left by `8r` bits, so
/// one round of SubBytes, ShiftRows and MixColumns is four lookups and
/// XORs per column.
const TE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        let s2 = xtime(s);
        table[i] = u32::from_le_bytes([s2, s, s, s2 ^ s]);
        i += 1;
    }
    table
};

/// Multiplication by 2 in GF(2^8) with the AES polynomial 0x11b.
const fn xtime(a: u8) -> u8 {
    (a << 1) ^ if a & 0x80 != 0 { 0x1b } else { 0 }
}

/// Inverse S-box, generated from [`SBOX`] at construction time.
fn inv_sbox() -> [u8; 256] {
    let mut inv = [0u8; 256];
    for (i, &s) in SBOX.iter().enumerate() {
        inv[s as usize] = i as u8;
    }
    inv
}

/// Multiplication in GF(2^8) with the AES polynomial 0x11b.
fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

/// Column `c` of a 16-byte column-major state (`state[r + 4c]`) as a
/// little-endian word, row `r` in bits `8r..8r+8`.
fn column(state: &[u8; 16], c: usize) -> u32 {
    u32::from_le_bytes([
        state[4 * c],
        state[4 * c + 1],
        state[4 * c + 2],
        state[4 * c + 3],
    ])
}

/// Byte `r` (row `r`) of a column word, as a table index.
fn row(word: u32, r: usize) -> usize {
    (word >> (8 * r)) as u8 as usize
}

/// AES-128 block cipher in ECB mode — the AES PE.
///
/// # Example
///
/// ```
/// use halo_kernels::Aes128;
/// let aes = Aes128::new([0u8; 16]);
/// let mut block = *b"0123456789abcdef";
/// let original = block;
/// aes.encrypt_block(&mut block);
/// assert_ne!(block, original);
/// aes.decrypt_block(&mut block);
/// assert_eq!(block, original);
/// ```
#[derive(Debug, Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; 11],
    inv_sbox: [u8; 256],
}

impl Aes128 {
    /// Expands a 128-bit key into the round-key schedule.
    pub fn new(key: [u8; 16]) -> Self {
        let mut w = [[0u8; 4]; 44];
        for i in 0..4 {
            w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for t in &mut temp {
                    *t = SBOX[*t as usize];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
        }
        Self {
            round_keys,
            inv_sbox: inv_sbox(),
        }
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for (s, k) in state.iter_mut().zip(rk) {
            *s ^= k;
        }
    }

    /// Encrypts one 16-byte block in place.
    ///
    /// The state is held as four column words. ShiftRows moves row `r` of
    /// output column `c` from input column `c + r (mod 4)`, so each round
    /// gathers those bytes and sums their [`TE`] columns; the last round,
    /// which has no MixColumns, takes the S-box bytes alone.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let rk = &self.round_keys;
        let mut s: [u32; 4] = core::array::from_fn(|c| column(block, c) ^ column(&rk[0], c));
        for key in &rk[1..10] {
            s = core::array::from_fn(|c| {
                TE[row(s[c], 0)]
                    ^ TE[row(s[(c + 1) & 3], 1)].rotate_left(8)
                    ^ TE[row(s[(c + 2) & 3], 2)].rotate_left(16)
                    ^ TE[row(s[(c + 3) & 3], 3)].rotate_left(24)
                    ^ column(key, c)
            });
        }
        for c in 0..4 {
            let bytes: [u8; 4] = core::array::from_fn(|r| SBOX[row(s[(c + r) & 3], r)]);
            let out = u32::from_le_bytes(bytes) ^ column(&rk[10], c);
            block[4 * c..4 * c + 4].copy_from_slice(&out.to_le_bytes());
        }
    }

    fn inv_sub_bytes(&self, state: &mut [u8; 16]) {
        for s in state.iter_mut() {
            *s = self.inv_sbox[*s as usize];
        }
    }

    fn inv_shift_rows(state: &mut [u8; 16]) {
        let copy = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[r + 4 * ((c + r) % 4)] = copy[r + 4 * c];
            }
        }
    }

    fn inv_mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            state[4 * c] = gmul(col[0], 14) ^ gmul(col[1], 11) ^ gmul(col[2], 13) ^ gmul(col[3], 9);
            state[4 * c + 1] =
                gmul(col[0], 9) ^ gmul(col[1], 14) ^ gmul(col[2], 11) ^ gmul(col[3], 13);
            state[4 * c + 2] =
                gmul(col[0], 13) ^ gmul(col[1], 9) ^ gmul(col[2], 14) ^ gmul(col[3], 11);
            state[4 * c + 3] =
                gmul(col[0], 11) ^ gmul(col[1], 13) ^ gmul(col[2], 9) ^ gmul(col[3], 14);
        }
    }

    /// Decrypts one 16-byte block in place (test/verification support; the
    /// implant-side PE only encrypts).
    pub fn decrypt_block(&self, block: &mut [u8; 16]) {
        Self::add_round_key(block, &self.round_keys[10]);
        Self::inv_shift_rows(block);
        self.inv_sub_bytes(block);
        for round in (1..10).rev() {
            Self::add_round_key(block, &self.round_keys[round]);
            Self::inv_mix_columns(block);
            Self::inv_shift_rows(block);
            self.inv_sub_bytes(block);
        }
        Self::add_round_key(block, &self.round_keys[0]);
    }

    /// Encrypts a byte stream in ECB mode, zero-padding the final partial
    /// block. Output length is `data.len()` rounded up to 16.
    pub fn encrypt_ecb(&self, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len().div_ceil(16) * 16);
        for chunk in data.chunks(16) {
            let mut block = [0u8; 16];
            block[..chunk.len()].copy_from_slice(chunk);
            self.encrypt_block(&mut block);
            out.extend_from_slice(&block);
        }
        out
    }

    /// Decrypts an ECB stream produced by [`Aes128::encrypt_ecb`]. The
    /// caller must strip any zero padding using its own length records.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of 16.
    pub fn decrypt_ecb(&self, data: &[u8]) -> Vec<u8> {
        assert!(
            data.len().is_multiple_of(16),
            "ciphertext must be block aligned"
        );
        let mut out = Vec::with_capacity(data.len());
        for chunk in data.chunks_exact(16) {
            let mut block = [0u8; 16];
            block.copy_from_slice(chunk);
            self.decrypt_block(&mut block);
            out.extend_from_slice(&block);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_signal::SimRng;

    // The byte-wise FIPS-197 §5.1 round functions: the reference the
    // T-table rounds of `encrypt_block` are checked against.

    fn sub_bytes(state: &mut [u8; 16]) {
        for s in state.iter_mut() {
            *s = SBOX[*s as usize];
        }
    }

    fn shift_rows(state: &mut [u8; 16]) {
        // State is column-major: state[r + 4c]. Row r rotates left by r.
        let copy = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[r + 4 * c] = copy[r + 4 * ((c + r) % 4)];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            state[4 * c] = gmul(col[0], 2) ^ gmul(col[1], 3) ^ col[2] ^ col[3];
            state[4 * c + 1] = col[0] ^ gmul(col[1], 2) ^ gmul(col[2], 3) ^ col[3];
            state[4 * c + 2] = col[0] ^ col[1] ^ gmul(col[2], 2) ^ gmul(col[3], 3);
            state[4 * c + 3] = gmul(col[0], 3) ^ col[1] ^ col[2] ^ gmul(col[3], 2);
        }
    }

    fn reference_encrypt(aes: &Aes128, block: &mut [u8; 16]) {
        Aes128::add_round_key(block, &aes.round_keys[0]);
        for round in 1..10 {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            Aes128::add_round_key(block, &aes.round_keys[round]);
        }
        sub_bytes(block);
        shift_rows(block);
        Aes128::add_round_key(block, &aes.round_keys[10]);
    }

    fn random_block(rng: &mut SimRng) -> [u8; 16] {
        let mut block = [0u8; 16];
        rng.fill_bytes(&mut block);
        block
    }

    /// FIPS-197 Appendix B: the canonical AES-128 example.
    #[test]
    fn fips197_appendix_b_vector() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let mut block = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expected = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        let aes = Aes128::new(key);
        aes.encrypt_block(&mut block);
        assert_eq!(block, expected);
    }

    /// FIPS-197 Appendix C.1: AES-128 known-answer test.
    #[test]
    fn fips197_appendix_c1_vector() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let mut block: [u8; 16] = core::array::from_fn(|i| (i as u8) * 0x11);
        let expected = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        let aes = Aes128::new(key);
        aes.encrypt_block(&mut block);
        assert_eq!(block, expected);
        aes.decrypt_block(&mut block);
        let original: [u8; 16] = core::array::from_fn(|i| (i as u8) * 0x11);
        assert_eq!(block, original);
    }

    #[test]
    fn ecb_round_trip_with_padding() {
        let aes = Aes128::new([7u8; 16]);
        let data: Vec<u8> = (0..53u8).collect(); // not block aligned
        let ct = aes.encrypt_ecb(&data);
        assert_eq!(ct.len(), 64);
        let pt = aes.decrypt_ecb(&ct);
        assert_eq!(&pt[..53], &data[..]);
        assert!(pt[53..].iter().all(|&b| b == 0));
    }

    #[test]
    fn ecb_output_length_is_input_rounded_up() {
        let aes = Aes128::new([0u8; 16]);
        assert_eq!(aes.encrypt_ecb(&[]).len(), 0);
        assert_eq!(aes.encrypt_ecb(&[1]).len(), 16);
        assert_eq!(aes.encrypt_ecb(&[0; 16]).len(), 16);
        assert_eq!(aes.encrypt_ecb(&[0; 17]).len(), 32);
    }

    #[test]
    fn different_keys_differ() {
        let a = Aes128::new([1u8; 16]);
        let b = Aes128::new([2u8; 16]);
        let mut x = [9u8; 16];
        let mut y = [9u8; 16];
        a.encrypt_block(&mut x);
        b.encrypt_block(&mut y);
        assert_ne!(x, y);
    }

    #[test]
    fn gf_multiplication_identities() {
        assert_eq!(gmul(0x57, 0x13), 0xfe); // FIPS-197 §4.2 example
        assert_eq!(gmul(1, 0xab), 0xab);
        assert_eq!(gmul(0, 0xff), 0);
    }

    #[test]
    fn sbox_is_a_permutation() {
        let mut seen = [false; 256];
        for &s in SBOX.iter() {
            assert!(!seen[s as usize], "duplicate sbox entry {s:#x}");
            seen[s as usize] = true;
        }
    }

    #[test]
    fn t_table_rounds_match_bytewise_reference() {
        let mut rng = SimRng::new(0xae5);
        for _ in 0..64 {
            let aes = Aes128::new(random_block(&mut rng));
            for _ in 0..16 {
                let plain = random_block(&mut rng);
                let mut want = plain;
                reference_encrypt(&aes, &mut want);
                let mut got = plain;
                aes.encrypt_block(&mut got);
                assert_eq!(got, want, "plaintext {plain:02x?}");
                aes.decrypt_block(&mut got);
                assert_eq!(got, plain, "round trip");
            }
        }
    }

    #[test]
    fn t_table_is_sbox_times_mix_column() {
        for x in 0..=255u8 {
            let s = SBOX[x as usize];
            assert_eq!(TE[x as usize].to_le_bytes(), [gmul(s, 2), s, s, gmul(s, 3)]);
        }
    }
}
