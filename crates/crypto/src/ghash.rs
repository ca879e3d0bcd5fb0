//! GHASH universal hash over GF(2^128), as specified for GCM
//! (NIST SP 800-38D).
//!
//! The accumulator plus a partial-block buffer is the *entire* mutable state,
//! which is what makes GCM "incrementally computable over any byte range of a
//! message given only constant-size state" — the §3.2 precondition for
//! autonomous offloading.
//!
//! Field multiplication is a table-free carry-less multiply built on integer
//! multiplies. `clmul64` splits each 64-bit operand into five interleaved
//! bit masks, so that the carries of each integer product stay in the
//! four-bit holes between the bits it keeps. Three such 64×64 products give
//! the 128×128 product (Karatsuba), and `reduce` folds it back modulo the
//! GCM polynomial. Whole 64-byte runs are hashed four blocks per reduction,
//! as `(Y ⊕ X1)·H⁴ ⊕ X2·H³ ⊕ X3·H² ⊕ X4·H`: the four products are
//! independent, so they overlap instead of forming one serial chain. The
//! per-key precompute is those four powers of H, 64 bytes.

// ano-lint: allow-file(transitive-panic): GHASH kernel: 16-byte block arithmetic; indices are constants and chunks_exact guarantees block width
/// Bits at positions ≡ 0 (mod 5) of a `u64`: 0, 5, …, 60.
const LANE64: u64 = 0x1084_2108_4210_8421;
/// Bits at positions ≡ 0 (mod 5) of a `u128`: 0, 5, …, 125.
const LANE128: u128 = LANE64 as u128 | (LANE64 as u128) << 65;

/// Carry-less product of two 64-bit polynomials (bit `i` is the coefficient
/// of `x^i`).
///
/// Operand lane `k` keeps the bits at positions ≡ k (mod 5), at most 13 of
/// them, so an integer product of two lanes sums at most 13 terms at each
/// output position. Such a sum fits in four bits, so its carries never reach
/// the next position of the lane five bits up, and the product's bits in
/// lane `i + j` are exact parities.
fn clmul64(x: u64, y: u64) -> u128 {
    let xs = [0, 1, 2, 3, 4].map(|k| u128::from(x & (LANE64 << k)));
    let ys = [0, 1, 2, 3, 4].map(|k| u128::from(y & (LANE64 << k)));
    let mut z = 0;
    for k in 0..5 {
        let mut lane = 0;
        for i in 0..5 {
            lane ^= xs[i] * ys[(k + 5 - i) % 5];
        }
        z |= lane & (LANE128 << k);
    }
    z
}

/// Carry-less 128×128 product as `(high, low)` halves (Karatsuba over
/// [`clmul64`]).
fn clmul128(a: u128, b: u128) -> (u128, u128) {
    let (a1, a0) = ((a >> 64) as u64, a as u64);
    let (b1, b0) = ((b >> 64) as u64, b as u64);
    let lo = clmul64(a0, b0);
    let hi = clmul64(a1, b1);
    let mid = clmul64(a0 ^ a1, b0 ^ b1) ^ lo ^ hi;
    (hi ^ (mid >> 64), lo ^ (mid << 64))
}

/// Reduces a carry-less product of two GCM-ordered elements modulo
/// `x^128 + x^7 + x^2 + x + 1`.
///
/// GCM stores the coefficient of `x^0` in the most significant bit, so the
/// integer product of two elements is the field product reflected across
/// 255 bits. One left shift aligns it: `hi` then holds `x^0..x^127` and `lo`
/// holds `x^128..x^255`, both in GCM order, where multiplying by `x^k` is a
/// right shift by `k`. Since `x^128 = x^7 + x^2 + x + 1`, `lo` folds into
/// `hi` as `lo·(x^7 + x^2 + x + 1)`. That fold pushes at most seven bits
/// past `x^127` (`spill`); they fold once more and then fit.
fn reduce((hi, lo): (u128, u128)) -> u128 {
    let (hi, lo) = ((hi << 1) | (lo >> 127), lo << 1);
    let fold = |v: u128| v ^ (v >> 1) ^ (v >> 2) ^ (v >> 7);
    let spill = (lo << 127) ^ (lo << 126) ^ (lo << 121);
    hi ^ fold(lo) ^ fold(spill)
}

/// Multiplies two elements of GF(2^128) in the GCM bit order.
///
/// Bit 0 of the polynomial is the most-significant bit of the first byte, and
/// the field is reduced by `x^128 + x^7 + x^2 + x + 1`.
pub fn gf_mul(x: u128, y: u128) -> u128 {
    reduce(clmul128(x, y))
}

/// Converts a 16-byte block to the u128 big-endian polynomial representation.
#[inline]
pub fn block_to_u128(b: &[u8; 16]) -> u128 {
    u128::from_be_bytes(*b)
}

/// Converts back to bytes.
#[inline]
pub fn u128_to_block(v: u128) -> [u8; 16] {
    v.to_be_bytes()
}

/// Streaming GHASH with an internal partial-block buffer.
///
/// # Examples
///
/// ```
/// use ano_crypto::ghash::Ghash;
/// let h = 0x66e94bd4ef8a2c3b884cfa59ca342b2eu128;
/// let mut a = Ghash::new(h);
/// a.update(b"hello world, this is ghash input");
/// let mut b = Ghash::new(h);
/// b.update(b"hello world, ");
/// b.update(b"this is ghash input");
/// assert_eq!(a.finalize(), b.finalize());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ghash {
    /// `[H, H², H³, H⁴]`: static per key, derived from H.
    powers: [u128; 4],
    acc: u128,
    pending: [u8; 16],
    pending_len: usize,
}

/// `[H, H², H³, H⁴]`.
fn powers_of(h: u128) -> [u128; 4] {
    let h2 = gf_mul(h, h);
    let h3 = gf_mul(h2, h);
    [h, h2, h3, gf_mul(h3, h)]
}

impl Ghash {
    /// Creates a GHASH instance keyed by `h` (the encrypted all-zero block).
    pub fn new(h: u128) -> Ghash {
        Ghash {
            powers: powers_of(h),
            acc: 0,
            pending: [0; 16],
            pending_len: 0,
        }
    }

    /// Absorbs bytes; block boundaries may fall anywhere.
    pub fn update(&mut self, mut data: &[u8]) {
        if self.pending_len > 0 {
            let take = (16 - self.pending_len).min(data.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&data[..take]);
            self.pending_len += take;
            data = &data[take..];
            if self.pending_len == 16 {
                let block = self.pending;
                self.absorb_block(&block);
                self.pending_len = 0;
            }
            if data.is_empty() {
                return;
            }
        }
        let mut quads = data.chunks_exact(64);
        for q in &mut quads {
            self.absorb_quad(q.try_into().expect("exact chunk"));
        }
        let mut chunks = quads.remainder().chunks_exact(16);
        for c in &mut chunks {
            let block: &[u8; 16] = c.try_into().expect("exact chunk");
            self.absorb_block(block);
        }
        let rem = chunks.remainder();
        self.pending[..rem.len()].copy_from_slice(rem);
        self.pending_len = rem.len();
    }

    /// Pads any partial block with zeros and absorbs it (GCM does this
    /// between the AAD and ciphertext sections and before the length block).
    pub fn pad_block(&mut self) {
        if self.pending_len > 0 {
            for b in &mut self.pending[self.pending_len..] {
                *b = 0;
            }
            let block = self.pending;
            self.absorb_block(&block);
            self.pending_len = 0;
        }
    }

    fn absorb_block(&mut self, block: &[u8; 16]) {
        self.acc = gf_mul(self.acc ^ block_to_u128(block), self.powers[0]);
    }

    /// Four blocks, one reduction: the products are summed unreduced
    /// (reduction is linear) and folded once.
    fn absorb_quad(&mut self, quad: &[u8; 64]) {
        let block = |i: usize| {
            u128::from_be_bytes(quad[16 * i..16 * i + 16].try_into().expect("16 bytes"))
        };
        let [h1, h2, h3, h4] = self.powers;
        let (mut hi, mut lo) = clmul128(self.acc ^ block(0), h4);
        for (i, h) in [(1, h3), (2, h2), (3, h1)] {
            let (ph, pl) = clmul128(block(i), h);
            hi ^= ph;
            lo ^= pl;
        }
        self.acc = reduce((hi, lo));
    }

    /// Pads, then returns the accumulator.
    pub fn finalize(mut self) -> u128 {
        self.pad_block();
        self.acc
    }

    /// Snapshot of `(acc, pending, pending_len)` — the constant-size dynamic
    /// state an offload context must retain.
    pub fn export(&self) -> GhashState {
        GhashState {
            acc: self.acc,
            pending: self.pending,
            pending_len: self.pending_len as u8,
        }
    }

    /// Rebuilds a GHASH mid-stream from an exported state.
    pub fn resume(h: u128, st: &GhashState) -> Ghash {
        Ghash {
            powers: powers_of(h),
            acc: st.acc,
            pending: st.pending,
            pending_len: st.pending_len as usize,
        }
    }
}

/// Exported GHASH state (33 bytes of information).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GhashState {
    /// The accumulator polynomial.
    pub acc: u128,
    /// Bytes of an incomplete block.
    pub pending: [u8; 16],
    /// How many bytes of `pending` are valid.
    pub pending_len: u8,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex::from_hex;
    use ano_testkit::gen::{usize_in, vec_u8};

    /// The 128-step shift-and-add multiply straight from SP 800-38D
    /// (Algorithm 1): the oracle for the carry-less kernel.
    fn bitserial_gf_mul(x: u128, y: u128) -> u128 {
        const R: u128 = 0xE1u128 << 120;
        let mut z = 0u128;
        let mut v = x;
        for i in 0..128 {
            if (y >> (127 - i)) & 1 == 1 {
                z ^= v;
            }
            let lsb = v & 1;
            v >>= 1;
            if lsb == 1 {
                v ^= R;
            }
        }
        z
    }

    /// GHASH one block at a time with the oracle multiply.
    fn bitserial_ghash(h: u128, data: &[u8]) -> u128 {
        data.chunks(16).fold(0, |acc, c| {
            let mut block = [0u8; 16];
            block[..c.len()].copy_from_slice(c);
            bitserial_gf_mul(acc ^ block_to_u128(&block), h)
        })
    }

    fn u128_of(bytes: &[u8]) -> u128 {
        u128::from_be_bytes(bytes.try_into().expect("16 bytes"))
    }

    ano_testkit::prop_test! {
        cases = 512;
        fn gf_mul_matches_bitserial(x in vec_u8(16..17), y in vec_u8(16..17)) {
            let (x, y) = (u128_of(&x), u128_of(&y));
            assert_eq!(gf_mul(x, y), bitserial_gf_mul(x, y), "{x:#034x} * {y:#034x}");
        }
    }

    #[test]
    fn gf_mul_matches_bitserial_on_edge_values() {
        let one = 1u128 << 127;
        let edges = [0, one, u128::MAX, 1, one | 1, u128::MAX >> 1, u128::MAX << 1, 0xE1 << 120];
        for x in edges {
            for y in edges {
                assert_eq!(gf_mul(x, y), bitserial_gf_mul(x, y), "{x:#034x} * {y:#034x}");
            }
        }
    }

    ano_testkit::prop_test! {
        cases = 128;
        fn split_ghash_matches_bitserial(
            h in vec_u8(16..17),
            data in vec_u8(0..300),
            cut in usize_in(0..300)
        ) {
            let h = u128_of(&h);
            let cut = cut.min(data.len());
            let mut g = Ghash::new(h);
            g.update(&data[..cut]);
            let mut g = Ghash::resume(h, &g.export());
            g.update(&data[cut..]);
            assert_eq!(g.finalize(), bitserial_ghash(h, &data));
        }
    }

    #[test]
    fn gf_mul_identity_and_zero() {
        // The multiplicative identity in GCM's representation is 0x80...0
        // (the polynomial "1" with bit 0 in the MSB position).
        let one = 1u128 << 127;
        let x = 0x0123456789abcdef0123456789abcdefu128;
        assert_eq!(gf_mul(x, one), x);
        assert_eq!(gf_mul(x, 0), 0);
        assert_eq!(gf_mul(0, x), 0);
    }

    #[test]
    fn gf_mul_commutes() {
        let a = 0xdeadbeefdeadbeefdeadbeefdeadbeefu128;
        let b = 0x0102030405060708090a0b0c0d0e0f10u128;
        assert_eq!(gf_mul(a, b), gf_mul(b, a));
    }

    #[test]
    fn ghash_matches_nist_case_2() {
        // NIST GCM test case 2: H = 66e94bd4ef8a2c3b884cfa59ca342b2e,
        // C = 0388dace60b6a392f328c2b971b2fe78, len block = 0^64 || 0x80 (128 bits).
        let h = block_to_u128(
            &from_hex("66e94bd4ef8a2c3b884cfa59ca342b2e").try_into().unwrap(),
        );
        let mut g = Ghash::new(h);
        g.update(&from_hex("0388dace60b6a392f328c2b971b2fe78"));
        let mut len_block = [0u8; 16];
        len_block[8..16].copy_from_slice(&(128u64).to_be_bytes());
        g.update(&len_block);
        let out = u128_to_block(g.finalize());
        assert_eq!(out.to_vec(), from_hex("f38cbb1ad69223dcc3457ae5b6b0f885"));
    }

    #[test]
    fn split_updates_equal_one_shot() {
        let h = 0x5e2ec746917062882c85b0685353deb7u128;
        let data: Vec<u8> = (0..200u16).map(|i| (i * 7) as u8).collect();
        let mut one = Ghash::new(h);
        one.update(&data);
        for split in [1usize, 15, 16, 17, 31, 100, 199] {
            let mut two = Ghash::new(h);
            two.update(&data[..split]);
            two.update(&data[split..]);
            assert_eq!(one.finalize(), two.finalize(), "split {split}");
        }
    }

    #[test]
    fn export_resume_mid_stream() {
        let h = 0xabcdefabcdefabcdefabcdefabcdefabu128;
        let data: Vec<u8> = (0..77u8).collect();
        let mut full = Ghash::new(h);
        full.update(&data);

        let mut part = Ghash::new(h);
        part.update(&data[..33]);
        let st = part.export();
        let mut resumed = Ghash::resume(h, &st);
        resumed.update(&data[33..]);
        assert_eq!(full.finalize(), resumed.finalize());
    }

    #[test]
    fn pad_block_is_idempotent_on_boundary() {
        let h = 0x1u128 << 127;
        let mut g = Ghash::new(h);
        g.update(&[0xAAu8; 32]);
        let before = g.finalize();
        g.pad_block();
        assert_eq!(g.finalize(), before);
    }
}
