//! AES-GCM authenticated encryption (NIST SP 800-38D) with a streaming API.
//!
//! Beyond the usual one-shot [`seal`]/[`open`], this module exposes
//! [`GcmStream`]: an incremental cipher that can process a message in
//! arbitrary byte-range steps and export/import its constant-size dynamic
//! state between steps. That is precisely the capability an autonomous NIC
//! offload needs (paper §3.2): the per-flow hardware context stores the
//! exported state and processes each in-sequence TCP packet as it flies by.

// ano-lint: allow-file(transitive-panic): GCM framing: counter blocks and tags are fixed 16-byte arrays with constant indices
use crate::aes::Aes;
use crate::ghash::{block_to_u128, u128_to_block, Ghash, GhashState};
use crate::AuthError;

/// GCM authentication tag length in bytes.
pub const TAG_LEN: usize = 16;
/// GCM nonce (IV) length in bytes used throughout (the TLS 1.3 size).
pub const IV_LEN: usize = 12;

/// Direction of a [`GcmStream`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Plaintext in, ciphertext out.
    Encrypt,
    /// Ciphertext in, plaintext out.
    Decrypt,
}

/// Incremental AES-GCM over one message.
///
/// # Examples
///
/// ```
/// use ano_crypto::aes::Aes;
/// use ano_crypto::gcm::{seal, GcmStream, Direction};
///
/// let aes = Aes::new_128(&[1u8; 16]);
/// let iv = [2u8; 12];
/// let mut data = *b"stream me in pieces, any pieces";
/// let (mut oneshot, tag) = (data.to_vec(), ());
/// let expect = seal(&aes, &iv, b"aad", &mut oneshot);
///
/// let mut s = GcmStream::new(aes, &iv, b"aad", Direction::Encrypt);
/// s.process(&mut data[..7]);
/// s.process(&mut data[7..]);
/// assert_eq!(&data[..], &oneshot[..]);
/// assert_eq!(s.tag(), expect);
/// ```
#[derive(Clone)]
pub struct GcmStream {
    aes: Aes,
    j0: [u8; 16],
    ghash: Ghash,
    aad_len: u64,
    data_len: u64,
    dir: Direction,
}

/// The constant-size dynamic state of a [`GcmStream`] (what a NIC flow
/// context stores between packets; ~50 bytes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GcmSavedState {
    ghash: GhashState,
    aad_len: u64,
    data_len: u64,
    dir: Direction,
}

impl GcmStream {
    /// Starts a stream over a fresh message with the given nonce and AAD.
    pub fn new(aes: Aes, iv: &[u8; IV_LEN], aad: &[u8], dir: Direction) -> GcmStream {
        let h = block_to_u128(&aes.encrypt_block_copy(&[0u8; 16]));
        let mut j0 = [0u8; 16];
        j0[..12].copy_from_slice(iv);
        j0[15] = 1;
        let mut ghash = Ghash::new(h);
        ghash.update(aad);
        ghash.pad_block();
        GcmStream {
            aes,
            j0,
            ghash,
            aad_len: aad.len() as u64,
            data_len: 0,
            dir,
        }
    }

    /// Bytes of message data processed so far.
    pub fn position(&self) -> u64 {
        self.data_len
    }

    /// The counter block for keystream block `block_index`. Data blocks use
    /// counters from J0+1 on (J0 itself masks the tag).
    fn counter_block(&self, block_index: u64) -> [u8; 16] {
        let mut cb = self.j0;
        let ctr = u32::from_be_bytes(cb[12..16].try_into().expect("4 bytes"));
        let ctr = ctr.wrapping_add(1).wrapping_add(block_index as u32);
        cb[12..16].copy_from_slice(&ctr.to_be_bytes());
        cb
    }

    fn keystream_block(&self, block_index: u64) -> [u8; 16] {
        self.aes.encrypt_block_copy(&self.counter_block(block_index))
    }

    /// Transforms `data` in place, continuing from the current position.
    ///
    /// Call boundaries may fall anywhere — mid keystream block, mid GHASH
    /// block — mirroring TCP's freedom to segment L5P messages arbitrarily.
    pub fn process(&mut self, data: &mut [u8]) {
        if data.is_empty() {
            return;
        }
        if self.dir == Direction::Decrypt {
            self.ghash.update(data);
        }
        self.apply_keystream(data);
        if self.dir == Direction::Encrypt {
            self.ghash.update(data);
        }
        self.data_len += data.len() as u64;
    }

    /// XORs the CTR keystream into `data` from the current position: the
    /// rest of a started block byte-wise, then whole blocks four counters at
    /// a time, then a final partial block.
    fn apply_keystream(&self, data: &mut [u8]) {
        let skip = (self.data_len % 16) as usize;
        let head_len = if skip == 0 { 0 } else { (16 - skip).min(data.len()) };
        let (head, body) = data.split_at_mut(head_len);
        let mut block = self.data_len / 16;
        if !head.is_empty() {
            xor_into(head, &self.keystream_block(block)[skip..]);
            block += 1;
        }
        let mut quads = body.chunks_exact_mut(64);
        for quad in &mut quads {
            let mut keystream = [0, 1, 2, 3].map(|i| self.counter_block(block + i));
            self.aes.encrypt_blocks(&mut keystream);
            for (chunk, ks) in quad.chunks_exact_mut(16).zip(&keystream) {
                xor_into(chunk, ks);
            }
            block += 4;
        }
        for chunk in quads.into_remainder().chunks_mut(16) {
            xor_into(chunk, &self.keystream_block(block));
            block += 1;
        }
    }

    /// Computes the tag over everything processed so far (non-destructive,
    /// so software fallbacks can authenticate partially offloaded messages
    /// after reprocessing).
    pub fn tag(&self) -> [u8; TAG_LEN] {
        let mut g = self.ghash;
        g.pad_block();
        let mut len_block = [0u8; 16];
        len_block[..8].copy_from_slice(&(self.aad_len * 8).to_be_bytes());
        len_block[8..].copy_from_slice(&(self.data_len * 8).to_be_bytes());
        g.update(&len_block);
        let s = u128_to_block(g.finalize());
        let e = self.aes.encrypt_block_copy(&self.j0);
        let mut tag = [0u8; TAG_LEN];
        for i in 0..TAG_LEN {
            tag[i] = s[i] ^ e[i];
        }
        tag
    }

    /// Verifies `tag` against the processed data in constant time.
    ///
    /// # Errors
    ///
    /// Returns [`AuthError`] on mismatch.
    pub fn verify(&self, tag: &[u8; TAG_LEN]) -> Result<(), AuthError> {
        let computed = self.tag();
        let diff = computed
            .iter()
            .zip(tag.iter())
            .fold(0u8, |acc, (a, b)| acc | (a ^ b));
        if diff == 0 {
            Ok(())
        } else {
            Err(AuthError)
        }
    }

    /// Exports the constant-size dynamic state (paper §3.2).
    pub fn export(&self) -> GcmSavedState {
        GcmSavedState {
            ghash: self.ghash.export(),
            aad_len: self.aad_len,
            data_len: self.data_len,
            dir: self.dir,
        }
    }

    /// Resumes a stream mid-message from an exported state. The key and IV
    /// are per-message static state (§3.2) and are supplied afresh.
    pub fn resume(aes: Aes, iv: &[u8; IV_LEN], st: &GcmSavedState) -> GcmStream {
        let h = block_to_u128(&aes.encrypt_block_copy(&[0u8; 16]));
        let mut j0 = [0u8; 16];
        j0[..12].copy_from_slice(iv);
        j0[15] = 1;
        GcmStream {
            aes,
            j0,
            ghash: Ghash::resume(h, &st.ghash),
            aad_len: st.aad_len,
            data_len: st.data_len,
            dir: st.dir,
        }
    }
}

/// `dst ^= ks`, over `dst.len()` bytes.
fn xor_into(dst: &mut [u8], ks: &[u8]) {
    for (d, k) in dst.iter_mut().zip(ks) {
        *d ^= k;
    }
}

impl std::fmt::Debug for GcmStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GcmStream")
            .field("dir", &self.dir)
            .field("position", &self.data_len)
            .finish()
    }
}

/// One-shot encryption in place; returns the tag.
pub fn seal(aes: &Aes, iv: &[u8; IV_LEN], aad: &[u8], data: &mut [u8]) -> [u8; TAG_LEN] {
    let mut s = GcmStream::new(*aes, iv, aad, Direction::Encrypt);
    s.process(data);
    s.tag()
}

/// One-shot decryption in place with tag verification.
///
/// # Errors
///
/// Returns [`AuthError`] and leaves `data` decrypted-in-place-but-untrusted
/// on tag mismatch (callers must discard it).
pub fn open(
    aes: &Aes,
    iv: &[u8; IV_LEN],
    aad: &[u8],
    data: &mut [u8],
    tag: &[u8; TAG_LEN],
) -> Result<(), AuthError> {
    let mut s = GcmStream::new(*aes, iv, aad, Direction::Decrypt);
    s.process(data);
    s.verify(tag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex::{from_hex, to_hex};
    use ano_testkit::gen::{any_bool, sorted_u64_set, vec_bool, vec_u8};

    fn k128(hex: &str) -> Aes {
        Aes::new_128(&from_hex(hex).try_into().unwrap())
    }

    #[test]
    fn nist_case_13_aes256_empty() {
        let aes = Aes::new_256(&[0u8; 32]);
        let tag = seal(&aes, &[0u8; 12], &[], &mut []);
        assert_eq!(to_hex(&tag), "530f8afbc74536b9a963b4f1c4cb738b");
    }

    #[test]
    fn nist_case_14_aes256_one_block() {
        let aes = Aes::new_256(&[0u8; 32]);
        let mut data = [0u8; 16];
        let tag = seal(&aes, &[0u8; 12], &[], &mut data);
        assert_eq!(to_hex(&data), "cea7403d4d606b6e074ec5d3baf39d18");
        assert_eq!(to_hex(&tag), "d0d1c8a799996bf0265b98b5d48ab919");
        open(&aes, &[0u8; 12], &[], &mut data, &tag).expect("auth ok");
        assert_eq!(data, [0u8; 16]);
    }

    /// Runs `input` through a stream cut at `cuts` (clamped to the input),
    /// exporting and resuming the state at cut `i` when `resume[i]` is set.
    fn run_pieces(
        aes: &Aes,
        iv: &[u8; IV_LEN],
        aad: &[u8],
        dir: Direction,
        input: &[u8],
        cuts: &[u64],
        resume: &[bool],
    ) -> (Vec<u8>, GcmStream) {
        let mut data = input.to_vec();
        let mut s = GcmStream::new(*aes, iv, aad, dir);
        let mut from = 0;
        for (i, &cut) in cuts.iter().enumerate() {
            let to = (cut as usize).clamp(from, data.len());
            s.process(&mut data[from..to]);
            from = to;
            if resume.get(i).copied().unwrap_or(false) {
                let saved = s.export();
                s = GcmStream::resume(*aes, iv, &saved);
            }
        }
        s.process(&mut data[from..]);
        (data, s)
    }

    /// Both directions of a cut-up, resumed stream against one-shot
    /// `seal`/`open`.
    fn assert_pieces_match_oneshot(
        aes: &Aes,
        aad: &[u8],
        msg: &[u8],
        cuts: &[u64],
        resume: &[bool],
    ) {
        let iv = [0x5Cu8; IV_LEN];
        let mut ct = msg.to_vec();
        let tag = seal(aes, &iv, aad, &mut ct);

        let (enc, s) = run_pieces(aes, &iv, aad, Direction::Encrypt, msg, cuts, resume);
        assert_eq!(enc, ct, "ciphertext, cuts {cuts:?}");
        assert_eq!(s.tag(), tag, "seal tag, cuts {cuts:?}");

        let (dec, s) = run_pieces(aes, &iv, aad, Direction::Decrypt, &ct, cuts, resume);
        assert_eq!(dec, msg, "plaintext, cuts {cuts:?}");
        s.verify(&tag).expect("stream verifies the one-shot tag");
        let mut opened = ct.clone();
        open(aes, &iv, aad, &mut opened, &tag).expect("one-shot open");
        assert_eq!(opened, msg);
    }

    ano_testkit::prop_test! {
        cases = 128;
        fn stream_pieces_match_oneshot(
            key_aad in (vec_u8(32..33), vec_u8(0..40)),
            msg in vec_u8(0..520),
            cuts in sorted_u64_set(0..520, 8),
            resume_wide in (vec_bool(8), any_bool())
        ) {
            let (key, aad) = key_aad;
            let (resume, wide_key) = resume_wide;
            let aes = Aes::new(if wide_key { &key[..] } else { &key[..16] });
            assert_pieces_match_oneshot(&aes, &aad, &msg, &cuts, &resume);
        }
    }

    #[test]
    fn resume_on_and_off_quad_boundaries() {
        // Mid-block, block-aligned, and on / one off the 64-byte runs the
        // keystream and GHASH take four blocks at a time.
        let aes = k128("feffe9928665731c6d6a8f9467308308");
        let msg: Vec<u8> = (0..400u32).map(|i| (i * 31 + 7) as u8).collect();
        let cuts = [1, 15, 16, 17, 63, 64, 65, 127, 128, 192, 200, 256, 320, 399];
        assert_pieces_match_oneshot(&aes, b"aad", &msg, &cuts, &[true; 14]);
        assert_pieces_match_oneshot(&aes, &[], &msg, &cuts, &[false; 14]);
    }

    #[test]
    fn nist_case_1_empty() {
        // Key 0^128, IV 0^96, empty plaintext, empty AAD.
        let aes = k128("00000000000000000000000000000000");
        let iv = [0u8; 12];
        let mut data = [];
        let tag = seal(&aes, &iv, &[], &mut data);
        assert_eq!(to_hex(&tag), "58e2fccefa7e3061367f1d57a4e7455a");
    }

    #[test]
    fn nist_case_2_one_block() {
        let aes = k128("00000000000000000000000000000000");
        let iv = [0u8; 12];
        let mut data: Vec<u8> = from_hex("00000000000000000000000000000000");
        let tag = seal(&aes, &iv, &[], &mut data);
        assert_eq!(to_hex(&data), "0388dace60b6a392f328c2b971b2fe78");
        assert_eq!(to_hex(&tag), "ab6e47d42cec13bdf53a67b21257bddf");
    }

    #[test]
    fn nist_case_3_four_blocks() {
        let aes = k128("feffe9928665731c6d6a8f9467308308");
        let iv: [u8; 12] = from_hex("cafebabefacedbaddecaf888").try_into().unwrap();
        let mut data = from_hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a721c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        );
        let tag = seal(&aes, &iv, &[], &mut data);
        assert_eq!(
            to_hex(&data),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
        );
        assert_eq!(to_hex(&tag), "4d5c2af327cd64a62cf35abd2ba6fab4");
    }

    #[test]
    fn nist_case_4_with_aad_and_partial_block() {
        let aes = k128("feffe9928665731c6d6a8f9467308308");
        let iv: [u8; 12] = from_hex("cafebabefacedbaddecaf888").try_into().unwrap();
        let aad = from_hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        let mut data = from_hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a721c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        );
        let tag = seal(&aes, &iv, &aad, &mut data);
        assert_eq!(
            to_hex(&data),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
        );
        assert_eq!(to_hex(&tag), "5bc94fbc3221a5db94fae95ae7121a47");
    }

    #[test]
    fn open_roundtrip_and_reject() {
        let aes = k128("000102030405060708090a0b0c0d0e0f");
        let iv = [9u8; 12];
        let msg = b"attack at dawn".to_vec();
        let mut data = msg.clone();
        let tag = seal(&aes, &iv, b"hdr", &mut data);
        let mut rt = data.clone();
        open(&aes, &iv, b"hdr", &mut rt, &tag).expect("valid tag");
        assert_eq!(rt, msg);

        let mut bad_tag = tag;
        bad_tag[0] ^= 1;
        let mut rt2 = data.clone();
        assert!(open(&aes, &iv, b"hdr", &mut rt2, &bad_tag).is_err());

        let mut tampered = data.clone();
        tampered[3] ^= 0x80;
        assert!(open(&aes, &iv, b"hdr", &mut tampered, &tag).is_err());
    }

    #[test]
    fn streaming_matches_oneshot_for_any_split() {
        let aes = k128("feffe9928665731c6d6a8f9467308308");
        let iv = [7u8; 12];
        let msg: Vec<u8> = (0..123u8).collect();
        let mut oneshot = msg.clone();
        let expect_tag = seal(&aes, &iv, b"A", &mut oneshot);

        for split in [1usize, 5, 15, 16, 17, 32, 64, 100, 122] {
            let mut data = msg.clone();
            let mut s = GcmStream::new(aes, &iv, b"A", Direction::Encrypt);
            s.process(&mut data[..split]);
            s.process(&mut data[split..]);
            assert_eq!(data, oneshot, "split {split}");
            assert_eq!(s.tag(), expect_tag, "split {split}");
        }
    }

    #[test]
    fn export_resume_mid_message() {
        let aes = k128("feffe9928665731c6d6a8f9467308308");
        let iv = [3u8; 12];
        let msg: Vec<u8> = (0..200u8).collect();
        let mut oneshot = msg.clone();
        let expect_tag = seal(&aes, &iv, &[], &mut oneshot);

        let mut data = msg.clone();
        // The first stream ends here; the NIC context is all that survives.
        let saved = {
            let mut s1 = GcmStream::new(aes, &iv, &[], Direction::Encrypt);
            s1.process(&mut data[..77]);
            s1.export()
        };

        let mut s2 = GcmStream::resume(aes, &iv, &saved);
        assert_eq!(s2.position(), 77);
        s2.process(&mut data[77..]);
        assert_eq!(data, oneshot);
        assert_eq!(s2.tag(), expect_tag);
    }

    #[test]
    fn decrypt_stream_verifies() {
        let aes = k128("0101010101010101010101010101ffff");
        let iv = [1u8; 12];
        let msg = vec![0x5Au8; 1000];
        let mut ct = msg.clone();
        let tag = seal(&aes, &iv, b"aad!", &mut ct);

        let mut d = GcmStream::new(aes, &iv, b"aad!", Direction::Decrypt);
        // Decrypt in uneven packet-like chunks.
        let mut off = 0;
        for sz in [3usize, 160, 291, 546] {
            d.process(&mut ct[off..off + sz]);
            off += sz;
        }
        assert_eq!(off, 1000);
        assert_eq!(ct, msg);
        d.verify(&tag).expect("auth ok");
    }
}
