//! Deterministic model checkpoints for elastic recovery.
//!
//! A checkpoint is the *canonical full model* — every parameter under a
//! global name (expert weights keyed by global expert id, not by owning
//! rank), the matching Adam moments, the completed-step counter and the
//! data-stream RNG state. Because the layout is rank-agnostic, a checkpoint
//! written by a 16-rank run restores onto 8 survivors (or any world size
//! that divides the expert count) without conversion.
//!
//! The encoding is a hand-rolled binary format (no serde in the tree):
//!
//! ```text
//! magic   8 bytes  "XMOECKP2"
//! step    u64 LE   completed optimizer steps
//! rng     u64 LE   DetRng state of the training data stream
//! adam    u64 LE   Adam step counter (bias correction)
//! count   u64 LE   number of named entries
//! hcrc    u32 LE   CRC32 (IEEE) of the 32 header bytes above
//! entry*  u32 LE name_len | name bytes | u64 LE rows | u64 LE cols
//!         | rows*cols f32 LE | u32 LE CRC32 of this entry's bytes
//! ```
//!
//! Version 2 adds the per-section CRC32s: a flipped bit anywhere in a
//! section is rejected at decode time with an error naming the section,
//! which is what lets the chaos runner fall back to the previous
//! checkpoint instead of silently restoring corrupt weights. A version 1
//! stream (`XMOECKP1`, no CRCs) is rejected as a bad magic.
//!
//! `f32` values round-trip bitwise (`to_le_bytes`/`from_le_bytes`), which is
//! what makes resume-from-checkpoint produce losses *identical* to an
//! uninterrupted run rather than merely close.

use std::fmt;

use xmoe_tensor::Tensor;

/// Why a checkpoint byte stream could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CkptError {
    /// The stream does not start with the `XMOECKP2` magic.
    BadMagic,
    /// The stream ended before the advertised content.
    Truncated { need: usize, have: usize },
    /// An entry header is internally inconsistent (e.g. absurd name length).
    BadEntry(String),
    /// A section's CRC32 did not match its bytes — silent corruption.
    Corrupt {
        section: String,
        want: u32,
        got: u32,
    },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::BadMagic => write!(f, "not a checkpoint: bad magic"),
            CkptError::Truncated { need, have } => {
                write!(f, "truncated checkpoint: need {need} bytes, have {have}")
            }
            CkptError::BadEntry(what) => write!(f, "malformed checkpoint entry: {what}"),
            CkptError::Corrupt { section, want, got } => write!(
                f,
                "corrupt checkpoint section '{section}': crc32 {got:#010x}, expected {want:#010x}"
            ),
        }
    }
}

impl std::error::Error for CkptError {}

const MAGIC_V2: &[u8; 8] = b"XMOECKP2";
/// Guard against nonsense name lengths in corrupt streams.
const MAX_NAME: usize = 4096;

/// CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the checksum
/// every section of a v2 checkpoint carries. Table built at compile time;
/// no external crates.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// A canonical full-model snapshot (see module docs for the wire format).
#[derive(Clone, Debug, Default)]
pub struct Checkpoint {
    /// Completed optimizer steps; resume starts at this step.
    pub step: u64,
    /// Data-stream [`xmoe_tensor::DetRng`] state at the end of `step`.
    pub rng_state: u64,
    /// Adam's internal step counter (drives bias correction).
    pub adam_step: u64,
    entries: Vec<(String, Tensor)>,
}

impl Checkpoint {
    pub fn new(step: u64, rng_state: u64, adam_step: u64) -> Self {
        Self {
            step,
            rng_state,
            adam_step,
            entries: Vec::new(),
        }
    }

    /// Append a named tensor. Names must be unique; insertion order is the
    /// wire order, so writers must emit entries deterministically.
    pub fn push(&mut self, name: impl Into<String>, t: Tensor) {
        let name = name.into();
        debug_assert!(
            self.tensor(&name).is_none(),
            "duplicate checkpoint entry {name}"
        );
        self.entries.push((name, t));
    }

    /// Look up an entry by name.
    pub fn tensor(&self, name: &str) -> Option<&Tensor> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }

    pub fn entries(&self) -> &[(String, Tensor)] {
        &self.entries
    }

    /// Serialize to the current (v2, CRC-protected) wire format.
    pub fn encode(&self) -> Vec<u8> {
        let payload: usize = self
            .entries
            .iter()
            .map(|(n, t)| 4 + n.len() + 16 + t.len() * 4 + 4)
            .sum();
        let mut out = Vec::with_capacity(8 + 32 + 4 + payload);
        out.extend_from_slice(MAGIC_V2);
        out.extend_from_slice(&self.step.to_le_bytes());
        out.extend_from_slice(&self.rng_state.to_le_bytes());
        out.extend_from_slice(&self.adam_step.to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        let hcrc = crc32(&out[8..40]);
        out.extend_from_slice(&hcrc.to_le_bytes());
        for (name, t) in &self.entries {
            let start = out.len();
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(t.rows() as u64).to_le_bytes());
            out.extend_from_slice(&(t.cols() as u64).to_le_bytes());
            for &v in t.as_slice() {
                out.extend_from_slice(&v.to_le_bytes());
            }
            let ecrc = crc32(&out[start..]);
            out.extend_from_slice(&ecrc.to_le_bytes());
        }
        out
    }

    /// Parse the wire format back into a checkpoint, verifying each
    /// section's CRC.
    pub fn decode(bytes: &[u8]) -> Result<Self, CkptError> {
        let mut r = Reader { bytes, pos: 0 };
        let magic = r.take(8)?;
        if magic != MAGIC_V2 {
            return Err(CkptError::BadMagic);
        }
        let step = r.u64()?;
        let rng_state = r.u64()?;
        let adam_step = r.u64()?;
        let count = r.u64()? as usize;
        let want = crc32(&bytes[8..40]);
        let got = r.u32()?;
        if got != want {
            return Err(CkptError::Corrupt {
                section: "header".into(),
                want,
                got,
            });
        }
        let mut ckpt = Checkpoint::new(step, rng_state, adam_step);
        for i in 0..count {
            let entry_start = r.pos;
            let name_len = r.u32()? as usize;
            if name_len > MAX_NAME {
                return Err(CkptError::BadEntry(format!("name length {name_len}")));
            }
            let name = std::str::from_utf8(r.take(name_len)?)
                .map_err(|_| CkptError::BadEntry("non-UTF-8 name".into()))?
                .to_string();
            let rows = r.u64()? as usize;
            let cols = r.u64()? as usize;
            let n = rows
                .checked_mul(cols)
                .ok_or_else(|| CkptError::BadEntry(format!("{name}: shape overflow")))?;
            let raw = r.take(n * 4)?;
            let data = raw
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            let want = crc32(&bytes[entry_start..r.pos]);
            let got = r.u32()?;
            if got != want {
                return Err(CkptError::Corrupt {
                    section: format!("entry {i} '{name}'"),
                    want,
                    got,
                });
            }
            ckpt.entries
                .push((name, Tensor::from_vec(rows, cols, data)));
        }
        Ok(ckpt)
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        let end = self.pos.checked_add(n).ok_or(CkptError::Truncated {
            need: usize::MAX,
            have: self.bytes.len(),
        })?;
        if end > self.bytes.len() {
            return Err(CkptError::Truncated {
                need: end,
                have: self.bytes.len(),
            });
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, CkptError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CkptError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut c = Checkpoint::new(42, 0xDEAD_BEEF_CAFE_F00D, 41);
        c.push(
            "embed.weight",
            Tensor::from_vec(2, 3, vec![1.5, -0.25, 3e-9, f32::MIN_POSITIVE, -1e30, 0.0]),
        );
        c.push("head.weight", Tensor::from_vec(1, 2, vec![-0.0, 7.0]));
        c
    }

    #[test]
    fn roundtrip_is_bitwise_exact() {
        let c = sample();
        let d = Checkpoint::decode(&c.encode()).unwrap();
        assert_eq!(d.step, 42);
        assert_eq!(d.rng_state, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(d.adam_step, 41);
        assert_eq!(d.entries().len(), 2);
        for ((na, ta), (nb, tb)) in c.entries().iter().zip(d.entries()) {
            assert_eq!(na, nb);
            assert_eq!(ta.shape(), tb.shape());
            for (a, b) in ta.as_slice().iter().zip(tb.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{na} not bitwise equal");
            }
        }
    }

    #[test]
    fn lookup_by_name() {
        let c = sample();
        assert_eq!(c.tensor("head.weight").unwrap().shape(), (1, 2));
        assert!(c.tensor("missing").is_none());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample().encode();
        bytes[0] = b'Y';
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(CkptError::BadMagic)
        ));
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            match Checkpoint::decode(&bytes[..cut]) {
                Err(CkptError::Truncated { .. }) | Err(CkptError::BadMagic) => {}
                other => panic!("cut at {cut}: expected error, got {other:?}"),
            }
        }
        assert!(Checkpoint::decode(&bytes).is_ok());
    }

    #[test]
    fn absurd_name_length_is_rejected() {
        let mut c = Checkpoint::new(0, 0, 0);
        c.push("x", Tensor::from_vec(1, 1, vec![1.0]));
        let mut bytes = c.encode();
        // Corrupt the name length field (first entry starts after the
        // 8-byte magic, four u64 header fields and the u32 header CRC).
        let off = 8 + 32 + 4;
        bytes[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(CkptError::BadEntry(_)) | Err(CkptError::Truncated { .. })
        ));
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn flipped_payload_byte_is_rejected_naming_the_section() {
        let c = sample();
        let clean = c.encode();
        assert!(Checkpoint::decode(&clean).is_ok());
        // Flip one bit inside the f32 payload of the *second* entry
        // ("head.weight"): its CRC comes last, so target the bytes of its
        // final f32.
        let mut bytes = clean.clone();
        let n = bytes.len();
        bytes[n - 5] ^= 0x10; // last payload byte before the entry CRC
        match Checkpoint::decode(&bytes) {
            Err(CkptError::Corrupt { section, .. }) => {
                assert!(section.contains("head.weight"), "section: {section}");
                assert!(
                    format!("{}", Checkpoint::decode(&bytes).unwrap_err()).contains("head.weight")
                );
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // Flip a header byte (the step counter): the header CRC catches it.
        let mut bytes = clean.clone();
        bytes[9] ^= 0x01;
        match Checkpoint::decode(&bytes) {
            Err(CkptError::Corrupt { section, .. }) => assert_eq!(section, "header"),
            other => panic!("expected header Corrupt, got {other:?}"),
        }
        // Flip a byte of the first entry's payload: its name is reported.
        let mut bytes = clean;
        let off = 8 + 32 + 4 + 4 + "embed.weight".len() + 16 + 2;
        bytes[off] ^= 0x80;
        match Checkpoint::decode(&bytes) {
            Err(CkptError::Corrupt { section, .. }) => {
                assert!(section.contains("embed.weight"), "section: {section}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn a_v1_stream_is_rejected() {
        // A v1 stream carried no CRCs, so a flipped byte restored silently;
        // the decoder takes v2 only.
        let mut bytes = sample().encode();
        bytes[..8].copy_from_slice(b"XMOECKP1");
        assert_eq!(Checkpoint::decode(&bytes).unwrap_err(), CkptError::BadMagic);
    }
}
