//! Output digests recorded for the default seed. A program change that
//! alters any emitted row, curve or recommendation moves these; such a
//! change must re-record them (every run prints the digest it computed)
//! and say why.

/// The seed the digests were recorded for.
pub const DEFAULT_SEED: u64 = 1;

/// The recorded digest of `workload` for `seed`, if one exists.
pub fn digest(workload: &str, seed: u64) -> Option<u64> {
    if seed != DEFAULT_SEED {
        return None;
    }
    match workload {
        "serve-fanin8" => Some(0x8545_828b_91d7_baa4),
        "serve-wal1" => Some(0x28aa_e147_e14e_46d3),
        "consult-paper" => Some(0xb7ed_6046_44bf_5cb9),
        _ => None,
    }
}
