//! Programs: instruction sequences plus initial data images.

use crate::inst::Inst;
use crate::mem::SparseMemory;
use bfetch_snapshot::{Decoder, Encoder, Snap, SnapshotError};
use std::sync::Arc;

/// Base byte address at which code is laid out (for I-cache modelling and
/// PC hashing). Data segments must live below or well above this.
pub const CODE_BASE: u64 = 0x0040_0000;

/// Encoded instruction size in bytes (fixed-width, RISC style).
pub const INST_BYTES: u64 = 4;

/// A complete program: instruction stream, name, and initial data image.
///
/// Instruction indices are the canonical "location" unit; byte PCs (as seen
/// by predictors and prefetchers) are derived with [`Program::pc_addr`].
///
/// The instruction stream and data image are immutable once built and are
/// shared behind `Arc`, so `Clone` is O(1) and the many per-core copies a
/// CMP run makes (one per [`Core`](../bfetch_sim) plus the caller's) all
/// alias one allocation. Data images run to megabytes (mcf's is ~12 MB), so
/// this sharing is what keeps multi-program peak RSS flat.
#[derive(Debug, Clone, Default)]
pub struct Program {
    name: Arc<str>,
    insts: Arc<[Inst]>,
    data: Arc<[(u64, Vec<u64>)]>,
}

impl Program {
    /// Creates a program from parts. Prefer [`ProgramBuilder`](crate::ProgramBuilder).
    ///
    /// # Panics
    ///
    /// Panics if any branch target is out of range.
    pub fn new(name: impl Into<String>, insts: Vec<Inst>, data: Vec<(u64, Vec<u64>)>) -> Self {
        for (i, inst) in insts.iter().enumerate() {
            if let Some(t) = inst.branch_target() {
                assert!(
                    t < insts.len(),
                    "instruction {i} ({inst}) targets out-of-range index {t}"
                );
            }
        }
        Self {
            name: name.into().into(),
            insts: insts.into(),
            data: data.into(),
        }
    }

    /// The program's name (workload identifier).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instruction at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn inst(&self, idx: usize) -> Inst {
        self.insts[idx]
    }

    /// The instruction at `idx`, or `None` past the end.
    #[inline]
    pub fn get(&self, idx: usize) -> Option<Inst> {
        self.insts.get(idx).copied()
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// All instructions, in order.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Byte PC of the instruction at `idx`.
    #[inline]
    pub fn pc_addr(&self, idx: usize) -> u64 {
        CODE_BASE + (idx as u64) * INST_BYTES
    }

    /// Inverse of [`Program::pc_addr`].
    #[inline]
    pub fn addr_to_idx(&self, pc: u64) -> usize {
        ((pc - CODE_BASE) / INST_BYTES) as usize
    }

    /// Initial data segments `(base address, words)`.
    pub fn data(&self) -> &[(u64, Vec<u64>)] {
        &self.data
    }

    /// Materializes the initial data image into `mem`.
    pub fn load_data(&self, mem: &mut SparseMemory) {
        for (base, words) in self.data.iter() {
            mem.store_words(*base, words);
        }
    }

    /// Count of static conditional branches (useful for predictor sizing
    /// sanity checks).
    pub fn cond_branch_count(&self) -> usize {
        self.insts.iter().filter(|i| i.is_cond_branch()).count()
    }
}

// Data segments are bulk-copied word runs; the layout is that of
// `(String, Vec<Inst>, Vec<(u64, Vec<u64>)>)`.
impl Snap for Program {
    fn save(&self, w: &mut Encoder) {
        w.put_len_bytes(self.name.as_bytes());
        bfetch_snapshot::save_slice(&self.insts, w);
        w.put_usize(self.data.len());
        for (base, words) in self.data.iter() {
            w.put_u64(*base);
            w.put_usize(words.len());
            w.put_u64s(words);
        }
    }

    fn load(r: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        let name = String::load(r)?;
        let insts: Vec<Inst> = Snap::load(r)?;
        let n = r.take_len()?;
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            let base = r.take_u64()?;
            let len = r.take_len()?;
            if len > r.remaining() / 8 {
                return Err(SnapshotError::Invalid {
                    what: "data segment exceeds remaining input",
                });
            }
            let mut words = vec![0; len];
            r.take_u64s(&mut words)?;
            data.push((base, words));
        }
        // Validate branch targets here so a corrupt snapshot is a typed
        // error rather than the constructor's panic.
        for inst in &insts {
            if inst.branch_target().is_some_and(|t| t >= insts.len()) {
                return Err(SnapshotError::Invalid {
                    what: "branch target out of program range",
                });
            }
        }
        Ok(Program::new(name, insts, data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Reg;

    fn tiny() -> Program {
        Program::new(
            "tiny",
            vec![
                Inst::LoadImm {
                    rd: Reg::R1,
                    imm: 1,
                },
                Inst::Beq {
                    ra: Reg::R1,
                    rb: Reg::R0,
                    target: 0,
                },
                Inst::Halt,
            ],
            vec![(0x1000, vec![9, 8])],
        )
    }

    #[test]
    fn pc_mapping_round_trips() {
        let p = tiny();
        for idx in 0..p.len() {
            assert_eq!(p.addr_to_idx(p.pc_addr(idx)), idx);
        }
        assert_eq!(p.pc_addr(0), CODE_BASE);
        assert_eq!(p.pc_addr(1), CODE_BASE + 4);
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn rejects_wild_branch_target() {
        Program::new("bad", vec![Inst::Jmp { target: 10 }], vec![]);
    }

    #[test]
    fn data_image_loads() {
        let p = tiny();
        let mut m = SparseMemory::new();
        p.load_data(&mut m);
        assert_eq!(m.load(0x1000), 9);
        assert_eq!(m.load(0x1008), 8);
    }

    #[test]
    fn counts_cond_branches() {
        assert_eq!(tiny().cond_branch_count(), 1);
    }
}
