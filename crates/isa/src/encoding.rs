//! Instruction encoding: the 64-bit RISC-V custom instruction format of
//! Table II.

use std::error::Error;
use std::fmt;

use stellar_tensor::AxisFormat;

/// The instruction opcodes of Table II (plus `Issue`, which launches the
/// configured transfer — `stellar_issue()` in Listing 7).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum Opcode {
    /// Set a DRAM/SRAM address or regfile target.
    SetAddress = 0,
    /// Set the number of elements to move along an axis.
    SetSpan = 1,
    /// Set a data stride.
    SetDataStride = 2,
    /// Set a metadata stride (ROW_ID or COORD).
    SetMetadataStride = 3,
    /// Set an axis type ("Dense", "Compressed", ...).
    SetAxisType = 4,
    /// Set a scalar or boolean constant (e.g. `should_trail_reads`).
    SetConstant = 5,
    /// Launch the configured data movement.
    Issue = 6,
}

impl Opcode {
    fn from_bits(v: u8) -> Option<Opcode> {
        Some(match v {
            0 => Opcode::SetAddress,
            1 => Opcode::SetSpan,
            2 => Opcode::SetDataStride,
            3 => Opcode::SetMetadataStride,
            4 => Opcode::SetAxisType,
            5 => Opcode::SetConstant,
            6 => Opcode::Issue,
            _ => return None,
        })
    }
}

/// Whether a configuration applies to the source, the destination, or both
/// (the `Rs1[19:16]` field).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum Target {
    /// Configure the source side.
    Src = 1,
    /// Configure the destination side.
    Dst = 2,
    /// Configure both sides.
    Both = 3,
}

impl Target {
    fn from_bits(v: u8) -> Option<Target> {
        Some(match v {
            1 => Target::Src,
            2 => Target::Dst,
            3 => Target::Both,
            _ => return None,
        })
    }
}

/// Sparse metadata kinds (the `ROW_ID` / `COORD` of Table II).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum MetadataType {
    /// CSR-style fiber boundaries.
    RowId = 0,
    /// Per-element coordinates.
    Coord = 1,
}

impl MetadataType {
    fn from_bits(v: u8) -> Option<MetadataType> {
        Some(match v {
            0 => MetadataType::RowId,
            1 => MetadataType::Coord,
            _ => return None,
        })
    }
}

/// Encodes an [`AxisFormat`] in the `rs2` payload of `set_axis_type`.
pub(crate) fn axis_format_bits(f: AxisFormat) -> u64 {
    match f {
        AxisFormat::Dense => 0,
        AxisFormat::Compressed => 1,
        AxisFormat::Bitvector => 2,
        AxisFormat::LinkedList => 3,
    }
}

pub(crate) fn axis_format_from_bits(v: u64) -> Option<AxisFormat> {
    Some(match v {
        0 => AxisFormat::Dense,
        1 => AxisFormat::Compressed,
        2 => AxisFormat::Bitvector,
        3 => AxisFormat::LinkedList,
        _ => return None,
    })
}

/// A decoded Stellar instruction.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Instruction {
    /// The operation.
    pub opcode: Opcode,
    /// Source/destination/both (ignored by `Issue` and `SetConstant`).
    pub target: Target,
    /// The axis being configured (`Rs1[15:0]`, low 8 bits) — or the
    /// constant ID for `SetConstant`.
    pub axis: u8,
    /// Metadata type for `SetMetadataStride` (packed into `Rs1[15:8]`).
    pub metadata: Option<MetadataType>,
    /// The value operand (`Rs2`): address, span, stride, or axis type.
    pub rs2: u64,
}

/// Errors from decoding malformed instruction words.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IsaError {
    /// Unknown opcode bits.
    BadOpcode(u8),
    /// Unknown target bits.
    BadTarget(u8),
    /// Unknown metadata-type bits.
    BadMetadata(u8),
    /// Unknown axis-format bits in `rs2`.
    BadAxisFormat(u64),
    /// `rs1` bits [`Instruction::encode`] never writes (bits 10–14, bits
    /// 8–9 without the metadata flag, bits 20–63), as found in the word.
    ReservedBits(u64),
}

impl fmt::Display for IsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsaError::BadOpcode(v) => write!(f, "unknown opcode bits {v:#x}"),
            IsaError::BadTarget(v) => write!(f, "unknown target bits {v:#x}"),
            IsaError::BadMetadata(v) => write!(f, "unknown metadata bits {v:#x}"),
            IsaError::BadAxisFormat(v) => write!(f, "unknown axis format bits {v:#x}"),
            IsaError::ReservedBits(v) => write!(f, "reserved rs1 bits set: {v:#x}"),
        }
    }
}

impl Error for IsaError {}

impl Instruction {
    /// Encodes to `(funct, rs1, rs2)`: the custom-instruction fields a RoCC
    /// command would carry.
    pub fn encode(&self) -> (u8, u64, u64) {
        let mut rs1: u64 = 0;
        rs1 |= (self.target as u64) << 16;
        rs1 |= self.axis as u64;
        if let Some(m) = self.metadata {
            rs1 |= (m as u64) << 8;
            rs1 |= 1 << 15; // metadata-present flag
        }
        (self.opcode as u8, rs1, self.rs2)
    }

    /// Decodes from `(funct, rs1, rs2)`. Only canonical words decode:
    /// whatever decodes re-encodes to the same fields.
    ///
    /// # Errors
    ///
    /// Returns an [`IsaError`] on unknown field encodings, and
    /// [`IsaError::ReservedBits`] when `rs1` sets a bit `encode` never
    /// writes.
    pub fn decode(funct: u8, rs1: u64, rs2: u64) -> Result<Instruction, IsaError> {
        let opcode = Opcode::from_bits(funct).ok_or(IsaError::BadOpcode(funct))?;
        // Axis (7:0), metadata type (9:8, only under the flag), metadata
        // flag (15) and target (19:16).
        let written = if (rs1 >> 15) & 1 == 1 {
            0xF_83FF
        } else {
            0xF_80FF
        };
        if rs1 & !written != 0 {
            return Err(IsaError::ReservedBits(rs1 & !written));
        }
        let target_bits = ((rs1 >> 16) & 0xF) as u8;
        let target = Target::from_bits(target_bits).ok_or(IsaError::BadTarget(target_bits))?;
        let axis = (rs1 & 0xFF) as u8;
        let metadata = if (rs1 >> 15) & 1 == 1 {
            let mbits = ((rs1 >> 8) & 0x7F) as u8 & 0x3;
            Some(MetadataType::from_bits(mbits).ok_or(IsaError::BadMetadata(mbits))?)
        } else {
            None
        };
        if opcode == Opcode::SetAxisType {
            axis_format_from_bits(rs2).ok_or(IsaError::BadAxisFormat(rs2))?;
        }
        Ok(Instruction {
            opcode,
            target,
            axis,
            metadata,
            rs2,
        })
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?}(target={:?}, axis={}, rs2={:#x})",
            self.opcode, self.target, self.axis, self.rs2
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(op: Opcode, meta: Option<MetadataType>) -> Instruction {
        Instruction {
            opcode: op,
            target: Target::Both,
            axis: 3,
            metadata: meta,
            rs2: 0xDEAD_BEEF,
        }
    }

    #[test]
    fn round_trip_all_opcodes() {
        for op in [
            Opcode::SetAddress,
            Opcode::SetSpan,
            Opcode::SetDataStride,
            Opcode::SetMetadataStride,
            Opcode::SetAxisType,
            Opcode::SetConstant,
            Opcode::Issue,
        ] {
            let i = Instruction {
                rs2: if op == Opcode::SetAxisType { 1 } else { 42 },
                ..sample(op, None)
            };
            let (f, r1, r2) = i.encode();
            assert_eq!(Instruction::decode(f, r1, r2).unwrap(), i, "{op:?}");
        }
    }

    #[test]
    fn round_trip_metadata() {
        for m in [MetadataType::RowId, MetadataType::Coord] {
            let i = sample(Opcode::SetMetadataStride, Some(m));
            let (f, r1, r2) = i.encode();
            assert_eq!(Instruction::decode(f, r1, r2).unwrap(), i);
        }
    }

    #[test]
    fn round_trip_targets() {
        for t in [Target::Src, Target::Dst, Target::Both] {
            let i = Instruction {
                target: t,
                ..sample(Opcode::SetSpan, None)
            };
            let (f, r1, r2) = i.encode();
            assert_eq!(Instruction::decode(f, r1, r2).unwrap().target, t);
        }
    }

    #[test]
    fn bad_fields_rejected() {
        assert_eq!(Instruction::decode(99, 0, 0), Err(IsaError::BadOpcode(99)));
        // Target bits 0 are invalid.
        assert_eq!(
            Instruction::decode(Opcode::SetSpan as u8, 0, 0),
            Err(IsaError::BadTarget(0))
        );
        // Axis format 9 is invalid.
        let rs1 = (Target::Both as u64) << 16;
        assert_eq!(
            Instruction::decode(Opcode::SetAxisType as u8, rs1, 9),
            Err(IsaError::BadAxisFormat(9))
        );
    }

    #[test]
    fn reserved_rs1_bits_rejected() {
        let base = (Target::Both as u64) << 16;
        for bit in [8u32, 9, 10, 14, 20, 40, 63] {
            assert_eq!(
                Instruction::decode(Opcode::SetSpan as u8, base | 1 << bit, 0),
                Err(IsaError::ReservedBits(1 << bit)),
                "bit {bit}"
            );
        }
        // Under the metadata flag, bits 8–9 carry the metadata type.
        let flagged = base | 1 << 15 | 1 << 8;
        let i = Instruction::decode(Opcode::SetMetadataStride as u8, flagged, 0).unwrap();
        assert_eq!(i.metadata, Some(MetadataType::Coord));
        assert_eq!(i.encode(), (Opcode::SetMetadataStride as u8, flagged, 0));
    }

    #[test]
    fn axis_format_bits_round_trip() {
        for f in [
            AxisFormat::Dense,
            AxisFormat::Compressed,
            AxisFormat::Bitvector,
            AxisFormat::LinkedList,
        ] {
            assert_eq!(axis_format_from_bits(axis_format_bits(f)), Some(f));
        }
        assert_eq!(axis_format_from_bits(17), None);
    }
}
