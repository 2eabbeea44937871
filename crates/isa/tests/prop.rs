//! Property tests for the instruction encoding and the host interpreter.

use proptest::prelude::*;
use stellar_isa::{
    disassemble_instruction, Host, Instruction, MemUnit, MetadataType, Opcode, Program, Target,
};
use stellar_tensor::{AxisFormat, DenseMatrix};

fn opcode() -> impl Strategy<Value = Opcode> {
    proptest::sample::select(vec![
        Opcode::SetAddress,
        Opcode::SetSpan,
        Opcode::SetDataStride,
        Opcode::SetMetadataStride,
        Opcode::SetAxisType,
        Opcode::SetConstant,
        Opcode::Issue,
    ])
}

fn target() -> impl Strategy<Value = Target> {
    proptest::sample::select(vec![Target::Src, Target::Dst, Target::Both])
}

fn metadata() -> impl Strategy<Value = Option<MetadataType>> {
    proptest::sample::select(vec![
        None,
        Some(MetadataType::RowId),
        Some(MetadataType::Coord),
    ])
}

fn instruction() -> impl Strategy<Value = Instruction> {
    (
        opcode(),
        target(),
        0u8..=255,
        metadata(),
        proptest::num::u64::ANY,
    )
        .prop_map(|(opcode, target, axis, metadata, rs2)| Instruction {
            opcode,
            target,
            axis,
            metadata,
            // Axis types must carry a valid format code.
            rs2: if opcode == Opcode::SetAxisType {
                rs2 % 4
            } else {
                rs2
            },
        })
}

proptest! {
    /// Encoding is lossless for every well-formed instruction.
    #[test]
    fn encode_decode_round_trip(i in instruction()) {
        let (f, r1, r2) = i.encode();
        prop_assert_eq!(Instruction::decode(f, r1, r2).unwrap(), i);
    }

    /// Every well-formed instruction has a non-empty C rendering ending in
    /// a semicolon.
    #[test]
    fn disassembly_total(i in instruction()) {
        let s = disassemble_instruction(&i);
        prop_assert!(s.ends_with(';'));
        prop_assert!(!s.is_empty());
    }

    /// Unknown opcodes are always rejected, never misdecoded.
    #[test]
    fn bad_opcodes_rejected(funct in 7u8..=255, rs1 in proptest::num::u64::ANY, rs2 in proptest::num::u64::ANY) {
        prop_assert!(Instruction::decode(funct, rs1, rs2).is_err());
    }

    /// Decoding arbitrary words never panics, and whatever decodes is
    /// canonical: it re-encodes to exactly the word it came from.
    #[test]
    fn decode_accepts_only_canonical_words(
        funct in prop_oneof![0u8..=255, 0u8..7],
        rs1 in prop_oneof![
            proptest::num::u64::ANY,
            // Words built field by field, so the accepting path is reached
            // too: axis, metadata type, metadata flag, target, and at times
            // one stray bit anywhere.
            (0u64..=0xFF, 0u64..4, proptest::bool::ANY, 0u64..4, 0u32..96).prop_map(
                |(axis, meta, flag, target, stray)| {
                    let word = axis | meta << 8 | u64::from(flag) << 15 | target << 16;
                    word | 1u64.checked_shl(stray).unwrap_or(0)
                },
            ),
        ],
        rs2 in prop_oneof![proptest::num::u64::ANY, 0u64..4],
    ) {
        if let Ok(i) = Instruction::decode(funct, rs1, rs2) {
            prop_assert_eq!(i.encode(), (funct, rs1, rs2));
        }
    }

    /// A dense DRAM→buffer transfer always reproduces the stored matrix,
    /// for any shape and contents.
    #[test]
    fn dense_transfer_faithful(rows in 1usize..=8, cols in 1usize..=8, seed in 0u64..500) {
        let m = {
            let mut d = DenseMatrix::zeros(rows, cols);
            let mut state = seed;
            for r in 0..rows {
                for c in 0..cols {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    d.set(r, c, ((state >> 40) % 17) as f64 - 8.0);
                }
            }
            d
        };
        let mut host = Host::new();
        let addr = host.dram_store_dense(&m).unwrap();
        let mut p = Program::new();
        p.set_src_and_dst(MemUnit::Dram, MemUnit::buffer("X"));
        p.set_data_addr_src(addr);
        p.set_span(0, cols as u64);
        p.set_span(1, rows as u64);
        p.set_axis_type(0, AxisFormat::Dense);
        p.set_axis_type(1, AxisFormat::Dense);
        p.issue();
        host.run(&p).unwrap();
        prop_assert_eq!(host.buffer_dense("X").unwrap(), m);
    }

    /// CSR transfers reproduce the matrix for arbitrary sparsity.
    #[test]
    fn csr_transfer_faithful(rows in 1usize..=10, cols in 1usize..=10, density in 0.05f64..0.9, seed in 0u64..200) {
        let m = stellar_tensor::gen::uniform(rows, cols, density, seed);
        let mut host = Host::new();
        let (data, row_ids, coords) = host.dram_store_csr(&m).unwrap();
        let mut p = Program::new();
        p.set_src_and_dst(MemUnit::Dram, MemUnit::buffer("B"));
        p.set_data_addr_src(data);
        p.set_metadata_addr_src(0, MetadataType::RowId, row_ids);
        p.set_metadata_addr_src(0, MetadataType::Coord, coords);
        p.set_span(1, rows as u64);
        p.set_span(2, cols as u64);
        p.set_axis_type(0, AxisFormat::Compressed);
        p.set_axis_type(1, AxisFormat::Dense);
        p.issue();
        host.run(&p).unwrap();
        prop_assert_eq!(host.buffer_dense("B").unwrap(), m.to_dense());
    }
}
